//! Figure 6 — multi-datacenter scaling (paper §8.2).
//!
//! Median completion time vs throughput for 3, 5, and 7 datacenters
//! (3 nodes each, Table-1 latencies), Canopus (pipelined, 5 ms cycles)
//! vs EPaxos (5 ms batches), 20 % writes, each searched to its knee under
//! a 500 ms median (`find_max_throughput`).
//!
//! Modelled: every number is an output of the simulator's price table.
//! The figure's claims are tests: the median below the knee
//! (`canopus_multi_dc_latency_tracks_wan_rtt`, `tests/cross_protocol.rs`),
//! Canopus gaining throughput with more datacenters and EPaxos's ratio
//! (`tests/paper_claims.rs`). This program prints the probes around each
//! knee and gates nothing but finishing.
//!
//! Usage: `cargo run --release -p canopus-bench --bin fig6_multi_dc [--quick]`
//! (`--quick`: three datacenters only)

use canopus::CanopusMsg;
use canopus_epaxos::{EpaxosConfig, EpaxosMsg};
use canopus_harness::*;
use canopus_sim::Dur;

fn wan_load(rate: f64) -> LoadSpec {
    let mut load = LoadSpec::new(rate);
    // WAN cycles take ~a round trip; measure over a longer window.
    load.warmup = Dur::millis(900);
    load.duration = Dur::millis(1100);
    load
}

fn ms(d: Option<Dur>) -> f64 {
    d.map_or(f64::NAN, |d| d.as_millis_f64())
}

/// Prints a search's probes in increasing offered load, marking the two
/// that bracket the knee.
fn print_probes(name: &str, search: &SearchResult<RunResult>) {
    println!("{name} probes (offered, achieved k/s; median, p95 ms):");
    let mut probes: Vec<&RunResult> = search.probes().iter().collect();
    probes.sort_by(|a, b| a.offered.total_cmp(&b.offered));
    for r in probes {
        let mark = if search.best().is_some_and(|b| std::ptr::eq(b, r)) {
            "  <- best"
        } else if search.above().is_some_and(|a| std::ptr::eq(a, r)) {
            "  <- past the knee"
        } else {
            ""
        };
        println!(
            "  {:>9.1} {:>9.1}  {:>8.2} {:>8.2}{mark}",
            r.offered / 1e3,
            r.achieved / 1e3,
            ms(r.median),
            ms(r.p95),
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sites_list: &[usize] = if quick { &[3] } else { &[3, 5, 7] };
    // WAN base latency is ~a round trip; the knee criterion follows the
    // paper: saturation relative to base, not an absolute 10 ms.
    let limit = Dur::millis(500);

    for &sites in sites_list {
        let spec = DeploymentSpec::paper_multi_dc(sites);
        println!(
            "\n===== {sites} datacenters ({} nodes), base RTT bound {} =====",
            spec.node_count(),
            spec.max_rtt()
        );

        let cfg = CanopusMsg::sim_config(&spec);
        let canopus = find_max_throughput(limit, |rate| {
            run::<CanopusMsg>(&spec, &wan_load(rate), cfg.clone(), 42)
        });
        print_probes("Canopus", &canopus);

        let ecfg = EpaxosConfig {
            record_log: false,
            ..EpaxosConfig::default()
        };
        let epaxos = find_max_throughput(limit, |rate| {
            run::<EpaxosMsg>(&spec, &wan_load(rate), ecfg.clone(), 42)
        });
        print_probes("EPaxos", &epaxos);

        let c_max = canopus.max_throughput().unwrap_or(0.0);
        let e_max = epaxos.max_throughput().unwrap_or(0.0);
        println!(
            "summary: canopus max {:.1} k/s, epaxos max {:.1} k/s => {:.1}x",
            c_max / 1e3,
            e_max / 1e3,
            c_max / e_max,
        );
    }
}
