//! Figure 6 — multi-datacenter scaling (paper §8.2).
//!
//! Median completion time vs throughput for 3, 5, and 7 datacenters
//! (3 nodes each, Table-1 latencies), Canopus (pipelined, 5 ms cycles)
//! vs EPaxos (5 ms batches), 20 % writes. The paper marks the throughput
//! where latency reaches 1.5× the base (low-load) latency.
//!
//! Claims to reproduce: Canopus reaches millions of requests/second and
//! *gains* throughput with more datacenters (the paper: ≈2.6/3.8/4.7 M);
//! EPaxos saturates 4×–13.6× lower.
//!
//! Usage: `cargo run --release -p canopus-bench --bin fig6_multi_dc [--quick]`

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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sites_list: &[usize] = if quick { &[3] } else { &[3, 5, 7] };
    let search = SearchSpec {
        start_rate: 100_000.0,
        growth: 1.8,
        // WAN base latency is ~a round trip; the knee criterion follows the
        // paper: saturation relative to base, not an absolute 10 ms.
        latency_limit: Dur::millis(500),
        max_steps: if quick { 7 } else { 10 },
    };

    let mut summary = Vec::new();
    for &sites in sites_list {
        let spec = DeploymentSpec::paper_multi_dc(sites);
        println!(
            "\n===== {sites} datacenters ({} nodes), base RTT bound {} =====",
            spec.node_count(),
            spec.max_rtt()
        );

        let cfg = CanopusMsg::sim_config(&spec);
        let canopus = find_max_throughput(
            |rate| run::<CanopusMsg>(&spec, &wan_load(rate), cfg.clone(), 42),
            &search,
        );
        println!("\nCanopus ladder:");
        let mut rows = Vec::new();
        for r in &canopus.ladder {
            rows.push(vec![
                fmt_rate(r.offered),
                fmt_rate(r.achieved),
                fmt_dur(r.median),
                fmt_dur(r.p95),
            ]);
        }
        println!(
            "{}",
            render_table(&["offered", "achieved", "median", "p95"], &rows)
        );

        let ecfg = EpaxosConfig {
            record_log: false,
            ..EpaxosConfig::default()
        };
        let epaxos = find_max_throughput(
            |rate| run::<EpaxosMsg>(&spec, &wan_load(rate), ecfg.clone(), 42),
            &search,
        );
        println!("EPaxos ladder:");
        let mut rows = Vec::new();
        for r in &epaxos.ladder {
            rows.push(vec![
                fmt_rate(r.offered),
                fmt_rate(r.achieved),
                fmt_dur(r.median),
                fmt_dur(r.p95),
            ]);
        }
        println!(
            "{}",
            render_table(&["offered", "achieved", "median", "p95"], &rows)
        );

        // 1.5x-base-latency crossings, as in the paper's vertical lines.
        let base = canopus
            .ladder
            .first()
            .and_then(|r| r.median)
            .unwrap_or(Dur::ZERO);
        let knee = canopus
            .ladder
            .iter()
            .take_while(|r| {
                r.median
                    .is_some_and(|m| m.as_nanos() <= base.as_nanos() * 3 / 2)
            })
            .last()
            .map(|r| r.achieved)
            .unwrap_or(0.0);
        let c_max = canopus.max_throughput();
        let e_max = epaxos.max_throughput();
        println!(
            "summary: canopus max {} (1.5x-base knee at {}), epaxos max {} => {:.1}x",
            fmt_rate(c_max),
            fmt_rate(knee),
            fmt_rate(e_max),
            if e_max > 0.0 { c_max / e_max } else { f64::NAN },
        );
        summary.push(vec![
            sites.to_string(),
            fmt_rate(c_max),
            fmt_rate(e_max),
            format!("{:.1}x", if e_max > 0.0 { c_max / e_max } else { f64::NAN }),
        ]);
    }
    println!("\nFigure 6 summary — max throughput per deployment");
    println!(
        "{}",
        render_table(&["DCs", "canopus", "epaxos", "ratio"], &summary)
    );
}
