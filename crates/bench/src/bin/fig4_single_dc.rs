//! Figure 4 — single-datacenter scaling (paper §8.1.1).
//!
//! (a) Maximum throughput vs group size {9, 15, 21, 27} for Canopus at
//!     20 %, 50 %, and 100 % writes, and EPaxos with 5 ms and 2 ms batching
//!     (0 % command interference, 20 % writes).
//! (b) Median request completion time at 70 % of each maximum.
//!
//! The paper's claims this must reproduce: Canopus read-heavy throughput
//! grows with group size while EPaxos stays flat; Canopus 100 %-write
//! throughput is roughly constant; EPaxos@2ms collapses with scale; at 27
//! nodes / 20 % writes Canopus exceeds 3× EPaxos@5ms.
//!
//! Usage: `cargo run --release -p canopus-bench --bin fig4_single_dc [--quick]`

use canopus::CanopusMsg;
use canopus_epaxos::{EpaxosConfig, EpaxosMsg};
use canopus_harness::*;
use canopus_sim::Dur;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[3, 9] } else { &[3, 5, 7, 9] };
    let search = SearchSpec {
        start_rate: 100_000.0,
        growth: 1.7,
        latency_limit: Dur::millis(10),
        max_steps: if quick { 8 } else { 12 },
    };

    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    for &per_rack in sizes {
        let spec = DeploymentSpec::paper_single_dc(per_rack);
        let n = spec.node_count();
        eprintln!("== {n} nodes ==");

        let mut row_a = vec![n.to_string()];
        let mut row_b = vec![n.to_string()];

        // Canopus at three write ratios.
        for writes in [0.2, 0.5, 1.0] {
            let cfg = CanopusMsg::sim_config(&spec);
            let result = find_max_throughput(
                |rate| {
                    run::<CanopusMsg>(
                        &spec,
                        &LoadSpec::new(rate).with_writes(writes),
                        cfg.clone(),
                        42,
                    )
                },
                &search,
            );
            let max = result.max_throughput();
            let lat = latency_at_70pct(max, |rate| {
                run::<CanopusMsg>(
                    &spec,
                    &LoadSpec::new(rate).with_writes(writes),
                    cfg.clone(),
                    43,
                )
            });
            eprintln!(
                "  canopus {:.0}% writes: max={} med@70%={}",
                writes * 100.0,
                fmt_rate(max),
                fmt_dur(lat.median)
            );
            row_a.push(fmt_rate(max));
            row_b.push(fmt_dur(lat.median));
        }

        // EPaxos at 5 ms and 2 ms batch durations (20% writes).
        for batch_ms in [5u64, 2] {
            let cfg = EpaxosConfig {
                batch_duration: Dur::millis(batch_ms),
                record_log: false,
            };
            let result = find_max_throughput(
                |rate| run::<EpaxosMsg>(&spec, &LoadSpec::new(rate), cfg.clone(), 42),
                &search,
            );
            let max = result.max_throughput();
            let lat = latency_at_70pct(max, |rate| {
                run::<EpaxosMsg>(&spec, &LoadSpec::new(rate), cfg.clone(), 43)
            });
            eprintln!(
                "  epaxos {batch_ms}ms batch: max={} med@70%={}",
                fmt_rate(max),
                fmt_dur(lat.median)
            );
            row_a.push(fmt_rate(max));
            row_b.push(fmt_dur(lat.median));
        }
        rows_a.push(row_a);
        rows_b.push(row_b);
    }

    let headers = [
        "nodes",
        "canopus 20%w",
        "canopus 50%w",
        "canopus 100%w",
        "epaxos 5ms",
        "epaxos 2ms",
    ];
    println!("\nFigure 4(a) — maximum throughput vs group size");
    println!("{}", render_table(&headers, &rows_a));
    println!("\nFigure 4(b) — median completion time at 70% of max throughput");
    println!("{}", render_table(&headers, &rows_b));
}
