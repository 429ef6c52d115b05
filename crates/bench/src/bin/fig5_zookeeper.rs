//! Figure 5 — ZooKeeper vs ZKCanopus (paper §8.1.2).
//!
//! Median request completion time vs offered throughput at 9 and 27 nodes.
//! ZooKeeper: Zab with a leader + five followers, remaining nodes are
//! observers (the paper's configuration). ZKCanopus: the same deployment
//! and workload served by Canopus with every node a full participant.
//!
//! Claims to reproduce: ZooKeeper's centralized leader caps throughput at
//! a few hundred thousand requests/second regardless of group size;
//! ZKCanopus scales far beyond (the paper reports >16× at read-heavy
//! load); at light load ZKCanopus pays a small (sub-millisecond to
//! low-millisecond) latency premium over ZooKeeper's direct broadcast.
//!
//! Usage: `cargo run --release -p canopus-bench --bin fig5_zookeeper [--quick]`

use canopus::CanopusMsg;
use canopus_harness::*;
use canopus_sim::Dur;
use canopus_zab::{ZabConfig, ZabMsg};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[3] } else { &[3, 9] };
    let search = SearchSpec {
        start_rate: 30_000.0,
        growth: 1.7,
        latency_limit: Dur::millis(10),
        max_steps: if quick { 8 } else { 12 },
    };

    for &per_rack in sizes {
        let spec = DeploymentSpec::paper_single_dc(per_rack);
        let n = spec.node_count();
        println!("\n===== {n} nodes =====");

        // ZooKeeper (Zab, leader + 5 followers, rest observers).
        let zab_cfg = ZabConfig {
            participants: 6.min(n),
            ..ZabConfig::default()
        };
        let zk = find_max_throughput(
            |rate| run::<ZabMsg>(&spec, &LoadSpec::new(rate), zab_cfg.clone(), 42),
            &search,
        );

        // ZKCanopus (all nodes participate).
        let cfg = CanopusMsg::sim_config(&spec);
        let zkc = find_max_throughput(
            |rate| run::<CanopusMsg>(&spec, &LoadSpec::new(rate), cfg.clone(), 42),
            &search,
        );

        println!("\nZooKeeper latency/throughput ladder:");
        let mut rows = Vec::new();
        for r in &zk.ladder {
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

        println!("ZKCanopus latency/throughput ladder:");
        let mut rows = Vec::new();
        for r in &zkc.ladder {
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

        let zk_max = zk.max_throughput();
        let zkc_max = zkc.max_throughput();
        println!(
            "summary: ZooKeeper max = {}, ZKCanopus max = {} ({:.1}x)",
            fmt_rate(zk_max),
            fmt_rate(zkc_max),
            if zk_max > 0.0 {
                zkc_max / zk_max
            } else {
                f64::NAN
            },
        );
        // Low-load latency premium (first ladder point of each).
        if let (Some(zk0), Some(zkc0)) = (zk.ladder.first(), zkc.ladder.first()) {
            if let (Some(a), Some(b)) = (zk0.median, zkc0.median) {
                println!(
                    "low-load medians: ZooKeeper {}, ZKCanopus {} (premium {:.2} ms)",
                    fmt_dur(Some(a)),
                    fmt_dur(Some(b)),
                    b.as_millis_f64() - a.as_millis_f64(),
                );
            }
        }
    }
}
