//! Nemesis over real sockets: partition a live Canopus cluster
//! mid-run, watch consensus stall without diverging, heal, and watch it
//! commit again — then run the chaos verdict over the recorded histories.
//!
//! This is `examples/nemesis_demo.rs`'s scenario executed on the TCP
//! transport instead of the simulator: six `CanopusNode`s in two
//! super-leaves plus six closed-loop history clients on loopback TCP, a
//! wall-clock nemesis driving the same `FaultPlan` through the
//! transport's shared `FaultRules` table.
//!
//! ```text
//! cargo run --release --example live_nemesis [-- --metrics]
//! ```
//!
//! With `--metrics`, prints the text exposition of every node's metrics
//! registry (consensus counters, per-peer wire traffic, fault drops) at
//! exit. Exits non-zero if any safety or convergence check fails.

use canopus::CanopusMsg;
use canopus_harness::scenarios::superleaf_partition;
use canopus_harness::{live_spec, live_timeline, ChaosTopology, ClusterBuilder, Protocol};

fn main() {
    let show_metrics = std::env::args().any(|a| a == "--metrics");
    let spec = live_spec();
    let t = live_timeline();
    let scenario = superleaf_partition(&ChaosTopology::of(&spec), &t);
    let seed = 7;

    println!(
        "spawning {} Canopus nodes + {} history clients on loopback TCP ...",
        spec.node_count(),
        spec.node_count()
    );
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(&spec, seed).live();

    println!(
        "running scenario `{}` on the wall clock ({} ms horizon):",
        scenario.name,
        t.run_for.as_millis()
    );
    let applied = cluster.run_plan(&scenario.plan, t.run_for);
    for (at, action) in &applied {
        println!("  t={:>7.1}ms  {:?}", at.as_nanos() as f64 / 1e6, action);
    }

    println!("shutting down and running the chaos verdict ...");
    let outcome = cluster.shutdown();
    if show_metrics {
        for (id, snap) in outcome.metrics_snapshots() {
            println!("--- metrics: {id} ---");
            print!("{}", snap.to_text());
        }
    }
    let report = outcome.verdict(t.converge_after(), &(scenario.exempt)(CanopusMsg::NAME));
    println!(
        "verdict [{}]: {} ops ok, {} timed out, {} reads validity-checked",
        report.protocol, report.ops_ok, report.ops_timed_out, report.reads_checked
    );
    if report.ok() {
        println!(
            "all checks passed over real sockets: agreement, FIFO, read validity, \
             post-heal convergence"
        );
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
