//! Nemesis demo: partition a Canopus super-leaf mid-run, watch consensus
//! stall without diverging, heal, and watch it commit again — then run the
//! full chaos verdict (agreement + client FIFO + linearizability +
//! convergence) over the recorded histories.
//!
//! ```text
//! cargo run --release --example nemesis_demo
//! ```
//!
//! Exits non-zero if any safety or convergence check fails, so the smoke
//! verification path can run it directly.

use canopus::CanopusMsg;
use canopus_harness::{Clients, Cluster, ClusterBuilder, DeploymentSpec, HistoryConfig};
use canopus_sim::fault::{FaultEvent, FaultPlan};
use canopus_sim::{Dur, NodeId, Time};

fn main() {
    // 3 racks × 3 nodes, one super-leaf per rack, one history client per
    // node issuing tagged writes and reads closed-loop.
    let spec = DeploymentSpec::paper_single_dc(3);
    let hcfg = HistoryConfig {
        probe_at: Time::ZERO + Dur::millis(1100),
        ..HistoryConfig::default()
    };
    let seed = 7;
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(&spec, seed)
        .clients(Clients::History(hcfg))
        .sim();
    cluster.sim.enable_trace_hash();

    // Cut super-leaf 0 from super-leaves 1 and 2 at t=200 ms; heal at
    // t=900 ms; run to t=2100 ms.
    let leaf0: Vec<NodeId> = (0..3).map(NodeId).collect();
    let rest: Vec<NodeId> = (3..9).map(NodeId).collect();
    let plan = FaultPlan::new()
        .at(
            Dur::millis(200),
            FaultEvent::CutGroups { a: leaf0, b: rest },
        )
        .at(Dur::millis(900), FaultEvent::HealAll);

    let committed =
        |cluster: &Cluster<CanopusMsg>| cluster.node(NodeId(0)).stats().committed_cycles;

    println!("phase 1: healthy cluster, faults scheduled");
    let applied = cluster.run_plan(&plan, Dur::millis(2100));
    for (at, action) in &applied {
        println!("  t={:>5.1}ms  {:?}", at.as_nanos() as f64 / 1e6, action);
    }
    println!(
        "phase 2: run complete at t={} ms, node 0 committed {} cycles",
        cluster.sim.now().as_millis(),
        committed(&cluster)
    );

    let report = cluster.verdict(Time::ZERO + Dur::millis(1100), &Default::default());
    println!(
        "verdict [{}]: {} ops ok, {} timed out, {} reads linearizability-checked",
        report.protocol, report.ops_ok, report.ops_timed_out, report.reads_checked
    );
    println!(
        "trace hash: {:#018x} (rerun with the same seed to reproduce exactly)",
        cluster.sim.trace_hash().expect("enabled")
    );
    if report.ok() {
        println!("all checks passed: agreement, FIFO, linearizability, post-heal convergence");
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
