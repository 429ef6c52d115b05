//! Quickstart: a six-node Canopus group on the deterministic simulator.
//!
//! Builds the paper's minimal interesting deployment — two super-leaves of
//! three nodes (Figure 2's topology) — drives it with one closed-loop
//! client per node issuing interleaved writes and reads, shows that every
//! node commits the identical total order, and checks the clients'
//! histories: agreement, per-client FIFO and linearizable reads.
//!
//! Run with: `cargo run --example quickstart`

use canopus::{CanopusMsg, WriteView};
use canopus_harness::{ClusterBuilder, DeploymentSpec, HistoryConfig, TopoSpec};
use canopus_net::LinkParams;
use canopus_sim::{Dur, NodeId};

fn main() {
    // ---------------------------------------------------------------
    // 1. Describe the deployment: one datacenter, two racks, three
    //    Canopus nodes per rack. Each rack is one super-leaf.
    // ---------------------------------------------------------------
    let spec = DeploymentSpec {
        topo: TopoSpec::SingleDc {
            racks: 2,
            nodes_per_rack: 3,
        },
        link: LinkParams::default(),
    };

    // ---------------------------------------------------------------
    // 2. Build the simulation: a topology-aware fabric, the six protocol
    //    nodes, and in each node's rack a client that writes and reads
    //    its own keys, one operation at a time (`HistoryConfig`).
    // ---------------------------------------------------------------
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(&spec, 42).sim();

    // ---------------------------------------------------------------
    // 3. Run past the moment the clients stop and inspect the outcome.
    // ---------------------------------------------------------------
    let clients = HistoryConfig::default();
    cluster.sim.run_for(Dur::secs(2));

    println!("== per-node state ==");
    let reference = cluster.node(NodeId(0)).stats().commit_digest;
    for &n in &cluster.nodes {
        let node = cluster.node(n);
        let s = node.stats();
        println!(
            "node {}: cycles={:<3} writes_committed={:<3} store_keys={:<2} digest={:016x}",
            n.0,
            s.committed_cycles,
            s.committed_weight,
            node.store().len(),
            s.commit_digest,
        );
        assert_eq!(s.commit_digest, reference, "agreement violated!");
    }

    println!("\n== first committed cycles at node 0 ==");
    for cc in cluster.node(NodeId(0)).committed_log().iter().take(4) {
        let ops: Vec<String> = cc
            .sets
            .iter()
            .flat_map(|set| {
                set.ops.iter().map(move |op| match op.write {
                    WriteView::Put { key, .. } => format!("{}:put(k{key})", set.origin),
                    WriteView::SyntheticWrite { count, .. } => {
                        format!("{}:batch({count})", set.origin)
                    }
                    WriteView::MultiPut(puts) => {
                        format!("{}:txn({} keys)", set.origin, puts.len())
                    }
                })
            })
            .collect();
        println!("  {:?} @ {}: [{}]", cc.cycle, cc.at, ops.join(", "));
    }

    let report = cluster.verdict(clients.probe_at, &Default::default());
    println!(
        "\nclients: {} ops ok, {} timed out, {} reads checked for linearizability",
        report.ops_ok, report.ops_timed_out, report.reads_checked
    );
    assert!(report.ok(), "verdict failed: {:?}", report.violations);
    println!("\nAll six nodes committed the identical total order. ✓");
}
