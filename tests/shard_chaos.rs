//! Chaos suite for the shard-parallel engine: every node hosts four
//! independent LOT pipelines behind a `ShardEngine`, and the sharded
//! verdict adds per-shard agreement, key→shard routing stability, and
//! cross-shard transaction atomicity on top of the base §6 checks.
//!
//! The suite also carries the single-shard anchor tests: a 1-shard
//! engine must reproduce a pinned trace hash (catalog v2) so future
//! refactors of the multiplexing layer cannot silently change the
//! execution, and plain-vs-sharded runs are compared semantically.

use std::collections::BTreeSet;

use canopus::{CanopusMsg, ShardMsg};
use canopus_harness::scenarios::{crash_restart_churn, superleaf_partition};
use canopus_harness::{
    cross_shard_atomicity_partition, hot_shard_skew, ChaosReport, ChaosScenario, ChaosTimeline,
    ChaosTopology, Clients, Cluster, ClusterBuilder, DeploymentSpec, HistoryConfig, Protocol,
};
use canopus_sim::NodeId;

const SHARDS: u16 = 4;

fn spec() -> DeploymentSpec {
    DeploymentSpec::paper_single_dc(3)
}

fn topo() -> ChaosTopology {
    ChaosTopology::of(&spec())
}

fn timeline() -> ChaosTimeline {
    ChaosTimeline::sim_default()
}

fn history_config() -> HistoryConfig {
    HistoryConfig {
        probe_at: timeline().converge_after(),
        ..HistoryConfig::default()
    }
}

/// Every third write becomes a cross-shard `MultiPut` spanning the
/// client's whole key set — the anchor-protocol workload.
fn multi_put_config() -> HistoryConfig {
    HistoryConfig {
        multi_put_every: 3,
        ..history_config()
    }
}

/// All keys pinned to shard 0 of a 4-shard engine: one pipeline carries
/// the entire keyed workload while the other three idle.
fn hot_shard_config() -> HistoryConfig {
    HistoryConfig {
        hot_shard: Some((0, SHARDS)),
        ..history_config()
    }
}

fn seeds() -> Vec<u64> {
    let n = match std::env::var("CHAOS_SEEDS").as_deref() {
        Ok("ci") => 4,
        Ok("extended") => 60,
        Ok(other) => other.parse().unwrap_or(20),
        _ if cfg!(debug_assertions) => 2,
        _ => 20,
    };
    (1..=n).map(|i| 0x5A4D + i).collect()
}

/// A `shards`-shard engine per node (otherwise the default simulator
/// configuration) under history clients.
fn sharded(hcfg: &HistoryConfig, seed: u64, shards: u16) -> Cluster<ShardMsg> {
    ClusterBuilder::new(&spec(), seed)
        .config((CanopusMsg::sim_config(&spec()), shards))
        .clients(Clients::History(hcfg.clone()))
        .sim()
}

fn run_one(
    hcfg: &HistoryConfig,
    scenario: &ChaosScenario,
    seed: u64,
    shards: u16,
) -> (ChaosReport, Cluster<ShardMsg>) {
    let mut cluster = sharded(hcfg, seed, shards);
    cluster.apply_plan(&scenario.plan, timeline().run_for);
    let report = cluster.verdict(
        timeline().converge_after(),
        &(scenario.exempt)(ShardMsg::FAMILY),
    );
    (report, cluster)
}

const DUMP_EVENTS: usize = 40;

fn sweep(hcfg: HistoryConfig, scenario: ChaosScenario) {
    for seed in seeds() {
        let (report, cluster) = run_one(&hcfg, &scenario, seed, SHARDS);
        assert!(
            report.ok(),
            "canopus_sharded / {} / seed {:#x}: {} ok, {} timed out, violations: {:#?}
{}",
            scenario.name,
            seed,
            report.ops_ok,
            report.ops_timed_out,
            report.violations,
            cluster.flight_dump(DUMP_EVENTS)
        );
        assert!(
            report.ops_ok > 50,
            "canopus_sharded / {} / seed {:#x}: suspiciously little progress ({} ops)
{}",
            scenario.name,
            seed,
            report.ops_ok,
            cluster.flight_dump(DUMP_EVENTS)
        );
    }
}

// ---------------------------------------------------------------------
// Sharded sweeps
// ---------------------------------------------------------------------

#[test]
fn sharded_superleaf_partition() {
    sweep(history_config(), superleaf_partition(&topo(), &timeline()));
}

#[test]
fn sharded_crash_restart_churn() {
    sweep(history_config(), crash_restart_churn(&topo(), &timeline()));
}

#[test]
fn sharded_hot_shard_skew() {
    sweep(hot_shard_config(), hot_shard_skew(&topo(), &timeline()));
}

#[test]
fn sharded_cross_shard_atomicity_partition() {
    sweep(
        multi_put_config(),
        cross_shard_atomicity_partition(&topo(), &timeline()),
    );
}

/// Multi-key transactions under the stacked partition: the sweep above
/// proves atomicity; this asserts the anchor protocol actually engaged
/// (cross-shard transactions were split and fully committed, not just
/// absent).
#[test]
fn cross_shard_txns_flow_under_partition() {
    let scenario = cross_shard_atomicity_partition(&topo(), &timeline());
    let (report, cluster) = run_one(&multi_put_config(), &scenario, 0x5A4D + 1, SHARDS);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    let trusted = cluster.trusted_nodes();
    let node = trusted.first().copied().expect("some trusted node");
    let stats = cluster.node(node).stats();
    assert!(
        stats.txns_started > 10,
        "expected cross-shard transactions, got {stats:?}"
    );
    assert_eq!(
        stats.txns_started, stats.txns_committed,
        "every started txn must release its reply: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Key→shard stability across restarts
// ---------------------------------------------------------------------

/// After a crash-restart churn, EVERY node — including the restarted one,
/// which rebuilt its engine from the restart factory — must file each
/// committed key under the shard the router maps it to. A router that
/// drifted across restart would split a key's history between pipelines.
#[test]
fn key_to_shard_stable_across_restart() {
    let scenario = crash_restart_churn(&topo(), &timeline());
    let (report, cluster) = run_one(&history_config(), &scenario, 0x5A4D + 2, SHARDS);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    for i in 0..spec().node_count() {
        let node = NodeId(i as u32);
        if !cluster.sim.is_alive(node) {
            continue;
        }
        let engine = cluster.node(node);
        let router = engine.router();
        for s in 0..engine.shard_count() {
            for cc in engine.shard(s).committed_log() {
                for set in &cc.sets {
                    for op in &set.ops {
                        let keys: Vec<u64> = match op {
                            canopus::CommittedOp::Put { key, .. } => vec![*key],
                            canopus::CommittedOp::MultiPut { keys, .. } => keys.clone(),
                            canopus::CommittedOp::Synthetic { .. } => vec![],
                        };
                        for key in keys {
                            assert_eq!(
                                router.shard_of_key(key),
                                s,
                                "node {node}: key {key} committed on shard {s} but routes \
                                 elsewhere"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Determinism and the single-shard anchor
// ---------------------------------------------------------------------

fn traced_run(hcfg: &HistoryConfig, seed: u64, shards: u16) -> (u64, u64) {
    let scenario = superleaf_partition(&topo(), &timeline());
    let mut cluster = sharded(hcfg, seed, shards);
    cluster.sim.enable_trace_hash();
    cluster.apply_plan(&scenario.plan, timeline().run_for);
    let report = cluster.verdict(
        timeline().converge_after(),
        &(scenario.exempt)(ShardMsg::FAMILY),
    );
    assert!(report.ok(), "violations: {:#?}", report.violations);
    (
        cluster.sim.trace_hash().expect("enabled"),
        cluster.sim.events_processed(),
    )
}

/// Two sharded runs of the same plan + seed are byte-identical, and a
/// different seed explores a different schedule.
#[test]
fn sharded_determinism_same_seed_identical() {
    let a = traced_run(&history_config(), 7, SHARDS);
    let b = traced_run(&history_config(), 7, SHARDS);
    assert_eq!(a, b, "sharded runs diverged");
    let c = traced_run(&history_config(), 8, SHARDS);
    assert_ne!(a.0, c.0, "different seeds should differ");
}

/// The plain node's execution, pinned by value: default simulator
/// configuration, history clients, seed 7, one super-leaf partitioned and
/// healed. `determinism_*` compare a run with a second run and the BENCH
/// gates allow 20 %, so nothing else holds the unsharded path to the event.
#[test]
fn plain_trace_hash_is_pinned() {
    let scenario = superleaf_partition(&topo(), &timeline());
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(&spec(), 7)
        .clients(Clients::History(history_config()))
        .sim();
    cluster.sim.enable_trace_hash();
    cluster.apply_plan(&scenario.plan, timeline().run_for);
    let report = cluster.verdict(
        timeline().converge_after(),
        &(scenario.exempt)(CanopusMsg::NAME),
    );
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert_eq!(
        (
            cluster.sim.trace_hash().expect("enabled"),
            cluster.sim.events_processed()
        ),
        (0xeb02_61b7_3dbb_6feb, 148_994),
        "plain trace drifted: if intentional, re-pin and say what moved it"
    );
}

/// The single-shard engine's execution is pinned (catalog v2): a refactor
/// of the shard multiplexing layer that changes even one event of the
/// degenerate 1-shard case must be an explicit, versioned decision.
///
/// Re-pinned from `0xe82e_4821_6bcd_6f2b` by PR 16's two changes to the
/// super-leaf Raft groups, each of which changes what travels: every
/// `AppendEntries` is 8 bytes longer (the `discarded` index that lets
/// followers truncate their logs), and `next_index` advances when an
/// append is sent, so an entry goes to each follower once and the commit
/// notification that follows it is empty. The catalog (the fault
/// schedules) did not change; its fingerprint holds.
#[test]
fn single_shard_trace_hash_is_pinned() {
    let (hash, events) = traced_run(&history_config(), 7, 1);
    let again = traced_run(&history_config(), 7, 1);
    assert_eq!((hash, events), again, "single-shard run not reproducible");
    assert_eq!(
        hash, 0x85e9_4dc2_ff51_3901,
        "single-shard trace drifted: if intentional, re-pin and say what moved it"
    );
}

/// Semantic equivalence of plain vs sharded(1): same clients, same seed,
/// same scenario — both verdicts must be clean and both must commit a
/// healthy volume of operations. (Bit-identical traces are impossible:
/// the sharded wire frames carry a shard id and the engine derives
/// per-shard RNG streams, so the pinned hash above anchors the sharded
/// execution instead.)
#[test]
fn single_shard_matches_plain_semantics() {
    let seed = 0x5A4D + 3;
    let scenario = superleaf_partition(&topo(), &timeline());

    let mut plain = ClusterBuilder::<CanopusMsg>::new(&spec(), seed)
        .clients(Clients::History(history_config()))
        .sim();
    plain.apply_plan(&scenario.plan, timeline().run_for);
    let plain_report = plain.verdict(
        timeline().converge_after(),
        &(scenario.exempt)(CanopusMsg::FAMILY),
    );

    let (sharded_report, _) = run_one(&history_config(), &scenario, seed, 1);

    assert!(plain_report.ok(), "plain: {:#?}", plain_report.violations);
    assert!(
        sharded_report.ok(),
        "sharded(1): {:#?}",
        sharded_report.violations
    );
    assert!(plain_report.ops_ok > 50 && sharded_report.ops_ok > 50);
    // The engines saw equivalent traffic: within 25% op volume of each
    // other (timing differs; the workload and its completion must not).
    let (a, b) = (plain_report.ops_ok as f64, sharded_report.ops_ok as f64);
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "plain committed {a} ops but sharded(1) committed {b}"
    );
}

/// The convergence-exemption plumbing reaches the sharded verdict: an
/// empty trusted set (every node exempted) still yields a well-formed
/// report.
#[test]
fn sharded_verdict_handles_exemptions() {
    let scenario = superleaf_partition(&topo(), &timeline());
    let (_, cluster) = run_one(&history_config(), &scenario, 0x5A4D + 4, SHARDS);
    let all: BTreeSet<NodeId> = (0..spec().node_count() as u32).map(NodeId).collect();
    let report = cluster.verdict(timeline().converge_after(), &all);
    assert!(report.ok(), "violations: {:#?}", report.violations);
}
