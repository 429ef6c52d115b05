//! Chaos suite for shard-parallel Canopus: every node hosts four
//! independent LOT pipelines (`CanopusConfig::shards`), and the verdict's
//! per-shard agreement, key→shard routing stability, and cross-shard
//! transaction atomicity checks have four lanes to bite on, on top of the
//! base §6 checks.
//!
//! The suite also carries the trace anchors: the default (one-lane) node
//! must reproduce a pinned trace hash, by default and with `shards: 1`
//! spelled out, so a refactor of the lane plumbing cannot silently change
//! the unsharded execution; the four-lane node and the two baselines
//! are pinned the same way.

use std::collections::BTreeSet;

use canopus::{CanopusConfig, CanopusMsg};
use canopus_epaxos::EpaxosMsg;
use canopus_harness::scenarios::{
    assert_verdict, asymmetric_loss, crash_restart_churn, seed_sweep, superleaf_partition,
};
use canopus_harness::{
    cross_shard_atomicity_partition, hot_shard_skew, ChaosReport, ChaosScenario, ChaosTimeline,
    ChaosTopology, Clients, Cluster, ClusterBuilder, DeploymentSpec, HistoryConfig, Protocol,
};
use canopus_sim::NodeId;
use canopus_zab::ZabMsg;

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

/// All keys pinned to shard 0 of four: one pipeline carries
/// the entire keyed workload while the other three idle.
fn hot_shard_config() -> HistoryConfig {
    HistoryConfig {
        hot_shard: Some((0, SHARDS)),
        ..history_config()
    }
}

/// `shards` lanes per node (otherwise the default simulator
/// configuration) under history clients.
fn sharded(hcfg: &HistoryConfig, seed: u64, shards: u16) -> Cluster<CanopusMsg> {
    ClusterBuilder::new(&spec(), seed)
        .config(CanopusConfig {
            shards,
            ..CanopusMsg::sim_config(&spec())
        })
        .clients(Clients::History(hcfg.clone()))
        .sim()
}

fn run_one(
    hcfg: &HistoryConfig,
    scenario: &ChaosScenario,
    seed: u64,
    shards: u16,
) -> (ChaosReport, Cluster<CanopusMsg>) {
    let mut cluster = sharded(hcfg, seed, shards);
    cluster.run_plan(&scenario.plan, timeline().run_for);
    let report = cluster.verdict(
        timeline().converge_after(),
        &(scenario.exempt)(CanopusMsg::NAME),
    );
    (report, cluster)
}

const DUMP_EVENTS: usize = 40;

fn sweep(hcfg: HistoryConfig, scenario: ChaosScenario) {
    for seed in seed_sweep("CHAOS_SEEDS", 0x5A4D, 20) {
        let (report, cluster) = run_one(&hcfg, &scenario, seed, SHARDS);
        assert_verdict(&report, "canopus_sharded", scenario.name, seed, 50, || {
            cluster.flight_dump(DUMP_EVENTS)
        });
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
    let (started, committed) = cluster.node(node).cross_shard_txns();
    assert!(
        started > 10,
        "expected cross-shard transactions, got {started}"
    );
    assert_eq!(
        started, committed,
        "every started txn must release its reply"
    );
}

// ---------------------------------------------------------------------
// Key→shard stability across restarts
// ---------------------------------------------------------------------

/// After a crash-restart churn, EVERY node — including the restarted one,
/// which was rebuilt by the restart factory — must file each
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
        let hosted = cluster.node(node);
        let router = hosted.router();
        for s in 0..hosted.lane_count() {
            for cc in hosted.lane(s).committed_log() {
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

/// Runs `scenario` on `cluster` with the kernel's trace hash on; the
/// verdict must hold. Returns the hash and the event count.
fn traced<P: Protocol>(mut cluster: Cluster<P>, scenario: &ChaosScenario) -> (u64, u64) {
    cluster.sim.enable_trace_hash();
    cluster.run_plan(&scenario.plan, timeline().run_for);
    let report = cluster.verdict(timeline().converge_after(), &(scenario.exempt)(P::NAME));
    assert!(report.ok(), "violations: {:#?}", report.violations);
    (
        cluster.sim.trace_hash().expect("enabled"),
        cluster.sim.events_processed(),
    )
}

fn traced_run(hcfg: &HistoryConfig, seed: u64, shards: u16) -> (u64, u64) {
    traced(
        sharded(hcfg, seed, shards),
        &superleaf_partition(&topo(), &timeline()),
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
///
/// Re-pinned from `0xeb02_61b7_3dbb_6feb` / 148 994 events, for two
/// reasons landed together: a follower in a super-leaf group of at most
/// three now commits a current-term entry when it appends it, so the
/// leader's empty commit notifications and their acks are no longer sent
/// (four messages per broadcast instead of eight, so far fewer events);
/// and `RaftMsg::wire_size` now counts the 8-byte `discarded`
/// field of `AppendEntries`, which the simulator's byte counters and the
/// trace hash read.
///
/// Re-pinned again from `0x716b_6ab7_f0d0_fb7a` (same 112 954 events): an
/// encoded request set is 4 bytes shorter, having lost the empty §7.2 key
/// list (a `u32` count) that followed its ops. Raft appends carry encoded
/// sets, the fabric delays each message by its size and the trace hash
/// mixes in `wire_size`; a build that still writes a zero `u32` there
/// reproduces the old value.
///
/// Re-pinned again from `0x0622_b8d4_ff9a_2608` / 112 954 events: fetched
/// states leave the Raft logs. A representative forwards each state it
/// fetched to its super-leaf peers as a plain proposal-response and takes
/// it in at once, instead of appending it to its own broadcast group and
/// waiting for the delivery; the group's appends and acks for it are gone.
#[test]
fn plain_trace_hash_is_pinned() {
    assert_eq!(
        plain_traced_run(&superleaf_partition(&topo(), &timeline())),
        (0xb21c_cc02_1ae9_ecf2, 107_450),
        "plain trace drifted: if intentional, re-pin and say what moved it"
    );
}

/// The same plain node under `asymmetric_loss`: the only pin on the loss
/// path, i.e. on when the fabric draws from the kernel's RNG (one `f64`
/// per routed message, and only while the sender's loss rate is positive).
///
/// Re-pinned from `0x284f_9d62_f86b_eaf5` / 193 309 events for the same
/// two reasons as [`plain_trace_hash_is_pinned`]: follower-side commit in
/// groups of at most three (no commit notifications, so fewer messages to
/// route, draw for and lose) and the corrected `AppendEntries` wire size.
///
/// Re-pinned again from `0x83e2_6758_478d_c85a` / 116 563 events for the
/// reason given at [`plain_trace_hash_is_pinned`]: 4 fewer bytes per
/// encoded request set.
///
/// Re-pinned again from `0xeb53_a652_61c6_8c0a` / 124 400 events for the
/// reason given at [`plain_trace_hash_is_pinned`]: fetched states leave
/// the Raft logs. Only this pin also moves with the loss handling that
/// comes with it: a member whose forward was lost fetches the state as
/// soon as a later cycle shows that it exists, not only after its cycle
/// has stalled for `fetch_timeout`.
#[test]
fn asymmetric_loss_trace_hash_is_pinned() {
    assert_eq!(
        plain_traced_run(&asymmetric_loss(&topo(), &timeline())),
        (0x0c38_7fc7_d70b_fe46, 114_575),
        "lossy trace drifted: if intentional, re-pin and say what moved it"
    );
}

/// The default simulator configuration under history clients, seed 7,
/// through the builder's own defaults.
fn plain_traced_run(scenario: &ChaosScenario) -> (u64, u64) {
    default_traced_run::<CanopusMsg>(scenario)
}

/// Protocol `P`'s default simulator configuration under history clients,
/// seed 7, through the builder's own defaults.
fn default_traced_run<P: Protocol>(scenario: &ChaosScenario) -> (u64, u64) {
    let cluster = ClusterBuilder::<P>::new(&spec(), 7)
        .clients(Clients::History(history_config()))
        .sim();
    traced(cluster, scenario)
}

/// The baselines' executions, pinned by value like the plain Canopus node
/// (seed 7, one super-leaf partitioned and healed): each protocol's
/// handlers report their own CPU work, so nothing else holds their
/// simulated timing to the event.
#[test]
fn baseline_trace_hashes_are_pinned() {
    let scenario = superleaf_partition(&topo(), &timeline());
    assert_eq!(
        [
            default_traced_run::<EpaxosMsg>(&scenario),
            default_traced_run::<ZabMsg>(&scenario),
        ],
        [
            (0x960b_0fdd_4e92_f8c1, 67_953),
            (0x67fa_d22b_8621_9eac, 44_888),
        ],
        "a baseline's trace drifted (EPaxos, ZAB): if intentional, re-pin and say what moved it"
    );
}

/// A node hosting four lanes, each with its own CPU lane in the simulator:
/// the only pin on the lane-tagged frames and on a lane's work landing on
/// its own CPU lane.
///
/// Re-pinned from `0xa481_1af5_1ce1_8ef3` / 250 464 events for the reason
/// given at [`plain_trace_hash_is_pinned`]: 4 fewer bytes per encoded
/// request set.
///
/// Re-pinned again from `0xa44d_833a_2cb8_ca4f` / 250 471 events for the
/// reason given at [`plain_trace_hash_is_pinned`]: fetched states leave
/// the Raft logs.
#[test]
fn four_lane_trace_hash_is_pinned() {
    assert_eq!(
        traced_run(&history_config(), 7, SHARDS),
        (0x12b7_aa10_2a4a_57f3, 230_523),
        "4-lane trace drifted: if intentional, re-pin and say what moved it"
    );
}

/// `shards: 1` spelled out is the default node: the same hash as
/// [`plain_trace_hash_is_pinned`], through this file's sharded builder.
///
/// Re-pinned from `0x85e9_4dc2_ff51_3901`: the execution that value
/// pinned — the old sharding wrapper with one shard, whose frames carried
/// a 3-byte shard tag and whose one shard ran on a seed derived from the
/// node's — no longer exists. A node with one lane sends bare frames and runs lane 0
/// on the node's own seed, so it is the plain node to the event.
///
/// Re-pinned again from `0xeb02_61b7_3dbb_6feb` / 148 994 events with the
/// plain pin, for the reasons given there (follower-side commit in groups
/// of at most three; `AppendEntries` wire size), and from
/// `0x716b_6ab7_f0d0_fb7a` with it once more (4 fewer bytes per encoded
/// request set), and from `0x0622_b8d4_ff9a_2608` / 112 954 events with it
/// again (fetched states leave the Raft logs).
#[test]
fn single_shard_trace_hash_is_pinned() {
    assert_eq!(
        traced_run(&history_config(), 7, 1),
        (0xb21c_cc02_1ae9_ecf2, 107_450),
        "single-shard trace drifted from the plain node's"
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
