//! Seed-swept chaos and linearizability suite: every fault scenario runs
//! against all three protocols (Canopus, EPaxos, the ZooKeeper model)
//! across a seed sweep, asserting the §6 safety properties always
//! hold — agreement, client FIFO, linearizability where the read path
//! promises it — and that the cluster converges (commits fresh writes)
//! after the nemesis heals the network.
//!
//! Timeline of every run (virtual time):
//!
//! ```text
//! 0ms ── warm ── 200ms ── faults ── 900ms ── heal ── 1100ms ── probes on
//!        fresh keys ── 1800ms ── clients stop ── 2100ms ── verdict
//! ```
//!
//! Seed count (`scenarios::seed_sweep`): 20 in release (the acceptance
//! sweep), 2 in a debug build (plain `cargo test --workspace` spot-checks),
//! `CHAOS_SEEDS=ci` for a quick fixed set in CI, `CHAOS_SEEDS=extended` for
//! a deep local sweep.
//!
//! The suite also carries the trace anchors: the plain Canopus node under
//! two plans and the two baselines under one must reproduce pinned trace
//! hashes, so a refactor cannot silently change an execution.

use std::collections::BTreeSet;

use canopus::{CanopusConfig, CanopusMsg};
use canopus_epaxos::EpaxosMsg;
use canopus_harness::scenarios::{
    assert_verdict, asymmetric_loss, crash_restart_churn, leader_crash_mid_round, link_flapping,
    majority_minority_split, node_isolated, partition_then_crash_restart, seed_sweep,
    shifting_partition, superleaf_partition, uniform_loss,
};
use canopus_harness::{
    ChaosReport, ChaosScenario, ChaosTimeline, ChaosTopology, Clients, Cluster, ClusterBuilder,
    ClusterObs, DeploymentSpec, HistoryClient, HistoryConfig, Protocol,
};
use canopus_sim::{Dur, NodeId};
use canopus_zab::ZabMsg;

// ---------------------------------------------------------------------
// Deployment and timeline
// ---------------------------------------------------------------------

/// 3 super-leaves (racks) × 3 nodes — the smallest deployment where every
/// protocol tolerates the catalog faults (Canopus leaf majority, Zab
/// quorum, EPaxos fast quorum).
fn spec() -> DeploymentSpec {
    DeploymentSpec::paper_single_dc(3)
}

/// 3 super-leaves × 5 nodes: each super-leaf Raft group has five members,
/// so a follower delivers only once the leader's commit notification
/// arrives, not on append (the `canopus_raft::core` module doc, "Why four
/// or more members fall back").
fn five_per_leaf() -> DeploymentSpec {
    DeploymentSpec::paper_single_dc(5)
}

/// The scenario catalog lives in `canopus_harness::scenarios` (shared
/// with the live-TCP suite); the simulator suite cuts along [`spec`]'s
/// racks on PR 2's virtual-time schedule.
fn topo() -> ChaosTopology {
    ChaosTopology::of(&spec())
}

fn timeline() -> ChaosTimeline {
    ChaosTimeline::sim_default()
}

/// Canopus with the throughput knobs on: 1 ms super-leaf batching windows
/// and 4 cycles in flight. The batched sweeps assert the same verdict as
/// the defaults — the knobs must not trade safety for throughput.
fn batched4() -> CanopusConfig {
    CanopusConfig {
        max_linger: Dur::millis(1),
        max_pipeline_depth: 4,
        ..CanopusMsg::sim_config(&spec())
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

fn history_config() -> HistoryConfig {
    HistoryConfig {
        probe_at: timeline().converge_after(),
        ..HistoryConfig::default()
    }
}

/// Every third write a `MultiPut` over the client's whole key set.
fn multi_put() -> HistoryConfig {
    HistoryConfig {
        multi_put_every: 3,
        ..history_config()
    }
}

/// `cfg: None` is the protocol's default simulator configuration.
fn builder<P: Protocol>(
    spec: &DeploymentSpec,
    cfg: Option<P::Config>,
    hcfg: &HistoryConfig,
    seed: u64,
) -> ClusterBuilder<P> {
    let b = ClusterBuilder::new(spec, seed).clients(Clients::History(hcfg.clone()));
    match cfg {
        Some(cfg) => b.config(cfg),
        None => b,
    }
}

fn run_one<P: Protocol>(
    spec: &DeploymentSpec,
    cfg: Option<P::Config>,
    hcfg: &HistoryConfig,
    scenario: &ChaosScenario,
    seed: u64,
) -> (ChaosReport, Cluster<P>) {
    let mut cluster = builder::<P>(spec, cfg, hcfg, seed).sim();
    cluster.run_plan(&scenario.plan, timeline().run_for);
    let report = cluster.verdict(timeline().converge_after(), &(scenario.exempt)(P::NAME));
    (report, cluster)
}

/// Events per node in the failure dump — the forensic tail, not the
/// whole ring.
const DUMP_EVENTS: usize = 40;

fn sweep<M: Protocol>(
    spec: &DeploymentSpec,
    cfg: Option<M::Config>,
    hcfg: &HistoryConfig,
    scenario: ChaosScenario,
) {
    for seed in seed_sweep("CHAOS_SEEDS", 0xC0DE, 20) {
        let (report, cluster) = run_one::<M>(spec, cfg.clone(), hcfg, &scenario, seed);
        assert_verdict(&report, M::NAME, scenario.name, seed, 50, || {
            cluster.flight_dump(DUMP_EVENTS)
        });
    }
}

/// A deliberately failing verdict bar, demonstrating the failure artifact:
/// the panic message carries every node's flight-recorder tail, so chaos
/// forensics start from structured consensus events instead of a bare
/// assert. The `expected` string is `canopus_obs::DUMP_HEADER`.
#[test]
#[should_panic(expected = "flight recorder dump")]
fn broken_verdict_dumps_flight_recorders() {
    let scenario = superleaf_partition(&topo(), &timeline());
    let (report, cluster) =
        run_one::<CanopusMsg>(&spec(), None, &history_config(), &scenario, 0xBAD5EED);
    assert!(
        report.ops_ok == 0, // deliberately impossible: healthy runs commit ops
        "deliberately broken bar ({} ops committed)
{}",
        report.ops_ok,
        cluster.flight_dump(DUMP_EVENTS)
    );
}

/// One row: `test: protocol[, config] => scenario[ in deployment][, with
/// history clients];`, where the deployment defaults to [`spec`] and the
/// clients to [`history_config`].
macro_rules! chaos_matrix {
    ($($test:ident: $msg:ty $(, $cfg:expr)? => $scenario:ident $(in $spec:expr)?
        $(, with $hcfg:expr)?;)*) => {
        $(
            #[test]
            fn $test() {
                let spec = None$(.or(Some($spec)))?.unwrap_or_else(spec);
                let hcfg = None$(.or(Some($hcfg)))?.unwrap_or_else(history_config);
                let scenario = $scenario(&ChaosTopology::of(&spec), &timeline());
                sweep::<$msg>(&spec, None$(.or(Some($cfg)))?, &hcfg, scenario);
            }
        )*
    };
}

chaos_matrix! {
    canopus_superleaf_partition: CanopusMsg => superleaf_partition;
    canopus_majority_minority: CanopusMsg => majority_minority_split;
    canopus_leader_crash: CanopusMsg => leader_crash_mid_round;
    canopus_churn: CanopusMsg => crash_restart_churn;
    canopus_asymmetric_loss: CanopusMsg => asymmetric_loss;
    canopus_link_flapping: CanopusMsg => link_flapping;
    canopus_node_isolated: CanopusMsg => node_isolated;
    canopus_partition_crash_restart: CanopusMsg => partition_then_crash_restart;
    canopus_uniform_loss: CanopusMsg => uniform_loss;
    canopus_shifting_partition: CanopusMsg => shifting_partition, with multi_put();

    canopus_batched_superleaf_partition: CanopusMsg, batched4() => superleaf_partition;
    canopus_batched_churn: CanopusMsg, batched4() => crash_restart_churn;
    canopus_batched_partition_crash_restart: CanopusMsg, batched4() => partition_then_crash_restart;

    canopus_five_per_leaf_leader_crash: CanopusMsg => leader_crash_mid_round in five_per_leaf();
    canopus_five_per_leaf_churn: CanopusMsg => crash_restart_churn in five_per_leaf();
    canopus_five_per_leaf_asymmetric_loss: CanopusMsg => asymmetric_loss in five_per_leaf();

    epaxos_superleaf_partition: EpaxosMsg => superleaf_partition;
    epaxos_majority_minority: EpaxosMsg => majority_minority_split;
    epaxos_leader_crash: EpaxosMsg => leader_crash_mid_round;
    epaxos_churn: EpaxosMsg => crash_restart_churn;
    epaxos_asymmetric_loss: EpaxosMsg => asymmetric_loss;
    epaxos_link_flapping: EpaxosMsg => link_flapping;
    epaxos_node_isolated: EpaxosMsg => node_isolated;

    zab_superleaf_partition: ZabMsg => superleaf_partition;
    zab_majority_minority: ZabMsg => majority_minority_split;
    zab_leader_crash: ZabMsg => leader_crash_mid_round;
    zab_churn: ZabMsg => crash_restart_churn;
    zab_asymmetric_loss: ZabMsg => asymmetric_loss;
    zab_link_flapping: ZabMsg => link_flapping;
    zab_node_isolated: ZabMsg => node_isolated;
}

// ---------------------------------------------------------------------
// Trace pins
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

/// The plain node's execution, pinned by value: default simulator
/// configuration, history clients, seed 7, one super-leaf partitioned and
/// healed. `determinism_*` compare a run with a second run and the BENCH
/// gates allow 20 %, so nothing else holds the Canopus node to the event.
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
///
/// Re-pinned again from `0xb21c_cc02_1ae9_ecf2` / 107 450 events: every
/// super-leaf member takes its turn fetching. Cycle c's k-th sibling state
/// goes to the non-excluded member at position (c + k) mod their number,
/// where the first two members used to split each round's states and the
/// third fetched none, so other nodes send the proposal-requests and the
/// forwards, to other emulators (each pick draws from the fetcher's RNG).
///
/// Re-pinned again from `0x3004_2384_5cdd_8954` / 107 866 events: an op
/// in a request set is 8 bytes shorter, having lost the arrival time the
/// origin stamped on it and nothing read. Raft appends and
/// proposal-responses carry encoded sets, so their sizes, and with them
/// the fabric's delays and the hash's `wire_size`, moved; a build that
/// still writes a zero `u64` after each op (and counts its 8 bytes in
/// `payload_bytes`) reproduces the old value.
#[test]
fn plain_trace_hash_is_pinned() {
    assert_eq!(
        plain_traced_run(&superleaf_partition(&topo(), &timeline())),
        (0x6edc_bbd6_f7e4_87f5, 107_867),
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
///
/// Re-pinned again from `0x0c38_7fc7_d70b_fe46` / 114 575 events for the
/// reason given at [`plain_trace_hash_is_pinned`]: every member takes its
/// turn fetching.
///
/// Re-pinned again from `0x9a0c_dfb5_94b7_84e4` / 106 651 events, for two
/// reasons landed together. The first is the one given at
/// [`plain_trace_hash_is_pinned`]: 8 fewer bytes per op in an encoded
/// request set (`0x7d4a_39bc_3f2b_5cf0` / 106 657 events with that alone).
/// The second moves only this pin: a member whose fetch is outstanding
/// sends it again at once, to another emulator, when a message has shown
/// that other super-leaves committed the cycle, instead of waiting out
/// `fetch_timeout` (the fetch may be at a crashed or cut-off emulator).
#[test]
fn asymmetric_loss_trace_hash_is_pinned() {
    assert_eq!(
        plain_traced_run(&asymmetric_loss(&topo(), &timeline())),
        (0x2992_1925_c9a8_87bf, 114_508),
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
    traced(
        builder::<P>(&spec(), None, &history_config(), 7).sim(),
        scenario,
    )
}

/// The baselines' executions, pinned by value like the plain Canopus node
/// (seed 7, one super-leaf partitioned and healed): each protocol's
/// handlers report their own CPU work, so nothing else holds their
/// simulated timing to the event.
///
/// Re-pinned from `0x960b_0fdd_4e92_f8c1` / 67 953 events (EPaxos) and
/// `0x67fa_d22b_8621_9eac` / 44 888 (ZAB): an op in an EPaxos batch and
/// in a ZAB transaction is 8 bytes shorter, having lost the arrival time
/// the receiving node stamped on it and nothing read. Both protocols'
/// messages carry their ops, so their sizes moved; a build that still
/// writes a zero `u64` after each op (and keeps the 8 bytes in
/// `CmdBatch::payload_bytes` and ZAB's `wire_size`) reproduces the old
/// values.
#[test]
fn baseline_trace_hashes_are_pinned() {
    let scenario = superleaf_partition(&topo(), &timeline());
    assert_eq!(
        [
            default_traced_run::<EpaxosMsg>(&scenario),
            default_traced_run::<ZabMsg>(&scenario),
        ],
        [
            (0x4069_98b2_d29e_4187, 67_953),
            (0xce7c_6603_1c8f_5b17, 44_887),
        ],
        "a baseline's trace drifted (EPaxos, ZAB): if intentional, re-pin and say what moved it"
    );
}

/// The convergence-exemption plumbing reaches the verdict: with every
/// node exempted the report is still well formed and clean.
#[test]
fn verdict_handles_exemptions() {
    let scenario = superleaf_partition(&topo(), &timeline());
    let (_, cluster) =
        run_one::<CanopusMsg>(&spec(), None, &history_config(), &scenario, 0x5A4D + 4);
    let all: BTreeSet<NodeId> = (0..spec().node_count() as u32).map(NodeId).collect();
    let report = cluster.verdict(timeline().converge_after(), &all);
    assert!(report.ok(), "violations: {:#?}", report.violations);
}

// ---------------------------------------------------------------------
// Determinism regression
// ---------------------------------------------------------------------

/// Two runs of the same plan + seed must be byte-identical: same kernel
/// trace hash, same applied fault timeline, same client histories.
#[test]
fn determinism_same_plan_same_seed_identical_traces() {
    let run = |seed: u64| {
        let scenario = superleaf_partition(&topo(), &timeline());
        let mut cluster = builder::<CanopusMsg>(&spec(), None, &history_config(), seed).sim();
        cluster.sim.enable_trace_hash();
        let applied = cluster.run_plan(&scenario.plan, timeline().run_for);
        let histories: Vec<Vec<String>> = cluster
            .clients
            .iter()
            .map(|&c| {
                cluster
                    .sim
                    .node::<HistoryClient<CanopusMsg>>(c)
                    .ops()
                    .iter()
                    .map(|op| format!("{op:?}"))
                    .collect()
            })
            .collect();
        (
            cluster.sim.trace_hash().expect("enabled"),
            format!("{applied:?}"),
            histories,
            cluster.sim.events_processed(),
            cluster.sim.stats(),
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0, "trace hashes diverged");
    assert_eq!(a.1, b.1, "applied fault timelines diverged");
    assert_eq!(a.2, b.2, "client histories diverged");
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);
    // A different seed must explore a different schedule.
    let c = run(8);
    assert_ne!(a.0, c.0, "different seeds should differ");
}

/// Observability is observation-only: a run with registries and flight
/// recorders enabled must produce byte-identical executions (same kernel
/// trace hash, same event count) as one with them disabled. This is the
/// regression gate for the "one branch when disabled, zero interference
/// when enabled" contract.
#[test]
fn determinism_obs_enabled_matches_disabled() {
    let run = |obs: ClusterObs| {
        let scenario = superleaf_partition(&topo(), &timeline());
        let mut cluster = builder::<CanopusMsg>(&spec(), None, &history_config(), 11)
            .obs(obs)
            .sim();
        cluster.sim.enable_trace_hash();
        let applied = cluster.run_plan(&scenario.plan, timeline().run_for);
        (
            cluster.sim.trace_hash().expect("enabled"),
            format!("{applied:?}"),
            cluster.sim.events_processed(),
        )
    };
    let observed = run(ClusterObs::on(256));
    let bare = run(ClusterObs::off());
    assert_eq!(
        observed, bare,
        "enabling the obs layer changed the execution"
    );
}

/// The same determinism bar holds for a crash/restart plan on ZAB, whose
/// restart builds a recovering follower (restart factories must be
/// deterministic too).
#[test]
fn determinism_crash_restart_zab() {
    let run = || {
        let scenario = crash_restart_churn(&topo(), &timeline());
        let mut cluster = builder::<ZabMsg>(&spec(), None, &history_config(), 11).sim();
        cluster.sim.enable_trace_hash();
        cluster.run_plan(&scenario.plan, timeline().run_for);
        (
            cluster.sim.trace_hash().expect("enabled"),
            cluster.sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}
