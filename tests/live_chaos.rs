//! Live chaos suite: the same fault scenarios the simulator sweep runs,
//! executed over **real loopback TCP sockets**.
//!
//! Each run spawns a 2-super-leaf × 3-node deployment plus one
//! closed-loop [`canopus_harness::HistoryClient`] per node on the
//! TCP transport, replays a `FaultPlan` on the wall clock
//! through the shared `FaultRules` table (crashes stop and respawn real
//! node loops), and then runs the shared chaos verdict over the recovered
//! states: agreement (global + per-key), client FIFO, read validity, and
//! post-heal convergence. Linearizability timing is not checked live —
//! nodes have no common clock base (see `LiveOutcome::verdict`).
//!
//! The verdict is deterministic (it must pass for every seed), the
//! byte-level trace is not — this is a real scheduler and a real network
//! stack.
//!
//! Seed count: 3 in release (the acceptance sweep, ~1 min wall clock for
//! the whole suite), 1 in debug spot checks, `LIVE_CHAOS_SEEDS=ci` for
//! the fixed CI set, `LIVE_CHAOS_SEEDS=N` for deeper local sweeps.
//!
//! Canopus crash/restart scenarios are exercised by the simulator suite
//! only: live restarts would race the deliberately slow live failure
//! detector (see `canopus_harness::live`), so here Canopus runs the
//! partition and loss scenarios while ZAB covers crash/restart.

use canopus::{CanopusConfig, CanopusMsg};
use canopus_epaxos::EpaxosMsg;
use canopus_harness::scenarios::{
    assert_verdict, asymmetric_loss, leader_crash_mid_round, seed_sweep, superleaf_partition,
    ChaosScenario,
};
use canopus_harness::{
    live_spec, live_timeline, ChaosTimeline, ChaosTopology, ClusterBuilder, Protocol,
    LIVE_TIME_UNIT,
};
use canopus_net::Wire;
use canopus_zab::ZabMsg;

/// `cfg: None` is the protocol's default live configuration.
fn sweep<M: Protocol + Wire + Send>(
    cfg: Option<M::Config>,
    scenario_fn: fn(&ChaosTopology, &ChaosTimeline) -> ChaosScenario,
) {
    let spec = live_spec();
    let t = live_timeline();
    for seed in seed_sweep("LIVE_CHAOS_SEEDS", 0x11FE, 3) {
        let scenario = scenario_fn(&ChaosTopology::of(&spec), &t);
        let builder = ClusterBuilder::<M>::new(&spec, seed);
        let mut cluster = match cfg.clone() {
            Some(cfg) => builder.config(cfg),
            None => builder,
        }
        .live();
        let applied = cluster.run_plan(&scenario.plan, t.run_for);
        assert!(
            !applied.is_empty(),
            "{} / {}: no fault was applied",
            M::NAME,
            scenario.name
        );
        let outcome = cluster.shutdown();
        let report = outcome.verdict(t.converge_after(), &(scenario.exempt)(M::NAME));
        assert_verdict(&report, M::NAME, scenario.name, seed, 20, || {
            outcome.flight_dump(40)
        });
    }
}

#[test]
fn live_canopus_superleaf_partition() {
    sweep::<CanopusMsg>(None, superleaf_partition);
}

#[test]
fn live_canopus_asymmetric_loss() {
    sweep::<CanopusMsg>(None, asymmetric_loss);
}

/// The throughput knobs over real sockets — an eighth-unit batching window
/// (the same scale as the clients' issue gap, so windows really do
/// aggregate concurrent clients) and 4-deep pipelining — with the same
/// partition scenario and the same verdict bar as the default
/// configuration above.
#[test]
fn live_canopus_batched_superleaf_partition() {
    let batched = CanopusConfig {
        max_linger: LIVE_TIME_UNIT / 8,
        max_pipeline_depth: 4,
        ..CanopusMsg::live_config(&live_spec())
    };
    sweep::<CanopusMsg>(Some(batched), superleaf_partition);
}

#[test]
fn live_epaxos_superleaf_partition() {
    sweep::<EpaxosMsg>(None, superleaf_partition);
}

#[test]
fn live_zab_superleaf_partition() {
    sweep::<ZabMsg>(None, superleaf_partition);
}

#[test]
fn live_zab_leader_crash_restart() {
    sweep::<ZabMsg>(None, leader_crash_mid_round);
}

#[test]
fn live_zab_asymmetric_loss() {
    sweep::<ZabMsg>(None, asymmetric_loss);
}
