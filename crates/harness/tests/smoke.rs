//! Fast end-to-end smoke test: one Canopus deployment on the paper's
//! single-DC topology, driven by the real client model, committing real
//! writes — the whole sim → net → raft → core → workload → harness stack
//! in well under a second. CI runs this on every push, so a change that
//! compiles but breaks the consensus cycle fails here rather than only in
//! the long-running bench binaries (`throughput_knee` is the full, slower
//! sweep of the same pipeline).

use canopus::CanopusMsg;
use canopus_harness::{deterministic_check, run, DeploymentSpec, LoadSpec, Protocol};
use canopus_sim::Dur;

fn quick_load(rate: f64) -> LoadSpec {
    let mut load = LoadSpec::new(rate);
    load.warmup = Dur::millis(50);
    load.duration = Dur::millis(200);
    load
}

#[test]
fn canopus_cycle_end_to_end_quick() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = quick_load(100_000.0);
    let cfg = CanopusMsg::sim_config(&spec);
    let r = run::<CanopusMsg>(&spec, &load, cfg, 1);
    assert!(r.healthy, "cluster diverged or lost commits: {r:?}");
    assert!(
        r.achieved > load.total_rate * 0.5,
        "achieved only {} of offered {}",
        r.achieved,
        load.total_rate
    );
    let median = r.median.expect("no latency samples collected");
    assert!(
        median < Dur::millis(10),
        "median latency {median:?} above the paper's 10 ms health bound"
    );
}

#[test]
fn canopus_run_is_deterministic_quick() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = quick_load(50_000.0);
    let cfg = CanopusMsg::sim_config(&spec);
    assert!(
        deterministic_check(&spec, &load, cfg, 7),
        "identical seeds must reproduce identical commit digests"
    );
}
