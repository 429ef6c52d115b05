//! Cross-crate integration tests: all three protocols driven through the
//! harness on the topology-aware fabric.

use canopus::CanopusMsg;
use canopus_epaxos::EpaxosMsg;
use canopus_harness::*;
use canopus_sim::Dur;
use canopus_zab::{ZabConfig, ZabMsg};

fn small_load(rate: f64) -> LoadSpec {
    let mut load = LoadSpec::new(rate);
    load.warmup = Dur::millis(100);
    load.duration = Dur::millis(300);
    load
}

/// `P` with its default simulator configuration under open-loop `load`.
fn open_loop<P: Protocol>(spec: &DeploymentSpec, load: &LoadSpec, seed: u64) -> ClusterBuilder<P> {
    ClusterBuilder::new(spec, seed).clients(Clients::OpenLoop(load.clone()))
}

#[test]
fn canopus_single_dc_serves_load_with_agreement() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = small_load(30_000.0);
    let mut cluster = open_loop::<CanopusMsg>(&spec, &load, 7).sim();
    cluster.sim.run_for(load.warmup + load.duration);
    // Everyone committed and digests agree.
    let d0 = cluster.node(cluster.nodes[0]).stats();
    assert!(d0.committed_cycles > 10);
    for &n in &cluster.nodes {
        let s = cluster.node(n).stats();
        assert!(s.committed_cycles > 0, "{n} made no progress");
    }
    // Nodes at the same commit point have the same digest: compare the two
    // with equal committed_cycles.
    let mut by_cycles: std::collections::BTreeMap<u64, u64> = Default::default();
    for &n in &cluster.nodes {
        let s = cluster.node(n).stats();
        if let Some(&d) = by_cycles.get(&s.committed_cycles) {
            assert_eq!(d, s.commit_digest, "digest mismatch at equal commit point");
        } else {
            by_cycles.insert(s.committed_cycles, s.commit_digest);
        }
    }
}

#[test]
fn canopus_multi_dc_latency_tracks_wan_rtt() {
    let spec = DeploymentSpec::paper_multi_dc(3);
    let mut load = small_load(50_000.0);
    load.warmup = Dur::millis(500);
    load.duration = Dur::millis(700);
    let cfg = CanopusMsg::sim_config(&spec);
    let max_linger = cfg.max_linger;
    let result = run::<CanopusMsg>(&spec, &load, cfg, 11);
    assert!(result.healthy);
    let median = result.median.expect("measured");
    // A cycle is one round trip between the farthest pair of datacenters,
    // and a request waits for its cycle to start no longer than the
    // batching window: a start rule that added a window's wait per hop or
    // per round would land outside.
    let max_rtt = spec.max_rtt();
    let fastest = Dur::nanos(max_rtt.as_nanos() / 10 * 9);
    let slowest = max_rtt + max_linger * 4;
    assert!(
        (fastest..=slowest).contains(&median),
        "median {median} outside {fastest} ..= {slowest} (max RTT {max_rtt})"
    );
}

/// The paper's motivating application (§1), a geo-replicated ledger: three
/// of Table 1's datacenters (Ireland, California, Virginia; 133 ms worst
/// RTT), one super-leaf each, `wide_area()` cycles, and closed-loop
/// history clients writing and reading concurrently in every datacenter.
/// The ops' timeout is several times the worst RTT, so a timed-out op is a
/// stall, not the WAN.
#[test]
fn canopus_across_three_datacenters_agrees_on_every_write() {
    let spec = DeploymentSpec::paper_multi_dc(3);
    let hcfg = HistoryConfig {
        op_timeout: Dur::secs(1),
        ..HistoryConfig::default()
    };
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(&spec, 7)
        .clients(Clients::History(hcfg.clone()))
        .sim();
    // Quiesce well past the clients' stop and the last cycle's WAN round.
    cluster.sim.run_for(Dur::millis(2500));
    let report = cluster.verdict(hcfg.probe_at, &Default::default());
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(report.ops_timed_out, 0);
    assert!(report.ops_ok > 0);
    let first = cluster.node(cluster.nodes[0]).store();
    assert!(!first.is_empty());
    for &n in &cluster.nodes {
        let store = cluster.node(n).store();
        assert_eq!(store.digest(), first.digest(), "{n}'s store diverged");
    }
}

#[test]
fn epaxos_cluster_converges_under_load() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = small_load(30_000.0);
    let mut cluster = open_loop::<EpaxosMsg>(&spec, &load, 9).sim();
    cluster
        .sim
        .run_for(load.warmup + load.duration + Dur::millis(100));
    let w0 = cluster.node(cluster.nodes[0]).stats();
    assert!(w0.executed_weight > 0);
    assert!(w0.fast_path > 0, "synthetic load takes the fast path");
    assert_eq!(w0.slow_path, 0, "0% interference: no slow path");
}

#[test]
fn zab_observers_scale_reads_leader_caps_writes() {
    let spec = DeploymentSpec::paper_single_dc(9); // 27 nodes
    let load = small_load(60_000.0);
    let cfg = ZabConfig {
        participants: 6,
        ..ZabConfig::default()
    };
    let mut cluster = open_loop::<ZabMsg>(&spec, &load, 13).config(cfg).sim();
    cluster
        .sim
        .run_for(load.warmup + load.duration + Dur::millis(200));
    // All writes flow through node 0 (the leader); reads are served all over.
    let mut reads_served_away_from_leader = 0;
    for &n in &cluster.nodes[1..] {
        reads_served_away_from_leader += cluster.node(n).stats().reads_served;
    }
    assert!(reads_served_away_from_leader > 0);
    let leader = cluster.node(cluster.nodes[0]).stats();
    assert!(leader.applied_weight > 0, "leader applied transactions");
}

#[test]
fn whole_stack_is_deterministic() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = small_load(20_000.0);
    let cfg = CanopusMsg::sim_config(&spec);
    assert!(deterministic_check(&spec, &load, cfg, 31337));
}

/// The search's contract, on a synthetic system whose knee is known
/// exactly: every rate up to `knee` sustains, every rate above does not.
#[test]
fn throughput_search_brackets_a_known_knee() {
    let limit = Dur::millis(10);
    let synthetic = |knee: f64| {
        move |rate: f64| RunResult {
            offered: rate,
            achieved: rate,
            median: Some(if rate <= knee { limit } else { limit * 2 }),
            p95: None,
            mean: None,
            write_median: None,
            read_median: None,
            healthy: true,
        }
    };
    for knee in [100_000.0, 123_456.0, 1_234_567.0, 9_999_999.0] {
        let search = find_max_throughput(limit, synthetic(knee));
        let best = search.best().expect("the first probe sustains");
        let above = search.above().expect("some probe is past the knee");
        assert!(best.is_sustainable(limit) && best.offered <= knee);
        assert!(!above.is_sustainable(limit) && above.offered > knee);
        assert!(
            above.offered <= best.offered * 1.02,
            "knee {knee}: bracket {} .. {} is wider than 2 %",
            best.offered,
            above.offered
        );
        assert_eq!(search.max_throughput(), Some(best.achieved));
        assert!(
            search.probes().len() <= 20,
            "{} probes",
            search.probes().len()
        );
    }
    // A first probe that does not sustain: no maximum.
    let search = find_max_throughput(limit, synthetic(50_000.0));
    assert!(search.best().is_none());
    assert_eq!(search.probes().len(), 1);
    assert_eq!(search.max_throughput(), None);
    // Nothing past the knee within the doubling cap: no upper bracket.
    let search = find_max_throughput(limit, synthetic(f64::INFINITY));
    assert!(search.best().is_some() && search.above().is_none());
    // Achieved load that falls past 200 k/s offered, as across the WAN:
    // probes up to ~259 k/s still achieve 75 % and sustain, so the
    // bracket's best is near there, but the maximum is the 200 k/s probe's.
    let search = find_max_throughput(limit, |rate| RunResult {
        achieved: if rate <= 200_000.0 {
            rate
        } else {
            200_000.0 - 0.1 * (rate - 200_000.0)
        },
        ..synthetic(f64::INFINITY)(rate)
    });
    let best = search.best().expect("the first probe sustains");
    assert!(best.offered > 250_000.0 && best.achieved < 200_000.0);
    assert_eq!(search.max_throughput(), Some(200_000.0));
}

/// One real search on the simulator: Canopus on the paper's 3×3
/// single-datacenter testbed.
#[test]
fn throughput_search_finds_a_knee() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let cfg = CanopusMsg::sim_config(&spec);
    let search = find_max_throughput(Dur::millis(10), |rate| {
        run::<CanopusMsg>(&spec, &small_load(rate), cfg.clone(), 3)
    });
    let best = search.best().expect("the first probe sustains");
    assert!(best.achieved > 40_000.0);
    let above = search.above().expect("a probe past the knee");
    assert!(above.offered <= best.offered * 1.02);
}
