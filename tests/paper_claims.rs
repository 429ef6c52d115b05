//! The paper's §8 claims, one test per claim.
//!
//! Every number here is **modelled**: an output of the simulator's price
//! table (`canopus_sim::NodeConfig`) on the paper's topologies (§8.1's
//! three racks, Table 1's datacenters), not a measurement of the real
//! stack. The simulator is deterministic, so each run gives the same
//! number on any host; each bound says which run it came from and what
//! that run read (release build, seed 42). The margins leave room for a
//! change to the model, not for noise.
//!
//! Maximum throughput comes from the harness's one search,
//! `find_max_throughput`, which brackets to 2 % the highest offered rate
//! whose median stays under the knee (10 ms in one datacenter, 500 ms
//! across the WAN); it is the highest rate achieved by a probe that
//! sustained. A search whose first probe does not sustain fails its test.
//!
//! A claim the model does not reproduce is asserted as the model gives
//! it, and the README's claims table marks it "not reproduced".
//!
//! The searches take seconds each in a release build and many times that
//! in debug, so they (and the one 27-node EPaxos run) are `#[ignore]`d;
//! the whole file runs with `cargo test --release --test paper_claims --
//! --include-ignored` (about 60 s on a 2-vCPU VM). The SSD and light-load tests
//! run in every `cargo test`.

use std::sync::OnceLock;

use canopus::CanopusMsg;
use canopus_epaxos::{EpaxosConfig, EpaxosMsg};
use canopus_harness::*;
use canopus_sim::{Dur, Work};
use canopus_zab::{ZabConfig, ZabMsg};

const SEED: u64 = 42;

/// The single-datacenter knee (§8.1).
const SINGLE_DC_LIMIT: Dur = Dur::millis(10);

/// The wide-area knee: a cycle there takes about the largest round trip
/// (133 ms across three of Table 1's datacenters, 322 ms across seven).
const WAN_LIMIT: Dur = Dur::millis(500);

/// Maximum throughput of `P` with `writes` of its requests writes, on the
/// paper's single-datacenter testbed with `per_rack` nodes in each of its
/// three racks.
fn single_dc_max<P: Protocol>(
    per_rack: usize,
    writes: f64,
    cfg: impl Fn(&DeploymentSpec) -> P::Config,
) -> f64 {
    let spec = DeploymentSpec::paper_single_dc(per_rack);
    let cfg = cfg(&spec);
    let max = find_max_throughput(SINGLE_DC_LIMIT, |rate| {
        let load = LoadSpec::new(rate).with_writes(writes);
        run::<P>(&spec, &load, cfg.clone(), SEED)
    })
    .max_throughput()
    .expect("the first probe sustains");
    eprintln!(
        "{} at {} nodes, {:.0} % writes: {max:.0}/s",
        P::NAME,
        spec.node_count(),
        writes * 100.0
    );
    max
}

/// Maximum throughput of `P` across the first `sites` of Table 1's
/// datacenters (three nodes each), measured over a window of several
/// round trips.
fn wan_max<P: Protocol>(
    sites: usize,
    writes: f64,
    cfg: impl Fn(&DeploymentSpec) -> P::Config,
) -> f64 {
    let spec = DeploymentSpec::paper_multi_dc(sites);
    let cfg = cfg(&spec);
    let max = find_max_throughput(WAN_LIMIT, |rate| {
        let mut load = LoadSpec::new(rate).with_writes(writes);
        load.warmup = Dur::millis(900);
        load.duration = Dur::millis(1100);
        run::<P>(&spec, &load, cfg.clone(), SEED)
    })
    .max_throughput()
    .expect("the first probe sustains");
    eprintln!(
        "{} across {sites} datacenters, {:.0} % writes: {max:.0}/s",
        P::NAME,
        writes * 100.0
    );
    max
}

fn canopus(spec: &DeploymentSpec) -> canopus::CanopusConfig {
    CanopusMsg::sim_config(spec)
}

fn epaxos(batch: Dur) -> impl Fn(&DeploymentSpec) -> EpaxosConfig {
    move |_| EpaxosConfig {
        batch_duration: batch,
        record_log: false,
    }
}

/// ZooKeeper as the paper runs it: a leader and five followers, every
/// other node an observer.
fn zookeeper(spec: &DeploymentSpec) -> ZabConfig {
    ZabConfig {
        participants: 6.min(spec.node_count()),
        ..ZabConfig::default()
    }
}

/// Canopus at 20 % writes, at 9 and at 27 nodes: Fig. 4's Canopus line
/// and Fig. 5's ZKCanopus, the same configuration, searched once for
/// both figures.
fn canopus_20pct() -> [f64; 2] {
    static MAX: OnceLock<[f64; 2]> = OnceLock::new();
    *MAX.get_or_init(|| {
        [
            single_dc_max::<CanopusMsg>(3, 0.2, canopus),
            single_dc_max::<CanopusMsg>(9, 0.2, canopus),
        ]
    })
}

/// EPaxos with 5 ms batches at 20 % writes, at 9 and at 27 nodes.
fn epaxos_5ms() -> [f64; 2] {
    static MAX: OnceLock<[f64; 2]> = OnceLock::new();
    *MAX.get_or_init(|| {
        let batch = Dur::millis(5);
        [
            single_dc_max::<EpaxosMsg>(3, 0.2, epaxos(batch)),
            single_dc_max::<EpaxosMsg>(9, 0.2, epaxos(batch)),
        ]
    })
}

/// Canopus at 20 % writes across 3, 5 or 7 datacenters: Fig. 6's points,
/// and across three Fig. 7's middle one. Each is searched once.
fn canopus_wan_20pct(sites: usize) -> f64 {
    static MAX: [OnceLock<f64>; 3] = [const { OnceLock::new() }; 3];
    *MAX[(sites - 3) / 2].get_or_init(|| wan_max::<CanopusMsg>(sites, 0.2, canopus))
}

/// Canopus at 50 % writes across three datacenters (Fig. 7).
fn canopus_3dc_50pct() -> f64 {
    static MAX: OnceLock<f64> = OnceLock::new();
    *MAX.get_or_init(|| wan_max::<CanopusMsg>(3, 0.5, canopus))
}

/// EPaxos with 5 ms batches at 20 % writes across 3, 5 or 7 datacenters
/// (Fig. 6; across three also Fig. 7). Each is searched once.
fn epaxos_wan(sites: usize) -> f64 {
    static MAX: [OnceLock<f64>; 3] = [const { OnceLock::new() }; 3];
    *MAX[(sites - 3) / 2].get_or_init(|| wan_max::<EpaxosMsg>(sites, 0.2, epaxos(Dur::millis(5))))
}

/// Fig. 4(a): Canopus's read-heavy throughput grows with the group while
/// EPaxos's stays flat. Modelled (release, seed 42): Canopus 3.32 M/s at
/// 9 nodes and 3.96 M/s at 27 (+19 %); EPaxos with 5 ms batches 856 k/s
/// and 889 k/s (+4 %).
#[test]
#[ignore = "release only: searches to the knee"]
fn fig4_canopus_grows_with_the_group_epaxos_stays_flat() {
    let [c9, c27] = canopus_20pct();
    let [e9, e27] = epaxos_5ms();
    assert!(c27 >= 1.1 * c9, "Canopus {c9:.0} -> {c27:.0}/s");
    assert!(
        (0.9..1.1).contains(&(e27 / e9)),
        "EPaxos {e9:.0} -> {e27:.0}/s"
    );
}

/// Fig. 4(a): at 27 nodes and 20 % writes Canopus sustains at least 3×
/// EPaxos with 5 ms batches. Modelled (release, seed 42): 3.96 M/s vs
/// 889 k/s, 4.5×.
#[test]
#[ignore = "release only: searches to the knee"]
fn fig4_canopus_over_3x_epaxos_at_27_nodes() {
    let [_, c27] = canopus_20pct();
    let [_, e27] = epaxos_5ms();
    assert!(c27 >= 3.0 * e27, "Canopus {c27:.0} vs EPaxos {e27:.0}/s");
}

/// Fig. 4(a): with every request a write, Canopus's throughput stays about
/// constant with the group's size. Modelled (release, seed 42): 934 k/s at
/// 9 nodes, 906 k/s at 27 (−3 %).
#[test]
#[ignore = "release only: searches to the knee"]
fn fig4_canopus_all_writes_is_flat_with_size() {
    let c9 = single_dc_max::<CanopusMsg>(3, 1.0, canopus);
    let c27 = single_dc_max::<CanopusMsg>(9, 1.0, canopus);
    assert!((0.9..1.1).contains(&(c27 / c9)), "{c9:.0} -> {c27:.0}/s");
}

/// Fig. 4(a): the paper has EPaxos with 2 ms batches collapse as the group
/// grows. **Not reproduced**: modelled (release, seed 42), its maximum is
/// 841 k/s at 9 nodes and 838 k/s at 27. The test runs one rate, 700 k/s
/// (83 % of the 9-node maximum), at 27 nodes over a 0.4 s window (0.4 s
/// of host time), and asserts that it still sustains, which a collapsed
/// EPaxos would not. That run read a 1.31 ms median with all 700 k/s
/// achieved.
#[test]
#[ignore = "release only: one 27-node EPaxos run"]
fn fig4_epaxos_2ms_does_not_collapse_at_27_nodes() {
    let spec = DeploymentSpec::paper_single_dc(9);
    let rate = 700_000.0;
    let mut load = LoadSpec::new(rate);
    load.warmup = Dur::millis(100);
    load.duration = Dur::millis(300);
    let result = run::<EpaxosMsg>(&spec, &load, epaxos(Dur::millis(2))(&spec), SEED);
    eprintln!(
        "epaxos 2 ms at 27 nodes, 700 k/s offered: {:.0}/s achieved, median {:?}",
        result.achieved, result.median
    );
    assert!(result.is_sustainable(SINGLE_DC_LIMIT), "{result:?}");
}

/// Fig. 5: ZooKeeper's one leader caps its throughput, and at 27 nodes
/// ZKCanopus sustains more than 16× as much. Modelled (release, seed 42):
/// ZooKeeper 497 k/s at 9 nodes and 128 k/s at 27; ZKCanopus 3.32 M/s and
/// 3.96 M/s, 6.7× at 9 and 30.9× at 27.
#[test]
#[ignore = "release only: searches to the knee"]
fn fig5_zkcanopus_over_16x_zookeeper_at_27_nodes() {
    let zk9 = single_dc_max::<ZabMsg>(3, 0.2, zookeeper);
    let zk27 = single_dc_max::<ZabMsg>(9, 0.2, zookeeper);
    let [zkc9, zkc27] = canopus_20pct();
    assert!(zk27 < zk9, "ZooKeeper {zk9:.0} -> {zk27:.0}/s");
    assert!(zkc9 > zk9, "ZKCanopus {zkc9:.0} vs ZooKeeper {zk9:.0}/s");
    assert!(
        zkc27 > 16.0 * zk27,
        "ZKCanopus {zkc27:.0} vs ZooKeeper {zk27:.0}/s"
    );
}

/// Fig. 5: at light load ZKCanopus pays a small latency premium over
/// ZooKeeper, whose leader broadcasts directly. Modelled (release, seed
/// 42, 9 nodes, 30 k/s offered, 20 % writes): ZooKeeper's median 55 µs,
/// ZKCanopus's 302 µs, a premium of 0.25 ms.
#[test]
fn fig5_zkcanopus_pays_a_small_light_load_premium() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = LoadSpec::new(30_000.0);
    let zk = run::<ZabMsg>(&spec, &load, zookeeper(&spec), SEED);
    let zkc = run::<CanopusMsg>(&spec, &load, canopus(&spec), SEED);
    let (zk, zkc) = (zk.median.expect("measured"), zkc.median.expect("measured"));
    eprintln!("light-load medians: zab {zk}, canopus {zkc}");
    assert!(zkc > zk, "ZKCanopus {zkc} vs ZooKeeper {zk}");
    assert!(
        zkc - zk < Dur::millis(1),
        "ZKCanopus {zkc} vs ZooKeeper {zk}"
    );
}

/// Fig. 6: Canopus gains throughput as datacenters are added (20 %
/// writes, three nodes each). Modelled (release, seed 42): 3.32 M/s
/// across 3 datacenters, 3.89 M/s across 7 (+17 %).
#[test]
#[ignore = "release only: searches to the knee"]
fn fig6_canopus_gains_with_more_datacenters() {
    let (c3, c7) = (canopus_wan_20pct(3), canopus_wan_20pct(7));
    assert!(c7 > 1.1 * c3, "3 datacenters {c3:.0}, 7 {c7:.0}/s");
}

/// Fig. 6: the paper has EPaxos (5 ms batches) saturate 4–13.6× below
/// Canopus. **Not reproduced**: modelled (release, seed 42) EPaxos
/// sustains 905 k/s, 963 k/s and 972 k/s across 3, 5 and 7 datacenters,
/// against Canopus's 3.32, 3.66 and 3.89 M/s: 3.67×, 3.80× and 4.00×,
/// at best the low end of the paper's range. Canopus's maximum across the
/// WAN moves by several per cent with any change to message sizes (the
/// search's probes past the knee achieve erratically; before ops lost
/// their arrival time it read 3.47, 3.74 and 4.07 M/s, 3.83–4.18×), so
/// the test pins "about 4×" with room on both sides: a model that reaches
/// 5× anywhere, or falls under 3×, fails here.
#[test]
#[ignore = "release only: searches to the knee"]
fn fig6_epaxos_saturates_about_4x_below_canopus() {
    for sites in [3, 5, 7] {
        let (c, e) = (canopus_wan_20pct(sites), epaxos_wan(sites));
        let ratio = c / e;
        assert!(
            (3.0..5.0).contains(&ratio),
            "{sites} datacenters: Canopus {c:.0} vs EPaxos {e:.0}/s: {ratio:.2}x"
        );
    }
}

/// Fig. 7: across three datacenters Canopus's throughput falls as the
/// share of writes rises. Modelled (release, seed 42): 8.11 M/s at 1 %
/// writes, 3.32 M/s at 20 %, 1.74 M/s at 50 %.
#[test]
#[ignore = "release only: searches to the knee"]
fn fig7_canopus_throughput_falls_as_writes_rise() {
    let w1 = wan_max::<CanopusMsg>(3, 0.01, canopus);
    let w20 = canopus_wan_20pct(3);
    let w50 = canopus_3dc_50pct();
    assert!(w1 > 1.5 * w20, "1 % {w1:.0} vs 20 % {w20:.0}/s");
    assert!(w20 > 1.5 * w50, "20 % {w20:.0} vs 50 % {w50:.0}/s");
}

/// Fig. 7: the paper has Canopus at 50 % writes sustain at least 2.5×
/// EPaxos across three datacenters. **Not reproduced**: modelled (release,
/// seed 42) Canopus 1.74 M/s against EPaxos's 905 k/s is 1.92×. (EPaxos
/// runs at 20 % writes: it orders reads too, so the share of writes does
/// not change its throughput.) The test
/// pins the ratio the model gives, below the paper's, so that a model that
/// reaches 2.5× fails here and the README's row is updated with it.
#[test]
#[ignore = "release only: searches to the knee"]
fn fig7_canopus_at_half_writes_over_epaxos_not_2_5x() {
    let c50 = canopus_3dc_50pct();
    let e = epaxos_wan(3);
    let ratio = c50 / e;
    assert!(
        (1.5..2.5).contains(&ratio),
        "Canopus {c50:.0} vs EPaxos {e:.0}/s: {ratio:.2}x"
    );
}

/// §8.1: logging each cycle's batch to an SSD instead of an in-memory
/// filesystem leaves throughput alone and adds under 0.5 ms to the
/// median. The SSD is the one non-default price in the tree: a 120 µs
/// fsync per persisted batch (a 2013-era SSD, Intel S3700 class), set with
/// `ClusterBuilder::price(Work::Persist, …)`. Modelled (release, seed 42,
/// 9 nodes, 200 k/s offered, 20 % writes): median 0.36 ms in memory and
/// 0.46 ms on the SSD (+0.105 ms); throughput ratio 0.999.
#[test]
fn ssd_logging_leaves_throughput_alone() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = LoadSpec::new(200_000.0);
    let mem = run::<CanopusMsg>(&spec, &load, canopus(&spec), SEED);
    let ssd = ClusterBuilder::<CanopusMsg>::new(&spec, SEED)
        .clients(Clients::OpenLoop(load.clone()))
        .price(Work::Persist, Dur::micros(120))
        .sim()
        .measure(&load);
    let delta = ssd.median.unwrap().as_millis_f64() - mem.median.unwrap().as_millis_f64();
    let tput_ratio = ssd.achieved / mem.achieved;
    eprintln!(
        "medians: {} in memory, {} on the SSD; throughput ratio {tput_ratio:.3}",
        mem.median.unwrap(),
        ssd.median.unwrap()
    );
    assert!(
        delta.abs() < 0.5,
        "paper: SSD adds <0.5ms to the median (got {delta:.3})"
    );
    assert!(
        tput_ratio > 0.95,
        "paper: throughput is not affected (got {tput_ratio:.3})"
    );
}
