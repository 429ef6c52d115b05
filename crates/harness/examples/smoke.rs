use canopus::CanopusMsg;
use canopus_epaxos::EpaxosMsg;
use canopus_harness::*;
use canopus_sim::Dur;
use std::time::Instant;

fn main() {
    for per_rack in [3usize, 9] {
        let spec = DeploymentSpec::paper_single_dc(per_rack);
        for rate in [200_000.0, 800_000.0, 1_600_000.0, 3_200_000.0] {
            let load = LoadSpec::new(rate);
            let t0 = Instant::now();
            let cfg = CanopusMsg::sim_config(&spec);
            let r = run::<CanopusMsg>(&spec, &load, cfg, 1);
            println!(
                "canopus n={} rate={} achieved={} med={} wmed={} rmed={} healthy={} wall={:?}",
                spec.node_count(),
                fmt_rate(rate),
                fmt_rate(r.achieved),
                fmt_dur(r.median),
                fmt_dur(r.write_median),
                fmt_dur(r.read_median),
                r.healthy,
                t0.elapsed()
            );
        }
        for rate in [200_000.0, 800_000.0] {
            let load = LoadSpec::new(rate);
            let t0 = Instant::now();
            let r = run::<EpaxosMsg>(&spec, &load, canopus_epaxos::EpaxosConfig::default(), 1);
            println!(
                "epaxos  n={} rate={} achieved={} med={} healthy={} wall={:?}",
                spec.node_count(),
                fmt_rate(rate),
                fmt_rate(r.achieved),
                fmt_dur(r.median),
                r.healthy,
                t0.elapsed()
            );
            let t0 = Instant::now();
            let zcfg = canopus_zab::ZabConfig {
                participants: 6.min(spec.node_count()),
                ..canopus_zab::ZabConfig::default()
            };
            let r = run::<canopus_zab::ZabMsg>(&spec, &load, zcfg, 1);
            println!(
                "zab     n={} rate={} achieved={} med={} healthy={} wall={:?}",
                spec.node_count(),
                fmt_rate(rate),
                fmt_rate(r.achieved),
                fmt_dur(r.median),
                r.healthy,
                t0.elapsed()
            );
        }
    }
    let spec = DeploymentSpec::paper_multi_dc(3);
    for rate in [500_000.0, 2_000_000.0] {
        let mut load = LoadSpec::new(rate);
        load.warmup = Dur::millis(800);
        load.duration = Dur::millis(1200);
        let t0 = Instant::now();
        let cfg = CanopusMsg::sim_config(&spec);
        let r = run::<CanopusMsg>(&spec, &load, cfg, 1);
        println!(
            "canopus-wan n=9 rate={} achieved={} med={} wmed={} rmed={} healthy={} wall={:?}",
            fmt_rate(rate),
            fmt_rate(r.achieved),
            fmt_dur(r.median),
            fmt_dur(r.write_median),
            fmt_dur(r.read_median),
            r.healthy,
            t0.elapsed()
        );
        let t0 = Instant::now();
        let r = run::<EpaxosMsg>(&spec, &load, canopus_epaxos::EpaxosConfig::default(), 1);
        println!(
            "epaxos-wan  n=9 rate={} achieved={} med={} healthy={} wall={:?}",
            fmt_rate(rate),
            fmt_rate(r.achieved),
            fmt_dur(r.median),
            r.healthy,
            t0.elapsed()
        );
    }
}
