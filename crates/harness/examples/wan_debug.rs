use canopus::CanopusMsg;
use canopus_harness::*;
use canopus_sim::Dur;
use canopus_workload::OpenLoopClient;

fn main() {
    let spec = DeploymentSpec::paper_multi_dc(3);
    let mut load = LoadSpec::new(200_000.0);
    load.warmup = Dur::millis(800);
    load.duration = Dur::millis(1200);
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(&spec, 1)
        .clients(Clients::OpenLoop(load))
        .sim();
    cluster.sim.run_for(Dur::millis(2000));
    for &n in &cluster.nodes {
        let node = cluster.node(n);
        let s = node.stats();
        let avg_cycle_ms = if s.committed_cycles > 0 {
            s.cycle_latency_sum_ns as f64 / s.committed_cycles as f64 / 1e6
        } else {
            0.0
        };
        println!(
            "node {n}: cycles={} started={} committed={} avg_cycle_latency={avg_cycle_ms:.1}ms",
            s.committed_cycles,
            node.last_started().0,
            node.last_committed().0
        );
    }
    for &c in cluster.clients.iter().take(4) {
        let client = cluster.sim.node::<OpenLoopClient<CanopusMsg>>(c);
        println!(
            "client {c}: w[p10={:?} p50={:?} p90={:?}] r[p50={:?}] completed w={} r={}",
            client.writes.percentile(10.0),
            client.writes.percentile(50.0),
            client.writes.percentile(90.0),
            client.reads.percentile(50.0),
            client.writes.completed(),
            client.reads.completed()
        );
    }
}
