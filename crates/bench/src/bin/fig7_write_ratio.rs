//! Figure 7 — write-ratio sensitivity in the wide area (paper §8.2.1).
//!
//! Three datacenters, nine nodes: Canopus at 1 %, 20 %, and 50 % writes vs
//! EPaxos (whose throughput is write-ratio-insensitive because it
//! disseminates reads too; shown at 20 %).
//!
//! Claims to reproduce: Canopus throughput rises as the write ratio falls
//! (paper: 3.6 M at 1 % vs 2.65 M at 20 %); even at 50 % writes Canopus
//! sustains ≥2.5× EPaxos.
//!
//! Usage: `cargo run --release -p canopus-bench --bin fig7_write_ratio [--quick]`

use canopus::CanopusMsg;
use canopus_epaxos::{EpaxosConfig, EpaxosMsg};
use canopus_harness::*;
use canopus_sim::Dur;

fn wan_load(rate: f64, writes: f64) -> LoadSpec {
    let mut load = LoadSpec::new(rate).with_writes(writes);
    load.warmup = Dur::millis(900);
    load.duration = Dur::millis(1100);
    load
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = DeploymentSpec::paper_multi_dc(3);
    let search = SearchSpec {
        start_rate: 100_000.0,
        growth: 1.8,
        latency_limit: Dur::millis(500),
        max_steps: if quick { 7 } else { 10 },
    };

    let mut rows = Vec::new();
    let cfg = CanopusMsg::sim_config(&spec);
    for writes in [0.01, 0.2, 0.5] {
        let result = find_max_throughput(
            |rate| run::<CanopusMsg>(&spec, &wan_load(rate, writes), cfg.clone(), 42),
            &search,
        );
        let max = result.max_throughput();
        eprintln!("canopus {:.0}% writes: {}", writes * 100.0, fmt_rate(max));
        rows.push(vec![
            format!("canopus {:.0}% writes", writes * 100.0),
            fmt_rate(max),
        ]);
    }

    let ecfg = EpaxosConfig {
        record_log: false,
        ..EpaxosConfig::default()
    };
    let epaxos = find_max_throughput(
        |rate| run::<EpaxosMsg>(&spec, &wan_load(rate, 0.2), ecfg.clone(), 42),
        &search,
    );
    rows.push(vec![
        "epaxos 20% writes".to_string(),
        fmt_rate(epaxos.max_throughput()),
    ]);

    println!("\nFigure 7 — max throughput, 3 datacenters, by write ratio");
    println!(
        "{}",
        render_table(&["configuration", "max throughput"], &rows)
    );
}
