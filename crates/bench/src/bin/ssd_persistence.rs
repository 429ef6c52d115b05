//! §8.1 persistence check — SSD logging vs in-memory filesystem.
//!
//! The paper verifies that writing logs to an SSD instead of an in-memory
//! filesystem leaves throughput unchanged and adds under 0.5 ms to the
//! median completion time. We reproduce this by pricing the one batch each
//! node persists per cycle as an SSD fsync, instead of the default free
//! in-memory write, and comparing.
//!
//! Usage: `cargo run --release -p canopus-bench --bin ssd_persistence`

use canopus::CanopusMsg;
use canopus_harness::*;
use canopus_sim::{Dur, Work};

fn main() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = LoadSpec::new(200_000.0);

    let mem = run::<CanopusMsg>(&spec, &load, CanopusMsg::sim_config(&spec), 42);
    let ssd = ClusterBuilder::<CanopusMsg>::new(&spec, 42)
        .clients(Clients::OpenLoop(load.clone()))
        // One fsync per proposal batch on a 2013-era SSD (Intel S3700 class).
        .price(Work::Persist, Dur::micros(120))
        .sim()
        .measure(&load);

    let rows = vec![
        vec![
            "in-memory fs".to_string(),
            fmt_rate(mem.achieved),
            fmt_dur(mem.median),
        ],
        vec![
            "SSD log".to_string(),
            fmt_rate(ssd.achieved),
            fmt_dur(ssd.median),
        ],
    ];
    println!("§8.1 persistence — 9 nodes, 200 k/s offered, 20% writes");
    println!(
        "{}",
        render_table(&["log target", "achieved", "median"], &rows)
    );
    let delta = ssd.median.unwrap().as_millis_f64() - mem.median.unwrap().as_millis_f64();
    let tput_ratio = ssd.achieved / mem.achieved;
    println!("median delta = {delta:.3} ms, throughput ratio = {tput_ratio:.3}");
    assert!(
        delta.abs() < 0.5,
        "paper: SSD adds <0.5ms to the median (got {delta:.3})"
    );
    assert!(
        tput_ratio > 0.95,
        "paper: throughput is not affected (got {tput_ratio:.3})"
    );
    println!("matches the paper's §8.1 persistence result. ✓");
}
