//! # canopus-bench — regenerating every figure
//!
//! One binary per measured figure of the paper's evaluation (Table 1, the
//! WAN matrix the fabric takes as input, is checked by
//! `canopus-net`'s `cross_dc_uses_wan_latency` test):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig4_single_dc`   | Figure 4(a)+(b): single-DC scaling |
//! | `fig5_zookeeper`   | Figure 5: ZooKeeper vs ZKCanopus |
//! | `fig6_multi_dc`    | Figure 6: multi-DC scaling |
//! | `fig7_write_ratio` | Figure 7: write-ratio sweep |
//! | `ssd_persistence`  | §8.1 SSD-vs-memory logging check |
//! | `throughput_knee`  | batching/pipelining knee sweep → `BENCH_canopus.json` |
//! | `ingest_micro`     | the wire-codec costs behind the simulator's ingest prices |
//!
//! The figure sweeps accept `--quick` for a reduced ladder (the SSD check
//! is already fast); `throughput_knee` reads
//! `BENCH_SWEEP=smoke|full` instead and can regression-check a committed
//! baseline with `--check`. `cargo bench` additionally runs criterion
//! micro-benchmarks of the protocol hot paths (`benches/micro.rs`).

#![warn(missing_docs)]

pub mod json;
