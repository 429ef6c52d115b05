//! # canopus-bench — the BENCH file, the wide-area probes, micro-benchmarks
//!
//! The paper's §8 claims are checked by the workspace's
//! `tests/paper_claims.rs`, one test per claim; Table 1, the WAN matrix
//! the fabric takes as input, by `canopus-net`'s
//! `cross_dc_uses_wan_latency` test. The binaries here print what those
//! tests do not keep:
//!
//! | binary | artifact |
//! |---|---|
//! | `throughput_knee`  | batching/pipelining knee search → `BENCH_canopus.json` |
//! | `fig6_multi_dc`    | Figure 6: the probes around each wide-area knee |
//! | `ingest_micro`     | the wire-codec costs behind the simulator's ingest prices |
//!
//! `fig6_multi_dc` accepts `--quick` (three datacenters only);
//! `throughput_knee` reads `BENCH_SWEEP=smoke|full` instead and can
//! regression-check a committed baseline with `--check`. `cargo bench`
//! additionally runs criterion micro-benchmarks of the protocol hot paths
//! (`benches/micro.rs`).

#![warn(missing_docs)]

pub mod json;
