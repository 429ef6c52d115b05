//! # canopus-workload — the paper's client model
//!
//! Load generation and latency accounting for the evaluation (§8): open-
//! loop Poisson clients with configurable write ratios (the paper's 180
//! single-DC clients / 100 clients per datacenter), the Poisson sampler
//! they draw from, and mergeable latency recorders with reservoir-sampled
//! percentiles. The closed-loop client is the harness's `HistoryClient`.
//!
//! Clients are generic over the protocol through [`ProtocolMsg`], which is
//! implemented here for Canopus, EPaxos, and the Zab/ZooKeeper model — so
//! every figure drives all protocols with byte-identical workloads.

#![warn(missing_docs)]

pub mod client;
pub mod dist;
pub mod latency;

pub use client::{OpenLoopClient, OpenLoopConfig, ProtocolMsg};
pub use dist::poisson;
pub use latency::LatencyRecorder;
