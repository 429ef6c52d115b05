//! # canopus-harness — experiment orchestration
//!
//! Builds full deployments of any of the three protocols the paper
//! measures (Canopus, EPaxos and the ZooKeeper model) on the topology-aware
//! simulator or on loopback TCP, drives them with the paper's client
//! model (open-loop Poisson clients and mergeable latency recorders) or
//! with history-recording clients, and implements the evaluation
//! methodology of §8.1: one search for maximum throughput under a latency
//! knee ([`find_max_throughput`], which brackets the knee by doubling and
//! bisects it to 2 %). Three pieces carry all of it: one [`Protocol`] impl
//! per protocol, one [`ClusterBuilder`] ending in `.sim()` or `.live()`,
//! and one verdict (`verdict()` on either result). The workspace's
//! `tests/paper_claims.rs` checks the paper's §8 claims with these pieces,
//! one test per claim.

#![warn(missing_docs)]

pub mod cluster;
pub mod history;
pub mod latency;
pub mod live;
pub mod open_loop;
pub mod protocol;
pub mod run;
pub mod scenarios;
pub mod spec;

pub use cluster::{
    emulation_table_for, ChaosFabric, Clients, Cluster, ClusterBuilder, ClusterObs, SilentNode,
    CHAOS_FLIGHT_CAP,
};
pub use history::{decode_tag, encode_tag, ChaosReport, HistoryClient, HistoryConfig, HistoryOp};
pub use live::{
    live_canopus_config, live_history_config, live_spec, live_timeline, LiveCluster, LiveOutcome,
    LIVE_TIME_UNIT,
};
pub use open_loop::OpenLoopClient;
pub use protocol::{Protocol, WriteRecords};
pub use run::{deterministic_check, find_max_throughput, run, RunResult, SearchResult};
pub use scenarios::{
    all_scenarios, catalog_fingerprint, partition_then_crash_restart, shifting_partition,
    uniform_loss, ChaosScenario, ChaosTimeline, ChaosTopology, CATALOG_VERSION,
};
pub use spec::{DeploymentSpec, LoadSpec, TopoSpec};
