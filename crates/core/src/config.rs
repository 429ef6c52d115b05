//! Canopus node configuration.
//!
//! When a lane starts a cycle is one rule (`clock.rs`) reading three of
//! these values: [`CanopusConfig::max_linger`] (how long the first request
//! of a batch waits for company), [`CanopusConfig::max_batch`] (the batch
//! that does not wait) and [`CanopusConfig::max_pipeline_depth`] (cycles in
//! flight). The defaults are a single datacenter's — no window, one cycle
//! at a time; [`CanopusConfig::wide_area`] is the paper's multi-datacenter
//! setting of the same three. What no deployment, test or benchmark has
//! ever set is a constant where it is used (`lane.rs`: representatives per
//! super-leaf, fetch redundancy, lease span, state retention).

use canopus_raft::RaftConfig;
use canopus_sim::Dur;

/// How reads are linearized.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReadMode {
    /// §5: delay each read until the cycle that orders the concurrent
    /// writes commits, then interleave it at its position in the node's own
    /// request order. No read ever crosses the network.
    Delayed,
    /// §7.2: write leases. Reads to keys without an active write lease are
    /// served immediately from committed state; writes pay an extra lease
    /// round. Synthetic operations are treated as immediately servable
    /// reads / lease-free writes.
    Leases,
}

/// Full configuration of a Canopus node.
#[derive(Clone, Debug)]
pub struct CanopusConfig {
    /// Start a new cycle at once when this many client requests are
    /// pending (the paper uses 1000).
    pub max_batch: usize,
    /// Batching window: once the first request of a batch is here and a
    /// pipeline slot is free, hold the cycle this long so later arrivals
    /// share its proposal. Zero starts a cycle the moment work exists. The
    /// window does not bound a request's wait by itself: one that arrives
    /// while every slot ([`CanopusConfig::max_pipeline_depth`]) is taken
    /// waits for a commit to free one, then the full window. A full batch
    /// ([`CanopusConfig::max_batch`]) and outside prompting (§4.4) cut
    /// the window short — lingering never delays joining a cycle the rest
    /// of the tree has started. The paper's multi-datacenter runs start a
    /// cycle every 5 ms.
    pub max_linger: Dur,
    /// Cap on consensus cycles in flight at once. At 1, cycle N+1 starts
    /// only after cycle N commits (single-datacenter cycles are short).
    /// Above 1, cycle N+1's LOT exchange overlaps cycle N's (§7.1
    /// pipelining) — the cycle rate is then bounded by the slowest round,
    /// not by the commit latency, which across a WAN is a round trip.
    pub max_pipeline_depth: u64,
    /// Re-issue a proposal-request if unanswered for this long (covers
    /// emulator failure; must exceed the largest RTT in the deployment).
    pub fetch_timeout: Dur,
    /// Internal housekeeping tick (drives Raft timeouts, failure detection,
    /// and fetch retries).
    pub tick_interval: Dur,
    /// Peer silence threshold for the failure detector.
    pub failure_timeout: Dur,
    /// Raft parameters for super-leaf reliable broadcast.
    pub raft: RaftConfig,
    /// Read linearization mode.
    pub read_mode: ReadMode,
    /// Keep per-cycle commit records for inspection by tests (disable for
    /// long benchmark runs; the commit digest is always maintained).
    pub record_log: bool,
    /// Key-space shards, each an independent LOT pipeline (lane) inside
    /// every node; the same value at every node of a deployment. 1 — the
    /// default — is the paper's protocol: one pipeline orders everything.
    /// Every other field applies to each lane alike.
    pub shards: u16,
}

impl Default for CanopusConfig {
    fn default() -> Self {
        CanopusConfig {
            max_batch: 1000,
            max_linger: Dur::ZERO,
            max_pipeline_depth: 1,
            fetch_timeout: Dur::millis(700),
            tick_interval: Dur::millis(1),
            failure_timeout: Dur::millis(25),
            raft: RaftConfig::default(),
            read_mode: ReadMode::Delayed,
            record_log: true,
            shards: 1,
        }
    }
}

/// The batching window of the single-datacenter configurations that batch:
/// long enough for the requests of one burst to share a proposal, short
/// against a cycle.
pub const BATCH_LINGER: Dur = Dur::millis(1);

impl CanopusConfig {
    /// The paper's multi-datacenter configuration: a cycle every 5 ms
    /// while there is work, up to 64 in flight, 1000-request batches
    /// (§8.2). Failure and election timeouts are relaxed so heavy load
    /// degrades gracefully instead of triggering false failovers.
    pub fn wide_area() -> Self {
        CanopusConfig {
            max_batch: 1000,
            max_linger: Dur::millis(5),
            max_pipeline_depth: 64,
            fetch_timeout: Dur::millis(900),
            failure_timeout: Dur::millis(150),
            raft: RaftConfig {
                heartbeat_interval: Dur::millis(5),
                election_timeout_min: Dur::millis(50),
                election_timeout_max: Dur::millis(100),
            },
            ..Self::default()
        }
    }
}
