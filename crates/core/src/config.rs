//! Canopus node configuration.

use canopus_raft::RaftConfig;
use canopus_sim::Dur;

pub use canopus_kv::CostModel;

/// When a node starts its next consensus cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CycleTrigger {
    /// Self-clocked (§4.4): start the next cycle when the previous one
    /// commits, if there is pending work — plus on outside prompting.
    /// Used for single-datacenter deployments where cycles are short.
    OnCommit,
    /// Pipelined (§7.1): multiple cycles in flight; a new cycle starts on a
    /// periodic timer, on batch overflow, or on seeing a later-cycle
    /// message. Used for wide-area deployments where the cycle time is
    /// dominated by WAN round trips.
    Pipelined,
}

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
    /// Cycle start policy.
    pub trigger: CycleTrigger,
    /// Pipelined mode: interval between cycle starts (the paper's
    /// multi-datacenter runs use 5 ms).
    pub cycle_interval: Dur,
    /// Start a new cycle early once this many client requests are pending
    /// (the paper uses 1000).
    pub max_batch: usize,
    /// Self-clocked batching window: after the first request of a batch
    /// arrives, hold the cycle open this long so later arrivals aggregate
    /// into the same proposal. Zero starts a cycle the moment work exists
    /// (the seed behavior). Overflow ([`CanopusConfig::max_batch`]) and
    /// outside prompting (§4.4) still start a cycle immediately — lingering
    /// never delays joining a cycle the rest of the tree already started.
    /// Ignored in [`CycleTrigger::Pipelined`] mode, where `cycle_interval`
    /// plays this role.
    pub max_linger: Dur,
    /// Cap on consensus cycles in flight at once, in either trigger mode.
    /// At 1, cycle N+1 starts only after cycle N commits (the self-clocked
    /// single-DC behavior). Above 1, cycle N+1's LOT exchange overlaps
    /// cycle N's result drain (§7.1 pipelining) — the cycle rate is then
    /// bounded by the slowest round, not the full commit latency.
    pub max_pipeline_depth: u64,
    /// Number of super-leaf representatives fetching remote vnode states.
    pub representatives: usize,
    /// How many representatives redundantly fetch each vnode state
    /// (the paper's example uses 2 for fault tolerance; 1 is leanest).
    pub fetch_redundancy: usize,
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
    /// Cycles a write lease stays active after its granting cycle
    /// (lease mode only).
    pub lease_span: u64,
    /// CPU cost model.
    pub costs: CostModel,
    /// Keep per-cycle commit records for inspection by tests (disable for
    /// long benchmark runs; the commit digest is always maintained).
    pub record_log: bool,
    /// How many completed cycles to retain for answering late
    /// proposal-requests from lagging super-leaves.
    pub state_retention: u64,
    /// Key-space shards, each an independent LOT pipeline (lane) inside
    /// every node; the same value at every node of a deployment. 1 — the
    /// default — is the paper's protocol: one pipeline orders everything.
    /// Every other field applies to each lane alike.
    pub shards: u16,
}

impl Default for CanopusConfig {
    fn default() -> Self {
        CanopusConfig {
            trigger: CycleTrigger::OnCommit,
            cycle_interval: Dur::millis(5),
            max_batch: 1000,
            max_linger: Dur::ZERO,
            max_pipeline_depth: 1,
            representatives: 2,
            fetch_redundancy: 1,
            fetch_timeout: Dur::millis(700),
            tick_interval: Dur::millis(1),
            failure_timeout: Dur::millis(25),
            raft: RaftConfig::default(),
            read_mode: ReadMode::Delayed,
            lease_span: 8,
            costs: CostModel::default(),
            record_log: true,
            state_retention: 64,
            shards: 1,
        }
    }
}

/// The super-leaf batching window of every configuration that batches:
/// long enough for the requests of one burst to share a proposal, short
/// against a cycle.
pub const BATCH_LINGER: Dur = Dur::millis(1);

impl CanopusConfig {
    /// The paper's multi-datacenter configuration: pipelining on, 5 ms
    /// cycle timer, 1000-request batches (§8.2). Failure and election
    /// timeouts are relaxed so heavy load degrades gracefully instead of
    /// triggering false failovers.
    pub fn wide_area() -> Self {
        CanopusConfig {
            trigger: CycleTrigger::Pipelined,
            cycle_interval: Dur::millis(5),
            max_batch: 1000,
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

    /// Throughput-tuned self-clocked configuration: super-leaf batching
    /// (1 ms linger, 1000-request overflow) plus cross-round pipelining
    /// (`depth` cycles in flight). `depth` must be ≥ 1. This is the
    /// configuration the `throughput_knee` bench and the batched chaos
    /// scenarios exercise; every other knob keeps its default.
    pub fn batched_pipelined(depth: u64) -> Self {
        CanopusConfig {
            max_linger: BATCH_LINGER,
            max_pipeline_depth: depth.max(1),
            ..Self::default()
        }
    }
}
