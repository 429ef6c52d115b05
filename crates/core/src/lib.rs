//! # canopus — the Canopus consensus protocol
//!
//! A from-scratch Rust implementation of *Canopus: A Scalable and Massively
//! Parallel Consensus Protocol* (Rizvi, Wong, Keshav — CoNEXT 2017).
//!
//! Canopus reaches consensus without a central leader by arranging nodes in
//! a topology-aware **Leaf-Only Tree** (LOT): physical nodes (*pnodes*) in
//! one rack form a *super-leaf*; interior *vnodes* are virtual, emulated by
//! every descendant. A consensus cycle runs one round per tree level —
//! reliable broadcast inside the super-leaf first (via per-member Raft
//! groups), then representatives exchange merged states between
//! super-leaves, so each proposal crosses each oversubscribed or wide-area
//! link once. Writes are ordered by fresh per-cycle random numbers; reads
//! are never disseminated at all — they are delayed one or two cycles and
//! interleaved locally (§5), or served immediately under write leases
//! (§7.2).
//!
//! ## Quick start
//!
//! ```
//! use canopus::{CanopusConfig, CanopusNode, EmulationTable, LotShape};
//! use canopus_sim::NodeId;
//!
//! // A height-2 LOT: two super-leaves of three nodes each.
//! let table = EmulationTable::new(
//!     LotShape::flat(2),
//!     vec![
//!         vec![NodeId(0), NodeId(1), NodeId(2)],
//!         vec![NodeId(3), NodeId(4), NodeId(5)],
//!     ],
//! );
//! let node = CanopusNode::new(NodeId(0), table, CanopusConfig::default(), 42);
//! assert_eq!(node.id(), NodeId(0));
//! ```
//!
//! Nodes are sans-IO [`canopus_sim::Process`] state machines: run them on
//! the deterministic simulator (`canopus-sim` + `canopus-net`) or on real
//! sockets (`canopus_net::tcp`). See `examples/` for complete clusters.
//!
//! ## Sharding
//!
//! [`CanopusConfig::shards`] independent LOT pipelines run inside every
//! node, one per key-space shard: a [`CanopusNode`] ([`node`]) is the
//! transport identity, the request router and the cross-shard transaction
//! join around that many [`Lane`]s ([`lane`]), each the complete protocol
//! state machine. One shard, the default, is the paper's protocol.

#![warn(missing_docs)]

mod clock;
pub mod config;
pub mod emulation;
pub mod lane;
pub mod msg;
pub mod node;
pub mod proposal;
pub mod types;

pub use config::{CanopusConfig, ReadMode, BATCH_LINGER};
pub use emulation::EmulationTable;
pub use lane::{CanopusStats, CommittedCycle, CommittedOp, CommittedSet, Lane};
pub use msg::{BroadcastItem, CanopusMsg, Snapshot};
pub use node::CanopusNode;
pub use proposal::{
    MembershipUpdate, OpBlock, OpView, Ops, PutPairs, RequestSet, TimedOp, VnodeState, WriteView,
};
pub use types::{CycleId, LotShape, VnodeId};
