//! # canopus-raft — Raft consensus and super-leaf reliable broadcast
//!
//! Canopus assumes (paper §4.3, assumption A4) a reliable broadcast
//! primitive inside every super-leaf: "if hardware support is not
//! available, we use a variant of Raft". This crate is that substrate:
//!
//! * [`RaftCore`] — a compact, correct Raft member: randomized leader
//!   election, log replication with consistency checks, commit tracking,
//!   and leadership no-ops.
//! * [`SuperLeafBroadcast`] — the paper's construction: every super-leaf
//!   member leads its own Raft group; broadcasting is proposing into one's
//!   own group, and peer failure triggers an election that completes any
//!   in-flight replication.
//! * [`FailureDetector`] — heartbeat-style liveness tracking used to feed
//!   membership updates into consensus cycles (§4.6).
//!
//! Everything here is sans-IO: hosts route [`RaftMsg`]s and call `tick`.

#![warn(missing_docs)]

pub mod broadcast;
pub mod core;
pub mod fd;

pub use crate::core::{Entry, GroupId, Outbox, RaftConfig, RaftCore, RaftMsg, Role};
pub use broadcast::{Delivery, SuperLeafBroadcast};
pub use fd::FailureDetector;
