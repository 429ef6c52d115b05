//! # canopus-kv — the replicated application and its consistency checkers
//!
//! The paper's motivating applications maintain a replicated transaction
//! log applied to a key-value state (§1). This crate is that application
//! layer, shared by all three protocol implementations:
//!
//! * [`Op`] / [`ClientRequest`] / [`ClientReply`] — the uniform client API
//!   (16-byte kv pairs as in §8.1, atomic multi-key writes, and
//!   aggregated synthetic batches for throughput experiments).
//! * [`KvStore`] — the versioned key-value state machine.
//! * [`check`] — mechanical checkers for the paper's §6 properties:
//!   agreement, client-FIFO, and linearizability.

#![warn(missing_docs)]

pub mod check;
pub mod op;
pub mod store;

pub use check::{check_agreement, check_client_fifo, LinChecker, ReadObs, ReplyEvent, WriteObs};
pub use op::{ClientReply, ClientRequest, Key, Op, OpResult};
pub use store::{KvStore, Value, Versioned};
