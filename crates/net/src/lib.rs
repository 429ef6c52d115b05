//! # canopus-net — topology model, fabric, wire codec, and transports
//!
//! Canopus (§2.2, §4 of the paper) derives its scalability from being
//! *network topology aware*: nodes in one rack form a super-leaf, racks are
//! joined by oversubscribed aggregation links, and datacenters by WAN paths
//! whose latencies dominate wide-area deployments. This crate models that
//! world and carries messages across it:
//!
//! * [`WanMatrix`] — inter-datacenter RTTs, including the paper's Table 1
//!   ([`WanMatrix::paper_table1`]).
//! * [`Topology`] — placement of nodes into racks and datacenters, with the
//!   paper's single-DC and multi-DC builders.
//! * [`ClosFabric`] — a [`canopus_sim::Fabric`] that adds propagation,
//!   serialization, and FIFO queueing delay per link, so oversubscription
//!   and WAN bottlenecks emerge from first principles.
//! * [`wire`] — the hand-rolled binary codec shared by the simulator's
//!   size accounting and the real transport.
//! * [`tcp`] — the TCP driver (behind the `tcp` feature, on by default)
//!   that runs unmodified [`canopus_sim::Process`] state machines over
//!   real sockets, run to completion: the thread that runs a node is its
//!   event loop, steps the process and arms its timers.
//! * [`reactor`] — the socket half of that loop: the node's listener and
//!   connections on one epoll instance, frame reassembly, coalesced
//!   writes and bounded per-peer queues.
//! * [`fault`] — the runtime fault table ([`FaultRules`]) the TCP
//!   transport consults, so the nemesis engine can partition, impair, and
//!   crash a *live* cluster the same way it does a simulated one.

#![warn(missing_docs)]

pub mod clos;
pub mod fault;
#[cfg(feature = "tcp")]
pub mod reactor;
#[cfg(feature = "tcp")]
pub mod tcp;
pub mod topology;
pub mod wan;
pub mod wire;

pub use clos::ClosFabric;
pub use fault::FaultRules;
pub use topology::{LinkParams, RackId, Topology};
pub use wan::{SiteId, WanMatrix};
pub use wire::{Wire, WireError, WireRead};
