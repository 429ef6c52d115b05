//! # canopus-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the execution substrate for the Canopus reproduction.
//! The paper evaluates Canopus on a 39-machine, 3-rack cluster and on 21 EC2
//! instances spread over 7 regions; neither is available here, so every
//! experiment instead runs on this simulator with the paper's topologies and
//! latencies modelled explicitly (see `canopus-net`).
//!
//! Design points:
//!
//! * **Sans-IO processes** ([`Process`]): protocol logic sees only message
//!   and timer callbacks plus a [`Context`] for recording effects. The same
//!   state machines run on the TCP transport in `canopus-net`.
//! * **Virtual time** ([`Time`], [`Dur`]): nanosecond-resolution clock; a
//!   multi-datacenter run covering minutes of protocol time executes in
//!   milliseconds of wall time.
//! * **Determinism**: one seeded RNG, a totally ordered event queue
//!   (`(time, seq)`), and effect buffering make every run reproducible.
//! * **CPU model**: handlers report the [`Work`] they did
//!   ([`Context::work`]) and one price table in [`NodeConfig`] turns it,
//!   plus a per-callback and a per-send cost, into nanoseconds;
//!   that gives nodes finite processing capacity so saturation behaviour
//!   (the paper's throughput metric) emerges naturally.
//! * **Fault injection**: crash-stop, restart, message loss, and partitions
//!   (one [`fault::LinkFaults`] table behind [`fabric::FaultyFabric`],
//!   driven by [`fault::run_plan`]) cover the failure model of §3 of the
//!   paper.

#![warn(missing_docs)]

pub mod fabric;
pub mod fault;
mod process;
mod sim;
mod time;

pub use fabric::{Fabric, FaultyFabric, Route, UniformFabric};
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use process::{Context, Effect, NodeId, Payload, Process, Timer, TimerId, Work, WorkCounts};
pub use sim::{NetStats, NodeConfig, Simulation, TraceEvent, Tracer, EXTERNAL};
pub use time::{Dur, Time};
