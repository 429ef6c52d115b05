//! # canopus-obs — zero-dependency observability
//!
//! Two halves, both designed so that a *disabled* instance costs exactly
//! one predictable branch on the hot path:
//!
//! - [`Registry`]: a process-local registry of named [`Counter`]s,
//!   [`Gauge`]s and log₂-bucketed [`Histogram`]s. Handles are cheap
//!   `Arc`-backed clones; updates are relaxed atomics, so protocol code
//!   can record from any thread without coordination. A registry built
//!   with [`Registry::disabled`] hands out handles whose operations test
//!   a single `Option` discriminant and return — the `throughput_knee`
//!   ladder numbers are provably unaffected (the bench's `--check` mode
//!   asserts enabled and disabled smoke runs commit identical op counts).
//! - [`FlightRecorder`]: a fixed-capacity per-node ring buffer of
//!   structured consensus events ([`EventKind`]) with monotonic
//!   timestamps, dumpable on demand. Chaos-verdict failures print the
//!   last N events per node as the panic artifact.
//!
//! The crate is std-only with zero dependencies (this build environment
//! has no registry access), sits *below* `canopus-sim` in the workspace
//! graph, and therefore speaks raw `u32` node ids and `u64` nanosecond
//! timestamps rather than the simulator's `NodeId`/`Time` newtypes.

#![warn(missing_docs)]

mod flight;
mod metrics;

pub use flight::{EventKind, FlightEvent, FlightRecorder, DUMP_HEADER};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot,
    HISTOGRAM_BUCKETS,
};

/// The process-global transport counters: none exist. They belonged to a
/// reactor pool shared by every node; each node thread now owns its
/// sockets and reports transport figures (`net.flush_bytes`,
/// `net.reconnects`, drops, queue depth) into its own hub. The function
/// stays, returning an empty snapshot, because livebench calls it; a
/// benchmark issue removes the `net.reactor.*` rows and then this.
pub fn reactor_snapshot() -> Snapshot {
    Snapshot::default()
}

/// Everything one node carries: its metrics registry plus its flight
/// recorder. Cloning shares the underlying storage, so a harness can keep
/// one clone per node for snapshot collection while the node process owns
/// another.
#[derive(Clone, Debug, Default)]
pub struct NodeObs {
    /// Raw node id (dense index, same as the simulator's `NodeId.0`).
    pub node: u32,
    /// The node's metrics registry.
    pub metrics: Registry,
    /// The node's consensus flight recorder.
    pub flight: FlightRecorder,
}

impl NodeObs {
    /// A fully disabled hub: every metric update and event record is one
    /// branch. This is the `Default` and what instrumented constructors
    /// start with.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled hub for `node` with a flight ring of `flight_cap` events.
    pub fn enabled(node: u32, flight_cap: usize) -> Self {
        NodeObs {
            node,
            metrics: Registry::new(),
            flight: FlightRecorder::new(node, flight_cap),
        }
    }

    /// True if either half records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.flight.is_enabled()
    }

    /// Record a flight event at `at_nanos` (no-op when disabled).
    #[inline]
    pub fn event(&self, at_nanos: u64, kind: EventKind) {
        self.flight.record(at_nanos, kind);
    }
}

/// Minimal JSON string escaping for metric names and labels (the tiny
/// subset RFC 8259 requires: quote, backslash, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
