//! The consensus flight recorder: a fixed-capacity ring buffer of
//! structured events per node, dumpable on demand.
//!
//! Events are low-frequency relative to message traffic (a handful per
//! consensus cycle), so a mutex-guarded `VecDeque` is plenty; the
//! disabled recorder still costs exactly one branch per `record`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// First line of every flight-recorder dump; `#[should_panic(expected =
/// DUMP_HEADER)]` tests match on it.
pub const DUMP_HEADER: &str = "flight recorder dump";

/// The shared event taxonomy. Consensus-cycle events carry the Canopus
/// cycle id; election/resync events cover the Raft/ZAB/EPaxos nodes; the
/// net/crash events come from the transport and the harness nemesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A consensus cycle left `Idle`: the proposal batch was sealed.
    /// `ops`/`weight` describe the batch; `in_flight` is the pipeline
    /// occupancy *including* this cycle.
    CycleStart {
        /// Cycle id.
        cycle: u64,
        /// Operations in the sealed batch.
        ops: u64,
        /// Total weight (bytes) of the batch.
        weight: u64,
        /// Cycles in flight including this one (pipeline occupancy).
        in_flight: u64,
    },
    /// A linger window was armed to let the batch fill.
    LingerArm {
        /// Cycle the window gathers proposals for.
        cycle: u64,
        /// Pending ops when the window was armed.
        ops: u64,
    },
    /// The linger window elapsed and released the batch.
    LingerFire {
        /// Cycle being released.
        cycle: u64,
        /// Ops gathered by the time the window fired.
        ops: u64,
    },
    /// One broadcast round of a cycle completed.
    RoundComplete {
        /// Cycle id.
        cycle: u64,
        /// Round index within the cycle (0-based).
        round: u64,
    },
    /// A cycle committed.
    Commit {
        /// Cycle id.
        cycle: u64,
        /// Committed weight (bytes).
        weight: u64,
    },
    /// A super-leaf was tombstoned (excluded from future cycles).
    Tombstone {
        /// Cycle from which the exclusion takes effect.
        cycle: u64,
        /// The excluded group (super-leaf id or node id, per protocol).
        group: u32,
    },
    /// A previously tombstoned group rejoined.
    Rejoin {
        /// Cycle from which the rejoin takes effect.
        cycle: u64,
        /// The rejoining group.
        group: u32,
    },
    /// A leader election started (Raft/ZAB: a term/epoch bump).
    Election {
        /// New term or epoch.
        term: u64,
    },
    /// This node learned of a (possibly new) leader.
    LeaderChange {
        /// Term or epoch of the leadership.
        term: u64,
        /// The leader's node id.
        leader: u32,
    },
    /// A follower was resynced from the leader's log.
    Resync {
        /// Peer that was brought up to date.
        peer: u32,
        /// Entries (or bytes, per protocol) shipped.
        entries: u64,
    },
    /// The node process was crashed by the nemesis.
    Crash,
    /// The node process was restarted.
    Restart,
    /// The transport dropped traffic (no route, fault rule, full queue).
    NetDrop {
        /// Intended destination.
        peer: u32,
        /// Why it was dropped.
        reason: &'static str,
    },
    /// Escape hatch for protocol-specific notes.
    Note {
        /// Static label.
        label: &'static str,
        /// Free-form value.
        value: u64,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::CycleStart {
                cycle,
                ops,
                weight,
                in_flight,
            } => write!(
                f,
                "cycle-start   c{cycle} ops={ops} weight={weight} in_flight={in_flight}"
            ),
            EventKind::LingerArm { cycle, ops } => {
                write!(f, "linger-arm    c{cycle} ops={ops}")
            }
            EventKind::LingerFire { cycle, ops } => {
                write!(f, "linger-fire   c{cycle} ops={ops}")
            }
            EventKind::RoundComplete { cycle, round } => {
                write!(f, "round-done    c{cycle} round={round}")
            }
            EventKind::Commit { cycle, weight } => {
                write!(f, "commit        c{cycle} weight={weight}")
            }
            EventKind::Tombstone { cycle, group } => {
                write!(f, "tombstone     c{cycle} group={group}")
            }
            EventKind::Rejoin { cycle, group } => {
                write!(f, "rejoin        c{cycle} group={group}")
            }
            EventKind::Election { term } => write!(f, "election      term={term}"),
            EventKind::LeaderChange { term, leader } => {
                write!(f, "leader-change term={term} leader=n{leader}")
            }
            EventKind::Resync { peer, entries } => {
                write!(f, "resync        peer=n{peer} entries={entries}")
            }
            EventKind::Crash => write!(f, "crash"),
            EventKind::Restart => write!(f, "restart"),
            EventKind::NetDrop { peer, reason } => {
                write!(f, "net-drop      peer=n{peer} reason={reason}")
            }
            EventKind::Note { label, value } => write!(f, "note          {label}={value}"),
        }
    }
}

/// One recorded event: a per-recorder sequence number, the monotonic
/// timestamp the caller supplied, the recording node, and the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Sequence number, monotone per recorder (survives ring eviction, so
    /// gaps reveal how much history was overwritten).
    pub seq: u64,
    /// Caller-supplied monotonic nanoseconds (virtual time on the
    /// simulator, elapsed wall clock on the TCP transport).
    pub at_nanos: u64,
    /// Raw id of the recording node.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.at_nanos as f64 / 1_000_000.0;
        write!(
            f,
            "[{ms:>10.3}ms] n{} #{:<4} {}",
            self.node, self.seq, self.kind
        )
    }
}

#[derive(Debug)]
struct RingInner {
    cap: usize,
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

/// Fixed-capacity ring buffer of [`FlightEvent`]s for one node. Cloning
/// shares the ring; [`FlightRecorder::disabled`] records nothing at the
/// cost of one branch.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    node: u32,
    ring: Option<Arc<Mutex<RingInner>>>,
}

impl FlightRecorder {
    /// An enabled recorder for `node` keeping the most recent `cap` events.
    pub fn new(node: u32, cap: usize) -> Self {
        FlightRecorder {
            node,
            ring: Some(Arc::new(Mutex::new(RingInner {
                cap: cap.max(1),
                next_seq: 0,
                events: VecDeque::with_capacity(cap.max(1)),
            }))),
        }
    }

    /// A recorder that records nothing (the `Default`).
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// Whether this recorder keeps events.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Record `kind` at `at_nanos`, evicting the oldest event when full.
    #[inline]
    pub fn record(&self, at_nanos: u64, kind: EventKind) {
        if let Some(ring) = &self.ring {
            let mut r = ring.lock().unwrap();
            let seq = r.next_seq;
            r.next_seq += 1;
            if r.events.len() == r.cap {
                r.events.pop_front();
            }
            r.events.push_back(FlightEvent {
                seq,
                at_nanos,
                node: self.node,
                kind,
            });
        }
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.lock().unwrap().next_seq)
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.as_ref().map_or_else(Vec::new, |r| {
            r.lock().unwrap().events.iter().cloned().collect()
        })
    }

    /// The most recent `n` retained events, oldest first.
    pub fn last(&self, n: usize) -> Vec<FlightEvent> {
        let evs = self.events();
        let skip = evs.len().saturating_sub(n);
        evs[skip..].to_vec()
    }

    /// Render the most recent `n` events, one per line, under
    /// [`DUMP_HEADER`]. An empty or disabled recorder says so explicitly
    /// rather than returning an empty string.
    pub fn dump_last(&self, n: usize) -> String {
        let mut out = format!("{DUMP_HEADER} (node n{}, last {n}):\n", self.node);
        if !self.is_enabled() {
            out.push_str("  <recorder disabled>\n");
            return out;
        }
        let evs = self.last(n);
        if evs.is_empty() {
            out.push_str("  <no events recorded>\n");
            return out;
        }
        for ev in evs {
            out.push_str("  ");
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }
}
