//! Instrumentation for the traced run, all of it outside the program: a
//! [`TracedProcess`] wraps each node's state machine and times every call
//! the transport makes into it.

use std::any::Any;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

use canopus::{CanopusMsg, CanopusNode, CanopusStats};
use canopus_net::Wire;
use canopus_sim::{Context, NodeId, Payload, Process, Timer};

use crate::procfs::OwnRunDelay;
use crate::stats::SpanAgg;
use crate::workload::OUTAGE_MIN;

/// Wire kinds, in the order every per-kind array uses.
pub const KINDS: [&str; 5] = [
    "request",
    "reply",
    "raft",
    "proposal_request",
    "proposal_response",
];
/// Step spans: one per wire kind, then timers, then `on_start`.
pub const STEP_NAMES: [&str; 7] = [
    "request",
    "reply",
    "raft",
    "proposal_request",
    "proposal_response",
    "timer",
    "start",
];
const STEP_REQUEST: usize = 0;
const STEP_TIMER: usize = 5;
const STEP_START: usize = 6;

/// One message in this many is encoded and decoded again under a timer.
const CODEC_SAMPLE: u32 = 256;

pub fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("a CanopusMsg kind")
}

pub const PHASE_BEFORE: u8 = 0;
pub const PHASE_WINDOW: u8 = 1;
pub const PHASE_AFTER: u8 = 2;

/// Monotonic nanoseconds since process start, shared by every thread.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What the generator tells the wrappers: which phase the run is in, and
/// when the victim was crashed (0 = not yet).
pub struct TraceCtl {
    pub clock: Clock,
    pub phase: AtomicU8,
    pub crash_ns: AtomicU64,
}

impl TraceCtl {
    pub fn new(clock: Clock) -> Self {
        TraceCtl {
            clock,
            phase: AtomicU8::new(PHASE_BEFORE),
            crash_ns: AtomicU64::new(0),
        }
    }
}

/// Received messages, their sizes and sampled codec cost, by wire kind.
#[derive(Clone, Default)]
pub struct WireTrace {
    pub msgs: [u64; 5],
    pub bytes: [u64; 5],
    pub codec: [SpanAgg; 5],
    tick: u32,
}

impl WireTrace {
    /// Counts `msg` and, on the sample, times one encode + decode of it.
    pub fn observe(&mut self, msg: &CanopusMsg) {
        let k = kind_index(msg.kind());
        self.msgs[k] += 1;
        self.bytes[k] += msg.wire_size() as u64;
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(CODEC_SAMPLE) {
            let t0 = Instant::now();
            let back = CanopusMsg::from_bytes(black_box(msg).to_bytes());
            self.codec[k].record(t0.elapsed().as_nanos() as u64);
            black_box(back).expect("a received message re-decodes");
        }
    }

    pub fn merge(&mut self, other: &WireTrace) {
        for k in 0..KINDS.len() {
            self.msgs[k] += other.msgs[k];
            self.bytes[k] += other.bytes[k];
            self.codec[k].merge(&other.codec[k]);
        }
    }
}

/// What one wrapper collected over the window.
#[derive(Clone, Default)]
pub struct NodeTrace {
    pub steps: [SpanAgg; 7],
    pub wire: WireTrace,
    /// The node's counters at the first call inside and after the window.
    pub stats_window: Option<(CanopusStats, CanopusStats)>,
    /// End of the last pause of `OUTAGE_MIN` between commits after the
    /// crash, in clock ns: the moment the node was committing again.
    pub commit_resumed_ns: Option<u64>,
}

/// A node's state machine with every transport call timed. Delegates the
/// whole [`Process`] interface, so the transport and the protocol run
/// exactly as shipped.
pub struct TracedProcess {
    inner: Box<dyn Process<CanopusMsg>>,
    ctl: std::sync::Arc<TraceCtl>,
    trace: NodeTrace,
    seen_phase: u8,
    stats_at_open: Option<CanopusStats>,
    last_cycles: u64,
    last_advance_ns: u64,
    /// Opened by the node's own thread on its first call in the window.
    run_delay: Option<OwnRunDelay>,
}

impl TracedProcess {
    pub fn new(inner: Box<dyn Process<CanopusMsg>>, ctl: std::sync::Arc<TraceCtl>) -> Self {
        TracedProcess {
            inner,
            ctl,
            trace: NodeTrace::default(),
            seen_phase: PHASE_BEFORE,
            stats_at_open: None,
            last_cycles: 0,
            last_advance_ns: 0,
            run_delay: None,
        }
    }

    /// The collected trace.
    pub fn trace(&self) -> &NodeTrace {
        &self.trace
    }

    fn stats(&self) -> Option<CanopusStats> {
        self.inner
            .as_any()
            .downcast_ref::<CanopusNode>()
            .map(CanopusNode::stats)
    }

    fn step(&mut self, span: usize, call: impl FnOnce(&mut dyn Process<CanopusMsg>)) {
        let phase = self.ctl.phase.load(Ordering::Relaxed);
        if phase != self.seen_phase {
            self.seen_phase = phase;
            match phase {
                PHASE_WINDOW => {
                    self.stats_at_open = self.stats();
                    self.run_delay = OwnRunDelay::open();
                }
                PHASE_AFTER => {
                    self.trace.stats_window = self.stats_at_open.zip(self.stats());
                }
                _ => {}
            }
        }
        if phase == PHASE_WINDOW {
            // A span is wall-clock minus the time the thread spent
            // pre-empted inside it, i.e. on-CPU time: with twelve threads on
            // two cores a 10 ms commit step is pre-empted more often than
            // not. Request steps are too short (~70 ns) and too many to be
            // worth the two extra reads.
            let waited = |d: &mut Option<OwnRunDelay>| match d {
                Some(d) if span != STEP_REQUEST => d.read_ns(),
                _ => None,
            };
            let w0 = waited(&mut self.run_delay);
            let t0 = Instant::now();
            call(self.inner.as_mut());
            let wall = t0.elapsed().as_nanos() as u64;
            let preempted = match (w0, waited(&mut self.run_delay)) {
                (Some(w0), Some(w1)) => w1.saturating_sub(w0),
                _ => 0,
            };
            self.trace.steps[span].record(wall.saturating_sub(preempted));
        } else {
            call(self.inner.as_mut());
        }
        let crash_ns = self.ctl.crash_ns.load(Ordering::Relaxed);
        if crash_ns != 0 {
            self.watch_commits(crash_ns);
        }
    }

    fn watch_commits(&mut self, crash_ns: u64) {
        let Some(stats) = self.stats() else { return };
        if stats.committed_cycles == self.last_cycles {
            return;
        }
        let now = self.ctl.clock.now_ns();
        let pause = now.saturating_sub(self.last_advance_ns.max(crash_ns));
        if self.last_advance_ns != 0 && pause >= OUTAGE_MIN.as_nanos() as u64 {
            self.trace.commit_resumed_ns = Some(now);
        }
        self.last_cycles = stats.committed_cycles;
        self.last_advance_ns = now;
    }
}

impl Process<CanopusMsg> for TracedProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        self.step(STEP_START, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
        let span = kind_index(msg.kind());
        if self.ctl.phase.load(Ordering::Relaxed) == PHASE_WINDOW {
            self.trace.wire.observe(&msg);
        }
        self.step(span, |p| p.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        self.step(STEP_TIMER, |p| p.on_timer(timer, ctx));
    }

    // Borrowed downcasts reach the wrapped node, so `CanopusNode::stats()`
    // and `store()` work on a traced cluster as on a bare one. The owned
    // downcast yields the wrapper: that is how the bench takes the trace
    // back once the node's loop has returned it.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus::{EmulationTable, LotShape};
    use canopus_harness::live_canopus_config;
    use std::sync::Arc;

    fn node() -> Box<dyn Process<CanopusMsg>> {
        let table = EmulationTable::new(LotShape::flat(1), vec![vec![NodeId(0)]]);
        Box::new(CanopusNode::new(NodeId(0), table, live_canopus_config(), 1))
    }

    #[test]
    fn borrowed_downcasts_reach_the_wrapped_node() {
        let ctl = Arc::new(TraceCtl::new(Clock::start()));
        let mut traced: Box<dyn Process<CanopusMsg>> = Box::new(TracedProcess::new(node(), ctl));
        let stats = traced
            .as_any()
            .downcast_ref::<CanopusNode>()
            .expect("stats() stays reachable through the wrapper")
            .stats();
        assert_eq!(stats.committed_cycles, 0);
        assert!(traced.as_any_mut().downcast_mut::<CanopusNode>().is_some());
        let wrapper = traced
            .into_any()
            .downcast::<TracedProcess>()
            .expect("the owned downcast yields the wrapper");
        assert_eq!(wrapper.trace().steps[STEP_START].count, 0);
    }

    #[test]
    fn wire_trace_counts_by_kind_and_samples_the_codec() {
        let mut w = WireTrace::default();
        let msg = CanopusMsg::Request(canopus_kv::ClientRequest {
            client: NodeId(9),
            op_id: 1,
            op: canopus_kv::Op::Get { key: 5 },
        });
        for _ in 0..CODEC_SAMPLE * 2 {
            w.observe(&msg);
        }
        let k = kind_index("request");
        assert_eq!(w.msgs[k], 512);
        assert_eq!(w.bytes[k], 512 * msg.wire_size() as u64);
        assert_eq!(w.codec[k].count, 2);
        assert_eq!(w.msgs[kind_index("raft")], 0);
    }
}
