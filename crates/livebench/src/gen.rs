//! The load generator: one bench-owned [`Process`] on the cluster's own
//! transport, registered as node 9 and run on one thread named `loadgen`.
//!
//! It drives the whole run from inside its callbacks — set-up (first reply
//! from every node, then the preload), warm-up, the measured window, the
//! crash, and the drain — and keeps every measurement the report is built
//! from. All of its buffers are fixed-size and allocated in [`LoadGen::new`].

use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use canopus::CanopusMsg;
use canopus_kv::{ClientReply, ClientRequest, Op, OpResult};
use canopus_net::FaultRules;
use canopus_obs::Snapshot;
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Timer};

use crate::procfs::{self, ThreadSample};
use crate::stats::LogHist;
use crate::trace::{TraceCtl, WireTrace, PHASE_AFTER, PHASE_WINDOW};
use crate::workload::{
    due_ns, encode_value, home_node, op_at, read_ok, Checker, Load, OpSpec, ReadBounds, Workload,
    DEADLINE, FALLBACK, INFLIGHT, KEYS, NODES, OUTAGE_MIN, SAT_RSS_OPS, VICTIM, WARMUP, WINDOW,
};

/// The generator's id on the transport.
pub const LOADGEN_ID: NodeId = NodeId(NODES);

/// In-flight table size. Ids are sequential and a slot is reused every
/// `RING` ops, so an op still unanswered by then is given up as lost; at
/// 40 000 op/s that is 6.5 s, and the longest outage seen (a tombstone
/// proposed again after a second failure timeout) held ops for 3.1 s.
const RING: usize = 1 << 18;
/// How long after the last op was issued a reply is still waited for. It
/// has to outlast the rare long outage (4-7 s): a cluster shut down while it
/// still works off the backlog has nodes a cycle apart, which the final
/// digest comparison cannot tell from divergence. A drain ends as soon as
/// nothing is in flight, so the length only shows in such a run.
const DRAIN: Duration = Duration::from_secs(8);
/// The victim is crashed on its first reply at or after the scheduled
/// instant, so it is known to be live, and just heard from by its peers,
/// when it dies: the outage then measures detection, not whichever 50 or
/// 200 ms stall the cluster happened to be in. Without a reply for this
/// long it is crashed anyway.
const CRASH_WAIT: Duration = Duration::from_millis(300);
/// The post-window crash is injected this long after the window closes: by
/// then every window op has been answered or is past its deadline, so the
/// crash cannot turn one into a failed op...
const PROBE_DELAY: Duration = DEADLINE;
/// ...load continues this long past recovery...
const PROBE_TAIL: Duration = Duration::from_millis(500);
/// ...and the probe is abandoned if replies have not resumed by then.
const PROBE_CAP: Duration = Duration::from_secs(4);
/// Unanswered set-up probes are re-sent at this interval.
const PROBE_RETRY: Dur = Dur::millis(500);
/// Shortest timer the generator arms.
const MIN_TIMER_NS: u64 = 20_000;
/// Client-side op spans kept for the trace file: one op in this many...
const SPAN_SAMPLE: u64 = 64;
/// ...up to this many spans.
const SPAN_CAP: usize = 1 << 15;

const PH_PRELOAD: u8 = 0;
const PH_WARMUP: u8 = 1;
const PH_WINDOW: u8 = 2;
const PH_PROBE: u8 = 3;

const F_USED: u8 = 1;
const F_DONE: u8 = 2;
const F_GET: u8 = 4;

/// What the generator asks of the thread that owns the cluster.
pub enum Event {
    /// The victim was just marked crashed: stop its loop.
    CrashNow,
    /// The run is over.
    Done,
}

pub struct GenConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Stop once the preload is acknowledged (`livebench setup`).
    pub setup_only: bool,
    pub traced: bool,
    /// Clock time set-up began: process start, or later in a traced run,
    /// which first times the host.
    pub setup_begin_ns: u64,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    id: u64,
    /// Due time (paced) or send time (closed loop), clock ns.
    t_ref: u64,
    key: u32,
    /// Put: its sequence. Get: lowest legal sequence.
    a: u32,
    /// Get: highest legal sequence.
    b: u32,
    target: u8,
    phase: u8,
    flags: u8,
}

impl Slot {
    /// Issued and not yet answered or given up.
    fn pending(&self) -> bool {
        self.flags & (F_USED | F_DONE) == F_USED
    }

    fn is_get(&self) -> bool {
        self.flags & F_GET != 0
    }

    fn read_bounds(&self) -> ReadBounds {
        ReadBounds {
            lo: self.a,
            hi: self.b,
        }
    }
}

/// Ops of one phase, by outcome. A `lost` op is a failed op; a `late` one
/// was answered correctly, so it is not, but it is not goodput either.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub attempted: u64,
    /// Correct reply within the deadline.
    pub ok: u64,
    /// Correct reply after the deadline.
    pub late: u64,
    /// No reply by the end of the drain, or a wrong one.
    pub lost: u64,
}

/// Process and host counters at one edge of the window.
#[derive(Default)]
pub struct EdgeSample {
    pub at_ns: u64,
    pub cpu_s: f64,
    pub host: (u64, u64),
    pub threads: Vec<ThreadSample>,
    pub reactor: Option<Snapshot>,
}

#[derive(Clone, Copy)]
pub struct OpSpan {
    pub id: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub replied_ns: u64,
    pub target: u8,
}

/// Everything the run measured; read by `main` once the loop has ended.
pub struct Measured {
    /// Set-up begin → first committed reply from all nine nodes.
    pub spawn_ns: u64,
    /// Set-up begin → every preloaded key acknowledged.
    pub setup_ns: u64,
    pub window: Counts,
    pub probe: Counts,
    /// Latency of every answered window op, ns, from due (paced) or send
    /// (closed) time.
    pub latency: LogHist,
    /// How late the generator sent window ops (paced), ns.
    pub sched_lag: LogHist,
    /// Correct in-deadline replies per second of window, by arrival time.
    pub per_second: Vec<u64>,
    pub open: EdgeSample,
    pub close: EdgeSample,
    pub rss_peak_mib: Option<f64>,
    /// The closed loop closed its window short of the fixed op count.
    pub rss_short_of_work: bool,
    pub violations: u64,
    pub violation_notes: Vec<String>,
    pub stale_replies: u64,
    pub crash_ns: Option<u64>,
    /// From the crash to the reply that ended the last pause of
    /// `OUTAGE_MIN` in correct replies: when service resumed for good. (A
    /// cycle or two usually still commit mid-outage, when a fetch is retried
    /// at a live emulator, so the longest pause alone would start there,
    /// not at the crash.) If replies never paused that long, to the end of
    /// the longest pause there was.
    pub outage_ns: u64,
    /// Arrival of the reply that ended the latest pause of `OUTAGE_MIN`.
    pub resumed_ns: Option<u64>,
    /// Ops in flight to the victim at the crash: lost with it, and sent
    /// again to the fallback.
    pub resent_at_crash: u64,
    pub late_after_crash: u64,
    /// Latency of ops due after service resumed.
    pub post_crash: LogHist,
    /// `reply` frames: the one kind only the generator receives.
    pub wire: WireTrace,
    pub spans: Vec<OpSpan>,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Stage {
    /// One Put per node outstanding; waiting for all nine replies.
    FirstReplies,
    Preload,
    Run,
    Drain {
        until_ns: u64,
    },
    Done,
}

pub struct LoadGen {
    cfg: GenConfig,
    ctl: Arc<TraceCtl>,
    rules: Arc<FaultRules>,
    events: Sender<Event>,
    stage: Stage,
    ring: Vec<Slot>,
    next_id: u64,
    inflight: usize,
    checker: Checker,
    crashed: bool,
    // Set-up.
    first_reply: [bool; NODES as usize],
    preload_next: u32,
    preload_acked: u32,
    // Run timeline, clock ns.
    t_run0: u64,
    t_w0: u64,
    t_w1: u64,
    t_crash: u64,
    t_stop: u64,
    next_run_op: u64,
    opened: bool,
    closed: bool,
    /// Earliest outstanding timer, clock ns.
    armed_ns: u64,
    done_in_window: u64,
    last_ok_ns: u64,
    longest_pause_ns: u64,
    outage_seen: bool,
    pub m: Measured,
}

impl LoadGen {
    pub fn new(
        cfg: GenConfig,
        ctl: Arc<TraceCtl>,
        rules: Arc<FaultRules>,
        events: Sender<Event>,
    ) -> Self {
        let spans = Vec::with_capacity(if cfg.traced { SPAN_CAP } else { 0 });
        LoadGen {
            ctl,
            rules,
            events,
            stage: Stage::FirstReplies,
            ring: vec![Slot::default(); RING],
            next_id: 0,
            inflight: 0,
            checker: Checker::new(),
            crashed: false,
            first_reply: [false; NODES as usize],
            preload_next: 0,
            preload_acked: 0,
            t_run0: 0,
            t_w0: 0,
            t_w1: 0,
            t_crash: 0,
            t_stop: 0,
            next_run_op: 0,
            opened: false,
            closed: false,
            armed_ns: u64::MAX,
            done_in_window: 0,
            last_ok_ns: 0,
            longest_pause_ns: 0,
            outage_seen: false,
            m: Measured {
                spawn_ns: 0,
                setup_ns: 0,
                window: Counts::default(),
                probe: Counts::default(),
                latency: LogHist::new(),
                sched_lag: LogHist::new(),
                per_second: vec![0; WINDOW.as_secs() as usize],
                open: EdgeSample::default(),
                close: EdgeSample::default(),
                rss_peak_mib: None,
                rss_short_of_work: false,
                violations: 0,
                violation_notes: Vec::new(),
                stale_replies: 0,
                crash_ns: None,
                outage_ns: 0,
                resumed_ns: None,
                resent_at_crash: 0,
                late_after_crash: 0,
                post_crash: LogHist::new(),
                wire: WireTrace::default(),
                spans,
            },
            cfg,
        }
    }

    pub fn workload(&self) -> &'static Workload {
        self.cfg.workload
    }

    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Window ops completed while the window was open: the denominator of
    /// every per-op cost.
    pub fn done_in_window(&self) -> u64 {
        self.done_in_window
    }

    fn now(&self) -> u64 {
        self.ctl.clock.now_ns()
    }

    fn counts(&mut self, phase: u8) -> Option<&mut Counts> {
        match phase {
            PH_WINDOW => Some(&mut self.m.window),
            PH_PROBE => Some(&mut self.m.probe),
            _ => None,
        }
    }

    fn violation(&mut self, note: String) {
        self.m.violations += 1;
        if self.m.violation_notes.len() < 8 {
            self.m.violation_notes.push(note);
        }
    }

    fn route(&self, key: u32) -> u8 {
        let home = home_node(key);
        if self.crashed && home == VICTIM {
            FALLBACK as u8
        } else {
            home as u8
        }
    }

    fn request(&self, slot: &Slot) -> CanopusMsg {
        let key = slot.key as u64;
        let op = if slot.is_get() {
            Op::Get { key }
        } else {
            Op::Put {
                key,
                value: Bytes::copy_from_slice(&encode_value(slot.a, slot.key)),
            }
        };
        CanopusMsg::Request(ClientRequest {
            client: LOADGEN_ID,
            op_id: slot.id,
            op,
        })
    }

    /// Gives up on the op in `idx`: it is a failed op, and if it was a Put
    /// its outcome stays unknown.
    fn lose(&mut self, idx: usize) {
        let slot = self.ring[idx];
        self.ring[idx].flags |= F_DONE;
        self.inflight -= 1;
        if !slot.is_get() {
            self.checker.put_unknown(slot.key, slot.a);
        }
        if let Some(c) = self.counts(slot.phase) {
            c.lost += 1;
        }
    }

    fn issue(
        &mut self,
        spec: OpSpec,
        t_ref: u64,
        now: u64,
        phase: u8,
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let idx = id as usize & (RING - 1);
        if self.ring[idx].pending() {
            self.lose(idx);
        }
        let (a, b, kind) = if spec.is_get {
            let ReadBounds { lo, hi } = self.checker.issue_get(spec.key);
            (lo, hi, F_GET)
        } else {
            (self.checker.issue_put(spec.key), 0, 0)
        };
        let slot = Slot {
            id,
            t_ref,
            key: spec.key,
            a,
            b,
            target: self.route(spec.key),
            phase,
            flags: F_USED | kind,
        };
        self.ring[idx] = slot;
        self.inflight += 1;
        if let Some(c) = self.counts(phase) {
            c.attempted += 1;
        }
        if self.cfg.traced
            && phase == PH_WINDOW
            && id.is_multiple_of(SPAN_SAMPLE)
            && self.m.spans.len() < SPAN_CAP
        {
            self.m.spans.push(OpSpan {
                id,
                due_ns: t_ref,
                sent_ns: now,
                replied_ns: 0,
                target: slot.target,
            });
        }
        ctx.send(NodeId(slot.target as u32), self.request(&slot));
    }

    fn phase_at(&self, t: u64) -> u8 {
        if t < self.t_w0 {
            PH_WARMUP
        } else if t < self.t_w1 {
            PH_WINDOW
        } else {
            PH_PROBE
        }
    }

    // ---------------------------------------------------------------
    // Set-up
    // ---------------------------------------------------------------

    fn preload_pump(&mut self, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        while self.inflight < INFLIGHT && self.preload_next < KEYS {
            let spec = OpSpec {
                key: self.preload_next,
                is_get: false,
            };
            self.preload_next += 1;
            self.issue(spec, now, now, PH_PRELOAD, ctx);
        }
    }

    fn preload_reply(&mut self, from: NodeId, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        self.preload_acked += 1;
        if self.stage == Stage::FirstReplies {
            if let Some(seen) = self.first_reply.get_mut(from.index()) {
                *seen = true;
            }
            if self.first_reply.iter().all(|&s| s) {
                self.m.spawn_ns = now - self.cfg.setup_begin_ns;
                self.stage = Stage::Preload;
            }
        }
        if self.stage == Stage::Preload {
            self.preload_pump(now, ctx);
            if self.preload_acked == KEYS {
                self.m.setup_ns = now - self.cfg.setup_begin_ns;
                if self.cfg.setup_only {
                    self.finish();
                } else {
                    self.begin_run(now, ctx);
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // The run: warm-up, window, crash probe
    // ---------------------------------------------------------------

    fn begin_run(&mut self, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let w = self.cfg.workload;
        self.stage = Stage::Run;
        self.t_run0 = now;
        self.t_w0 = now + ns(WARMUP);
        self.t_w1 = self.t_w0 + ns(WINDOW);
        if w.crash_in_window {
            self.t_crash = self.t_w0 + ns(WINDOW) / 3;
            self.t_stop = self.t_w1;
        } else {
            self.t_crash = self.t_w1 + ns(PROBE_DELAY);
            self.t_stop = self.t_crash + ns(PROBE_CAP);
        }
        if w.load == Load::Closed {
            for _ in 0..INFLIGHT {
                self.issue_next_closed(now, ctx);
            }
        }
        self.advance(now, ctx);
    }

    fn issue_next_closed(&mut self, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        let w = self.cfg.workload;
        let spec = op_at(self.cfg.seed, w.get_pct, self.next_run_op);
        self.next_run_op += 1;
        self.issue(spec, now, now, self.phase_at(now), ctx);
    }

    fn edge_sample(&self, now: u64) -> EdgeSample {
        EdgeSample {
            at_ns: now,
            cpu_s: procfs::process_cpu_s(),
            host: procfs::host_cpu(),
            threads: if self.cfg.traced {
                procfs::threads()
            } else {
                Vec::new()
            },
            reactor: self.cfg.traced.then(canopus_obs::reactor_snapshot),
        }
    }

    fn crash_victim(&mut self, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        // Mark first: from here every frame to or from the victim is
        // dropped, which is the crash as its peers see it. The owner of the
        // cluster then stops the victim's loop.
        self.rules.set_crashed(NodeId(VICTIM), true);
        self.crashed = true;
        self.m.crash_ns = Some(now);
        self.last_ok_ns = now;
        self.ctl.crash_ns.store(now, Ordering::Relaxed);
        let _ = self.events.send(Event::CrashNow);

        // The victim's keys go to the fallback from here on, and so do the
        // ops that were in flight to it, as a client that lost its
        // connection would send them again. A Put among them may have been
        // disseminated before the victim died and commit a second time,
        // behind later Puts on its key, so its outcome counts as unknown.
        for idx in self.pending_slots() {
            if self.ring[idx].target != VICTIM as u8 {
                continue;
            }
            self.ring[idx].target = FALLBACK as u8;
            let slot = self.ring[idx];
            if !slot.is_get() {
                self.checker.put_unknown(slot.key, slot.a);
            }
            self.m.resent_at_crash += 1;
            ctx.send(NodeId(FALLBACK), self.request(&slot));
        }
    }

    /// Ring indices of the ops still pending, in issue order.
    fn pending_slots(&self) -> Vec<usize> {
        (self.next_id.saturating_sub(RING as u64)..self.next_id)
            .map(|id| id as usize & (RING - 1))
            .filter(|&idx| self.ring[idx].pending())
            .collect()
    }

    /// Runs every timeline edge that is due and issues every paced op that
    /// is due, then arms the timer for whatever comes next.
    fn advance(&mut self, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        if self.stage == Stage::Run {
            if !self.opened && now >= self.t_w0 {
                self.opened = true;
                self.m.open = self.edge_sample(now);
                self.ctl.phase.store(PHASE_WINDOW, Ordering::Relaxed);
            }
            if !self.closed && now >= self.t_w1 {
                self.closed = true;
                self.m.close = self.edge_sample(now);
                self.ctl.phase.store(PHASE_AFTER, Ordering::Relaxed);
                // Paced runs do a fixed amount of work by the window's
                // end. The closed loop read its RSS at a fixed op count; if
                // it never got there, the run is reported as it is.
                if self.m.rss_peak_mib.is_none() {
                    self.m.rss_short_of_work = self.cfg.workload.load == Load::Closed;
                    self.m.rss_peak_mib = Some(procfs::rss_peak_mib());
                }
            }
            if !self.crashed && now >= self.t_crash + CRASH_WAIT.as_nanos() as u64 {
                self.crash_victim(now, ctx);
            }
            if let Load::Paced(rate) = self.cfg.workload.load {
                let w = self.cfg.workload;
                loop {
                    let due = self.t_run0 + due_ns(rate, self.next_run_op);
                    if due > now || due >= self.t_stop {
                        break;
                    }
                    let phase = self.phase_at(due);
                    if phase == PH_WINDOW {
                        self.m.sched_lag.record(now - due);
                    }
                    let spec = op_at(self.cfg.seed, w.get_pct, self.next_run_op);
                    self.next_run_op += 1;
                    self.issue(spec, due, now, phase, ctx);
                }
            }
            // The post-window probe ends once replies have flowed for
            // `PROBE_TAIL` since they resumed; a lone cycle that commits
            // mid-outage falls silent again and does not count.
            if let (false, Some(resumed)) = (self.cfg.workload.crash_in_window, self.m.resumed_ns) {
                if now >= resumed + PROBE_TAIL.as_nanos() as u64 {
                    if now - self.last_ok_ns < OUTAGE_MIN.as_nanos() as u64 {
                        self.t_stop = now;
                    } else {
                        self.m.resumed_ns = None;
                    }
                }
            }
            if now >= self.t_stop {
                if self.crashed && now - self.last_ok_ns >= OUTAGE_MIN.as_nanos() as u64 {
                    // Still silent: the outage outlasted the probe.
                    self.m.outage_ns = now - self.m.crash_ns.unwrap_or(now);
                }
                self.stage = Stage::Drain {
                    until_ns: now + DRAIN.as_nanos() as u64,
                };
            }
        }
        if let Stage::Drain { until_ns } = self.stage {
            if self.inflight == 0 || now >= until_ns {
                for idx in self.pending_slots() {
                    self.lose(idx);
                }
                self.finish();
            }
        }
        self.arm(now, ctx);
    }

    fn finish(&mut self) {
        self.stage = Stage::Done;
        let _ = self.events.send(Event::Done);
    }

    fn arm(&mut self, now: u64, ctx: &mut Context<'_, CanopusMsg>) {
        let mut next = u64::MAX;
        match self.stage {
            Stage::Run => {
                let edges = [
                    (!self.opened).then_some(self.t_w0),
                    (!self.closed).then_some(self.t_w1),
                    (!self.crashed).then_some(self.t_crash + CRASH_WAIT.as_nanos() as u64),
                    self.m
                        .resumed_ns
                        .map(|at| at + PROBE_TAIL.as_nanos() as u64),
                    Some(self.t_stop),
                ];
                next = edges.into_iter().flatten().min().unwrap_or(next);
                if let Load::Paced(rate) = self.cfg.workload.load {
                    next = next.min(self.t_run0 + due_ns(rate, self.next_run_op));
                }
            }
            Stage::Drain { until_ns } => next = until_ns,
            _ => return,
        }
        let at = next.max(now + MIN_TIMER_NS);
        if self.armed_ns <= now || at < self.armed_ns {
            self.armed_ns = at;
            ctx.set_timer(Dur::nanos(at - now), 0);
        }
    }

    // ---------------------------------------------------------------
    // Replies
    // ---------------------------------------------------------------

    fn on_reply(
        &mut self,
        from: NodeId,
        reply: ClientReply,
        now: u64,
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
        let idx = reply.op_id as usize & (RING - 1);
        let slot = self.ring[idx];
        if slot.id != reply.op_id || !slot.pending() {
            self.m.stale_replies += 1;
            return;
        }
        self.ring[idx].flags |= F_DONE;
        self.inflight -= 1;

        let correct = match (slot.is_get(), &reply.result) {
            (false, OpResult::Written) => {
                self.checker.ack_put(slot.key, slot.a);
                true
            }
            (true, OpResult::Value(v)) => read_ok(slot.key, slot.read_bounds(), v.as_deref()),
            _ => false,
        };
        if !correct {
            self.violation(format!(
                "op {} on key {} (seq bounds {}..={}) answered {:?} by {from}",
                slot.id, slot.key, slot.a, slot.b, reply.result
            ));
            if let Some(c) = self.counts(slot.phase) {
                c.lost += 1;
            }
            return;
        }
        if slot.phase == PH_PRELOAD {
            self.preload_reply(from, now, ctx);
            return;
        }

        if !self.crashed
            && self.stage == Stage::Run
            && from == NodeId(VICTIM)
            && now >= self.t_crash
        {
            self.crash_victim(now, ctx);
        }
        let latency = now.saturating_sub(slot.t_ref);
        let in_deadline = latency <= DEADLINE.as_nanos() as u64;
        if let Some(c) = self.counts(slot.phase) {
            if in_deadline {
                c.ok += 1;
            } else {
                c.late += 1;
            }
        }
        if slot.phase == PH_WINDOW {
            self.m.latency.record(latency);
            if self.cfg.traced && slot.id.is_multiple_of(SPAN_SAMPLE) {
                if let Ok(i) = self.m.spans.binary_search_by_key(&slot.id, |s| s.id) {
                    self.m.spans[i].replied_ns = now;
                }
            }
        }
        if in_deadline && self.opened && !self.closed {
            // Completions while the window is open, whenever they were sent.
            self.done_in_window += 1;
            let second = ((now - self.t_w0) / 1_000_000_000) as usize;
            if let Some(count) = self.m.per_second.get_mut(second) {
                *count += 1;
            }
            if self.cfg.workload.load == Load::Closed && self.done_in_window == SAT_RSS_OPS {
                self.m.rss_peak_mib = Some(procfs::rss_peak_mib());
            }
        }
        if self.crashed {
            let pause = now - self.last_ok_ns;
            self.last_ok_ns = now;
            let since_crash = now - self.m.crash_ns.unwrap_or(now);
            if !in_deadline {
                self.m.late_after_crash += 1;
            }
            if pause >= OUTAGE_MIN.as_nanos() as u64 {
                self.m.resumed_ns = Some(now);
                self.outage_seen = true;
                self.m.outage_ns = since_crash;
            } else if !self.outage_seen && pause > self.longest_pause_ns {
                self.longest_pause_ns = pause;
                self.m.outage_ns = since_crash;
            } else if self.m.resumed_ns.is_some_and(|at| slot.t_ref >= at) {
                self.m.post_crash.record(latency);
            }
        }
        if self.stage == Stage::Run && self.cfg.workload.load == Load::Closed && now < self.t_stop {
            self.issue_next_closed(now, ctx);
        }
    }
}

impl Process<CanopusMsg> for LoadGen {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        // Keys 0..9 live on nodes 0..9: the first nine preload Puts double
        // as the "first committed reply from each node" probe.
        let now = self.now();
        for key in 0..NODES {
            let spec = OpSpec { key, is_get: false };
            self.issue(spec, now, now, PH_PRELOAD, ctx);
        }
        self.preload_next = NODES;
        ctx.set_timer(PROBE_RETRY, 0);
    }

    fn on_message(&mut self, from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
        let now = self.now();
        // Timeline edges first, so a reply is booked against the phase it
        // arrived in.
        if matches!(self.stage, Stage::Run | Stage::Drain { .. }) {
            self.advance(now, ctx);
        }
        if self.cfg.traced && self.opened && !self.closed {
            self.m.wire.observe(&msg);
        }
        if let CanopusMsg::Reply(reply) = msg {
            self.on_reply(from, reply, now, ctx);
        }
        // No message follows the last reply, so the drain ends here.
        if matches!(self.stage, Stage::Drain { .. }) && self.inflight == 0 {
            self.advance(now, ctx);
        }
    }

    fn on_timer(&mut self, _timer: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        let now = self.now();
        match self.stage {
            Stage::FirstReplies => {
                // A probe sent before its node could take it is sent again.
                for id in 0..NODES as usize {
                    let slot = self.ring[id];
                    if slot.pending() {
                        ctx.send(NodeId(slot.target as u32), self.request(&slot));
                    }
                }
                ctx.set_timer(PROBE_RETRY, 0);
            }
            Stage::Run | Stage::Drain { .. } => self.advance(now, ctx),
            Stage::Preload | Stage::Done => {}
        }
    }

    impl_process_any!();
}
