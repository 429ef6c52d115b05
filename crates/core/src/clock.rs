//! When a lane starts its next consensus cycle.
//!
//! The paper has one rule. A node starts a cycle when it has work (§4.4),
//! at once when a batch fills or when the rest of the tree is already in a
//! later cycle (outside prompting, §4.4), and — where a cycle is a WAN
//! round trip — without waiting for the cycles before it to commit (§7.1).
//! Batching adds one wait to it: the first request of a batch opens a
//! window of `max_linger`, and the cycle that carries the batch starts
//! when the window closes, so later arrivals share the proposal. The
//! window opens only while a pipeline slot is free, so the window bounds
//! a request's wait only if it finds one: at `max_pipeline_depth: 1` a
//! request that arrives while a cycle is in flight waits for that commit
//! and then a full window.
//!
//! start ⇔ `in_flight < max_pipeline_depth` ∧ (prompted ∨
//! `pending_weight ≥ max_batch` ∨ (local work ∧ window closed))
//!
//! [`CycleClock`] is that rule and the counters it reads, without I/O: the
//! lane asks [`CycleClock::decide`] whenever something the rule reads has
//! changed, arms or cancels the one timer the answer names, and reports
//! starts and commits back. An idle lane has no window and no timer.

use canopus_sim::{Dur, Time, TimerId};

use crate::config::CanopusConfig;
use crate::types::CycleId;

/// What [`CycleClock::decide`] tells the lane to do.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Nothing to start: no work, the pipeline is full, or the batching
    /// window is still open (its timer will ask again).
    Wait,
    /// First work of a batch: arm a timer this far ahead and hand it to
    /// [`CycleClock::window_opened`].
    OpenWindow(Dur),
    /// Start the next cycle now ([`CycleClock::start`]), and ask again.
    Start {
        /// The batch waited out its window, as opposed to a prompt, an
        /// overflow, or no window being configured.
        window_closed: bool,
    },
}

/// The cycle counters of one lane and the rule that advances them.
#[derive(Debug)]
pub(crate) struct CycleClock {
    max_linger: Dur,
    max_batch: u64,
    depth: u64,
    last_started: CycleId,
    last_committed: CycleId,
    /// Highest cycle any message has mentioned; past `last_started` it is
    /// the outside prompt.
    max_seen: CycleId,
    /// The open batching window: its deadline and the timer that wakes
    /// the lane then. Opened by the first work of a batch, gone when the
    /// cycle carrying the batch starts.
    window: Option<(Time, TimerId)>,
}

impl CycleClock {
    pub(crate) fn new(cfg: &CanopusConfig) -> Self {
        CycleClock {
            max_linger: cfg.max_linger,
            max_batch: cfg.max_batch as u64,
            // Depth 1 is strictly one cycle after the other; 0 means that.
            depth: cfg.max_pipeline_depth.max(1),
            last_started: CycleId(0),
            last_committed: CycleId(0),
            max_seen: CycleId(0),
            window: None,
        }
    }

    pub(crate) fn last_started(&self) -> CycleId {
        self.last_started
    }

    pub(crate) fn last_committed(&self) -> CycleId {
        self.last_committed
    }

    /// Cycles started and not yet committed.
    pub(crate) fn in_flight(&self) -> u64 {
        self.last_started.0 - self.last_committed.0
    }

    /// A message mentioned cycle `c`.
    pub(crate) fn saw(&mut self, c: CycleId) {
        self.max_seen = self.max_seen.max(c);
    }

    /// The start rule (module docs). `pending_weight` is the client
    /// writes waiting for a cycle, `local_work` whether anything at all
    /// is: writes, reads to order, membership updates, lease requests.
    pub(crate) fn decide(&self, now: Time, pending_weight: u64, local_work: bool) -> Decision {
        let start = |window_closed| Decision::Start { window_closed };
        if self.in_flight() >= self.depth {
            return Decision::Wait;
        }
        // Neither waits for the window: lingering must not delay joining
        // a cycle the rest of the tree has started, nor hold a full batch.
        if self.max_seen > self.last_started || pending_weight >= self.max_batch {
            return start(false);
        }
        if !local_work {
            return Decision::Wait;
        }
        match self.window {
            _ if self.max_linger.is_zero() => start(false),
            None => Decision::OpenWindow(self.max_linger),
            Some((deadline, _)) if now >= deadline => start(true),
            Some(_) => Decision::Wait,
        }
    }

    /// The lane armed `timer` to fire at `deadline` for
    /// [`Decision::OpenWindow`].
    pub(crate) fn window_opened(&mut self, deadline: Time, timer: TimerId) {
        debug_assert!(self.window.is_none(), "one window at a time");
        self.window = Some((deadline, timer));
    }

    /// Starts the next cycle and returns it, with the window's timer if
    /// that is still to fire (the cycle started by prompt or overflow):
    /// the lane cancels it, or it would fire into a cycle that has
    /// already started.
    pub(crate) fn start(&mut self, now: Time) -> (CycleId, Option<TimerId>) {
        self.last_started = self.last_started.next();
        self.saw(self.last_started);
        let window = self.window.take();
        let unfired = window.filter(|&(deadline, _)| now < deadline);
        (self.last_started, unfired.map(|(_, timer)| timer))
    }

    /// Cycle `c` committed (cycles commit in order).
    pub(crate) fn committed(&mut self, c: CycleId) {
        self.last_committed = c;
    }

    /// The lane took over a peer's state that stands at `committed`:
    /// nothing is in flight and nothing seen beyond it. Returns the timer
    /// of the window that was open, to cancel.
    pub(crate) fn resume_at(&mut self, committed: CycleId) -> Option<TimerId> {
        self.last_started = committed;
        self.last_committed = committed;
        self.max_seen = committed;
        self.window.take().map(|(_, timer)| timer)
    }

    /// With the state it took over the lane found its own proposal for
    /// `c` still in flight: that cycle is started.
    pub(crate) fn resume_started(&mut self, c: CycleId) {
        self.last_started = self.last_started.max(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINGER: Dur = Dur::millis(5);

    fn clock(max_linger: Dur, depth: u64) -> CycleClock {
        CycleClock::new(&CanopusConfig {
            max_linger,
            max_batch: 100,
            max_pipeline_depth: depth,
            ..CanopusConfig::default()
        })
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Dur::millis(ms)
    }

    const START: Decision = Decision::Start {
        window_closed: false,
    };
    const WINDOW_CLOSED: Decision = Decision::Start {
        window_closed: true,
    };

    /// Opens the window at `now` the way the lane does, with timer `id`.
    fn open_window(clock: &mut CycleClock, now: Time, id: u64) {
        assert_eq!(clock.decide(now, 1, true), Decision::OpenWindow(LINGER));
        clock.window_opened(now + LINGER, TimerId(id));
    }

    #[test]
    fn the_rule_by_table() {
        // (max_linger, depth, in flight, prompted, weight, work) → decision
        // of a clock with no window open.
        let table = [
            // Idle: no start and no timer, whatever the configuration.
            (Dur::ZERO, 1, 0, false, 0, false, Decision::Wait),
            (LINGER, 64, 0, false, 0, false, Decision::Wait),
            // Work, no window configured: start at once.
            (Dur::ZERO, 1, 0, false, 1, true, START),
            // Work that is not a write (a read to order, a leave).
            (Dur::ZERO, 1, 0, false, 0, true, START),
            // Work under a window: the first request opens it.
            (LINGER, 1, 0, false, 1, true, Decision::OpenWindow(LINGER)),
            // Overflow and prompt do not wait for it.
            (LINGER, 1, 0, false, 100, true, START),
            (LINGER, 1, 0, true, 0, false, START),
            // The depth gate holds everything, a prompt included.
            (LINGER, 1, 1, true, 100, true, Decision::Wait),
            (Dur::ZERO, 4, 4, true, 100, true, Decision::Wait),
            (Dur::ZERO, 4, 3, false, 1, true, START),
            // Depth 0 is depth 1, not "never".
            (Dur::ZERO, 0, 0, false, 1, true, START),
            (Dur::ZERO, 0, 1, false, 1, true, Decision::Wait),
        ];
        for (i, &(linger, depth, in_flight, prompted, weight, work, want)) in
            table.iter().enumerate()
        {
            let mut c = clock(linger, depth);
            for _ in 0..in_flight {
                c.start(at(0));
            }
            if prompted {
                c.saw(c.last_started().next());
            }
            assert_eq!(c.decide(at(1), weight, work), want, "row {i}");
        }
    }

    #[test]
    fn first_request_opens_the_window_and_arms_exactly_one_timer() {
        let mut c = clock(LINGER, 1);
        open_window(&mut c, at(10), 7);
        // More requests inside the window: no second timer, no start.
        assert_eq!(c.decide(at(11), 2, true), Decision::Wait);
        assert_eq!(c.decide(at(14), 50, true), Decision::Wait);
        // The window closes: the batch starts, and its timer, having
        // fired, is not cancelled.
        assert_eq!(c.decide(at(15), 50, true), WINDOW_CLOSED);
        assert_eq!(c.start(at(15)), (CycleId(1), None));
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn overflow_and_prompt_start_at_once_and_cancel_the_window_timer() {
        let mut c = clock(LINGER, 4);
        open_window(&mut c, at(10), 7);
        assert_eq!(c.decide(at(11), 100, true), START, "overflow");
        assert_eq!(c.start(at(11)), (CycleId(1), Some(TimerId(7))));

        open_window(&mut c, at(12), 8);
        c.saw(CycleId(2));
        assert_eq!(c.decide(at(13), 1, true), START, "prompt");
        assert_eq!(c.start(at(13)), (CycleId(2), Some(TimerId(8))));
        // Prompted no further, and the window went with the cycle.
        assert_eq!(c.decide(at(13), 0, false), Decision::Wait);
    }

    #[test]
    fn the_window_reopens_after_a_start_and_waits_for_a_free_slot() {
        let mut c = clock(LINGER, 1);
        open_window(&mut c, at(0), 1);
        assert_eq!(c.decide(at(5), 1, true), WINDOW_CLOSED);
        c.start(at(5));
        // Pipeline full: requests wait without a window or a timer.
        assert_eq!(c.decide(at(6), 1, true), Decision::Wait);
        c.committed(CycleId(1));
        // The commit frees the slot; the waiting batch opens a new window.
        open_window(&mut c, at(8), 2);
        assert_eq!(c.decide(at(12), 1, true), Decision::Wait);
        assert_eq!(c.decide(at(13), 1, true), WINDOW_CLOSED);
        assert_eq!(c.start(at(13)), (CycleId(2), None));
    }

    #[test]
    fn a_snapshot_takeover_resets_the_clock() {
        let mut c = clock(LINGER, 4);
        c.start(at(0));
        c.start(at(0));
        open_window(&mut c, at(1), 3);
        c.saw(CycleId(9));
        assert_eq!(c.resume_at(CycleId(40)), Some(TimerId(3)));
        assert_eq!(
            (c.last_started(), c.last_committed()),
            (CycleId(40), CycleId(40))
        );
        assert_eq!(c.in_flight(), 0);
        // Neither the old prompt nor the old window survives.
        assert_eq!(c.decide(at(2), 0, false), Decision::Wait);
        assert_eq!(c.decide(at(2), 1, true), Decision::OpenWindow(LINGER));
        // Its own proposal for 42 is in the state it took: started.
        c.resume_started(CycleId(42));
        c.resume_started(CycleId(41));
        assert_eq!((c.last_started(), c.in_flight()), (CycleId(42), 2));
        assert_eq!(c.resume_at(CycleId(50)), None);
    }
}
