//! The nemesis: one fault model — crash-stop nodes, lossy links,
//! partitions (§3 of the paper) — for every cluster, simulated or live.
//!
//! Three pieces, none of which knows what it runs against:
//!
//! * a [`FaultPlan`] is a time-ordered schedule of [`FaultEvent`]s —
//!   partitions, crashes, restarts, loss injection, node isolation, link
//!   flapping — built with combinators (`at`, `then`, `repeat`) and
//!   expanded into a concrete [`FaultAction`] timeline;
//! * [`LinkFaults`] is the table of what those actions have done to the
//!   links so far (cuts, isolation, down marks, loss rates), asked by
//!   whatever carries the messages;
//! * [`run_plan`] walks a plan's timeline against a [`NemesisTarget`] —
//!   anything with a clock, a `LinkFaults` table, and nodes it can crash
//!   and restart.
//!
//! The simulator and the live transport differ only in who holds the table
//! and when it is asked. A [`Simulation`](crate::Simulation) routes through
//! a [`FaultyFabric`](crate::fabric::FaultyFabric), which asks once, as a
//! message is sent; whether a node is alive is the kernel's to know, so no
//! down mark is ever set. A live node loop asks `canopus_net::FaultRules`
//! (the same table behind a mutex) at send and again at receive, and a
//! crashed node is a stopped thread plus a down mark.
//!
//! Determinism in the simulator: the plan is data, and `run_plan` steps
//! the kernel to each action's exact virtual instant — so the same plan +
//! seed always yields the same execution (guarded by the trace-hash pins
//! in the chaos suites).

use std::collections::{BTreeMap, BTreeSet};

use crate::process::NodeId;
use crate::time::{Dur, Time};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Cut every link with one endpoint in `a` and the other in `b`.
    CutGroups {
        /// One side of the partition.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
    /// Remove every installed partition and isolation, and zero all loss.
    HealAll,
    /// Crash-stop a node.
    Crash(NodeId),
    /// Restart a crashed node with a fresh (or recovered) process.
    Restart(NodeId),
    /// Set the global message-loss probability.
    SetLoss(f64),
    /// Set an asymmetric loss rate on one node's outbound traffic.
    SetNodeOutLoss {
        /// The impaired sender.
        node: NodeId,
        /// Drop probability for its outbound messages.
        loss: f64,
    },
    /// Cut a node off from everyone (both directions).
    IsolateNode(NodeId),
    /// Toggle the `a`↔`b` cut every `period`, starting cut, until the next
    /// `HealAll` in the plan (or the run's horizon).
    FlapLink {
        /// One side of the flapping link.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// Toggle period.
        period: Dur,
    },
}

/// A concrete action on the timeline after flap expansion.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Install a group cut.
    Cut(Vec<NodeId>, Vec<NodeId>),
    /// Remove a group cut.
    Heal(Vec<NodeId>, Vec<NodeId>),
    /// Remove all partitions/isolations and zero loss.
    HealAll,
    /// Crash-stop a node.
    Crash(NodeId),
    /// Restart a crashed node.
    Restart(NodeId),
    /// Set the global loss probability.
    SetLoss(f64),
    /// Set one node's outbound loss probability.
    SetNodeOutLoss(NodeId, f64),
    /// Isolate a node.
    Isolate(NodeId),
}

/// A time-ordered schedule of fault events. Offsets are relative
/// to the instant the plan is handed to [`run_plan`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(Dur, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds `event` at absolute offset `at` from the plan start.
    pub fn at(mut self, at: Dur, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Adds `event` `gap` after the previously added event (or at `gap`
    /// for the first event).
    pub fn then(self, gap: Dur, event: FaultEvent) -> Self {
        let base = self.events.last().map(|(d, _)| *d).unwrap_or(Dur::ZERO);
        self.at(base + gap, event)
    }

    /// Repeats the current schedule `times` additional times, each copy
    /// shifted by a further `period`. The original occupies repetition 0.
    pub fn repeat(mut self, times: usize, period: Dur) -> Self {
        let base: Vec<(Dur, FaultEvent)> = self.events.clone();
        for i in 1..=times {
            let shift = Dur::nanos(period.as_nanos() * i as u64);
            for (d, ev) in &base {
                self.events.push((*d + shift, ev.clone()));
            }
        }
        self
    }

    /// Expands the plan into a concrete, time-sorted action timeline
    /// anchored at `start`, bounded by `horizon`. `FlapLink` unrolls into
    /// alternating cut/heal actions until the next `HealAll` after it (or
    /// the horizon).
    pub fn timeline(&self, start: Time, horizon: Dur) -> Vec<(Time, FaultAction)> {
        let end = start + horizon;
        let mut out: Vec<(Time, u64, FaultAction)> = Vec::new();
        let mut seq = 0u64;
        let push = |out: &mut Vec<(Time, u64, FaultAction)>, seq: &mut u64, t, a| {
            out.push((t, *seq, a));
            *seq += 1;
        };
        for (i, (offset, event)) in self.events.iter().enumerate() {
            let t = start + *offset;
            if t > end {
                continue;
            }
            match event {
                FaultEvent::CutGroups { a, b } => {
                    push(
                        &mut out,
                        &mut seq,
                        t,
                        FaultAction::Cut(a.clone(), b.clone()),
                    );
                }
                FaultEvent::HealAll => push(&mut out, &mut seq, t, FaultAction::HealAll),
                FaultEvent::Crash(n) => push(&mut out, &mut seq, t, FaultAction::Crash(*n)),
                FaultEvent::Restart(n) => push(&mut out, &mut seq, t, FaultAction::Restart(*n)),
                FaultEvent::SetLoss(p) => push(&mut out, &mut seq, t, FaultAction::SetLoss(*p)),
                FaultEvent::SetNodeOutLoss { node, loss } => {
                    push(
                        &mut out,
                        &mut seq,
                        t,
                        FaultAction::SetNodeOutLoss(*node, *loss),
                    );
                }
                FaultEvent::IsolateNode(n) => {
                    push(&mut out, &mut seq, t, FaultAction::Isolate(*n));
                }
                FaultEvent::FlapLink { a, b, period } => {
                    assert!(!period.is_zero(), "flap period must be positive");
                    // Flap until the next HealAll scheduled after this event.
                    let stop = self
                        .events
                        .iter()
                        .enumerate()
                        .filter(|(j, (d, ev))| {
                            matches!(ev, FaultEvent::HealAll)
                                && (*d > *offset || (*d == *offset && *j > i))
                        })
                        .map(|(_, (d, _))| start + *d)
                        .min()
                        .unwrap_or(end)
                        .min(end);
                    let mut cut = true;
                    let mut when = t;
                    while when < stop {
                        let action = if cut {
                            FaultAction::Cut(a.clone(), b.clone())
                        } else {
                            FaultAction::Heal(a.clone(), b.clone())
                        };
                        push(&mut out, &mut seq, when, action);
                        cut = !cut;
                        when += *period;
                    }
                    // Leave the link healed when the flap window closes
                    // without a terminating HealAll of its own.
                    if !cut {
                        push(
                            &mut out,
                            &mut seq,
                            stop,
                            FaultAction::Heal(a.clone(), b.clone()),
                        );
                    }
                }
            }
        }
        out.sort_by_key(|(t, s, _)| (*t, *s));
        out.into_iter().map(|(t, _, a)| (t, a)).collect()
    }
}

/// What the installed faults do to every link: the one table both the
/// simulator's [`FaultyFabric`](crate::fabric::FaultyFabric) and the live
/// transport's `canopus_net::FaultRules` consult, and the only code that
/// knows what a [`FaultAction`] does to a link.
///
/// Plain data: no clock, no RNG, no locking. Its holder rolls the loss
/// dice ([`LinkFaults::loss_from`] names the probability) and decides
/// *when* to ask — the simulator at send time, a live node loop at send
/// and at receive.
#[derive(Clone, Debug, Default)]
pub struct LinkFaults {
    /// Cut links, both directions, keyed `(low id, high id)`.
    cut: BTreeSet<(NodeId, NodeId)>,
    /// Nodes cut off from everyone.
    isolated: BTreeSet<NodeId>,
    /// Nodes marked down: like isolation, but not healed by `HealAll`.
    down: BTreeSet<NodeId>,
    /// Global loss probability.
    loss: f64,
    /// Per-sender loss probabilities, each replacing the global one.
    out_loss: BTreeMap<NodeId, f64>,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

fn probability(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "loss must be a probability");
    p
}

impl LinkFaults {
    /// Applies one action. `Crash` and `Restart` change no link: whether a
    /// node runs is its host's business (the simulation kernel's, or a
    /// live cluster's threads plus [`LinkFaults::set_down`]).
    pub fn apply(&mut self, action: &FaultAction) {
        match action {
            FaultAction::Cut(a, b) => {
                for &x in a {
                    for &y in b {
                        self.cut.insert(pair(x, y));
                    }
                }
            }
            FaultAction::Heal(a, b) => {
                for &x in a {
                    for &y in b {
                        self.cut.remove(&pair(x, y));
                    }
                }
            }
            FaultAction::HealAll => {
                self.cut.clear();
                self.isolated.clear();
                self.loss = 0.0;
                self.out_loss.clear();
            }
            FaultAction::SetLoss(p) => self.loss = probability(*p),
            FaultAction::SetNodeOutLoss(node, p) => {
                self.out_loss.insert(*node, probability(*p));
            }
            FaultAction::Isolate(node) => {
                self.isolated.insert(*node);
            }
            FaultAction::Crash(_) | FaultAction::Restart(_) => {}
        }
    }

    /// Marks `node` down (or clears the mark): while set, everything to
    /// and from it is blocked, and `HealAll` does not lift it. A live
    /// cluster marks a node whose loop it has stopped, so peers lose what
    /// was in flight; the simulator's kernel does that itself.
    pub fn set_down(&mut self, node: NodeId, down: bool) {
        if down {
            self.down.insert(node);
        } else {
            self.down.remove(&node);
        }
    }

    /// Whether a message `from → to` is blocked outright: an endpoint is
    /// isolated or down, or the link is cut.
    pub fn blocks(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.down.contains(&from)
            || self.down.contains(&to)
            || self.cut.contains(&pair(from, to))
    }

    /// The probability with which a message sent by `from` is lost: the
    /// sender's own rate where one is set (0.0 shields it), else the
    /// global rate.
    pub fn loss_from(&self, from: NodeId) -> f64 {
        self.out_loss.get(&from).copied().unwrap_or(self.loss)
    }

    /// Whether no fault is installed (nothing blocks, nothing is lost).
    pub fn is_clear(&self) -> bool {
        self.cut.is_empty()
            && self.isolated.is_empty()
            && self.down.is_empty()
            && self.loss == 0.0
            && self.out_loss.is_empty()
    }
}

/// What [`run_plan`] drives: a cluster with a clock, a [`LinkFaults`]
/// table, and nodes it can stop and start. `canopus-harness` implements it
/// for the simulated `Cluster` (steps the kernel) and for `LiveCluster`
/// (sleeps, stops and respawns node threads).
pub trait NemesisTarget {
    /// The target's clock.
    fn now(&self) -> Time;
    /// Runs (or waits) until the clock reads `at`; returns at once when it
    /// already does.
    fn advance_to(&mut self, at: Time);
    /// Lets `update` change the fault table the target's links consult.
    fn link_faults(&mut self, update: impl FnOnce(&mut LinkFaults));
    /// Crash-stops `node`; `false` when it was already down.
    fn crash(&mut self, node: NodeId) -> bool;
    /// Restarts `node` by the target's recovery policy; nothing when it is
    /// up.
    fn restart(&mut self, node: NodeId);
}

/// What one [`run_plan`] did.
#[derive(Debug, Default)]
pub struct NemesisRun {
    /// Every action, stamped with the target's clock as it was applied.
    pub applied: Vec<(Time, FaultAction)>,
    /// Nodes a `Crash` found alive and took down.
    pub ever_crashed: BTreeSet<NodeId>,
}

/// Replays `plan` against `target` over the next `horizon` of its clock:
/// advances to each instant of the [`FaultPlan::timeline`], applies
/// everything scheduled for it in plan order, and finally advances to the
/// horizon.
pub fn run_plan<T: NemesisTarget>(target: &mut T, plan: &FaultPlan, horizon: Dur) -> NemesisRun {
    let start = target.now();
    let mut run = NemesisRun::default();
    let mut instant = None;
    for (at, action) in plan.timeline(start, horizon) {
        // One advance per instant: actions that share one are applied back
        // to back, before the target runs anything they caused.
        if instant != Some(at) {
            target.advance_to(at);
            instant = Some(at);
        }
        match &action {
            FaultAction::Crash(node) => {
                if target.crash(*node) {
                    run.ever_crashed.insert(*node);
                }
            }
            FaultAction::Restart(node) => target.restart(*node),
            link => target.link_faults(|faults| faults.apply(link)),
        }
        run.applied.push((target.now(), action));
    }
    target.advance_to(start + horizon);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn combinators_build_ordered_timelines() {
        let plan = FaultPlan::new()
            .at(Dur::millis(10), FaultEvent::Crash(n(1)))
            .then(Dur::millis(5), FaultEvent::Restart(n(1)))
            .at(Dur::millis(2), FaultEvent::SetLoss(0.1));
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        assert_eq!(tl.len(), 3);
        assert_eq!(
            tl[0],
            (Time::ZERO + Dur::millis(2), FaultAction::SetLoss(0.1))
        );
        assert_eq!(
            tl[1],
            (Time::ZERO + Dur::millis(10), FaultAction::Crash(n(1)))
        );
        assert_eq!(
            tl[2],
            (Time::ZERO + Dur::millis(15), FaultAction::Restart(n(1)))
        );
    }

    #[test]
    fn repeat_shifts_whole_schedule() {
        let plan = FaultPlan::new()
            .at(Dur::millis(1), FaultEvent::Crash(n(0)))
            .then(Dur::millis(1), FaultEvent::Restart(n(0)))
            .repeat(2, Dur::millis(10));
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        assert_eq!(tl.len(), 6);
        assert_eq!(tl[2].0, Time::ZERO + Dur::millis(11));
        assert_eq!(tl[5].0, Time::ZERO + Dur::millis(22));
    }

    #[test]
    fn flap_expands_until_heal_all() {
        let plan = FaultPlan::new()
            .at(
                Dur::millis(0),
                FaultEvent::FlapLink {
                    a: vec![n(0)],
                    b: vec![n(1)],
                    period: Dur::millis(10),
                },
            )
            .at(Dur::millis(35), FaultEvent::HealAll);
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        // Toggles at 0 (cut), 10 (heal), 20 (cut), 30 (heal), then HealAll.
        let cuts = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Cut(..)))
            .count();
        let heals = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Heal(..)))
            .count();
        assert_eq!(cuts, 2);
        assert_eq!(heals, 2);
        assert!(matches!(tl.last().unwrap().1, FaultAction::HealAll));
    }

    #[test]
    fn repeat_period_expansion_orders_copies_and_preserves_ties() {
        // Two events per repetition; with a period shorter than the
        // schedule span the copies interleave, and the sort must order by
        // time first, insertion sequence second.
        let plan = FaultPlan::new()
            .at(Dur::millis(0), FaultEvent::Crash(n(0)))
            .then(Dur::millis(8), FaultEvent::Restart(n(0)))
            .repeat(1, Dur::millis(4));
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        let times: Vec<u64> = tl.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![0, 4, 8, 12], "copies interleave time-sorted");
        assert_eq!(tl[1].1, FaultAction::Crash(n(0)), "copy's crash at 4ms");
        assert_eq!(tl[2].1, FaultAction::Restart(n(0)));

        // Degenerate period 0: every copy collides in time; insertion
        // order (repetition-major) must break the ties deterministically.
        let plan = FaultPlan::new()
            .at(Dur::millis(1), FaultEvent::Crash(n(1)))
            .then(Dur::millis(1), FaultEvent::Restart(n(1)))
            .repeat(2, Dur::ZERO);
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        let kinds: Vec<bool> = tl
            .iter()
            .map(|(_, a)| matches!(a, FaultAction::Crash(_)))
            .collect();
        assert_eq!(kinds, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn flap_boundary_at_horizon_is_exclusive_and_leaves_link_healed() {
        // Toggles at 0 (cut), 10 (heal), 20 (cut); the toggle that would
        // land exactly on the 30 ms horizon must NOT fire — the window is
        // half-open — and the dangling cut is closed by a forced heal at
        // the horizon itself.
        let plan = FaultPlan::new().at(
            Dur::millis(0),
            FaultEvent::FlapLink {
                a: vec![n(0)],
                b: vec![n(1)],
                period: Dur::millis(10),
            },
        );
        let tl = plan.timeline(Time::ZERO, Dur::millis(30));
        let times: Vec<u64> = tl.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![0, 10, 20, 30]);
        assert!(matches!(tl[2].1, FaultAction::Cut(..)));
        assert!(
            matches!(tl[3].1, FaultAction::Heal(..)),
            "forced heal exactly at the horizon"
        );
        // A flap scheduled exactly at the horizon produces no toggles at
        // all (when < stop is false immediately) and needs no closing heal.
        let plan = FaultPlan::new().at(
            Dur::millis(30),
            FaultEvent::FlapLink {
                a: vec![n(0)],
                b: vec![n(1)],
                period: Dur::millis(10),
            },
        );
        assert!(plan.timeline(Time::ZERO, Dur::millis(30)).is_empty());
    }

    /// Every [`FaultAction`] against `blocks` / `loss_from`, one row each.
    #[test]
    fn link_faults_table() {
        use FaultAction::*;
        struct Case {
            name: &'static str,
            /// Nodes marked down before the actions run.
            down: &'static [u32],
            actions: Vec<FaultAction>,
            blocked: &'static [(u32, u32)],
            open: &'static [(u32, u32)],
            loss: &'static [(u32, f64)],
            clear: bool,
        }
        let ns = |ids: &[u32]| ids.iter().copied().map(NodeId).collect::<Vec<_>>();
        let cases = [
            Case {
                name: "nothing installed",
                down: &[],
                actions: vec![],
                blocked: &[],
                open: &[(0, 1), (1, 0)],
                loss: &[(0, 0.0)],
                clear: true,
            },
            Case {
                name: "a cut is the cross product, both directions",
                down: &[],
                actions: vec![Cut(ns(&[0, 1]), ns(&[2]))],
                blocked: &[(0, 2), (2, 0), (1, 2), (2, 1)],
                open: &[(0, 1), (2, 3)],
                loss: &[(0, 0.0)],
                clear: false,
            },
            Case {
                name: "a heal lifts exactly the pairs it names, in either order",
                down: &[],
                actions: vec![Cut(ns(&[0, 1]), ns(&[2])), Heal(ns(&[2]), ns(&[0]))],
                blocked: &[(1, 2), (2, 1)],
                open: &[(0, 2), (2, 0)],
                loss: &[],
                clear: false,
            },
            Case {
                name: "isolation cuts a node from everyone",
                down: &[],
                actions: vec![Isolate(n(5))],
                blocked: &[(5, 0), (0, 5)],
                open: &[(0, 1)],
                loss: &[(5, 0.0)],
                clear: false,
            },
            Case {
                name: "heal-all lifts cuts, isolation and every loss rate",
                down: &[],
                actions: vec![
                    Cut(ns(&[0]), ns(&[1])),
                    Isolate(n(5)),
                    SetLoss(0.3),
                    SetNodeOutLoss(n(4), 0.9),
                    HealAll,
                ],
                blocked: &[],
                open: &[(0, 1), (5, 0), (0, 5)],
                loss: &[(0, 0.0), (4, 0.0)],
                clear: true,
            },
            Case {
                name: "heal-all keeps down marks",
                down: &[2],
                actions: vec![HealAll],
                blocked: &[(0, 2), (2, 0)],
                open: &[(0, 1)],
                loss: &[(2, 0.0)],
                clear: false,
            },
            Case {
                name: "global loss applies to every sender and blocks nothing",
                down: &[],
                actions: vec![SetLoss(0.25)],
                blocked: &[],
                open: &[(0, 1)],
                loss: &[(0, 0.25), (7, 0.25)],
                clear: false,
            },
            Case {
                name: "a sender's rate applies to that sender only",
                down: &[],
                actions: vec![SetNodeOutLoss(n(4), 1.0)],
                blocked: &[],
                open: &[(4, 0)],
                loss: &[(4, 1.0), (0, 0.0)],
                clear: false,
            },
            Case {
                name: "a sender's rate of 0.0 shields it from global loss",
                down: &[],
                actions: vec![SetLoss(1.0), SetNodeOutLoss(n(4), 0.0)],
                blocked: &[],
                open: &[],
                loss: &[(4, 0.0), (0, 1.0)],
                clear: false,
            },
            Case {
                name: "crash and restart change no link",
                down: &[],
                actions: vec![Crash(n(1)), Restart(n(1))],
                blocked: &[],
                open: &[(0, 1), (1, 0)],
                loss: &[(1, 0.0)],
                clear: true,
            },
        ];
        for case in cases {
            let mut faults = LinkFaults::default();
            for &node in case.down {
                faults.set_down(n(node), true);
            }
            for action in &case.actions {
                faults.apply(action);
            }
            for &(from, to) in case.blocked {
                assert!(faults.blocks(n(from), n(to)), "{}: {from}→{to}", case.name);
            }
            for &(from, to) in case.open {
                assert!(!faults.blocks(n(from), n(to)), "{}: {from}→{to}", case.name);
            }
            for &(from, p) in case.loss {
                assert_eq!(faults.loss_from(n(from)), p, "{}: from {from}", case.name);
            }
            assert_eq!(faults.is_clear(), case.clear, "{}", case.name);
            for &node in case.down {
                faults.set_down(n(node), false);
                assert!(!faults.blocks(n(node), n(0)), "{}: mark lifted", case.name);
            }
        }
    }

    /// A target that records what [`run_plan`] asks of it. Like a wall
    /// clock, it never wakes exactly on time: every advance overshoots by
    /// a millisecond.
    #[derive(Default)]
    struct Recorder {
        clock: Time,
        faults: LinkFaults,
        down: BTreeSet<NodeId>,
        log: Vec<String>,
    }

    impl NemesisTarget for Recorder {
        fn now(&self) -> Time {
            self.clock
        }
        fn advance_to(&mut self, at: Time) {
            self.log.push(format!("advance {}", at.as_millis()));
            self.clock = at + Dur::millis(1);
        }
        fn link_faults(&mut self, update: impl FnOnce(&mut LinkFaults)) {
            self.log.push("links".to_string());
            update(&mut self.faults);
        }
        fn crash(&mut self, node: NodeId) -> bool {
            self.log.push(format!("crash {}", node.0));
            self.down.insert(node)
        }
        fn restart(&mut self, node: NodeId) {
            self.log.push(format!("restart {}", node.0));
            self.down.remove(&node);
        }
    }

    #[test]
    fn run_plan_applies_in_order_up_to_the_horizon_and_keeps_the_books() {
        let plan = FaultPlan::new()
            .at(Dur::millis(40), FaultEvent::HealAll)
            .at(Dur::millis(10), FaultEvent::Crash(n(2)))
            // Same instant as the crash: one advance, plan order.
            .at(Dur::millis(10), FaultEvent::SetLoss(0.5))
            // Node 9 is down already: asked, recorded, not counted.
            .at(Dur::millis(20), FaultEvent::Crash(n(9)))
            .at(Dur::millis(30), FaultEvent::Restart(n(2)))
            // Past the horizon: never applied.
            .at(Dur::millis(90), FaultEvent::IsolateNode(n(1)));
        let mut target = Recorder {
            clock: Time::ZERO + Dur::millis(100),
            down: BTreeSet::from([n(9)]),
            ..Recorder::default()
        };
        let run = run_plan(&mut target, &plan, Dur::millis(50));

        assert_eq!(
            target.log,
            [
                "advance 110",
                "crash 2",
                "links",
                "advance 120",
                "crash 9",
                "advance 130",
                "restart 2",
                "advance 140",
                "links",
                "advance 150",
            ]
        );
        // Stamped with the target's clock when applied, not the schedule's.
        let at = |ms| Time::ZERO + Dur::millis(ms);
        assert_eq!(
            run.applied,
            [
                (at(111), FaultAction::Crash(n(2))),
                (at(111), FaultAction::SetLoss(0.5)),
                (at(121), FaultAction::Crash(n(9))),
                (at(131), FaultAction::Restart(n(2))),
                (at(141), FaultAction::HealAll),
            ]
        );
        assert_eq!(run.ever_crashed, BTreeSet::from([n(2)]));
        assert!(target.faults.is_clear(), "loss installed, then healed");
        assert_eq!(target.down, BTreeSet::from([n(9)]));
    }

    #[test]
    fn flap_without_heal_ends_healed_at_horizon() {
        let plan = FaultPlan::new().at(
            Dur::millis(0),
            FaultEvent::FlapLink {
                a: vec![n(0)],
                b: vec![n(1)],
                period: Dur::millis(10),
            },
        );
        let tl = plan.timeline(Time::ZERO, Dur::millis(25));
        // cut@0, heal@10, cut@20, forced heal@25.
        assert!(matches!(tl.last().unwrap().1, FaultAction::Heal(..)));
        let cuts = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Cut(..)))
            .count();
        let heals = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Heal(..)))
            .count();
        assert_eq!(cuts, heals);
    }
}
