//! The nemesis's fault table on the real TCP transport.
//!
//! [`FaultRules`] is the thread-safe shell around the one
//! [`LinkFaults`] table (`canopus_sim::fault`): every node loop
//! ([`crate::tcp::run_node_obs`]) of a cluster shares one instance, and
//! whoever drives the faults — `canopus_sim::fault::run_plan` through
//! `canopus-harness`'s `LiveCluster`, or a test — changes the table with
//! [`FaultRules::update`]. What an action does to a link is the table's to
//! know; the shell adds what sharing it between threads takes: a lock, a
//! seeded RNG for the loss rolls, and a fast path.
//!
//! # Hot-path cost
//!
//! The no-fault path is one relaxed atomic load: [`FaultRules::should_drop`]
//! and [`FaultRules::should_drop_link`] first check an `active` flag that is
//! only set while the table holds a fault, and return immediately when it
//! is clear. The mutex-guarded table is touched only while faults are
//! actually in force, so installing the rules object on a production
//! transport costs nothing measurable when no nemesis is running (the
//! `live_cluster` stress example runs with rules installed).
//!
//! # When the table is asked
//!
//! A node loop asks twice per message where the simulator's fabric asks
//! once: the full verdict (blocked links, then one loss roll) as it sends,
//! and blocked links again as it receives — a message already in a socket
//! buffer when a cut or a crash lands is still dropped, which the simulator
//! gets from its kernel. Loss is rolled on the send path only, to keep the
//! configured rate from compounding.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use canopus_sim::fault::LinkFaults;
use canopus_sim::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shared runtime fault table for a live TCP cluster. All methods take
/// `&self`; hand one instance (via `Arc`) to every node in the cluster.
#[derive(Debug)]
pub struct FaultRules {
    /// Fast-path guard: `true` iff the table holds at least one fault.
    active: AtomicBool,
    table: Mutex<LinkFaults>,
    rng: Mutex<SmallRng>,
}

impl FaultRules {
    /// An empty rule table; `seed` drives the loss coin-flips.
    pub fn new(seed: u64) -> Self {
        FaultRules {
            active: AtomicBool::new(false),
            table: Mutex::new(LinkFaults::default()),
            rng: Mutex::new(SmallRng::seed_from_u64(seed ^ 0x4641554c54)),
        }
    }

    /// Changes the table under its lock, then republishes whether any
    /// fault is installed.
    pub fn update(&self, f: impl FnOnce(&mut LinkFaults)) {
        let mut table = self.table.lock().expect("fault rules poisoned");
        f(&mut table);
        self.active.store(!table.is_clear(), Ordering::Release);
    }

    /// Marks `node` crash-stopped (or clears the mark): while set, every
    /// live peer drops traffic to and from it, modelling the loss of
    /// everything in flight (its own loop is not running).
    pub fn set_crashed(&self, node: NodeId, crashed: bool) {
        self.update(|table| table.set_down(node, crashed));
    }

    /// Deterministic drop verdict for `from → to`: cuts, isolation, and
    /// crash marks, but no probabilistic loss. Safe to consult on both the
    /// send and the receive path.
    #[inline]
    pub fn should_drop_link(&self, from: NodeId, to: NodeId) -> bool {
        if !self.active.load(Ordering::Relaxed) {
            return false;
        }
        self.table
            .lock()
            .expect("fault rules poisoned")
            .blocks(from, to)
    }

    /// Full drop verdict for `from → to`, including probabilistic loss.
    /// Consult exactly once per message (the send path), or the loss rate
    /// compounds.
    #[inline]
    pub fn should_drop(&self, from: NodeId, to: NodeId) -> bool {
        if !self.active.load(Ordering::Relaxed) {
            return false;
        }
        let p = {
            let table = self.table.lock().expect("fault rules poisoned");
            if table.blocks(from, to) {
                return true;
            }
            table.loss_from(from)
        };
        p > 0.0 && self.rng.lock().expect("fault rng poisoned").gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_sim::fault::FaultAction;
    use std::sync::mpsc;
    use std::time::Duration;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Half the messages lost, and `2 ↔ 3` cut.
    fn lossy_with_a_cut() -> FaultRules {
        let rules = FaultRules::new(0xC0FFEE);
        rules.update(|table| {
            table.apply(&FaultAction::SetLoss(0.5));
            table.apply(&FaultAction::Cut(vec![n(2)], vec![n(3)]));
        });
        rules
    }

    #[test]
    fn same_seed_same_sequence_identical_decisions() {
        // Whenever and on whichever thread verdicts are taken, they must
        // depend only on (seed, query sequence). Replay the same
        // interrogation twice and compare.
        let interrogate = |rules: &FaultRules| -> Vec<bool> {
            (0..200u32)
                .map(|round| rules.should_drop(n(round % 5), n((round + 1) % 5)))
                .collect()
        };
        let a = interrogate(&lossy_with_a_cut());
        let b = interrogate(&lossy_with_a_cut());
        assert_eq!(a, b, "same seed + same sequence => same verdicts");
        assert!(a.iter().any(|&v| v), "loss at 0.5 must drop something");
        assert!(!a.iter().all(|&v| v), "loss at 0.5 must pass something");
    }

    #[test]
    fn link_verdicts_do_not_depend_on_who_asks_or_when() {
        // Deterministic rules (cuts/isolation/crash marks) must not
        // depend on query order at all — node loops interleave them
        // arbitrarily across threads.
        let rules = lossy_with_a_cut();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rules = &rules;
                scope.spawn(move || {
                    for i in 0..500 {
                        let cut = rules.should_drop_link(n(2), n(3));
                        assert!(cut, "cut link stays cut (thread {t}, iter {i})");
                        let open = rules.should_drop_link(n(0), n(1));
                        assert!(!open, "open link stays open (thread {t}, iter {i})");
                    }
                });
            }
        });
    }

    /// With nothing installed a verdict is one relaxed load: it returns
    /// while another thread — this one — holds the table's mutex.
    #[test]
    fn verdicts_with_no_rule_installed_never_take_the_lock() {
        let rules = &FaultRules::new(1);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            rules.update(|_| {
                scope.spawn(move || {
                    let verdicts = (
                        rules.should_drop(n(0), n(1)),
                        rules.should_drop_link(n(1), n(0)),
                    );
                    tx.send(verdicts).expect("the test waits for them");
                });
                let verdicts = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a verdict with nothing installed waited for the lock");
                assert_eq!(verdicts, (false, false));
            });
        });
    }

    #[test]
    fn the_fast_path_closes_while_a_fault_is_installed_and_reopens() {
        let rules = FaultRules::new(1);
        rules.set_crashed(n(2), true);
        rules.update(|table| table.apply(&FaultAction::HealAll));
        assert!(
            rules.should_drop_link(n(0), n(2)),
            "down marks outlive heals"
        );
        assert!(rules.should_drop(n(2), n(0)));
        rules.set_crashed(n(2), false);
        assert!(!rules.active.load(Ordering::Relaxed));
        assert!(!rules.should_drop(n(2), n(0)));
    }
}
