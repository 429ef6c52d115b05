//! Pluggable network fabrics.
//!
//! The simulation kernel asks its [`Fabric`] what happens to each message:
//! when it arrives, or that it is lost. `canopus-net` supplies the
//! topology-aware Clos/WAN fabric used by the experiments; this module
//! provides the uniform-latency fabric unit tests want, and
//! [`FaultyFabric`], the one decorator that puts the nemesis's
//! [`LinkFaults`] table in front of any inner fabric.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::fault::LinkFaults;
use crate::process::{NodeId, Payload};
use crate::time::{Dur, Time};

/// The fate of one message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Deliver at the given absolute time (must be ≥ the send time).
    Deliver(Time),
    /// Silently drop the message.
    Drop,
}

/// Decides delivery times for messages.
///
/// The fabric owns all link state (bandwidth occupancy, queues) and may
/// mutate it per message, which is how serialization delay and queueing
/// emerge in the topology-aware implementation.
pub trait Fabric<M: Payload> {
    /// Routes one message sent at `now` from `from` to `to`.
    fn route(&mut self, from: NodeId, to: NodeId, msg: &M, now: Time, rng: &mut SmallRng) -> Route;
}

/// Uniform-latency fabric: every message arrives exactly `latency` later.
/// Useful for protocol unit tests where topology is irrelevant.
#[derive(Debug, Clone)]
pub struct UniformFabric {
    latency: Dur,
}

impl UniformFabric {
    /// Creates a fabric with a fixed one-way `latency`.
    pub fn new(latency: Dur) -> Self {
        UniformFabric { latency }
    }
}

impl<M: Payload> Fabric<M> for UniformFabric {
    fn route(&mut self, _: NodeId, _: NodeId, _: &M, now: Time, _: &mut SmallRng) -> Route {
        Route::Deliver(now + self.latency)
    }
}

/// Decorator that asks a [`LinkFaults`] table about each message as it is
/// sent, and otherwise defers to the inner fabric: a blocked link (cut,
/// isolated endpoint) drops it; a sender with a positive loss rate costs
/// one draw from the kernel's RNG and drops it with that probability. With
/// nothing installed it draws nothing and is pass-through, so the event
/// schedule is the inner fabric's (§3.4 of the paper: under partition
/// Canopus must stall, not diverge — this is how tests partition it).
pub struct FaultyFabric<F> {
    inner: F,
    faults: LinkFaults,
}

impl<F> FaultyFabric<F> {
    /// Wraps `inner` with no fault installed.
    pub fn new(inner: F) -> Self {
        FaultyFabric {
            inner,
            faults: LinkFaults::default(),
        }
    }

    /// The fault table, to install or lift faults mid-run.
    pub fn faults_mut(&mut self) -> &mut LinkFaults {
        &mut self.faults
    }
}

impl<M: Payload, F: Fabric<M>> Fabric<M> for FaultyFabric<F> {
    fn route(&mut self, from: NodeId, to: NodeId, msg: &M, now: Time, rng: &mut SmallRng) -> Route {
        if self.faults.blocks(from, to) {
            return Route::Drop;
        }
        let p = self.faults.loss_from(from);
        if p > 0.0 && rng.gen::<f64>() < p {
            return Route::Drop;
        }
        self.inner.route(from, to, msg, now, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultAction;
    use rand::SeedableRng;

    impl Payload for u32 {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn uniform_fabric_adds_latency() {
        let mut f = UniformFabric::new(Dur::micros(50));
        let mut rng = SmallRng::seed_from_u64(0);
        let t = Time::ZERO + Dur::millis(1);
        assert_eq!(
            Fabric::<u32>::route(&mut f, NodeId(0), NodeId(1), &7, t, &mut rng),
            Route::Deliver(t + Dur::micros(50))
        );
    }

    fn faulty(actions: &[FaultAction]) -> FaultyFabric<UniformFabric> {
        let mut f = FaultyFabric::new(UniformFabric::new(Dur::ZERO));
        for action in actions {
            f.faults_mut().apply(action);
        }
        f
    }

    #[test]
    fn faulty_fabric_drops_roughly_at_the_loss_rate() {
        let mut f = faulty(&[FaultAction::SetLoss(0.25)]);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut dropped = 0;
        for _ in 0..10_000 {
            if Fabric::<u32>::route(&mut f, NodeId(0), NodeId(1), &7, Time::ZERO, &mut rng)
                == Route::Drop
            {
                dropped += 1;
            }
        }
        assert!((2000..3000).contains(&dropped), "dropped {dropped}/10000");
    }

    /// The kernel's RNG is drawn from exactly when the sender can lose the
    /// message: not with nothing installed, not for a shielded sender, not
    /// on a blocked link — the draw order every pinned trace depends on.
    #[test]
    fn faulty_fabric_draws_only_when_the_sender_can_lose() {
        let fresh = || SmallRng::seed_from_u64(9);
        let untouched = |rng: &mut SmallRng| rng.gen::<u64>() == fresh().gen::<u64>();
        let route = |f: &mut FaultyFabric<UniformFabric>, from, to, rng: &mut SmallRng| {
            Fabric::<u32>::route(f, NodeId(from), NodeId(to), &7, Time::ZERO, rng)
        };

        let mut rng = fresh();
        assert_ne!(route(&mut faulty(&[]), 0, 1, &mut rng), Route::Drop);
        assert!(untouched(&mut rng), "nothing installed");

        let mut f = faulty(&[
            FaultAction::SetLoss(0.5),
            FaultAction::SetNodeOutLoss(NodeId(4), 0.0),
            FaultAction::Cut(vec![NodeId(0)], vec![NodeId(1)]),
        ]);
        let mut rng = fresh();
        assert_ne!(route(&mut f, 4, 0, &mut rng), Route::Drop);
        assert!(untouched(&mut rng), "shielded sender");
        let mut rng = fresh();
        assert_eq!(route(&mut f, 1, 0, &mut rng), Route::Drop);
        assert!(untouched(&mut rng), "blocked link");
        let mut rng = fresh();
        route(&mut f, 0, 2, &mut rng);
        assert!(!untouched(&mut rng), "a lossy sender costs one draw");
    }
}
