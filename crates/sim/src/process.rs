//! The sans-IO process abstraction.
//!
//! Every protocol participant — Canopus pnodes, Raft peers, EPaxos replicas,
//! Zab leaders/followers, and workload clients — is a [`Process`]: a state
//! machine that reacts to message deliveries and timer firings through a
//! [`Context`]. Processes never perform IO themselves; they only record
//! intents (sends, timers) and the [`Work`] they did, which the driving
//! runtime executes and prices.
//! The same process code therefore runs unchanged on the deterministic
//! simulator and on the TCP driver in `canopus-net`.

use std::any::Any;
use std::fmt;

use rand::rngs::SmallRng;

use crate::time::{Dur, Time};

/// Identifier of a process within one simulation or deployment.
///
/// Ids are dense indices assigned in creation order, which lets topologies
/// and routing tables use plain vectors.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for vector addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Handle for a pending timer, used for cancellation.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// A timer delivery. `token` is the protocol-chosen discriminator passed to
/// [`Context::set_timer`]; `id` identifies this particular arming.
#[derive(Copy, Clone, Debug)]
pub struct Timer {
    /// Unique id of this arming (matches the [`TimerId`] returned by `set_timer`).
    pub id: TimerId,
    /// Protocol-defined discriminator (e.g. "election timeout", "cycle tick").
    pub token: u64,
}

/// Payloads that can traverse the simulated or real network.
///
/// `wire_size` must return the number of bytes the message would occupy on
/// the wire; the network fabric uses it for serialization-delay and
/// bandwidth-queueing computations, so it should track the real encoded size
/// reasonably closely.
pub trait Payload: fmt::Debug + 'static {
    /// Encoded size of this message in bytes.
    fn wire_size(&self) -> usize;

    /// Short static label for this message's variant (e.g. `"raft"`,
    /// `"propose"`), used by the observability layer to account messages
    /// and bytes by type. The default lumps everything under `"msg"`;
    /// protocol enums override it per variant.
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// What a handler did, in the units the simulator's CPU model prices.
///
/// A handler reports its work with [`Context::work`] and never says how
/// long it took: the simulator prices the counts from the one table in
/// [`crate::NodeConfig`], and the live transport ignores them. One report
/// counts at most 4096 units (65 536 for ZooKeeper's leader kinds): a
/// request standing for more ops is accounted as that many. Every kind
/// but [`Work::Propose`] has its own row in the table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Work {
    /// A protocol message handled: reported once per message by every
    /// protocol node's `on_message`, by no client, on no timer or start.
    Message,
    /// A client request ingested, per op it stands for.
    Request,
    /// A client aggregate parsed: once per aggregate, whatever it stands
    /// for (its ops are [`Work::BatchedOp`]s).
    Aggregate,
    /// An op inside a parsed aggregate.
    BatchedOp,
    /// A read served from local state, per op.
    Read,
    /// A committed op applied to the store, per op or per key.
    Apply,
    /// A proposal batch persisted to the log.
    Persist,
    /// A leader disseminating one request to one destination, per op it
    /// stands for: ZooKeeper's per-request proposal/INFORM stream.
    Disseminate,
    /// A leader sequencing one request into its log, per op it stands
    /// for: ZooKeeper proposes each request individually. Counted and
    /// priced as a [`Work::Request`]; only its cap differs.
    Propose,
}

impl Work {
    /// Rows of the price table: one per kind, except `Propose` (the last
    /// kind), which shares `Request`'s.
    pub(crate) const ROWS: usize = Work::Propose as usize;

    /// The row of the price table this kind is counted and priced in.
    pub(crate) const fn row(self) -> usize {
        match self {
            Work::Propose => Work::Request as usize,
            kind => kind as usize,
        }
    }

    /// The most units one report of this kind counts.
    const fn cap(self) -> u64 {
        match self {
            Work::Propose | Work::Disseminate => 65_536,
            _ => 4096,
        }
    }
}

/// Units of [`Work`] reported during one callback, one count per row of
/// the price table.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts(pub(crate) [u64; Work::ROWS]);

/// One effect recorded by a process during a callback.
///
/// Effects are consumed by whichever runtime drives the process — the
/// simulator kernel, or an external driver such as the TCP transport in
/// `canopus-net` — via [`Context::detached`] / [`Context::into_effects`].
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Arm a one-shot timer.
    SetTimer {
        /// Timer handle (for cancellation).
        id: TimerId,
        /// Delay from the callback's `now`.
        after: Dur,
        /// Protocol-defined discriminator.
        token: u64,
    },
    /// Cancel a previously armed timer.
    CancelTimer {
        /// The handle returned by `set_timer`.
        id: TimerId,
    },
}

/// The interface a process uses to interact with the world.
///
/// All methods record intents; the runtime applies them after the callback
/// returns. This keeps callbacks pure with respect to the event queue and
/// makes executions reproducible.
pub struct Context<'a, M> {
    pub(crate) now: Time,
    pub(crate) self_id: NodeId,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) effects: Vec<Effect<M>>,
    pub(crate) work: WorkCounts,
    pub(crate) next_timer_id: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// Builds the context of one callback, for the simulator kernel or an
    /// external driver such as the TCP transport. `next_timer_id` must be
    /// a counter owned by the driver so timer ids stay unique per node
    /// lifetime.
    pub fn detached(
        now: Time,
        self_id: NodeId,
        rng: &'a mut SmallRng,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Context {
            now,
            self_id,
            rng,
            effects: Vec::new(),
            work: WorkCounts::default(),
            next_timer_id,
        }
    }

    /// Consumes the context, yielding the recorded effects and the work
    /// counts (which only the simulator prices).
    pub fn into_effects(self) -> (Vec<Effect<M>>, WorkCounts) {
        (self.effects, self.work)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the process being called.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Deterministic per-simulation random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to `to`. Delivery time (or loss) is decided by the fabric.
    /// Sending to self is allowed and goes through the fabric like any other
    /// message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arms a one-shot timer `after` from now carrying `token`.
    pub fn set_timer(&mut self, after: Dur, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer { id, after, token });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Reports `n` units of `kind` of work done by this callback (at most
    /// the kind's cap per report). Counts in: the simulator turns this
    /// callback's counts into nanoseconds of CPU from its price table, so
    /// later deliveries queue behind them, which is how CPU saturation
    /// manifests in experiments; the live transport ignores them.
    pub fn work(&mut self, kind: Work, n: u64) {
        self.work.0[kind.row()] += n.min(kind.cap());
    }
}

/// A deterministic, event-driven protocol participant.
///
/// Implementations must be deterministic given the callback sequence and the
/// RNG: no wall-clock reads, no iteration over hash maps where the order
/// escapes into messages (use `BTreeMap`/vectors for anything
/// order-sensitive).
pub trait Process<M>: Any + Send {
    /// Called once when the node starts (or restarts after a crash).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when an armed timer fires.
    fn on_timer(&mut self, _timer: Timer, _ctx: &mut Context<'_, M>) {}

    /// Upcasts for harness-side state inspection.
    fn as_any(&self) -> &dyn Any;

    /// Upcasts for harness-side state mutation.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Consumes the boxed process for owned downcasting (a stopped live
    /// node loop hands its final state back this way).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Implements the [`Process::as_any`]/[`Process::as_any_mut`] boilerplate.
#[macro_export]
macro_rules! impl_process_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
        fn into_any(self: ::std::boxed::Box<Self>) -> ::std::boxed::Box<dyn ::std::any::Any> {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_records_effects_in_order() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next_timer = 0;
        let mut ctx: Context<'_, u32> = Context {
            now: Time::ZERO,
            self_id: NodeId(3),
            rng: &mut rng,
            effects: Vec::new(),
            work: WorkCounts::default(),
            next_timer_id: &mut next_timer,
        };
        ctx.send(NodeId(1), 42);
        let t = ctx.set_timer(Dur::millis(5), 7);
        ctx.cancel_timer(t);

        assert_eq!(ctx.effects.len(), 3);
        match &ctx.effects[0] {
            Effect::Send { to, msg } => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(*msg, 42);
            }
            other => panic!("unexpected effect {other:?}"),
        }
        match &ctx.effects[1] {
            Effect::SetTimer { id, after, token } => {
                assert_eq!(*id, t);
                assert_eq!(*after, Dur::millis(5));
                assert_eq!(*token, 7);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next_timer = 0;
        let mut ctx: Context<'_, u32> = Context {
            now: Time::ZERO,
            self_id: NodeId(0),
            rng: &mut rng,
            effects: Vec::new(),
            work: WorkCounts::default(),
            next_timer_id: &mut next_timer,
        };
        let a = ctx.set_timer(Dur::millis(1), 0);
        let b = ctx.set_timer(Dur::millis(1), 0);
        assert_ne!(a, b);
    }
}
