//! Multiplexed client sessions: many [`HistoryClient`]s on one transport
//! node.
//!
//! The first live clusters ran one TCP node — listener, event loop,
//! thread — *per client*. That model caps a machine at
//! a few hundred clients long before the protocol does. [`ClientMux`]
//! hosts every history client of a live cluster inside a single
//! [`Process`]: each session keeps its own virtual [`NodeId`] (so write
//! tags and the chaos verdict are unchanged) and is driven through a
//! detached [`Context`], while the mux owns the one real transport context
//! and fans effects in and out:
//!
//! * **requests** — a session's `Send` effects are forwarded verbatim; the
//!   peer map points every virtual client id at the mux's listener, so
//!   protocol nodes reply over the one multiplexed connection;
//! * **replies** — routed back by op id alone: session `i` issues ops from
//!   base `(i + 1) << 48` ([`session_op_base`]), so `op_id >> 48` names
//!   the session with no per-message bookkeeping;
//! * **timers** — each session arming is re-armed on the real context and
//!   remembered in a forward map (real [`TimerId`] → session delivery), so
//!   a firing is replayed to the right session with its original id and
//!   token; cancellations follow a reverse map.
//!
//! The mux is pure state-machine plumbing (no sockets, no threads), so it
//! runs — and is tested — under detached contexts directly.

use std::collections::HashMap;

use canopus_sim::{Context, Effect, NodeId, Process, Timer, TimerId};
use canopus_workload::ProtocolMsg;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::history::{HistoryClient, HistoryConfig};

/// Bits reserved for the per-session op counter. 48 bits of ops per
/// session and 65535 sessions per mux — both far beyond any run.
const SESSION_SHIFT: u32 = 48;

/// The op-id base for session `index`: a disjoint `1 << 48`-wide id space
/// per session, starting at 1 so base zero keeps meaning "no namespacing".
pub fn session_op_base(index: usize) -> u64 {
    ((index + 1) as u64) << SESSION_SHIFT
}

/// The session index that owns `op_id`, if it falls in a session's space.
fn session_of(op_id: u64, sessions: usize) -> Option<usize> {
    (op_id >> SESSION_SHIFT)
        .checked_sub(1)
        .map(|i| i as usize)
        .filter(|&i| i < sessions)
}

/// All of a live cluster's history clients, multiplexed onto one
/// transport node.
pub struct ClientMux<M: ProtocolMsg> {
    /// Virtual id of session 0; session `i` is `NodeId(first_id + i)`.
    first_id: u32,
    sessions: Vec<HistoryClient<M>>,
    rng: SmallRng,
    /// Shared detached-context timer counter, so session timer ids stay
    /// unique across the whole mux lifetime.
    timer_seq: u64,
    /// Real arming → `(session, delivery)` to replay on fire.
    fwd: HashMap<TimerId, (usize, Timer)>,
    /// Session arming → real arming, for cancellation.
    rev: HashMap<TimerId, TimerId>,
}

impl<M: ProtocolMsg + 'static> ClientMux<M> {
    /// A mux hosting `n` history clients: session `i` has virtual id
    /// `NodeId(first_id + i)`, targets `NodeId(i)`, and issues op ids from
    /// [`session_op_base`]`(i)`.
    pub fn new(n: usize, first_id: u32, hcfg: &HistoryConfig, seed: u64) -> Self {
        let sessions = (0..n)
            .map(|i| {
                let cfg = HistoryConfig {
                    op_id_base: session_op_base(i),
                    ..hcfg.clone()
                };
                HistoryClient::new(i, n, NodeId(i as u32), cfg)
            })
            .collect();
        ClientMux {
            first_id,
            sessions,
            rng: SmallRng::seed_from_u64(seed),
            timer_seq: 0,
            fwd: HashMap::new(),
            rev: HashMap::new(),
        }
    }

    /// The hosted sessions, in index order.
    pub fn sessions(&self) -> &[HistoryClient<M>] {
        &self.sessions
    }

    /// Unpacks the mux into its sessions (for the post-run verdict).
    pub fn into_sessions(self) -> Vec<HistoryClient<M>> {
        self.sessions
    }

    /// Runs one session callback under a detached context carrying the
    /// session's virtual id, then replays its effects onto the real
    /// context: sends pass through, timers are re-armed and mapped.
    fn drive(
        &mut self,
        i: usize,
        ctx: &mut Context<'_, M>,
        f: impl FnOnce(&mut HistoryClient<M>, &mut Context<'_, M>),
    ) {
        let id = NodeId(self.first_id + i as u32);
        let mut sub = Context::detached(ctx.now(), id, &mut self.rng, &mut self.timer_seq);
        f(&mut self.sessions[i], &mut sub);
        // Clients report no work, and the live transport prices none.
        let (effects, _) = sub.into_effects();
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => ctx.send(to, msg),
                Effect::SetTimer { id, after, token } => {
                    let real = ctx.set_timer(after, token);
                    self.fwd.insert(real, (i, Timer { id, token }));
                    self.rev.insert(id, real);
                }
                Effect::CancelTimer { id } => {
                    if let Some(real) = self.rev.remove(&id) {
                        self.fwd.remove(&real);
                        ctx.cancel_timer(real);
                    }
                }
            }
        }
    }
}

impl<M: ProtocolMsg + 'static> Process<M> for ClientMux<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        for i in 0..self.sessions.len() {
            self.drive(i, ctx, |s, sub| s.on_start(sub));
        }
    }

    fn on_timer(&mut self, t: Timer, ctx: &mut Context<'_, M>) {
        let Some((i, delivery)) = self.fwd.remove(&t.id) else {
            return;
        };
        self.rev.remove(&delivery.id);
        self.drive(i, ctx, |s, sub| s.on_timer(delivery, sub));
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>) {
        let Some(reply) = msg.reply() else { return };
        let Some(i) = session_of(reply.op_id, self.sessions.len()) else {
            return;
        };
        self.drive(i, ctx, |s, sub| s.on_message(from, msg, sub));
    }

    canopus_sim::impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus::CanopusMsg;
    use canopus_kv::{ClientReply, OpResult};
    use canopus_sim::{Dur, Time};

    fn hcfg() -> HistoryConfig {
        HistoryConfig {
            probe_at: Time::ZERO + Dur::secs(3600),
            stop_at: Time::ZERO + Dur::secs(7200),
            ..HistoryConfig::default()
        }
    }

    /// Drives `mux` through one callback under a detached "real" context
    /// and returns the effects it produced.
    fn step(
        mux: &mut ClientMux<CanopusMsg>,
        now: Time,
        seq: &mut u64,
        f: impl FnOnce(&mut ClientMux<CanopusMsg>, &mut Context<'_, CanopusMsg>),
    ) -> Vec<Effect<CanopusMsg>> {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut ctx = Context::detached(now, NodeId(100), &mut rng, seq);
        f(mux, &mut ctx);
        ctx.into_effects().0
    }

    #[test]
    fn sessions_get_disjoint_op_id_spaces() {
        assert_eq!(session_op_base(0), 1 << 48);
        assert_eq!(session_op_base(1), 2 << 48);
        assert_eq!(session_of(session_op_base(0) + 5, 3), Some(0));
        assert_eq!(session_of(session_op_base(2) + 1, 3), Some(2));
        assert_eq!(session_of(session_op_base(3) + 1, 3), None);
        assert_eq!(session_of(17, 3), None); // un-namespaced id: no session
    }

    #[test]
    fn timers_route_back_to_the_arming_session() {
        let mut mux = ClientMux::<CanopusMsg>::new(3, 10, &hcfg(), 1);
        let mut seq = 0;
        let effects = step(&mut mux, Time::ZERO, &mut seq, |m, ctx| m.on_start(ctx));
        // Every session armed its phase timer on the real context.
        let armed: Vec<(TimerId, Dur, u64)> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::SetTimer { id, after, token } => Some((*id, *after, *token)),
                _ => None,
            })
            .collect();
        assert_eq!(armed.len(), 3);
        assert_eq!(mux.fwd.len(), 3);

        // Fire session 1's arming: exactly one session issues its first
        // op, and the request carries that session's virtual id and base.
        let (real, after, token) = armed[1];
        let now = Time::ZERO + after;
        let effects = step(&mut mux, now, &mut seq, |m, ctx| {
            m.on_timer(Timer { id: real, token }, ctx)
        });
        let sent: Vec<&CanopusMsg> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 1, "only the fired session acts");
        assert_eq!(mux.sessions[1].ops().len(), 1);
        assert_eq!(mux.sessions[0].ops().len(), 0);
        assert_eq!(mux.sessions[1].ops()[0].op_id, session_op_base(1) + 1);
        // A stale real id routes nowhere.
        let effects = step(&mut mux, now, &mut seq, |m, ctx| {
            m.on_timer(Timer { id: real, token }, ctx)
        });
        assert!(effects.is_empty());
    }

    #[test]
    fn replies_route_by_op_id_namespace() {
        let mut mux = ClientMux::<CanopusMsg>::new(2, 10, &hcfg(), 1);
        let mut seq = 0;
        let effects = step(&mut mux, Time::ZERO, &mut seq, |m, ctx| m.on_start(ctx));
        // Fire both phase timers so both sessions have an op in flight.
        for e in effects {
            if let Effect::SetTimer { id, after, token } = e {
                let now = Time::ZERO + after;
                step(&mut mux, now, &mut seq, |m, ctx| {
                    m.on_timer(Timer { id, token }, ctx)
                });
            }
        }
        assert_eq!(mux.sessions[0].ops().len(), 1);
        assert_eq!(mux.sessions[1].ops().len(), 1);

        let reply = |op_id| {
            CanopusMsg::Reply(ClientReply {
                op_id,
                weight: 1,
                result: OpResult::Written,
            })
        };
        let now = Time::ZERO + Dur::millis(1);
        // Session 1's reply completes session 1's op only.
        step(&mut mux, now, &mut seq, |m, ctx| {
            m.on_message(NodeId(1), reply(session_op_base(1) + 1), ctx)
        });
        assert!(mux.sessions[1].ops()[0].complete.is_some());
        assert!(mux.sessions[0].ops()[0].complete.is_none());
        // A reply outside any session's namespace is ignored.
        step(&mut mux, now, &mut seq, |m, ctx| {
            m.on_message(NodeId(1), reply(1), ctx)
        });
        assert!(mux.sessions[0].ops()[0].complete.is_none());
    }
}
