//! Massive client-session multiplexing for live-scale runs.
//!
//! The paper's evaluation talks about *clients* in the hundreds; a live
//! 100+ node cluster on one machine wants *hundreds of thousands* of
//! concurrent sessions, which rules out any thread-per-client or
//! process-per-client model. [`SessionMux`] hosts an arbitrary number of
//! closed-loop sessions inside one [`Process`]: each session is ~32 bytes
//! of state, ops are scheduled on a coarse tick wheel (a `BTreeMap`
//! bucketed by tick, so an idle mux does no per-session work), and every
//! reply is routed back by op id alone — session `s` issues ops
//! `((s + 1) << 32) | seq`, so the wire carries no extra routing state.
//!
//! The harness has a second client multiplexer, `ClientMux`
//! (`crates/harness/src/mux.rs`), and the two stay apart on purpose: that
//! one hosts a few tens of full `Process` sub-clients, each with its own
//! timers and a recorded operation history for the chaos verdict, while
//! this one is a tick wheel over 10⁵ fixed-size session records that keeps
//! no history at all. A shared type would have to branch on which of the
//! two it is serving at every step.

use bytes::Bytes;
use canopus_kv::{ClientRequest, Op};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Time, Timer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use crate::client::ProtocolMsg;
use crate::latency::LatencyRecorder;

/// Bits of op id reserved for a session's own op counter.
const SEQ_BITS: u32 = 32;

/// Parameters for a [`SessionMux`].
#[derive(Clone, Debug)]
pub struct SessionMuxConfig {
    /// Number of concurrent closed-loop sessions hosted.
    pub sessions: usize,
    /// Targets, assigned round-robin: session `s` talks to
    /// `targets[s % targets.len()]` for its whole life.
    pub targets: Vec<NodeId>,
    /// Pause between a session completing (or timing out) an op and
    /// issuing its next one.
    pub think_time: Dur,
    /// Give up on an op after this long and issue the next one.
    pub op_timeout: Dur,
    /// Scheduling granularity: due ops are batched per tick.
    pub tick: Dur,
    /// Fraction of ops that are writes.
    pub write_ratio: f64,
    /// Value size for writes.
    pub value_bytes: usize,
    /// Distinct keys each session cycles through.
    pub keys_per_session: u64,
    /// First key this mux uses — give co-hosted muxes disjoint bases.
    pub key_base: u64,
    /// Sessions issue their first op spread uniformly over this window,
    /// so a hundred thousand sessions do not arrive as one burst.
    pub ramp: Dur,
    /// Stop issuing at this instant (sessions quiesce; replies still
    /// complete). The default never stops.
    pub stop_at: Time,
    /// Latency samples before this time are discarded.
    pub warmup: Dur,
}

impl Default for SessionMuxConfig {
    fn default() -> Self {
        SessionMuxConfig {
            sessions: 1000,
            targets: vec![NodeId(0)],
            think_time: Dur::millis(50),
            op_timeout: Dur::secs(2),
            tick: Dur::millis(5),
            write_ratio: 0.5,
            value_bytes: 8,
            keys_per_session: 1,
            key_base: 1,
            ramp: Dur::millis(500),
            stop_at: Time::from_nanos(u64::MAX),
            warmup: Dur::ZERO,
        }
    }
}

/// One hosted session: closed loop, at most one op outstanding.
#[derive(Clone, Copy, Default)]
struct Session {
    /// Ops issued so far; the current outstanding op (if any) is `seq`.
    seq: u32,
    outstanding: bool,
    issued_at: Time,
    is_write: bool,
    completed: u32,
}

/// A due event on the tick wheel.
enum Due {
    /// Session may issue its next op.
    Issue(u32),
    /// The session's op `seq` times out if still outstanding.
    Expire(u32, u32),
}

/// Hundreds of thousands of closed-loop client sessions in one process.
pub struct SessionMux<M: ProtocolMsg> {
    cfg: SessionMuxConfig,
    rng: SmallRng,
    sessions: Vec<Session>,
    wheel: BTreeMap<u64, Vec<Due>>,
    /// Ops issued across all sessions.
    pub issued: u64,
    /// Ops completed (a reply arrived before the timeout).
    pub completed: u64,
    /// Ops abandoned at the timeout.
    pub timeouts: u64,
    /// Replies that arrived after their op had already timed out.
    pub late: u64,
    /// Completion latency across all sessions (post-warmup).
    pub latency: LatencyRecorder,
    outstanding_now: u64,
    peak_outstanding: u64,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: ProtocolMsg> SessionMux<M> {
    /// Creates the mux; sessions are inert until the process starts.
    pub fn new(cfg: SessionMuxConfig, seed: u64) -> Self {
        assert!(!cfg.targets.is_empty(), "at least one target");
        assert!(
            cfg.sessions < (1usize << 31),
            "session index must fit the op-id namespace"
        );
        let sessions = vec![Session::default(); cfg.sessions];
        SessionMux {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            sessions,
            wheel: BTreeMap::new(),
            issued: 0,
            completed: 0,
            timeouts: 0,
            late: 0,
            latency: LatencyRecorder::default(),
            outstanding_now: 0,
            peak_outstanding: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Sessions hosted.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Ops currently outstanding.
    pub fn outstanding(&self) -> u64 {
        self.outstanding_now
    }

    /// High-water mark of concurrently outstanding ops.
    pub fn peak_outstanding(&self) -> u64 {
        self.peak_outstanding
    }

    /// Sessions that completed at least one op — the "sustained" count a
    /// scale run reports.
    pub fn sessions_served(&self) -> u64 {
        self.sessions.iter().filter(|s| s.completed > 0).count() as u64
    }

    fn tick_index(&self, at: Time) -> u64 {
        at.as_nanos() / self.cfg.tick.as_nanos().max(1)
    }

    fn schedule(&mut self, at: Time, due: Due) {
        let idx = self.tick_index(at);
        self.wheel.entry(idx).or_default().push(due);
    }

    fn issue(&mut self, s: u32, ctx: &mut Context<'_, M>) {
        let now = ctx.now();
        let cfg_keys = self.cfg.keys_per_session.max(1);
        let is_write = self.rng.gen::<f64>() < self.cfg.write_ratio;
        let sess = &mut self.sessions[s as usize];
        sess.seq += 1;
        sess.outstanding = true;
        sess.issued_at = now;
        sess.is_write = is_write;
        let seq = sess.seq;
        let op_id = ((s as u64 + 1) << SEQ_BITS) | seq as u64;
        let key = self.cfg.key_base + s as u64 * cfg_keys + (seq as u64 % cfg_keys);
        let op = if is_write {
            Op::Put {
                key,
                value: Bytes::from(op_id.to_le_bytes().to_vec()),
            }
        } else {
            Op::Get { key }
        };
        let target = self.cfg.targets[s as usize % self.cfg.targets.len()];
        ctx.send(
            target,
            M::request(ClientRequest {
                client: ctx.id(),
                op_id,
                op,
            }),
        );
        self.issued += 1;
        self.outstanding_now += 1;
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding_now);
        // `max(tick)` keeps a degenerate zero timeout from expiring in the
        // bucket currently being drained.
        let expire_at = now + self.cfg.op_timeout.max(self.cfg.tick);
        self.schedule(expire_at, Due::Expire(s, seq));
    }
}

impl<M: ProtocolMsg + 'static> Process<M> for SessionMux<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let n = self.sessions.len().max(1) as u64;
        let ramp = self.cfg.ramp.as_nanos();
        for s in 0..self.sessions.len() as u32 {
            let phase = Dur::nanos(ramp * s as u64 / n);
            let at = ctx.now() + phase;
            self.schedule(at, Due::Issue(s));
        }
        ctx.set_timer(self.cfg.tick, 0);
    }

    fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, M>) {
        let now = ctx.now();
        let horizon = self.tick_index(now);
        while let Some(entry) = self.wheel.first_entry() {
            if *entry.key() > horizon {
                break;
            }
            let batch = entry.remove();
            for due in batch {
                match due {
                    Due::Issue(s) => {
                        if now >= self.cfg.stop_at {
                            continue; // session quiesces
                        }
                        self.issue(s, ctx);
                    }
                    Due::Expire(s, seq) => {
                        let sess = &mut self.sessions[s as usize];
                        if sess.outstanding && sess.seq == seq {
                            sess.outstanding = false;
                            self.timeouts += 1;
                            self.outstanding_now -= 1;
                            let at = now + self.cfg.think_time;
                            self.schedule(at, Due::Issue(s));
                        }
                    }
                }
            }
        }
        ctx.set_timer(self.cfg.tick, 0);
    }

    fn on_message(&mut self, _from: NodeId, msg: M, ctx: &mut Context<'_, M>) {
        let Some(reply) = msg.reply() else { return };
        let Some(s) = (reply.op_id >> SEQ_BITS)
            .checked_sub(1)
            .filter(|&s| (s as usize) < self.sessions.len())
        else {
            return;
        };
        let seq = (reply.op_id & ((1u64 << SEQ_BITS) - 1)) as u32;
        let weight = reply.weight;
        let now = ctx.now();
        let sess = &mut self.sessions[s as usize];
        if !sess.outstanding || sess.seq != seq {
            self.late += 1;
            return;
        }
        sess.outstanding = false;
        sess.completed += 1;
        self.completed += 1;
        self.outstanding_now -= 1;
        let lat = now.saturating_since(sess.issued_at);
        if now >= Time::ZERO + self.cfg.warmup {
            self.latency.record(lat, weight, now, &mut self.rng);
        }
        let at = now + self.cfg.think_time;
        self.schedule(at, Due::Issue(s as u32));
    }

    impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus::{CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape};
    use canopus_sim::{Simulation, UniformFabric};

    fn canopus_trio(seed: u64) -> Simulation<CanopusMsg, UniformFabric> {
        let table = EmulationTable::new(
            LotShape::flat(1),
            vec![vec![NodeId(0), NodeId(1), NodeId(2)]],
        );
        let mut sim = Simulation::new(UniformFabric::new(Dur::micros(50)), seed);
        for i in 0..3u32 {
            sim.add_node(Box::new(CanopusNode::new(
                NodeId(i),
                table.clone(),
                CanopusConfig::default(),
                seed,
            )));
        }
        sim
    }

    #[test]
    fn thousands_of_sessions_complete_on_one_process() {
        let mut sim = canopus_trio(11);
        let cfg = SessionMuxConfig {
            sessions: 2000,
            targets: vec![NodeId(0), NodeId(1), NodeId(2)],
            think_time: Dur::millis(20),
            op_timeout: Dur::millis(500),
            tick: Dur::millis(2),
            ramp: Dur::millis(100),
            ..SessionMuxConfig::default()
        };
        let c = sim.add_node(Box::new(SessionMux::<CanopusMsg>::new(cfg, 5)));
        sim.run_for(Dur::millis(400));
        let mux = sim.node::<SessionMux<CanopusMsg>>(c);
        assert!(mux.completed > 4000, "ops completed: {}", mux.completed);
        assert_eq!(
            mux.sessions_served(),
            2000,
            "every session completed at least one op"
        );
        assert_eq!(
            mux.issued,
            mux.completed + mux.timeouts + mux.outstanding(),
            "op accounting balances"
        );
        assert!(mux.latency.median().is_some());
    }

    #[test]
    fn sessions_quiesce_at_stop() {
        let mut sim = canopus_trio(13);
        let cfg = SessionMuxConfig {
            sessions: 100,
            targets: vec![NodeId(0)],
            think_time: Dur::millis(5),
            ramp: Dur::millis(10),
            stop_at: Time::ZERO + Dur::millis(100),
            ..SessionMuxConfig::default()
        };
        let c = sim.add_node(Box::new(SessionMux::<CanopusMsg>::new(cfg, 5)));
        sim.run_for(Dur::millis(150));
        let issued_at_stop = sim.node::<SessionMux<CanopusMsg>>(c).issued;
        sim.run_for(Dur::millis(200));
        let mux = sim.node::<SessionMux<CanopusMsg>>(c);
        assert_eq!(mux.issued, issued_at_stop, "no issues after stop_at");
        assert_eq!(mux.outstanding(), 0, "everything drained");
    }
}
