//! The open-loop client reproducing the paper's workload model
//! (§8.1/§8.2).
//!
//! [`OpenLoopClient`] draws Poisson arrivals at a fixed offered rate,
//! independent of response times (the paper's load-generation model:
//! "clients send requests to nodes according to a Poisson process at a
//! given inter-arrival rate"). One process stands for all clients attached
//! to one protocol node; arrivals within each 1 ms tick are aggregated into
//! synthetic batches so multi-million-request-per-second sweeps stay
//! tractable (see `canopus-kv`'s synthetic ops). It is generic over the
//! protocol via [`Protocol`]'s request and reply methods.
//!
//! The closed-loop client, which issues real `Put`/`Get` operations one at
//! a time and records a history the chaos verdict checks, is
//! [`crate::HistoryClient`].

use canopus_kv::{ClientRequest, Op};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Time, Timer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use crate::latency::LatencyRecorder;
use crate::protocol::Protocol;
use crate::spec::LoadSpec;

/// Arrival aggregation tick.
const TICK: Dur = Dur::millis(1);

/// Bytes per represented request (16-byte kv pairs in the paper).
const OP_BYTES: u16 = 16;

/// Aggregated open-loop Poisson client bound to one protocol node.
pub struct OpenLoopClient<M: Protocol> {
    /// The load: its write ratio, warmup and per-request cap
    /// (`client_max_batch`: 0 aggregates a whole tick's arrivals into one
    /// op; a positive value splits each tick's draws into chunks of at
    /// most that many requests, each tracked as its own wire-level
    /// request; 1 disables aggregation).
    load: LoadSpec,
    /// This client's share of `load.total_rate`, requests per second.
    rate_per_sec: f64,
    target: NodeId,
    rng: SmallRng,
    next_op_id: u64,
    outstanding: BTreeMap<u64, (Time, bool)>,
    /// Completion stats for writes.
    pub writes: LatencyRecorder,
    /// Completion stats for reads.
    pub reads: LatencyRecorder,
    /// Requests issued (weighted), including warmup.
    pub offered: u64,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: Protocol> OpenLoopClient<M> {
    /// Creates a client targeting `target` that offers `rate_per_sec`, its
    /// share of `load`'s total rate.
    pub fn new(target: NodeId, load: &LoadSpec, rate_per_sec: f64, seed: u64) -> Self {
        OpenLoopClient {
            load: load.clone(),
            rate_per_sec,
            target,
            rng: SmallRng::seed_from_u64(seed),
            next_op_id: 0,
            outstanding: BTreeMap::new(),
            writes: LatencyRecorder::default(),
            reads: LatencyRecorder::default(),
            offered: 0,
            _marker: std::marker::PhantomData,
        }
    }

    fn issue_tick(&mut self, writes: u64, reads: u64, ctx: &mut Context<'_, M>) {
        self.send_batch(writes, true, ctx);
        self.send_batch(reads, false, ctx);
    }

    fn send_batch(&mut self, count: u64, is_write: bool, ctx: &mut Context<'_, M>) {
        if count == 0 {
            return;
        }
        if self.load.client_max_batch > 0 {
            let chunk = u64::from(self.load.client_max_batch);
            let mut left = count;
            while left > 0 {
                let n = left.min(chunk);
                left -= n;
                self.send_one(n, is_write, ctx);
            }
        } else {
            self.send_one(count, is_write, ctx);
        }
    }

    fn send_one(&mut self, count: u64, is_write: bool, ctx: &mut Context<'_, M>) {
        self.next_op_id += 1;
        let op_id = self.next_op_id;
        let op = if is_write {
            Op::SyntheticWrite {
                count: count as u32,
                op_bytes: OP_BYTES,
            }
        } else {
            Op::SyntheticRead {
                count: count as u32,
            }
        };
        self.offered += count;
        self.outstanding.insert(op_id, (ctx.now(), is_write));
        ctx.send(
            self.target,
            M::request(ClientRequest {
                client: ctx.id(),
                op_id,
                op,
            }),
        );
    }
}

impl<M: Protocol> Process<M> for OpenLoopClient<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        // Stagger tick phase across clients to avoid lockstep arrivals.
        let phase = Dur::nanos(self.rng.gen_range(0..TICK.as_nanos()));
        ctx.set_timer(phase, 0);
    }

    fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, M>) {
        let dt = TICK.as_secs_f64();
        let write_mean = self.rate_per_sec * self.load.write_ratio * dt;
        let read_mean = self.rate_per_sec * (1.0 - self.load.write_ratio) * dt;
        let nw = poisson(&mut self.rng, write_mean);
        let nr = poisson(&mut self.rng, read_mean);
        self.issue_tick(nw, nr, ctx);
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, _from: NodeId, msg: M, ctx: &mut Context<'_, M>) {
        let Some(reply) = msg.reply() else { return };
        let Some((sent, is_write)) = self.outstanding.remove(&reply.op_id) else {
            return;
        };
        if ctx.now() < Time::ZERO + self.load.warmup {
            return;
        }
        let lat = ctx.now().saturating_since(sent);
        let recorder = if is_write {
            &mut self.writes
        } else {
            &mut self.reads
        };
        recorder.record(lat, reply.weight, &mut self.rng);
    }

    impl_process_any!();
}

/// Draws a Poisson-distributed count with the given mean: the paper's
/// clients "send requests to nodes according to a Poisson process at a
/// given inter-arrival rate" (§8.1).
///
/// Uses Knuth's product method for small means and a normal approximation
/// (rounded, clamped at zero) for large ones — the standard approach when
/// exactness beyond the fourth moment is irrelevant, as in open-loop
/// arrival generation.
fn poisson(rng: &mut SmallRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        // Box-Muller normal approximation N(mean, mean).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = mean + z * mean.sqrt();
        sample.round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus::{CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape};
    use canopus_sim::{Simulation, UniformFabric};

    fn canopus_pair(seed: u64) -> (Simulation<CanopusMsg, UniformFabric>, Vec<NodeId>) {
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
        (sim, vec![NodeId(0), NodeId(1), NodeId(2)])
    }

    #[test]
    fn open_loop_drives_canopus_and_measures() {
        let (mut sim, _) = canopus_pair(1);
        let mut load = LoadSpec::new(20_000.0).with_writes(0.5);
        load.warmup = Dur::millis(50);
        let client = OpenLoopClient::<CanopusMsg>::new(NodeId(0), &load, load.total_rate, 99);
        let c = sim.add_node(Box::new(client));
        sim.run_for(Dur::millis(400));
        let client = sim.node::<OpenLoopClient<CanopusMsg>>(c);
        assert!(client.writes.completed() > 1000, "writes flowed");
        assert!(client.reads.completed() > 1000, "reads flowed");
        // Offered load ~20k/s over 0.4s = ~8000 requests.
        assert!(
            (6000..10_000).contains(&client.offered),
            "{}",
            client.offered
        );
        assert!(client.writes.median().is_some());
    }

    #[test]
    fn open_loop_max_batch_splits_ticks() {
        let (mut sim, _) = canopus_pair(3);
        let mut load = LoadSpec::new(20_000.0)
            .with_writes(0.5)
            .with_client_batch(4);
        load.warmup = Dur::millis(50);
        let client = OpenLoopClient::<CanopusMsg>::new(NodeId(0), &load, load.total_rate, 99);
        let c = sim.add_node(Box::new(client));
        sim.run_for(Dur::millis(300));
        let client = sim.node::<OpenLoopClient<CanopusMsg>>(c);
        // At 20k/s a 1 ms tick draws ~20 arrivals; chunks of ≤4 mean many
        // more distinct tracked requests than ticks, and none heavier than
        // the cap.
        let completed = client.writes.completed() + client.reads.completed();
        assert!(completed > 1000, "ops flowed");
        // Every wire-level request carries at most `client_max_batch`
        // arrivals, so
        // the distinct-request count is at least offered/4.
        assert!(
            client.next_op_id >= client.offered / 4,
            "chunking bounded per-request weight: {} ops for {} offered",
            client.next_op_id,
            client.offered
        );
    }

    #[test]
    fn open_loop_numbers_ops_in_sequence() {
        let sent_ids = || {
            let load = LoadSpec::new(10_000.0);
            let mut client = OpenLoopClient::<CanopusMsg>::new(NodeId(0), &load, 10_000.0, 9);
            let mut rng = SmallRng::seed_from_u64(0);
            let mut seq = 0;
            let mut ctx = Context::detached(Time::ZERO, NodeId(9), &mut rng, &mut seq);
            client.issue_tick(8, 4, &mut ctx);
            let (effects, _) = ctx.into_effects();
            let ids: Vec<u64> = effects
                .into_iter()
                .map(|effect| match effect {
                    canopus_sim::Effect::Send {
                        msg: CanopusMsg::Request(req),
                        ..
                    } => {
                        assert_eq!(req.client, NodeId(9), "issued under the real id");
                        req.op_id
                    }
                    other => panic!("unexpected effect {other:?}"),
                })
                .collect();
            assert_eq!(client.offered, 12);
            ids
        };
        // One aggregated write and one aggregated read, numbered in turn.
        assert_eq!(sent_ids(), [1, 2]);
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    #[test]
    fn poisson_mean_small() {
        let mut g = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut g, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_mean_large() {
        let mut g = rng();
        let n = 5_000;
        let total: u64 = (0..n).map(|_| poisson(&mut g, 500.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 500.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn poisson_zero_and_negative() {
        let mut g = rng();
        assert_eq!(poisson(&mut g, 0.0), 0);
        assert_eq!(poisson(&mut g, -5.0), 0);
    }
}
