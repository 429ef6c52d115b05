//! The EPaxos replica (Moraru et al., SOSP'13), as configured in the
//! Canopus paper's evaluation: request batching (5 ms or 2 ms windows),
//! thrifty off (PreAccepts go to every replica), and ~0 % command
//! interference for synthetic workloads.
//!
//! Every replica is the command leader for its own clients. A command goes
//! through PreAccept → (fast-path commit | Accept → slow-path commit) and
//! is then broadcast to all replicas — the topology-oblivious all-to-all
//! dissemination whose cost Figure 4 and Figure 6 of the Canopus paper
//! measure. Reads travel through the protocol like writes (§2.2 of the
//! paper: decentralized protocols "broadcast both read and write
//! requests").
//!
//! Scope: the failure-free path only. Explicit-prepare recovery is not
//! implemented because no benchmark or comparison in the paper exercises
//! EPaxos under replica failure (see DESIGN.md substitutions).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use canopus_kv::{ClientReply, ClientRequest, Key, KvStore, Op, OpResult};
use canopus_obs::{Counter, EventKind as ObsEvent, Gauge, NodeObs};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Time, Timer, Work};

use crate::graph::{execution_order, GraphNode};
use crate::msg::{CmdBatch, EpaxosMsg, InstanceId};

const BATCH_TIMER: u64 = 1;

/// EPaxos replica configuration.
#[derive(Clone, Debug)]
pub struct EpaxosConfig {
    /// Batching window: requests wait up to this long to form an instance
    /// (the paper evaluates 5 ms and 2 ms).
    pub batch_duration: Dur,
    /// Record per-key write order for consistency checks.
    pub record_log: bool,
}

impl Default for EpaxosConfig {
    fn default() -> Self {
        EpaxosConfig {
            batch_duration: Dur::millis(5),
            record_log: true,
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    PreAccepted,
    Accepted,
    Committed,
    Executed,
}

#[derive(Debug)]
struct Instance {
    batch: CmdBatch,
    seq: u64,
    deps: Vec<InstanceId>,
    status: Status,
    /// Leader-side phase bookkeeping.
    is_local: bool,
    preaccept_replies: u32,
    any_changed: bool,
    merged_seq: u64,
    merged_deps: BTreeSet<InstanceId>,
    accept_replies: u32,
}

/// Counters exposed by every replica.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EpaxosStats {
    /// Instances this replica led to commit.
    pub led_commits: u64,
    /// Fast-path commits among them.
    pub fast_path: u64,
    /// Slow-path commits among them.
    pub slow_path: u64,
    /// Client requests executed (weighted, all leaders).
    pub executed_weight: u64,
    /// Requests from this replica's own clients completed (weighted).
    pub own_completed: u64,
}

/// Observability handles, pre-registered so the hot path never does a
/// name lookup. All handles are inert when the hub is disabled.
struct EpaxosObs {
    hub: NodeObs,
    led_commits: Counter,
    fast_path: Counter,
    slow_path: Counter,
    exec_backlog: Gauge,
}

impl EpaxosObs {
    fn from_hub(hub: NodeObs) -> Self {
        EpaxosObs {
            led_commits: hub.metrics.counter("epaxos.led_commits"),
            fast_path: hub.metrics.counter("epaxos.fast_path"),
            slow_path: hub.metrics.counter("epaxos.slow_path"),
            exec_backlog: hub.metrics.gauge("epaxos.exec_backlog"),
            hub,
        }
    }
}

/// One EPaxos replica.
pub struct EpaxosNode {
    cfg: EpaxosConfig,
    me: NodeId,
    replicas: Vec<NodeId>,
    pending: VecDeque<ClientRequest>,
    next_slot: u64,
    instances: BTreeMap<InstanceId, Instance>,
    /// Interference tracking: per key, the latest instance and its seq.
    key_info: BTreeMap<Key, (InstanceId, u64)>,
    executed: BTreeSet<InstanceId>,
    /// Instances set `Committed` since `try_execute` last ran.
    newly_committed: Vec<InstanceId>,
    /// Committed-but-unexecuted instances awaiting dependencies.
    blocked: BTreeMap<InstanceId, GraphNode>,
    store: KvStore,
    stats: EpaxosStats,
    obs: EpaxosObs,
    /// Per-key write order with local execution times, for cross-replica
    /// and linearizability checks.
    write_log: BTreeMap<Key, Vec<(NodeId, u64, Time)>>,
}

impl EpaxosNode {
    /// Creates a replica. `replicas` must list the whole group, including
    /// `me`, identically at every member.
    pub fn new(me: NodeId, replicas: Vec<NodeId>, cfg: EpaxosConfig) -> Self {
        assert!(replicas.contains(&me));
        let mut replicas = replicas;
        replicas.sort_unstable();
        replicas.dedup();
        EpaxosNode {
            cfg,
            me,
            replicas,
            pending: VecDeque::new(),
            next_slot: 0,
            instances: BTreeMap::new(),
            key_info: BTreeMap::new(),
            executed: BTreeSet::new(),
            newly_committed: Vec::new(),
            blocked: BTreeMap::new(),
            store: KvStore::new(),
            stats: EpaxosStats::default(),
            obs: EpaxosObs::from_hub(NodeObs::disabled()),
            write_log: BTreeMap::new(),
        }
    }

    /// Attaches an observability hub (metrics registry + flight recorder).
    pub fn with_obs(mut self, hub: NodeObs) -> Self {
        self.obs = EpaxosObs::from_hub(hub);
        self
    }

    /// The node's observability hub.
    pub fn obs(&self) -> &NodeObs {
        &self.obs.hub
    }

    /// This replica's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Current counters.
    pub fn stats(&self) -> EpaxosStats {
        self.stats
    }

    /// The replicated store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Per-key write order with this replica's execution times, for
    /// consistency checks: EPaxos orders only interfering commands, so
    /// replicas agree per key, not over the whole sequence. The times differ
    /// across replicas (the chaos verdict uses the earliest as a version's
    /// visibility lower bound).
    pub fn write_log_timed(&self) -> &BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        &self.write_log
    }

    fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Fast-quorum size: `F + floor((F+1)/2)` for `N = 2F+1`.
    fn fast_quorum(&self) -> usize {
        let f = (self.n() - 1) / 2;
        f + f.div_ceil(2)
    }

    fn majority(&self) -> usize {
        self.n() / 2 + 1
    }

    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me;
        self.replicas.iter().copied().filter(move |&r| r != me)
    }

    /// Computes this replica's interference attributes for `batch` and
    /// updates its key tracking assuming the instance takes them.
    fn attributes_for(&mut self, inst: InstanceId, batch: &CmdBatch) -> (u64, Vec<InstanceId>) {
        let mut deps: BTreeSet<InstanceId> = BTreeSet::new();
        let mut seq = 1;
        let mut touched_for_write: Vec<Key> = Vec::new();
        for op in &batch.ops {
            let key = match &op.op {
                Op::Put { key, .. } => {
                    touched_for_write.push(*key);
                    Some(*key)
                }
                Op::Get { key } => Some(*key),
                Op::MultiPut { puts } => {
                    // Interferes on every touched key; fold all but the
                    // first into the write set here and let the shared
                    // path below handle the first.
                    for (k, _) in puts.iter().skip(1) {
                        touched_for_write.push(*k);
                    }
                    puts.first().map(|(k, _)| {
                        touched_for_write.push(*k);
                        *k
                    })
                }
                _ => None, // synthetic: zero interference, as in the paper
            };
            if let Some(key) = key {
                if let Some(&(last, last_seq)) = self.key_info.get(&key) {
                    if last != inst {
                        deps.insert(last);
                        seq = seq.max(last_seq + 1);
                    }
                }
            }
        }
        for key in touched_for_write {
            self.key_info.insert(key, (inst, seq));
        }
        (seq, deps.into_iter().collect())
    }

    /// Leader: opens a new instance for the pending batch.
    fn propose_batch(&mut self, ctx: &mut Context<'_, EpaxosMsg>) {
        if self.pending.is_empty() {
            return;
        }
        self.next_slot += 1;
        let inst = InstanceId {
            replica: self.me,
            slot: self.next_slot,
        };
        let batch = CmdBatch {
            ops: self.pending.drain(..).collect(),
        };
        let (seq, deps) = self.attributes_for(inst, &batch);
        ctx.work(Work::Persist, 1);
        let record = Instance {
            batch: batch.clone(),
            seq,
            deps: deps.clone(),
            status: Status::PreAccepted,
            is_local: true,
            preaccept_replies: 0,
            any_changed: false,
            merged_seq: seq,
            merged_deps: deps.iter().copied().collect(),
            accept_replies: 0,
        };
        self.instances.insert(inst, record);
        if self.n() == 1 {
            self.commit(inst, ctx);
            return;
        }
        for peer in self.others().collect::<Vec<_>>() {
            ctx.send(
                peer,
                EpaxosMsg::PreAccept {
                    inst,
                    batch: batch.clone(),
                    seq,
                    deps: deps.clone(),
                },
            );
        }
    }

    fn commit(&mut self, inst: InstanceId, ctx: &mut Context<'_, EpaxosMsg>) {
        let (batch, seq, deps) = {
            let i = self.instances.get_mut(&inst).expect("instance exists");
            i.status = Status::Committed;
            (i.batch.clone(), i.seq, i.deps.clone())
        };
        self.newly_committed.push(inst);
        self.stats.led_commits += 1;
        self.obs.led_commits.inc();
        self.obs.hub.event(
            ctx.now().as_nanos(),
            ObsEvent::Commit {
                cycle: inst.slot,
                weight: batch.weight(),
            },
        );
        // Reply to writes at commit (reads reply at execution, with data).
        let write_replies: Vec<(NodeId, ClientReply)> = batch
            .ops
            .iter()
            .filter(|op| op.op.is_write())
            .map(|op| {
                let weight = op.op.weight();
                let result = match op.op {
                    Op::Put { .. } | Op::MultiPut { .. } => OpResult::Written,
                    _ => OpResult::Batch,
                };
                (
                    op.client,
                    ClientReply {
                        op_id: op.op_id,
                        weight,
                        result,
                    },
                )
            })
            .collect();
        for (client, reply) in write_replies {
            self.stats.own_completed += reply.weight as u64;
            ctx.send(client, EpaxosMsg::Reply(reply));
        }
        for peer in self.others().collect::<Vec<_>>() {
            ctx.send(
                peer,
                EpaxosMsg::Commit {
                    inst,
                    batch: batch.clone(),
                    seq,
                    deps: deps.clone(),
                },
            );
        }
        self.try_execute(ctx);
    }

    /// Executes committed instances whose dependency closure is satisfied.
    ///
    /// Fast path: under the paper's ~0 % interference, almost every
    /// committed instance has only executed (or no) dependencies and runs
    /// immediately. Instances with unexecuted deps park in `blocked`; each
    /// execution retries them, and a full Tarjan pass over the (tiny)
    /// blocked pool resolves genuine dependency cycles.
    fn try_execute(&mut self, ctx: &mut Context<'_, EpaxosMsg>) {
        // Move newly committed instances into the candidate pool.
        for id in std::mem::take(&mut self.newly_committed) {
            let inst = &self.instances[&id];
            if inst.status == Status::Committed && !self.blocked.contains_key(&id) {
                let node = GraphNode {
                    deps: inst.deps.clone(),
                    seq: inst.seq,
                };
                self.blocked.insert(id, node);
            }
        }
        // Fixpoint: execute anything whose deps are all executed.
        loop {
            let runnable: Vec<InstanceId> = self
                .blocked
                .iter()
                .filter(|(_, node)| node.deps.iter().all(|d| self.executed.contains(d)))
                .map(|(&id, _)| id)
                .collect();
            if runnable.is_empty() {
                break;
            }
            for id in runnable {
                self.blocked.remove(&id);
                self.execute_one(id, ctx);
            }
        }
        // Cycles (mutual interference) defeat the fixpoint: run Tarjan on
        // the remaining pool, executing components whose external deps are
        // all satisfied and all members committed.
        if self.blocked.is_empty() {
            return;
        }
        let all_committed_pool: BTreeMap<InstanceId, GraphNode> = self.blocked.clone();
        let order = execution_order(&all_committed_pool, &self.executed);
        let mut deferred: BTreeSet<InstanceId> = BTreeSet::new();
        for id in order {
            let node = &all_committed_pool[&id];
            let blocked = node.deps.iter().any(|d| {
                if self.executed.contains(d) {
                    return false;
                }
                if deferred.contains(d) {
                    return true;
                }
                match self.instances.get(d) {
                    Some(i) => !(i.status == Status::Committed || i.status == Status::Executed),
                    None => true, // never seen: certainly uncommitted
                }
            });
            if blocked {
                deferred.insert(id);
                continue;
            }
            self.blocked.remove(&id);
            self.execute_one(id, ctx);
        }
    }

    fn execute_one(&mut self, id: InstanceId, ctx: &mut Context<'_, EpaxosMsg>) {
        let is_local = {
            let inst = self.instances.get_mut(&id).expect("exists");
            inst.status = Status::Executed;
            inst.is_local
        };
        let ops = self.instances[&id].batch.ops.clone();
        for op in &ops {
            let weight = op.op.weight();
            ctx.work(Work::Apply, weight.into());
            self.stats.executed_weight += weight as u64;
            match &op.op {
                Op::Put { key, value } => {
                    self.store.put(*key, value);
                    if self.cfg.record_log {
                        self.write_log.entry(*key).or_default().push((
                            op.client,
                            op.op_id,
                            ctx.now(),
                        ));
                    }
                }
                Op::Get { key } => {
                    if is_local {
                        let value = self.store.get_value(*key);
                        self.stats.own_completed += weight as u64;
                        ctx.send(
                            op.client,
                            EpaxosMsg::Reply(ClientReply {
                                op_id: op.op_id,
                                weight,
                                result: OpResult::Value(value),
                            }),
                        );
                    }
                }
                Op::MultiPut { puts } => {
                    for (key, value) in puts {
                        self.store.put(*key, value);
                        if self.cfg.record_log {
                            self.write_log.entry(*key).or_default().push((
                                op.client,
                                op.op_id,
                                ctx.now(),
                            ));
                        }
                    }
                }
                Op::SyntheticWrite { .. } => {}
                Op::SyntheticRead { .. } => {
                    if is_local {
                        self.stats.own_completed += weight as u64;
                        ctx.send(
                            op.client,
                            EpaxosMsg::Reply(ClientReply {
                                op_id: op.op_id,
                                weight,
                                result: OpResult::Batch,
                            }),
                        );
                    }
                }
            }
        }
        self.executed.insert(id);
    }

    fn handle_preaccept(
        &mut self,
        from: NodeId,
        inst: InstanceId,
        batch: CmdBatch,
        seq: u64,
        deps: Vec<InstanceId>,
        ctx: &mut Context<'_, EpaxosMsg>,
    ) {
        let (my_seq, my_deps) = self.attributes_for(inst, &batch);
        let mut merged: BTreeSet<InstanceId> = deps.iter().copied().collect();
        merged.extend(my_deps.iter().copied());
        let merged_seq = seq.max(my_seq);
        let merged_deps: Vec<InstanceId> = merged.into_iter().collect();
        let changed = merged_seq != seq || merged_deps != deps;
        self.instances.insert(
            inst,
            Instance {
                batch,
                seq: merged_seq,
                deps: merged_deps.clone(),
                status: Status::PreAccepted,
                is_local: false,
                preaccept_replies: 0,
                any_changed: false,
                merged_seq,
                merged_deps: merged_deps.iter().copied().collect(),
                accept_replies: 0,
            },
        );
        ctx.send(
            from,
            EpaxosMsg::PreAcceptOk {
                inst,
                seq: merged_seq,
                deps: merged_deps,
                changed,
            },
        );
    }

    fn handle_preaccept_ok(
        &mut self,
        inst: InstanceId,
        seq: u64,
        deps: Vec<InstanceId>,
        changed: bool,
        ctx: &mut Context<'_, EpaxosMsg>,
    ) {
        let fast_quorum = self.fast_quorum();
        let decision = {
            let Some(i) = self.instances.get_mut(&inst) else {
                return;
            };
            if !i.is_local || i.status != Status::PreAccepted {
                return; // stale
            }
            i.preaccept_replies += 1;
            i.any_changed |= changed;
            i.merged_seq = i.merged_seq.max(seq);
            i.merged_deps.extend(deps);
            // Leader counts itself towards the fast quorum.
            if (i.preaccept_replies as usize) + 1 < fast_quorum {
                None
            } else if !i.any_changed {
                Some(true) // fast path with original attributes
            } else {
                i.status = Status::Accepted;
                i.seq = i.merged_seq;
                i.deps = i.merged_deps.iter().copied().collect();
                Some(false) // slow path with merged attributes
            }
        };
        match decision {
            None => {}
            Some(true) => {
                self.stats.fast_path += 1;
                self.obs.fast_path.inc();
                self.commit(inst, ctx);
            }
            Some(false) => {
                self.stats.slow_path += 1;
                self.obs.slow_path.inc();
                let (batch, seq, deps) = {
                    let i = &self.instances[&inst];
                    (i.batch.clone(), i.seq, i.deps.clone())
                };
                for peer in self.others().collect::<Vec<_>>() {
                    ctx.send(
                        peer,
                        EpaxosMsg::Accept {
                            inst,
                            batch: batch.clone(),
                            seq,
                            deps: deps.clone(),
                        },
                    );
                }
            }
        }
    }

    fn handle_accept(
        &mut self,
        from: NodeId,
        inst: InstanceId,
        batch: CmdBatch,
        seq: u64,
        deps: Vec<InstanceId>,
        ctx: &mut Context<'_, EpaxosMsg>,
    ) {
        let entry = self.instances.entry(inst).or_insert_with(|| Instance {
            batch,
            seq,
            deps: deps.clone(),
            status: Status::Accepted,
            is_local: false,
            preaccept_replies: 0,
            any_changed: false,
            merged_seq: seq,
            merged_deps: BTreeSet::new(),
            accept_replies: 0,
        });
        if entry.status != Status::Committed && entry.status != Status::Executed {
            entry.seq = seq;
            entry.deps = deps;
            entry.status = Status::Accepted;
        }
        ctx.send(from, EpaxosMsg::AcceptOk { inst });
    }

    fn handle_accept_ok(&mut self, inst: InstanceId, ctx: &mut Context<'_, EpaxosMsg>) {
        let majority = self.majority();
        let ready = {
            let Some(i) = self.instances.get_mut(&inst) else {
                return;
            };
            if !i.is_local || i.status != Status::Accepted {
                return;
            }
            i.accept_replies += 1;
            (i.accept_replies as usize) + 1 >= majority
        };
        if ready {
            self.commit(inst, ctx);
        }
    }

    fn handle_commit(
        &mut self,
        inst: InstanceId,
        batch: CmdBatch,
        seq: u64,
        deps: Vec<InstanceId>,
        ctx: &mut Context<'_, EpaxosMsg>,
    ) {
        let entry = self.instances.entry(inst).or_insert_with(|| Instance {
            batch: batch.clone(),
            seq,
            deps: deps.clone(),
            status: Status::Committed,
            is_local: false,
            preaccept_replies: 0,
            any_changed: false,
            merged_seq: seq,
            merged_deps: BTreeSet::new(),
            accept_replies: 0,
        });
        if entry.status != Status::Executed {
            entry.batch = batch;
            entry.seq = seq;
            entry.deps = deps;
            entry.status = Status::Committed;
            self.newly_committed.push(inst);
        }
        self.try_execute(ctx);
    }
}

impl Process<EpaxosMsg> for EpaxosNode {
    fn on_start(&mut self, ctx: &mut Context<'_, EpaxosMsg>) {
        ctx.set_timer(self.cfg.batch_duration, BATCH_TIMER);
    }

    fn on_message(&mut self, from: NodeId, msg: EpaxosMsg, ctx: &mut Context<'_, EpaxosMsg>) {
        ctx.work(Work::Message, 1);
        match msg {
            EpaxosMsg::Request(req) => {
                ctx.work(Work::Request, req.op.weight().into());
                self.pending.push_back(req);
            }
            EpaxosMsg::Reply(_) => {}
            EpaxosMsg::PreAccept {
                inst,
                batch,
                seq,
                deps,
            } => self.handle_preaccept(from, inst, batch, seq, deps, ctx),
            EpaxosMsg::PreAcceptOk {
                inst,
                seq,
                deps,
                changed,
            } => self.handle_preaccept_ok(inst, seq, deps, changed, ctx),
            EpaxosMsg::Accept {
                inst,
                batch,
                seq,
                deps,
            } => self.handle_accept(from, inst, batch, seq, deps, ctx),
            EpaxosMsg::AcceptOk { inst } => self.handle_accept_ok(inst, ctx),
            EpaxosMsg::Commit {
                inst,
                batch,
                seq,
                deps,
            } => self.handle_commit(inst, batch, seq, deps, ctx),
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, EpaxosMsg>) {
        if timer.token == BATCH_TIMER {
            self.propose_batch(ctx);
            self.obs.exec_backlog.set(self.blocked.len() as i64);
            ctx.set_timer(self.cfg.batch_duration, BATCH_TIMER);
        }
    }

    impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use canopus_kv::ClientRequest;
    use canopus_sim::{Simulation, Time, UniformFabric};

    struct TestClient {
        target: NodeId,
        ops: Vec<(Dur, Op)>,
        cursor: usize,
        replies: Vec<(u64, OpResult, Time)>,
    }

    impl TestClient {
        fn arm(&self, ctx: &mut Context<'_, EpaxosMsg>) {
            if let Some((when, _)) = self.ops.get(self.cursor) {
                let at = Time::ZERO + *when;
                ctx.set_timer(at.saturating_since(ctx.now()), 0);
            }
        }
    }

    impl Process<EpaxosMsg> for TestClient {
        fn on_start(&mut self, ctx: &mut Context<'_, EpaxosMsg>) {
            self.arm(ctx);
        }
        fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, EpaxosMsg>) {
            let (_, op) = self.ops[self.cursor].clone();
            let op_id = self.cursor as u64;
            self.cursor += 1;
            ctx.send(
                self.target,
                EpaxosMsg::Request(ClientRequest {
                    client: ctx.id(),
                    op_id,
                    op,
                }),
            );
            self.arm(ctx);
        }
        fn on_message(&mut self, _f: NodeId, msg: EpaxosMsg, ctx: &mut Context<'_, EpaxosMsg>) {
            if let EpaxosMsg::Reply(r) = msg {
                self.replies.push((r.op_id, r.result, ctx.now()));
            }
        }
        impl_process_any!();
    }

    fn build(n: u32, seed: u64) -> (Simulation<EpaxosMsg, UniformFabric>, Vec<NodeId>) {
        let mut sim = Simulation::new(UniformFabric::new(Dur::micros(100)), seed);
        let replicas: Vec<NodeId> = (0..n).map(NodeId).collect();
        let cfg = EpaxosConfig {
            batch_duration: Dur::millis(1),
            ..EpaxosConfig::default()
        };
        for &r in &replicas {
            sim.add_node(Box::new(EpaxosNode::new(r, replicas.clone(), cfg.clone())));
        }
        (sim, replicas)
    }

    fn add_client(
        sim: &mut Simulation<EpaxosMsg, UniformFabric>,
        target: NodeId,
        ops: Vec<(Dur, Op)>,
    ) -> NodeId {
        sim.add_node(Box::new(TestClient {
            target,
            ops,
            cursor: 0,
            replies: Vec::new(),
        }))
    }

    #[test]
    fn commits_and_replies_to_writes() {
        let (mut sim, _) = build(3, 1);
        let ops = (0..5u64)
            .map(|k| {
                (
                    Dur::millis(k + 1),
                    Op::Put {
                        key: k,
                        value: Bytes::from_static(b"xxxxxxxx"),
                    },
                )
            })
            .collect();
        let client = add_client(&mut sim, NodeId(0), ops);
        sim.run_for(Dur::millis(100));
        let c = sim.node::<TestClient>(client);
        assert_eq!(c.replies.len(), 5);
        let s = sim.node::<EpaxosNode>(NodeId(0)).stats();
        assert!(s.fast_path >= 1, "uncontended writes take the fast path");
        assert_eq!(s.slow_path, 0);
    }

    #[test]
    fn replicas_converge_on_state() {
        let (mut sim, replicas) = build(5, 2);
        for (i, &r) in replicas.iter().enumerate() {
            let ops = (0..10u64)
                .map(|k| {
                    (
                        Dur::micros(700 * k + i as u64 * 131),
                        Op::Put {
                            key: 1000 + i as u64 * 100 + k, // disjoint keys
                            value: Bytes::from_static(b"vvvvvvvv"),
                        },
                    )
                })
                .collect();
            add_client(&mut sim, r, ops);
        }
        sim.run_for(Dur::millis(300));
        let d0 = sim.node::<EpaxosNode>(replicas[0]).store().digest();
        for &r in &replicas[1..] {
            assert_eq!(sim.node::<EpaxosNode>(r).store().digest(), d0);
        }
        let total: u64 = sim.node::<EpaxosNode>(replicas[0]).stats().executed_weight;
        assert_eq!(total, 50);
    }

    #[test]
    fn conflicting_writes_serialize_identically() {
        let (mut sim, replicas) = build(3, 3);
        // Two clients hammer the SAME key from different replicas: full
        // interference; slow path and dependency ordering must engage.
        for (i, &r) in replicas[..2].iter().enumerate() {
            let ops = (0..10u64)
                .map(|k| {
                    (
                        Dur::micros(900 * k + i as u64 * 450),
                        Op::Put {
                            key: 42,
                            value: Bytes::from(vec![i as u8 + 1; 8]),
                        },
                    )
                })
                .collect();
            add_client(&mut sim, r, ops);
        }
        sim.run_for(Dur::millis(500));
        // All replicas must apply writes to key 42 in the same order.
        // The order of writes, without each replica's own execution times.
        let order = |r: NodeId| -> Vec<(NodeId, u64)> {
            let log = sim.node::<EpaxosNode>(r).write_log_timed();
            log[&42].iter().map(|&(c, id, _)| (c, id)).collect()
        };
        let reference = order(replicas[0]);
        assert_eq!(reference.len(), 20);
        for &r in &replicas[1..] {
            assert_eq!(order(r), reference, "per-key write order diverged at {r}");
        }
        let s0 = sim.node::<EpaxosNode>(replicas[0]).stats();
        let s1 = sim.node::<EpaxosNode>(replicas[1]).stats();
        assert!(
            s0.slow_path + s1.slow_path > 0,
            "conflicts must exercise the slow path"
        );
    }

    #[test]
    fn reads_return_committed_values() {
        let (mut sim, _) = build(3, 4);
        let writer_ops = vec![(
            Dur::millis(1),
            Op::Put {
                key: 5,
                value: Bytes::from_static(b"AAAAAAAA"),
            },
        )];
        add_client(&mut sim, NodeId(0), writer_ops);
        let reader_ops = vec![(Dur::millis(50), Op::Get { key: 5 })];
        let reader = add_client(&mut sim, NodeId(1), reader_ops);
        sim.run_for(Dur::millis(200));
        let c = sim.node::<TestClient>(reader);
        assert_eq!(c.replies.len(), 1);
        match &c.replies[0].1 {
            OpResult::Value(Some(v)) => assert_eq!(&v[..], b"AAAAAAAA"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_replica_commits_immediately() {
        let (mut sim, _) = build(1, 5);
        let ops = vec![(
            Dur::millis(1),
            Op::Put {
                key: 1,
                value: Bytes::from_static(b"solo...."),
            },
        )];
        let client = add_client(&mut sim, NodeId(0), ops);
        sim.run_for(Dur::millis(50));
        assert_eq!(sim.node::<TestClient>(client).replies.len(), 1);
    }

    #[test]
    fn fast_quorum_sizes() {
        for (n, expect) in [(3usize, 2usize), (5, 3), (9, 6), (27, 20)] {
            let replicas: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let node = EpaxosNode::new(NodeId(0), replicas, EpaxosConfig::default());
            assert_eq!(node.fast_quorum(), expect, "N={n}");
        }
    }
}
