//! The ZooKeeper model: Zab atomic broadcast with observers.
//!
//! Reproduces the system the paper compares against in Figure 5: a single
//! leader runs the Zab broadcast phase over a small participant ensemble
//! (the paper configures **five followers**, "mainly to reduce the load on
//! the centralized leader"), while the remaining nodes are **observers**
//! that receive committed transactions asynchronously and serve reads
//! locally. Writes funnel through the leader — the centralized bottleneck
//! Canopus removes — and reads are served from local committed state
//! (ZooKeeper's sequential-consistency semantics; the stronger `sync`
//! path is not modelled, matching how ZooKeeper is benchmarked).
//!
//! Failure handling: followers detect leader silence, run a
//! highest-`(zxid, id)` election among live participants, and the winner
//! resyncs followers from its log before resuming broadcast — a compact
//! rendition of Zab's discovery/synchronization phases sufficient for
//! crash-failover tests (full ZooKeeper recovery variants are out of
//! scope; see DESIGN.md).

use std::collections::{BTreeMap, VecDeque};

use canopus_kv::{ClientReply, ClientRequest, KvStore, Op, OpResult};
use canopus_obs::{Counter, EventKind as ObsEvent, Gauge, NodeObs};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Time, Timer, Work};

use crate::msg::{Txn, ZabMsg, Zxid};

const TICK: u64 = 1;

/// Role of a node in the ensemble.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ZabRole {
    /// Runs the broadcast protocol.
    Leader,
    /// Participates in the quorum.
    Follower,
    /// Receives committed transactions asynchronously; serves reads.
    Observer,
}

/// Configuration of the ZooKeeper model.
#[derive(Clone, Debug)]
pub struct ZabConfig {
    /// Number of quorum participants (leader + followers); the paper uses
    /// 6 (a leader and five followers), the rest observers.
    pub participants: usize,
    /// Leader heartbeat interval.
    pub heartbeat: Dur,
    /// Follower silence threshold before starting an election.
    pub election_timeout: Dur,
    /// Housekeeping tick.
    pub tick_interval: Dur,
}

impl Default for ZabConfig {
    fn default() -> Self {
        ZabConfig {
            participants: 6,
            heartbeat: Dur::millis(2),
            election_timeout: Dur::millis(20),
            tick_interval: Dur::millis(1),
        }
    }
}

/// Counters exposed by every node.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ZabStats {
    /// Transactions this node applied (weighted).
    pub applied_weight: u64,
    /// Requests from this node's own clients completed (weighted).
    pub own_completed: u64,
    /// Reads served locally (weighted).
    pub reads_served: u64,
    /// Elections participated in.
    pub elections: u64,
}

/// Pre-registered observability handles (no-ops unless
/// [`ZabNode::with_obs`] installed an enabled hub).
struct ZabObs {
    hub: NodeObs,
    elections: Counter,
    leader_changes: Counter,
    resyncs_served: Counter,
    resyncs_requested: Counter,
    commit_lag: Gauge,
}

impl ZabObs {
    fn from_hub(hub: NodeObs) -> Self {
        let m = &hub.metrics;
        ZabObs {
            elections: m.counter("zab.elections"),
            leader_changes: m.counter("zab.leader_changes"),
            resyncs_served: m.counter("zab.resyncs_served"),
            resyncs_requested: m.counter("zab.resyncs_requested"),
            commit_lag: m.gauge("zab.commit_lag"),
            hub,
        }
    }
}

/// One node of the ZooKeeper model.
pub struct ZabNode {
    cfg: ZabConfig,
    me: NodeId,
    ensemble: Vec<NodeId>,
    role: ZabRole,
    epoch: u32,
    leader: NodeId,
    /// Full transaction log: `(zxid, txn)`, zxid-ordered.
    log: Vec<(Zxid, Txn)>,
    committed: Zxid,
    applied: Zxid,
    /// Leader: acks per in-flight zxid.
    acks: BTreeMap<Zxid, u32>,
    next_counter: u64,
    /// Cursor into `log`: everything before it is applied.
    applied_idx: usize,
    /// Election state: candidate credentials seen for the next epoch.
    election_votes: BTreeMap<NodeId, Zxid>,
    election_deadline: Option<Time>,
    last_leader_contact: Time,
    next_ping: Time,
    store: KvStore,
    stats: ZabStats,
    obs: ZabObs,
    forward_queue: VecDeque<Txn>,
    /// When we last asked the leader for a full resync — throttles the
    /// request so a burst of gap-detected messages costs one history
    /// transfer, not one per message.
    resync_requested_at: Option<Time>,
}

impl ZabNode {
    /// Creates a node. The first `cfg.participants` entries of `ensemble`
    /// are quorum participants with `ensemble[0]` the initial leader; the
    /// remainder are observers. All nodes must receive the identical list.
    pub fn new(me: NodeId, ensemble: Vec<NodeId>, cfg: ZabConfig) -> Self {
        assert!(ensemble.contains(&me));
        assert!(cfg.participants >= 1 && cfg.participants <= ensemble.len());
        let leader = ensemble[0];
        let role = if me == leader {
            ZabRole::Leader
        } else if ensemble[..cfg.participants].contains(&me) {
            ZabRole::Follower
        } else {
            ZabRole::Observer
        };
        ZabNode {
            cfg,
            me,
            ensemble,
            role,
            epoch: 1,
            leader,
            log: Vec::new(),
            committed: Zxid::default(),
            applied: Zxid::default(),
            acks: BTreeMap::new(),
            next_counter: 0,
            applied_idx: 0,
            election_votes: BTreeMap::new(),
            election_deadline: None,
            last_leader_contact: Time::ZERO,
            next_ping: Time::ZERO,
            store: KvStore::new(),
            stats: ZabStats::default(),
            obs: ZabObs::from_hub(NodeObs::disabled()),
            forward_queue: VecDeque::new(),
            resync_requested_at: None,
        }
    }

    /// Installs an observability hub (metrics + flight recorder). Builder
    /// style; without it the node carries a disabled hub costing one
    /// branch per update.
    pub fn with_obs(mut self, hub: NodeObs) -> Self {
        self.obs = ZabObs::from_hub(hub);
        self
    }

    /// This node's observability hub (disabled unless installed).
    pub fn obs(&self) -> &NodeObs {
        &self.obs.hub
    }

    /// Creates a node that rejoins after a crash with no durable state. It
    /// always boots as a follower — even `ensemble[0]` — because an
    /// amnesiac node that reclaimed its old leadership would reuse
    /// already-committed zxids and diverge the log. It catches up through
    /// the resync path (leader pings → `ResyncRequest` → `NewLeader`), or
    /// triggers an election if the whole ensemble lost its leader.
    pub fn recovering(me: NodeId, ensemble: Vec<NodeId>, cfg: ZabConfig) -> Self {
        let mut node = ZabNode::new(me, ensemble, cfg);
        if node.role == ZabRole::Leader {
            node.role = ZabRole::Follower;
        }
        node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Current role.
    pub fn role(&self) -> ZabRole {
        self.role
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Counters.
    pub fn stats(&self) -> ZabStats {
        self.stats
    }

    /// The replicated store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The applied transaction log as `(client, op_id)` pairs, for
    /// agreement checks.
    pub fn applied_log(&self) -> Vec<(NodeId, u64)> {
        self.log
            .iter()
            .filter(|(z, _)| *z <= self.applied)
            .map(|(_, t)| (t.req.client, t.req.op_id))
            .collect()
    }

    /// The applied transactions as `(key, client, op_id)` triples (`key`
    /// is `None` for non-`Put` operations), for per-key order checks.
    pub fn applied_ops(&self) -> Vec<(Option<canopus_kv::Key>, NodeId, u64)> {
        self.log
            .iter()
            .filter(|(z, _)| *z <= self.applied)
            .map(|(_, t)| {
                let key = match &t.req.op {
                    Op::Put { key, .. } => Some(*key),
                    _ => None,
                };
                (key, t.req.client, t.req.op_id)
            })
            .collect()
    }

    fn participants(&self) -> &[NodeId] {
        &self.ensemble[..self.cfg.participants]
    }

    fn followers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me;
        self.participants()
            .iter()
            .copied()
            .filter(move |&n| n != me)
    }

    fn observers(&self) -> &[NodeId] {
        &self.ensemble[self.cfg.participants..]
    }

    fn quorum(&self) -> u32 {
        (self.cfg.participants / 2 + 1) as u32
    }

    fn last_zxid(&self) -> Zxid {
        self.log.last().map(|(z, _)| *z).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Broadcast phase
    // ------------------------------------------------------------------

    fn lead_transaction(&mut self, txn: Txn, ctx: &mut Context<'_, ZabMsg>) {
        debug_assert_eq!(self.role, ZabRole::Leader);
        // Real ZooKeeper proposes each request individually: the leader
        // pays per-request processing and per-request dissemination to
        // every follower and observer. Synthetic batches model the load of
        // `weight` requests, so the work scales with weight and fan-out —
        // this is the centralized bottleneck of Figure 5.
        let weight = u64::from(txn.req.op.weight());
        ctx.work(Work::Propose, weight);
        for _ in 1..self.ensemble.len() {
            ctx.work(Work::Disseminate, weight);
        }
        self.next_counter += 1;
        let zxid = Zxid {
            epoch: self.epoch,
            counter: self.next_counter,
        };
        self.log.push((zxid, txn.clone()));
        self.acks.insert(zxid, 1); // self-ack
        ctx.work(Work::Persist, 1);
        for f in self.followers().collect::<Vec<_>>() {
            ctx.send(
                f,
                ZabMsg::Propose {
                    zxid,
                    txn: txn.clone(),
                },
            );
        }
        self.next_ping = ctx.now() + self.cfg.heartbeat;
        if self.quorum() == 1 {
            self.leader_commit(zxid, ctx);
        }
    }

    fn leader_commit(&mut self, zxid: Zxid, ctx: &mut Context<'_, ZabMsg>) {
        self.acks.remove(&zxid);
        self.committed = self.committed.max(zxid);
        for f in self.followers().collect::<Vec<_>>() {
            ctx.send(f, ZabMsg::Commit { zxid });
        }
        // Observers get the fused Inform.
        let txn = self
            .log
            .iter()
            .find(|(z, _)| *z == zxid)
            .map(|(_, t)| t.clone())
            .expect("committed txn is in the log");
        for &o in self.observers().to_vec().iter() {
            ctx.send(
                o,
                ZabMsg::Inform {
                    zxid,
                    txn: txn.clone(),
                },
            );
        }
        self.apply_committed(ctx);
    }

    /// Applies every logged transaction up to the commit point, in order.
    /// The log is zxid-ordered (leaders append in order; followers receive
    /// in FIFO order; resyncs replace the whole log), so a cursor suffices.
    fn apply_committed(&mut self, ctx: &mut Context<'_, ZabMsg>) {
        while self.applied_idx < self.log.len() {
            let (zxid, txn) = self.log[self.applied_idx].clone();
            if zxid > self.committed {
                break;
            }
            self.applied_idx += 1;
            if zxid <= self.applied {
                continue;
            }
            self.apply_one(zxid, txn, ctx);
        }
    }

    fn apply_one(&mut self, zxid: Zxid, txn: Txn, ctx: &mut Context<'_, ZabMsg>) {
        debug_assert!(zxid > self.applied);
        self.applied = zxid;
        let weight = txn.req.op.weight();
        ctx.work(Work::Apply, weight.into());
        self.stats.applied_weight += weight as u64;
        match &txn.req.op {
            Op::Put { key, value } => {
                self.store.put(*key, value);
            }
            Op::MultiPut { puts } => {
                for (key, value) in puts {
                    self.store.put(*key, value);
                }
            }
            _ => {}
        }
        if txn.origin == self.me {
            self.stats.own_completed += weight as u64;
            let result = match txn.req.op {
                Op::Put { .. } | Op::MultiPut { .. } => OpResult::Written,
                _ => OpResult::Batch,
            };
            ctx.send(
                txn.req.client,
                ZabMsg::Reply(ClientReply {
                    op_id: txn.req.op_id,
                    weight,
                    result,
                }),
            );
        }
    }

    fn handle_request(&mut self, req: ClientRequest, ctx: &mut Context<'_, ZabMsg>) {
        ctx.work(Work::Request, req.op.weight().into());
        if req.op.is_write() {
            let txn = Txn {
                req,
                origin: self.me,
            };
            match self.role {
                ZabRole::Leader => self.lead_transaction(txn, ctx),
                _ => {
                    if self.election_deadline.is_some() || self.leader == self.me {
                        // Leaderless — mid-election, or we are the
                        // configured leader but no longer lead (a
                        // recovering `ensemble[0]`): queue until the next
                        // epoch rather than forwarding to ourselves.
                        self.forward_queue.push_back(txn);
                    } else {
                        ctx.send(self.leader, ZabMsg::Forward(txn));
                    }
                }
            }
        } else {
            // Reads are served locally from committed state — the
            // ZooKeeper read path that observers scale (Figure 5).
            let weight = req.op.weight();
            ctx.work(Work::Read, weight.into());
            self.stats.reads_served += weight as u64;
            let result = match &req.op {
                Op::Get { key } => OpResult::Value(self.store.get_value(*key)),
                _ => OpResult::Batch,
            };
            ctx.send(
                req.client,
                ZabMsg::Reply(ClientReply {
                    op_id: req.op_id,
                    weight,
                    result,
                }),
            );
        }
    }

    // ------------------------------------------------------------------
    // Election + resync
    // ------------------------------------------------------------------

    fn start_election(&mut self, ctx: &mut Context<'_, ZabMsg>) {
        self.stats.elections += 1;
        let new_epoch = self.epoch + 1;
        self.obs.elections.inc();
        self.obs.hub.event(
            ctx.now().as_nanos(),
            ObsEvent::Election {
                term: new_epoch as u64,
            },
        );
        self.election_votes.clear();
        self.election_votes.insert(self.me, self.last_zxid());
        self.election_deadline = Some(ctx.now() + self.cfg.election_timeout);
        for f in self
            .participants()
            .to_vec()
            .into_iter()
            .filter(|&n| n != self.me)
        {
            ctx.send(
                f,
                ZabMsg::Election {
                    epoch: new_epoch,
                    last_zxid: self.last_zxid(),
                },
            );
        }
    }

    fn finish_election(&mut self, ctx: &mut Context<'_, ZabMsg>) {
        if (self.election_votes.len() as u32) < self.quorum() {
            // Not enough live participants: stall and retry.
            self.start_election(ctx);
            return;
        }
        let winner = self
            .election_votes
            .iter()
            .max_by_key(|(&id, &z)| (z, id))
            .map(|(&id, _)| id)
            .expect("non-empty");
        self.election_deadline = None;
        if winner == self.me {
            self.epoch += 1;
            self.role = ZabRole::Leader;
            self.leader = self.me;
            self.next_counter = 0;
            self.obs.leader_changes.inc();
            self.obs.hub.event(
                ctx.now().as_nanos(),
                ObsEvent::LeaderChange {
                    term: self.epoch as u64,
                    leader: self.me.0,
                },
            );
            // Commit everything we have logged (we hold the highest zxid
            // among a quorum; Zab's synchronization makes it durable).
            self.committed = self.last_zxid();
            let history = self.log.clone();
            for f in self.followers().collect::<Vec<_>>() {
                ctx.send(
                    f,
                    ZabMsg::NewLeader {
                        epoch: self.epoch,
                        history: history.clone(),
                        committed: self.committed,
                    },
                );
            }
            for &o in self.observers().to_vec().iter() {
                ctx.send(
                    o,
                    ZabMsg::NewLeader {
                        epoch: self.epoch,
                        history: history.clone(),
                        committed: self.committed,
                    },
                );
            }
            self.apply_committed(ctx);
            // Re-drive queued writes.
            let queued: Vec<Txn> = self.forward_queue.drain(..).collect();
            for txn in queued {
                self.lead_transaction(txn, ctx);
            }
        }
        // Losers wait for NewLeader.
    }

    /// Asks `from` for a full resync, at most once per election timeout —
    /// the leader answers with its entire history, so a burst of
    /// gap-detected messages must not trigger one transfer each.
    fn request_resync(&mut self, from: NodeId, ctx: &mut Context<'_, ZabMsg>) {
        let due = match self.resync_requested_at {
            Some(at) => ctx.now().saturating_since(at) >= self.cfg.election_timeout,
            None => true,
        };
        if due {
            self.resync_requested_at = Some(ctx.now());
            self.obs.resyncs_requested.inc();
            ctx.send(from, ZabMsg::ResyncRequest);
        }
    }

    /// Whether `zxid` extends this node's log by exactly one transaction.
    /// If not — we missed history (restart, healed partition) — and the
    /// transaction is ahead of us, ask `from` for a full resync. Returns
    /// `true` when the transaction may be appended.
    fn contiguous_or_resync(
        &mut self,
        zxid: Zxid,
        from: NodeId,
        ctx: &mut Context<'_, ZabMsg>,
    ) -> bool {
        let last = self.last_zxid();
        let contiguous = if zxid.epoch == last.epoch {
            zxid.counter == last.counter + 1
        } else {
            zxid.counter == 1
        };
        if !contiguous && zxid > last {
            self.request_resync(from, ctx);
        }
        contiguous
    }

    fn handle_new_leader(
        &mut self,
        from: NodeId,
        epoch: u32,
        history: Vec<(Zxid, Txn)>,
        committed: Zxid,
        ctx: &mut Context<'_, ZabMsg>,
    ) {
        if epoch <= self.epoch && from != self.leader {
            return; // stale
        }
        if from != self.leader || epoch != self.epoch {
            self.obs.leader_changes.inc();
            self.obs.hub.event(
                ctx.now().as_nanos(),
                ObsEvent::LeaderChange {
                    term: epoch as u64,
                    leader: from.0,
                },
            );
        }
        self.obs.hub.event(
            ctx.now().as_nanos(),
            ObsEvent::Resync {
                peer: from.0,
                entries: history.len() as u64,
            },
        );
        self.epoch = epoch;
        self.leader = from;
        self.role = if self.participants().contains(&self.me) {
            ZabRole::Follower
        } else {
            ZabRole::Observer
        };
        self.election_deadline = None;
        self.election_votes.clear();
        self.resync_requested_at = None;
        // Adopt the leader's history (full resync).
        self.log = history;
        self.committed = committed;
        self.applied_idx = self
            .log
            .iter()
            .position(|(z, _)| *z > self.applied)
            .unwrap_or(self.log.len());
        // Reset apply point conservatively: reapply from scratch is not
        // possible (store already mutated), so apply only the tail.
        self.apply_committed(ctx);
        self.last_leader_contact = ctx.now();
        ctx.send(from, ZabMsg::FollowerAck { epoch });
        // Re-forward queued writes to the new leader.
        let queued: Vec<Txn> = self.forward_queue.drain(..).collect();
        for txn in queued {
            ctx.send(self.leader, ZabMsg::Forward(txn));
        }
    }
}

impl Process<ZabMsg> for ZabNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ZabMsg>) {
        self.last_leader_contact = ctx.now();
        self.next_ping = ctx.now();
        ctx.set_timer(self.cfg.tick_interval, TICK);
    }

    fn on_message(&mut self, from: NodeId, msg: ZabMsg, ctx: &mut Context<'_, ZabMsg>) {
        ctx.work(Work::Message, 1);
        if from == self.leader {
            self.last_leader_contact = ctx.now();
        }
        match msg {
            ZabMsg::Request(req) => self.handle_request(req, ctx),
            ZabMsg::Reply(_) => {}
            ZabMsg::Forward(txn) => {
                if self.role == ZabRole::Leader {
                    self.lead_transaction(txn, ctx);
                } else if self.leader != self.me && self.election_deadline.is_none() {
                    // Re-forward (leadership may have moved).
                    ctx.send(self.leader, ZabMsg::Forward(txn));
                } else {
                    // We are the forward target but no longer lead (a
                    // recovering `ensemble[0]`, or mid-election): park it.
                    self.forward_queue.push_back(txn);
                }
            }
            ZabMsg::Propose { zxid, txn } => {
                if zxid.epoch != self.epoch {
                    return;
                }
                // Never append a duplicate or a suffix with a hole.
                if !self.contiguous_or_resync(zxid, from, ctx) {
                    return;
                }
                self.log.push((zxid, txn));
                ctx.send(from, ZabMsg::Ack { zxid });
            }
            ZabMsg::Ack { zxid } => {
                if self.role != ZabRole::Leader || zxid.epoch != self.epoch {
                    return;
                }
                if let Some(count) = self.acks.get_mut(&zxid) {
                    *count += 1;
                    if *count >= self.quorum() {
                        self.leader_commit(zxid, ctx);
                    }
                }
            }
            ZabMsg::Commit { zxid } => {
                if zxid.epoch != self.epoch {
                    return;
                }
                self.committed = self.committed.max(zxid);
                self.apply_committed(ctx);
            }
            ZabMsg::Inform { zxid, txn } => {
                if zxid <= self.applied {
                    return;
                }
                // Epoch guard, like Propose: an observer that missed the
                // `NewLeader` broadcast has no guarantee it holds the full
                // previous epoch, so a cross-epoch Inform must trigger a
                // resync — without this, `(e+1, 1)` would pass the
                // contiguity check and silently skip the committed tail of
                // epoch `e`.
                if zxid.epoch != self.epoch {
                    if zxid.epoch > self.epoch {
                        self.request_resync(from, ctx);
                    }
                    return;
                }
                // Same gap rule as Propose: an observer that missed history
                // must resync instead of applying a suffix with a hole.
                if !self.contiguous_or_resync(zxid, from, ctx) {
                    return;
                }
                self.log.push((zxid, txn));
                self.committed = self.committed.max(zxid);
                self.apply_committed(ctx);
            }
            ZabMsg::Ping { epoch } => {
                if epoch >= self.epoch {
                    self.last_leader_contact = ctx.now();
                }
                // A higher epoch means a leader we never synced with (we
                // restarted, or we are a deposed leader healing from a
                // partition): request a full resync from it.
                if epoch > self.epoch {
                    self.request_resync(from, ctx);
                }
            }
            ZabMsg::Election { epoch, last_zxid } => {
                if self.role == ZabRole::Observer {
                    return;
                }
                if epoch <= self.epoch {
                    return;
                }
                // Join the election if we haven't already.
                if self.election_deadline.is_none() {
                    self.start_election(ctx);
                }
                self.election_votes.insert(from, last_zxid);
                if self.election_votes.len() == self.cfg.participants {
                    self.finish_election(ctx);
                }
            }
            ZabMsg::NewLeader {
                epoch,
                history,
                committed,
            } => self.handle_new_leader(from, epoch, history, committed, ctx),
            ZabMsg::FollowerAck { .. } => {}
            ZabMsg::ResyncRequest => {
                if self.role == ZabRole::Leader {
                    self.obs.resyncs_served.inc();
                    self.obs.hub.event(
                        ctx.now().as_nanos(),
                        ObsEvent::Resync {
                            peer: from.0,
                            entries: self.log.len() as u64,
                        },
                    );
                    ctx.send(
                        from,
                        ZabMsg::NewLeader {
                            epoch: self.epoch,
                            history: self.log.clone(),
                            committed: self.committed,
                        },
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, ZabMsg>) {
        if timer.token != TICK {
            return;
        }
        let now = ctx.now();
        match self.role {
            ZabRole::Leader => {
                if now >= self.next_ping {
                    self.next_ping = now + self.cfg.heartbeat;
                    for f in self.followers().collect::<Vec<_>>() {
                        ctx.send(f, ZabMsg::Ping { epoch: self.epoch });
                    }
                    for &o in self.observers().to_vec().iter() {
                        ctx.send(o, ZabMsg::Ping { epoch: self.epoch });
                    }
                }
            }
            ZabRole::Follower => {
                if let Some(deadline) = self.election_deadline {
                    if now >= deadline {
                        self.finish_election(ctx);
                    }
                } else if now.saturating_since(self.last_leader_contact)
                    >= self.cfg.election_timeout
                {
                    self.start_election(ctx);
                }
            }
            ZabRole::Observer => {}
        }
        if self.obs.hub.is_enabled() {
            // Logged-but-uncommitted transactions, the ZAB analogue of
            // Raft's commit index lag.
            let lag = self
                .log
                .iter()
                .rev()
                .take_while(|(z, _)| *z > self.committed)
                .count();
            self.obs.commit_lag.set(lag as i64);
        }
        ctx.set_timer(self.cfg.tick_interval, TICK);
    }

    impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use canopus_sim::{Simulation, UniformFabric};

    struct TestClient {
        target: NodeId,
        ops: Vec<(Dur, Op)>,
        cursor: usize,
        replies: Vec<(u64, OpResult, Time)>,
    }

    impl TestClient {
        fn arm(&self, ctx: &mut Context<'_, ZabMsg>) {
            if let Some((when, _)) = self.ops.get(self.cursor) {
                let at = Time::ZERO + *when;
                ctx.set_timer(at.saturating_since(ctx.now()), 0);
            }
        }
    }

    impl Process<ZabMsg> for TestClient {
        fn on_start(&mut self, ctx: &mut Context<'_, ZabMsg>) {
            self.arm(ctx);
        }
        fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, ZabMsg>) {
            let (_, op) = self.ops[self.cursor].clone();
            let op_id = self.cursor as u64;
            self.cursor += 1;
            ctx.send(
                self.target,
                ZabMsg::Request(ClientRequest {
                    client: ctx.id(),
                    op_id,
                    op,
                }),
            );
            self.arm(ctx);
        }
        fn on_message(&mut self, _f: NodeId, msg: ZabMsg, ctx: &mut Context<'_, ZabMsg>) {
            if let ZabMsg::Reply(r) = msg {
                self.replies.push((r.op_id, r.result, ctx.now()));
            }
        }
        impl_process_any!();
    }

    fn build(
        n: u32,
        participants: usize,
        seed: u64,
    ) -> (Simulation<ZabMsg, UniformFabric>, Vec<NodeId>) {
        let mut sim = Simulation::new(UniformFabric::new(Dur::micros(100)), seed);
        let ensemble: Vec<NodeId> = (0..n).map(NodeId).collect();
        let cfg = ZabConfig {
            participants,
            ..ZabConfig::default()
        };
        for &id in &ensemble {
            sim.add_node(Box::new(ZabNode::new(id, ensemble.clone(), cfg.clone())));
        }
        (sim, ensemble)
    }

    fn put(key: u64, tag: u8) -> Op {
        Op::Put {
            key,
            value: Bytes::from(vec![tag; 8]),
        }
    }

    #[test]
    fn writes_commit_through_leader() {
        let (mut sim, _) = build(5, 3, 1);
        // Client talks to a follower; write must round-trip via the leader.
        let client = sim.add_node(Box::new(TestClient {
            target: NodeId(1),
            ops: (0..5)
                .map(|k| (Dur::millis(k + 1), put(k, k as u8)))
                .collect(),
            cursor: 0,
            replies: Vec::new(),
        }));
        sim.run_for(Dur::millis(100));
        assert_eq!(sim.node::<TestClient>(client).replies.len(), 5);
        // Every node (incl. observers) applied all writes.
        for i in 0..5u32 {
            assert_eq!(sim.node::<ZabNode>(NodeId(i)).stats().applied_weight, 5);
        }
    }

    #[test]
    fn observers_apply_and_serve_reads() {
        let (mut sim, ensemble) = build(6, 3, 2);
        let observer = *ensemble.last().unwrap();
        assert_eq!(sim.node::<ZabNode>(observer).role(), ZabRole::Observer);
        let writer = sim.add_node(Box::new(TestClient {
            target: NodeId(0),
            ops: vec![(Dur::millis(1), put(9, 7))],
            cursor: 0,
            replies: Vec::new(),
        }));
        let reader = sim.add_node(Box::new(TestClient {
            target: observer,
            ops: vec![(Dur::millis(50), Op::Get { key: 9 })],
            cursor: 0,
            replies: Vec::new(),
        }));
        sim.run_for(Dur::millis(100));
        assert_eq!(sim.node::<TestClient>(writer).replies.len(), 1);
        let r = sim.node::<TestClient>(reader);
        match &r.replies[0].1 {
            OpResult::Value(Some(v)) => assert_eq!(v[0], 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn logs_agree_across_participants_and_observers() {
        let (mut sim, ensemble) = build(7, 5, 3);
        for (i, &target) in ensemble.iter().enumerate() {
            sim.add_node(Box::new(TestClient {
                target,
                ops: (0..6)
                    .map(|k| {
                        (
                            Dur::micros(800 * k + i as u64 * 97),
                            put(i as u64 * 10 + k, 1),
                        )
                    })
                    .collect(),
                cursor: 0,
                replies: Vec::new(),
            }));
        }
        sim.run_for(Dur::millis(300));
        let reference = sim.node::<ZabNode>(ensemble[0]).applied_log();
        assert_eq!(reference.len(), 42);
        for &n in &ensemble[1..] {
            assert_eq!(sim.node::<ZabNode>(n).applied_log(), reference);
        }
    }

    #[test]
    fn fast_leader_restart_rejoins_as_follower_without_forking() {
        // Crash the leader and restart it amnesiac *within* the election
        // timeout, while its followers still believe in it. Booted via
        // `recovering`, it must come back as a follower — an amnesiac
        // node that reclaimed epoch-1 leadership would reuse committed
        // zxids and fork the log.
        let (mut sim, ensemble) = build(5, 5, 9);
        let cfg = ZabConfig {
            participants: 5,
            ..ZabConfig::default()
        };
        let client = sim.add_node(Box::new(TestClient {
            target: NodeId(2),
            ops: (0..30)
                .map(|k| (Dur::millis(4 * k + 1), put(k, (k + 1) as u8)))
                .collect(),
            cursor: 0,
            replies: Vec::new(),
        }));
        sim.run_for(Dur::millis(15));
        sim.crash(NodeId(0));
        sim.run_for(Dur::millis(5)); // well under the 20 ms election timeout
        sim.restart(
            NodeId(0),
            Box::new(ZabNode::recovering(NodeId(0), ensemble.clone(), cfg)),
        );
        sim.run_for(Dur::millis(800));

        assert_ne!(
            sim.node::<ZabNode>(NodeId(0)).role(),
            ZabRole::Leader,
            "amnesiac node must not retain leadership"
        );
        // Writes flowed again after the election.
        let replies = sim.node::<TestClient>(client).replies.len();
        assert!(replies >= 20, "writes resumed: {replies}/30");
        // Every node's applied log — the restarted one included — is a
        // prefix of the longest; no fork.
        let logs: Vec<Vec<(NodeId, u64)>> = ensemble
            .iter()
            .map(|&n| sim.node::<ZabNode>(n).applied_log())
            .collect();
        let longest = logs.iter().max_by_key(|l| l.len()).unwrap().clone();
        for (i, log) in logs.iter().enumerate() {
            assert!(
                longest.starts_with(log),
                "node {i} forked: {:?} vs {:?}",
                &log[..log.len().min(8)],
                &longest[..longest.len().min(8)]
            );
        }
    }

    #[test]
    fn leader_failure_elects_new_leader_and_resumes() {
        let (mut sim, ensemble) = build(5, 5, 4);
        let client = sim.add_node(Box::new(TestClient {
            target: NodeId(2),
            ops: (0..20)
                .map(|k| (Dur::millis(5 * k + 1), put(k, 1)))
                .collect(),
            cursor: 0,
            replies: Vec::new(),
        }));
        sim.run_for(Dur::millis(12));
        sim.crash(NodeId(0)); // the initial leader
        sim.run_for(Dur::millis(500));
        // A new leader emerged among the survivors.
        let mut leaders = 0;
        for &n in &ensemble[1..] {
            if sim.node::<ZabNode>(n).role() == ZabRole::Leader {
                leaders += 1;
                assert!(sim.node::<ZabNode>(n).epoch() > 1);
            }
        }
        assert_eq!(leaders, 1, "exactly one new leader");
        // Writes continued after the failover (some may be lost in the
        // handoff window — Zab only guarantees acked/committed ones).
        let replies = sim.node::<TestClient>(client).replies.len();
        assert!(replies >= 15, "most writes completed: {replies}/20");
        // Survivor logs agree.
        let reference = sim.node::<ZabNode>(ensemble[1]).applied_log();
        for &n in &ensemble[2..] {
            assert_eq!(sim.node::<ZabNode>(n).applied_log(), reference);
        }
    }
}
