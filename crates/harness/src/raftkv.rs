//! A Raft-replicated key-value service: the fourth protocol the chaos
//! suite drives, built on the same [`RaftCore`] that powers Canopus's
//! super-leaf broadcast.
//!
//! One Raft group spans every node. Clients talk to their local node; the
//! node proposes locally when it leads and otherwise forwards to its
//! current leader hint. *Reads travel through the log like writes*, so the
//! service is linearizable — a read's result is computed at its own log
//! position when the origin node applies it.
//!
//! Crash-recovery models Raft's durability assumption: the nemesis restart
//! path recovers `(term, voted_for, log)` from the crashed process (see
//! [`RaftKvNode::recover`]) and volatile state — commit index, the applied
//! store — is rebuilt by re-delivering committed entries through the
//! normal commit path.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::{Bytes, BytesMut};
use canopus_kv::{ClientReply, ClientRequest, Key, KvStore, Op, OpResult};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_obs::{Counter, EventKind as ObsEvent, Gauge, NodeObs};
use canopus_raft::{DurableState, GroupId, Outbox, RaftConfig, RaftCore, RaftMsg};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Payload, Process, Time, Timer, Work};
use canopus_workload::ProtocolMsg;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TICK: u64 = 1;

/// Messages of the Raft KV service.
#[derive(Clone, Debug, PartialEq)]
pub enum RaftKvMsg {
    /// Raft group traffic.
    Raft(RaftMsg),
    /// Client submits an operation to its local node.
    Request(ClientRequest),
    /// A non-leader forwards a request to the leader on behalf of `origin`
    /// (the node that owes the client its reply).
    Forward {
        /// Node that received the request from its client.
        origin: NodeId,
        /// The request.
        req: ClientRequest,
    },
    /// Node answers its client.
    Reply(ClientReply),
}

impl Payload for RaftKvMsg {
    fn wire_size(&self) -> usize {
        match self {
            RaftKvMsg::Raft(m) => 1 + m.wire_size(),
            RaftKvMsg::Request(r) => 1 + 13 + r.op.payload_bytes().min(64),
            RaftKvMsg::Forward { req, .. } => 1 + 17 + req.op.payload_bytes().min(64),
            RaftKvMsg::Reply(_) => 1 + 14,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            RaftKvMsg::Raft(_) => "raft",
            RaftKvMsg::Request(_) => "request",
            RaftKvMsg::Forward { .. } => "forward",
            RaftKvMsg::Reply(_) => "reply",
        }
    }
}

impl ProtocolMsg for RaftKvMsg {
    fn request(req: ClientRequest) -> Self {
        RaftKvMsg::Request(req)
    }
    fn reply(&self) -> Option<&ClientReply> {
        match self {
            RaftKvMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

// Wire encoding so the service also runs over the real TCP transport
// (the live chaos suite drives it across loopback sockets).
impl Wire for RaftKvMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RaftKvMsg::Raft(m) => {
                0u8.encode(buf);
                m.encode(buf);
            }
            RaftKvMsg::Request(r) => {
                1u8.encode(buf);
                r.encode(buf);
            }
            RaftKvMsg::Forward { origin, req } => {
                2u8.encode(buf);
                origin.encode(buf);
                req.encode(buf);
            }
            RaftKvMsg::Reply(r) => {
                3u8.encode(buf);
                r.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match buf.read_u8()? {
            0 => RaftKvMsg::Raft(Wire::decode(buf)?),
            1 => RaftKvMsg::Request(Wire::decode(buf)?),
            2 => RaftKvMsg::Forward {
                origin: Wire::decode(buf)?,
                req: Wire::decode(buf)?,
            },
            3 => RaftKvMsg::Reply(Wire::decode(buf)?),
            _ => return Err(WireError::Invalid("RaftKvMsg tag")),
        })
    }
}

/// Raft KV configuration.
#[derive(Clone, Debug)]
pub struct RaftKvConfig {
    /// Raft timing parameters.
    pub raft: RaftConfig,
    /// Housekeeping tick (drives heartbeats and election timeouts).
    pub tick_interval: Dur,
}

impl Default for RaftKvConfig {
    fn default() -> Self {
        RaftKvConfig {
            raft: RaftConfig::default(),
            tick_interval: Dur::millis(1),
        }
    }
}

/// Counters exposed by every node.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RaftKvStats {
    /// Entries applied to the store (weighted).
    pub applied_weight: u64,
    /// Requests from this node's own clients completed (weighted).
    pub own_completed: u64,
    /// Requests forwarded to a leader.
    pub forwards: u64,
}

/// How a node boots: fresh, or recovering durable Raft state after a crash.
enum Boot {
    Fresh { initial_leader: bool },
    Recovered(DurableState),
}

/// One node of the Raft KV service.
pub struct RaftKvNode {
    cfg: RaftKvConfig,
    me: NodeId,
    members: Vec<NodeId>,
    rng: SmallRng,
    boot: Option<Boot>,
    core: Option<RaftCore>,
    leader_hint: Option<NodeId>,
    /// Own-client requests parked while no leader is known.
    queued: VecDeque<ClientRequest>,
    store: KvStore,
    /// Full applied order `(client, op_id)`, for agreement checks.
    applied: Vec<(NodeId, u64)>,
    /// Per-key applied write order with local apply times.
    write_log: BTreeMap<Key, Vec<(NodeId, u64, Time)>>,
    /// Own-client requests that were already in the log before a crash:
    /// re-delivering them after recovery rebuilds the store but must not
    /// re-send client replies or re-count completions. Keyed on request
    /// identity, not log index — conflict truncation recycles indices, so
    /// an index bound would also swallow replies for fresh post-crash
    /// requests. (At-most-once on the ambiguity window: a pre-crash entry
    /// whose reply never went out is also suppressed — the client's
    /// timeout covers it.)
    replayed: BTreeSet<(NodeId, u64)>,
    stats: RaftKvStats,
    obs: RaftKvObs,
    /// Highest Raft term this node has observed (election detection).
    obs_last_term: u64,
    /// Last leader this node recorded a `LeaderChange` for.
    obs_last_leader: Option<NodeId>,
}

/// Pre-registered observability handles (all no-ops unless
/// [`RaftKvNode::with_obs`] installed an enabled hub).
struct RaftKvObs {
    hub: NodeObs,
    elections: Counter,
    leader_changes: Counter,
    commit_lag: Gauge,
}

impl RaftKvObs {
    fn from_hub(hub: NodeObs) -> Self {
        RaftKvObs {
            elections: hub.metrics.counter("raftkv.elections"),
            leader_changes: hub.metrics.counter("raftkv.leader_changes"),
            commit_lag: hub.metrics.gauge("raftkv.commit_lag"),
            hub,
        }
    }
}

impl RaftKvNode {
    /// Creates a node; `members[0]` boots as the initial leader. The list
    /// must be identical at every member.
    pub fn new(me: NodeId, members: Vec<NodeId>, cfg: RaftKvConfig, seed: u64) -> Self {
        assert!(members.contains(&me));
        let initial_leader = members[0] == me;
        RaftKvNode {
            rng: SmallRng::seed_from_u64(seed ^ ((me.0 as u64) << 24) ^ 0x4b56),
            cfg,
            me,
            leader_hint: Some(members[0]),
            members,
            boot: Some(Boot::Fresh { initial_leader }),
            core: None,
            queued: VecDeque::new(),
            store: KvStore::new(),
            applied: Vec::new(),
            write_log: BTreeMap::new(),
            replayed: BTreeSet::new(),
            stats: RaftKvStats::default(),
            obs: RaftKvObs::from_hub(NodeObs::disabled()),
            obs_last_term: 0,
            obs_last_leader: None,
        }
    }

    /// Installs an observability hub (metrics + flight recorder). Builder
    /// style so existing `new`/`recover` call sites stay unchanged.
    pub fn with_obs(mut self, hub: NodeObs) -> Self {
        self.obs = RaftKvObs::from_hub(hub);
        self
    }

    /// This node's observability hub (disabled unless installed).
    pub fn obs(&self) -> &NodeObs {
        &self.obs.hub
    }

    /// Records election / leader-change flight events and refreshes the
    /// commit-lag gauge from the core's current state. One branch per
    /// call when observability is disabled.
    fn observe_core(&mut self, now: Time) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let Some(core) = self.core.as_ref() else {
            return;
        };
        let term = core.term();
        if term > self.obs_last_term {
            self.obs_last_term = term;
            self.obs.elections.inc();
            self.obs
                .hub
                .event(now.as_nanos(), ObsEvent::Election { term });
        }
        let leader = if core.is_leader() {
            Some(self.me)
        } else {
            self.leader_hint
        };
        if leader != self.obs_last_leader {
            self.obs_last_leader = leader;
            if let Some(l) = leader {
                self.obs.leader_changes.inc();
                self.obs
                    .hub
                    .event(now.as_nanos(), ObsEvent::LeaderChange { term, leader: l.0 });
            }
        }
        self.obs
            .commit_lag
            .set(core.log_len().saturating_sub(core.commit_index()) as i64);
    }

    /// Builds a replacement node from a crashed one, recovering the state
    /// Raft requires to be durable (term, vote, log). Everything else —
    /// commit index, the store — is volatile and is rebuilt when committed
    /// entries re-deliver.
    pub fn recover(old: &RaftKvNode, seed: u64) -> Self {
        let mut node = RaftKvNode::new(old.me, old.members.clone(), old.cfg.clone(), seed);
        if let Some(core) = old.core.as_ref() {
            // This node never compacts its Raft log: the store is rebuilt by
            // replaying it from the first entry.
            let state = core.persistent_state();
            for entry in state.log.iter().filter(|e| !e.data.is_empty()) {
                if let Some((origin, req)) = Self::decode_entry(entry.data.clone()) {
                    if origin == old.me {
                        node.replayed.insert((req.client, req.op_id));
                    }
                }
            }
            node.boot = Some(Boot::Recovered(state));
        }
        node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Counters.
    pub fn stats(&self) -> RaftKvStats {
        self.stats
    }

    /// The replicated store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Whether this node currently leads the group.
    pub fn is_leader(&self) -> bool {
        self.core.as_ref().is_some_and(|c| c.is_leader())
    }

    /// The applied order as `(client, op_id)`, for agreement checks.
    pub fn applied_log(&self) -> &[(NodeId, u64)] {
        &self.applied
    }

    /// Per-key applied write order with this node's apply times.
    pub fn write_log_timed(&self) -> &BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        &self.write_log
    }

    fn encode_entry(origin: NodeId, req: &ClientRequest) -> bytes::Bytes {
        let mut buf = BytesMut::new();
        origin.encode(&mut buf);
        req.encode(&mut buf);
        buf.freeze()
    }

    fn decode_entry(data: bytes::Bytes) -> Option<(NodeId, ClientRequest)> {
        let mut buf = data;
        let origin = NodeId::decode(&mut buf).ok()?;
        let req = ClientRequest::decode(&mut buf).ok()?;
        Some((origin, req))
    }

    fn flush_raft(&mut self, out: Outbox, ctx: &mut Context<'_, RaftKvMsg>) {
        for (to, msg) in out {
            ctx.send(to, RaftKvMsg::Raft(msg));
        }
    }

    /// Proposes (leader) or forwards a request owed to `origin`.
    fn submit(&mut self, origin: NodeId, req: ClientRequest, ctx: &mut Context<'_, RaftKvMsg>) {
        let core = self.core.as_mut().expect("started");
        if core.is_leader() {
            let data = Self::encode_entry(origin, &req);
            let mut out = Outbox::new();
            // Cannot fail: propose only rejects non-leaders, checked above.
            core.propose(data, ctx.now(), &mut out);
            self.flush_raft(out, ctx);
            self.deliver_committed(ctx);
            return;
        }
        match self.leader_hint {
            Some(leader) if leader != self.me => {
                self.stats.forwards += 1;
                ctx.send(leader, RaftKvMsg::Forward { origin, req });
            }
            _ => {
                if origin == self.me {
                    self.queued.push_back(req);
                }
                // A forward with no better hint is dropped; the client's
                // timeout covers it.
            }
        }
    }

    fn deliver_committed(&mut self, ctx: &mut Context<'_, RaftKvMsg>) {
        let delivered = self.core.as_mut().expect("started").take_delivered();
        for (_index, data) in delivered {
            let Some((origin, req)) = Self::decode_entry(data) else {
                continue;
            };
            let weight = req.op.weight();
            ctx.work(Work::Apply, weight.into());
            self.stats.applied_weight += weight as u64;
            self.applied.push((req.client, req.op_id));
            let result = match &req.op {
                Op::Put { key, value } => {
                    self.store.put(*key, value);
                    self.write_log.entry(*key).or_default().push((
                        req.client,
                        req.op_id,
                        ctx.now(),
                    ));
                    OpResult::Written
                }
                Op::Get { key } => OpResult::Value(self.store.get_value(*key)),
                Op::SyntheticWrite { .. } | Op::SyntheticRead { .. } => OpResult::Batch,
                Op::MultiPut { puts } => {
                    for (key, value) in puts {
                        self.store.put(*key, value);
                        self.write_log.entry(*key).or_default().push((
                            req.client,
                            req.op_id,
                            ctx.now(),
                        ));
                    }
                    OpResult::Written
                }
            };
            if origin == self.me && !self.replayed.contains(&(req.client, req.op_id)) {
                self.stats.own_completed += weight as u64;
                ctx.send(
                    req.client,
                    RaftKvMsg::Reply(ClientReply {
                        op_id: req.op_id,
                        weight,
                        result,
                    }),
                );
            }
        }
    }
}

impl Process<RaftKvMsg> for RaftKvNode {
    fn on_start(&mut self, ctx: &mut Context<'_, RaftKvMsg>) {
        let now = ctx.now();
        let core = match self.boot.take().expect("boot config present") {
            Boot::Fresh { initial_leader } => RaftCore::new(
                GroupId(0),
                self.me,
                self.members.clone(),
                self.cfg.raft,
                initial_leader,
                now,
                &mut self.rng,
            ),
            Boot::Recovered(state) => RaftCore::restore(
                GroupId(0),
                self.me,
                self.members.clone(),
                self.cfg.raft,
                now,
                &mut self.rng,
                state,
            ),
        };
        self.core = Some(core);
        ctx.set_timer(self.cfg.tick_interval, TICK);
    }

    fn on_message(&mut self, from: NodeId, msg: RaftKvMsg, ctx: &mut Context<'_, RaftKvMsg>) {
        ctx.work(Work::Message, 1);
        match msg {
            RaftKvMsg::Raft(m) => {
                // Only an acting leader sends AppendEntries; remember it.
                if matches!(m, RaftMsg::AppendEntries { .. }) {
                    self.leader_hint = Some(from);
                }
                let mut out = Outbox::new();
                {
                    let core = self.core.as_mut().expect("started");
                    core.handle(from, m, ctx.now(), &mut self.rng, &mut out);
                }
                self.flush_raft(out, ctx);
                self.deliver_committed(ctx);
                self.observe_core(ctx.now());
            }
            RaftKvMsg::Request(req) => {
                ctx.work(Work::Request, req.op.weight().into());
                self.submit(self.me, req, ctx);
            }
            RaftKvMsg::Forward { origin, req } => self.submit(origin, req, ctx),
            RaftKvMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, RaftKvMsg>) {
        if timer.token != TICK {
            return;
        }
        let mut out = Outbox::new();
        {
            let core = self.core.as_mut().expect("started");
            core.tick(ctx.now(), &mut self.rng, &mut out);
            if core.is_leader() {
                self.leader_hint = Some(self.me);
            }
        }
        self.flush_raft(out, ctx);
        self.deliver_committed(ctx);
        // Retry parked requests once a leader is known (or we became one).
        if !self.queued.is_empty()
            && (self.core.as_ref().expect("started").is_leader()
                || self.leader_hint.is_some_and(|l| l != self.me))
        {
            let queued: Vec<ClientRequest> = self.queued.drain(..).collect();
            for req in queued {
                self.submit(self.me, req, ctx);
            }
        }
        self.observe_core(ctx.now());
        ctx.set_timer(self.cfg.tick_interval, TICK);
    }

    impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use canopus_sim::{Simulation, UniformFabric};

    fn build(n: u32, seed: u64) -> (Simulation<RaftKvMsg, UniformFabric>, Vec<NodeId>) {
        let mut sim = Simulation::new(UniformFabric::new(Dur::micros(80)), seed);
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        for &id in &members {
            sim.add_node(Box::new(RaftKvNode::new(
                id,
                members.clone(),
                RaftKvConfig::default(),
                seed,
            )));
        }
        (sim, members)
    }

    struct TestClient {
        target: NodeId,
        ops: Vec<(Dur, Op)>,
        cursor: usize,
        replies: Vec<(u64, OpResult, Time)>,
    }

    impl TestClient {
        fn arm(&self, ctx: &mut Context<'_, RaftKvMsg>) {
            if let Some((when, _)) = self.ops.get(self.cursor) {
                let at = Time::ZERO + *when;
                ctx.set_timer(at.saturating_since(ctx.now()), 0);
            }
        }
    }

    impl Process<RaftKvMsg> for TestClient {
        fn on_start(&mut self, ctx: &mut Context<'_, RaftKvMsg>) {
            self.arm(ctx);
        }
        fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, RaftKvMsg>) {
            let (_, op) = self.ops[self.cursor].clone();
            let op_id = self.cursor as u64;
            self.cursor += 1;
            ctx.send(
                self.target,
                RaftKvMsg::Request(ClientRequest {
                    client: ctx.id(),
                    op_id,
                    op,
                }),
            );
            self.arm(ctx);
        }
        fn on_message(&mut self, _f: NodeId, msg: RaftKvMsg, ctx: &mut Context<'_, RaftKvMsg>) {
            if let RaftKvMsg::Reply(r) = msg {
                self.replies.push((r.op_id, r.result, ctx.now()));
            }
        }
        impl_process_any!();
    }

    fn put(key: u64, tag: u8) -> Op {
        Op::Put {
            key,
            value: Bytes::from(vec![tag; 8]),
        }
    }

    #[test]
    fn writes_replicate_and_reads_see_them() {
        let (mut sim, _) = build(5, 1);
        // Client on a follower: write then read the same key.
        let client = sim.add_node(Box::new(TestClient {
            target: NodeId(3),
            ops: vec![
                (Dur::millis(5), put(7, 9)),
                (Dur::millis(40), Op::Get { key: 7 }),
            ],
            cursor: 0,
            replies: Vec::new(),
        }));
        sim.run_for(Dur::millis(120));
        let replies = &sim.node::<TestClient>(client).replies;
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].1, OpResult::Written);
        match &replies[1].1 {
            OpResult::Value(Some(v)) => assert_eq!(v[0], 9),
            other => panic!("unexpected read result {other:?}"),
        }
        // Every replica applied the write in the same order.
        let reference = sim.node::<RaftKvNode>(NodeId(0)).applied_log().to_vec();
        assert_eq!(reference.len(), 2);
        for i in 1..5u32 {
            let log = sim.node::<RaftKvNode>(NodeId(i)).applied_log();
            assert!(reference.starts_with(log) || log.starts_with(&reference));
        }
    }

    #[test]
    fn leader_crash_elects_and_recovered_node_rejoins() {
        let (mut sim, members) = build(5, 2);
        let client = sim.add_node(Box::new(TestClient {
            target: NodeId(2),
            ops: (0..30)
                .map(|k| (Dur::millis(4 * k + 1), put(k, (k + 1) as u8)))
                .collect(),
            cursor: 0,
            replies: Vec::new(),
        }));
        sim.run_for(Dur::millis(10));
        sim.crash(NodeId(0));
        sim.run_for(Dur::millis(90));
        // A new leader exists among the survivors and writes flow again.
        let leaders: Vec<NodeId> = members[1..]
            .iter()
            .copied()
            .filter(|&n| sim.node::<RaftKvNode>(n).is_leader())
            .collect();
        assert_eq!(leaders.len(), 1, "exactly one live leader");
        // Restart node 0 with recovered durable state; it must rejoin as a
        // follower and catch up.
        let old = sim.take_crashed(NodeId(0)).expect("crashed process");
        let old = old.into_any().downcast::<RaftKvNode>().expect("type");
        sim.restart(NodeId(0), Box::new(RaftKvNode::recover(&old, 2)));
        sim.run_for(Dur::millis(300));
        assert!(
            !sim.node::<RaftKvNode>(NodeId(0)).is_leader() || {
                // It may legitimately win a later election once caught up; in
                // either case its log must match the reference.
                true
            }
        );
        let replies = sim.node::<TestClient>(client).replies.len();
        assert!(replies >= 25, "most writes completed: {replies}/30");
        let reference = sim.node::<RaftKvNode>(NodeId(1)).applied_log().to_vec();
        let recovered = sim.node::<RaftKvNode>(NodeId(0)).applied_log();
        assert!(
            reference.starts_with(recovered) || recovered.starts_with(&reference),
            "recovered log diverged"
        );
    }

    #[test]
    fn entry_codec_round_trips() {
        let req = ClientRequest {
            client: NodeId(11),
            op_id: 42,
            op: put(3, 1),
        };
        let data = RaftKvNode::encode_entry(NodeId(4), &req);
        let (origin, back) = RaftKvNode::decode_entry(data).expect("decode");
        assert_eq!(origin, NodeId(4));
        assert_eq!(back, req);
    }
}
