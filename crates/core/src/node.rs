//! The Canopus pnode: one transport identity hosting one LOT pipeline per
//! key-space shard.
//!
//! Canopus totally orders *everything* through one LOT pipeline, but most
//! KV traffic is single-key and only needs per-key order. A
//! [`CanopusNode`] therefore hosts `cfg.shards` [`Lane`]s — each a complete
//! protocol state machine with its own cycle pipeline, batching window,
//! broadcast-group logs, failure detector and store — all
//! behind one transport identity (one socket set on TCP, one sim node), and
//! routes every client request to the lane that owns it
//! ([`canopus_kv::ShardRouter`]). With the default of one shard the node
//! *is* its lane: the paper's pnode, unchanged to the event.
//!
//! ## Frames, seeds and timers
//!
//! A lane reaches the world through a `LaneCtx`, a view of the node's
//! real [`Context`] that marks what the lane does as the lane's:
//!
//! * A node with more than one lane wraps every protocol frame in
//!   [`CanopusMsg::Lane`], which steers it to the same lane — and, in the
//!   simulator, the same CPU lane — of the receiving node, so shards commit
//!   concurrently instead of queueing behind one per-node CPU clock. A node
//!   with one lane sends bare frames, and a bare frame belongs to lane 0.
//!   Replies are never wrapped; they pass through the transaction join
//!   below at the point the lane sends them.
//! * A timer token carries the lane in its high bits
//!   (`pack_token` / `unpack_token`). Timer ids are the real context's,
//!   so a lane cancels a timer like any process does.
//! * Lane 0 runs on the node's seed; lane `s > 0` on a stream derived from
//!   it, so proposal numbers and Raft timeouts do not correlate across
//!   lanes.
//!
//! Effects go straight to the real context in the order the lane produces
//! them: nothing is buffered, replayed or renumbered.
//!
//! ## Cross-shard transactions: the anchor-shard protocol
//!
//! A multi-key write ([`Op::MultiPut`]) touching several shards is split
//! into per-shard parts that share the client's `(client, op_id)`
//! identity, and runs a deterministic two-phase commit with no extra
//! wire messages:
//!
//! 1. **Sequence** — every touched shard independently orders its part in
//!    its own LOT. LOT cycles never abort, so once a part is in a shard's
//!    request set its commitment is inevitable; there is no prepare/abort
//!    vote to take.
//! 2. **Anchor** — the *anchor shard* (the lowest touched shard id, a
//!    pure function of the key set) fixes the transaction's position in
//!    the cross-shard serialization: the transaction is considered
//!    committed at the anchor part's commit position, and the node
//!    releases the single client reply only when every part has applied.
//!
//! Atomicity follows from the no-abort property: either the client's
//! request reached the node (and then every part eventually commits on
//! every correct node of its shard) or it did not; the chaos verdict
//! checks exactly this all-or-nothing presence across per-shard logs.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use canopus_kv::{shard_hash, ClientReply, ClientRequest, KvStore, Op, OpResult, ShardRouter};
use canopus_obs::NodeObs;
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Timer, TimerId};

use crate::config::CanopusConfig;
use crate::emulation::EmulationTable;
use crate::lane::{CanopusStats, CommittedCycle, Lane};
use crate::msg::CanopusMsg;
use crate::types::CycleId;

/// Bits of a timer token holding the lane's own token; the lane id lives
/// above them. Lane tokens are tiny constants (tick, batching window).
const TOKEN_BITS: u32 = 32;

fn pack_token(lane: u16, token: u64) -> u64 {
    debug_assert!(token < 1 << TOKEN_BITS, "lane token too wide");
    (u64::from(lane) << TOKEN_BITS) | token
}

/// `(lane, the lane's own token)` of a token made by [`pack_token`].
fn unpack_token(token: u64) -> (u16, u64) {
    (
        (token >> TOKEN_BITS) as u16,
        token & ((1 << TOKEN_BITS) - 1),
    )
}

/// Cross-shard transactions whose parts have not all committed here, and
/// how many there have been.
#[derive(Debug, Default)]
struct TxnJoin {
    /// `(client, op_id)` → parts still to commit.
    open: BTreeMap<(NodeId, u64), u32>,
    started: u64,
    committed: u64,
}

impl TxnJoin {
    /// Passes a lane's client reply through the transaction table: a part
    /// of a cross-shard transaction releases the single client reply only
    /// when it is the last part to commit.
    fn resolve(&mut self, client: NodeId, reply: ClientReply) -> Option<ClientReply> {
        let key = (client, reply.op_id);
        let Some(parts_remaining) = self.open.get_mut(&key) else {
            return Some(reply); // single-shard op: pass through
        };
        *parts_remaining -= 1;
        if *parts_remaining > 0 {
            return None;
        }
        self.open.remove(&key);
        self.committed += 1;
        Some(ClientReply {
            op_id: reply.op_id,
            weight: 1,
            result: OpResult::Written,
        })
    }
}

/// What a lane sees of the node's context (see the module docs): sends and
/// timer armings are marked as the lane's, everything else — the clock, work
/// reports, timer cancellation — is the real context's, by deref.
pub(crate) struct LaneCtx<'a, 'c> {
    ctx: &'a mut Context<'c, CanopusMsg>,
    lane: u16,
    /// Whether protocol frames carry the lane: the node has several.
    tagged: bool,
    txns: &'a mut TxnJoin,
}

impl<'c> Deref for LaneCtx<'_, 'c> {
    type Target = Context<'c, CanopusMsg>;
    fn deref(&self) -> &Self::Target {
        self.ctx
    }
}

impl DerefMut for LaneCtx<'_, '_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ctx
    }
}

impl LaneCtx<'_, '_> {
    pub(crate) fn send(&mut self, to: NodeId, msg: CanopusMsg) {
        let msg = match msg {
            CanopusMsg::Reply(reply) => match self.txns.resolve(to, reply) {
                Some(reply) => CanopusMsg::Reply(reply),
                None => return,
            },
            msg if self.tagged => CanopusMsg::Lane {
                lane: self.lane,
                msg: Box::new(msg),
            },
            msg => msg,
        };
        self.ctx.send(to, msg);
    }

    pub(crate) fn set_timer(&mut self, after: Dur, token: u64) -> TimerId {
        self.ctx.set_timer(after, pack_token(self.lane, token))
    }
}

/// The Canopus protocol node. Drive it with any [`Process`] runtime — the
/// deterministic simulator or the real TCP transport.
pub struct CanopusNode {
    me: NodeId,
    router: ShardRouter,
    lanes: Vec<Lane>,
    txns: TxnJoin,
}

impl CanopusNode {
    /// Creates a node hosting `cfg.shards` lanes. `table` must be the
    /// identical initial table at every node (paper assumption A1); `seed`
    /// feeds the node's deterministic RNG streams (proposal numbers,
    /// emulator choice, Raft timeouts), one per lane.
    pub fn new(me: NodeId, table: EmulationTable, cfg: CanopusConfig, seed: u64) -> Self {
        let router = ShardRouter::new(cfg.shards);
        let lanes = (0..router.shards())
            .map(|s| {
                let lane_seed = match s {
                    0 => seed,
                    _ => seed ^ shard_hash(0x5AD0_0000 + u64::from(s)),
                };
                Lane::new(me, table.clone(), cfg.clone(), lane_seed)
            })
            .collect();
        CanopusNode {
            me,
            router,
            lanes,
            txns: TxnJoin::default(),
        }
    }

    /// Installs observability hubs (metrics registry + flight recorder),
    /// `hubs[s]` for lane `s`. Builder-style; a lane without a hub carries
    /// a disabled one whose updates cost one branch each.
    pub fn with_obs(mut self, hubs: &[NodeObs]) -> Self {
        for (lane, hub) in self.lanes.iter_mut().zip(hubs) {
            lane.set_obs(hub.clone());
        }
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The op→shard router every node of the deployment shares.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of hosted lanes (`cfg.shards`).
    pub fn lane_count(&self) -> u16 {
        self.router.shards()
    }

    /// Lane `s`, for per-shard inspection (log, stats, store).
    pub fn lane(&self, s: u16) -> &Lane {
        &self.lanes[s as usize]
    }

    /// Cross-shard transactions `(started, fully committed)` at this node:
    /// split into more than one part, and reply released.
    pub fn cross_shard_txns(&self) -> (u64, u64) {
        (self.txns.started, self.txns.committed)
    }

    // The accessors below read lane 0 — the whole node unless it is
    // sharded; `lane(s)` reaches the others.

    /// Current counters.
    pub fn stats(&self) -> CanopusStats {
        self.lanes[0].stats()
    }

    /// The commit log (empty unless `cfg.record_log`).
    pub fn committed_log(&self) -> &[CommittedCycle] {
        self.lanes[0].committed_log()
    }

    /// The current emulation table (identical across nodes at equal commit
    /// points; tests compare digests).
    pub fn emulation_table(&self) -> &EmulationTable {
        self.lanes[0].emulation_table()
    }

    /// The replicated store.
    pub fn store(&self) -> &KvStore {
        self.lanes[0].store()
    }

    /// See [`Lane::retained`].
    pub fn retained(&self) -> (usize, usize) {
        self.lanes[0].retained()
    }

    /// Proposal-requests held until the state they ask for is computed
    /// here (lane 0).
    pub fn waiting_requests(&self) -> usize {
        self.lanes[0].waiting_requests()
    }

    /// Highest committed cycle.
    pub fn last_committed(&self) -> CycleId {
        self.lanes[0].last_committed()
    }

    /// Highest started cycle.
    pub fn last_started(&self) -> CycleId {
        self.lanes[0].last_started()
    }

    /// Runs one callback of lane `s` against its view of `ctx`.
    fn drive(
        &mut self,
        s: u16,
        ctx: &mut Context<'_, CanopusMsg>,
        f: impl FnOnce(&mut Lane, &mut LaneCtx<'_, '_>),
    ) {
        let mut view = LaneCtx {
            ctx,
            lane: s,
            tagged: self.lanes.len() > 1,
            txns: &mut self.txns,
        };
        f(&mut self.lanes[s as usize], &mut view);
    }

    /// Routes one client request: single-shard ops go straight to their
    /// owner; a cross-shard `MultiPut` is split into per-shard parts
    /// sharing the client identity, registered in the transaction table.
    fn route_client(
        &mut self,
        from: NodeId,
        req: ClientRequest,
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
        if let Some(s) = self.router.shard_of(req.op_id, &req.op) {
            self.drive(s, ctx, |lane, view| {
                lane.on_message(from, CanopusMsg::Request(req), view)
            });
            return;
        }
        // Cross-shard MultiPut. The anchor (lowest touched shard) is
        // implicit in the split: BTreeMap iteration order delivers the
        // anchor part first, and the reply releases when all parts have
        // committed.
        let Op::MultiPut { puts } = &req.op else {
            unreachable!("only MultiPut can span shards");
        };
        let parts = self.router.split_multi(puts);
        debug_assert!(parts.len() > 1, "single-shard multiput routed above");
        self.txns
            .open
            .insert((req.client, req.op_id), parts.len() as u32);
        self.txns.started += 1;
        for (s, shard_puts) in parts {
            let part = ClientRequest {
                client: req.client,
                op_id: req.op_id,
                op: Op::MultiPut { puts: shard_puts },
            };
            self.drive(s, ctx, |lane, view| {
                lane.on_message(from, CanopusMsg::Request(part), view)
            });
        }
    }
}

impl Process<CanopusMsg> for CanopusNode {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        for s in 0..self.lane_count() {
            self.drive(s, ctx, |lane, view| lane.on_start(view));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
        match msg {
            CanopusMsg::Request(req) => self.route_client(from, req, ctx),
            CanopusMsg::Lane { lane, msg } => {
                // A frame for a lane this node does not host (a peer
                // configured with more shards) is dropped.
                if lane < self.lane_count() {
                    self.drive(lane, ctx, |l, view| l.on_message(from, *msg, view));
                }
            }
            bare => self.drive(0, ctx, |lane, view| lane.on_message(from, bare, view)),
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        let (s, token) = unpack_token(timer.token);
        // Timer work belongs to the lane's CPU (cycle starts, linger
        // fires — the CPU-heavy paths).
        ctx.use_lane(u64::from(s));
        self.drive(s, ctx, |lane, view| lane.on_timer(token, view));
    }

    impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LotShape, VnodeId};
    use bytes::Bytes;
    use canopus_sim::{Effect, Payload, Time};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn table() -> EmulationTable {
        EmulationTable::new(
            LotShape::flat(1),
            vec![vec![NodeId(0), NodeId(1), NodeId(2)]],
        )
    }

    fn node(shards: u16) -> CanopusNode {
        let cfg = CanopusConfig {
            shards,
            ..CanopusConfig::default()
        };
        CanopusNode::new(NodeId(0), table(), cfg, 11)
    }

    /// Runs `f` against a context nobody drives and returns what it did.
    fn effects_of(f: impl FnOnce(&mut Context<'_, CanopusMsg>)) -> Vec<Effect<CanopusMsg>> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seq = 0;
        let mut ctx = Context::detached(Time::ZERO, NodeId(0), &mut rng, &mut seq);
        f(&mut ctx);
        ctx.into_effects().0
    }

    fn fetch() -> CanopusMsg {
        CanopusMsg::ProposalRequest {
            cycle: CycleId(1),
            vnode: VnodeId(vec![0]),
        }
    }

    #[test]
    fn timer_tokens_pack_and_unpack_the_lane() {
        for (lane, token) in [(0, 1), (0, 3), (3, 2), (u16::MAX, (1 << TOKEN_BITS) - 1)] {
            assert_eq!(unpack_token(pack_token(lane, token)), (lane, token));
        }
        assert_eq!(pack_token(0, 3), 3, "lane 0's tokens are the bare ones");

        let mut node = node(4);
        let armed: std::collections::BTreeSet<u16> = effects_of(|ctx| node.on_start(ctx))
            .iter()
            .filter_map(|e| match e {
                Effect::SetTimer { token, .. } => Some(unpack_token(*token).0),
                _ => None,
            })
            .collect();
        assert_eq!(armed, (0..4).collect(), "every lane armed its tick");
    }

    #[test]
    fn one_lane_sends_bare_frames() {
        let mut node = node(1);
        let sent = effects_of(|ctx| node.drive(0, ctx, |_, view| view.send(NodeId(1), fetch())));
        assert!(matches!(&sent[..], [Effect::Send { msg, .. }] if *msg == fetch()));
    }

    /// The case the detached-context replay of the old sharding wrapper
    /// could not serve: a lane's timer id is the real one, so cancelling
    /// it cancels it.
    #[test]
    fn a_lane_of_four_cancels_a_timer_on_the_real_context() {
        let mut node = node(4);
        let effects = effects_of(|ctx| {
            node.drive(2, ctx, |_, view| {
                let id = view.set_timer(Dur::millis(1), 3);
                view.cancel_timer(id);
            })
        });
        let [Effect::SetTimer { id, token, .. }, Effect::CancelTimer { id: cancelled }] =
            &effects[..]
        else {
            panic!("an arming and its cancellation, got {effects:?}");
        };
        assert_eq!(id, cancelled);
        assert_eq!(unpack_token(*token), (2, 3));
    }

    #[test]
    fn a_frame_for_a_lane_the_node_does_not_host_is_dropped() {
        let frame = |lane| CanopusMsg::Lane {
            lane,
            msg: Box::new(fetch()),
        };
        let mut node = node(4);
        effects_of(|ctx| node.on_start(ctx));
        // A proposal-request for a cycle a lane has not started prompts it
        // to start that cycle (§4.4): the trace a frame leaves.
        let prompted = |node: &CanopusNode, s| node.lane(s).last_started() == CycleId(1);
        effects_of(|ctx| node.on_message(NodeId(1), frame(3), ctx));
        assert!(prompted(&node, 3));
        effects_of(|ctx| node.on_message(NodeId(1), frame(4), ctx));
        effects_of(|ctx| node.on_message(NodeId(1), frame(u16::MAX), ctx));
        assert!(
            (0..3).all(|s| !prompted(&node, s)),
            "no other lane took one"
        );
        // A bare frame is lane 0's.
        effects_of(|ctx| node.on_message(NodeId(1), fetch(), ctx));
        assert!(prompted(&node, 0));
    }

    #[test]
    fn lane_hint_agrees_with_the_router() {
        let router = ShardRouter::new(4);
        let request = |op_id, op| {
            CanopusMsg::Request(ClientRequest {
                client: NodeId(50),
                op_id,
                op,
            })
        };
        for key in 0..200u64 {
            let put = Op::Put {
                key,
                value: Bytes::new(),
            };
            assert_eq!(
                (request(1, put).lane_hint() % 4) as u16,
                router.shard_of_key(key),
                "lane and shard must agree for key {key}"
            );
        }
        // Keyless aggregates: lane and shard follow the op id.
        for op_id in 0..50u64 {
            let read = Op::SyntheticRead { count: 4 };
            assert_eq!(
                Some((request(op_id, read.clone()).lane_hint() % 4) as u16),
                router.shard_of(op_id, &read)
            );
            assert_eq!(router.shard_of(op_id, &read), Some((op_id % 4) as u16));
        }
    }

    #[test]
    fn cross_shard_txn_releases_one_reply_when_all_parts_commit() {
        let mut node = node(4);
        let router = node.router();
        let k0 = (0..).find(|k| router.shard_of_key(*k) == 0).unwrap();
        let k3 = (0..).find(|k| router.shard_of_key(*k) == 3).unwrap();
        let client = NodeId(40);
        let req = ClientRequest {
            client,
            op_id: 5,
            op: Op::MultiPut {
                puts: vec![
                    (k0, Bytes::from_static(b"a")),
                    (k3, Bytes::from_static(b"b")),
                ],
            },
        };
        effects_of(|ctx| node.on_message(client, CanopusMsg::Request(req), ctx));
        assert_eq!(node.cross_shard_txns(), (1, 0));
        assert_eq!(node.txns.open.len(), 1);

        // Both parts commit: each lane sends its reply through its view,
        // which swallows the first and releases exactly one aggregated
        // reply on the last, in its place in the send order.
        let part_reply = || {
            CanopusMsg::Reply(ClientReply {
                op_id: 5,
                weight: 1,
                result: OpResult::Written,
            })
        };
        let first = effects_of(|ctx| node.drive(0, ctx, |_, view| view.send(client, part_reply())));
        assert!(first.is_empty(), "a part is still out: {first:?}");
        let last = effects_of(|ctx| {
            node.drive(3, ctx, |_, view| {
                view.send(NodeId(1), fetch());
                view.send(client, part_reply());
                view.send(NodeId(2), fetch());
            })
        });
        let sent: Vec<_> = last
            .into_iter()
            .map(|e| match e {
                Effect::Send { to, msg } => (to, msg),
                other => panic!("unexpected effect {other:?}"),
            })
            .collect();
        // Protocol frames of a node with several lanes carry the lane.
        let tagged = CanopusMsg::Lane {
            lane: 3,
            msg: Box::new(fetch()),
        };
        assert_eq!(
            sent,
            [
                (NodeId(1), tagged.clone()),
                (client, part_reply()),
                (NodeId(2), tagged)
            ]
        );
        assert_eq!(node.cross_shard_txns(), (1, 1));
        assert!(node.txns.open.is_empty());

        // Unrelated replies pass through untouched, and untagged.
        let plain = CanopusMsg::Reply(ClientReply {
            op_id: 99,
            weight: 1,
            result: OpResult::Batch,
        });
        let sent = effects_of(|ctx| node.drive(1, ctx, |_, view| view.send(client, plain.clone())));
        assert!(matches!(&sent[..], [Effect::Send { msg, .. }] if *msg == plain));
    }
}
