//! One LOT pipeline of a Canopus pnode: the complete protocol state
//! machine (paper §4–§7).
//!
//! A [`Lane`] is everything the paper calls a pnode except the transport
//! identity, which the hosting [`crate::CanopusNode`] owns: an unsharded
//! node is exactly one lane. It embeds the super-leaf reliable
//! broadcast (per-member Raft groups, §4.3), executes consensus cycles of
//! `h` rounds over the LOT (§4.2), self-synchronizes on outside prompting
//! (§4.4), acts as a super-leaf representative fetching remote vnode states
//! (§4.5), maintains the emulation table through committed membership
//! updates (§4.6), and linearizes reads by delaying them one or two cycles
//! (§5) or through write leases (§7.2).
//!
//! Two decisions are made elsewhere and only carried out here. *When* a
//! cycle starts — work, a full batch, outside prompting, how many cycles may
//! be in flight (§4.4, §7.1) — is the `CycleClock`'s (`clock.rs`); the lane
//! reports what the rule reads and does what it says. And *that a broadcast
//! arrives* although a peer may have usurped this member's group meanwhile
//! is [`SuperLeafBroadcast`]'s promise: the lane hands an item over once.
//!
//! The broadcast groups compact their logs (everything delivered locally and
//! held by every member goes), so a member that restarts without its logs
//! cannot replay them. Its groups report that (`needs_snapshot`) and the
//! lane asks a super-leaf peer for a [`Snapshot`] — the replicated part of
//! the peer's state plus where it stands in each group's log — takes it
//! over wholesale, and follows the deliveries from there. That is state
//! transfer only: such a node is still tombstoned and stays excluded.
//!
//! Failure handling follows the paper's crash-stop model: peer silence is
//! detected by heartbeat timeout; the survivor that wins the dead member's
//! broadcast group election appends a **tombstone** to that group's log.
//! Because the tombstone is totally ordered with the member's own proposals
//! (same Raft log), every survivor draws the identical boundary between
//! cycles the dead member contributed to and cycles it is excluded from —
//! making the proof's "excluded from contributing to the state of the
//! super-leaf" step explicit and deterministic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use canopus_kv::{ClientReply, ClientRequest, Key, KvStore, Op, OpResult};
use canopus_net::wire::Wire;
use canopus_obs::{Counter, EventKind as ObsEvent, Gauge, Histogram, NodeObs};
use canopus_raft::{Delivery, FailureDetector, Outbox, SuperLeafBroadcast};
use canopus_sim::{NodeId, Time, Work};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::{CycleClock, Decision};
use crate::config::{CanopusConfig, ReadMode};
use crate::emulation::EmulationTable;
use crate::msg::{BroadcastItem, CanopusMsg, Snapshot};
use crate::node::LaneCtx;
use crate::proposal::{
    MembershipUpdate, OpBlock, OpView, RequestSet, TimedOp, VnodeState, WriteView,
};
use crate::types::{CycleId, VnodeId};

/// Timer tokens: the housekeeping tick, and the close of the batching
/// window (`clock.rs`).
const TICK: u64 = 1;
const WINDOW: u64 = 2;

/// Super-leaf representatives fetching remote vnode states (§4.5).
const REPRESENTATIVES: usize = 2;
/// Representatives that fetch each vnode state. The paper's example uses 2
/// for fault tolerance; here a fetch that times out is retried with
/// another emulator and a stalled cycle is rescued by any member.
const FETCH_REDUNDANCY: usize = 1;
/// Cycles a write lease stays active after the cycle that granted it
/// (§7.2).
const LEASE_SPAN: u64 = 8;
/// Committed cycles kept for answering late proposal-requests from lagging
/// super-leaves.
const STATE_RETENTION: u64 = 64;

/// One committed operation, as recorded in the commit log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommittedOp {
    /// A key-value write; `version` is the key's version after this write.
    Put {
        /// Requesting client.
        client: NodeId,
        /// Client-assigned id.
        op_id: u64,
        /// Key written.
        key: Key,
        /// Version produced.
        version: u64,
    },
    /// An aggregated synthetic write batch.
    Synthetic {
        /// Requesting client.
        client: NodeId,
        /// Client-assigned id.
        op_id: u64,
        /// Requests represented.
        count: u32,
    },
    /// An atomic multi-key write (the part of a cross-shard transaction
    /// sequenced in this instance's LOT, or a whole single-shard one).
    MultiPut {
        /// Requesting client.
        client: NodeId,
        /// Client-assigned id (shared across all shards' parts).
        op_id: u64,
        /// Keys written, in client order.
        keys: Vec<Key>,
    },
}

/// One origin's committed request set within a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedSet {
    /// The origin node.
    pub origin: NodeId,
    /// Its operations, in FIFO order.
    pub ops: Vec<CommittedOp>,
}

/// The commit record of one cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedCycle {
    /// The cycle.
    pub cycle: CycleId,
    /// Local commit time.
    pub at: Time,
    /// The total order of request sets.
    pub sets: Vec<CommittedSet>,
}

/// Counters exposed by every lane.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CanopusStats {
    /// Cycles committed.
    pub committed_cycles: u64,
    /// Client write requests committed (all origins, weighted).
    pub committed_weight: u64,
    /// Write requests from this node's own clients (weighted).
    pub own_writes: u64,
    /// Reads served to this node's clients (weighted).
    pub reads_served: u64,
    /// Reads served immediately under the lease optimization.
    pub lease_fast_reads: u64,
    /// Proposal-requests answered for other super-leaves.
    pub fetches_served: u64,
    /// Running FNV digest of the commit history (agreement checks).
    pub commit_digest: u64,
    /// Sum of (commit − start) across committed cycles, nanoseconds.
    pub cycle_latency_sum_ns: u64,
}

/// A buffered client read awaiting linearization (§5).
#[derive(Clone, Debug)]
struct PendingRead {
    req: ClientRequest,
    /// Commit of this cycle releases the read; 0 = not yet assigned.
    ordering_cycle: CycleId,
    /// Number of own-window writes received before this read — its
    /// interleaving position within the node's own request set.
    write_prefix: usize,
}

/// A representative's in-flight state fetch.
#[derive(Clone, Debug)]
struct Fetch {
    sent_at: Time,
    attempts: u32,
    target: NodeId,
    responded: bool,
}

/// Per-cycle protocol state.
#[derive(Debug, Default)]
struct CycleState {
    started: bool,
    /// When this node started the cycle (broadcast its round-1 proposal).
    started_at: Time,
    /// Last time this cycle made visible progress (used to age-gate the
    /// liveness rescue path).
    last_progress: Time,
    /// Round-1 proposals by proposer.
    round1: BTreeMap<NodeId, VnodeState>,
    /// `ancestors[k]` = computed state of the height-`k+1` ancestor.
    ancestors: Vec<Option<VnodeState>>,
    /// Sibling vnode states delivered via super-leaf broadcast.
    remote: BTreeMap<VnodeId, VnodeState>,
    /// This node's in-flight fetches (as representative).
    fetches: BTreeMap<VnodeId, Fetch>,
    root_done: bool,
    committed: bool,
}

/// One LOT pipeline: cycles, broadcast groups, failure detector, store and
/// counters of its own. Hosted and driven by a [`crate::CanopusNode`].
pub struct Lane {
    cfg: CanopusConfig,
    me: NodeId,
    table: EmulationTable,
    my_superleaf: usize,
    my_parent: VnodeId,
    height: usize,
    rng: SmallRng,
    bcast: Option<SuperLeafBroadcast>,
    fd: FailureDetector,

    // Client intake.
    pending_writes: VecDeque<TimedOp>,
    pending_weight: u64,
    pending_reads: Vec<PendingRead>,
    pending_updates: Vec<MembershipUpdate>,
    /// Lease mode: writes parked until their key's lease activates.
    awaiting_lease: BTreeMap<Key, Vec<TimedOp>>,
    /// Lease mode: keys whose lease we will request in the next proposal.
    requested_leases: BTreeSet<Key>,
    /// Lease mode: key → last cycle its write lease covers.
    lease_until: BTreeMap<Key, u64>,

    // Cycle machinery.
    cycles: BTreeMap<CycleId, CycleState>,
    /// Which cycles have started and committed, and when the next may.
    clock: CycleClock,
    /// Buffered proposal-requests for states not yet computed.
    waiting_requests: Vec<(NodeId, CycleId, VnodeId)>,

    // Exclusion bookkeeping (see module docs). The roster is every node
    // that was ever a member of this super-leaf: round-1 expectations are
    // evaluated against it plus the tombstone/rejoin markers (which are
    // totally ordered within each member's broadcast group and therefore
    // identical at every survivor), never against the mutable emulation
    // table, whose update timing varies across nodes under pipelining.
    superleaf_roster: BTreeSet<NodeId>,
    tombstoned: BTreeMap<NodeId, CycleId>,
    rejoined: BTreeMap<NodeId, CycleId>,
    /// Peers the failure detector reported, whose tombstone has not yet
    /// been delivered: retried every tick until the dead member's group has
    /// a successor leader that lands the tombstone.
    pending_tombstones: BTreeMap<NodeId, Time>,
    /// Remote emulators that timed out a fetch; deprioritized when picking
    /// emulators until they are heard from again (paper §A.4: "marks it as
    /// such, and picks another live emulator").
    remote_suspects: BTreeSet<NodeId>,

    /// State transfer: when the next request may go out, and how many
    /// went (peers are asked in turn).
    state_requests: (Time, usize),

    // Commit products.
    store: KvStore,
    committed_log: Vec<CommittedCycle>,
    stats: CanopusStats,

    // Observability (disabled by default; see [`crate::CanopusNode::with_obs`]).
    obs: CanopusObs,
}

/// Pre-registered observability handles. All of them are no-ops costing
/// one branch per update unless [`crate::CanopusNode::with_obs`] installed an
/// enabled hub.
struct CanopusObs {
    hub: NodeObs,
    cycles_started: Counter,
    cycles_committed: Counter,
    linger_fires: Counter,
    tombstones: Counter,
    rejoins: Counter,
    batch_ops: Histogram,
    batch_weight: Histogram,
    pipeline_occupancy: Histogram,
    in_flight: Gauge,
}

impl CanopusObs {
    fn from_hub(hub: NodeObs) -> Self {
        let m = &hub.metrics;
        CanopusObs {
            cycles_started: m.counter("canopus.cycles_started"),
            cycles_committed: m.counter("canopus.cycles_committed"),
            linger_fires: m.counter("canopus.linger_fires"),
            tombstones: m.counter("canopus.tombstones"),
            rejoins: m.counter("canopus.rejoins"),
            batch_ops: m.histogram("canopus.batch_ops"),
            batch_weight: m.histogram("canopus.batch_weight"),
            pipeline_occupancy: m.histogram("canopus.pipeline_occupancy"),
            in_flight: m.gauge("canopus.in_flight"),
            hub,
        }
    }
}

impl Lane {
    /// Creates the lane of node `me` seeded with `seed` (proposal numbers,
    /// emulator choice, Raft timeouts).
    pub(crate) fn new(me: NodeId, table: EmulationTable, cfg: CanopusConfig, seed: u64) -> Self {
        let my_superleaf = table
            .superleaf_of(me)
            .unwrap_or_else(|| panic!("{me} is not in the emulation table"));
        let shape = table.shape().clone();
        let my_parent = shape.ancestor_of_superleaf(my_superleaf, 1);
        let height = shape.height();
        let peers: Vec<NodeId> = table
            .members_of(my_superleaf)
            .filter(|&p| p != me)
            .collect();
        let fd = FailureDetector::new(&peers, cfg.failure_timeout, Time::ZERO);
        let superleaf_roster: BTreeSet<NodeId> = table.members_of(my_superleaf).collect();
        Lane {
            rng: SmallRng::seed_from_u64(seed ^ (me.0 as u64) << 32),
            clock: CycleClock::new(&cfg),
            cfg,
            me,
            my_superleaf,
            my_parent,
            height,
            table,
            bcast: None,
            fd,
            pending_writes: VecDeque::new(),
            pending_weight: 0,
            pending_reads: Vec::new(),
            pending_updates: Vec::new(),
            awaiting_lease: BTreeMap::new(),
            requested_leases: BTreeSet::new(),
            lease_until: BTreeMap::new(),
            cycles: BTreeMap::new(),
            waiting_requests: Vec::new(),
            superleaf_roster,
            tombstoned: BTreeMap::new(),
            rejoined: BTreeMap::new(),
            pending_tombstones: BTreeMap::new(),
            remote_suspects: BTreeSet::new(),
            state_requests: (Time::ZERO, 0),
            store: KvStore::new(),
            committed_log: Vec::new(),
            stats: CanopusStats::default(),
            obs: CanopusObs::from_hub(NodeObs::disabled()),
        }
    }

    /// Installs an observability hub (metrics registry + flight recorder);
    /// without it the lane carries a disabled hub whose updates cost one
    /// branch each.
    pub(crate) fn set_obs(&mut self, hub: NodeObs) {
        self.obs = CanopusObs::from_hub(hub);
    }

    /// Current counters.
    pub fn stats(&self) -> CanopusStats {
        self.stats
    }

    /// The commit log (empty unless `cfg.record_log`).
    pub fn committed_log(&self) -> &[CommittedCycle] {
        &self.committed_log
    }

    /// The current emulation table (identical across nodes at equal commit
    /// points; tests compare digests).
    pub fn emulation_table(&self) -> &EmulationTable {
        &self.table
    }

    /// The replicated store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// What this node currently holds on to: `(Raft log entries in memory
    /// across its super-leaf's broadcast groups, client operations inside
    /// retained cycle states)`. Both are bounded in a healthy cluster
    /// however long it runs.
    pub fn retained(&self) -> (usize, usize) {
        let ops = |s: &VnodeState| s.sets.iter().map(|set| set.ops.len()).sum::<usize>();
        let cycle_ops = self
            .cycles
            .values()
            .flat_map(|e| {
                (e.round1.values())
                    .chain(e.remote.values())
                    .chain(e.ancestors.iter().flatten())
            })
            .map(ops)
            .sum();
        let raft = self.bcast.as_ref().map_or(0, |b| b.retained_entries());
        (raft, cycle_ops)
    }

    /// Highest committed cycle.
    pub fn last_committed(&self) -> CycleId {
        self.clock.last_committed()
    }

    /// Highest started cycle.
    pub fn last_started(&self) -> CycleId {
        self.clock.last_started()
    }

    /// Human-readable diagnostic of in-flight protocol state.
    pub fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{}: started={} committed={} tombstoned={:?} pending_ts={:?} roster={:?}",
            self.me,
            self.clock.last_started().0,
            self.clock.last_committed().0,
            self.tombstoned,
            self.pending_tombstones.keys().collect::<Vec<_>>(),
            self.superleaf_roster,
        );
        for (c, e) in self.cycles.range(self.clock.last_committed().next()..) {
            let _ = write!(
                out,
                "
  {c:?}: started={} r1_from={:?} anc={:?} remote={:?} fetches={:?} root={}",
                e.started,
                e.round1.keys().collect::<Vec<_>>(),
                e.ancestors.iter().map(|a| a.is_some()).collect::<Vec<_>>(),
                e.remote.keys().collect::<Vec<_>>(),
                e.fetches.keys().collect::<Vec<_>>(),
                e.root_done,
            );
        }
        out
    }

    // ------------------------------------------------------------------
    // Broadcast plumbing
    // ------------------------------------------------------------------

    fn flush_raft(&mut self, out: Outbox, ctx: &mut LaneCtx<'_, '_>) {
        for (to, msg) in out {
            ctx.send(to, CanopusMsg::Raft(msg));
        }
    }

    fn broadcast_item(&mut self, item: &BroadcastItem, ctx: &mut LaneCtx<'_, '_>) {
        let mut out = Outbox::new();
        let bcast = self.bcast.as_mut().expect("started");
        bcast.broadcast(item.to_bytes(), ctx.now(), &mut out);
        self.flush_raft(out, ctx);
    }

    /// Hands the lane what its broadcast groups committed.
    fn deliver(&mut self, deliveries: Vec<Delivery>, ctx: &mut LaneCtx<'_, '_>) {
        for d in deliveries {
            // Corrupt payloads cannot occur internally; ignore decode errors.
            if let Ok(item) = BroadcastItem::from_bytes(d.data) {
                self.handle_delivery(d.origin, item, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client intake
    // ------------------------------------------------------------------

    fn lease_active_for_next_cycles(&self, key: Key) -> bool {
        self.lease_until
            .get(&key)
            .is_some_and(|&until| until > self.clock.last_started().0)
    }

    fn handle_client_request(&mut self, req: ClientRequest, ctx: &mut LaneCtx<'_, '_>) {
        // Aggregates are parsed once, not per represented op, so their
        // ingest is amortized (`ingest_micro` measures the split).
        match u64::from(req.op.weight()) {
            w if w <= 1 => ctx.work(Work::Request, 1),
            w => {
                ctx.work(Work::Aggregate, 1);
                ctx.work(Work::BatchedOp, w);
            }
        }
        if req.op.is_write() {
            let op = TimedOp {
                req,
                arrival: ctx.now(),
            };
            let leased_write =
                self.cfg.read_mode == ReadMode::Leases && matches!(op.req.op, Op::Put { .. });
            if leased_write {
                if let Op::Put { key, .. } = op.req.op {
                    if self.lease_active_for_next_cycles(key) {
                        self.pending_weight += op.req.op.weight() as u64;
                        self.pending_writes.push_back(op);
                    } else {
                        // Park until the lease round grants coverage.
                        self.requested_leases.insert(key);
                        self.awaiting_lease.entry(key).or_default().push(op);
                    }
                }
            } else {
                self.pending_weight += op.req.op.weight() as u64;
                self.pending_writes.push_back(op);
            }
        } else {
            // Reads: lease mode may serve immediately; otherwise delay for
            // linearization (§5).
            let fast = match (&self.cfg.read_mode, &req.op) {
                (ReadMode::Leases, Op::Get { key }) => !self.lease_active_for_next_cycles(*key),
                (ReadMode::Leases, Op::SyntheticRead { .. }) => true,
                _ => false,
            };
            if fast {
                self.stats.lease_fast_reads += req.op.weight() as u64;
                self.serve_read(&req, ctx);
            } else {
                self.pending_reads.push(PendingRead {
                    write_prefix: self.pending_writes.len(),
                    req,
                    ordering_cycle: CycleId(0),
                });
            }
        }
        self.maybe_start_cycles(ctx);
    }

    fn serve_read(&mut self, req: &ClientRequest, ctx: &mut LaneCtx<'_, '_>) {
        let weight = req.op.weight();
        ctx.work(Work::Read, weight.into());
        let result = match &req.op {
            Op::Get { key } => OpResult::Value(self.store.get_value(*key)),
            Op::SyntheticRead { .. } => OpResult::Batch,
            _ => unreachable!("serve_read on a write"),
        };
        self.stats.reads_served += weight as u64;
        ctx.send(
            req.client,
            CanopusMsg::Reply(ClientReply {
                op_id: req.op_id,
                weight,
                result,
            }),
        );
    }

    // ------------------------------------------------------------------
    // Cycle lifecycle
    // ------------------------------------------------------------------

    fn has_local_work(&self) -> bool {
        !self.pending_writes.is_empty()
            || self
                .pending_reads
                .iter()
                .any(|r| r.ordering_cycle == CycleId(0))
            || !self.pending_updates.is_empty()
            || !self.requested_leases.is_empty()
    }

    /// Starts as many cycles as the clock allows, and opens the batching
    /// window when it says the first work of a batch is here.
    fn maybe_start_cycles(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        if self.bcast.is_none() {
            return;
        }
        loop {
            let now = ctx.now();
            let cycle = self.clock.last_started().next().0;
            let ops = self.pending_writes.len() as u64;
            let work = self.has_local_work();
            match self.clock.decide(now, self.pending_weight, work) {
                Decision::Wait => return,
                Decision::OpenWindow(after) => {
                    let timer = ctx.set_timer(after, WINDOW);
                    self.clock.window_opened(now + after, timer);
                    let event = ObsEvent::LingerArm { cycle, ops };
                    self.obs.hub.event(now.as_nanos(), event);
                    return;
                }
                Decision::Start { window_closed } => {
                    if window_closed {
                        self.obs.linger_fires.inc();
                        let event = ObsEvent::LingerFire { cycle, ops };
                        self.obs.hub.event(now.as_nanos(), event);
                    }
                    self.start_cycle(ctx);
                }
            }
        }
    }

    fn start_cycle(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        let (c, unfired_window) = self.clock.start(ctx.now());
        if let Some(timer) = unfired_window {
            ctx.cancel_timer(timer);
        }

        // Batch everything pending: writes, lease requests, membership
        // updates. Reads buffered during the previous window are ordered by
        // this cycle (§5).
        let batch_weight = self.pending_weight;
        let ops: OpBlock = self.pending_writes.drain(..).collect();
        self.pending_weight = 0;

        let in_flight = self.clock.in_flight();
        self.obs.cycles_started.inc();
        self.obs.batch_ops.observe(ops.len() as u64);
        self.obs.batch_weight.observe(batch_weight);
        self.obs.pipeline_occupancy.observe(in_flight);
        self.obs.in_flight.set(in_flight as i64);
        self.obs.hub.event(
            ctx.now().as_nanos(),
            ObsEvent::CycleStart {
                cycle: c.0,
                ops: ops.len() as u64,
                weight: batch_weight,
                in_flight,
            },
        );
        let lease_requests: Vec<Key> = std::mem::take(&mut self.requested_leases)
            .into_iter()
            .collect();
        let updates = std::mem::take(&mut self.pending_updates);
        for read in &mut self.pending_reads {
            if read.ordering_cycle == CycleId(0) {
                read.ordering_cycle = c;
                read.write_prefix = read.write_prefix.min(ops.len());
            }
        }

        let set = RequestSet {
            origin: self.me,
            ops,
            lease_requests,
        };
        let number = self.rng.gen::<u64>();
        let state = VnodeState::round1(self.me, self.my_parent.clone(), c, number, set, updates);

        ctx.work(Work::Persist, 1);

        let now = ctx.now();
        let entry = self.cycle_entry(c);
        entry.started = true;
        entry.started_at = now;
        self.broadcast_item(&BroadcastItem::Proposal(state), ctx);
        // Issue all remote fetches for this cycle up front (§4.7 event 2:
        // representatives request remote states as soon as the cycle
        // starts; emulators buffer until the state is ready).
        self.plan_fetches(c, ctx);
    }

    /// Fetches-or-creates the cycle entry with its ancestor slots ready.
    fn cycle_entry(&mut self, c: CycleId) -> &mut CycleState {
        let height = self.height;
        let entry = self.cycles.entry(c).or_default();
        if entry.ancestors.is_empty() {
            entry.ancestors = vec![None; height];
        }
        entry
    }

    /// The representative set: the first [`REPRESENTATIVES`] non-excluded
    /// members of this super-leaf, in id order (§4.5: representatives are
    /// numbered and ordered; assignment needs no communication).
    fn representative_set(&self) -> Vec<NodeId> {
        self.superleaf_roster
            .iter()
            .copied()
            .filter(|m| !self.tombstoned.contains_key(m))
            .take(REPRESENTATIVES)
            .collect()
    }

    /// Issues the proposal-requests this node is responsible for in cycle
    /// `c` (every round's fetches are issued immediately; responders buffer).
    fn plan_fetches(&mut self, c: CycleId, ctx: &mut LaneCtx<'_, '_>) {
        if self.height < 2 {
            return;
        }
        let reps = self.representative_set();
        if reps.is_empty() {
            return;
        }
        let shape = self.table.shape().clone();
        for r in 2..=self.height {
            let target = shape.ancestor_of_superleaf(self.my_superleaf, r);
            let own_child = shape.ancestor_of_superleaf(self.my_superleaf, r - 1);
            let needed: Vec<VnodeId> = shape
                .children(&target)
                .into_iter()
                .filter(|v| *v != own_child)
                .collect();
            for (j, vnode) in needed.into_iter().enumerate() {
                let mine = (0..FETCH_REDUNDANCY).any(|k| reps[(j + k) % reps.len()] == self.me);
                if !mine {
                    continue;
                }
                let entry = self.cycle_entry(c);
                if entry.remote.contains_key(&vnode) || entry.fetches.contains_key(&vnode) {
                    continue;
                }
                self.issue_fetch(c, vnode, 0, ctx);
            }
        }
    }

    fn issue_fetch(&mut self, c: CycleId, vnode: VnodeId, attempt: u32, ctx: &mut LaneCtx<'_, '_>) {
        let all = self.table.emulators(&vnode);
        if all.is_empty() {
            return; // subtree fully departed; cycle will stall (§3.3)
        }
        let preferred: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|e| !self.remote_suspects.contains(e))
            .collect();
        let emulators = if preferred.is_empty() {
            &all
        } else {
            &preferred
        };
        let pick = (self.rng.gen::<u32>() as usize + attempt as usize) % emulators.len();
        let target = emulators[pick];
        ctx.send(
            target,
            CanopusMsg::ProposalRequest {
                cycle: c,
                vnode: vnode.clone(),
            },
        );
        let entry = self.cycle_entry(c);
        entry.fetches.insert(
            vnode,
            Fetch {
                sent_at: ctx.now(),
                attempts: attempt + 1,
                target,
                responded: false,
            },
        );
    }

    /// Exclusion rule (see module docs): `m` contributes to cycle `c`
    /// unless a tombstone covering `c` exists and no proposal from `m` for
    /// `c` was delivered.
    fn round1_complete(&self, c: CycleId) -> bool {
        let Some(entry) = self.cycles.get(&c) else {
            return false;
        };
        if !entry.started {
            return false; // our own proposal is required
        }
        for &m in &self.superleaf_roster {
            if let Some(&active_from) = self.rejoined.get(&m) {
                if active_from > c {
                    continue; // not yet participating
                }
            }
            if entry.round1.contains_key(&m) {
                continue;
            }
            match self.tombstoned.get(&m) {
                Some(&from) if from <= c => continue, // excluded
                _ => return false,
            }
        }
        true
    }

    fn handle_delivery(&mut self, origin: NodeId, item: BroadcastItem, ctx: &mut LaneCtx<'_, '_>) {
        match item {
            BroadcastItem::Proposal(state) => {
                let c = state.cycle;
                if c <= self.clock.last_committed() {
                    return;
                }
                // A tombstoned member's later proposals must not resurrect
                // it. The tombstone is totally ordered with the member's
                // proposals inside its broadcast-group log, so every
                // survivor draws the identical line: proposals delivered
                // *before* the tombstone count (the designed boundary
                // window), anything after — a restarted zombie replaying
                // forward, an isolated node catching up — is dropped until
                // a `Rejoin` marker lifts the exclusion. Without this, a
                // revived proposal races into live round-1 maps at some
                // survivors but not others and diverges the merge order.
                if self.tombstoned.contains_key(&origin) {
                    return;
                }
                self.clock.saw(c);
                let now = ctx.now();
                let entry = self.cycle_entry(c);
                entry.last_progress = now;
                entry.round1.insert(origin, state);
                self.maybe_start_cycles(ctx);
                self.advance_cycle(c, ctx);
            }
            BroadcastItem::Remote(state) => {
                let c = state.cycle;
                if c <= self.clock.last_committed() {
                    return;
                }
                self.clock.saw(c);
                let now = ctx.now();
                let entry = self.cycle_entry(c);
                entry.last_progress = now;
                if let Some(fetch) = entry.fetches.get_mut(&state.vnode) {
                    fetch.responded = true;
                }
                entry.remote.insert(state.vnode.clone(), state);
                self.maybe_start_cycles(ctx);
                self.advance_cycle(c, ctx);
            }
            BroadcastItem::Tombstone { node, from_cycle } => {
                // Keep the earliest boundary if several survivors raced to
                // tombstone the same member (min is order-independent, so
                // every peer converges on the same exclusion range).
                let entry = self.tombstoned.entry(node).or_insert(from_cycle);
                if from_cycle < *entry {
                    *entry = from_cycle;
                }
                self.obs.tombstones.inc();
                self.obs.hub.event(
                    ctx.now().as_nanos(),
                    ObsEvent::Tombstone {
                        cycle: from_cycle.0,
                        group: node.0,
                    },
                );
                self.pending_tombstones.remove(&node);
                self.rejoined.remove(&node);
                // Propose the membership change for the emulation tables of
                // the whole tree (§4.6).
                let update = MembershipUpdate::Leave { node };
                if !self.pending_updates.contains(&update) {
                    self.pending_updates.push(update);
                }
                // The exclusion may unblock round 1 of in-flight cycles.
                let in_flight: Vec<CycleId> = self
                    .cycles
                    .keys()
                    .copied()
                    .filter(|&c| c > self.clock.last_committed())
                    .collect();
                for c in in_flight {
                    self.advance_cycle(c, ctx);
                }
            }
            BroadcastItem::Rejoin { node, from_cycle } => {
                self.superleaf_roster.insert(node);
                self.tombstoned.remove(&node);
                self.rejoined.insert(node, from_cycle);
                self.obs.rejoins.inc();
                self.obs.hub.event(
                    ctx.now().as_nanos(),
                    ObsEvent::Rejoin {
                        cycle: from_cycle.0,
                        group: node.0,
                    },
                );
                let superleaf = self.my_superleaf as u32;
                let update = MembershipUpdate::Join { node, superleaf };
                if !self.pending_updates.contains(&update) {
                    self.pending_updates.push(update);
                }
            }
        }
    }

    /// Drives cycle `c` forward: completes round 1, merges any completable
    /// higher rounds, answers buffered proposal-requests, and commits.
    fn advance_cycle(&mut self, c: CycleId, ctx: &mut LaneCtx<'_, '_>) {
        // Round 1.
        let need_h1 = {
            let Some(entry) = self.cycles.get(&c) else {
                return;
            };
            !entry.ancestors.is_empty() && entry.ancestors[0].is_none()
        };
        if need_h1 {
            if !self.round1_complete(c) {
                return;
            }
            let entry = self.cycles.get_mut(&c).expect("exists");
            let contributors: Vec<VnodeState> = entry.round1.values().cloned().collect();
            let h1 = VnodeState::merge(self.my_parent.clone(), contributors);
            entry.ancestors[0] = Some(h1);
            self.obs.hub.event(
                ctx.now().as_nanos(),
                ObsEvent::RoundComplete {
                    cycle: c.0,
                    round: 1,
                },
            );
            self.answer_waiting(c, ctx);
        }

        // Higher rounds.
        let shape = self.table.shape().clone();
        for r in 2..=self.height {
            let done = {
                let entry = self.cycles.get(&c).expect("exists");
                entry.ancestors[r - 1].is_some()
            };
            if done {
                continue;
            }
            let prev_ready = {
                let entry = self.cycles.get(&c).expect("exists");
                entry.ancestors[r - 2].is_some()
            };
            if !prev_ready {
                return;
            }
            let target = shape.ancestor_of_superleaf(self.my_superleaf, r);
            let own_child = shape.ancestor_of_superleaf(self.my_superleaf, r - 1);
            let children = shape.children(&target);
            let entry = self.cycles.get_mut(&c).expect("exists");
            let mut states = Vec::with_capacity(children.len());
            let mut complete = true;
            for child in &children {
                if *child == own_child {
                    let mut own = entry.ancestors[r - 2].clone().expect("prev ready");
                    // When a state rises a level, its tie-break becomes its
                    // position among its new siblings.
                    own.tie = own.vnode.last_digit() as u32;
                    states.push(own);
                } else if let Some(state) = entry.remote.get(child) {
                    let mut s = state.clone();
                    s.tie = s.vnode.last_digit() as u32;
                    states.push(s);
                } else {
                    complete = false;
                    break;
                }
            }
            if !complete {
                return;
            }
            let merged = VnodeState::merge(target, states);
            entry.ancestors[r - 1] = Some(merged);
            self.obs.hub.event(
                ctx.now().as_nanos(),
                ObsEvent::RoundComplete {
                    cycle: c.0,
                    round: r as u64,
                },
            );
            self.answer_waiting(c, ctx);
        }

        // Root reached.
        {
            let entry = self.cycles.get_mut(&c).expect("exists");
            if entry.ancestors[self.height - 1].is_some() {
                entry.root_done = true;
            }
        }
        self.try_commit(ctx);
    }

    /// Answers buffered proposal-requests that newly computed states satisfy.
    fn answer_waiting(&mut self, c: CycleId, ctx: &mut LaneCtx<'_, '_>) {
        let mut still_waiting = Vec::new();
        let waiting = std::mem::take(&mut self.waiting_requests);
        for (from, cycle, vnode) in waiting {
            if cycle != c {
                still_waiting.push((from, cycle, vnode));
                continue;
            }
            match self.lookup_state(cycle, &vnode) {
                Some(state) => {
                    self.stats.fetches_served += 1;
                    ctx.send(from, CanopusMsg::ProposalResponse { state });
                }
                None => still_waiting.push((from, cycle, vnode)),
            }
        }
        self.waiting_requests = still_waiting;
    }

    fn lookup_state(&self, c: CycleId, vnode: &VnodeId) -> Option<VnodeState> {
        let entry = self.cycles.get(&c)?;
        let depth = vnode.depth();
        let height = self.height.checked_sub(depth)?;
        if height == 0 || height > self.height {
            return None;
        }
        let state = entry.ancestors.get(height - 1)?.as_ref()?;
        if state.vnode == *vnode {
            Some(state.clone())
        } else {
            None
        }
    }

    fn try_commit(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        loop {
            let next = self.clock.last_committed().next();
            let ready = self
                .cycles
                .get(&next)
                .map(|e| e.root_done && !e.committed)
                .unwrap_or(false);
            if !ready {
                return;
            }
            self.commit_cycle(next, ctx);
            self.maybe_start_cycles(ctx);
        }
    }

    fn commit_cycle(&mut self, c: CycleId, ctx: &mut LaneCtx<'_, '_>) {
        // From here on the cycle's state serves only late proposal-requests
        // from lagging super-leaves, and `lookup_state` answers those from
        // the non-root ancestors: the inputs of the merges, the fetch
        // bookkeeping and the root itself are released now, not
        // `STATE_RETENTION` cycles later.
        let root = {
            let entry = self.cycles.get_mut(&c).expect("ready");
            entry.committed = true;
            entry.round1 = BTreeMap::new();
            entry.remote = BTreeMap::new();
            entry.fetches = BTreeMap::new();
            entry.ancestors[self.height - 1].take().expect("root done")
        };
        let now = ctx.now();

        // 1. Membership updates (§4.6) — identical at every node.
        self.table.apply_all(&root.updates);

        // 2. Lease grants (§7.2): requests in this cycle cover the next
        //    `LEASE_SPAN` cycles.
        let mut unlocked: Vec<Key> = Vec::new();
        for set in &root.sets {
            for &key in &set.lease_requests {
                self.lease_until.insert(key, c.0 + LEASE_SPAN);
                if set.origin == self.me {
                    unlocked.push(key);
                }
            }
        }

        // 3. Apply the total order; interleave own reads at their recorded
        //    positions (§5). The commit record is built only if it is kept.
        let mut own_reads: Vec<PendingRead> = Vec::new();
        let mut rest: Vec<PendingRead> = Vec::new();
        for r in std::mem::take(&mut self.pending_reads) {
            if r.ordering_cycle == c {
                own_reads.push(r);
            } else {
                rest.push(r);
            }
        }
        self.pending_reads = rest;
        own_reads.sort_by_key(|r| r.write_prefix);
        let mut read_iter = own_reads.into_iter().peekable();

        // One pass over each set applies its writes, replies to this
        // node's own clients, and mixes the commit digest.
        let mut total_weight: u64 = 0;
        let mut record_sets = Vec::new();
        let mut digest = self.stats.commit_digest ^ 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100000001b3);
            }
        };
        mix(c.0);
        for set in &root.sets {
            let is_own = set.origin == self.me;
            mix(set.origin.0 as u64 + 1);
            let mut record_ops = Vec::new();
            for (k, op) in set.ops.iter().enumerate() {
                // Serve own reads positioned before the k-th own write.
                while is_own && read_iter.peek().is_some_and(|r| r.write_prefix <= k) {
                    let r = read_iter.next().expect("peeked");
                    self.serve_read(&r.req, ctx);
                }
                let weight = op.write.weight() as u64;
                mix(op.op_id);
                mix(op.client.0 as u64);
                mix(weight);
                record_ops.extend(self.apply_write(op, is_own, ctx));
                total_weight += weight;
            }
            if is_own {
                // Reads positioned after every own write.
                for r in read_iter.by_ref() {
                    self.serve_read(&r.req, ctx);
                }
            }
            if self.cfg.record_log {
                record_sets.push(CommittedSet {
                    origin: set.origin,
                    ops: record_ops,
                });
            }
        }
        // If our own set was somehow absent (we never contributed — cannot
        // happen for cycles we committed), serve leftover reads anyway.
        for r in read_iter {
            self.serve_read(&r.req, ctx);
        }

        // 4. Lease mode: release parked writes whose lease now covers the
        //    upcoming cycles.
        for key in unlocked {
            if let Some(ops) = self.awaiting_lease.remove(&key) {
                for op in ops {
                    self.pending_weight += op.req.op.weight() as u64;
                    self.pending_writes.push_back(op);
                }
            }
        }

        // 5. Bookkeeping.
        let started_at = self.cycles.get(&c).map(|e| e.started_at).unwrap_or(now);
        self.stats.cycle_latency_sum_ns += now.saturating_since(started_at).as_nanos();
        self.stats.committed_cycles += 1;
        self.stats.committed_weight += total_weight;
        self.stats.commit_digest = digest;
        if self.cfg.record_log {
            self.committed_log.push(CommittedCycle {
                cycle: c,
                at: now,
                sets: record_sets,
            });
        }
        self.clock.committed(c);
        self.obs.cycles_committed.inc();
        self.obs.in_flight.set(self.clock.in_flight() as i64);
        self.obs.hub.event(
            now.as_nanos(),
            ObsEvent::Commit {
                cycle: c.0,
                weight: total_weight,
            },
        );

        // 6. Prune retired cycle state.
        let keep_from = CycleId(c.0.saturating_sub(STATE_RETENTION));
        let stale: Vec<CycleId> = self.cycles.range(..keep_from).map(|(&k, _)| k).collect();
        for k in stale {
            self.cycles.remove(&k);
        }
    }

    /// Applies one committed write and, if it is this node's own, replies
    /// to its client; returns its commit record if the log is kept.
    fn apply_write(
        &mut self,
        op: OpView<'_>,
        is_own: bool,
        ctx: &mut LaneCtx<'_, '_>,
    ) -> Option<CommittedOp> {
        let weight = op.write.weight();
        ctx.work(Work::Apply, weight.into());
        let (client, op_id, keep) = (op.client, op.op_id, self.cfg.record_log);
        let (record, result) = match op.write {
            WriteView::Put { key, value } => {
                let version = self.store.put(key, value);
                let record = CommittedOp::Put {
                    client,
                    op_id,
                    key,
                    version,
                };
                (keep.then_some(record), OpResult::Written)
            }
            WriteView::SyntheticWrite { count, .. } => {
                let record = CommittedOp::Synthetic {
                    client,
                    op_id,
                    count,
                };
                (keep.then_some(record), OpResult::Batch)
            }
            WriteView::MultiPut(puts) => {
                // Commit work scales with touched keys, not request weight.
                ctx.work(Work::Apply, puts.len() as u64);
                for (key, value) in puts {
                    self.store.put(key, value);
                }
                let record = keep.then(|| CommittedOp::MultiPut {
                    client,
                    op_id,
                    keys: puts.map(|(key, _)| key).collect(),
                });
                (record, OpResult::Written)
            }
        };
        if is_own {
            self.stats.own_writes += weight as u64;
            ctx.send(
                client,
                CanopusMsg::Reply(ClientReply {
                    op_id,
                    weight,
                    result,
                }),
            );
        }
        record
    }

    // ------------------------------------------------------------------
    // Proposal-request serving (emulator role)
    // ------------------------------------------------------------------

    fn handle_proposal_request(
        &mut self,
        from: NodeId,
        cycle: CycleId,
        vnode: VnodeId,
        ctx: &mut LaneCtx<'_, '_>,
    ) {
        self.clock.saw(cycle);
        match self.lookup_state(cycle, &vnode) {
            Some(state) => {
                self.stats.fetches_served += 1;
                ctx.send(from, CanopusMsg::ProposalResponse { state });
            }
            None => {
                // Buffer until computed (§4.7 events 3 and 5); the request
                // is also outside prompting to start the cycle (§4.4).
                self.waiting_requests.push((from, cycle, vnode));
                self.maybe_start_cycles(ctx);
            }
        }
    }

    fn handle_proposal_response(&mut self, state: VnodeState, ctx: &mut LaneCtx<'_, '_>) {
        let c = state.cycle;
        if c <= self.clock.last_committed() {
            return;
        }
        let already = self
            .cycles
            .get(&c)
            .map(|e| {
                e.remote.contains_key(&state.vnode)
                    || e.fetches.get(&state.vnode).is_some_and(|f| f.responded)
            })
            .unwrap_or(false);
        if already {
            return; // redundant fetch answered twice
        }
        if let Some(entry) = self.cycles.get_mut(&c) {
            if let Some(f) = entry.fetches.get_mut(&state.vnode) {
                f.responded = true;
            }
        }
        // Share with the super-leaf (self-delivery comes back through the
        // broadcast, keeping every member's view identical).
        self.broadcast_item(&BroadcastItem::Remote(state), ctx);
    }

    // ------------------------------------------------------------------
    // State transfer (a member that lost its broadcast logs)
    // ------------------------------------------------------------------

    /// Asks the super-leaf peers in turn, one per `fetch_timeout`, for as
    /// long as some broadcast group says its log cannot serve this node.
    fn request_state_if_lost(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        let lost = self.bcast.as_ref().expect("started").needs_snapshot();
        let (not_before, asked) = self.state_requests;
        if !lost || ctx.now() < not_before {
            return;
        }
        let peers: Vec<NodeId> = (self.superleaf_roster.iter().copied())
            .filter(|&p| p != self.me)
            .collect();
        if let Some(&peer) = peers.get(asked % peers.len().max(1)) {
            ctx.send(peer, CanopusMsg::StateRequest);
        }
        self.state_requests = (ctx.now() + self.cfg.fetch_timeout, asked + 1);
    }

    fn handle_state_request(&mut self, from: NodeId, ctx: &mut LaneCtx<'_, '_>) {
        let bcast = self.bcast.as_ref().expect("started");
        if !self.superleaf_roster.contains(&from) || bcast.needs_snapshot() {
            return; // not ours to serve, or lost ourselves
        }
        let in_flight = || self.cycles.range(self.clock.last_committed().next()..);
        let snapshot = Snapshot {
            points: bcast.delivered_points(),
            last_committed: self.clock.last_committed(),
            commit_digest: self.stats.commit_digest,
            committed_cycles: self.stats.committed_cycles,
            committed_weight: self.stats.committed_weight,
            membership: self.table.membership(),
            roster: self.superleaf_roster.iter().copied().collect(),
            tombstoned: self.tombstoned.iter().map(|(&n, &c)| (n, c)).collect(),
            rejoined: self.rejoined.iter().map(|(&n, &c)| (n, c)).collect(),
            leases: self.lease_until.iter().map(|(&k, &c)| (k, c)).collect(),
            store: self.store.clone(),
            round1: in_flight()
                .flat_map(|(_, e)| e.round1.iter().map(|(&n, s)| (n, s.clone())))
                .collect(),
            remote: in_flight()
                .flat_map(|(_, e)| e.remote.values().cloned())
                .collect(),
        };
        ctx.send(
            from,
            CanopusMsg::StateResponse {
                snapshot: Box::new(snapshot),
            },
        );
    }

    /// Takes over a peer's replicated state and resumes every broadcast
    /// group where that state stands. Whatever this node did since it came
    /// up without its logs (cycles it started on its own numbering, items
    /// the broadcast still held for it) was never part of the super-leaf's
    /// history and goes; reads waiting on such cycles are ordered afresh.
    fn handle_state_response(
        &mut self,
        from: NodeId,
        snapshot: Snapshot,
        ctx: &mut LaneCtx<'_, '_>,
    ) {
        let bcast = self.bcast.as_mut().expect("started");
        if !bcast.needs_snapshot()
            || !self.superleaf_roster.contains(&from)
            || snapshot.last_committed < self.clock.last_committed()
            || !bcast.resume_at(&snapshot.points, ctx.now(), &mut self.rng)
        {
            return; // stale, or behind a group here: the next request will do
        }
        self.table.set_membership(snapshot.membership);
        self.superleaf_roster = snapshot.roster.into_iter().collect();
        self.tombstoned = snapshot.tombstoned.into_iter().collect();
        self.rejoined = snapshot.rejoined.into_iter().collect();
        self.lease_until = snapshot.leases.into_iter().collect();
        self.store = snapshot.store;
        self.stats.commit_digest = snapshot.commit_digest;
        self.stats.committed_cycles = snapshot.committed_cycles;
        self.stats.committed_weight = snapshot.committed_weight;
        if let Some(timer) = self.clock.resume_at(snapshot.last_committed) {
            ctx.cancel_timer(timer);
        }
        self.cycles.clear();
        self.pending_tombstones.clear();
        for read in &mut self.pending_reads {
            read.ordering_cycle = CycleId(0);
        }
        for (origin, state) in snapshot.round1 {
            let c = state.cycle;
            self.clock.saw(c);
            let own = origin == self.me;
            let entry = self.cycle_entry(c);
            entry.round1.insert(origin, state);
            if own {
                // Proposed before the restart and still in flight: it
                // stands, and must not be proposed a second time.
                entry.started = true;
                self.clock.resume_started(c);
            }
        }
        for state in snapshot.remote {
            self.clock.saw(state.cycle);
            let vnode = state.vnode.clone();
            self.cycle_entry(state.cycle).remote.insert(vnode, state);
        }
        self.maybe_start_cycles(ctx);
        let in_flight: Vec<CycleId> = self.cycles.keys().copied().collect();
        for c in in_flight {
            self.advance_cycle(c, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_tick(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        let now = ctx.now();
        let mut out = Outbox::new();
        let deliveries = {
            let bcast = self.bcast.as_mut().expect("started");
            bcast.tick(now, &mut self.rng, &mut out)
        };
        self.flush_raft(out, ctx);
        self.request_state_if_lost(ctx);
        self.deliver(deliveries, ctx);

        // Failure detection: the survivor that wins the dead member's group
        // election appends the tombstone. Detection may precede the end of
        // the election: until this node has proposed the tombstone it looks
        // again every tick, and from then on every `failure_timeout` until
        // the tombstone is delivered.
        for peer in self.fd.newly_failed(now) {
            if !self.tombstoned.contains_key(&peer) {
                self.pending_tombstones.entry(peer).or_insert(Time::ZERO);
            }
        }
        let retry_gap = self.cfg.failure_timeout;
        let due: Vec<NodeId> = self
            .pending_tombstones
            .iter()
            .filter(|(_, &last)| now.saturating_since(last) >= retry_gap)
            .map(|(&p, _)| p)
            .collect();
        for peer in due {
            if self.tombstoned.contains_key(&peer) {
                self.pending_tombstones.remove(&peer);
                continue;
            }
            if self.fd.live_peers(now).contains(&peer) {
                // Heard from it again: false suspicion, drop the intent.
                self.pending_tombstones.remove(&peer);
                continue;
            }
            let item = BroadcastItem::Tombstone {
                node: peer,
                from_cycle: self.clock.last_committed().next(),
            };
            let mut out = Outbox::new();
            let bcast = self.bcast.as_mut().expect("started");
            // `None`: nobody leads the group yet, or a peer does.
            if bcast
                .propose_into(peer, item.to_bytes(), now, &mut out)
                .is_some()
            {
                self.flush_raft(out, ctx);
                self.pending_tombstones.insert(peer, now);
            }
        }

        // Fetch retries: re-ask a different emulator after timeout.
        let timeout = self.cfg.fetch_timeout;
        let mut retries: Vec<(CycleId, VnodeId, u32, NodeId)> = Vec::new();
        for (&c, entry) in self.cycles.range(self.clock.last_committed().next()..) {
            for (vnode, fetch) in &entry.fetches {
                if !fetch.responded
                    && !entry.remote.contains_key(vnode)
                    && now.saturating_since(fetch.sent_at) >= timeout
                {
                    retries.push((c, vnode.clone(), fetch.attempts, fetch.target));
                }
            }
        }
        for (c, vnode, attempts, target) in retries {
            self.remote_suspects.insert(target);
            self.issue_fetch(c, vnode, attempts, ctx);
        }

        // Liveness safety net: if the oldest uncommitted cycle has a round
        // whose sibling state is missing with no fetch in flight anywhere we
        // can see (possible transiently when representative views diverge
        // during membership churn), fetch it ourselves after a timeout.
        // Duplicate Remote broadcasts are idempotent.
        self.rescue_stalled_cycle(ctx);

        ctx.set_timer(self.cfg.tick_interval, TICK);
    }

    /// Fetches any long-missing sibling state of the oldest uncommitted
    /// cycle regardless of representative assignment.
    fn rescue_stalled_cycle(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        let c = self.clock.last_committed().next();
        if c > self.clock.last_started() {
            return;
        }
        let stuck_for = self.cfg.fetch_timeout;
        let now = ctx.now();
        let shape = self.table.shape().clone();
        let mut to_fetch: Vec<VnodeId> = Vec::new();
        {
            let Some(entry) = self.cycles.get(&c) else {
                return;
            };
            if entry.root_done || entry.ancestors.is_empty() {
                return;
            }
            if now.saturating_since(entry.last_progress) < stuck_for {
                return;
            }
            for r in 2..=self.height {
                if entry.ancestors[r - 1].is_some() {
                    continue;
                }
                if entry.ancestors[r - 2].is_none() {
                    break; // earlier round still pending
                }
                let target = shape.ancestor_of_superleaf(self.my_superleaf, r);
                let own_child = shape.ancestor_of_superleaf(self.my_superleaf, r - 1);
                for v in shape.children(&target) {
                    if v == own_child || entry.remote.contains_key(&v) {
                        continue;
                    }
                    match entry.fetches.get(&v) {
                        Some(f) if now.saturating_since(f.sent_at) < stuck_for => {}
                        Some(_) => {} // retry path handles it
                        None => to_fetch.push(v),
                    }
                }
                break; // only rescue the lowest incomplete round
            }
        }
        for v in to_fetch {
            self.issue_fetch(c, v, 0, ctx);
        }
    }
}

impl Lane {
    pub(crate) fn on_start(&mut self, ctx: &mut LaneCtx<'_, '_>) {
        let members: Vec<NodeId> = self.table.members_of(self.my_superleaf).collect();
        let mut bcast_rng = SmallRng::seed_from_u64(self.rng.gen());
        self.bcast = Some(SuperLeafBroadcast::new(
            self.me,
            &members,
            self.cfg.raft,
            ctx.now(),
            &mut bcast_rng,
        ));
        let peers: Vec<NodeId> = members.into_iter().filter(|&p| p != self.me).collect();
        self.fd = FailureDetector::new(&peers, self.cfg.failure_timeout, ctx.now());
        ctx.set_timer(self.cfg.tick_interval, TICK);
    }

    pub(crate) fn on_message(&mut self, from: NodeId, msg: CanopusMsg, ctx: &mut LaneCtx<'_, '_>) {
        self.fd.record(from, ctx.now());
        self.remote_suspects.remove(&from);
        ctx.work(Work::Message, 1);
        match msg {
            CanopusMsg::Raft(raft_msg) => {
                let mut out = Outbox::new();
                let deliveries = {
                    let bcast = self.bcast.as_mut().expect("started");
                    bcast.handle(from, raft_msg, ctx.now(), &mut self.rng, &mut out)
                };
                self.flush_raft(out, ctx);
                self.deliver(deliveries, ctx);
            }
            CanopusMsg::Request(req) => self.handle_client_request(req, ctx),
            // Nodes never receive replies, and the node has taken the lane
            // tag off before the frame gets here.
            CanopusMsg::Reply(_) | CanopusMsg::Lane { .. } => {}
            CanopusMsg::ProposalRequest { cycle, vnode } => {
                self.handle_proposal_request(from, cycle, vnode, ctx)
            }
            CanopusMsg::ProposalResponse { state } => self.handle_proposal_response(state, ctx),
            CanopusMsg::StateRequest => self.handle_state_request(from, ctx),
            CanopusMsg::StateResponse { snapshot } => {
                self.handle_state_response(from, *snapshot, ctx)
            }
        }
    }

    /// `token` is the one this lane armed the timer with.
    pub(crate) fn on_timer(&mut self, token: u64, ctx: &mut LaneCtx<'_, '_>) {
        match token {
            TICK => self.on_tick(ctx),
            // The batching window has run out: the clock starts its cycle.
            WINDOW => self.maybe_start_cycles(ctx),
            _ => {}
        }
    }
}
