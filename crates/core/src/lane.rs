//! The Canopus pnode: the complete protocol state machine (paper §4–§7).
//!
//! A [`CanopusNode`] is everything the paper calls a pnode, and one LOT
//! pipeline orders everything it commits. It embeds the super-leaf reliable
//! broadcast (per-member Raft groups, §4.3), executes consensus cycles of
//! `h` rounds over the LOT (§4.2), self-synchronizes on outside prompting
//! (§4.4), takes its turn as the super-leaf representative that fetches a
//! remote vnode state and forwards it to its peers (§4.5), maintains the
//! emulation table through committed membership updates (§4.6), and
//! linearizes reads by delaying them one or two cycles (§5).
//!
//! Who fetches which sibling state is one rule (`fetch_states`), fixed by
//! the cycle number and the super-leaf's membership, so no message decides
//! it: the k-th state cycle c needs (counted in round order) goes to the
//! non-excluded member at position (c + k) mod their number. Every member
//! takes its turn, and a state whose fetcher is slow or whose forward was
//! lost is fetched by whichever member finds it overdue.
//!
//! Two decisions are made elsewhere and only carried out here. *When* a
//! cycle starts — work, a full batch, outside prompting, how many cycles may
//! be in flight (§4.4, §7.1) — is the `CycleClock`'s (`clock.rs`); the node
//! reports what the rule reads and does what it says. And *that a broadcast
//! arrives* although a peer may have usurped this member's group meanwhile
//! is [`SuperLeafBroadcast`]'s promise: the node hands an item over once.
//!
//! The broadcast groups compact their logs (everything delivered locally and
//! held by every member goes), so a member that restarts without its logs
//! cannot replay them. Its groups report that (`needs_snapshot`) and the
//! node asks a super-leaf peer for a [`Snapshot`] — the replicated part of
//! the peer's state plus where it stands in each group's log — takes it
//! over wholesale, and follows the deliveries from there. A member that
//! kept its logs but fell further behind than emulators keep cycle states
//! does the same: the logs still hold its super-leaf's proposals, but the
//! sibling states its next cycle needs are gone from the tree. That is
//! state transfer only: such a node is still tombstoned and stays excluded.
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
use canopus_sim::{impl_process_any, Context, NodeId, Process, Time, Timer, Work};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::{CycleClock, Decision};
use crate::config::CanopusConfig;
use crate::emulation::EmulationTable;
use crate::msg::{BroadcastItem, CanopusMsg, Snapshot};
use crate::proposal::{MembershipUpdate, OpBlock, OpView, RequestSet, VnodeState, WriteView};
use crate::types::{CycleId, VnodeId};

/// Timer tokens: the housekeeping tick, and the close of the batching
/// window (`clock.rs`).
const TICK: u64 = 1;
const WINDOW: u64 = 2;

/// Committed cycles kept for answering late proposal-requests from lagging
/// super-leaves.
const STATE_RETENTION: u64 = 64;

/// The commit record of one cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedCycle {
    /// The cycle.
    pub cycle: CycleId,
    /// Local commit time.
    pub at: Time,
    /// The request sets the cycle committed, in their total order (§4.2):
    /// the root state's own sets, moved out of it.
    pub sets: Vec<RequestSet>,
}

/// Counters exposed by every node.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CanopusStats {
    /// Cycles committed.
    pub committed_cycles: u64,
    /// Client write requests committed (all origins, weighted).
    pub committed_weight: u64,
    /// Reads served to this node's clients (weighted).
    pub reads_served: u64,
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

/// An in-flight proposal-request for a sibling state.
#[derive(Clone, Debug)]
struct Fetch {
    sent_at: Time,
    attempts: u32,
    target: NodeId,
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
    /// Sibling vnode states, fetched by this node or forwarded by the
    /// member that fetched them.
    remote: BTreeMap<VnodeId, VnodeState>,
    /// This node's in-flight fetches: its turns, retries and overdue
    /// states (`fetch_states`).
    fetches: BTreeMap<VnodeId, Fetch>,
    root_done: bool,
    committed: bool,
}

/// The Canopus protocol node. Drive it with any [`Process`] runtime — the
/// deterministic simulator or the real TCP transport.
pub struct CanopusNode {
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
    pending_writes: VecDeque<ClientRequest>,
    pending_weight: u64,
    pending_reads: Vec<PendingRead>,
    pending_updates: Vec<MembershipUpdate>,

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
    /// The highest cycle seen by the previous tick (`fetch_states`).
    seen_by_last_tick: CycleId,

    // Commit products.
    store: KvStore,
    committed_log: Vec<CommittedCycle>,
    stats: CanopusStats,

    // Observability (disabled by default; see [`CanopusNode::with_obs`]).
    obs: CanopusObs,
}

/// Pre-registered observability handles. All of them are no-ops costing
/// one branch per update unless [`CanopusNode::with_obs`] installed an
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

impl CanopusNode {
    /// Creates node `me`. `table` must be the identical initial table at
    /// every node (paper assumption A1); `seed` feeds the node's
    /// deterministic RNG (proposal numbers, emulator choice, Raft timeouts).
    pub fn new(me: NodeId, table: EmulationTable, cfg: CanopusConfig, seed: u64) -> Self {
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
        CanopusNode {
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
            cycles: BTreeMap::new(),
            waiting_requests: Vec::new(),
            superleaf_roster,
            tombstoned: BTreeMap::new(),
            rejoined: BTreeMap::new(),
            pending_tombstones: BTreeMap::new(),
            remote_suspects: BTreeSet::new(),
            state_requests: (Time::ZERO, 0),
            seen_by_last_tick: CycleId(0),
            store: KvStore::new(),
            committed_log: Vec::new(),
            stats: CanopusStats::default(),
            obs: CanopusObs::from_hub(NodeObs::disabled()),
        }
    }

    /// Installs an observability hub (metrics registry + flight recorder).
    /// Builder-style; without it the node carries a disabled hub whose
    /// updates cost one branch each.
    pub fn with_obs(mut self, hub: NodeObs) -> Self {
        self.obs = CanopusObs::from_hub(hub);
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
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

    /// Proposal-requests from other super-leaves held until the state
    /// they ask for is computed here.
    pub fn waiting_requests(&self) -> usize {
        self.waiting_requests.len()
    }

    /// Highest committed cycle.
    pub fn last_committed(&self) -> CycleId {
        self.clock.last_committed()
    }

    /// Highest started cycle.
    pub fn last_started(&self) -> CycleId {
        self.clock.last_started()
    }

    // ------------------------------------------------------------------
    // Broadcast plumbing
    // ------------------------------------------------------------------

    fn flush_raft(&mut self, out: Outbox, ctx: &mut Context<'_, CanopusMsg>) {
        for (to, msg) in out {
            ctx.send(to, CanopusMsg::Raft(msg));
        }
    }

    fn broadcast_item(&mut self, item: &BroadcastItem, ctx: &mut Context<'_, CanopusMsg>) {
        let mut out = Outbox::new();
        let bcast = self.bcast.as_mut().expect("started");
        bcast.broadcast(item.to_bytes(), ctx.now(), &mut out);
        self.flush_raft(out, ctx);
    }

    /// Hands the node what its broadcast groups committed.
    fn deliver(&mut self, deliveries: Vec<Delivery>, ctx: &mut Context<'_, CanopusMsg>) {
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

    fn handle_client_request(&mut self, req: ClientRequest, ctx: &mut Context<'_, CanopusMsg>) {
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
            self.pending_weight += req.op.weight() as u64;
            self.pending_writes.push_back(req);
        } else {
            // Reads wait for the cycle that orders them (§5).
            self.pending_reads.push(PendingRead {
                write_prefix: self.pending_writes.len(),
                req,
                ordering_cycle: CycleId(0),
            });
        }
        self.maybe_start_cycles(ctx);
    }

    fn serve_read(&mut self, req: &ClientRequest, ctx: &mut Context<'_, CanopusMsg>) {
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
    }

    /// Starts as many cycles as the clock allows, and opens the batching
    /// window when it says the first work of a batch is here.
    fn maybe_start_cycles(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
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

    fn start_cycle(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        let (c, unfired_window) = self.clock.start(ctx.now());
        if let Some(timer) = unfired_window {
            ctx.cancel_timer(timer);
        }

        // Batch everything pending: writes and membership updates. Reads buffered during the previous window are ordered by
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
        };
        let number = self.rng.gen::<u64>();
        let state = VnodeState::round1(self.me, self.my_parent.clone(), c, number, set, updates);

        ctx.work(Work::Persist, 1);

        let now = ctx.now();
        let entry = self.cycle_entry(c);
        entry.started = true;
        entry.started_at = now;
        self.broadcast_item(&BroadcastItem::Proposal(state), ctx);
        // Issue this node's remote fetches for the cycle up front (§4.7
        // event 2: representatives request remote states as soon as the
        // cycle starts; emulators buffer until the state is ready).
        self.fetch_states(c, ctx);
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

    /// Sends the proposal-requests cycle `c` needs from this node (§4.5).
    /// The sibling states the cycle needs are numbered k = 0, 1, … in round
    /// order, and the k-th is fetched by the non-excluded roster member at
    /// position (c + k) mod their number: the members take turns, and none
    /// has to tell another which states it fetches. A fetch unanswered for
    /// `fetch_timeout` is retried at another emulator. Any member fetches a
    /// missing state of the oldest uncommitted cycle when it is overdue:
    /// its round is the lowest incomplete one, the round below is complete,
    /// and the cycle has made no progress for `fetch_timeout`, or the same
    /// vnode's state for a later cycle is already here (the forward of this
    /// one was lost, or its fetch is slow and this one hedges it), or by the
    /// previous tick a message had named a cycle `max_pipeline_depth` past
    /// it (its sender has committed the cycle, so the state exists; the tick
    /// lets a forward already on its way land first). A fetch already out
    /// for a state overdue by that last rule is sent again once, at once,
    /// to another emulator: the one asked may have crashed before its
    /// `Leave` committed. A second copy of a state is dropped on arrival.
    fn fetch_states(&mut self, c: CycleId, ctx: &mut Context<'_, CanopusMsg>) {
        let Some(entry) = (self.cycles.get(&c)).filter(|e| e.started && !e.committed) else {
            return;
        };
        let members: Vec<NodeId> = (self.superleaf_roster.iter().copied())
            .filter(|m| !self.tombstoned.contains_key(m))
            .collect();
        let now = ctx.now();
        let timeout = self.cfg.fetch_timeout;
        // Overdue states can be only in the oldest cycle's lowest incomplete
        // round, and only once the round below it is complete.
        let open_round = (2..=self.height)
            .find(|&r| entry.ancestors[r - 1].is_none())
            .filter(|&r| entry.ancestors[r - 2].is_some() && !entry.root_done)
            .filter(|_| c == self.clock.last_committed().next());
        let stalled = now.saturating_since(entry.last_progress) >= timeout;
        let committed = self.seen_by_last_tick.0 >= c.0 + self.cfg.max_pipeline_depth.max(1);
        let later = self.cycles.range(c.next()..);
        let shape = self.table.shape();
        let mut k = 0;
        let mut sends: Vec<(VnodeId, u32)> = Vec::new();
        for r in 2..=self.height {
            let own_child = shape.ancestor_of_superleaf(self.my_superleaf, r - 1);
            let target = shape.ancestor_of_superleaf(self.my_superleaf, r);
            for v in shape
                .children(&target)
                .into_iter()
                .filter(|v| *v != own_child)
            {
                let turn = members.get((c.0 + k) as usize % members.len().max(1));
                k += 1;
                if entry.remote.contains_key(&v) {
                    continue;
                }
                let open = open_round == Some(r);
                match entry.fetches.get(&v) {
                    Some(fetch)
                        if now.saturating_since(fetch.sent_at) >= timeout
                            || (open && committed && fetch.attempts == 1) =>
                    {
                        self.remote_suspects.insert(fetch.target);
                        sends.push((v, fetch.attempts));
                    }
                    Some(_) => {}
                    None if turn == Some(&self.me)
                        || (open
                            && (stalled
                                || committed
                                || later.clone().any(|(_, e)| e.remote.contains_key(&v)))) =>
                    {
                        sends.push((v, 0));
                    }
                    None => {}
                }
            }
        }
        for (v, attempt) in sends {
            self.issue_fetch(c, v, attempt, ctx);
        }
    }

    fn issue_fetch(
        &mut self,
        c: CycleId,
        vnode: VnodeId,
        attempt: u32,
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
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

    fn handle_delivery(
        &mut self,
        origin: NodeId,
        item: BroadcastItem,
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
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
    fn advance_cycle(&mut self, c: CycleId, ctx: &mut Context<'_, CanopusMsg>) {
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
    fn answer_waiting(&mut self, c: CycleId, ctx: &mut Context<'_, CanopusMsg>) {
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

    fn try_commit(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
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

    fn commit_cycle(&mut self, c: CycleId, ctx: &mut Context<'_, CanopusMsg>) {
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

        // 2. Apply the total order; interleave own reads at their recorded
        //    positions (§5).
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

        // Each set's writes go to the store in runs that end where an own
        // read is positioned, so the store can overlap their misses; a pass
        // over each run's ops then mixes the commit digest and replies to
        // this node's own clients, op by op.
        let mut total_weight: u64 = 0;
        let mut digest = self.stats.commit_digest ^ 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100000001b3);
            }
        };
        mix(c.0);
        let mut writes: Vec<(Key, &[u8])> = Vec::new();
        for set in &root.sets {
            let is_own = set.origin == self.me;
            mix(set.origin.0 as u64 + 1);
            let mut ops = set.ops.iter();
            let mut k = 0;
            loop {
                // Serve own reads positioned before the k-th own write.
                while is_own && read_iter.peek().is_some_and(|r| r.write_prefix <= k) {
                    let r = read_iter.next().expect("peeked");
                    self.serve_read(&r.req, ctx);
                }
                let end = match read_iter.peek() {
                    Some(r) if is_own => r.write_prefix.min(set.ops.len()),
                    _ => set.ops.len(),
                };
                if k == end {
                    break;
                }
                writes.clear();
                for op in ops.clone().take(end - k) {
                    match op.write {
                        WriteView::Put { key, value } => writes.push((key, value)),
                        WriteView::SyntheticWrite { .. } => {}
                        WriteView::MultiPut(puts) => writes.extend(puts),
                    }
                }
                self.store.put_many(&writes);
                for op in ops.by_ref().take(end - k) {
                    let weight = op.write.weight() as u64;
                    mix(op.op_id);
                    mix(op.client.0 as u64);
                    mix(weight);
                    self.applied_write(op, is_own, ctx);
                    total_weight += weight;
                }
                k = end;
            }
            if is_own {
                // Reads positioned after every own write.
                for r in read_iter.by_ref() {
                    self.serve_read(&r.req, ctx);
                }
            }
        }
        // If our own set was somehow absent (we never contributed — cannot
        // happen for cycles we committed), serve leftover reads anyway.
        for r in read_iter {
            self.serve_read(&r.req, ctx);
        }

        // 3. Bookkeeping.
        let started_at = self.cycles.get(&c).map(|e| e.started_at).unwrap_or(now);
        self.stats.cycle_latency_sum_ns += now.saturating_since(started_at).as_nanos();
        self.stats.committed_cycles += 1;
        self.stats.committed_weight += total_weight;
        self.stats.commit_digest = digest;
        if self.cfg.record_log {
            self.committed_log.push(CommittedCycle {
                cycle: c,
                at: now,
                sets: root.sets,
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

        // 4. Prune retired cycle state.
        let keep_from = CycleId(c.0.saturating_sub(STATE_RETENTION));
        let stale: Vec<CycleId> = self.cycles.range(..keep_from).map(|(&k, _)| k).collect();
        for k in stale {
            self.cycles.remove(&k);
        }
    }

    /// Finishes one committed write whose puts the store has applied:
    /// counts its work and replies to its client if it is this node's own.
    fn applied_write(&mut self, op: OpView<'_>, is_own: bool, ctx: &mut Context<'_, CanopusMsg>) {
        let weight = op.write.weight();
        ctx.work(Work::Apply, weight.into());
        let result = match op.write {
            WriteView::Put { .. } => OpResult::Written,
            WriteView::SyntheticWrite { .. } => OpResult::Batch,
            WriteView::MultiPut(puts) => {
                // Commit work scales with touched keys, not request weight.
                ctx.work(Work::Apply, puts.len() as u64);
                OpResult::Written
            }
        };
        if is_own {
            ctx.send(
                op.client,
                CanopusMsg::Reply(ClientReply {
                    op_id: op.op_id,
                    weight,
                    result,
                }),
            );
        }
    }

    // ------------------------------------------------------------------
    // Proposal-request serving (emulator role)
    // ------------------------------------------------------------------

    fn handle_proposal_request(
        &mut self,
        from: NodeId,
        cycle: CycleId,
        vnode: VnodeId,
        ctx: &mut Context<'_, CanopusMsg>,
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

    /// Takes in a fetched sibling state. The member that fetched it from
    /// outside the super-leaf (whose turn it was, or that found it overdue)
    /// forwards it to every other roster member, tombstoned ones included
    /// (one may still be alive and following), as a plain message: every
    /// emulator computes the same state for a cycle (Appendix A), so it
    /// needs delivery, not ordering. A peer the forward misses fetches the
    /// state itself once it is overdue (`fetch_states`).
    fn handle_proposal_response(
        &mut self,
        from: NodeId,
        state: VnodeState,
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
        let c = state.cycle;
        if c <= self.clock.last_committed() {
            return;
        }
        if let Some(held) = self.cycles.get(&c).and_then(|e| e.remote.get(&state.vnode)) {
            // A second copy (a forward and a fetch of its own, or a retried
            // fetch answered twice) repeats the first.
            debug_assert_eq!(*held, state, "two copies of one vnode state differ");
            return;
        }
        if !self.superleaf_roster.contains(&from) {
            for &peer in self.superleaf_roster.iter().filter(|&&p| p != self.me) {
                let state = state.clone();
                ctx.send(peer, CanopusMsg::ProposalResponse { state });
            }
        }
        self.clock.saw(c);
        let now = ctx.now();
        let entry = self.cycle_entry(c);
        entry.last_progress = now;
        entry.remote.insert(state.vnode.clone(), state);
        self.maybe_start_cycles(ctx);
        self.advance_cycle(c, ctx);
    }

    // ------------------------------------------------------------------
    // State transfer (a member that lost its broadcast logs, or was excluded
    // for longer than emulators keep cycle states)
    // ------------------------------------------------------------------

    /// Whether this node can go on only from a peer's state: some broadcast
    /// group says its log cannot serve it, or it is excluded and its next
    /// cycle has stalled for `fetch_timeout` while the sibling states that
    /// cycle needs may be gone. Emulators keep a committed cycle's states
    /// for `STATE_RETENTION` cycles, and no node commits a cycle that no
    /// member of this super-leaf has proposed, so they can be gone only once
    /// this node has seen a cycle that far past its next one. A member that
    /// takes part never gets there: the others wait for its proposals, and
    /// it runs at most `max_pipeline_depth` cycles (64 in the deepest
    /// preset) ahead of its commits.
    fn needs_state(&self, now: Time) -> bool {
        let next = self.clock.last_committed().next();
        let stalled = (self.cycles.get(&next))
            .is_none_or(|e| now.saturating_since(e.last_progress) >= self.cfg.fetch_timeout);
        let gone = self.tombstoned.contains_key(&self.me)
            && self.clock.max_seen().0 > next.0 + STATE_RETENTION;
        self.bcast.as_ref().expect("started").needs_snapshot() || (gone && stalled)
    }

    /// Asks the super-leaf peers in turn, one per `fetch_timeout`, for as
    /// long as this node needs a peer's state.
    fn request_state_if_needed(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        let (not_before, asked) = self.state_requests;
        if ctx.now() < not_before || !self.needs_state(ctx.now()) {
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

    fn handle_state_request(&mut self, from: NodeId, ctx: &mut Context<'_, CanopusMsg>) {
        if !self.superleaf_roster.contains(&from) || self.needs_state(ctx.now()) {
            return; // not ours to serve, or lost ourselves
        }
        let bcast = self.bcast.as_ref().expect("started");
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
        ctx: &mut Context<'_, CanopusMsg>,
    ) {
        if !self.needs_state(ctx.now())
            || !self.superleaf_roster.contains(&from)
            || snapshot.last_committed < self.clock.last_committed()
            || !(self.bcast.as_mut().expect("started")).resume_at(
                &snapshot.points,
                ctx.now(),
                &mut self.rng,
            )
        {
            return; // stale, or behind a group here: the next request will do
        }
        self.table.set_membership(snapshot.membership);
        self.superleaf_roster = snapshot.roster.into_iter().collect();
        self.tombstoned = snapshot.tombstoned.into_iter().collect();
        self.rejoined = snapshot.rejoined.into_iter().collect();
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

    fn on_tick(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        let now = ctx.now();
        let mut out = Outbox::new();
        let deliveries = {
            let bcast = self.bcast.as_mut().expect("started");
            bcast.tick(now, &mut self.rng, &mut out)
        };
        self.flush_raft(out, ctx);
        self.request_state_if_needed(ctx);
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

        // A held request for a committed cycle will not be answered here:
        // the state was dropped, was never computed here (it came with a
        // peer's state), or is of a vnode this node does not emulate. The
        // requester retries elsewhere or, if the state is gone from the
        // tree, takes a peer's state instead.
        let last_committed = self.clock.last_committed();
        (self.waiting_requests).retain(|&(_, cycle, _)| cycle > last_committed);

        // Fetches: this node's turns, retries and overdue states.
        let in_flight: Vec<CycleId> = (self.cycles.range(last_committed.next()..))
            .map(|(&c, _)| c)
            .collect();
        for c in in_flight {
            self.fetch_states(c, ctx);
        }
        self.seen_by_last_tick = self.clock.max_seen();

        ctx.set_timer(self.cfg.tick_interval, TICK);
    }
}

impl Process<CanopusMsg> for CanopusNode {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
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

    fn on_message(&mut self, from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
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
            // Nodes never receive replies.
            CanopusMsg::Reply(_) => {}
            CanopusMsg::ProposalRequest { cycle, vnode } => {
                self.handle_proposal_request(from, cycle, vnode, ctx)
            }
            CanopusMsg::ProposalResponse { state } => {
                self.handle_proposal_response(from, state, ctx)
            }
            CanopusMsg::StateRequest => self.handle_state_request(from, ctx),
            CanopusMsg::StateResponse { snapshot } => {
                self.handle_state_response(from, *snapshot, ctx)
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        match timer.token {
            TICK => self.on_tick(ctx),
            // The batching window has run out: the clock starts its cycle.
            WINDOW => self.maybe_start_cycles(ctx),
            _ => {}
        }
    }

    impl_process_any!();
}
