//! End-to-end Canopus cluster tests on the deterministic simulator.
//!
//! These exercise the §6 correctness properties (agreement, FIFO,
//! linearizability, liveness-or-stall) across LOT shapes, failure
//! scenarios, and the §5 read path.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use canopus::{
    CanopusConfig, CanopusMsg, CanopusNode, CanopusStats, CycleId, EmulationTable, LotShape,
    WriteView,
};
use canopus_kv::{
    check_agreement, check_client_fifo, ClientReply, ClientRequest, KvStore, LinChecker, Op,
    OpResult, ReadObs, ReplyEvent, WriteObs,
};
use canopus_obs::{EventKind, NodeObs};
use canopus_sim::{
    impl_process_any, Context, Dur, FaultAction, FaultyFabric, NodeId, Process, Simulation, Time,
    Timer, TraceEvent, UniformFabric, EXTERNAL,
};

// ---------------------------------------------------------------------
// Test client
// ---------------------------------------------------------------------

/// A scripted client: sends each op at its scheduled time, records replies.
struct ScriptClient {
    target: NodeId,
    script: Vec<(Dur, Op)>, // must be sorted by time
    cursor: usize,
    sent: Vec<(u64, Time)>, // (op_id, send time)
    replies: Vec<(u64, OpResult, Time)>,
}

impl ScriptClient {
    fn new(target: NodeId, script: Vec<(Dur, Op)>) -> Self {
        ScriptClient {
            target,
            script,
            cursor: 0,
            sent: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn arm_next(&self, ctx: &mut Context<'_, CanopusMsg>) {
        if let Some((when, _)) = self.script.get(self.cursor) {
            let delay = (Time::ZERO + *when).saturating_since(ctx.now());
            ctx.set_timer(delay, 0);
        }
    }
}

impl Process<CanopusMsg> for ScriptClient {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        self.arm_next(ctx);
    }

    fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        let (_, op) = self.script[self.cursor].clone();
        let op_id = self.cursor as u64;
        self.cursor += 1;
        self.sent.push((op_id, ctx.now()));
        ctx.send(
            self.target,
            CanopusMsg::Request(ClientRequest {
                client: ctx.id(),
                op_id,
                op,
            }),
        );
        self.arm_next(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
        if let CanopusMsg::Reply(ClientReply { op_id, result, .. }) = msg {
            self.replies.push((op_id, result, ctx.now()));
        }
    }

    impl_process_any!();
}

// ---------------------------------------------------------------------
// Cluster builder
// ---------------------------------------------------------------------

/// The same fault-injection decorator the harness `Cluster` uses, over the
/// uniform-latency fabric these protocol-level tests want.
type TestFabric = FaultyFabric<UniformFabric>;

struct Cluster {
    sim: Simulation<CanopusMsg, TestFabric>,
    nodes: Vec<NodeId>,
    /// Each node's flight recorder and counters, by node.
    hubs: Vec<NodeObs>,
}

impl Cluster {
    /// Installs (or lifts) a fault on the fabric, now.
    fn fault(&mut self, action: FaultAction) {
        self.sim.fabric_mut().faults_mut().apply(&action);
    }
}

fn build_cluster(shape: LotShape, per_leaf: usize, cfg: &CanopusConfig, seed: u64) -> Cluster {
    let leaves = shape.num_superleaves();
    let mut membership = Vec::new();
    let mut next = 0u32;
    for _ in 0..leaves {
        let members: Vec<NodeId> = (0..per_leaf).map(|i| NodeId(next + i as u32)).collect();
        next += per_leaf as u32;
        membership.push(members);
    }
    let table = EmulationTable::new(shape, membership);
    let mut sim = Simulation::new(FaultyFabric::new(UniformFabric::new(Dur::micros(50))), seed);
    let hubs: Vec<NodeObs> = (0..next).map(|i| NodeObs::enabled(i, 64)).collect();
    let mut nodes = Vec::new();
    for i in 0..next {
        let node = CanopusNode::new(NodeId(i), table.clone(), cfg.clone(), seed ^ 0x9e37)
            .with_obs(hubs[i as usize].clone());
        let id = sim.add_node(Box::new(node));
        assert_eq!(id, NodeId(i));
        nodes.push(id);
    }
    Cluster { sim, nodes, hubs }
}

fn add_client(cluster: &mut Cluster, target: NodeId, script: Vec<(Dur, Op)>) -> NodeId {
    cluster
        .sim
        .add_node(Box::new(ScriptClient::new(target, script)))
}

fn put(key: u64, tag: u8) -> Op {
    Op::Put {
        key,
        value: Bytes::from(vec![tag; 8]),
    }
}

/// One node's commit history as comparable `(key, client, op_id)`
/// entries (`u64::MAX` for a synthetic batch, `u64::MAX - 1` for a
/// `MultiPut`).
fn commit_history(node: &CanopusNode) -> Vec<(u64, u32, u64)> {
    let sets = node.committed_log().iter().flat_map(|c| &c.sets);
    sets.flat_map(|s| &s.ops)
        .map(|op| {
            let key = match op.write {
                WriteView::Put { key, .. } => key,
                WriteView::SyntheticWrite { .. } => u64::MAX,
                WriteView::MultiPut(_) => u64::MAX - 1,
            };
            (key, op.client.0, op.op_id)
        })
        .collect()
}

/// The per-node commit histories.
fn commit_histories(cluster: &Cluster) -> Vec<Vec<(u64, u32, u64)>> {
    (cluster.nodes.iter())
        .map(|&n| commit_history(cluster.sim.node::<CanopusNode>(n)))
        .collect()
}

fn stats_of(cluster: &Cluster, n: NodeId) -> CanopusStats {
    cluster.sim.node::<CanopusNode>(n).stats()
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn single_superleaf_commits_writes() {
    let cfg = CanopusConfig::default();
    let mut cluster = build_cluster(LotShape::flat(1), 3, &cfg, 1);
    let script: Vec<(Dur, Op)> = (0..5)
        .map(|i| (Dur::millis(1 + i), put(i, i as u8)))
        .collect();
    add_client(&mut cluster, NodeId(0), script);
    cluster.sim.run_for(Dur::millis(200));

    for &n in &cluster.nodes {
        let s = stats_of(&cluster, n);
        assert_eq!(s.committed_weight, 5, "{n} committed all writes");
        assert!(s.committed_cycles >= 1);
    }
    assert!(check_agreement(&commit_histories(&cluster)).is_ok());
}

#[test]
fn two_superleaves_agree_on_total_order() {
    let cfg = CanopusConfig::default();
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 2);
    // Clients on nodes in both super-leaves, writing concurrently.
    for (i, &target) in [NodeId(0), NodeId(1), NodeId(3), NodeId(5)]
        .iter()
        .enumerate()
    {
        let script: Vec<(Dur, Op)> = (0..8)
            .map(|k| {
                (
                    Dur::micros(500 + 137 * k + i as u64 * 53),
                    put(100 + k, i as u8),
                )
            })
            .collect();
        add_client(&mut cluster, target, script);
    }
    cluster.sim.run_for(Dur::millis(500));

    let histories = commit_histories(&cluster);
    assert!(check_agreement(&histories).is_ok(), "logs diverged");
    for (i, h) in histories.iter().enumerate() {
        assert_eq!(h.len(), 32, "node {i} committed all 32 writes");
    }
    // Digest equality across nodes.
    let d0 = stats_of(&cluster, NodeId(0)).commit_digest;
    for &n in &cluster.nodes {
        assert_eq!(stats_of(&cluster, n).commit_digest, d0);
    }
    // Emulation tables identical.
    let t0 = cluster
        .sim
        .node::<CanopusNode>(NodeId(0))
        .emulation_table()
        .digest();
    for &n in &cluster.nodes {
        assert_eq!(
            cluster
                .sim
                .node::<CanopusNode>(n)
                .emulation_table()
                .digest(),
            t0
        );
    }
}

/// The paper's §4.7 example (Figure 2): super-leaves Sx = {A, B, C} and
/// Sy = {D, E, F}; A, B and D hold requests RA, RB and RD when the cycle
/// starts, and C, E and F propose empty sets. The expected order was read
/// off this run with every node seeded 2017 (`build_cluster` gives each
/// node `seed ^ 0x9e37`). It is deterministic: the proposals' random
/// numbers set it, and the empty sets take positions like the others.
#[test]
fn paper_example_commits_whole_request_sets_in_one_order() {
    let cfg = CanopusConfig::default();
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 2017 ^ 0x9e37);
    for (node, key) in [(0u32, 100u64), (1, 200), (3, 300)] {
        let req = ClientRequest {
            client: EXTERNAL,
            op_id: key,
            op: put(key, b'8'),
        };
        let req = CanopusMsg::Request(req);
        cluster.sim.inject(NodeId(node), req, Dur::micros(10));
    }
    cluster.sim.run_for(Dur::millis(20));

    // One cycle, one set per node: (origin, keys written).
    let (a, b, c, d, e, f) = (0, 1, 2, 3, 4, 5);
    let expected = vec![
        (c, vec![]),
        (b, vec![200]),
        (a, vec![100]),
        (e, vec![]),
        (d, vec![300]),
        (f, vec![]),
    ];
    for &n in &cluster.nodes {
        let log = cluster.sim.node::<CanopusNode>(n).committed_log();
        assert_eq!(log.len(), 1, "{n} committed one cycle");
        let sets: Vec<(u32, Vec<u64>)> = (log[0].sets.iter())
            .map(|set| {
                let keys = (set.ops.iter()).map(|op| match op.write {
                    WriteView::Put { key, .. } => key,
                    other => panic!("only Puts were sent: {other:?}"),
                });
                (set.origin.0, keys.collect())
            })
            .collect();
        assert_eq!(sets, expected, "{n}'s order");
    }
}

#[test]
fn height_three_lot_agrees() {
    // Figure 1 shape scaled down: fanouts [2,2] => 4 super-leaves, h=3.
    let cfg = CanopusConfig::default();
    let shape = LotShape::new(vec![2, 2]);
    let mut cluster = build_cluster(shape, 3, &cfg, 3);
    for leaf in 0..4u32 {
        let target = NodeId(leaf * 3);
        let script: Vec<(Dur, Op)> = (0..6)
            .map(|k| {
                (
                    Dur::micros(300 + 211 * k),
                    put(leaf as u64 * 10 + k, leaf as u8),
                )
            })
            .collect();
        add_client(&mut cluster, target, script);
    }
    cluster.sim.run_for(Dur::millis(800));

    let histories = commit_histories(&cluster);
    assert!(check_agreement(&histories).is_ok());
    for h in &histories {
        assert_eq!(h.len(), 24, "all 24 writes committed everywhere");
    }
}

#[test]
fn reads_observe_writes_linearizably() {
    let cfg = CanopusConfig::default();
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 4);
    // Writer client on node 0; reader clients on nodes in both leaves.
    let writes: Vec<(Dur, Op)> = (0..10)
        .map(|k| (Dur::millis(2 * k + 1), put(7, k as u8)))
        .collect();
    add_client(&mut cluster, NodeId(0), writes);
    let reads_a: Vec<(Dur, Op)> = (0..10)
        .map(|k| (Dur::millis(2 * k + 2), Op::Get { key: 7 }))
        .collect();
    let reader_a = add_client(&mut cluster, NodeId(4), reads_a);
    let reads_b: Vec<(Dur, Op)> = (0..10)
        .map(|k| (Dur::millis(2 * k + 2), Op::Get { key: 7 }))
        .collect();
    let reader_b = add_client(&mut cluster, NodeId(2), reads_b);
    cluster.sim.run_for(Dur::millis(500));

    // Build the linearizability checker from node 0's commit log,
    // replayed into a store for each Put's version.
    let mut checker = LinChecker::new();
    {
        let node = cluster.sim.node::<CanopusNode>(NodeId(0));
        let mut store = KvStore::new();
        for cc in node.committed_log() {
            for set in &cc.sets {
                for op in &set.ops {
                    if let WriteView::Put { key, value } = op.write {
                        checker.record_write(WriteObs {
                            key,
                            version: store.put(key, value),
                            committed: cc.at,
                        });
                    }
                }
            }
        }
    }
    // Validate all reads. Values encode the version via the write tag:
    // version v was written with tag v-1 (write k creates version k+1).
    let mut total_reads = 0;
    for reader in [reader_a, reader_b] {
        let client = cluster.sim.node::<ScriptClient>(reader);
        assert_eq!(client.replies.len(), 10, "all reads answered");
        for (op_id, result, at) in &client.replies {
            let (_, sent) = client.sent[*op_id as usize];
            let version = match result {
                OpResult::Value(None) => 0,
                OpResult::Value(Some(v)) => v[0] as u64 + 1,
                other => panic!("unexpected read result {other:?}"),
            };
            let obs = ReadObs {
                key: 7,
                version,
                invoke: sent,
                respond: *at,
            };
            checker
                .check_read(obs)
                .unwrap_or_else(|e| panic!("linearizability violation at reader {reader}: {e:?}"));
            total_reads += 1;
        }
    }
    assert_eq!(total_reads, 20);
}

#[test]
fn client_fifo_order_is_preserved() {
    let cfg = CanopusConfig::default();
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 5);
    // One client interleaving writes and reads rapid-fire at one node.
    let mut script = Vec::new();
    for k in 0..20u64 {
        let op = if k % 3 == 0 {
            Op::Get { key: 1 }
        } else {
            put(1, k as u8)
        };
        script.push((Dur::micros(100 * k + 50), op));
    }
    let client = add_client(&mut cluster, NodeId(1), script);
    cluster.sim.run_for(Dur::millis(500));

    let c = cluster.sim.node::<ScriptClient>(client);
    assert_eq!(c.replies.len(), 20, "all ops answered");
    let events: Vec<ReplyEvent> = c
        .replies
        .iter()
        .map(|(op_id, _, at)| ReplyEvent {
            client,
            op_id: *op_id,
            at: *at,
        })
        .collect();
    check_client_fifo(&events).expect("client FIFO order");
}

#[test]
fn pipelined_mode_commits_under_load() {
    let cfg = CanopusConfig {
        max_linger: Dur::millis(2),
        max_pipeline_depth: 64,
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(3), 3, &cfg, 6);
    for leaf in 0..3u32 {
        let target = NodeId(leaf * 3 + 1);
        let script: Vec<(Dur, Op)> = (0..30)
            .map(|k| {
                (
                    Dur::micros(200 * k + 79),
                    put(leaf as u64 * 100 + k, leaf as u8),
                )
            })
            .collect();
        add_client(&mut cluster, target, script);
    }
    cluster.sim.run_for(Dur::millis(500));

    let histories = commit_histories(&cluster);
    assert!(check_agreement(&histories).is_ok());
    for h in &histories {
        assert_eq!(h.len(), 90);
    }
    let s = stats_of(&cluster, NodeId(0));
    assert!(
        s.committed_cycles >= 3,
        "pipelined mode ran multiple cycles: {}",
        s.committed_cycles
    );
}

/// The start rule at rest and at its slowest: under the wide-area
/// configuration an idle cluster starts no cycle and arms no window timer,
/// and a single request is in a cycle `max_linger` after it arrived — the
/// one window the whole cluster opens for it — and commits everywhere.
#[test]
fn idle_wide_area_cluster_is_quiet_and_one_request_commits_everywhere() {
    let cfg = CanopusConfig::wide_area();
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 13);
    let sent_at = Dur::millis(300);
    let client = add_client(&mut cluster, NodeId(4), vec![(sent_at, put(1, 1))]);
    let windows_armed = |cluster: &Cluster| -> Vec<usize> {
        let arm = |e: &canopus_obs::FlightEvent| matches!(e.kind, EventKind::LingerArm { .. });
        (cluster.hubs.iter())
            .map(|hub| hub.flight.events().iter().filter(|e| arm(e)).count())
            .collect()
    };
    let started = |cluster: &Cluster, n: u32| {
        let node = cluster.sim.node::<CanopusNode>(NodeId(n));
        node.last_started().0
    };

    cluster.sim.run_for(sent_at - Dur::millis(1));
    assert_eq!(windows_armed(&cluster), [0; 6], "idle, yet a window timer");
    for n in 0..6 {
        assert_eq!(started(&cluster, n), 0, "idle, yet n{n} started a cycle");
        assert_eq!(cluster.hubs[n as usize].flight.recorded(), 0);
    }

    // The request arrives a network hop after it is sent.
    cluster.sim.run_for(Dur::millis(1) + cfg.max_linger);
    assert_eq!(started(&cluster, 4), 0, "the window is still open");
    cluster.sim.run_for(Dur::millis(1));
    assert_eq!(
        started(&cluster, 4),
        1,
        "in a cycle a window after arriving"
    );

    cluster.sim.run_for(Dur::millis(200));
    for &n in &cluster.nodes {
        let s = stats_of(&cluster, n);
        assert_eq!((s.committed_cycles, s.committed_weight), (1, 1), "{n}");
    }
    assert_eq!(cluster.sim.node::<ScriptClient>(client).replies.len(), 1);
    // Everyone else was prompted into the cycle; nobody opened a second.
    assert_eq!(windows_armed(&cluster), [0, 0, 0, 0, 1, 0]);
    let fires = |hub: &NodeObs| hub.metrics.snapshot().counter("canopus.linger_fires");
    assert_eq!(fires(&cluster.hubs[4]), Some(1));
    assert!((0..6).all(|n| started(&cluster, n) == 1));
}

#[test]
fn linger_window_batches_writes_into_fewer_cycles() {
    // Same 40-write workload, with and without a batching window. Both must
    // commit everything and agree; the lingering run must need fewer cycles
    // because arrivals inside each 1 ms window share a proposal.
    let run = |linger: Dur| {
        let cfg = CanopusConfig {
            max_linger: linger,
            ..CanopusConfig::default()
        };
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 11);
        let script: Vec<(Dur, Op)> = (0..40)
            .map(|k| (Dur::micros(150 * k + 97), put(k, 1)))
            .collect();
        add_client(&mut cluster, NodeId(1), script);
        cluster.sim.run_for(Dur::millis(400));
        let histories = commit_histories(&cluster);
        assert!(check_agreement(&histories).is_ok());
        assert_eq!(histories[0].len(), 40, "all writes committed");
        stats_of(&cluster, NodeId(0)).committed_cycles
    };
    let unbatched = run(Dur::ZERO);
    let batched = run(Dur::millis(1));
    assert!(
        batched < unbatched,
        "lingering must coalesce cycles: {batched} (1 ms window) vs {unbatched} (none)"
    );
}

#[test]
fn on_commit_pipelining_overlaps_cycles() {
    // No batching window, depth > 1: cycle N+1's exchange may begin
    // while cycle N drains. Correctness (agreement, no loss, FIFO of the
    // commit order) must be unaffected.
    let cfg = CanopusConfig {
        max_pipeline_depth: 4,
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(3), 3, &cfg, 12);
    for leaf in 0..3u32 {
        let target = NodeId(leaf * 3);
        let script: Vec<(Dur, Op)> = (0..30)
            .map(|k| {
                (
                    Dur::micros(120 * k + 53),
                    put(leaf as u64 * 100 + k, leaf as u8),
                )
            })
            .collect();
        add_client(&mut cluster, target, script);
    }
    cluster.sim.run_for(Dur::millis(500));
    let histories = commit_histories(&cluster);
    assert!(check_agreement(&histories).is_ok());
    for h in &histories {
        assert_eq!(h.len(), 90, "all writes committed under pipelining");
    }
    let s = stats_of(&cluster, NodeId(0));
    assert!(
        s.committed_cycles >= 3,
        "depth 4 ran multiple cycles: {}",
        s.committed_cycles
    );
}

#[test]
fn retained_state_stays_bounded_over_ten_thousand_broadcasts() {
    // One write a millisecond is one cycle a millisecond, and every cycle
    // delivers three broadcasts at every node: its super-leaf's three
    // proposals. The other super-leaf's state arrives outside the
    // broadcast, fetched or forwarded.
    const CYCLES: u64 = 3_400;
    let cfg = CanopusConfig {
        record_log: false,
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 21);
    let script: Vec<(Dur, Op)> = (0..CYCLES)
        .map(|k| (Dur::millis(k + 1), put(k, 1)))
        .collect();
    add_client(&mut cluster, NodeId(0), script);
    let (mut most_raft, mut most_ops) = (0, 0);
    for _ in 0..CYCLES / 100 + 1 {
        cluster.sim.run_for(Dur::millis(100));
        for &n in &cluster.nodes {
            let (raft, ops) = cluster.sim.node::<CanopusNode>(n).retained();
            most_raft = most_raft.max(raft);
            most_ops = most_ops.max(ops);
        }
    }
    for &n in &cluster.nodes {
        let s = stats_of(&cluster, n);
        assert_eq!(s.committed_weight, CYCLES);
        assert!(
            s.committed_cycles * 3 >= 10_000,
            "{} cycles",
            s.committed_cycles
        );
    }
    // Three groups of a few entries each; one operation per retained
    // cycle (a node keeps 64) in the one ancestor a late
    // proposal-request can ask for.
    assert!(most_raft <= 9, "{most_raft} Raft entries retained");
    assert!(
        most_ops <= 2 * 64,
        "{most_ops} operations retained in cycle state"
    );
}

#[test]
fn node_failure_excludes_and_consensus_continues() {
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(40),
        ..CanopusConfig::default()
    };
    // The client writes to `target` in super-leaf 0 (nodes 0–2), and the
    // crash lands between cycles 5 and 6. Super-leaf 0 needs one remote
    // state a round, and the member at position c + k mod 3 fetches cycle
    // c's k-th: in the flat tree node 1's turns are cycles 1, 4, 7, …, and
    // cycle 7 starts only once node 1 is excluded, so node 2 fetches it.
    // In the 2×2 tree (four super-leaves of three) cycle 6's round-2 state
    // (from super-leaf 1) is node 0's turn and its round-3 state (from the
    // other height-2 subtree, nodes 6–11) node 1's. So crashing node 1, or
    // node 0 with the client on node 2, leaves a turn of the cycle in
    // flight to the survivors. Node 1 asks node 7 for cycle 6's round-3
    // state, so crashing node 7 leaves super-leaf 0 waiting on a dead
    // emulator until the state is overdue and fetched elsewhere.
    for (shape, crashed, target) in [
        (LotShape::flat(2), NodeId(1), NodeId(0)),
        (LotShape::new(vec![2, 2]), NodeId(1), NodeId(0)),
        (LotShape::new(vec![2, 2]), NodeId(0), NodeId(2)),
        (LotShape::new(vec![2, 2]), NodeId(7), NodeId(0)),
    ] {
        let case = format!("{shape:?}, {crashed} crashed");
        let mut cluster = build_cluster(shape, 3, &cfg, 7);
        let script: Vec<(Dur, Op)> = (0..40)
            .map(|k| (Dur::millis(2 * k + 1), put(k, k as u8)))
            .collect();
        let client = add_client(&mut cluster, target, script);
        // Run a bit, then crash the node.
        cluster.sim.run_for(Dur::millis(10));
        cluster.sim.crash(crashed);
        cluster.sim.run_for(Dur::millis(400));

        // The survivors must keep committing: all 40 writes eventually commit.
        let c = cluster.sim.node::<ScriptClient>(client);
        assert_eq!(
            c.replies.len(),
            40,
            "{case}: writes complete despite peer failure"
        );
        // Survivor logs agree.
        let mut survivors = commit_histories(&cluster);
        survivors.remove(crashed.0 as usize);
        assert!(check_agreement(&survivors).is_ok(), "{case}");
        // The failed node was removed from every surviving emulation table.
        for &n in cluster.nodes.iter().filter(|&&n| n != crashed) {
            let node = cluster.sim.node::<CanopusNode>(n);
            assert_eq!(
                node.emulation_table().superleaf_of(crashed),
                None,
                "{case}: {n} still lists the dead node"
            );
        }
    }
}

/// Every member of a super-leaf takes its turn fetching sibling states
/// (§4.5): the k-th state cycle c needs goes to the member at position
/// (c + k) mod the number of members, so over many cycles no member sends
/// more than one proposal-request more than another. Checked in a flat tree
/// (two states a cycle), in fanout-2 trees (one state a round, so a fixed
/// first representative would fetch them all), in a 3×3 tree, and among
/// the survivors once a member has been excluded.
#[test]
fn every_member_takes_its_turn_fetching() {
    let crash_cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(40),
        ..CanopusConfig::default()
    };
    for (shape, cfg, crashed) in [
        (LotShape::flat(3), CanopusConfig::default(), None),
        (LotShape::new(vec![2, 2]), CanopusConfig::default(), None),
        (LotShape::new(vec![3, 3]), CanopusConfig::default(), None),
        (LotShape::flat(3), crash_cfg, Some(NodeId(1))),
    ] {
        let case = format!("{shape:?}, {crashed:?} crashed");
        let leaves = shape.num_superleaves();
        let mut cluster = build_cluster(shape, 3, &cfg, 7);
        // After a crash, count once the exclusion has settled.
        let count_from = Time::ZERO + Dur::millis(if crashed.is_some() { 150 } else { 0 });
        let sent = Rc::new(RefCell::new(vec![0u64; cluster.nodes.len()]));
        let tally = sent.clone();
        cluster.sim.set_tracer(Box::new(move |event| {
            if let TraceEvent::Send { from, at, msg, .. } = event {
                if matches!(msg, CanopusMsg::ProposalRequest { .. }) && *at >= count_from {
                    tally.borrow_mut()[from.0 as usize] += 1;
                }
            }
        }));
        let clients: Vec<NodeId> = (0..leaves as u32)
            .map(|s| {
                let script = (0..75)
                    .map(|k| (Dur::millis(4 * k + 1), put(k, s as u8)))
                    .collect();
                add_client(&mut cluster, NodeId(3 * s), script)
            })
            .collect();
        cluster.sim.run_for(Dur::millis(50));
        if let Some(node) = crashed {
            cluster.sim.crash(node);
        }
        cluster.sim.run_for(Dur::millis(450));

        for &client in &clients {
            let replies = cluster.sim.node::<ScriptClient>(client).replies.len();
            assert_eq!(replies, 75, "{case}: writes acknowledged to {client}");
        }
        let sent = sent.borrow();
        for leaf in 0..leaves {
            let counts: Vec<u64> = (3 * leaf..3 * leaf + 3)
                .filter(|&n| Some(NodeId(n as u32)) != crashed)
                .map(|n| sent[n])
                .collect();
            let (most, least) = (counts.iter().max(), counts.iter().min());
            assert!(
                most.unwrap() - least.unwrap() <= 1,
                "{case}: proposal-requests sent by each node {sent:?}"
            );
        }
    }
}

#[test]
fn restarted_member_takes_over_a_peers_state_and_follows() {
    // Pipelined cycles under steady load from both super-leaves, so the
    // broadcast logs are long compacted when node 1 comes back with
    // nothing, and the peer it asks has cycles in flight when it answers.
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(40),
        max_pipeline_depth: 4,
        record_log: false,
        ..CanopusConfig::default()
    };
    let shape = LotShape::flat(2);
    let mut cluster = build_cluster(shape.clone(), 3, &cfg, 33);
    for (target, base) in [(NodeId(0), 0), (NodeId(3), 10_000)] {
        let script: Vec<(Dur, Op)> = (0..2_500)
            .map(|k| (Dur::micros(200 * k + 70), put(base + k % 50, k as u8)))
            .collect();
        add_client(&mut cluster, target, script);
    }
    cluster.sim.run_for(Dur::millis(50));
    cluster.sim.crash(NodeId(1));
    cluster.sim.run_for(Dur::millis(150));
    let survivor = cluster.sim.node::<CanopusNode>(NodeId(0));
    assert_eq!(survivor.emulation_table().superleaf_of(NodeId(1)), None);
    let committed_before = survivor.stats().committed_cycles;
    assert!(committed_before > 100, "{committed_before} cycles");

    let members = |s: u32| (0..3).map(|i| NodeId(3 * s + i)).collect();
    let table = EmulationTable::new(shape, vec![members(0), members(1)]);
    let fresh = CanopusNode::new(NodeId(1), table, cfg.clone(), 34);
    cluster.sim.restart(NodeId(1), Box::new(fresh));
    cluster.sim.run_for(Dur::millis(150));
    // Caught up while the load is still on ...
    let back = stats_of(&cluster, NodeId(1));
    assert!(
        back.committed_cycles > committed_before,
        "{} cycles",
        back.committed_cycles
    );
    // ... and, once it is off, level with the survivors in every respect.
    cluster.sim.run_for(Dur::millis(400));
    let (back, peer) = (stats_of(&cluster, NodeId(1)), stats_of(&cluster, NodeId(0)));
    assert_eq!(peer.committed_weight, 5_000);
    assert_eq!(back.commit_digest, peer.commit_digest);
    assert_eq!(back.committed_cycles, peer.committed_cycles);
    assert_eq!(back.committed_weight, peer.committed_weight);
    let node = |n| cluster.sim.node::<CanopusNode>(NodeId(n));
    assert_eq!(node(1).store().digest(), node(0).store().digest());
    assert_eq!(
        node(1).emulation_table().digest(),
        node(0).emulation_table().digest()
    );
    // A member that follows again holds nobody's log back.
    for n in 0..3 {
        let (raft, _) = node(n).retained();
        assert!(raft <= 9, "node {n} retains {raft} Raft entries");
    }
}

#[test]
fn superleaf_failure_stalls_without_divergence() {
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(50),
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 8);
    let script: Vec<(Dur, Op)> = (0..30)
        .map(|k| (Dur::millis(3 * k + 1), put(k, k as u8)))
        .collect();
    add_client(&mut cluster, NodeId(0), script);
    cluster.sim.run_for(Dur::millis(20));
    // Kill the entire second super-leaf.
    cluster.sim.crash(NodeId(3));
    cluster.sim.crash(NodeId(4));
    cluster.sim.crash(NodeId(5));
    cluster.sim.run_for(Dur::millis(300));
    let committed_mid = stats_of(&cluster, NodeId(0)).committed_cycles;
    cluster.sim.run_for(Dur::millis(300));
    let committed_late = stats_of(&cluster, NodeId(0)).committed_cycles;

    // Consensus stalls: no further cycles complete (§3.3: halt until the
    // rack recovers).
    assert_eq!(
        committed_mid, committed_late,
        "consensus must stall when a super-leaf fails"
    );
    // And the survivors never diverged.
    let survivors: Vec<Vec<(u64, u32, u64)>> = [NodeId(0), NodeId(1), NodeId(2)]
        .iter()
        .map(|&n| commit_history(cluster.sim.node::<CanopusNode>(n)))
        .collect();
    assert!(check_agreement(&survivors).is_ok());
}

#[test]
fn superleaf_partition_stalls_then_recovers_after_heal() {
    let cfg = CanopusConfig {
        fetch_timeout: Dur::millis(20),
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 21);
    let script: Vec<(Dur, Op)> = (0..60)
        .map(|k| (Dur::millis(2 * k + 1), put(k, k as u8)))
        .collect();
    let client = add_client(&mut cluster, NodeId(0), script);
    cluster.sim.run_for(Dur::millis(20));

    // Cut the two super-leaves apart.
    let leaf0: Vec<NodeId> = (0..3).map(NodeId).collect();
    let leaf1: Vec<NodeId> = (3..6).map(NodeId).collect();
    cluster.fault(FaultAction::Cut(leaf0, leaf1));
    cluster.sim.run_for(Dur::millis(150));
    let stalled_at = stats_of(&cluster, NodeId(0)).committed_cycles;
    cluster.sim.run_for(Dur::millis(150));
    // Liveness is lost while the partition holds (§3.3: stall, not
    // diverge)…
    assert_eq!(
        stats_of(&cluster, NodeId(0)).committed_cycles,
        stalled_at,
        "no cycle may complete across a super-leaf partition"
    );
    assert!(check_agreement(&commit_histories(&cluster)).is_ok());

    // …and restored once the partition heals: every write completes.
    cluster.fault(FaultAction::HealAll);
    cluster.sim.run_for(Dur::millis(600));
    let c = cluster.sim.node::<ScriptClient>(client);
    assert_eq!(c.replies.len(), 60, "all writes commit after healing");
    assert!(check_agreement(&commit_histories(&cluster)).is_ok());
}

/// A cut inside a super-leaf that outlasts an election timeout but not the
/// failure timeout. A peer usurps the cut-off member's broadcast group
/// while that member, alive and still serving its client, goes on
/// proposing under its stale term; when the cut heals Raft truncates what
/// it proposed. The member must propose it again once it has its group
/// back: every node waits for that proposal, and nobody tombstones a node
/// that is alive.
#[test]
fn usurped_owner_proposes_again_what_the_usurper_truncated() {
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(100),
        fetch_timeout: Dur::millis(20),
        ..CanopusConfig::default()
    };
    for seed in 23..27 {
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, seed);
        let script: Vec<(Dur, Op)> = (0..100)
            .map(|k| (Dur::millis(2 * k + 1), put(k, k as u8)))
            .collect();
        let client = add_client(&mut cluster, NodeId(0), script);
        cluster.sim.run_for(Dur::millis(20));
        cluster.fault(FaultAction::Cut(
            vec![NodeId(0)],
            vec![NodeId(1), NodeId(2)],
        ));
        cluster.sim.run_for(Dur::millis(40));
        cluster.fault(FaultAction::HealAll);
        cluster.sim.run_for(Dur::millis(800));

        let c = cluster.sim.node::<ScriptClient>(client);
        assert_eq!(c.replies.len(), 100, "seed {seed}: the cluster wedged");
        assert!(check_agreement(&commit_histories(&cluster)).is_ok());
        for &n in &cluster.nodes {
            let table = cluster.sim.node::<CanopusNode>(n).emulation_table();
            assert!(
                table.superleaf_of(NodeId(0)).is_some(),
                "nobody was excluded"
            );
        }
    }
}

#[test]
fn intra_leaf_isolation_excludes_member_and_consensus_continues() {
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(40),
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 22);
    let script: Vec<(Dur, Op)> = (0..40)
        .map(|k| (Dur::millis(2 * k + 1), put(k, k as u8)))
        .collect();
    let client = add_client(&mut cluster, NodeId(0), script);
    cluster.sim.run_for(Dur::millis(10));
    // Isolate node 1 (no crash: the process stays alive but unreachable).
    cluster.fault(FaultAction::Isolate(NodeId(1)));
    cluster.sim.run_for(Dur::millis(400));

    // The survivors tombstone the silent member and keep committing.
    let c = cluster.sim.node::<ScriptClient>(client);
    assert_eq!(c.replies.len(), 40, "writes complete despite isolation");
    for &n in cluster.nodes.iter().filter(|&&n| n != NodeId(1)) {
        let node = cluster.sim.node::<CanopusNode>(n);
        assert_eq!(
            node.emulation_table().superleaf_of(NodeId(1)),
            None,
            "{n} still lists the isolated node"
        );
    }
    // Survivor histories agree (the isolated node is merely behind).
    let survivors: Vec<Vec<(u64, u32, u64)>> = commit_histories(&cluster)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != 1)
        .map(|(_, h)| h)
        .collect();
    assert!(check_agreement(&survivors).is_ok());
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let cfg = CanopusConfig::default();
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, seed);
        for (i, &target) in [NodeId(0), NodeId(4)].iter().enumerate() {
            let script: Vec<(Dur, Op)> = (0..10)
                .map(|k| (Dur::micros(400 * k + 31), put(k, i as u8)))
                .collect();
            add_client(&mut cluster, target, script);
        }
        cluster.sim.run_for(Dur::millis(300));
        (
            commit_histories(&cluster),
            stats_of(&cluster, NodeId(0)).commit_digest,
            cluster.sim.events_processed(),
        )
    };
    assert_eq!(run(42), run(42), "same seed, same history");
}

#[test]
fn empty_cluster_stays_idle() {
    let cfg = CanopusConfig::default();
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 9);
    cluster.sim.run_for(Dur::millis(200));
    for &n in &cluster.nodes {
        let s = stats_of(&cluster, n);
        assert_eq!(s.committed_cycles, 0, "no cycles without client traffic");
    }
}

/// A member cut off from every other node but not from its client. The
/// survivors tombstone it and go on committing, so a write acknowledged
/// while the cut holds is missing from its store. A read sent to it must
/// not be answered from that store: it waits for the cycle that orders it
/// (§5), which cannot commit until the cut heals, and then sees the write.
#[test]
fn a_member_cut_off_from_the_tree_never_serves_a_stale_read() {
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(40),
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 5);
    let mut writes = vec![(Dur::millis(1), put(7, 1))];
    writes.extend((0..40).map(|i| (Dur::millis(5 + i), put(100 + i, 0))));
    writes.push((Dur::millis(150), put(7, 2)));
    let writer = add_client(&mut cluster, NodeId(0), writes);
    let read_at = Time::ZERO + Dur::millis(300);
    let reader = add_client(
        &mut cluster,
        NodeId(1),
        vec![(Dur::millis(300), Op::Get { key: 7 })],
    );

    cluster.sim.run_for(Dur::millis(60));
    let others: Vec<NodeId> = [0, 2, 3, 4, 5].map(NodeId).to_vec();
    cluster.fault(FaultAction::Cut(vec![NodeId(1)], others));
    cluster.sim.run_for(Dur::millis(400));

    let w = cluster.sim.node::<ScriptClient>(writer);
    let acked = w.replies.iter().find(|(op_id, ..)| *op_id == 41);
    let &(_, _, acked_at) = acked.expect("the tag-2 write commits without node 1");
    assert!(
        acked_at < read_at,
        "the tag-2 write was acknowledged at {acked_at:?}"
    );
    let r = cluster.sim.node::<ScriptClient>(reader);
    assert_eq!(r.sent.len(), 1, "the read was sent");
    assert!(
        r.replies.is_empty(),
        "a member cut off from the tree answered a read: {:?}",
        r.replies
    );

    cluster.fault(FaultAction::HealAll);
    cluster.sim.run_for(Dur::millis(800));
    let r = cluster.sim.node::<ScriptClient>(reader);
    match &r.replies[..] {
        [(0, OpResult::Value(Some(v)), at)] => {
            assert_eq!(v[0], 2, "the read after the heal sees the tag-2 write");
            assert!(*at > read_at);
        }
        other => panic!("expected one tag-2 reply after the heal, got {other:?}"),
    }
}

/// A member cut off while some 200 cycles commit without it, once from its
/// super-leaf only and once from every other node. Emulators keep a
/// committed cycle's state for 64 cycles, so by the heal the sibling
/// states of the first cycles it missed are gone from the tree. It must
/// still end level with its peers once the load is off, and no node may be
/// left holding proposal-requests it can never answer.
#[test]
fn a_member_cut_off_for_longer_than_emulators_keep_states_catches_up() {
    let cfg = CanopusConfig {
        failure_timeout: Dur::millis(15),
        fetch_timeout: Dur::millis(40),
        record_log: false,
        ..CanopusConfig::default()
    };
    for others in [vec![0, 2], vec![0, 2, 3, 4, 5]] {
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 11);
        for (target, base) in [(NodeId(0), 0), (NodeId(4), 1_000)] {
            let script: Vec<(Dur, Op)> = (0..300)
                .map(|k| (Dur::millis(k + 1), put(base + k % 40, k as u8)))
                .collect();
            add_client(&mut cluster, target, script);
        }
        cluster.sim.run_for(Dur::millis(20));
        let others: Vec<NodeId> = others.into_iter().map(NodeId).collect();
        cluster.fault(FaultAction::Cut(vec![NodeId(1)], others.clone()));
        cluster.sim.run_for(Dur::millis(220));
        let (cut_off, peer) = (stats_of(&cluster, NodeId(1)), stats_of(&cluster, NodeId(0)));
        let behind = peer.committed_cycles - cut_off.committed_cycles;
        assert!(behind > 150, "cut from {others:?}: {behind} cycles behind");

        cluster.fault(FaultAction::HealAll);
        cluster.sim.run_for(Dur::millis(600));
        let (back, peer) = (stats_of(&cluster, NodeId(1)), stats_of(&cluster, NodeId(0)));
        assert_eq!(peer.committed_weight, 600);
        assert_eq!(
            back.commit_digest, peer.commit_digest,
            "cut from {others:?}"
        );
        assert_eq!(back.committed_cycles, peer.committed_cycles);
        let node = |n| cluster.sim.node::<CanopusNode>(NodeId(n));
        assert_eq!(node(1).store().digest(), node(0).store().digest());
        // A late request for a state long dropped is not held either.
        let vnode = LotShape::flat(2).ancestor_of_superleaf(1, 1);
        let stale = CanopusMsg::ProposalRequest {
            cycle: CycleId(1),
            vnode,
        };
        cluster.sim.inject(NodeId(3), stale, Dur::ZERO);
        cluster.sim.run_for(Dur::millis(1));
        for &n in &cluster.nodes {
            let waiting = cluster.sim.node::<CanopusNode>(n).waiting_requests();
            assert_eq!(
                waiting, 0,
                "cut from {others:?}: {n} holds {waiting} requests"
            );
        }
    }
}

/// A member forwards each state it fetched to its super-leaf peers once,
/// with no acknowledgement or retransmission. A peer the forward misses
/// still commits: when its oldest cycle has made no progress for
/// `fetch_timeout`, it fetches the missing state itself. Node 3's write
/// starts cycle 1, whose one remote state for super-leaf 0 is node 1's to
/// fetch (position 1 + 0 mod 3); node 1's link to node 0 is down while the
/// state comes in, so its forward to node 0 is lost.
#[test]
fn a_member_that_misses_the_forward_still_commits() {
    let cfg = CanopusConfig {
        fetch_timeout: Dur::millis(40),
        ..CanopusConfig::default()
    };
    let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 7);
    add_client(&mut cluster, NodeId(3), vec![(Dur::millis(50), put(1, 1))]);
    cluster.sim.run_for(Dur::millis(49));
    cluster.fault(FaultAction::Cut(vec![NodeId(0)], vec![NodeId(1)]));
    cluster.sim.run_for(Dur::millis(6));
    cluster.fault(FaultAction::HealAll);
    let healed = Time::ZERO + Dur::millis(55);
    cluster.sim.run_for(Dur::millis(200));

    assert!(check_agreement(&commit_histories(&cluster)).is_ok());
    for (n, hub) in cluster.hubs.iter().enumerate() {
        let committed = (hub.flight.events().into_iter()).find_map(|e| match e.kind {
            EventKind::Commit { weight: 1, .. } => Some(Time::from_nanos(e.at_nanos)),
            _ => None,
        });
        let at = committed.unwrap_or_else(|| panic!("n{n} never committed the write"));
        assert!(
            at <= healed + cfg.fetch_timeout * 2,
            "n{n} committed the write at {at:?}"
        );
    }
    // Super-leaf 1 was asked for its state twice: by node 1, and by node 0
    // when its cycle stalled without the forward.
    let served: u64 = (3..6)
        .map(|n| stats_of(&cluster, NodeId(n)).fetches_served)
        .sum();
    assert_eq!(served, 2, "fetches of super-leaf 1's state");
}

/// The forward to node 0 is lost as above, but a second write at 60 ms
/// starts cycle 2 while node 0 still waits for cycle 1. A message naming
/// a cycle past the pipeline depth shows that cycle 1 committed elsewhere,
/// and node 2's forward of super-leaf 1's cycle-2 state (its turn)
/// overtakes the lost one: either tells node 0 the missing state exists,
/// so it fetches it at once rather than after `fetch_timeout` without
/// progress.
#[test]
fn a_member_fetches_a_lost_forward_once_a_later_cycle_shows_it_exists() {
    for depth in [1, 4] {
        let cfg = CanopusConfig {
            fetch_timeout: Dur::millis(40),
            max_pipeline_depth: depth,
            ..CanopusConfig::default()
        };
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 7);
        let script = vec![(Dur::millis(50), put(1, 1)), (Dur::millis(60), put(2, 1))];
        add_client(&mut cluster, NodeId(3), script);
        cluster.sim.run_for(Dur::millis(49));
        cluster.fault(FaultAction::Cut(vec![NodeId(0)], vec![NodeId(1)]));
        cluster.sim.run_for(Dur::millis(6));
        cluster.fault(FaultAction::HealAll);
        cluster.sim.run_for(Dur::millis(200));

        assert!(check_agreement(&commit_histories(&cluster)).is_ok());
        let log = cluster.sim.node::<CanopusNode>(NodeId(0)).committed_log();
        assert_eq!(log.len(), 2, "depth {depth}: cycles committed at n0");
        let second_write = Time::ZERO + Dur::millis(60);
        assert!(
            log[0].at < second_write + cfg.fetch_timeout / 4,
            "depth {depth}: n0 committed cycle 1 at {:?}",
            log[0].at
        );
    }
}

/// The failure detector can give a member up before that member's broadcast
/// group has elected the successor that may append the tombstone. From then
/// on exclusion waits for the election alone: a survivor proposes the
/// tombstone on the first tick that finds it leading the group, so *when*
/// the member is excluded no longer depends on the failure timeout. (A
/// survivor that had looked once used to look again a full failure timeout
/// later, which put the exclusion on a multiple of it.)
#[test]
fn tombstone_follows_the_election_when_detection_comes_first() {
    let excluded_after = |failure_timeout: Dur, seed: u64| {
        let cfg = CanopusConfig {
            failure_timeout,
            fetch_timeout: Dur::millis(40),
            ..CanopusConfig::default()
        };
        assert!(failure_timeout < cfg.raft.election_timeout_min);
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, seed);
        let script: Vec<(Dur, Op)> = (0..100)
            .map(|k| (Dur::millis(k + 1), put(k, k as u8)))
            .collect();
        add_client(&mut cluster, NodeId(0), script);
        cluster.sim.run_for(Dur::millis(10));
        cluster.sim.crash(NodeId(1));
        let excluded = |cluster: &Cluster| {
            (cluster.nodes.iter().filter(|&&n| n != NodeId(1))).all(|&n| {
                let table = cluster.sim.node::<CanopusNode>(n).emulation_table();
                table.superleaf_of(NodeId(1)).is_none()
            })
        };
        let mut waited = Dur::ZERO;
        while !excluded(&cluster) {
            assert!(waited < Dur::millis(200), "seed {seed}: never excluded");
            cluster.sim.run_for(cfg.tick_interval);
            waited += cfg.tick_interval;
        }
        waited
    };
    for seed in 40..46 {
        let (short, long) = (Dur::millis(5), Dur::millis(9));
        assert_eq!(
            excluded_after(short, seed),
            excluded_after(long, seed),
            "seed {seed}: exclusion after the crash, failure timeout {short} vs {long}"
        );
    }
}

/// One cycle whose own set at node 0 holds a Put of key 5, a Get of key 5
/// positioned after it, a second Put of key 5, a MultiPut, a
/// SyntheticWrite and a Put of key 6, beside another super-leaf's set
/// writing the same keys (a first Put keeps cycle 1 in flight while they
/// arrive, so they all wait for cycle 2). The store takes each set's writes in runs split
/// at the Get; what the cycle leaves behind is what applying it op by op
/// leaves: the Get sees the first Put, the replies leave in set order, and
/// the logged versions, the store and `commit_digest` match a replay.
#[test]
fn a_cycle_applied_in_runs_matches_applying_it_op_by_op() {
    let at = Dur::micros(1_100);
    let own = vec![
        (Dur::millis(1), put(8, 0)),
        (at, put(5, 1)),
        (at, Op::Get { key: 5 }),
        (at, put(5, 2)),
        (
            at,
            Op::MultiPut {
                puts: vec![
                    (6, Bytes::from_static(b"m6")),
                    (5, Bytes::from(vec![3; 40])),
                ],
            },
        ),
        (
            at,
            Op::SyntheticWrite {
                count: 3,
                op_bytes: 16,
            },
        ),
        (at, put(6, 4)),
    ];
    let other = vec![(at, put(5, 9)), (at, put(7, 9))];
    let mut outcomes = Vec::new();
    for record_log in [true, false] {
        let cfg = CanopusConfig {
            record_log,
            ..CanopusConfig::default()
        };
        let mut cluster = build_cluster(LotShape::flat(2), 3, &cfg, 12);
        let client = add_client(&mut cluster, NodeId(0), own.clone());
        let other_client = add_client(&mut cluster, NodeId(3), other.clone());
        cluster.sim.run_for(Dur::millis(200));

        let replies = &cluster.sim.node::<ScriptClient>(client).replies;
        let order: Vec<u64> = replies.iter().map(|(op_id, ..)| *op_id).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6], "replies leave in set order");
        assert_eq!(replies[2].1, OpResult::Value(Some(Bytes::from(vec![1; 8]))));

        let node = cluster.sim.node::<CanopusNode>(NodeId(0));
        outcomes.push((node.store().digest(), node.stats().commit_digest));
        if !record_log {
            continue;
        }
        let log = node.committed_log();
        let own_sets: Vec<usize> = log
            .iter()
            .flat_map(|cc| &cc.sets)
            .filter(|set| set.origin == NodeId(0))
            .map(|set| set.ops.len())
            .collect();
        assert_eq!(
            own_sets,
            [1, 5],
            "the own writes after the first in one set"
        );

        // Replay the log op by op into a fresh store, mixing the digest
        // as the commit does.
        let script = |c: NodeId| {
            if c == client {
                &own
            } else {
                assert_eq!(c, other_client);
                &other
            }
        };
        let mut store = KvStore::new();
        let mut digest = 0u64;
        for cc in log {
            let mut h = digest ^ 0xcbf2_9ce4_8422_2325;
            let mut mix = |v: u64| {
                for b in v.to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            };
            mix(cc.cycle.0);
            for set in &cc.sets {
                mix(set.origin.0 as u64 + 1);
                for op in &set.ops {
                    let (client, op_id) = (op.client, op.op_id);
                    let request = &script(client)[op_id as usize].1;
                    match (request, op.write) {
                        (Op::Put { key, value }, WriteView::Put { key: k, value: v }) => {
                            assert_eq!((*key, &value[..]), (k, v), "op {op_id}");
                            store.put(k, v);
                        }
                        (Op::MultiPut { puts }, WriteView::MultiPut(pairs)) => {
                            let want: Vec<(u64, &[u8])> =
                                puts.iter().map(|(k, v)| (*k, &v[..])).collect();
                            assert_eq!(pairs.collect::<Vec<_>>(), want, "op {op_id}");
                            for (key, value) in pairs {
                                store.put(key, value);
                            }
                        }
                        (
                            Op::SyntheticWrite { count, op_bytes },
                            WriteView::SyntheticWrite {
                                count: c,
                                op_bytes: b,
                            },
                        ) => assert_eq!((*count, *op_bytes), (c, b), "op {op_id}"),
                        other => panic!("logged {other:?}"),
                    }
                    mix(op_id);
                    mix(client.0 as u64);
                    mix(request.weight() as u64);
                }
            }
            digest = h;
        }
        assert_eq!(store.get(5).map(|v| v.version), Some(4));
        assert_eq!(store, *node.store());
        assert_eq!(digest, node.stats().commit_digest);
    }
    assert_eq!(outcomes[0], outcomes[1], "the same with the log off");
}

/// A member crash holds the cluster up for one failure detection, not for
/// one `fetch_timeout`. Flat 3×3, default configuration (25 ms
/// `failure_timeout`, 700 ms `fetch_timeout`), one writer per super-leaf
/// sending a Put every 4 ms, node 1 crashed at 50 ms, a 1 s run. A fetch
/// sent to the crashed emulator before its `Leave` commits used to hold
/// its super-leaf until the fetch timed out, even once a message had
/// shown that other super-leaves had committed the cycle: the worst gap
/// between successive local commits at a survivor read 701.0–704.9 ms in
/// seeds 0, 1, 3, 9, 10 and 11 of these twelve (and 25.8–27.9 ms in the
/// others). Now such a fetch is sent again at once, to another emulator,
/// and the worst gap reads 25.8–33.9 ms in these seeds (at most 35.9 ms
/// over seeds 0–39). The bound is one `failure_timeout` plus 20 ms, a
/// few cycles. About 2.5 s in a debug build.
#[test]
fn a_member_crash_stalls_commits_for_one_failure_timeout() {
    let cfg = CanopusConfig::default();
    let bound = cfg.failure_timeout + Dur::millis(20);
    for seed in 0..12 {
        let mut cluster = build_cluster(LotShape::flat(3), 3, &cfg, seed);
        for leaf in 0..3u64 {
            let script: Vec<(Dur, Op)> = (0..250)
                .map(|k| (Dur::millis(4 * k + 1), put(1000 * leaf + k, k as u8)))
                .collect();
            add_client(&mut cluster, NodeId(3 * leaf as u32), script);
        }
        cluster.sim.run_for(Dur::millis(50));
        cluster.sim.crash(NodeId(1));
        cluster.sim.run_for(Dur::millis(950));
        for n in (0..9).filter(|&i| i != 1).map(NodeId) {
            let log = cluster.sim.node::<CanopusNode>(n).committed_log();
            let gaps = log.windows(2).map(|w| w[1].at.saturating_since(w[0].at));
            let worst = gaps.max().expect("commits");
            assert!(worst <= bound, "seed {seed}: {n} stood still for {worst}");
        }
    }
}
