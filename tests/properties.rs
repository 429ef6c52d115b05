//! Property-based tests over the protocol invariants (paper §6).
//!
//! Random LOT shapes, workloads, and seeds; the invariants checked are the
//! paper's agreement, FIFO, and nontriviality properties plus emulation-
//! table convergence and whole-stack determinism. The randomized cases are
//! driven by a seeded deterministic generator (proptest is unavailable in
//! this offline build), so every CI run explores the identical corpus.

use bytes::Bytes;
use canopus::{CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape};
use canopus_kv::{check_agreement, ClientRequest, Op};
use canopus_sim::{
    impl_process_any, Context, Dur, NodeId, Process, Simulation, Timer, UniformFabric,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic scripted writer used inside property tests.
struct Writer {
    target: NodeId,
    writes: Vec<(u64, u64)>, // (delay_us, key)
    cursor: usize,
    acked: usize,
}

impl Process<CanopusMsg> for Writer {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        if !self.writes.is_empty() {
            ctx.set_timer(Dur::micros(self.writes[0].0), 0);
        }
    }
    fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        let (_, key) = self.writes[self.cursor];
        let op_id = self.cursor as u64;
        self.cursor += 1;
        ctx.send(
            self.target,
            CanopusMsg::Request(ClientRequest {
                client: ctx.id(),
                op_id,
                op: Op::Put {
                    key,
                    value: Bytes::from_static(b"pppppppp"),
                },
            }),
        );
        if let Some(&(delay, _)) = self.writes.get(self.cursor) {
            ctx.set_timer(Dur::micros(delay), 0);
        }
    }
    fn on_message(&mut self, _f: NodeId, msg: CanopusMsg, _c: &mut Context<'_, CanopusMsg>) {
        if matches!(msg, CanopusMsg::Reply(_)) {
            self.acked += 1;
        }
    }
    impl_process_any!();
}

/// Builds a cluster from a shape spec, runs the scripted writers, and
/// returns each node's committed (client, op_id) history.
fn run_cluster(
    superleaves: usize,
    per_leaf: usize,
    pipelined: bool,
    writes: Vec<Vec<(u64, u64)>>, // per target node index
    seed: u64,
    run_ms: u64,
) -> (Vec<Vec<(u32, u64)>>, Vec<u64>, usize) {
    let shape = LotShape::flat(superleaves as u16);
    let membership: Vec<Vec<NodeId>> = (0..superleaves)
        .map(|g| {
            (0..per_leaf)
                .map(|i| NodeId((g * per_leaf + i) as u32))
                .collect()
        })
        .collect();
    let table = EmulationTable::new(shape, membership);
    let mut cfg = CanopusConfig::default();
    if pipelined {
        cfg.max_linger = Dur::millis(2);
        cfg.max_pipeline_depth = 64;
    }
    let mut sim = Simulation::new(UniformFabric::new(Dur::micros(40)), seed);
    let n = superleaves * per_leaf;
    for i in 0..n as u32 {
        sim.add_node(Box::new(CanopusNode::new(
            NodeId(i),
            table.clone(),
            cfg.clone(),
            seed,
        )));
    }
    let mut total_writes = 0;
    for (i, script) in writes.into_iter().enumerate() {
        total_writes += script.len();
        sim.add_node(Box::new(Writer {
            target: NodeId((i % n) as u32),
            writes: script,
            cursor: 0,
            acked: 0,
        }));
    }
    sim.run_for(Dur::millis(run_ms));

    let mut histories = Vec::new();
    let mut digests = Vec::new();
    for i in 0..n as u32 {
        let node = sim.node::<CanopusNode>(NodeId(i));
        digests.push(node.stats().commit_digest);
        histories.push(
            node.committed_log()
                .iter()
                .flat_map(|cc| &cc.sets)
                .flat_map(|s| &s.ops)
                .map(|op| (op.client.0, op.op_id))
                .collect::<Vec<_>>(),
        );
    }
    (histories, digests, total_writes)
}

/// Random per-writer scripts: 1..4 writers, each 0..8 writes of
/// (delay 100..3000 µs, key 0..50).
fn arb_scripts(rng: &mut SmallRng) -> Vec<Vec<(u64, u64)>> {
    let writers = rng.gen_range(1usize..4);
    (0..writers)
        .map(|_| {
            let n = rng.gen_range(0usize..8);
            (0..n)
                .map(|_| (rng.gen_range(100u64..3000), rng.gen_range(0u64..50)))
                .collect()
        })
        .collect()
}

/// Agreement: every node commits the identical sequence, for random
/// shapes, write schedules, and seeds (paper §6, Theorem 1).
#[test]
fn prop_agreement_across_shapes() {
    let mut rng = SmallRng::seed_from_u64(0xCA_0001);
    for case in 0..12 {
        // each case runs a full cluster simulation
        let superleaves = rng.gen_range(1usize..4);
        // Up to five per super-leaf: groups of one to three commit at the
        // follower on append, larger ones through the leader's commit
        // notification.
        let per_leaf = rng.gen_range(1usize..6);
        let pipelined = rng.gen::<bool>();
        let seed = rng.gen::<u64>();
        let scripts = arb_scripts(&mut rng);
        let (histories, _, total) =
            run_cluster(superleaves, per_leaf, pipelined, scripts, seed, 400);
        assert!(
            check_agreement(&histories).is_ok(),
            "case {case}: divergence detected"
        );
        // Nontriviality + liveness: every write eventually committed at
        // node 0 (uniform fabric, no failures).
        assert_eq!(histories[0].len(), total, "case {case}: missing commits");
    }
}

/// FIFO per client: one client's ops commit in issue order (§6).
#[test]
fn prop_client_fifo_in_commit_order() {
    let mut rng = SmallRng::seed_from_u64(0xCA_0002);
    for case in 0..12 {
        let per_leaf = rng.gen_range(2usize..4);
        let seed = rng.gen::<u64>();
        let n_writes = rng.gen_range(1usize..12);
        let script: Vec<(u64, u64)> = (0..n_writes).map(|k| (200, k as u64)).collect();
        let (histories, _, _) = run_cluster(2, per_leaf, false, vec![script], seed, 400);
        let h = &histories[0];
        let mut last = None;
        for &(client, op_id) in h {
            if client == (2 * per_leaf) as u32 {
                if let Some(prev) = last {
                    assert!(op_id > prev, "case {case}: client ops reordered");
                }
                last = Some(op_id);
            }
        }
        assert_eq!(h.len(), n_writes, "case {case}");
    }
}

/// Determinism: identical seeds produce identical digests.
#[test]
fn prop_deterministic_replay() {
    let mut rng = SmallRng::seed_from_u64(0xCA_0003);
    for case in 0..6 {
        let seed = rng.gen::<u64>();
        let script = vec![vec![(500, 1), (700, 2), (900, 3)]];
        let a = run_cluster(2, 3, true, script.clone(), seed, 300);
        let b = run_cluster(2, 3, true, script, seed, 300);
        assert_eq!(
            a.1, b.1,
            "case {case}: digests differ across identical runs"
        );
        assert_eq!(
            a.0, b.0,
            "case {case}: histories differ across identical runs"
        );
    }
}

/// The merge operator is order-insensitive and weight-preserving for
/// arbitrary proposal numbers (determinism of the total order).
#[test]
fn prop_merge_insensitive_to_input_order() {
    use canopus::{CycleId, RequestSet, VnodeId, VnodeState};
    let mut rng = SmallRng::seed_from_u64(0xCA_0004);
    for _case in 0..24 {
        let numbers: Vec<u64> = (0..rng.gen_range(2usize..9)).map(|_| rng.gen()).collect();
        let perm_seed = rng.gen::<u64>();
        let children: Vec<VnodeState> = numbers
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                VnodeState::round1(
                    NodeId(i as u32),
                    VnodeId(vec![0]),
                    CycleId(1),
                    n,
                    RequestSet::empty(NodeId(i as u32)),
                    vec![],
                )
            })
            .collect();
        let merged_fwd = VnodeState::merge(VnodeId(vec![0]), children.clone());
        let mut shuffled = children;
        // Deterministic Fisher-Yates from the seed.
        let mut state = perm_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let merged_rev = VnodeState::merge(VnodeId(vec![0]), shuffled);
        assert_eq!(merged_fwd, merged_rev);
    }
}
