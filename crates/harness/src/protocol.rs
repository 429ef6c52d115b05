//! The one protocol trait: everything the harness needs to know about a
//! consensus protocol, in one `impl` block per protocol.
//!
//! The paper's evaluation (§8) is the same deployment and the same client
//! model with a different protocol plugged in. [`Protocol`] is that plug:
//! it is implemented on the protocol's *message* type (the type parameter
//! of [`Process`]) and names the node state machine, its configuration on
//! each fabric, how a node is built and what comes back after a crash,
//! and how the verdict reads committed state out of a node. Given an
//! `impl Protocol`, [`crate::ClusterBuilder`] yields a simulated
//! [`crate::Cluster`] or a [`crate::LiveCluster`] over TCP, [`crate::run()`]
//! measures it, and `verdict()` on either checks it — a further protocol
//! touches nothing else in the harness.

use std::collections::{BTreeMap, BTreeSet};

use canopus::{CanopusConfig, CanopusMsg, CanopusNode, CommittedOp, Lane};
use canopus_epaxos::{EpaxosConfig, EpaxosMsg, EpaxosNode};
use canopus_kv::{check_agreement, Key};
use canopus_obs::NodeObs;
use canopus_sim::{Dur, NodeId, Process, Time};
use canopus_workload::ProtocolMsg;
use canopus_zab::{ZabConfig, ZabMsg, ZabNode};

use crate::cluster::{emulation_table_for, SilentNode};
use crate::live::{live_canopus_config, live_time_unit};
use crate::spec::{DeploymentSpec, TopoSpec};

/// Per-key committed write order at one replica, as
/// `(client, op_id, local apply/commit time)`.
pub type WriteRecords = BTreeMap<Key, Vec<(NodeId, u64, Time)>>;

/// A consensus protocol as the harness sees it, implemented on the
/// protocol's message type.
pub trait Protocol: ProtocolMsg + Sized + 'static {
    /// The replica state machine.
    type Node: Process<Self>;
    /// Its configuration.
    type Config: Clone;

    /// Short protocol name for reports; scenario convergence exemptions
    /// are keyed by it.
    const NAME: &'static str;
    /// Whether the protocol's read path promises linearizability (the
    /// ZooKeeper model only promises sequential consistency).
    const LINEARIZABLE_READS: bool;

    /// The default configuration on the simulator's virtual clock.
    fn sim_config(spec: &DeploymentSpec) -> Self::Config;

    /// The default configuration over real sockets: every timeout a
    /// multiple of [`live_time_unit`], so a descheduled thread never looks
    /// like a failed node.
    fn live_config(spec: &DeploymentSpec) -> Self::Config;

    /// `cfg` with whatever commit-log recording [`Protocol::write_records`]
    /// and [`Protocol::global_log`] read switched on. The builder applies
    /// it whenever history clients drive the cluster, since their verdict
    /// is the only reader.
    fn recording(cfg: Self::Config) -> Self::Config {
        cfg
    }

    /// Independent commit pipelines one node hosts: the node gets that
    /// many CPU lanes and that many observability hubs.
    fn pipelines(_cfg: &Self::Config) -> u16 {
        1
    }

    /// Builds node `id` of the deployment. `hubs` holds the node's
    /// [`Protocol::pipelines`] observability hubs (inert when obs is off).
    fn node(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &Self::Config,
        seed: u64,
        hubs: &[NodeObs],
    ) -> Self::Node;

    /// Builds the process that replaces node `id` when the nemesis
    /// restarts it. Nothing survives a crash: the default is a fresh node
    /// with no memory — sound only where the survivors keep such a node
    /// out (Canopus tombstones it).
    fn restart(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &Self::Config,
        seed: u64,
        hubs: &[NodeObs],
    ) -> Box<dyn Process<Self>> {
        Box::new(Self::node(id, spec, cfg, seed, hubs))
    }

    /// Per-key committed write order at a replica.
    fn write_records(node: &Self::Node) -> WriteRecords;

    /// The full committed order at a replica as `(client, op_id)` pairs,
    /// for protocols with a total order (`None` where only per-key order
    /// is defined).
    fn global_log(node: &Self::Node) -> Option<Vec<(NodeId, u64)>>;

    /// Whether a measured run made progress, given every node.
    fn healthy(nodes: &[&Self::Node]) -> bool;

    /// Protocol-specific safety checks over the trusted replicas, appended
    /// to the shared verdict's violations.
    fn extra_checks(_trusted: &[(NodeId, &Self::Node)]) -> Vec<String> {
        Vec::new()
    }
}

/// The dense node roster `0..n` every non-hierarchical protocol uses.
fn roster(spec: &DeploymentSpec) -> Vec<NodeId> {
    (0..spec.node_count() as u32).map(NodeId).collect()
}

/// Every operation in a Canopus lane's commit log with its cycle's local
/// commit time, in commit order, up to where the lane took over a peer's
/// state (a member excluded for longer than emulators keep cycle states
/// catches up that way). The lane did not apply the cycles it skipped
/// there, so what it committed afterwards does not continue its own
/// history.
fn committed_ops(n: &Lane) -> impl Iterator<Item = (Time, &CommittedOp)> {
    let log = n.committed_log();
    let skipped = log.windows(2).position(|w| w[1].cycle != w[0].cycle.next());
    log[..skipped.map_or(log.len(), |i| i + 1)]
        .iter()
        .flat_map(|cc| {
            cc.sets
                .iter()
                .flat_map(move |set| set.ops.iter().map(move |op| (cc.at, op)))
        })
}

/// `(client, op_id)` and the keys one committed operation wrote.
fn op_parts(op: &CommittedOp) -> ((NodeId, u64), &[Key]) {
    match op {
        CommittedOp::Put {
            client, op_id, key, ..
        } => ((*client, *op_id), std::slice::from_ref(key)),
        CommittedOp::MultiPut {
            client,
            op_id,
            keys,
        } => ((*client, *op_id), keys),
        CommittedOp::Synthetic { client, op_id, .. } => ((*client, *op_id), &[]),
    }
}

fn canopus_write_records_into(n: &Lane, out: &mut WriteRecords) {
    for (at, op) in committed_ops(n) {
        let ((client, op_id), keys) = op_parts(op);
        for &key in keys {
            out.entry(key).or_default().push((client, op_id, at));
        }
    }
}

fn canopus_global_log(n: &Lane) -> Vec<(NodeId, u64)> {
    committed_ops(n).map(|(_, op)| op_parts(op).0).collect()
}

/// Canopus, unsharded or shard-parallel: `cfg.shards` independent LOT
/// pipelines (lanes) per node behind one transport identity, one CPU lane
/// and one hub each so they commit concurrently.
impl Protocol for CanopusMsg {
    type Node = CanopusNode;
    type Config = CanopusConfig;
    const NAME: &'static str = "canopus";
    const LINEARIZABLE_READS: bool = true;

    /// One cycle at a time, started the moment there is work, in a single
    /// datacenter; pipelined 5 ms cycles across datacenters (§8.2).
    fn sim_config(spec: &DeploymentSpec) -> CanopusConfig {
        match spec.topo {
            TopoSpec::SingleDc { .. } => CanopusConfig {
                fetch_timeout: Dur::millis(25),
                failure_timeout: Dur::millis(60),
                raft: canopus_raft::RaftConfig {
                    heartbeat_interval: Dur::millis(5),
                    election_timeout_min: Dur::millis(25),
                    election_timeout_max: Dur::millis(50),
                },
                record_log: false,
                ..CanopusConfig::default()
            },
            TopoSpec::MultiDc { .. } => CanopusConfig {
                record_log: false,
                ..CanopusConfig::wide_area()
            },
        }
    }

    fn live_config(_spec: &DeploymentSpec) -> CanopusConfig {
        live_canopus_config()
    }

    fn recording(mut cfg: CanopusConfig) -> CanopusConfig {
        cfg.record_log = true;
        cfg
    }

    fn pipelines(cfg: &CanopusConfig) -> u16 {
        cfg.shards.max(1)
    }

    /// One super-leaf per rack/datacenter. The default [`Protocol::restart`]
    /// applies: a restarted node comes back fresh, and the survivors'
    /// tombstone machinery (per lane) keeps it excluded (crash-stop rejoin
    /// is a ROADMAP item) — safe, but its clients see no further progress.
    fn node(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &CanopusConfig,
        seed: u64,
        hubs: &[NodeObs],
    ) -> CanopusNode {
        CanopusNode::new(id, emulation_table_for(spec), cfg.clone(), seed).with_obs(hubs)
    }

    /// Per-key records merged across every lane: keys are disjoint across
    /// shards (the router is a pure function of the key), so the merge
    /// never interleaves two shards' orders on one key.
    fn write_records(node: &CanopusNode) -> WriteRecords {
        let mut out = BTreeMap::new();
        for s in 0..node.lane_count() {
            canopus_write_records_into(node.lane(s), &mut out);
        }
        out
    }

    /// The one lane's log. A sharded node promises no cross-shard total
    /// order — each shard totally orders its own traffic;
    /// [`Protocol::extra_checks`] covers per-shard agreement.
    fn global_log(node: &CanopusNode) -> Option<Vec<(NodeId, u64)>> {
        (node.lane_count() == 1).then(|| canopus_global_log(node.lane(0)))
    }

    fn healthy(nodes: &[&CanopusNode]) -> bool {
        nodes.iter().all(|n| {
            (0..n.lane_count())
                .map(|s| n.lane(s).stats().committed_cycles)
                .sum::<u64>()
                > 0
        })
    }

    /// The sharding-specific safety checks: per-shard total-order
    /// agreement (a total order is promised *within* each shard, not
    /// across them), key→shard routing stability (every committed key
    /// lives on the shard the router maps it to — a drifting hash would
    /// silently split a key's history), and cross-shard atomicity (a
    /// multi-key transaction's parts land on every trusted replica
    /// all-or-nothing).
    fn extra_checks(engines: &[(NodeId, &CanopusNode)]) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(&(_, first)) = engines.first() else {
            return violations;
        };
        let shards = first.lane_count();
        let router = first.router();

        for s in 0..shards {
            let logs: Vec<Vec<(NodeId, u64)>> = engines
                .iter()
                .map(|&(_, e)| canopus_global_log(e.lane(s)))
                .collect();
            if let Err(d) = check_agreement(&logs) {
                violations.push(format!(
                    "shard {s} commit order diverged at index {} (replica {:?})",
                    d.index, engines[d.replica].0
                ));
            }
        }

        // Cycle by cycle, over whole logs: what a node committed after it
        // took over a peer's state (past the hole `committed_ops` stops at)
        // must match what every other replica committed in those cycles.
        for s in 0..shards {
            let mut by_cycle: BTreeMap<u64, (NodeId, Vec<(NodeId, u64)>)> = BTreeMap::new();
            for &(node, e) in engines {
                for cc in e.lane(s).committed_log() {
                    let ops: Vec<(NodeId, u64)> = (cc.sets.iter())
                        .flat_map(|set| set.ops.iter().map(|op| op_parts(op).0))
                        .collect();
                    match by_cycle.get(&cc.cycle.0) {
                        None => {
                            by_cycle.insert(cc.cycle.0, (node, ops));
                        }
                        Some((first, theirs)) if *theirs != ops => violations.push(format!(
                            "shard {s} cycle {} committed differently on {first} and {node}",
                            cc.cycle.0
                        )),
                        Some(_) => {}
                    }
                }
            }
        }

        // Routing stability + cross-shard transaction key sets, one walk.
        let mut per_engine: Vec<(NodeId, BTreeMap<(NodeId, u64), BTreeSet<Key>>)> = Vec::new();
        let mut full: BTreeMap<(NodeId, u64), BTreeSet<Key>> = BTreeMap::new();
        for &(node, e) in engines {
            let mut txns: BTreeMap<(NodeId, u64), BTreeSet<Key>> = BTreeMap::new();
            for s in 0..shards {
                for (_, op) in committed_ops(e.lane(s)) {
                    let (txn, keys) = op_parts(op);
                    for &key in keys {
                        if router.shard_of_key(key) != s {
                            violations.push(format!(
                                "key {key} committed on shard {s} of node {node} but routes to \
                                 shard {}",
                                router.shard_of_key(key)
                            ));
                        }
                    }
                    if matches!(op, CommittedOp::MultiPut { .. }) {
                        txns.entry(txn).or_default().extend(keys.iter().copied());
                    }
                }
            }
            for (t, keys) in &txns {
                full.entry(*t).or_default().extend(keys.iter().copied());
            }
            per_engine.push((node, txns));
        }

        // All-or-nothing: a replica that committed *any* part of a
        // transaction must have committed every part some trusted replica
        // saw. The run leaves a drain margin after clients stop, so a
        // lingering half-applied transaction is a protocol bug, not tail
        // latency.
        for (node, txns) in &per_engine {
            for (t, keys) in txns {
                let want = &full[t];
                if keys != want {
                    violations.push(format!(
                        "cross-shard txn (client {:?}, op {}) partially applied on node {node}: \
                         {} of {} keys",
                        t.0,
                        t.1,
                        keys.len(),
                        want.len()
                    ));
                }
            }
        }
        violations
    }
}

impl Protocol for EpaxosMsg {
    type Node = EpaxosNode;
    type Config = EpaxosConfig;
    const NAME: &'static str = "epaxos";
    const LINEARIZABLE_READS: bool = true;

    /// 2 ms batches, the shorter of the two windows the paper evaluates.
    fn sim_config(_spec: &DeploymentSpec) -> EpaxosConfig {
        EpaxosConfig {
            batch_duration: Dur::millis(2),
            ..EpaxosConfig::default()
        }
    }

    /// EPaxos has no timeouts to relax; the batching window keeps the
    /// simulator's 2 ms at the default unit.
    fn live_config(_spec: &DeploymentSpec) -> EpaxosConfig {
        EpaxosConfig {
            batch_duration: live_time_unit() / 25,
            ..EpaxosConfig::default()
        }
    }

    fn recording(mut cfg: EpaxosConfig) -> EpaxosConfig {
        cfg.record_log = true;
        cfg
    }

    fn node(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &EpaxosConfig,
        _seed: u64,
        hubs: &[NodeObs],
    ) -> EpaxosNode {
        EpaxosNode::new(id, roster(spec), cfg.clone()).with_obs(hubs[0].clone())
    }

    /// EPaxos has no recovery protocol (failure-free scope, see the crate
    /// docs), so a restarted replica is re-installed as a permanently
    /// silent crash-stop process — restarting it with empty state would
    /// silently break quorum-intersection memory and could corrupt the
    /// dependency graph.
    fn restart(
        _id: NodeId,
        _spec: &DeploymentSpec,
        _cfg: &EpaxosConfig,
        _seed: u64,
        _hubs: &[NodeObs],
    ) -> Box<dyn Process<Self>> {
        Box::new(SilentNode::<EpaxosMsg>::default())
    }

    fn write_records(node: &EpaxosNode) -> WriteRecords {
        node.write_log_timed().clone()
    }

    /// EPaxos only orders interfering commands; per-key order is the
    /// contract.
    fn global_log(_node: &EpaxosNode) -> Option<Vec<(NodeId, u64)>> {
        None
    }

    fn healthy(nodes: &[&EpaxosNode]) -> bool {
        nodes.iter().all(|n| n.stats().executed_weight > 0)
    }
}

impl Protocol for ZabMsg {
    type Node = ZabNode;
    type Config = ZabConfig;
    const NAME: &'static str = "zab";
    const LINEARIZABLE_READS: bool = false; // local reads: sequential consistency.

    /// At most five quorum participants (leader = node 0), the rest
    /// observers.
    fn sim_config(spec: &DeploymentSpec) -> ZabConfig {
        ZabConfig {
            participants: spec.node_count().min(5),
            ..ZabConfig::default()
        }
    }

    /// 1-unit heartbeats, 8-unit election silence.
    fn live_config(spec: &DeploymentSpec) -> ZabConfig {
        let unit = live_time_unit();
        ZabConfig {
            heartbeat: unit,
            election_timeout: unit * 8,
            tick_interval: unit / 5,
            ..Self::sim_config(spec)
        }
    }

    fn node(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &ZabConfig,
        _seed: u64,
        hubs: &[NodeObs],
    ) -> ZabNode {
        ZabNode::new(id, roster(spec), cfg.clone()).with_obs(hubs[0].clone())
    }

    /// A restarted node comes back amnesiac as a *follower*
    /// ([`ZabNode::recovering`] — even a former leader must not reclaim
    /// leadership with an empty log) and resyncs its full history from the
    /// current leader (gap detection + `ResyncRequest`), modelling Zab's
    /// synchronization phase.
    fn restart(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &ZabConfig,
        _seed: u64,
        hubs: &[NodeObs],
    ) -> Box<dyn Process<Self>> {
        Box::new(ZabNode::recovering(id, roster(spec), cfg.clone()).with_obs(hubs[0].clone()))
    }

    fn write_records(node: &ZabNode) -> WriteRecords {
        let mut out = WriteRecords::new();
        for (key, client, op_id) in node.applied_ops() {
            if let Some(key) = key {
                out.entry(key)
                    .or_default()
                    .push((client, op_id, Time::ZERO));
            }
        }
        out
    }

    fn global_log(node: &ZabNode) -> Option<Vec<(NodeId, u64)>> {
        Some(node.applied_log())
    }

    fn healthy(nodes: &[&ZabNode]) -> bool {
        nodes.iter().all(|n| n.stats().applied_weight > 0)
    }
}
