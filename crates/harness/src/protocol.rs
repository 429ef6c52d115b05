//! The one protocol trait: everything the harness needs to know about a
//! consensus protocol, in one `impl` block per protocol.
//!
//! The paper's evaluation (§8) is the same deployment and the same client
//! model with a different protocol plugged in. [`Protocol`] is that plug:
//! it is implemented on the protocol's *message* type (the type parameter
//! of [`Process`]) and says how a client request goes into that type and
//! a reply comes out of it, names the node state machine, its
//! configuration on each fabric, how a node is built and what comes back
//! after a crash, and how the verdict reads committed state out of a
//! node. Given an `impl Protocol`, [`crate::ClusterBuilder`] yields a
//! simulated [`crate::Cluster`] or a [`crate::LiveCluster`] over TCP,
//! [`crate::run()`] measures it, and `verdict()` on either checks it — a
//! further protocol touches nothing else in the harness.

use std::collections::BTreeMap;

use canopus::{CanopusConfig, CanopusMsg, CanopusNode, OpView, WriteView};
use canopus_epaxos::{EpaxosConfig, EpaxosMsg, EpaxosNode};
use canopus_kv::{ClientReply, ClientRequest, Key};
use canopus_obs::NodeObs;
use canopus_sim::{Dur, NodeId, Payload, Process, Time};
use canopus_zab::{ZabConfig, ZabMsg, ZabNode};

use crate::cluster::{emulation_table_for, SilentNode};
use crate::live::{live_canopus_config, LIVE_TIME_UNIT};
use crate::spec::{DeploymentSpec, TopoSpec};

/// Per-key committed write order at one replica, as
/// `(client, op_id, local apply/commit time)`.
pub type WriteRecords = BTreeMap<Key, Vec<(NodeId, u64, Time)>>;

/// A consensus protocol as the harness sees it, implemented on the
/// protocol's message type.
pub trait Protocol: Payload + Sized + 'static {
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

    /// Wraps a client request.
    fn request(req: ClientRequest) -> Self;

    /// Unwraps a reply, if this message is one.
    fn reply(&self) -> Option<&ClientReply>;

    /// The default configuration on the simulator's virtual clock.
    fn sim_config(spec: &DeploymentSpec) -> Self::Config;

    /// The default configuration over real sockets: every timeout a
    /// multiple of [`LIVE_TIME_UNIT`], so a descheduled thread never looks
    /// like a failed node.
    fn live_config(spec: &DeploymentSpec) -> Self::Config;

    /// `cfg` with whatever commit-log recording [`Protocol::write_records`]
    /// and [`Protocol::global_log`] read switched on. The builder applies
    /// it whenever history clients drive the cluster, since their verdict
    /// is the only reader.
    fn recording(cfg: Self::Config) -> Self::Config {
        cfg
    }

    /// Builds node `id` of the deployment with its observability hub
    /// (inert when obs is off).
    fn node(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &Self::Config,
        seed: u64,
        hub: &NodeObs,
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
        hub: &NodeObs,
    ) -> Box<dyn Process<Self>> {
        Box::new(Self::node(id, spec, cfg, seed, hub))
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

/// Every operation in a Canopus node's commit log with its cycle's local
/// commit time, in commit order, up to where the node took over a peer's
/// state (a member excluded for longer than emulators keep cycle states
/// catches up that way). The node did not apply the cycles it skipped
/// there, so what it committed afterwards does not continue its own
/// history.
fn committed_ops(n: &CanopusNode) -> impl Iterator<Item = (Time, OpView<'_>)> {
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

/// The keys one committed write wrote, in client order.
fn written_keys(write: WriteView<'_>) -> impl Iterator<Item = Key> + '_ {
    let (put, multi) = match write {
        WriteView::Put { key, .. } => (Some(key), None),
        WriteView::MultiPut(pairs) => (None, Some(pairs)),
        WriteView::SyntheticWrite { .. } => (None, None),
    };
    put.into_iter()
        .chain(multi.into_iter().flatten().map(|(key, _)| key))
}

/// Canopus: one LOT pipeline per node orders everything it commits.
impl Protocol for CanopusMsg {
    type Node = CanopusNode;
    type Config = CanopusConfig;
    const NAME: &'static str = "canopus";
    const LINEARIZABLE_READS: bool = true;

    fn request(req: ClientRequest) -> Self {
        CanopusMsg::Request(req)
    }

    fn reply(&self) -> Option<&ClientReply> {
        match self {
            CanopusMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

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

    /// One super-leaf per rack/datacenter. The default [`Protocol::restart`]
    /// applies: a restarted node comes back fresh, and the survivors'
    /// tombstone machinery keeps it excluded (crash-stop rejoin is a
    /// ROADMAP item) — safe, but its clients see no further progress.
    fn node(
        id: NodeId,
        spec: &DeploymentSpec,
        cfg: &CanopusConfig,
        seed: u64,
        hub: &NodeObs,
    ) -> CanopusNode {
        CanopusNode::new(id, emulation_table_for(spec), cfg.clone(), seed).with_obs(hub.clone())
    }

    fn write_records(node: &CanopusNode) -> WriteRecords {
        let mut out = WriteRecords::new();
        for (at, op) in committed_ops(node) {
            for key in written_keys(op.write) {
                out.entry(key).or_default().push((op.client, op.op_id, at));
            }
        }
        out
    }

    fn global_log(node: &CanopusNode) -> Option<Vec<(NodeId, u64)>> {
        Some(
            committed_ops(node)
                .map(|(_, op)| (op.client, op.op_id))
                .collect(),
        )
    }

    fn healthy(nodes: &[&CanopusNode]) -> bool {
        nodes.iter().all(|n| n.stats().committed_cycles > 0)
    }

    /// Cycle by cycle, over whole logs: what a node committed after it
    /// took over a peer's state (past the hole `committed_ops` stops at)
    /// must match what every other replica committed in those cycles.
    fn extra_checks(trusted: &[(NodeId, &CanopusNode)]) -> Vec<String> {
        let mut violations = Vec::new();
        let mut by_cycle: BTreeMap<u64, (NodeId, Vec<(NodeId, u64)>)> = BTreeMap::new();
        for &(node, n) in trusted {
            for cc in n.committed_log() {
                let ops: Vec<(NodeId, u64)> = (cc.sets.iter())
                    .flat_map(|set| set.ops.iter().map(|op| (op.client, op.op_id)))
                    .collect();
                match by_cycle.get(&cc.cycle.0) {
                    None => {
                        by_cycle.insert(cc.cycle.0, (node, ops));
                    }
                    Some((first, theirs)) if *theirs != ops => violations.push(format!(
                        "cycle {} committed differently on {first} and {node}",
                        cc.cycle.0
                    )),
                    Some(_) => {}
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

    fn request(req: ClientRequest) -> Self {
        EpaxosMsg::Request(req)
    }

    fn reply(&self) -> Option<&ClientReply> {
        match self {
            EpaxosMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

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
            batch_duration: LIVE_TIME_UNIT / 25,
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
        hub: &NodeObs,
    ) -> EpaxosNode {
        EpaxosNode::new(id, roster(spec), cfg.clone()).with_obs(hub.clone())
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
        _hub: &NodeObs,
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

    fn request(req: ClientRequest) -> Self {
        ZabMsg::Request(req)
    }

    fn reply(&self) -> Option<&ClientReply> {
        match self {
            ZabMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

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
        let unit = LIVE_TIME_UNIT;
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
        hub: &NodeObs,
    ) -> ZabNode {
        ZabNode::new(id, roster(spec), cfg.clone()).with_obs(hub.clone())
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
        hub: &NodeObs,
    ) -> Box<dyn Process<Self>> {
        Box::new(ZabNode::recovering(id, roster(spec), cfg.clone()).with_obs(hub.clone()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_kv::{Op, OpResult};

    #[test]
    fn request_and_reply_bridge_every_protocol() {
        let req = ClientRequest {
            client: NodeId(1),
            op_id: 2,
            op: Op::Get { key: 3 },
        };
        assert!(CanopusMsg::request(req.clone()).reply().is_none());
        assert!(EpaxosMsg::request(req.clone()).reply().is_none());
        assert!(ZabMsg::request(req).reply().is_none());
        let reply = ClientReply {
            op_id: 2,
            weight: 1,
            result: OpResult::Batch,
        };
        assert!(CanopusMsg::Reply(reply.clone()).reply().is_some());
        assert!(EpaxosMsg::Reply(reply.clone()).reply().is_some());
        assert!(ZabMsg::Reply(reply).reply().is_some());
    }
}
