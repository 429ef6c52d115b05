//! What the one-trait harness makes possible: a protocol the harness has
//! never heard of runs on both fabrics and through the verdict given one
//! `impl Protocol`, and every protocol's restart policy is observable
//! through the same trait on the simulator.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use canopus::CanopusMsg;
use canopus_epaxos::EpaxosMsg;
use canopus_harness::{
    live_timeline, Clients, Cluster, ClusterBuilder, DeploymentSpec, HistoryClient, HistoryConfig,
    HistoryOp, LoadSpec, Protocol, SilentNode, TopoSpec, WriteRecords,
};
use canopus_kv::{ClientReply, ClientRequest, Key, Op, OpResult};
use canopus_net::{Wire, WireError};
use canopus_obs::NodeObs;
use canopus_sim::fault::{FaultEvent, FaultPlan};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Payload, Process, Time};
use canopus_zab::{ZabMsg, ZabRole};

// ---------------------------------------------------------------------
// (a) A toy fourth protocol: one node answering from its own map
// ---------------------------------------------------------------------

#[derive(Debug)]
enum EchoMsg {
    Request(ClientRequest),
    Reply(ClientReply),
}

impl Payload for EchoMsg {
    fn wire_size(&self) -> usize {
        self.to_bytes().len()
    }
}

impl Wire for EchoMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            EchoMsg::Request(r) => {
                0u8.encode(buf);
                r.encode(buf);
            }
            EchoMsg::Reply(r) => {
                1u8.encode(buf);
                r.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(EchoMsg::Request(Wire::decode(buf)?)),
            1 => Ok(EchoMsg::Reply(Wire::decode(buf)?)),
            _ => Err(WireError::Invalid("EchoMsg tag")),
        }
    }
}

#[derive(Default)]
struct EchoNode {
    store: BTreeMap<Key, Bytes>,
    writes: WriteRecords,
}

impl Process<EchoMsg> for EchoNode {
    fn on_message(&mut self, from: NodeId, msg: EchoMsg, ctx: &mut Context<'_, EchoMsg>) {
        let EchoMsg::Request(req) = msg else { return };
        let result = match req.op {
            Op::Put { key, value } => {
                self.store.insert(key, value);
                let record = (req.client, req.op_id, ctx.now());
                self.writes.entry(key).or_default().push(record);
                OpResult::Written
            }
            Op::Get { key } => OpResult::Value(self.store.get(&key).cloned()),
            _ => OpResult::Batch,
        };
        let reply = ClientReply {
            op_id: req.op_id,
            weight: 1,
            result,
        };
        ctx.send(from, EchoMsg::Reply(reply));
    }
    impl_process_any!();
}

/// Everything the harness needs to know about the protocol.
impl Protocol for EchoMsg {
    type Node = EchoNode;
    type Config = ();
    const NAME: &'static str = "echo";
    const LINEARIZABLE_READS: bool = true;

    fn request(req: ClientRequest) -> Self {
        EchoMsg::Request(req)
    }
    fn reply(&self) -> Option<&ClientReply> {
        match self {
            EchoMsg::Reply(r) => Some(r),
            EchoMsg::Request(_) => None,
        }
    }
    fn sim_config(_: &DeploymentSpec) {}
    fn live_config(_: &DeploymentSpec) {}
    fn node(_: NodeId, _: &DeploymentSpec, _: &(), _: u64, _: &NodeObs) -> EchoNode {
        EchoNode::default()
    }
    fn write_records(node: &EchoNode) -> WriteRecords {
        node.writes.clone()
    }
    fn global_log(_: &EchoNode) -> Option<Vec<(NodeId, u64)>> {
        None
    }
    fn healthy(nodes: &[&EchoNode]) -> bool {
        nodes.iter().all(|n| !n.writes.is_empty())
    }
}

fn one_node() -> DeploymentSpec {
    DeploymentSpec {
        topo: TopoSpec::SingleDc {
            racks: 1,
            nodes_per_rack: 1,
        },
        link: Default::default(),
    }
}

#[test]
fn a_fourth_protocol_is_one_impl_block() {
    let hcfg = HistoryConfig::default();
    let mut sim = ClusterBuilder::<EchoMsg>::new(&one_node(), 5).sim();
    sim.sim.run_for(Dur::millis(2000));
    let report = sim.verdict(hcfg.probe_at, &Default::default());
    assert!(report.ok(), "sim: {:#?}", report.violations);
    assert!(
        report.ops_ok > 50 && report.reads_checked > 10,
        "{report:?}"
    );
    assert!(EchoMsg::healthy(&[sim.node(NodeId(0))]));

    let t = live_timeline();
    let mut live = ClusterBuilder::<EchoMsg>::new(&one_node(), 5).live();
    live.run_plan(&FaultPlan::new(), t.run_for);
    let report = live
        .shutdown()
        .verdict(t.converge_after(), &Default::default());
    assert!(report.ok(), "live: {:#?}", report.violations);
    assert!(report.ops_ok > 20, "{report:?}");
}

/// Every history client is a node of its own on both fabrics: isolating
/// client 0 cuts off client 0 and nobody else.
#[test]
fn a_fault_on_one_client_leaves_the_other_client_alone() {
    let spec = DeploymentSpec {
        topo: TopoSpec::SingleDc {
            racks: 1,
            nodes_per_rack: 2,
        },
        link: Default::default(),
    };
    // Nodes 0 and 1; client 0 is NodeId(2), client 1 is NodeId(3).
    let plan = FaultPlan::new().at(Dur::ZERO, FaultEvent::IsolateNode(NodeId(2)));
    let clean = |ops: &[HistoryOp]| ops.iter().filter(|o| o.clean()).count();

    let mut sim = ClusterBuilder::<EchoMsg>::new(&spec, 5).sim();
    sim.run_plan(&plan, Dur::secs(2));
    let sim_clean: Vec<usize> = (0..2)
        .map(|i| clean(sim.sim.node::<HistoryClient<EchoMsg>>(sim.clients[i]).ops()))
        .collect();
    assert_eq!(sim_clean[0], 0, "sim: {sim_clean:?}");
    assert!(sim_clean[1] > 50, "sim: {sim_clean:?}");

    let mut live = ClusterBuilder::<EchoMsg>::new(&spec, 5).live();
    live.run_plan(&plan, live_timeline().run_for);
    let outcome = live.shutdown();
    let live_clean: Vec<usize> = outcome.clients.iter().map(|c| clean(c.ops())).collect();
    assert_eq!(live_clean[0], 0, "live: {live_clean:?}");
    assert!(live_clean[1] > 20, "live: {live_clean:?}");
}

/// A history client is a node of its own, so the nemesis can crash it on
/// either fabric: the run goes on to the end and the client's history
/// stops at the crash.
#[test]
fn a_crashed_client_stops_issuing_and_the_run_goes_on() {
    // Node 0; its client is NodeId(1).
    let plan = FaultPlan::new().at(Dur::millis(100), FaultEvent::Crash(NodeId(1)));
    let issued_before = |ops: &[HistoryOp], crash: Time| {
        assert!(ops.len() > 5, "{} ops before the crash", ops.len());
        let late: Vec<_> = ops.iter().filter(|o| o.invoke > crash).collect();
        assert!(
            late.is_empty(),
            "issued after the crash at {crash:?}: {late:?}"
        );
    };

    let mut sim = ClusterBuilder::<EchoMsg>::new(&one_node(), 5).sim();
    let applied = sim.run_plan(&plan, Dur::secs(1));
    assert_eq!(sim.sim.now(), Time::ZERO + Dur::secs(1));
    let ops = sim.sim.node::<HistoryClient<EchoMsg>>(sim.clients[0]).ops();
    issued_before(ops, applied[0].0);

    let t = live_timeline();
    let mut live = ClusterBuilder::<EchoMsg>::new(&one_node(), 5).live();
    let applied = live.run_plan(&plan, t.run_for);
    let outcome = live.shutdown();
    assert_eq!(outcome.clients.len(), 1);
    // The client's clock started after the cluster's, so it reads less.
    issued_before(outcome.clients[0].ops(), applied[0].0);
}

/// Nothing rebuilds a crashed client, so a plan that restarts one is
/// refused outright.
#[test]
#[should_panic(expected = "n1 is a history client: clients are crash-stop")]
fn restarting_a_client_is_refused() {
    let plan = FaultPlan::new()
        .at(Dur::millis(100), FaultEvent::Crash(NodeId(1)))
        .at(Dur::millis(200), FaultEvent::Restart(NodeId(1)));
    let mut sim = ClusterBuilder::<EchoMsg>::new(&one_node(), 5).sim();
    sim.run_plan(&plan, Dur::secs(1));
}

// ---------------------------------------------------------------------
// (b) Restart policies, through the trait
// ---------------------------------------------------------------------

fn cluster<P: Protocol>() -> Cluster<P> {
    ClusterBuilder::new(&DeploymentSpec::paper_single_dc(3), 0xD0C)
        .clients(Clients::History(HistoryConfig {
            // No probe phase: the steady-state workload runs throughout.
            probe_at: Time::ZERO + Dur::secs(3600),
            stop_at: Time::ZERO + Dur::secs(3600),
            ..HistoryConfig::default()
        }))
        .sim()
}

/// Runs 300 ms, crashes `victims`, restarts them 300 ms later, and stops
/// right after the restart; the caller runs on from there.
fn crash_and_restart<P: Protocol>(cluster: &mut Cluster<P>, victims: &[NodeId]) {
    cluster.sim.run_for(Dur::millis(300));
    let mut plan = FaultPlan::new();
    for &v in victims {
        plan = plan
            .at(Dur::ZERO, FaultEvent::Crash(v))
            .at(Dur::millis(300), FaultEvent::Restart(v));
    }
    cluster.run_plan(&plan, Dur::millis(301));
}

/// Canopus: the replacement is a fresh node. The super-leaf's broadcast
/// logs have long discarded what every member held, so it cannot replay
/// them from cycle 1; it takes over a peer's state instead and follows the
/// deliveries from there — its own tombstone included, so it stays
/// excluded: it follows the survivors' commits but never again serves a
/// write. And once it follows, it holds nobody's log back.
#[test]
fn canopus_restarts_fresh_and_stays_excluded() {
    let mut c = cluster::<CanopusMsg>();
    crash_and_restart(&mut c, &[NodeId(1)]);
    let restarted_at = c.sim.now();
    assert_eq!(c.node(NodeId(1)).stats().committed_cycles, 0, "fresh");
    c.sim.run_for(Dur::millis(600));
    let writes_served_since = |i: usize| {
        let ops = c.sim.node::<HistoryClient<CanopusMsg>>(c.clients[i]).ops();
        let served = |o: &&HistoryOp| o.is_write && o.clean() && o.invoke > restarted_at;
        ops.iter().filter(served).count()
    };
    assert_eq!(writes_served_since(1), 0, "excluded");
    assert!(writes_served_since(0) > 10, "survivors carry on");
    let (back, peer) = (c.node(NodeId(1)).stats(), c.node(NodeId(0)).stats());
    assert_eq!(back.commit_digest, peer.commit_digest, "caught up");
    assert_eq!(back.committed_cycles, peer.committed_cycles);
    assert_eq!(
        c.node(NodeId(1)).store().digest(),
        c.node(NodeId(0)).store().digest()
    );
    let (raft_entries, _) = c.node(NodeId(0)).retained();
    assert!(raft_entries <= 9, "{raft_entries} entries held back");
}

/// ZAB: even the former leader comes back as a follower with nothing
/// applied, then resyncs the whole history from the current leader.
#[test]
fn zab_leader_restarts_as_follower_and_resyncs() {
    let mut c = cluster::<ZabMsg>();
    c.sim.run_for(Dur::millis(1));
    assert_eq!(c.node(NodeId(0)).role(), ZabRole::Leader);
    crash_and_restart(&mut c, &[NodeId(0)]);
    assert_ne!(c.node(NodeId(0)).role(), ZabRole::Leader);
    assert!(c.node(NodeId(0)).applied_log().is_empty(), "amnesiac");
    c.sim.run_for(Dur::millis(600));
    let (back, peer) = (c.node(NodeId(0)), c.node(NodeId(1)));
    assert_ne!(back.role(), ZabRole::Leader, "never reclaims leadership");
    let (back, peer) = (back.applied_log(), peer.applied_log());
    assert!(back.len() > 50, "resynced only {} entries", back.len());
    let common = back.len().min(peer.len());
    assert_eq!(back[..common], peer[..common], "resynced a different log");
}

/// EPaxos has no recovery protocol: the replacement is a silent
/// crash-stop process, and the other replicas keep committing without it.
#[test]
fn epaxos_restart_stays_silent() {
    let mut c = cluster::<EpaxosMsg>();
    crash_and_restart(&mut c, &[NodeId(1)]);
    let executed_before = c.node(NodeId(0)).stats().executed_weight;
    c.sim.run_for(Dur::millis(600));
    let _: &SilentNode<EpaxosMsg> = c.sim.node(NodeId(1));
    assert!(c.node(NodeId(0)).stats().executed_weight > executed_before);
    let report = c.verdict(
        Time::ZERO + Dur::secs(3600),
        &c.nodes.iter().copied().collect(),
    );
    assert!(report.ok(), "{:#?}", report.violations);
}

// ---------------------------------------------------------------------
// (c) A measured run is healthy only if every node made progress
// ---------------------------------------------------------------------

/// ZAB on 3 racks × 3 nodes (nodes 5–8 are observers) under the paper's
/// open-loop clients: an observer that never comes up applies nothing, so
/// the run is unhealthy even though the quorum commits throughout.
#[test]
fn zab_is_unhealthy_when_one_observer_never_applies() {
    let measure = |down: Option<NodeId>| {
        let load = LoadSpec::new(20_000.0);
        let mut c = ClusterBuilder::<ZabMsg>::new(&DeploymentSpec::paper_single_dc(3), 0xD0C)
            .clients(Clients::OpenLoop(load.clone()))
            .sim();
        if let Some(n) = down {
            assert_eq!(c.node(n).role(), ZabRole::Observer);
            c.sim.crash(n);
        }
        c.measure(&load)
    };
    let all_up = measure(None);
    assert!(all_up.healthy, "{all_up:?}");
    let one_down = measure(Some(NodeId(8)));
    assert!(one_down.achieved > 0.0, "{one_down:?}");
    assert!(!one_down.healthy, "{one_down:?}");
}
