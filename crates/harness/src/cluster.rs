//! The one cluster builder: a full protocol deployment plus its clients,
//! on the topology-aware simulator or on loopback TCP.
//!
//! ```no_run
//! # use canopus::CanopusMsg;
//! # use canopus_harness::{ClusterBuilder, DeploymentSpec};
//! let spec = DeploymentSpec::paper_single_dc(3);
//! let simulated = ClusterBuilder::<CanopusMsg>::new(&spec, 7).sim();
//! let over_tcp = ClusterBuilder::<CanopusMsg>::new(&spec, 7).live();
//! ```
//!
//! Per the paper's client model (§8.1), every protocol node has clients in
//! its own rack/datacenter; we aggregate them into one client process per
//! node — open-loop Poisson arrivals splitting the offered load evenly
//! ([`Clients::OpenLoop`]), or a closed-loop [`HistoryClient`] recording
//! what the chaos verdict replays ([`Clients::History`]).
//!
//! Every simulated cluster routes through [`ChaosFabric`] — the nemesis's
//! fault table in front of the Clos topology — and is a
//! [`NemesisTarget`], so [`Cluster::run_plan`] can partition, impair, crash
//! and heal any deployment mid-run (the same `run_plan` a
//! [`LiveCluster`] offers; see [`canopus_sim::fault`]). With no faults
//! installed the decorator is pass-through and the event schedule is
//! identical to the bare [`ClosFabric`].

use std::collections::BTreeSet;

use canopus::{EmulationTable, LotShape};
use canopus_net::{ClosFabric, Wire};
use canopus_obs::{NodeObs, Registry, Snapshot};
use canopus_sim::fault::{self, FaultAction, FaultPlan, LinkFaults, NemesisTarget};
use canopus_sim::{
    impl_process_any, Dur, FaultyFabric, NodeConfig, NodeId, Payload, Process, Simulation, Time,
    Work,
};

use crate::history::{self, ChaosReport, ClientHistory, HistoryClient, HistoryConfig};
use crate::live::{live_history_config, LiveCluster};
use crate::open_loop::OpenLoopClient;
use crate::protocol::Protocol;
use crate::spec::{DeploymentSpec, LoadSpec};

/// The fabric of every simulated cluster: the nemesis's fault table in
/// front of the Clos topology.
pub type ChaosFabric = FaultyFabric<ClosFabric>;

/// Flight-ring capacity clusters driven by history clients get unless
/// [`ClusterBuilder::obs`] says otherwise: enough to hold the tail of a
/// run's consensus events for the failure dump without unbounded memory.
pub const CHAOS_FLIGHT_CAP: usize = 256;

/// Observability configuration for a cluster build: disabled (every
/// recording is one branch) or enabled with per-node flight rings of
/// `flight_cap` events.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterObs {
    /// Capacity of each node's flight-recorder ring; 0 disables obs.
    pub flight_cap: usize,
}

impl ClusterObs {
    /// Fully disabled: nodes carry inert hubs.
    pub fn off() -> Self {
        ClusterObs { flight_cap: 0 }
    }

    /// Enabled with the given flight-ring capacity per node.
    pub fn on(flight_cap: usize) -> Self {
        ClusterObs { flight_cap }
    }

    /// One hub per node, in node order.
    pub(crate) fn hubs(&self, nodes: usize) -> Vec<NodeObs> {
        (0..nodes as u32)
            .map(|node| {
                if self.flight_cap == 0 {
                    NodeObs::disabled()
                } else {
                    NodeObs::enabled(node, self.flight_cap)
                }
            })
            .collect()
    }
}

/// History clients are crash-stop on both fabrics: nothing rebuilds one,
/// so a plan that restarts one is refused, not half carried out.
pub(crate) fn refuse_client_restart(id: NodeId, nodes: usize) {
    assert!(
        id.index() < nodes,
        "{id:?} is a history client: clients are crash-stop and never restarted"
    );
}

/// Every hub's flight recorder, dumped (`last` events each) into one
/// string — the panic artifact chaos failures attach.
pub(crate) fn flight_dump(hubs: &[NodeObs], last: usize) -> String {
    hubs.iter().map(|h| h.flight.dump_last(last)).collect()
}

/// A process that ignores every message: stands in for a replica whose
/// protocol has no crash-recovery path (EPaxos, whose paper-scoped
/// implementation is failure-free), so a "restarted" node behaves as
/// crash-stop instead of silently corrupting quorum intersection.
pub struct SilentNode<M> {
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> Default for SilentNode<M> {
    fn default() -> Self {
        SilentNode {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M: Payload> Process<M> for SilentNode<M> {
    fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut canopus_sim::Context<'_, M>) {}
    impl_process_any!();
}

/// The emulation table for a deployment: one super-leaf per rack/DC.
/// Every harness cluster is a flat LOT; height-3 trees run only in
/// `crates/core/tests/cluster.rs` and `examples/live_cluster.rs`.
pub fn emulation_table_for(spec: &DeploymentSpec) -> EmulationTable {
    let groups = spec.group_count();
    let per = spec.per_group();
    let shape = LotShape::flat(groups as u16);
    let membership: Vec<Vec<NodeId>> = (0..groups)
        .map(|g| (0..per).map(|i| NodeId((g * per + i) as u32)).collect())
        .collect();
    EmulationTable::new(shape, membership)
}

/// Which client model drives the cluster.
#[derive(Clone, Debug)]
pub enum Clients {
    /// The paper's open-loop Poisson model at the given offered load
    /// (simulator only) — what [`Cluster::measure`] reads.
    OpenLoop(LoadSpec),
    /// One closed-loop [`HistoryClient`] per node — what `verdict()`
    /// replays. Turns commit-log recording on, and observability unless
    /// [`ClusterBuilder::obs`] overrides it, so a failing verdict can dump
    /// each node's flight recorder.
    History(HistoryConfig),
}

/// Assembles a deployment of protocol `P`: the protocol's configuration,
/// the client model, observability and the simulated nodes' CPU prices,
/// ending in [`ClusterBuilder::sim`] or [`ClusterBuilder::live`].
/// Everything left unset takes the default of the fabric the build ends
/// on.
pub struct ClusterBuilder<P: Protocol> {
    spec: DeploymentSpec,
    seed: u64,
    config: Option<P::Config>,
    clients: Option<Clients>,
    obs: Option<ClusterObs>,
    /// CPU model of the simulated protocol nodes.
    node_cfg: NodeConfig,
}

impl<P: Protocol> ClusterBuilder<P> {
    /// A builder for `spec`; `seed` fixes every random choice of a
    /// simulated run.
    pub fn new(spec: &DeploymentSpec, seed: u64) -> Self {
        ClusterBuilder {
            spec: spec.clone(),
            seed,
            config: None,
            clients: None,
            obs: None,
            node_cfg: NodeConfig::default(),
        }
    }

    /// The protocol configuration (default: [`Protocol::sim_config`] or
    /// [`Protocol::live_config`]).
    pub fn config(mut self, cfg: P::Config) -> Self {
        self.config = Some(cfg);
        self
    }

    /// The client model (default: history clients — [`HistoryConfig`]'s
    /// default schedule in the simulator, [`live_history_config`] live).
    pub fn clients(mut self, clients: Clients) -> Self {
        self.clients = Some(clients);
        self
    }

    /// Observability (default: off under open-loop clients, on with
    /// [`CHAOS_FLIGHT_CAP`]-event rings under history clients). Recording
    /// is observation-only — it never touches the RNG, the event queue, or
    /// the trace hash, so enabling it cannot change an execution.
    pub fn obs(mut self, obs: ClusterObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Prices one unit of `kind` of work on the protocol nodes at `price`
    /// (default: [`NodeConfig::default`]'s table). Simulator only: the
    /// live fabric prices no work.
    pub fn price(mut self, kind: Work, price: Dur) -> Self {
        self.node_cfg = self.node_cfg.with_price(kind, price);
        self
    }

    /// The protocol config and hubs both terminals build nodes from.
    fn resolve(
        &self,
        default_cfg: fn(&DeploymentSpec) -> P::Config,
        clients: &Clients,
    ) -> (P::Config, Vec<NodeObs>) {
        let cfg = self.config.clone();
        let cfg = cfg.unwrap_or_else(|| default_cfg(&self.spec));
        let (cfg, default_obs) = match clients {
            Clients::OpenLoop(_) => (cfg, ClusterObs::off()),
            Clients::History(_) => (P::recording(cfg), ClusterObs::on(CHAOS_FLIGHT_CAP)),
        };
        let obs = self.obs.unwrap_or(default_obs);
        let hubs = obs.hubs(self.spec.node_count());
        (cfg, hubs)
    }

    /// Builds the deployment on the deterministic simulator.
    pub fn sim(self) -> Cluster<P> {
        let clients = self
            .clients
            .clone()
            .unwrap_or_else(|| Clients::History(HistoryConfig::default()));
        let (cfg, hubs) = self.resolve(P::sim_config, &clients);
        let (spec, seed) = (self.spec, self.seed);
        let n = spec.node_count();

        let mut topo = spec.build_topology();
        // Place one client per protocol node in the same rack.
        let client_slots: Vec<NodeId> = (0..n)
            .map(|i| {
                let rack = topo.rack_of(NodeId(i as u32));
                topo.add_node(rack)
            })
            .collect();
        let mut sim = Simulation::new(FaultyFabric::new(ClosFabric::new(topo)), seed);
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                let id = NodeId(i as u32);
                let node = P::node(id, &spec, &cfg, seed, &hubs[i]);
                assert_eq!(sim.add_node_with(Box::new(node), self.node_cfg), id);
                id
            })
            .collect();
        let client_cfg = NodeConfig::client();
        for (i, &slot) in client_slots.iter().enumerate() {
            let client: Box<dyn Process<P>> = match &clients {
                Clients::OpenLoop(load) => Box::new(OpenLoopClient::<P>::new(
                    nodes[i],
                    load,
                    load.total_rate / n as f64,
                    seed ^ (0xC11E47 + i as u64),
                )),
                Clients::History(hcfg) => {
                    Box::new(HistoryClient::<P>::new(i, n, nodes[i], hcfg.clone()))
                }
            };
            let id = sim.add_node_with(client, client_cfg);
            assert_eq!(id, slot, "client ids must match topology");
        }
        let net_registry = if hubs.iter().any(NodeObs::is_enabled) {
            Registry::new()
        } else {
            Registry::disabled()
        };
        sim.set_net_metrics(net_registry.clone());
        Cluster {
            sim,
            nodes,
            clients: client_slots,
            spec,
            cfg,
            seed,
            ever_crashed: BTreeSet::new(),
            hubs,
            net_registry,
        }
    }

    /// Spawns the deployment on loopback TCP: one node loop (one thread)
    /// per protocol node and one per history client.
    ///
    /// # Panics
    /// Panics when built with [`Clients::OpenLoop`]: the live fabric hosts
    /// history clients only.
    pub fn live(self) -> LiveCluster<P>
    where
        P: Wire + Send,
    {
        let clients = self
            .clients
            .clone()
            .unwrap_or_else(|| Clients::History(live_history_config()));
        let Clients::History(hcfg) = &clients else {
            panic!("live clusters are driven by history clients, not an open-loop load");
        };
        let (cfg, hubs) = self.resolve(P::live_config, &clients);
        LiveCluster::spawn(self.spec, cfg, self.seed, hcfg, hubs)
    }
}

/// A simulated cluster: the simulation, the protocol node ids, and the
/// client process ids (parallel to the node list).
pub struct Cluster<P: Protocol> {
    /// The simulation, ready to run.
    pub sim: Simulation<P, ChaosFabric>,
    /// Protocol node ids (dense, starting at 0).
    pub nodes: Vec<NodeId>,
    /// One aggregated client per node, in node order.
    pub clients: Vec<NodeId>,
    spec: DeploymentSpec,
    cfg: P::Config,
    seed: u64,
    ever_crashed: BTreeSet<NodeId>,
    /// One observability hub per protocol node (all inert when obs is
    /// off).
    hubs: Vec<NodeObs>,
    /// The registry the simulator's network layer counts sent messages
    /// and bytes into (by wire kind).
    net_registry: Registry,
}

impl<P: Protocol> Cluster<P> {
    /// Node `id`'s state machine.
    ///
    /// # Panics
    /// Panics if the node is crashed, or was restarted as something other
    /// than a `P::Node` (EPaxos's [`SilentNode`]).
    pub fn node(&self, id: NodeId) -> &P::Node {
        self.sim.node::<P::Node>(id)
    }

    /// Replays `plan` over the next `horizon` of virtual time, each action
    /// at its exact instant, restarting crashed nodes through
    /// [`Protocol::restart`]. Returns the actions applied, with the
    /// instants they were applied at.
    pub fn run_plan(&mut self, plan: &FaultPlan, horizon: Dur) -> Vec<(Time, FaultAction)> {
        let run = fault::run_plan(self, plan, horizon);
        self.ever_crashed.extend(run.ever_crashed);
        run.applied
    }

    /// Protocol nodes that are alive and were never crashed — the set the
    /// chaos verdict holds to the full safety and convergence bar.
    pub fn trusted_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| self.sim.is_alive(n) && !self.ever_crashed.contains(&n))
            .collect()
    }

    /// Runs the chaos verdict over a cluster driven by history clients:
    /// agreement (global and per-key), client FIFO, linearizability of
    /// reads (where the protocol promises it), post-heal convergence, and
    /// the protocol's [`Protocol::extra_checks`].
    ///
    /// Only **trusted** nodes — alive and never crashed — are held to the
    /// bar: a restarted node's log legitimately restarts mid-history, and
    /// its recovery semantics are protocol-specific. `convergence_exempt`
    /// names trusted nodes whose clients are excused from the convergence
    /// check (e.g. a Canopus node that was isolated from its super-leaf
    /// peers gets tombstoned and, by design, stays excluded until a rejoin
    /// path exists).
    pub fn verdict(
        &self,
        converge_after: Time,
        convergence_exempt: &BTreeSet<NodeId>,
    ) -> ChaosReport {
        let trusted_ids = self.trusted_nodes();
        let trusted: Vec<(NodeId, &P::Node)> =
            trusted_ids.iter().map(|&n| (n, self.node(n))).collect();
        let clients: Vec<ClientHistory<'_>> = self
            .nodes
            .iter()
            .zip(&self.clients)
            .filter(|(node, _)| trusted_ids.contains(node))
            .map(|(&node, &client)| ClientHistory {
                node,
                client,
                ops: self.sim.node::<HistoryClient<P>>(client).ops(),
            })
            .collect();
        // One virtual clock stamps every node and client, so read/write
        // intervals are comparable.
        history::verdict::<P>(&trusted, &clients, converge_after, convergence_exempt, true)
    }

    /// Every node's flight recorder, dumped (`last` events each) into one
    /// string — the panic artifact chaos failures attach.
    pub fn flight_dump(&self, last: usize) -> String {
        flight_dump(&self.hubs, last)
    }

    /// One merged snapshot: every node's registry plus the network
    /// registry, aggregated by metric name.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.net_registry.snapshot();
        for hub in &self.hubs {
            snap.merge(&hub.metrics.snapshot());
        }
        snap
    }
}

/// The simulated cluster under the nemesis: time is the kernel's, the
/// fault table the fabric's, and a restarted node is whatever
/// [`Protocol::restart`] builds.
impl<P: Protocol> NemesisTarget for Cluster<P> {
    fn now(&self) -> Time {
        self.sim.now()
    }

    fn advance_to(&mut self, at: Time) {
        self.sim.run_until(at);
    }

    fn link_faults(&mut self, update: impl FnOnce(&mut LinkFaults)) {
        update(self.sim.fabric_mut().faults_mut());
    }

    fn crash(&mut self, node: NodeId) -> bool {
        let alive = self.sim.is_alive(node);
        if alive {
            self.sim.crash(node);
        }
        alive
    }

    fn restart(&mut self, node: NodeId) {
        refuse_client_restart(node, self.nodes.len());
        if self.sim.is_alive(node) {
            return;
        }
        let hub = &self.hubs[node.index()];
        let process = P::restart(node, &self.spec, &self.cfg, self.seed, hub);
        self.sim.restart(node, process);
    }
}
