//! Live-cluster chaos: a protocol deployment on real TCP sockets, under
//! the same nemesis as a simulated one.
//!
//! [`LiveCluster`] (built by [`crate::ClusterBuilder::live`]) runs a
//! protocol deployment on the TCP transport (`canopus_net::tcp`), plus one
//! [`HistoryClient`] per node, each on a transport node of its own (client
//! `i` has id `n + i` and targets node `i`, as on the simulator), every
//! loop sharing one [`FaultRules`] table. It is a [`NemesisTarget`], so
//! [`LiveCluster::run_plan`] is `canopus_sim::fault::run_plan`, the driver
//! a simulated [`Cluster`](crate::Cluster) runs, replaying the *same*
//! [`FaultPlan`]s on the wall clock. What differs is how this target does
//! each step:
//!
//! * advancing time is sleeping, so an action lands at its scheduled
//!   instant ± OS scheduling, and is recorded at the instant it did land;
//! * network actions (cuts, isolation, loss) change the table inside the
//!   shared [`FaultRules`], which every node loop asks as it sends and
//!   again as it receives;
//! * `crash` marks the node down in that table — peers drop what is in
//!   flight — then stops its loop, keeping the final process state; a
//!   history client crashes the same way, for good;
//! * `restart` rebuilds a replacement process through
//!   [`Protocol::restart`] — the same policy the simulator applies (ZAB
//!   resyncs as a recovering follower, EPaxos re-installs a crash-stop
//!   silent node) — and respawns
//!   the loop on the *same* listening socket (kept alive across the crash
//!   via `TcpListener::try_clone`, so no rebind race).
//!
//! After the run, [`LiveCluster::shutdown`] collects every final process
//! and [`LiveOutcome::verdict`] runs the shared chaos verdict: agreement,
//! client FIFO, read validity, and post-heal convergence. The
//! linearizability *timing* check is skipped — live nodes measure time
//! from their own spawn instants, and cross-node clock-base skew makes
//! read/write interval comparisons unsound.
//!
//! # Timing
//!
//! All real-time-sensitive timeouts are multiples of one value,
//! [`LIVE_TIME_UNIT`]: the simulator's microsecond-scale defaults assume
//! a deterministic scheduler, and on a real OS a descheduled thread would
//! trigger false failovers (`examples/live_cluster.rs` first showed this;
//! this module keeps the relaxed values in one place instead of
//! scattering magic numbers).
//!
//! # Canopus crash scenarios
//!
//! Canopus restarts are *not* driven over live sockets yet: the
//! simulator relies on the crashed node being tombstoned before its
//! fresh replacement boots (its failure detector fires in tens of
//! milliseconds of virtual time), while the live failure timeout is
//! deliberately long to avoid false positives — so an amnesiac super-leaf
//! Raft member could rejoin un-tombstoned. Until the rejoin protocol
//! lands (ROADMAP), the live suite exercises Canopus under partitions and
//! loss, and crash/restart under ZAB, whose recovery path is sound
//! without a failure-detector race.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use canopus::{CanopusConfig, BATCH_LINGER};
use canopus_net::tcp::{bind_loopback, spawn_node_obs, NetObs, PeerMap, TcpNodeHandle};
use canopus_net::{FaultRules, Wire};
use canopus_obs::{EventKind as ObsEvent, NodeObs};
use canopus_raft::RaftConfig;
use canopus_sim::fault::{self, FaultAction, FaultPlan, LinkFaults, NemesisTarget};
use canopus_sim::{Dur, NodeId, Payload, Process, Time};

use crate::cluster::{flight_dump, refuse_client_restart};
use crate::history::{self, ChaosReport, ClientHistory, HistoryClient, HistoryConfig};
use crate::protocol::Protocol;
use crate::scenarios::ChaosTimeline;
use crate::spec::{DeploymentSpec, TopoSpec};

/// The real-time "tick" for live clusters: every live election, failure
/// and fetch timeout is a multiple of it.
pub const LIVE_TIME_UNIT: Dur = Dur::millis(50);

/// Raft timing for live sockets: 1-unit heartbeats, 6–12-unit elections
/// (the values PR 1 validated under concurrent stress on loaded hosts).
pub(crate) fn live_raft_config() -> RaftConfig {
    let unit = LIVE_TIME_UNIT;
    RaftConfig {
        heartbeat_interval: unit,
        election_timeout_min: unit * 6,
        election_timeout_max: unit * 12,
    }
}

/// Canopus configuration for live sockets: one cycle at a time behind the
/// 1 ms batching window (without it one request anywhere starts a cycle
/// that drags every node through a broadcast and the LOT rounds, and an
/// idle-ish cluster free-runs at the speed of its transport), 4-unit
/// fetch retries, and a 40-unit (2 s) failure detector so OS scheduling
/// hiccups never look like node failures.
pub fn live_canopus_config() -> CanopusConfig {
    let unit = LIVE_TIME_UNIT;
    CanopusConfig {
        max_linger: BATCH_LINGER,
        fetch_timeout: unit * 4,
        failure_timeout: unit * 40,
        tick_interval: unit / 5,
        raft: live_raft_config(),
        record_log: false,
        ..CanopusConfig::default()
    }
}

/// The wall-clock chaos schedule matched to the live timeouts: faults at
/// 6 units, heal at 24, convergence probes from 30, clients stop at 40,
/// run ends at 45 (2.25 s per run).
pub fn live_timeline() -> ChaosTimeline {
    let unit = LIVE_TIME_UNIT;
    ChaosTimeline {
        fault_at: unit * 6,
        heal_at: unit * 24,
        probe_at: unit * 30,
        stop_at: unit * 40,
        run_for: unit * 45,
    }
}

/// The live suite's deployment: two super-leaves of three — the smallest
/// shape where every live protocol tolerates the catalog faults.
pub fn live_spec() -> DeploymentSpec {
    DeploymentSpec {
        topo: TopoSpec::SingleDc {
            racks: 2,
            nodes_per_rack: 3,
        },
        link: Default::default(),
    }
}

/// History-client parameters matched to [`live_timeline`] — like every
/// other live timeout they are multiples of [`LIVE_TIME_UNIT`] (150 ms op
/// timeout, 6.25 ms gap, 3.125 ms tick — the same scale as the simulator
/// suite's 150/6/3 ms).
pub fn live_history_config() -> HistoryConfig {
    let unit = LIVE_TIME_UNIT;
    let t = live_timeline();
    HistoryConfig {
        op_timeout: unit * 3,
        gap: unit / 8,
        tick: unit / 16,
        probe_at: Time::ZERO + t.probe_at,
        stop_at: Time::ZERO + t.stop_at,
        ..HistoryConfig::default()
    }
}

struct LiveSlot<M: Payload> {
    id: NodeId,
    /// Keeps the listening socket alive across crash/restart cycles; the
    /// running loop gets a `try_clone` of it.
    listener: TcpListener,
    handle: Option<TcpNodeHandle<M>>,
}

/// A protocol deployment plus its history clients on loopback TCP, with
/// runtime fault injection.
pub struct LiveCluster<P: Protocol + Wire + Send> {
    spec: DeploymentSpec,
    cfg: P::Config,
    seed: u64,
    start: Instant,
    rules: Arc<FaultRules>,
    peers: PeerMap,
    nodes: Vec<LiveSlot<P>>,
    /// One loop per history client: client `i` has id `n + i` and targets
    /// node `i`; `None` once the nemesis crashed it (clients are not
    /// restarted).
    clients: Vec<Option<TcpNodeHandle<P>>>,
    /// Final states of currently-crashed nodes and clients, for the
    /// verdict of a run that ends with them down.
    down: BTreeMap<NodeId, Box<dyn Process<P>>>,
    ever_crashed: BTreeSet<NodeId>,
    /// One observability hub per protocol node (all inert when obs is
    /// off).
    hubs: Vec<NodeObs>,
}

impl<P: Protocol + Wire + Send> LiveCluster<P> {
    /// Binds `2n` listeners on loopback ephemeral ports and spawns every
    /// loop: protocol node `i` on listener `i`, and the [`HistoryClient`]
    /// that targets it, with id `n + i`, on listener `n + i`. Enabled hubs
    /// are wired into both the node's process and its transport (per-peer
    /// traffic, flush sizes, queue depth).
    pub(crate) fn spawn(
        spec: DeploymentSpec,
        cfg: P::Config,
        seed: u64,
        hcfg: &HistoryConfig,
        hubs: Vec<NodeObs>,
    ) -> Self {
        let n = spec.node_count();
        let (mut listeners, peers) = bind_loopback(2 * n);
        let client_listeners = listeners.split_off(n);
        let mut cluster = LiveCluster {
            spec,
            cfg,
            seed,
            start: Instant::now(),
            rules: Arc::new(FaultRules::new(seed)),
            peers,
            nodes: Vec::with_capacity(n),
            clients: Vec::with_capacity(n),
            down: BTreeMap::new(),
            ever_crashed: BTreeSet::new(),
            hubs,
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let node = P::node(id, &cluster.spec, &cluster.cfg, seed, &cluster.hubs[i]);
            let handle = cluster.launch(id, &listener, Box::new(node));
            cluster.nodes.push(LiveSlot {
                id,
                listener,
                handle: Some(handle),
            });
        }
        for (i, listener) in client_listeners.iter().enumerate() {
            let client = HistoryClient::<P>::new(i, n, NodeId(i as u32), hcfg.clone());
            let handle = cluster.launch(NodeId((n + i) as u32), listener, Box::new(client));
            cluster.clients.push(Some(handle));
        }
        cluster
    }

    /// The loop of node or client `id`; `None` while it is down.
    fn handle(&mut self, id: NodeId) -> &mut Option<TcpNodeHandle<P>> {
        match id.index().checked_sub(self.nodes.len()) {
            None => &mut self.nodes[id.index()].handle,
            Some(client) => &mut self.clients[client],
        }
    }

    /// Node `id`'s hub (none for a client).
    fn hub_of(&self, id: NodeId) -> Option<&NodeObs> {
        self.hubs.get(id.index())
    }

    fn launch(
        &self,
        id: NodeId,
        listener: &TcpListener,
        process: Box<dyn Process<P>>,
    ) -> TcpNodeHandle<P> {
        let listener = listener.try_clone().expect("clone listener");
        let net_obs = self
            .hub_of(id)
            .filter(|hub| hub.is_enabled())
            .map(|hub| NetObs::new(hub.clone()))
            .unwrap_or_default();
        spawn_node_obs(
            id,
            process,
            listener,
            self.peers.clone(),
            self.seed.wrapping_add(id.0 as u64),
            Arc::clone(&self.rules),
            net_obs,
        )
    }

    /// Replays `plan` over the next `horizon` of wall-clock time, sleeping
    /// between actions, restarting crashed nodes through
    /// [`Protocol::restart`]. Returns the actions applied, with the
    /// instants they were applied at.
    pub fn run_plan(&mut self, plan: &FaultPlan, horizon: Dur) -> Vec<(Time, FaultAction)> {
        let run = fault::run_plan(self, plan, horizon);
        self.ever_crashed.extend(run.ever_crashed);
        run.applied
    }

    fn flight_event(&self, id: NodeId, kind: ObsEvent) {
        if let Some(hub) = self.hub_of(id) {
            hub.event(self.now().as_nanos(), kind);
        }
    }

    /// Stops every loop (the clients first, so no new operations race the
    /// teardown) and returns the final processes for the verdict.
    pub fn shutdown(mut self) -> LiveOutcome<P> {
        let n = self.nodes.len();
        let clients = std::mem::take(&mut self.clients)
            .into_iter()
            .enumerate()
            .map(|(i, handle)| {
                let process = match handle {
                    Some(handle) => handle.stop(),
                    None => self
                        .down
                        .remove(&NodeId((n + i) as u32))
                        .expect("crashed client state retained"),
                };
                let client = process.into_any().downcast::<HistoryClient<P>>();
                *client.expect("a history client")
            })
            .collect();
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for slot in &mut self.nodes {
            match slot.handle.take() {
                Some(handle) => nodes.push((slot.id, handle.stop(), true)),
                None => {
                    let process = self
                        .down
                        .remove(&slot.id)
                        .expect("crashed node state retained");
                    nodes.push((slot.id, process, false));
                }
            }
        }
        LiveOutcome {
            nodes,
            clients,
            ever_crashed: self.ever_crashed,
            hubs: self.hubs,
        }
    }
}

/// The live cluster under the nemesis: time is the wall clock since
/// spawn, the fault table the one every node loop shares, and a crashed
/// node is a stopped thread whose final state waits in `down`.
impl<P: Protocol + Wire + Send> NemesisTarget for LiveCluster<P> {
    fn now(&self) -> Time {
        Time::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn advance_to(&mut self, at: Time) {
        let wait = at.saturating_since(self.now());
        std::thread::sleep(std::time::Duration::from_nanos(wait.as_nanos()));
    }

    fn link_faults(&mut self, update: impl FnOnce(&mut LinkFaults)) {
        self.rules.update(update);
    }

    fn crash(&mut self, id: NodeId) -> bool {
        let Some(handle) = self.handle(id).take() else {
            return false;
        };
        // Mark first so in-flight traffic is dropped while the loop winds
        // down — as close to an instantaneous crash as threads get.
        self.rules.set_crashed(id, true);
        self.flight_event(id, ObsEvent::Crash);
        self.down.insert(id, handle.stop());
        true
    }

    /// On the same listening socket the node had.
    fn restart(&mut self, id: NodeId) {
        refuse_client_restart(id, self.nodes.len());
        if self.nodes[id.index()].handle.is_some() {
            return;
        }
        self.down.remove(&id);
        let hub = &self.hubs[id.index()];
        let process = P::restart(id, &self.spec, &self.cfg, self.seed, hub);
        self.flight_event(id, ObsEvent::Restart);
        // Clear the crash mark before the replacement loop starts, or its
        // first sends and receives race the still-set mark and get
        // dropped (the mirror of crash()'s mark-before-stop ordering).
        self.rules.set_crashed(id, false);
        let handle = self.launch(id, &self.nodes[id.index()].listener, process);
        self.nodes[id.index()].handle = Some(handle);
    }
}

/// The final state of a live run: every node's final process and every
/// client's history, ready for the chaos verdict.
pub struct LiveOutcome<P: Protocol> {
    /// `(id, final process, was up at shutdown)` for every protocol node.
    pub nodes: Vec<(NodeId, Box<dyn Process<P>>, bool)>,
    /// The history clients: client `i` has id `n + i` and targets node `i`.
    pub clients: Vec<HistoryClient<P>>,
    /// Nodes the nemesis crashed at least once.
    pub ever_crashed: BTreeSet<NodeId>,
    /// Observability hubs, retained across shutdown so a failing verdict
    /// can still dump flight recorders and collect metrics.
    hubs: Vec<NodeObs>,
}

impl<P: Protocol> LiveOutcome<P> {
    /// Every node's flight recorder, dumped (`last` events each) into one
    /// string — the panic artifact chaos failures attach.
    pub fn flight_dump(&self, last: usize) -> String {
        flight_dump(&self.hubs, last)
    }

    /// Runs the shared chaos verdict over the recovered states of the
    /// trusted nodes (up at shutdown and never crashed): global and per-key
    /// agreement, client FIFO, read validity, post-heal convergence, and
    /// the protocol's [`Protocol::extra_checks`].
    pub fn verdict(
        &self,
        converge_after: Time,
        convergence_exempt: &BTreeSet<NodeId>,
    ) -> ChaosReport {
        let trusted: Vec<(NodeId, &P::Node)> = self
            .nodes
            .iter()
            .filter(|(id, _, up)| *up && !self.ever_crashed.contains(id))
            .map(|(id, p, _)| {
                let node = p.as_any().downcast_ref::<P::Node>();
                (*id, node.expect("a never-crashed node is a P::Node"))
            })
            .collect();
        let n = self.nodes.len();
        let clients: Vec<ClientHistory<'_>> = self
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| ClientHistory {
                node: NodeId(i as u32),
                client: NodeId((n + i) as u32),
                ops: c.ops(),
            })
            .filter(|ch| trusted.iter().any(|&(id, _)| id == ch.node))
            .collect();
        // Each live node counts time from its own spawn instant: no
        // shared clock, so no linearizability timing pass.
        history::verdict::<P>(
            &trusted,
            &clients,
            converge_after,
            convergence_exempt,
            false,
        )
    }
}
