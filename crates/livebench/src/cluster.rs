//! The system under test: the paper's 3×3 deployment, taken as shipped.
//!
//! Nine `CanopusNode`s (`LotShape::flat(3)`, three super-leaves of three),
//! each driven by `canopus_net::tcp::run_node_obs` on a thread named
//! `node-<id>`, over loopback TCP on the shared reactor pool, plus the
//! generator on a thread named `loadgen`. Nothing is overridden:
//! `live_canopus_config()` as is, `NetObs::disabled()`.

use std::net::TcpListener;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use canopus::{CanopusMsg, CanopusNode, EmulationTable, LotShape};
use canopus_harness::live_canopus_config;
use canopus_net::tcp::{run_node_obs, NetObs, PeerMap};
use canopus_net::FaultRules;
use canopus_sim::{NodeId, Process};

use crate::gen::{Event, GenConfig, LoadGen, LOADGEN_ID};
use crate::trace::{TraceCtl, TracedProcess};
use crate::workload::{decode_value, Checker, KEYS, NODES};

/// Seed of the nodes' own randomness (proposal numbers, Raft timeouts). It
/// is part of the program, not of the input, so `--seed` does not move it.
const NODE_SEED: u64 = 42;

/// First listening port; node `i` listens on `PORT_BASE + i` and the
/// generator on `PORT_BASE + 9`. The reactor places a connection on a loop
/// by hashing the peer's port, and with ephemeral ports that placement —
/// and with it `put16_sat` goodput, by ±10 % — changed from run to run.
/// Fixed ports below the ephemeral range make it part of the deployment; a
/// run that finds one taken fails rather than measure another placement.
const PORT_BASE: u16 = 27_500;
/// Loops are started this far apart so that they register with the reactor
/// in id order: the reactor numbers nodes as they register, and that number
/// also decides loop placement.
const SPAWN_STAGGER: Duration = Duration::from_millis(2);

type Boxed = Box<dyn Process<CanopusMsg>>;

/// Binds the ten loopback listeners.
fn bind_all() -> Result<Vec<TcpListener>, String> {
    (0..=NODES as u16)
        .map(|i| {
            let port = PORT_BASE + i;
            TcpListener::bind(("127.0.0.1", port)).map_err(|e| format!("port {port}: {e}"))
        })
        .collect()
}

struct Running {
    stop: Sender<()>,
    join: JoinHandle<Boxed>,
}

impl Running {
    fn stop(self) -> Boxed {
        let _ = self.stop.send(());
        self.join.join().expect("a node loop panicked")
    }
}

fn spawn_loop(
    name: String,
    id: NodeId,
    process: Boxed,
    listener: TcpListener,
    peers: PeerMap,
    rules: Arc<FaultRules>,
) -> Running {
    let (stop, stopped) = mpsc::channel();
    let seed = NODE_SEED + id.0 as u64;
    std::thread::sleep(SPAWN_STAGGER);
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            run_node_obs(
                id,
                process,
                listener,
                peers,
                stopped,
                seed,
                rules,
                NetObs::disabled(),
            )
        })
        .expect("spawn a node thread");
    Running { stop, join }
}

pub struct Cluster {
    nodes: Vec<Option<Running>>,
    /// Final states of nodes stopped mid-run.
    crashed: Vec<(u32, Boxed)>,
    loadgen: Running,
    pub events: Receiver<Event>,
}

/// The final state of every loop, for verification and the trace.
pub struct Finals {
    /// `(id, state)` of the nodes that ran to the end.
    pub live: Vec<(u32, Boxed)>,
    /// `(id, state)` of the nodes crashed on the way.
    pub crashed: Vec<(u32, Boxed)>,
    pub gen: Box<LoadGen>,
}

impl Cluster {
    pub fn spawn(cfg: GenConfig, ctl: Arc<TraceCtl>) -> Result<Cluster, String> {
        let members = |leaf: u32| (0..3).map(|i| NodeId(leaf * 3 + i)).collect::<Vec<_>>();
        let table = EmulationTable::new(LotShape::flat(3), (0..3).map(members).collect());
        let rules = Arc::new(FaultRules::new(NODE_SEED));

        // Bind everything first so the peer map is complete, the
        // generator's own inbound socket included.
        let mut listeners = bind_all()?;
        let mut peers = PeerMap::new();
        for (id, listener) in listeners.iter().enumerate() {
            peers.insert(
                NodeId(id as u32),
                listener.local_addr().expect("local addr"),
            );
        }
        let gen_listener = listeners.pop().expect("the generator's listener");

        let mut nodes = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let node: Boxed = Box::new(CanopusNode::new(
                id,
                table.clone(),
                live_canopus_config(),
                NODE_SEED,
            ));
            let process: Boxed = if cfg.traced {
                Box::new(TracedProcess::new(node, Arc::clone(&ctl)))
            } else {
                node
            };
            nodes.push(Some(spawn_loop(
                format!("node-{i}"),
                id,
                process,
                listener,
                peers.clone(),
                Arc::clone(&rules),
            )));
        }
        let (events_tx, events) = mpsc::channel();
        let gen = LoadGen::new(cfg, ctl, Arc::clone(&rules), events_tx);
        let loadgen = spawn_loop(
            "loadgen".to_string(),
            LOADGEN_ID,
            Box::new(gen),
            gen_listener,
            peers,
            rules,
        );
        Ok(Cluster {
            nodes,
            crashed: Vec::new(),
            loadgen,
            events,
        })
    }

    /// Stops a node's loop for good (no restart: live rejoin does not
    /// exist yet). The generator has already marked it crashed.
    pub fn stop_node(&mut self, id: u32) {
        if let Some(running) = self.nodes[id as usize].take() {
            self.crashed.push((id, running.stop()));
        }
    }

    /// Stops every loop, the generator first.
    pub fn shutdown(self) -> Finals {
        let gen = self
            .loadgen
            .stop()
            .into_any()
            .downcast::<LoadGen>()
            .expect("the generator's state");
        let live = self
            .nodes
            .into_iter()
            .enumerate()
            .filter_map(|(i, n)| Some((i as u32, n?.stop())))
            .collect();
        Finals {
            live,
            crashed: self.crashed,
            gen,
        }
    }
}

fn node_of(process: &Boxed) -> &CanopusNode {
    process
        .as_any()
        .downcast_ref::<CanopusNode>()
        .expect("a Canopus node")
}

/// End-of-run safety check: every live node committed the same history to
/// the same store, and every key's final sequence is one its acknowledged
/// Puts allow. Returns one line per violation.
pub fn verify(live: &[(u32, Boxed)], checker: &Checker) -> Vec<String> {
    let mut bad = Vec::new();
    let Some((first_id, first)) = live.first() else {
        return vec!["no node survived the run".to_string()];
    };
    let first = node_of(first);
    let (want_stats, want_store) = (first.stats(), first.store().digest());
    for (id, process) in &live[1..] {
        let node = node_of(process);
        let stats = node.stats();
        if (stats.committed_cycles, stats.commit_digest)
            != (want_stats.committed_cycles, want_stats.commit_digest)
        {
            bad.push(format!(
                "node {id} committed {} cycles (digest {:016x}), node {first_id} {} ({:016x})",
                stats.committed_cycles,
                stats.commit_digest,
                want_stats.committed_cycles,
                want_stats.commit_digest
            ));
        }
        if node.store().digest() != want_store {
            bad.push(format!("node {id}'s store differs from node {first_id}'s"));
        }
    }
    let mut wrong_keys = 0;
    for key in 0..KEYS {
        let seq = first
            .store()
            .get(key as u64)
            .and_then(|v| decode_value(&v.value))
            .filter(|&(_, k)| k == key)
            .map(|(seq, _)| seq);
        if !seq.is_some_and(|seq| checker.final_ok(key, seq)) {
            wrong_keys += 1;
            if wrong_keys <= 4 {
                bad.push(format!(
                    "key {key} ends at sequence {seq:?}, which its acknowledged Puts rule out"
                ));
            }
        }
    }
    if wrong_keys > 4 {
        bad.push(format!("... and {} more keys", wrong_keys - 4));
    }
    bad
}
