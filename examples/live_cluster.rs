//! A live Canopus cluster over real TCP sockets.
//!
//! The same `CanopusNode` state machines that drive every simulation in
//! this repository here run unmodified on the run-to-completion TCP transport
//! (`canopus_net::tcp`): twelve nodes in a height-3 tree (fanouts 2×2, four
//! super-leaves of three) listen on loopback TCP, a TCP client (registered
//! in the peer map as node 12) submits writes and a read through real
//! sockets and receives real replies, and the nodes' commit digests are
//! compared at shutdown. In every cycle's round 3 each super-leaf fetches
//! the state of the other height-2 subtree over TCP.
//!
//! Run with: `cargo run --example live_cluster [-- --metrics]`
//!
//! With `--metrics`, every node runs with an enabled observability hub
//! and the per-node registry (consensus counters plus per-peer wire
//! traffic) is printed as text exposition at exit.

use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use canopus::{CanopusMsg, CanopusNode, EmulationTable, LotShape};
use canopus_harness::live_canopus_config;
use canopus_kv::{ClientRequest, Op, OpResult};
use canopus_net::tcp::{bind_loopback, read_frame, run_node_obs, write_frame, NetObs};
use canopus_net::wire::Wire;
use canopus_net::FaultRules;
use canopus_obs::NodeObs;
use canopus_sim::NodeId;

const NODES: u32 = 12;
const CLIENT_ID: NodeId = NodeId(12);

/// Flight-ring capacity per node under `--metrics`.
const FLIGHT_CAP: usize = 64;

fn main() {
    let show_metrics = std::env::args().any(|a| a == "--metrics");
    let table = EmulationTable::new(
        LotShape::new(vec![2, 2]),
        (0..NODES / 3)
            .map(|leaf| (0..3).map(|i| NodeId(3 * leaf + i)).collect())
            .collect(),
    );
    // The simulator-tuned defaults (25 ms failure timeout, 10–20 ms Raft
    // elections) assume a deterministic scheduler; on a real OS a loaded
    // box can deschedule a node thread longer than that and trigger false
    // failovers. All real-time-sensitive timeouts are multiples of one
    // value, `canopus_harness::LIVE_TIME_UNIT` (50 ms).
    let cfg = live_canopus_config();

    // Bind every listener up front so the peer map is complete, including
    // the client's own inbound socket (node 12 in the message namespace).
    let (mut listeners, peers) = bind_loopback(NODES as usize + 1);
    let client_listener = listeners.pop().expect("client listener");

    println!("spawning {NODES} Canopus nodes on loopback TCP ...");
    let mut handles = Vec::new();
    let mut shutdowns = Vec::new();
    let mut hubs = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let id = NodeId(i as u32);
        println!("  node {id} on {}", peers.get(id).unwrap());
        let hub = if show_metrics {
            NodeObs::enabled(id.0, FLIGHT_CAP)
        } else {
            NodeObs::disabled()
        };
        hubs.push(hub.clone());
        let node = CanopusNode::new(id, table.clone(), cfg.clone(), 42).with_obs(hub.clone());
        let (tx, rx) = mpsc::channel();
        shutdowns.push(tx);
        let peer_map = peers.clone();
        let seed = 42 + i as u64;
        handles.push(std::thread::spawn(move || {
            run_node_obs::<CanopusMsg>(
                id,
                Box::new(node),
                listener,
                peer_map,
                rx,
                seed,
                Arc::new(FaultRules::new(seed)),
                NetObs::new(hub),
            )
        }));
    }

    // Reply sink: accept connections and collect replies addressed to us.
    let (reply_tx, reply_rx) = mpsc::channel::<CanopusMsg>();
    std::thread::spawn(move || loop {
        let Ok((mut stream, _)) = client_listener.accept() else {
            return;
        };
        let tx = reply_tx.clone();
        std::thread::spawn(move || {
            // Handshake frame first (sender's node id), then messages.
            let _ = read_frame(&mut stream);
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                if let Ok(msg) = CanopusMsg::from_bytes(frame) {
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
            }
        });
    });

    // Submit writes + one read to node 0 over a raw TCP connection.
    let mut stream = TcpStream::connect(peers.get(NodeId(0)).unwrap()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    write_frame(&mut stream, &CLIENT_ID.to_bytes()).expect("handshake");

    const WRITES: u64 = 10;
    println!("\nsubmitting {WRITES} writes and one read via TCP ...");
    for k in 0..WRITES {
        let req = CanopusMsg::Request(ClientRequest {
            client: CLIENT_ID,
            op_id: k,
            op: Op::Put {
                key: k,
                value: Bytes::from(format!("value-{k}").into_bytes()),
            },
        });
        write_frame(&mut stream, &req.to_bytes()).expect("send");
    }
    let read = CanopusMsg::Request(ClientRequest {
        client: CLIENT_ID,
        op_id: WRITES,
        op: Op::Get { key: 3 },
    });
    write_frame(&mut stream, &read.to_bytes()).expect("send");

    // Await all replies (with a timeout guard).
    let mut write_acks = 0u64;
    let mut read_value: Option<Option<Bytes>> = None;
    let deadline = Instant::now() + Duration::from_secs(15);
    while write_acks < WRITES || read_value.is_none() {
        let now = Instant::now();
        if now >= deadline {
            eprintln!("timed out waiting for replies");
            break;
        }
        match reply_rx.recv_timeout(deadline - now) {
            Ok(CanopusMsg::Reply(reply)) => match reply.result {
                OpResult::Written => write_acks += 1,
                OpResult::Value(v) => read_value = Some(v),
                OpResult::Batch => {}
            },
            Ok(_) => {}
            Err(_) => {
                eprintln!("timed out waiting for replies");
                break;
            }
        }
    }
    println!("  write acks: {write_acks}/{WRITES}");
    match &read_value {
        Some(Some(v)) => println!("  read(key=3) -> {:?}", String::from_utf8_lossy(v)),
        Some(None) => println!("  read(key=3) -> <absent>"),
        None => println!("  read(key=3) -> <no reply>"),
    }

    // Replies arrive as soon as the client's own super-leaf commits; the
    // remote super-leaves finish the cycle one exchange later. Give the
    // final cycle time to close everywhere before pulling the plug, or the
    // strict digest comparison below races against that last hop.
    std::thread::sleep(Duration::from_millis(500));

    // Shut the cluster down and compare final states.
    println!("\nshutting down and comparing commit digests ...");
    for tx in shutdowns {
        let _ = tx.send(());
    }
    let mut digests = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        let process = h.join().expect("join");
        let node = process
            .as_any()
            .downcast_ref::<CanopusNode>()
            .expect("canopus node");
        let s = node.stats();
        println!(
            "  node {i}: cycles={} writes={} digest={:016x}",
            s.committed_cycles, s.committed_weight, s.commit_digest
        );
        digests.push(s.commit_digest);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "commit digests diverged across the live cluster!"
    );
    assert_eq!(write_acks, WRITES, "all writes must be acknowledged");
    if show_metrics {
        for (i, hub) in hubs.iter().enumerate() {
            println!("\n--- metrics: node {i} ---");
            print!("{}", hub.metrics.snapshot().to_text());
        }
    }
    println!("\nLive TCP cluster reached agreement. ✓");
}
