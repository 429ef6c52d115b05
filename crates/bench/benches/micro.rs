//! Criterion micro-benchmarks of the protocol hot paths: the state merge
//! that defines the total order, the wire codec, the replicated store's
//! apply, LOT/emulation-table math, and a full end-to-end simulated
//! consensus cycle.

use bytes::Bytes;
use canopus::{
    CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape, RequestSet, VnodeId,
    VnodeState,
};
use canopus_kv::{ClientRequest, KvStore, Op};
use canopus_net::wire::Wire;
use canopus_sim::{Dur, NodeId, Simulation, UniformFabric};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn proposal(origin: u32, number: u64, ops: usize) -> VnodeState {
    let set = RequestSet {
        origin: NodeId(origin),
        ops: (0..ops)
            .map(|k| ClientRequest {
                client: NodeId(100),
                op_id: k as u64,
                op: Op::Put {
                    key: k as u64,
                    value: Bytes::from_static(b"12345678"),
                },
            })
            .collect(),
    };
    VnodeState::round1(
        NodeId(origin),
        VnodeId(vec![0]),
        canopus::CycleId(1),
        number,
        set,
        Vec::new(),
    )
}

fn bench_merge(c: &mut Criterion) {
    c.bench_function("merge_9_proposals_of_100_ops", |b| {
        let children: Vec<VnodeState> = (0..9)
            .map(|i| proposal(i, 0x1000 + i as u64 * 7919, 100))
            .collect();
        b.iter_batched(
            || children.clone(),
            |children| black_box(VnodeState::merge(VnodeId(vec![0]), children)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_wire(c: &mut Criterion) {
    let state = proposal(1, 12345, 100);
    let msg = CanopusMsg::ProposalResponse { state };
    c.bench_function("encode_proposal_100_ops", |b| {
        b.iter(|| black_box(msg.to_bytes()));
    });
    let bytes = msg.to_bytes();
    c.bench_function("decode_proposal_100_ops", |b| {
        b.iter(|| black_box(CanopusMsg::from_bytes(bytes.clone()).unwrap()));
    });
}

/// The zero-copy decode path against a local replica of the pre-refactor
/// copying path (length-prefixed payloads were `to_vec()`ed out of the
/// receive buffer before use; strings additionally validated the copy).
fn bench_zero_copy_decode(c: &mut Criterion) {
    use canopus_net::wire::{WireError, WireRead};

    fn copying_bytes(buf: &mut Bytes) -> Result<Vec<u8>, WireError> {
        let n = buf.read_u32()? as usize;
        Ok(buf.read_bytes(n)?.to_vec())
    }
    fn copying_string(buf: &mut Bytes) -> Result<String, WireError> {
        let n = buf.read_u32()? as usize;
        let raw = buf.read_bytes(n)?.to_vec();
        String::from_utf8(raw).map_err(|_| WireError::Invalid("utf8"))
    }

    let blob = {
        let mut buf = bytes::BytesMut::new();
        Bytes::from(vec![0x5Au8; 4096]).encode(&mut buf);
        buf.freeze()
    };
    c.bench_function("decode_bytes_4k_zero_copy", |b| {
        b.iter(|| black_box(Bytes::decode(&mut blob.clone()).unwrap()));
    });
    c.bench_function("decode_bytes_4k_copying", |b| {
        b.iter(|| black_box(copying_bytes(&mut blob.clone()).unwrap()));
    });

    let text = {
        let mut buf = bytes::BytesMut::new();
        "x".repeat(4096).encode(&mut buf);
        buf.freeze()
    };
    c.bench_function("decode_string_4k_validate_in_place", |b| {
        b.iter(|| black_box(String::decode(&mut text.clone()).unwrap()));
    });
    c.bench_function("decode_string_4k_copy_then_validate", |b| {
        b.iter(|| black_box(copying_string(&mut text.clone()).unwrap()));
    });
}

/// One committed write as the 3×3 cluster applies it: nine replicas' stores
/// of 100 000 keys each in one process, so the working set is as cold as
/// in `put16_sat`, not one warm store's. Each 8-byte value is decoded out
/// of a 64 KiB block, one request's worth of bytes after the last, and a
/// used-up block is replaced by a fresh one, as the node loop copies each
/// socket read into a fresh block and decodes values out of it: a store
/// that kept the slice would keep each block alive until the last of its
/// values is overwritten, and touch its long-cold reference count at every
/// overwrite.
fn bench_kv_apply(c: &mut Criterion) {
    const STORES: usize = 9;
    const KEYS: u64 = 100_000;
    const BLOCK: usize = 64 << 10;
    const STRIDE: usize = 64;
    let mut block = Bytes::new();
    let mut value = move || {
        if block.is_empty() {
            let mut fresh = vec![0; BLOCK];
            for slot in fresh.chunks_mut(STRIDE) {
                slot[..4].copy_from_slice(&8u32.to_le_bytes());
            }
            block = Bytes::from(fresh);
        }
        Bytes::decode(&mut block.split_to(STRIDE)).expect("an encoded value")
    };
    let mut stores: Vec<KvStore> = (0..STORES)
        .map(|_| {
            let mut s = KvStore::new();
            for key in 0..KEYS {
                s.put(key, value());
            }
            s
        })
        .collect();
    c.bench_function("kv_put_9_stores_100k_keys", |b| {
        let (mut x, mut next) = (1u64, 0usize);
        b.iter(|| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next = (next + 1) % STORES;
            black_box(stores[next].put((x >> 33) % KEYS, value()))
        });
    });
    // The same writes as a commit hands them over: one run of a saturated
    // cycle's 2 100 writes per store in turn.
    c.bench_function("kv_put_many_9_stores_100k_keys", |b| {
        let (mut x, mut next) = (1u64, 0usize);
        let mut writes = Vec::with_capacity(2_100);
        b.iter(|| {
            writes.clear();
            for _ in 0..2_100 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                writes.push(((x >> 33) % KEYS, value()));
            }
            next = (next + 1) % STORES;
            black_box(stores[next].put_many(&writes))
        });
    });
}

/// One node's share of a 3×3 cycle at saturation (≈ 2 100 ops): decode
/// its super-leaf's three 233-op round-1 proposals as the broadcast
/// delivers them and the two 700-op states of the sibling super-leaves as
/// the proposal-responses that bring them (fetched, or forwarded by the
/// representative), the round-1 merge of clones of the proposals, one
/// proposal-response encoded from a clone of the merged state, the round-2
/// merge of clones of it and the remote states, and the apply of the root
/// into a 100 000-key store.
fn bench_one_node_cycle(c: &mut Criterion) {
    use canopus::{BroadcastItem, CycleId, WriteView};

    const KEYS: u64 = 100_000;
    let mut x = 1u64;
    let mut key = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % KEYS
    };
    let mut proposal = |origin: u32, parent: u16| {
        let ops = (0..233)
            .map(|i| ClientRequest {
                client: NodeId(100 + origin),
                op_id: i,
                op: Op::Put {
                    key: key(),
                    value: Bytes::from_static(b"12345678"),
                },
            })
            .collect();
        let set = RequestSet {
            origin: NodeId(origin),
            ops,
        };
        let number = u64::from(origin).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        VnodeState::round1(
            NodeId(origin),
            VnodeId(vec![parent]),
            CycleId(1),
            number,
            set,
            Vec::new(),
        )
    };
    let own: Vec<Bytes> = (0..3)
        .map(|i| BroadcastItem::Proposal(proposal(i, 0)).to_bytes())
        .collect();
    let remote: Vec<Bytes> = (1..3u16)
        .map(|s| {
            let members = (0..3).map(|i| proposal(u32::from(s) * 3 + i, s)).collect();
            let state = VnodeState::merge(VnodeId(vec![s]), members);
            CanopusMsg::ProposalResponse { state }.to_bytes()
        })
        .collect();
    let mut store = KvStore::new();
    for k in 0..KEYS {
        store.put(k, b"12345678");
    }
    let decode = |bytes: &Bytes| match BroadcastItem::from_bytes(bytes.clone()) {
        Ok(BroadcastItem::Proposal(s)) => s,
        other => panic!("not a proposal: {other:?}"),
    };
    let receive = |bytes: &Bytes| match CanopusMsg::from_bytes(bytes.clone()) {
        Ok(CanopusMsg::ProposalResponse { state }) => state,
        other => panic!("not a proposal-response: {other:?}"),
    };
    c.bench_function("one_node_cycle_2100_ops", |b| {
        b.iter(|| {
            let round1: Vec<VnodeState> = own.iter().map(decode).collect();
            let remote: Vec<VnodeState> = remote.iter().map(receive).collect();
            let h1 = VnodeState::merge(VnodeId(vec![0]), round1.to_vec());
            let response = CanopusMsg::ProposalResponse { state: h1.clone() };
            black_box(response.to_bytes());
            let mut children = vec![h1.clone()];
            children.extend(remote.iter().cloned());
            for child in &mut children {
                child.tie = child.vnode.last_digit() as u32;
            }
            let root = VnodeState::merge(VnodeId::root(), children);
            let mut version = 0;
            for set in &root.sets {
                let writes: Vec<_> = set
                    .ops
                    .iter()
                    .filter_map(|op| match op.write {
                        WriteView::Put { key, value } => Some((key, value)),
                        _ => None,
                    })
                    .collect();
                version += store.put_many(&writes).iter().sum::<u64>();
            }
            black_box(version)
        });
    });
}

fn bench_lot_math(c: &mut Criterion) {
    let shape = LotShape::new(vec![4, 4, 4]);
    c.bench_function("lot_ancestor_and_emulators", |b| {
        let table = EmulationTable::new(
            shape.clone(),
            (0..64)
                .map(|s| (0..3).map(|i| NodeId(s * 3 + i)).collect())
                .collect(),
        );
        b.iter(|| {
            for s in 0..64usize {
                let v = shape.ancestor_of_superleaf(s, 2);
                black_box(table.emulators(&v));
            }
        });
    });
}

fn bench_consensus_cycle(c: &mut Criterion) {
    c.bench_function("six_node_cycle_end_to_end", |b| {
        b.iter_batched(
            || {
                let table = EmulationTable::new(
                    LotShape::flat(2),
                    vec![
                        vec![NodeId(0), NodeId(1), NodeId(2)],
                        vec![NodeId(3), NodeId(4), NodeId(5)],
                    ],
                );
                let mut sim = Simulation::new(UniformFabric::new(Dur::micros(25)), 7);
                for i in 0..6u32 {
                    sim.add_node(Box::new(CanopusNode::new(
                        NodeId(i),
                        table.clone(),
                        CanopusConfig::default(),
                        7,
                    )));
                }
                sim.inject(
                    NodeId(0),
                    CanopusMsg::Request(ClientRequest {
                        client: canopus_sim::EXTERNAL,
                        op_id: 1,
                        op: Op::Put {
                            key: 1,
                            value: Bytes::from_static(b"12345678"),
                        },
                    }),
                    Dur::ZERO,
                );
                sim
            },
            |mut sim| {
                sim.run_for(Dur::millis(5));
                black_box(sim.node::<CanopusNode>(NodeId(0)).stats().committed_cycles)
            },
            BatchSize::SmallInput,
        );
    });
}

/// The TCP transport's hot path: request-to-reply round trips and framed
/// throughput through one node loop, against a local replica of a
/// per-connection blocking reader thread.
fn bench_node_loop_transport(c: &mut Criterion) {
    use canopus_kv::{ClientReply, OpResult};
    use canopus_net::tcp::{bind_loopback, read_frame, spawn_node_obs, write_frame, NetObs};
    use canopus_net::FaultRules;
    use canopus_sim::{Context, Process};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{mpsc, Arc};

    const CLIENT: NodeId = NodeId(1);
    const BATCH: u64 = 1024;

    fn request(op_id: u64) -> Bytes {
        CanopusMsg::Request(ClientRequest {
            client: CLIENT,
            op_id,
            op: Op::Put {
                key: 1,
                value: Bytes::from_static(b"12345678"),
            },
        })
        .to_bytes()
    }

    fn ack(client: NodeId, op_id: u64, ctx: &mut Context<'_, CanopusMsg>) {
        ctx.send(
            client,
            CanopusMsg::Reply(ClientReply {
                op_id,
                weight: 1,
                result: OpResult::Written,
            }),
        );
    }

    /// Replies to every request: one reply per step.
    struct Echo;
    impl Process<CanopusMsg> for Echo {
        fn on_message(
            &mut self,
            _from: NodeId,
            msg: CanopusMsg,
            ctx: &mut Context<'_, CanopusMsg>,
        ) {
            if let CanopusMsg::Request(req) = msg {
                ack(req.client, req.op_id, ctx);
            }
        }
        canopus_sim::impl_process_any!();
    }

    /// Counts requests, replying once per `BATCH` of them.
    struct Sink {
        seen: u64,
    }
    impl Process<CanopusMsg> for Sink {
        fn on_message(
            &mut self,
            _from: NodeId,
            msg: CanopusMsg,
            ctx: &mut Context<'_, CanopusMsg>,
        ) {
            if let CanopusMsg::Request(req) = msg {
                self.seen += 1;
                if self.seen.is_multiple_of(BATCH) {
                    ack(req.client, self.seen, ctx);
                }
            }
        }
        canopus_sim::impl_process_any!();
    }

    /// Spawns `process` as node 0 plus a raw client connection to
    /// it; returns (request stream, client listener, node handle).
    fn client_and_node(
        process: Box<dyn Process<CanopusMsg>>,
        seed: u64,
    ) -> (
        TcpStream,
        TcpListener,
        canopus_net::tcp::TcpNodeHandle<CanopusMsg>,
    ) {
        // Listener 0 is the node's, listener 1 (= `CLIENT`) the client's.
        let (mut listeners, peers) = bind_loopback(2);
        let client_l = listeners.pop().unwrap();
        let node_l = listeners.pop().unwrap();
        let addr = peers.get(NodeId(0)).unwrap();
        let handle = spawn_node_obs::<CanopusMsg>(
            NodeId(0),
            process,
            node_l,
            peers,
            seed,
            Arc::new(FaultRules::new(seed)),
            NetObs::disabled(),
        );
        let tx = TcpStream::connect(addr).unwrap();
        tx.set_nodelay(true).unwrap();
        (tx, client_l, handle)
    }

    c.bench_function("node_loop_rtt", |b| {
        let (mut tx, client_l, handle) = client_and_node(Box::new(Echo), 7);
        write_frame(&mut tx, &CLIENT.to_bytes()).unwrap();
        // Prime one round trip so the reply connection exists before the
        // measured loop (the node dials back lazily on first send).
        write_frame(&mut tx, &request(0)).unwrap();
        let (mut rx, _) = client_l.accept().unwrap();
        let _ = read_frame(&mut rx); // handshake
        let _ = read_frame(&mut rx); // primed reply
        let mut op = 1u64;
        b.iter(|| {
            write_frame(&mut tx, &request(op)).unwrap();
            op += 1;
            black_box(read_frame(&mut rx).unwrap())
        });
        drop(tx);
        handle.stop();
    });

    // Frames/sec through one node loop: each iteration pushes `BATCH`
    // framed requests and waits for the sink's ack, so per-frame cost is
    // the reported time divided by 1024.
    c.bench_function("node_loop_frames_1k", |b| {
        let (mut tx, client_l, handle) = client_and_node(Box::new(Sink { seen: 0 }), 8);
        write_frame(&mut tx, &CLIENT.to_bytes()).unwrap();
        let frame = request(1);
        let mut rx: Option<TcpStream> = None;
        b.iter(|| {
            for _ in 0..BATCH {
                write_frame(&mut tx, &frame).unwrap();
            }
            let rx = rx.get_or_insert_with(|| {
                let (mut s, _) = client_l.accept().unwrap();
                let _ = read_frame(&mut s); // handshake
                s
            });
            black_box(read_frame(rx).unwrap())
        });
        drop(tx);
        handle.stop();
    });

    // The thread-per-connection shape: a dedicated blocking reader thread
    // on the connection, same framing and decode, acking every `BATCH`
    // frames over a channel.
    c.bench_function("reader_thread_frames_1k_baseline", |b| {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let _ = read_frame(&mut s); // handshake
            let mut seen = 0u64;
            while let Ok(Some(frame)) = read_frame(&mut s) {
                if CanopusMsg::from_bytes(frame).is_ok() {
                    seen += 1;
                    if seen.is_multiple_of(BATCH) && done_tx.send(()).is_err() {
                        return;
                    }
                }
            }
        });
        let mut tx = TcpStream::connect(addr).unwrap();
        tx.set_nodelay(true).unwrap();
        write_frame(&mut tx, &CLIENT.to_bytes()).unwrap();
        let frame = request(1);
        b.iter(|| {
            for _ in 0..BATCH {
                write_frame(&mut tx, &frame).unwrap();
            }
            done_rx.recv().unwrap()
        });
        drop(tx);
        reader.join().unwrap();
    });
}

criterion_group!(
    benches,
    bench_merge,
    bench_wire,
    bench_zero_copy_decode,
    bench_kv_apply,
    bench_one_node_cycle,
    bench_lot_math,
    bench_consensus_cycle,
    bench_node_loop_transport
);
criterion_main!(benches);
