//! TCP transport: runs the same sans-IO [`Process`] state machines over
//! real sockets, run to completion — the thread that calls
//! [`run_node_obs`] *is* the node's event loop and owns its sockets.
//!
//! One iteration of the loop: wait on the node's epoll instance (its
//! listener, inbound and outbound connections — see
//! [`reactor`](crate::reactor)) until a socket is ready or the next timer
//! is due; drain every ready socket and decode what arrived; step the
//! process over the whole batch; fire the timers that are due; then hand
//! each peer everything the steps queued for it in one `write`. No message
//! is passed to another thread on the way in or out, so a hop between two
//! nodes costs one thread wake-up (the receiver's), and a deployment has
//! exactly one thread per node and nothing to configure.
//!
//! Frames are a 4-byte little-endian length prefix followed by the
//! [`Wire`]-encoded message. The first frame on every connection is a
//! handshake carrying the sender's [`NodeId`]. Outbound connections are
//! established lazily per peer address (and shared between peers at the
//! same address), nonblocking with exponential backoff on failure; like
//! the simulator's fabric, delivery is not guaranteed across a reconnect
//! (consensus protocols tolerate loss by design). Per-peer write queues
//! are bounded: when one fills, the send is shed as loss and counted under
//! `net.drops.backpressure`.
//!
//! This module exists to make the library deployable, and to demonstrate
//! that the protocol crates are genuinely IO-free: `examples/live_cluster.rs`
//! runs a twelve-node, height-3 Canopus tree over loopback TCP with zero
//! changes to protocol code.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use bytes::{Bytes, BytesMut};
use canopus_obs::{Counter, EventKind as ObsEvent, Gauge, NodeObs};
use canopus_sim::{Context, Effect, NodeId, Payload, Process, Time, Timer, TimerId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::FaultRules;
use crate::reactor::{Reactor, ReactorMetrics, SendOutcome};
use crate::wire::{Wire, WireError, MAX_FRAME};

/// Longest wait of the node loop: how often it re-checks the shutdown
/// signal when neither a socket nor a timer wakes it.
const POLL_INTERVAL: StdDuration = StdDuration::from_millis(20);

/// Largest chunk a frame's payload buffer grows by per read. A corrupt
/// (or hostile) length prefix under [`MAX_FRAME`] therefore allocates in
/// proportion to the bytes that actually arrive, never the claimed length
/// up front.
const READ_CHUNK: usize = 64 << 10;

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF.
///
/// A length prefix above [`MAX_FRAME`] is rejected with an
/// `InvalidData` error before any payload allocation, and the payload
/// buffer grows incrementally (`READ_CHUNK` at a time) as bytes arrive,
/// so a corrupt prefix can never trigger an unbounded — or even a large
/// speculative — allocation.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Option<Bytes>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::TooLarge(len),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let chunk = (len - payload.len()).min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + chunk, 0);
        stream.read_exact(&mut payload[start..])?;
    }
    Ok(Some(Bytes::from(payload)))
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    Ok(())
}

/// Observability bundle for one TCP node: the node's hub plus a wall-clock
/// origin for stamping the transport's flight events. Clones share the
/// underlying registry and recorder.
#[derive(Clone, Default)]
pub struct NetObs {
    hub: NodeObs,
    origin: Option<Instant>,
}

impl NetObs {
    /// A disabled bundle: every recording below is a single branch.
    pub fn disabled() -> Self {
        NetObs::default()
    }

    /// Wraps a node hub; timestamps count from this call.
    pub fn new(hub: NodeObs) -> Self {
        NetObs {
            hub,
            origin: Some(Instant::now()),
        }
    }

    /// The wrapped hub.
    pub fn hub(&self) -> &NodeObs {
        &self.hub
    }

    fn now_nanos(&self) -> u64 {
        self.origin
            .map(|o| o.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

/// Per-node transport metrics, with per-(peer, kind) counter handles cached
/// so steady-state sends and receives never take the registry lock.
struct NodeNetMetrics {
    obs: NetObs,
    sent: HashMap<(u32, &'static str), (Counter, Counter)>,
    recv: HashMap<(u32, &'static str), (Counter, Counter)>,
    queue_bytes: HashMap<u32, Gauge>,
    fault_drops_send: Counter,
    fault_drops_recv: Counter,
    backpressure_drops: Counter,
    no_addr_drops: Counter,
    /// Peers already flagged in the flight recorder, so a saturated or
    /// misconfigured link leaves one event, not one per shed message.
    flagged: HashSet<(u32, &'static str)>,
}

impl NodeNetMetrics {
    fn new(obs: NetObs) -> Self {
        let m = &obs.hub.metrics;
        NodeNetMetrics {
            sent: HashMap::new(),
            recv: HashMap::new(),
            queue_bytes: HashMap::new(),
            fault_drops_send: m.counter("net.drops.fault.send"),
            fault_drops_recv: m.counter("net.drops.fault.recv"),
            backpressure_drops: m.counter("net.drops.backpressure"),
            no_addr_drops: m.counter("net.drops.no_address"),
            flagged: HashSet::new(),
            obs,
        }
    }

    /// Counts one sent message. Takes the message, not its kind and size:
    /// both walk it, so a disabled bundle must branch before either.
    fn count_sent<M: Payload>(&mut self, to: NodeId, msg: &M) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let (kind, bytes) = (msg.kind(), msg.wire_size() as u64);
        let m = &self.obs.hub.metrics;
        let (msgs, by) = self.sent.entry((to.0, kind)).or_insert_with(|| {
            (
                m.counter(&format!("net.sent.msgs.p{}.{kind}", to.0)),
                m.counter(&format!("net.sent.bytes.p{}.{kind}", to.0)),
            )
        });
        msgs.inc();
        by.add(bytes);
    }

    /// Counts one received message; branches first, like
    /// [`Self::count_sent`].
    fn count_recv<M: Payload>(&mut self, from: NodeId, msg: &M) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let (kind, bytes) = (msg.kind(), msg.wire_size() as u64);
        let m = &self.obs.hub.metrics;
        let (msgs, by) = self.recv.entry((from.0, kind)).or_insert_with(|| {
            (
                m.counter(&format!("net.recv.msgs.p{}.{kind}", from.0)),
                m.counter(&format!("net.recv.bytes.p{}.{kind}", from.0)),
            )
        });
        msgs.inc();
        by.add(bytes);
    }

    fn set_queue_bytes(&mut self, to: NodeId, bytes: usize) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let m = &self.obs.hub.metrics;
        self.queue_bytes
            .entry(to.0)
            .or_insert_with(|| m.gauge(&format!("net.queue_depth.p{}", to.0)))
            .set(bytes as i64);
    }

    /// One flight event per (peer, reason); the counters carry the rate.
    fn flag_drop(&mut self, to: NodeId, reason: &'static str) {
        if self.flagged.insert((to.0, reason)) {
            self.obs.hub.event(
                self.obs.now_nanos(),
                ObsEvent::NetDrop { peer: to.0, reason },
            );
        }
    }
}

/// Static peer address book for a deployment.
#[derive(Clone, Debug, Default)]
pub struct PeerMap {
    addrs: HashMap<NodeId, SocketAddr>,
}

impl PeerMap {
    /// Empty map.
    pub fn new() -> Self {
        PeerMap::default()
    }

    /// Registers `node` at `addr`.
    pub fn insert(&mut self, node: NodeId, addr: SocketAddr) {
        self.addrs.insert(node, addr);
    }

    /// Looks up a peer address.
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.get(&node).copied()
    }
}

/// Handle to one running TCP node.
pub struct TcpNodeHandle<M: Payload> {
    /// The node's id.
    pub id: NodeId,
    /// The address the node listens on.
    pub addr: SocketAddr,
    shutdown: Option<Sender<()>>,
    join: JoinHandle<Box<dyn Process<M>>>,
}

impl<M: Payload> TcpNodeHandle<M> {
    /// Requests shutdown and returns the final process state. When this
    /// returns, every fd the node opened is closed.
    pub fn stop(mut self) -> Box<dyn Process<M>> {
        if let Some(tx) = self.shutdown.take() {
            let _ = tx.send(());
        }
        self.join.join().expect("node thread panicked")
    }
}

/// Runs one node over TCP until shutdown, with a shared runtime fault
/// table and an observability bundle; returns the final process state.
///
/// The calling thread becomes the node's one and only event loop (see the
/// module docs). `listener` must already be bound; `peers` maps every
/// destination the process will send to. Messages to unknown peers are
/// dropped (consensus protocols treat this as loss) with a flight-recorder
/// event and a `net.drops.no_address` count when observability is attached.
///
/// `rules` is consulted on the send path (full verdict, including
/// probabilistic loss) and on the receive path (deterministic cuts,
/// isolation, and crash marks — so messages already in flight when a rule
/// lands are still dropped). With no rules installed both checks are a
/// single relaxed atomic load; see [`FaultRules`].
///
/// `obs` records per-peer message/byte counts by wire kind on both paths,
/// fault-rule and backpressure drop counts, reconnects, bytes per `write`,
/// and per-peer write-queue depth in bytes. A disabled bundle costs one
/// branch per recording.
#[allow(clippy::too_many_arguments)]
pub fn run_node_obs<M>(
    id: NodeId,
    process: Box<dyn Process<M>>,
    listener: TcpListener,
    peers: PeerMap,
    shutdown: Receiver<()>,
    seed: u64,
    rules: Arc<FaultRules>,
    obs: NetObs,
) -> Box<dyn Process<M>>
where
    M: Wire + Payload + Send,
{
    let reactor_metrics = ReactorMetrics {
        flush_bytes: obs.hub.metrics.histogram("net.flush_bytes"),
        reconnects: obs.hub.metrics.counter("net.reconnects"),
    };
    let reactor =
        Reactor::new(id, listener, reactor_metrics).expect("epoll instance for the node loop");
    let metrics = NodeNetMetrics::new(obs);
    let mut node = NodeLoop {
        id,
        process,
        start: Instant::now(),
        rng: SmallRng::seed_from_u64(seed),
        next_timer_id: 0,
        timers: BTreeMap::new(),
        armed: HashMap::new(),
        reactor,
        encode_buf: BytesMut::new(),
        peers,
        rules,
        metrics,
    };
    node.step(|process, ctx| process.on_start(ctx));

    let mut inbox: Vec<(NodeId, M)> = Vec::new();
    // A dropped handle (sender disconnected) counts as shutdown — otherwise
    // a handle dropped without stop() would leak a live node forever.
    while matches!(shutdown.try_recv(), Err(mpsc::TryRecvError::Empty)) {
        node.fire_due_timers();
        node.reactor.flush();
        let wait = node
            .timers
            .first_key_value()
            .map_or(POLL_INTERVAL, |(&(at, _), _)| {
                StdDuration::from_nanos(at.saturating_since(node.now()).as_nanos())
                    .min(POLL_INTERVAL)
            });
        let polled = node.reactor.poll(wait, &mut |from, frame| {
            M::from_bytes(frame)
                .map(|msg| inbox.push((from, msg)))
                .is_ok()
        });
        // Interrupted waits come back as `Ok`; anything else means the
        // epoll instance itself is unusable. A node must not just vanish.
        if let Err(e) = polled {
            panic!("node {id}: waiting on its epoll instance failed: {e}");
        }
        for (from, msg) in inbox.drain(..) {
            // Receive-path fault check: deterministic rules only (loss
            // was already rolled once at the sender).
            if node.rules.should_drop_link(from, id) {
                node.metrics.fault_drops_recv.inc();
                continue;
            }
            node.metrics.count_recv(from, &msg);
            node.step(|process, ctx| process.on_message(from, msg, ctx));
        }
    }
    // Dropping the loop closes its epoll instance, the listener and every
    // connection: shutdown leaks nothing.
    node.process
}

/// One node's event loop state: the process, its timers, and its sockets,
/// all owned by the thread that called [`run_node_obs`].
struct NodeLoop<M: Payload> {
    id: NodeId,
    process: Box<dyn Process<M>>,
    start: Instant,
    rng: SmallRng,
    next_timer_id: u64,
    /// Armed timers by `(deadline, id)`, each carrying its token.
    timers: BTreeMap<(Time, u64), u64>,
    /// Deadline of every armed timer, for cancellation by id.
    armed: HashMap<u64, Time>,
    reactor: Reactor,
    /// Reused by every send: a message is encoded here, then framed into
    /// its peer's write buffer.
    encode_buf: BytesMut,
    peers: PeerMap,
    rules: Arc<FaultRules>,
    metrics: NodeNetMetrics,
}

impl<M> NodeLoop<M>
where
    M: Wire + Payload + Send,
{
    fn now(&self) -> Time {
        Time::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Runs one handler of the process and applies its effects.
    fn step(&mut self, call: impl FnOnce(&mut dyn Process<M>, &mut Context<'_, M>)) {
        let mut ctx =
            Context::detached(self.now(), self.id, &mut self.rng, &mut self.next_timer_id);
        call(self.process.as_mut(), &mut ctx);
        let (effects, _) = ctx.into_effects();
        let now = self.now();
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.send(to, msg),
                Effect::SetTimer { id, after, token } => {
                    let at = now + after;
                    self.armed.insert(id.0, at);
                    self.timers.insert((at, id.0), token);
                }
                Effect::CancelTimer { id } => {
                    if let Some(at) = self.armed.remove(&id.0) {
                        self.timers.remove(&(at, id.0));
                    }
                }
            }
        }
    }

    /// Fires every timer that is due now (one armed by a handler below for
    /// "immediately" waits for the next iteration, so messages are never
    /// starved).
    fn fire_due_timers(&mut self) {
        let now = self.now();
        while let Some(entry) = self.timers.first_entry() {
            let &(at, id) = entry.key();
            if at > now {
                break;
            }
            let token = entry.remove();
            self.armed.remove(&id);
            let timer = Timer {
                id: TimerId(id),
                token,
            };
            self.step(|process, ctx| process.on_timer(timer, ctx));
        }
    }

    fn send(&mut self, to: NodeId, msg: M) {
        // Send-path fault check: full verdict, including the probabilistic
        // loss roll (exactly once per message).
        if self.rules.should_drop(self.id, to) {
            self.metrics.fault_drops_send.inc();
            return;
        }
        let Some(addr) = self.peers.get(to) else {
            // No address book entry: consensus treats this as loss, but it
            // is almost always a deployment bug, so flag the link and count
            // every message shed on it.
            self.metrics.no_addr_drops.inc();
            self.metrics.flag_drop(to, "no_address");
            return;
        };
        self.metrics.count_sent(to, &msg);
        self.encode_buf.clear();
        msg.encode(&mut self.encode_buf);
        match self.reactor.send(addr, &self.encode_buf) {
            SendOutcome::Queued => {
                if self.metrics.obs.hub.is_enabled() {
                    self.metrics
                        .set_queue_bytes(to, self.reactor.queued_bytes(addr));
                }
            }
            SendOutcome::Backpressure => {
                // The peer's bounded queue is full: shed as loss (never
                // stall the protocol loop).
                self.metrics.backpressure_drops.inc();
                self.metrics.flag_drop(to, "backpressure");
            }
        }
    }
}

/// Spawns [`run_node_obs`] on a fresh thread and returns the node's
/// handle. `listener` must already be bound (its local address becomes the
/// handle's `addr`).
pub fn spawn_node_obs<M>(
    id: NodeId,
    process: Box<dyn Process<M>>,
    listener: TcpListener,
    peers: PeerMap,
    seed: u64,
    rules: Arc<FaultRules>,
    obs: NetObs,
) -> TcpNodeHandle<M>
where
    M: Wire + Payload + Send,
{
    let addr = listener.local_addr().expect("local addr");
    let (tx, rx) = mpsc::channel();
    let join = std::thread::spawn(move || {
        run_node_obs(id, process, listener, peers, rx, seed, rules, obs)
    });
    TcpNodeHandle {
        id,
        addr,
        shutdown: Some(tx),
        join,
    }
}

/// Binds `n` listeners on loopback ephemeral ports and registers listener
/// `i` as [`NodeId`]`(i)` in a fresh [`PeerMap`]. Binding everything before
/// anything is spawned makes the peer map complete from the first send.
pub fn bind_loopback(n: usize) -> (Vec<TcpListener>, PeerMap) {
    let mut peers = PeerMap::new();
    let listeners = (0..n)
        .map(|i| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            peers.insert(NodeId(i as u32), listener.local_addr().expect("local addr"));
            listener
        })
        .collect();
    (listeners, peers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::append_frame;
    use bytes::BytesMut;
    use canopus_sim::fault::FaultAction;
    use canopus_sim::impl_process_any;
    use std::net::TcpStream;

    #[derive(Debug, Clone, PartialEq)]
    struct Num(u64);

    impl Payload for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl Wire for Num {
        fn encode(&self, buf: &mut BytesMut) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
            Ok(Num(u64::decode(buf)?))
        }
    }

    /// Sends 1..=count to the peer on start; records what it receives.
    struct Counter {
        peer: Option<NodeId>,
        count: u64,
        seen: Vec<u64>,
    }

    impl Process<Num> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            if let Some(peer) = self.peer {
                for i in 1..=self.count {
                    ctx.send(peer, Num(i));
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Num, _ctx: &mut Context<'_, Num>) {
            self.seen.push(msg.0);
        }
        impl_process_any!();
    }

    #[test]
    fn frames_round_trip_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap().unwrap()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        write_frame(&mut client, b"hello").unwrap();
        let got = server.join().unwrap();
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn coalesced_flush_parses_back_into_individual_frames() {
        // One buffer holding three frames — exactly what a coalesced
        // flush sends in a single write — must decode frame by frame.
        let mut buf = Vec::new();
        append_frame(&mut buf, b"alpha");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"gamma!");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"alpha");
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"");
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"gamma!");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn read_frame_reports_clean_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap()
        });
        let client = TcpStream::connect(addr).unwrap();
        drop(client);
        assert!(server.join().unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn huge_prefix_with_short_body_errors_without_upfront_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        // A prefix just under the limit, but only 3 bytes of body: the
        // reader must fail with UnexpectedEof after allocating at most one
        // chunk, not reserve ~16 MiB for a stream that never delivers it.
        client
            .write_all(&((MAX_FRAME - 1) as u32).to_le_bytes())
            .unwrap();
        client.write_all(b"abc").unwrap();
        drop(client);
        let got = server.join().unwrap();
        assert!(got.is_err(), "truncated oversized frame must error");
    }

    /// Sends `1..=count` from node 0 to node 1 over loopback TCP under
    /// `rules`; returns what node 1 received.
    fn send_over_loopback(count: u64, rules: Arc<FaultRules>) -> Vec<u64> {
        let (listeners, peers) = bind_loopback(2);
        let handles: Vec<TcpNodeHandle<Num>> = (listeners.into_iter().enumerate())
            .map(|(i, listener)| {
                let counter = Counter {
                    peer: (i == 0).then_some(NodeId(1)),
                    count,
                    seen: Vec::new(),
                };
                spawn_node_obs(
                    NodeId(i as u32),
                    Box::new(counter),
                    listener,
                    peers.clone(),
                    7 + i as u64,
                    Arc::clone(&rules),
                    NetObs::disabled(),
                )
            })
            .collect();
        // Give delivery a moment.
        std::thread::sleep(StdDuration::from_millis(300));
        let mut processes: Vec<_> = handles.into_iter().map(TcpNodeHandle::stop).collect();
        let b_final = processes.pop().unwrap();
        let counter = b_final.as_any().downcast_ref::<Counter>().expect("counter");
        counter.seen.clone()
    }

    #[test]
    fn fault_rules_cut_blocks_delivery_until_healed() {
        let rules = Arc::new(FaultRules::new(3));
        rules.update(|table| table.apply(&FaultAction::Cut(vec![NodeId(0)], vec![NodeId(1)])));
        let seen = send_over_loopback(50, rules);
        assert!(
            seen.is_empty(),
            "cut link must drop everything, saw {seen:?}"
        );
    }

    #[test]
    fn cluster_delivers_messages_in_order() {
        let seen = send_over_loopback(100, Arc::new(FaultRules::new(7)));
        assert_eq!(seen, (1..=100).collect::<Vec<_>>());
    }

    /// Spawns a lone sink node with no peers; returns its handle.
    fn spawn_sink() -> TcpNodeHandle<Num> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        spawn_node_obs::<Num>(
            NodeId(0),
            Box::new(Counter {
                peer: None,
                count: 0,
                seen: Vec::new(),
            }),
            listener,
            PeerMap::new(),
            11,
            Arc::new(FaultRules::new(11)),
            NetObs::disabled(),
        )
    }

    #[test]
    fn partial_frames_split_across_readiness_events_reassemble() {
        let handle = spawn_sink();
        let addr = handle.addr;
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        // Handshake then two frames, dribbled a few bytes at a time with
        // pauses, so the loop sees many readiness events per frame and must
        // hold partial headers and partial payloads across them.
        let mut stream_bytes = Vec::new();
        append_frame(&mut stream_bytes, &NodeId(9).to_bytes());
        append_frame(&mut stream_bytes, &Num(41).to_bytes());
        append_frame(&mut stream_bytes, &Num(42).to_bytes());
        for chunk in stream_bytes.chunks(3) {
            client.write_all(chunk).unwrap();
            client.flush().unwrap();
            std::thread::sleep(StdDuration::from_millis(2));
        }
        // Let the last dispatch land.
        std::thread::sleep(StdDuration::from_millis(100));
        let final_state = handle.stop();
        let counter = final_state.as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(counter.seen, vec![41, 42]);
    }

    #[test]
    fn truncated_oversized_frame_mid_chunk_closes_conn_but_not_node() {
        let handle = spawn_sink();
        let addr = handle.addr;
        // Connection 1: handshake, then a huge-but-legal length prefix
        // with only a sliver of body, then EOF. The loop must reject or
        // drop it without buffering the claimed size and without taking
        // the node down.
        {
            let mut bad = TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            append_frame(&mut bytes, &NodeId(8).to_bytes());
            bytes.extend_from_slice(&((MAX_FRAME - 1) as u32).to_le_bytes());
            bytes.extend_from_slice(b"abc");
            bad.write_all(&bytes).unwrap();
        } // dropped: EOF mid-frame
          // Connection 2 (after the bad one): a valid frame still lands.
        std::thread::sleep(StdDuration::from_millis(50));
        let mut good = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        append_frame(&mut bytes, &NodeId(9).to_bytes());
        append_frame(&mut bytes, &Num(7).to_bytes());
        good.write_all(&bytes).unwrap();
        std::thread::sleep(StdDuration::from_millis(100));
        let final_state = handle.stop();
        let counter = final_state.as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(counter.seen, vec![7], "node must survive the bad conn");
    }

    #[test]
    fn over_limit_prefix_closes_the_connection_without_allocation() {
        let handle = spawn_sink();
        let addr = handle.addr;
        let mut bad = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        append_frame(&mut bytes, &NodeId(8).to_bytes());
        // Over MAX_FRAME: must be rejected on sight of the prefix.
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bad.write_all(&bytes).unwrap();
        // The loop closes the connection: the next read sees EOF.
        bad.set_read_timeout(Some(StdDuration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        let n = bad.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "the offending connection must be closed");
        drop(handle.stop());
    }

    /// A process that opens its link to one peer on start and blasts large
    /// payloads at it, inside one step, 50 ms later.
    struct Blaster {
        peer: NodeId,
        frames: usize,
        frame_len: usize,
    }

    #[derive(Debug, Clone)]
    struct Blob(Vec<u8>);

    impl Payload for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    impl Wire for Blob {
        fn encode(&self, buf: &mut BytesMut) {
            buf.extend_from_slice(&self.0);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
            let all = buf.split_to(buf.len());
            Ok(Blob(all.to_vec()))
        }
    }

    impl Process<Blob> for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            ctx.send(self.peer, Blob(vec![0xAB; 1]));
            ctx.set_timer(canopus_sim::Dur::millis(50), 0);
        }
        fn on_message(&mut self, _from: NodeId, _msg: Blob, _ctx: &mut Context<'_, Blob>) {}
        fn on_timer(&mut self, _timer: Timer, ctx: &mut Context<'_, Blob>) {
            for _ in 0..self.frames {
                ctx.send(self.peer, Blob(vec![0xAB; self.frame_len]));
            }
        }
        impl_process_any!();
    }

    #[test]
    fn full_write_queue_signals_backpressure() {
        // A listener that accepts but never reads: the kernel buffers
        // fill, then the bounded peer queue fills, then sends must come
        // back as explicit backpressure.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let acceptor = std::thread::spawn(move || {
            sink.set_nonblocking(true).unwrap();
            let mut held = Vec::new();
            loop {
                if let Ok((s, _)) = sink.accept() {
                    held.push(s);
                }
                match stop_rx.recv_timeout(StdDuration::from_millis(10)) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    _ => return,
                }
            }
        });

        let mut peers = PeerMap::new();
        peers.insert(NodeId(1), sink_addr);
        let hub = NodeObs::enabled(0, 16);
        let obs = NetObs::new(hub.clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // 256 frames x 256 KiB = 64 MiB >> kernel buffers + 2 MiB queue.
        let handle = spawn_node_obs::<Blob>(
            NodeId(0),
            Box::new(Blaster {
                peer: NodeId(1),
                frames: 256,
                frame_len: 256 << 10,
            }),
            listener,
            peers,
            5,
            Arc::new(FaultRules::new(5)),
            obs,
        );
        // The blast happens inside one step on an established link: at
        // the bound the loop writes what the socket takes, the unread
        // peer's kernel buffers fill, and the queue saturates.
        std::thread::sleep(StdDuration::from_millis(400));
        let dropped = hub
            .metrics
            .snapshot()
            .counter("net.drops.backpressure")
            .unwrap_or(0);
        assert!(
            dropped > 0,
            "an unread peer must surface explicit backpressure"
        );
        drop(handle.stop());
        let _ = stop_tx.send(());
        acceptor.join().unwrap();
    }

    /// Sends one number to the peer every millisecond; records what it
    /// receives.
    struct Ticker {
        peer: NodeId,
        next: u64,
        seen: Vec<u64>,
    }

    impl Process<Num> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            ctx.set_timer(canopus_sim::Dur::millis(1), 0);
        }
        fn on_message(&mut self, _from: NodeId, msg: Num, _ctx: &mut Context<'_, Num>) {
            self.seen.push(msg.0);
        }
        fn on_timer(&mut self, _timer: Timer, ctx: &mut Context<'_, Num>) {
            self.next += 1;
            ctx.send(self.peer, Num(self.next));
            ctx.set_timer(canopus_sim::Dur::millis(1), 0);
        }
        impl_process_any!();
    }

    #[test]
    fn peer_that_goes_away_and_comes_back_is_reconnected_with_backoff() {
        // The peer is a bare listener owned by the test: it can be dropped
        // and bound again on the same port, which a node handle cannot.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer.local_addr().unwrap();
        let mut peers = PeerMap::new();
        peers.insert(NodeId(1), peer_addr);
        let hub = NodeObs::enabled(0, 16);
        let handle = spawn_node_obs::<Num>(
            NodeId(0),
            Box::new(Ticker {
                peer: NodeId(1),
                next: 0,
                seen: Vec::new(),
            }),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            peers,
            3,
            Arc::new(FaultRules::new(3)),
            NetObs::new(hub.clone()),
        );
        // Handshake, then numbers in order with no gap.
        let read_some = |listener: &TcpListener| -> Vec<u64> {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(StdDuration::from_secs(5)))
                .unwrap();
            let hello = read_frame(&mut stream).unwrap().unwrap();
            assert_eq!(NodeId::from_bytes(hello).unwrap(), NodeId(0));
            (0..20)
                .map(|_| {
                    Num::from_bytes(read_frame(&mut stream).unwrap().unwrap())
                        .unwrap()
                        .0
                })
                .collect()
        };
        let first = read_some(&peer);
        assert!(first.windows(2).all(|w| w[1] == w[0] + 1), "{first:?}");
        // The peer goes away for 300 ms: connects are refused.
        drop(peer);
        std::thread::sleep(StdDuration::from_millis(300));
        let reconnects = |hub: &NodeObs| hub.metrics.snapshot().counter("net.reconnects").unwrap();
        let while_down = reconnects(&hub);
        // 10 + 20 + 40 + 80 + 160 ms of back-off fit in the outage; a retry
        // per failed send would be hundreds.
        assert!((2..=8).contains(&while_down), "{while_down} reconnects");
        // It comes back on the same port: frames flow again, later ones.
        let peer = TcpListener::bind(peer_addr).unwrap();
        let second = read_some(&peer);
        assert!(second.windows(2).all(|w| w[1] == w[0] + 1), "{second:?}");
        assert!(second[0] > *first.last().unwrap() + 100, "{second:?}");
        drop(handle.stop());
    }

    #[test]
    fn a_burst_inside_one_step_reaches_the_socket_in_one_write() {
        let a = Counter {
            peer: Some(NodeId(1)),
            count: 500,
            seen: Vec::new(),
        };
        let b = Counter {
            peer: None,
            count: 0,
            seen: Vec::new(),
        };
        let hub = NodeObs::enabled(0, 16);
        let (mut listeners, peers) = bind_loopback(2);
        let rules = Arc::new(FaultRules::new(2));
        let sink = spawn_node_obs::<Num>(
            NodeId(1),
            Box::new(b),
            listeners.pop().unwrap(),
            peers.clone(),
            2,
            rules.clone(),
            NetObs::disabled(),
        );
        let burst = spawn_node_obs::<Num>(
            NodeId(0),
            Box::new(a),
            listeners.pop().unwrap(),
            peers,
            2,
            rules,
            NetObs::new(hub.clone()),
        );
        std::thread::sleep(StdDuration::from_millis(200));
        drop(burst.stop());
        let got = sink.stop();
        let counter = got.as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(counter.seen, (1..=500).collect::<Vec<_>>());
        // 500 frames of 4 + 8 bytes behind the 4 + 4-byte handshake. A
        // loopback connect completes at once, so the handshake may go out
        // alone; the burst itself is one write.
        let snap = hub.metrics.snapshot();
        let flushes = snap.histogram("net.flush_bytes").unwrap();
        assert_eq!(flushes.sum, 8 + 500 * 12);
        assert!(flushes.count <= 2, "{} writes", flushes.count);
    }

    /// Chains `left` timers of 200 µs each, then notes when the last fired.
    struct Chain {
        left: u32,
        done_at: Option<Time>,
    }

    impl Process<Num> for Chain {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            ctx.set_timer(canopus_sim::Dur::micros(200), 0);
        }
        fn on_message(&mut self, _from: NodeId, _msg: Num, _ctx: &mut Context<'_, Num>) {}
        fn on_timer(&mut self, _timer: Timer, ctx: &mut Context<'_, Num>) {
            self.left -= 1;
            if self.left == 0 {
                self.done_at = Some(ctx.now());
            } else {
                ctx.set_timer(canopus_sim::Dur::micros(200), 0);
            }
        }
        impl_process_any!();
    }

    #[test]
    fn chained_sub_millisecond_timers_keep_their_pace() {
        let handle = spawn_node_obs::<Num>(
            NodeId(0),
            Box::new(Chain {
                left: 1_000,
                done_at: None,
            }),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            PeerMap::new(),
            4,
            Arc::new(FaultRules::new(4)),
            NetObs::disabled(),
        );
        std::thread::sleep(StdDuration::from_millis(600));
        let done = handle.stop();
        let chain = done.as_any().downcast_ref::<Chain>().unwrap();
        let took = chain
            .done_at
            .expect("1 000 timers of 200 µs fire within 600 ms");
        // Nominal is 200 ms; a wait rounded up to whole milliseconds would
        // take a second.
        assert!(took >= Time::from_nanos(200_000_000), "{took:?}");
        assert!(took <= Time::from_nanos(400_000_000), "{took:?}");
    }
}
