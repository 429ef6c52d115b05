//! Poll-based reactor: a fixed pool of epoll event loops (one per core)
//! that carries every TCP connection in the process.
//!
//! The previous transport spawned ~2 threads per connection (a blocking
//! reader plus a per-peer writer), which capped live topologies at the
//! 9-node loopback suites. The reactor replaces all of that with
//! `pool`: `N` event loops, each owning an epoll instance, an eventfd
//! waker, and a command channel. Nodes register through `NodeIo`:
//!
//! - **Listeners** are readiness-driven: accept runs when epoll reports
//!   the listening socket readable, never on a sleep poll.
//! - **Inbound connections** stay on the loop that accepted them. Frames
//!   are reassembled incrementally (partial frames survive across
//!   readiness events; a length prefix over [`MAX_FRAME`] is rejected
//!   before any payload allocation) and handed to the node's dispatch
//!   closure, which decodes and forwards to the node-loop inbox.
//! - **Outbound connections** are sharded across loops by
//!   `hash(node, addr)` and deduplicated per remote address, so many
//!   virtual senders at one address share one socket. Connects are
//!   nonblocking with exponential backoff (10 ms → 1 s); while a peer is
//!   unreachable, queued frames are shed as loss, exactly like the old
//!   writer threads. Writes drain a bounded per-peer byte queue with
//!   coalesced flushes (one `write` for a burst of small frames, bounded
//!   by `MAX_COALESCE_BYTES`).
//! - **Backpressure** is explicit: when a peer's queue hits its
//!   high-water mark, `NodeIo::send` returns
//!   `SendOutcome::Backpressure` synchronously and raises the node's
//!   [`SendGate`] until the loop drains the queue below low water.
//!   Clients can watch the gate to shed or defer load instead of
//!   blocking.
//!
//! Loop-global health counters (iterations, readiness events,
//! queue-full incidents, connection churn) live in the process-wide
//! reactor registry: [`canopus_obs::reactor_snapshot`].

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use canopus_obs::{Histogram, ReactorObs};
use canopus_sim::NodeId;
use epoll_shim::{connect_nonblocking, Events, Interest, Poller, Waker};

use crate::wire::{Wire, MAX_FRAME};

/// Read buffer size per loop; also the growth bound for partial-frame
/// reassembly compaction.
const READ_CHUNK: usize = 64 << 10;

/// Largest unwritten coalesced batch a connection builds before it stops
/// pulling frames off its queue. Bounds both buffer growth and the
/// latency a queued frame can accrue behind earlier ones in one flush.
pub(crate) const MAX_COALESCE_BYTES: usize = 1 << 20;

/// Default per-peer write-queue bound in bytes (headers included). A
/// send that would exceed it gets an explicit [`SendOutcome::Backpressure`].
const DEFAULT_HIGH_WATER: usize = 2 << 20;

/// Epoll timeout when nothing else bounds the wait.
const IDLE_WAIT: Duration = Duration::from_millis(200);

const BACKOFF_MIN: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Token reserved for each loop's eventfd waker.
const WAKER_TOKEN: u64 = 0;

/// Appends one length-prefixed frame to a coalescing buffer.
pub(crate) fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Per-peer write-queue bound, overridable via `CANOPUS_NET_QUEUE_BYTES`.
pub(crate) fn high_water() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::env::var("CANOPUS_NET_QUEUE_BYTES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_HIGH_WATER)
    })
}

fn low_water() -> usize {
    high_water() / 2
}

/// Transport saturation signal shared between a node's reactor
/// connections and its clients.
///
/// The reactor raises the gate when any of the node's peer queues hits
/// its high-water mark and lowers it once the queue drains below low
/// water. Open-loop clients consult [`SendGate::is_saturated`] to shed
/// or defer arrivals instead of piling onto a full queue; `incidents`
/// counts every raise for test assertions and capacity reports.
#[derive(Clone, Debug, Default)]
pub struct SendGate {
    saturated: Arc<AtomicUsize>,
    incidents: Arc<AtomicU64>,
}

impl SendGate {
    /// A fresh, open gate.
    pub fn new() -> SendGate {
        SendGate::default()
    }

    /// True while at least one of the node's peer queues is full.
    pub fn is_saturated(&self) -> bool {
        self.saturated.load(Ordering::Relaxed) > 0
    }

    /// Total number of queue-full transitions observed so far.
    pub fn incidents(&self) -> u64 {
        self.incidents.load(Ordering::Relaxed)
    }

    fn raise(&self) {
        self.saturated.fetch_add(1, Ordering::Relaxed);
        self.incidents.fetch_add(1, Ordering::Relaxed);
    }

    fn lower(&self) {
        self.saturated.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a node's dispatch closure tells the reactor after each inbound
/// frame.
pub(crate) enum DispatchVerdict {
    /// Keep reading.
    Continue,
    /// The node's inbox is gone (shutdown); close the connection.
    Closed,
    /// The frame failed to decode; close the connection (mirrors the old
    /// reader thread's `InvalidData` exit).
    Corrupt,
}

/// Decodes one inbound frame and forwards it to the node loop.
pub(crate) type Dispatch = Arc<dyn Fn(NodeId, Bytes) -> DispatchVerdict + Send + Sync>;

/// Immutable per-node state shared with every loop that carries one of
/// the node's connections.
pub(crate) struct Registration {
    key: u64,
    self_id: NodeId,
    dispatch: Dispatch,
    gate: Option<SendGate>,
    flush_bytes: Histogram,
}

/// Queue accounting shared between [`NodeIo::send`] (node-loop thread)
/// and the event loop that owns the connection.
struct ConnShared {
    /// Bytes (payload + 4-byte headers) accepted but not yet moved into
    /// the connection's write buffer.
    queued: AtomicUsize,
    /// True between a high-water raise and the matching low-water lower.
    full: AtomicBool,
}

impl ConnShared {
    fn new() -> Arc<ConnShared> {
        Arc::new(ConnShared {
            queued: AtomicUsize::new(0),
            full: AtomicBool::new(false),
        })
    }

    /// Loop-side: release `n` queued bytes and lower the gate once the
    /// queue drains below low water.
    fn release(&self, n: usize, gate: &Option<SendGate>) {
        let before = self.queued.fetch_sub(n, Ordering::Relaxed);
        if before.saturating_sub(n) <= low_water()
            && self
                .full
                .compare_exchange(true, false, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            if let Some(gate) = gate {
                gate.lower();
            }
        }
    }
}

/// Synchronous verdict for one [`NodeIo::send`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Queued for delivery (best-effort, like every transport send).
    Queued,
    /// The peer's bounded write queue is full; the frame was not queued.
    Backpressure,
}

enum Cmd {
    AddListener {
        listener: TcpListener,
        reg: Arc<Registration>,
    },
    Connect {
        addr: SocketAddr,
        reg: Arc<Registration>,
        shared: Arc<ConnShared>,
    },
    Send {
        key: u64,
        addr: SocketAddr,
        frame: Bytes,
    },
    CloseNode {
        key: u64,
        ack: mpsc::SyncSender<()>,
    },
}

struct LoopHandle {
    tx: Sender<Cmd>,
    waker: Arc<Waker>,
    /// Set by submitters after enqueueing; cleared by the loop after
    /// draining. Coalesces eventfd writes for command bursts.
    cmd_pending: Arc<AtomicBool>,
}

impl LoopHandle {
    fn submit(&self, cmd: Cmd) {
        if self.tx.send(cmd).is_ok() && !self.cmd_pending.swap(true, Ordering::AcqRel) {
            let _ = self.waker.wake();
        }
    }
}

/// The process-wide pool of reactor event loops.
pub(crate) struct ReactorPool {
    loops: Vec<LoopHandle>,
    next_key: AtomicU64,
}

impl ReactorPool {
    fn loop_for(&self, key: u64, addr: SocketAddr) -> usize {
        // FNV-1a over (key, addr) spreads connections across loops
        // without any coordination.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(key);
        match addr {
            SocketAddr::V4(v4) => {
                mix(u32::from(*v4.ip()) as u64);
                mix(v4.port() as u64);
            }
            SocketAddr::V6(v6) => {
                for c in v6.ip().segments() {
                    mix(c as u64);
                }
                mix(v6.port() as u64);
            }
        }
        (h % self.loops.len() as u64) as usize
    }
}

/// Number of event loops: `CANOPUS_REACTOR_LOOPS` override, else one per
/// available core, clamped to `1..=16`.
pub fn loop_count() -> usize {
    if let Ok(n) = std::env::var("CANOPUS_REACTOR_LOOPS") {
        if let Ok(n) = n.parse::<usize>() {
            return n.clamp(1, 64);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// The lazily started global reactor pool.
pub(crate) fn pool() -> &'static ReactorPool {
    static POOL: OnceLock<ReactorPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = loop_count();
        let mut loops = Vec::with_capacity(n);
        for idx in 0..n {
            let poller = Poller::new().expect("epoll_create1");
            let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN).expect("eventfd"));
            let (tx, rx) = mpsc::channel();
            let cmd_pending = Arc::new(AtomicBool::new(false));
            let handle_waker = Arc::clone(&waker);
            let handle_pending = Arc::clone(&cmd_pending);
            std::thread::Builder::new()
                .name(format!("canopus-reactor-{idx}"))
                .spawn(move || run_loop(poller, waker, rx, cmd_pending))
                .expect("spawn reactor loop");
            loops.push(LoopHandle {
                tx,
                waker: handle_waker,
                cmd_pending: handle_pending,
            });
        }
        ReactorPool {
            loops,
            next_key: AtomicU64::new(1),
        }
    })
}

struct OutRef {
    loop_idx: usize,
    shared: Arc<ConnShared>,
}

/// A node's handle into the reactor: registers the listener, opens and
/// reuses outbound connections (one per remote address), and reports
/// backpressure synchronously.
pub(crate) struct NodeIo {
    key: u64,
    reg: Arc<Registration>,
    conns: HashMap<SocketAddr, OutRef>,
    high_water: usize,
}

impl NodeIo {
    /// Registers `listener` for readiness-driven accept and returns the
    /// node's send handle. `dispatch` runs on reactor threads.
    pub(crate) fn register(
        self_id: NodeId,
        listener: TcpListener,
        dispatch: Dispatch,
        gate: Option<SendGate>,
        flush_bytes: Histogram,
    ) -> NodeIo {
        let pool = pool();
        let key = pool.next_key.fetch_add(1, Ordering::Relaxed);
        let reg = Arc::new(Registration {
            key,
            self_id,
            dispatch,
            gate,
            flush_bytes,
        });
        listener
            .set_nonblocking(true)
            .expect("set listener nonblocking");
        let idx = (key % pool.loops.len() as u64) as usize;
        pool.loops[idx].submit(Cmd::AddListener {
            listener,
            reg: Arc::clone(&reg),
        });
        NodeIo {
            key,
            reg,
            conns: HashMap::new(),
            high_water: high_water(),
        }
    }

    /// Queues one frame for `addr`, opening (and thereafter reusing) the
    /// connection on its sharded loop. Returns
    /// [`SendOutcome::Backpressure`] without queueing when the peer's
    /// write queue is at high water.
    pub(crate) fn send(&mut self, addr: SocketAddr, frame: Bytes) -> SendOutcome {
        let pool = pool();
        let entry = self.conns.entry(addr).or_insert_with(|| {
            let shared = ConnShared::new();
            let loop_idx = pool.loop_for(self.key, addr);
            pool.loops[loop_idx].submit(Cmd::Connect {
                addr,
                reg: Arc::clone(&self.reg),
                shared: Arc::clone(&shared),
            });
            OutRef { loop_idx, shared }
        });
        let cost = frame.len() + 4;
        if entry.shared.queued.load(Ordering::Relaxed) >= self.high_water {
            if entry
                .shared
                .full
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                if let Some(gate) = &self.reg.gate {
                    gate.raise();
                }
            }
            return SendOutcome::Backpressure;
        }
        entry.shared.queued.fetch_add(cost, Ordering::Relaxed);
        pool.loops[entry.loop_idx].submit(Cmd::Send {
            key: self.key,
            addr,
            frame,
        });
        SendOutcome::Queued
    }

    /// Current queue depth in bytes toward `addr` (0 if no connection).
    pub(crate) fn queued_bytes(&self, addr: SocketAddr) -> usize {
        self.conns
            .get(&addr)
            .map(|c| c.shared.queued.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Deregisters the node from every loop: the listener, all inbound
    /// connections dispatching to it, and all outbound connections. Waits
    /// for each loop's acknowledgement, so when this returns every fd the
    /// node owned is closed — shutdown leaks nothing.
    pub(crate) fn close(self) {
        let pool = pool();
        let (ack_tx, ack_rx) = mpsc::sync_channel(pool.loops.len());
        for l in &pool.loops {
            l.submit(Cmd::CloseNode {
                key: self.key,
                ack: ack_tx.clone(),
            });
        }
        drop(ack_tx);
        for _ in 0..pool.loops.len() {
            let _ = ack_rx.recv();
        }
    }
}

// ---------------------------------------------------------------------
// Event-loop internals.
// ---------------------------------------------------------------------

struct InConn {
    stream: TcpStream,
    reg: Arc<Registration>,
    /// Sender id from the handshake frame; `None` until it arrives.
    peer: Option<NodeId>,
    /// Partial-frame reassembly buffer; `start` is the parse cursor.
    buf: Vec<u8>,
    start: usize,
}

enum OutState {
    Connecting(TcpStream),
    Backoff,
    Ready(TcpStream),
}

struct OutConn {
    addr: SocketAddr,
    reg: Arc<Registration>,
    shared: Arc<ConnShared>,
    state: OutState,
    /// Frames accepted but not yet framed into `pending`.
    queue: VecDeque<Bytes>,
    /// Framed bytes being written; `pending_off` marks how much already
    /// reached the socket.
    pending: Vec<u8>,
    pending_off: usize,
    backoff: Duration,
}

impl OutConn {
    fn unwritten(&self) -> usize {
        self.pending.len() - self.pending_off
    }

    /// Sheds everything queued (the peer is unreachable: this is loss,
    /// exactly like the old writer threads draining while disconnected).
    /// Only queue frames carry accounting — bytes already coalesced into
    /// `pending` were released when they moved — so only those are freed.
    fn shed_queue(&mut self) {
        self.pending.clear();
        self.pending_off = 0;
        let mut freed = 0usize;
        for f in self.queue.drain(..) {
            freed += f.len() + 4;
        }
        if freed > 0 {
            self.shared.release(freed, &self.reg.gate);
        }
    }
}

enum Entry {
    Listener {
        listener: TcpListener,
        reg: Arc<Registration>,
    },
    In(InConn),
    Out(OutConn),
}

struct Retry {
    at: Instant,
    token: u64,
}

impl PartialEq for Retry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.token == other.token
    }
}
impl Eq for Retry {}
impl PartialOrd for Retry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Retry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on deadline.
        (other.at, other.token).cmp(&(self.at, self.token))
    }
}

struct LoopState {
    poller: Poller,
    obs: ReactorObs,
    entries: HashMap<u64, Entry>,
    /// Outbound connection index: (node key, remote addr) → token.
    out_index: HashMap<(u64, SocketAddr), u64>,
    /// Every token belonging to a node key, for CloseNode teardown.
    node_tokens: HashMap<u64, HashSet<u64>>,
    retries: BinaryHeap<Retry>,
    next_token: u64,
}

impl LoopState {
    fn alloc_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn track(&mut self, key: u64, token: u64) {
        self.node_tokens.entry(key).or_default().insert(token);
    }

    fn untrack(&mut self, key: u64, token: u64) {
        if let Some(set) = self.node_tokens.get_mut(&key) {
            set.remove(&token);
            if set.is_empty() {
                self.node_tokens.remove(&key);
            }
        }
    }
}

fn run_loop(
    poller: Poller,
    waker: Arc<Waker>,
    cmd_rx: Receiver<Cmd>,
    cmd_pending: Arc<AtomicBool>,
) {
    let mut st = LoopState {
        poller,
        obs: ReactorObs::global(),
        entries: HashMap::new(),
        out_index: HashMap::new(),
        node_tokens: HashMap::new(),
        retries: BinaryHeap::new(),
        next_token: WAKER_TOKEN,
    };
    let mut events = Events::with_capacity(512);
    let mut scratch = vec![0u8; READ_CHUNK];
    loop {
        let timeout = match st.retries.peek() {
            Some(r) => {
                r.at.saturating_duration_since(Instant::now())
                    .min(IDLE_WAIT)
            }
            None => IDLE_WAIT,
        };
        if st.poller.wait(&mut events, Some(timeout)).is_err() {
            return;
        }
        st.obs.iterations.inc();

        // Drain commands (the waker is why most waits return early). The
        // pending flag is cleared before the final drain pass so a
        // submitter racing this point still produces a wakeup.
        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => handle_cmd(&mut st, cmd),
                Err(mpsc::TryRecvError::Empty) => {
                    cmd_pending.store(false, Ordering::Release);
                    match cmd_rx.try_recv() {
                        Ok(cmd) => {
                            handle_cmd(&mut st, cmd);
                            continue;
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => return,
                    }
                }
                Err(mpsc::TryRecvError::Disconnected) => return,
            }
        }

        for ev in events.iter() {
            if ev.token == WAKER_TOKEN {
                waker.drain();
                st.obs.wakeups.inc();
                continue;
            }
            st.obs.readiness_events.inc();
            handle_event(
                &mut st,
                &mut scratch,
                ev.token,
                ev.readable(),
                ev.writable(),
            );
        }

        // Fire due reconnect timers.
        let now = Instant::now();
        while let Some(r) = st.retries.peek() {
            if r.at > now {
                break;
            }
            let token = st.retries.pop().expect("peeked").token;
            start_connect(&mut st, token);
        }
    }
}

fn handle_cmd(st: &mut LoopState, cmd: Cmd) {
    match cmd {
        Cmd::AddListener { listener, reg } => {
            let token = st.alloc_token();
            if st
                .poller
                .add(listener.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                return;
            }
            st.track(reg.key, token);
            st.entries.insert(token, Entry::Listener { listener, reg });
        }
        Cmd::Connect { addr, reg, shared } => {
            let token = st.alloc_token();
            st.out_index.insert((reg.key, addr), token);
            st.track(reg.key, token);
            st.entries.insert(
                token,
                Entry::Out(OutConn {
                    addr,
                    reg,
                    shared,
                    state: OutState::Backoff,
                    queue: VecDeque::new(),
                    pending: Vec::new(),
                    pending_off: 0,
                    backoff: BACKOFF_MIN,
                }),
            );
            start_connect(st, token);
        }
        Cmd::Send { key, addr, frame } => {
            let Some(&token) = st.out_index.get(&(key, addr)) else {
                return;
            };
            if let Some(Entry::Out(out)) = st.entries.get_mut(&token) {
                out.queue.push_back(frame);
                flush_out(st, token);
            }
        }
        Cmd::CloseNode { key, ack } => {
            if let Some(tokens) = st.node_tokens.remove(&key) {
                for token in tokens {
                    if let Some(entry) = st.entries.remove(&token) {
                        teardown_entry(st, entry);
                    }
                }
            }
            st.out_index.retain(|(k, _), _| *k != key);
            let _ = ack.send(());
        }
    }
}

/// Deregisters and drops an entry's socket (fd closes on drop).
fn teardown_entry(st: &mut LoopState, entry: Entry) {
    match entry {
        Entry::Listener { listener, .. } => {
            let _ = st.poller.delete(listener.as_raw_fd());
        }
        Entry::In(conn) => {
            let _ = st.poller.delete(conn.stream.as_raw_fd());
            st.obs.conns_closed.inc();
        }
        Entry::Out(mut conn) => {
            match &conn.state {
                OutState::Connecting(s) | OutState::Ready(s) => {
                    let _ = st.poller.delete(s.as_raw_fd());
                    st.obs.conns_closed.inc();
                }
                OutState::Backoff => {}
            }
            conn.shed_queue();
        }
    }
}

fn handle_event(
    st: &mut LoopState,
    scratch: &mut [u8],
    token: u64,
    readable: bool,
    writable: bool,
) {
    // Take the entry out so IO can run without aliasing the maps; it is
    // reinserted unless the connection closed.
    let Some(mut entry) = st.entries.remove(&token) else {
        return;
    };
    let keep = match &mut entry {
        Entry::Listener { listener, reg } => {
            accept_ready(st, listener, reg);
            true
        }
        Entry::In(conn) => handle_in_readable(st, scratch, conn),
        Entry::Out(_) => {
            st.entries.insert(token, entry);
            handle_out_event(st, scratch, token, readable, writable);
            return;
        }
    };
    if keep {
        st.entries.insert(token, entry);
    } else {
        let reg_key = match &entry {
            Entry::In(c) => c.reg.key,
            Entry::Listener { reg, .. } => reg.key,
            Entry::Out(o) => o.reg.key,
        };
        st.untrack(reg_key, token);
        teardown_entry(st, entry);
    }
}

fn accept_ready(st: &mut LoopState, listener: &TcpListener, reg: &Arc<Registration>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = st.alloc_token();
                if st
                    .poller
                    .add(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                st.obs.accepted.inc();
                st.track(reg.key, token);
                st.entries.insert(
                    token,
                    Entry::In(InConn {
                        stream,
                        reg: Arc::clone(reg),
                        peer: None,
                        buf: Vec::new(),
                        start: 0,
                    }),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads everything available and dispatches complete frames. Returns
/// `false` when the connection must close.
fn handle_in_readable(st: &mut LoopState, scratch: &mut [u8], conn: &mut InConn) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return false, // clean EOF
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                if !parse_frames(st, conn) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Drains complete frames out of the reassembly buffer. A partial frame
/// simply stays buffered until the next readiness event. Returns `false`
/// on a corrupt frame, an oversized length prefix, or a closed inbox.
fn parse_frames(st: &mut LoopState, conn: &mut InConn) -> bool {
    loop {
        let avail = conn.buf.len() - conn.start;
        if avail < 4 {
            break;
        }
        let len = u32::from_le_bytes(
            conn.buf[conn.start..conn.start + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if len > MAX_FRAME {
            // Rejected before any payload allocation: the buffer only
            // ever holds bytes that actually arrived.
            return false;
        }
        if avail - 4 < len {
            break;
        }
        let frame = Bytes::from(conn.buf[conn.start + 4..conn.start + 4 + len].to_vec());
        conn.start += 4 + len;
        match conn.peer {
            None => match NodeId::from_bytes(frame) {
                Ok(peer) => conn.peer = Some(peer),
                Err(_) => return false,
            },
            Some(peer) => {
                st.obs.frames_in.inc();
                match (conn.reg.dispatch)(peer, frame) {
                    DispatchVerdict::Continue => {}
                    DispatchVerdict::Closed | DispatchVerdict::Corrupt => return false,
                }
            }
        }
    }
    // Compact once the consumed prefix outgrows a read chunk.
    if conn.start == conn.buf.len() {
        conn.buf.clear();
        conn.start = 0;
    } else if conn.start > READ_CHUNK {
        conn.buf.copy_within(conn.start.., 0);
        let remain = conn.buf.len() - conn.start;
        conn.buf.truncate(remain);
        conn.start = 0;
    }
    true
}

fn handle_out_event(
    st: &mut LoopState,
    scratch: &mut [u8],
    token: u64,
    readable: bool,
    writable: bool,
) {
    let Some(Entry::Out(out)) = st.entries.get_mut(&token) else {
        return;
    };
    match &mut out.state {
        OutState::Connecting(stream) => {
            if writable || readable {
                match stream.take_error() {
                    Ok(None) => {
                        st.obs.conns_opened.inc();
                        establish(st, token);
                    }
                    _ => disconnect_out(st, token),
                }
            }
        }
        OutState::Ready(stream) => {
            if readable {
                // Peers never send on our outbound links; readable here
                // means EOF/error (or stray bytes we discard).
                loop {
                    match stream.read(scratch) {
                        Ok(0) => {
                            disconnect_out(st, token);
                            return;
                        }
                        Ok(_) => continue,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            disconnect_out(st, token);
                            return;
                        }
                    }
                }
            }
            if writable {
                flush_out(st, token);
            }
        }
        OutState::Backoff => {}
    }
}

/// Starts (or restarts) the nonblocking connect for an outbound entry.
fn start_connect(st: &mut LoopState, token: u64) {
    let Some(Entry::Out(out)) = st.entries.get_mut(&token) else {
        return;
    };
    if !matches!(out.state, OutState::Backoff) {
        return;
    }
    match connect_nonblocking(out.addr) {
        Ok((stream, done)) => {
            if st
                .poller
                .add(stream.as_raw_fd(), token, Interest::BOTH)
                .is_err()
            {
                out.state = OutState::Backoff;
                schedule_retry(st, token);
                return;
            }
            if done {
                out.state = OutState::Ready(stream);
                st.obs.conns_opened.inc();
                establish(st, token);
            } else {
                out.state = OutState::Connecting(stream);
            }
        }
        Err(_) => schedule_retry(st, token),
    }
}

/// Transitions a connected outbound socket to `Ready`: handshake frame
/// first, then whatever is queued.
fn establish(st: &mut LoopState, token: u64) {
    let Some(Entry::Out(out)) = st.entries.get_mut(&token) else {
        return;
    };
    let stream = match std::mem::replace(&mut out.state, OutState::Backoff) {
        OutState::Connecting(s) | OutState::Ready(s) => s,
        OutState::Backoff => return,
    };
    let _ = stream.set_nodelay(true);
    out.state = OutState::Ready(stream);
    out.backoff = BACKOFF_MIN;
    let hello = out.reg.self_id.to_bytes();
    let mut framed = Vec::with_capacity(hello.len() + 4);
    append_frame(&mut framed, &hello);
    // Handshake goes ahead of anything already pending (there is nothing
    // pending on a fresh connection; this is belt and braces).
    framed.extend_from_slice(&out.pending[out.pending_off..]);
    out.pending = framed;
    out.pending_off = 0;
    flush_out(st, token);
}

/// Drops the socket, sheds the queue as loss, and schedules a retry.
fn disconnect_out(st: &mut LoopState, token: u64) {
    let Some(Entry::Out(out)) = st.entries.get_mut(&token) else {
        return;
    };
    match std::mem::replace(&mut out.state, OutState::Backoff) {
        OutState::Connecting(s) | OutState::Ready(s) => {
            let _ = st.poller.delete(s.as_raw_fd());
            st.obs.conns_closed.inc();
        }
        OutState::Backoff => {}
    }
    out.shed_queue();
    schedule_retry(st, token);
}

fn schedule_retry(st: &mut LoopState, token: u64) {
    let Some(Entry::Out(out)) = st.entries.get_mut(&token) else {
        return;
    };
    out.state = OutState::Backoff;
    // Frames queued while unreachable are shed as loss on each failed
    // attempt, mirroring the old writer threads.
    out.shed_queue();
    let at = Instant::now() + out.backoff;
    out.backoff = (out.backoff * 2).min(BACKOFF_MAX);
    st.obs.reconnects.inc();
    st.retries.push(Retry { at, token });
}

/// Moves queued frames into the coalescing buffer (bounded) and writes as
/// much as the socket accepts, keeping write interest armed only while
/// there is something left to send.
fn flush_out(st: &mut LoopState, token: u64) {
    let Some(Entry::Out(out)) = st.entries.get_mut(&token) else {
        return;
    };
    if !matches!(out.state, OutState::Ready(_)) {
        return;
    }
    // Frame queued payloads into `pending`, releasing their queue
    // accounting as they move (the queue bound covers un-coalesced
    // frames; `pending` is bounded by MAX_COALESCE_BYTES + one frame).
    while out.unwritten() < MAX_COALESCE_BYTES {
        let Some(frame) = out.queue.pop_front() else {
            break;
        };
        append_frame(&mut out.pending, &frame);
        st.obs.frames_out.inc();
        out.shared.release(frame.len() + 4, &out.reg.gate);
    }
    let mut wrote = 0usize;
    let mut broken = false;
    if let OutState::Ready(stream) = &mut out.state {
        while out.pending_off < out.pending.len() {
            match stream.write(&out.pending[out.pending_off..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    out.pending_off += n;
                    wrote += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
    }
    if wrote > 0 {
        out.reg.flush_bytes.observe(wrote as u64);
    }
    if out.pending_off == out.pending.len() {
        out.pending.clear();
        out.pending_off = 0;
    } else if out.pending_off > MAX_COALESCE_BYTES {
        out.pending.copy_within(out.pending_off.., 0);
        let remain = out.pending.len() - out.pending_off;
        out.pending.truncate(remain);
        out.pending_off = 0;
    }
    if broken {
        disconnect_out(st, token);
        return;
    }
    // Level-triggered epoll: keep write interest only while data waits,
    // otherwise an idle socket would wake the loop forever.
    let want_write = out.unwritten() > 0 || !out.queue.is_empty();
    if let OutState::Ready(stream) = &out.state {
        let interest = if want_write {
            Interest::BOTH
        } else {
            Interest::READ
        };
        let _ = st.poller.modify(stream.as_raw_fd(), token, interest);
    }
}
