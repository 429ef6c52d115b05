//! The socket half of a node's event loop: one epoll instance owned by the
//! node thread, with the node's listener, its inbound connections and its
//! outbound connections all registered on it.
//!
//! There is no thread in this module and nothing is shared: a `Reactor`
//! is a plain value that [`crate::tcp::run_node_obs`] owns and drives from
//! the node's own loop, so a message costs one thread wake-up — the
//! receiver's `epoll_wait` returning — and queue accounting is ordinary
//! integers.
//!
//! - **Listener and inbound connections** are readiness-driven. Every
//!   ready socket is drained per `Reactor::poll`; frames are reassembled
//!   incrementally (a partial frame survives across readiness events; a
//!   length prefix over [`MAX_FRAME`] closes the connection before any
//!   payload is buffered) and handed to the caller one by one. The first
//!   frame of a connection is the sender's [`NodeId`].
//! - **Outbound connections** are one per remote address, so many virtual
//!   destinations at one address share one socket. Connects are
//!   nonblocking with exponential backoff (10 ms → 1 s); frames queued
//!   while a peer is unreachable are shed as loss on each failed attempt,
//!   like the simulator's fabric drops what a dead link carries.
//! - **Sends coalesce.** `Reactor::send` only appends the frame to the
//!   peer's buffer; `Reactor::flush`, called once per loop iteration,
//!   hands each peer everything queued for it in one `write`. What the
//!   kernel does not take stays buffered and write interest is armed until
//!   it drains.
//! - **Backpressure** is explicit: a peer's unwritten bytes are bounded
//!   (2 MiB). At the bound `send` first writes what the socket will take
//!   (a burst inside one loop iteration is not a blocked peer); if the
//!   bound still stands it returns `SendOutcome::Backpressure` without
//!   queueing.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use bytes::Bytes;
use canopus_obs::{Counter, Histogram};
use canopus_sim::NodeId;
use epoll_shim::{connect_nonblocking, Event, Events, Interest, Poller};

use crate::wire::{Wire, MAX_FRAME};

/// Bytes asked of the kernel per `read`.
const READ_CHUNK: usize = 64 << 10;

/// Reads per connection per poll: a peer that never stops sending yields
/// to the other sockets (level-triggered epoll reports it again).
const READS_PER_POLL: usize = 16;

/// Bound on a peer's unwritten bytes (headers included).
const HIGH_WATER: usize = 2 << 20;

const BACKOFF_MIN: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_secs(1);

const LISTENER_TOKEN: u64 = 0;
/// Set in the token of an outbound connection; the rest is its index.
const OUT_BIT: u64 = 1 << 63;

/// Appends one length-prefixed frame to a coalescing buffer.
pub(crate) fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Event loops shared between nodes: none. Every node thread is its own
/// loop, so there is nothing to count or configure; the function remains
/// because livebench prints it.
pub fn loop_count() -> usize {
    0
}

/// Verdict of one [`Reactor::send`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Queued for delivery (best-effort, like every transport send).
    Queued,
    /// The peer's bounded write queue is full; the frame was not queued.
    Backpressure,
}

struct InConn {
    stream: TcpStream,
    /// Sender id from the handshake frame; `None` until it arrives.
    peer: Option<NodeId>,
    /// Bytes of a frame whose end has not arrived yet.
    partial: Vec<u8>,
}

enum OutState {
    /// No socket; a connect attempt is scheduled in `Reactor::retries`.
    Backoff,
    Connecting(TcpStream),
    Ready(TcpStream),
}

struct OutConn {
    addr: SocketAddr,
    state: OutState,
    /// Framed bytes; `written` marks how much already reached the socket.
    pending: Vec<u8>,
    written: usize,
    /// Whether the socket is registered for writability.
    want_write: bool,
    /// Listed in `Reactor::dirty` for the next flush.
    dirty: bool,
    backoff: Duration,
}

impl OutConn {
    fn unwritten(&self) -> usize {
        self.pending.len() - self.written
    }
}

/// What the loop reports into a node's hub; every handle is a no-op when
/// the hub is disabled.
pub(crate) struct ReactorMetrics {
    /// Bytes per `write`.
    pub(crate) flush_bytes: Histogram,
    /// Connect attempts scheduled after a failed or broken outbound link.
    pub(crate) reconnects: Counter,
}

/// One node's sockets on one epoll instance. Dropping it closes them all.
pub(crate) struct Reactor {
    self_id: NodeId,
    poller: Poller,
    events: Events,
    ready: Vec<Event>,
    listener: TcpListener,
    inbound: HashMap<u64, InConn>,
    next_inbound: u64,
    outbound: Vec<OutConn>,
    out_index: HashMap<SocketAddr, usize>,
    /// Outbound connections with bytes queued since the last flush.
    dirty: Vec<usize>,
    /// `(when, outbound index)` of scheduled connect attempts.
    retries: Vec<(Instant, usize)>,
    scratch: Vec<u8>,
    high_water: usize,
    metrics: ReactorMetrics,
}

impl Reactor {
    /// Registers `listener` (already bound) on a fresh epoll instance.
    pub(crate) fn new(
        self_id: NodeId,
        listener: TcpListener,
        metrics: ReactorMetrics,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(Reactor {
            self_id,
            poller,
            events: Events::with_capacity(256),
            ready: Vec::new(),
            listener,
            inbound: HashMap::new(),
            next_inbound: LISTENER_TOKEN,
            outbound: Vec::new(),
            out_index: HashMap::new(),
            dirty: Vec::new(),
            retries: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            high_water: HIGH_WATER,
            metrics,
        })
    }

    /// Waits up to `timeout` for readiness, then drains every ready
    /// socket: accepts, completes connects, resumes blocked writes, and
    /// hands each complete inbound frame to `on_frame(sender, frame)`. A
    /// `false` from `on_frame` (the frame does not decode) closes that
    /// connection, not the node. Due reconnects are started on the way out.
    pub(crate) fn poll(
        &mut self,
        timeout: Duration,
        on_frame: &mut dyn FnMut(NodeId, Bytes) -> bool,
    ) -> io::Result<()> {
        let now = Instant::now();
        let timeout = self
            .retries
            .iter()
            .map(|&(at, _)| at.saturating_duration_since(now))
            .fold(timeout, Duration::min);
        self.poller.wait(&mut self.events, Some(timeout))?;
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        ready.extend(self.events.iter());
        for ev in &ready {
            if ev.token == LISTENER_TOKEN {
                self.accept_ready();
            } else if ev.token & OUT_BIT != 0 {
                self.out_event((ev.token & !OUT_BIT) as usize, ev.readable());
            } else if !self.read_inbound(ev.token, on_frame) {
                if let Some(conn) = self.inbound.remove(&ev.token) {
                    let _ = self.poller.delete(conn.stream.as_raw_fd());
                }
            }
        }
        self.ready = ready;
        if !self.retries.is_empty() {
            let now = Instant::now();
            let mut due = Vec::new();
            self.retries.retain(|&(at, idx)| {
                let is_due = at <= now;
                if is_due {
                    due.push(idx);
                }
                !is_due
            });
            for idx in due {
                self.start_connect(idx);
            }
        }
        Ok(())
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_inbound += 1;
                    let token = self.next_inbound;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_ok()
                    {
                        self.inbound.insert(
                            token,
                            InConn {
                                stream,
                                peer: None,
                                partial: Vec::new(),
                            },
                        );
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: the backlog is drained
            }
        }
    }

    /// Reads what an inbound connection has and dispatches its complete
    /// frames. Returns `false` when the connection must close.
    fn read_inbound(
        &mut self,
        token: u64,
        on_frame: &mut dyn FnMut(NodeId, Bytes) -> bool,
    ) -> bool {
        let Some(conn) = self.inbound.get_mut(&token) else {
            return true;
        };
        for _ in 0..READS_PER_POLL {
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => return false, // clean EOF
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            // The common case parses straight out of the read buffer; only
            // the tail of a frame still in flight is copied aside.
            let read = &self.scratch[..n];
            let mut block = if conn.partial.is_empty() {
                let Some(end) = complete_frames(read) else {
                    return false; // over-limit prefix
                };
                conn.partial.extend_from_slice(&read[end..]);
                Bytes::copy_from_slice(&read[..end])
            } else {
                conn.partial.extend_from_slice(read);
                let Some(end) = complete_frames(&conn.partial) else {
                    return false;
                };
                let block = Bytes::copy_from_slice(&conn.partial[..end]);
                conn.partial.drain(..end);
                block
            };
            while !block.is_empty() {
                let len = u32::from_le_bytes(block[..4].try_into().expect("4 bytes")) as usize;
                let _ = block.split_to(4);
                let frame = block.split_to(len);
                match conn.peer {
                    None => match NodeId::from_bytes(frame) {
                        Ok(peer) => conn.peer = Some(peer),
                        Err(_) => return false,
                    },
                    Some(peer) => {
                        if !on_frame(peer, frame) {
                            return false;
                        }
                    }
                }
            }
            if n < self.scratch.len() {
                return true; // the socket had less than we asked for
            }
        }
        true
    }

    fn out_event(&mut self, idx: usize, readable: bool) {
        match &mut self.outbound[idx].state {
            OutState::Connecting(stream) => match stream.take_error() {
                Ok(None) => self.establish(idx),
                _ => self.disconnect(idx),
            },
            OutState::Ready(stream) => {
                // Peers never send on our outbound links: readable means
                // EOF or an error (stray bytes are discarded).
                if readable && !matches!(stream.read(&mut self.scratch), Ok(n) if n > 0) {
                    self.disconnect(idx);
                } else {
                    self.flush_out(idx);
                }
            }
            OutState::Backoff => {}
        }
    }

    fn out_token(idx: usize) -> u64 {
        OUT_BIT | idx as u64
    }

    /// Starts the nonblocking connect of an outbound entry in backoff.
    fn start_connect(&mut self, idx: usize) {
        let out = &mut self.outbound[idx];
        let Ok((stream, done)) = connect_nonblocking(out.addr) else {
            return self.schedule_retry(idx);
        };
        if self
            .poller
            .add(stream.as_raw_fd(), Self::out_token(idx), Interest::BOTH)
            .is_err()
        {
            return self.schedule_retry(idx);
        }
        out.want_write = true;
        out.state = OutState::Connecting(stream);
        if done {
            self.establish(idx);
        }
    }

    /// A connect completed: the handshake goes ahead of whatever was
    /// queued while it was in progress.
    fn establish(&mut self, idx: usize) {
        let out = &mut self.outbound[idx];
        let OutState::Connecting(stream) = std::mem::replace(&mut out.state, OutState::Backoff)
        else {
            return;
        };
        let _ = stream.set_nodelay(true);
        out.state = OutState::Ready(stream);
        out.backoff = BACKOFF_MIN;
        let mut framed = Vec::with_capacity(out.pending.len() + 8);
        append_frame(&mut framed, &self.self_id.to_bytes());
        framed.extend_from_slice(&out.pending);
        out.pending = framed;
        self.flush_out(idx);
    }

    /// Drops the socket and schedules the next attempt.
    fn disconnect(&mut self, idx: usize) {
        let out = &mut self.outbound[idx];
        if let OutState::Connecting(s) | OutState::Ready(s) =
            std::mem::replace(&mut out.state, OutState::Backoff)
        {
            let _ = self.poller.delete(s.as_raw_fd());
        }
        self.schedule_retry(idx);
    }

    /// The peer is unreachable: what was queued for it is lost, and the
    /// next attempt waits twice as long as this one did.
    fn schedule_retry(&mut self, idx: usize) {
        let out = &mut self.outbound[idx];
        out.pending.clear();
        out.written = 0;
        self.retries.push((Instant::now() + out.backoff, idx));
        out.backoff = (out.backoff * 2).min(BACKOFF_MAX);
        self.metrics.reconnects.inc();
    }

    /// Queues one frame for `addr`, opening (and thereafter reusing) the
    /// connection. Nothing reaches the socket before [`Reactor::flush`].
    pub(crate) fn send(&mut self, addr: SocketAddr, payload: &[u8]) -> SendOutcome {
        let idx = match self.out_index.get(&addr) {
            Some(&idx) => idx,
            None => {
                let idx = self.outbound.len();
                self.outbound.push(OutConn {
                    addr,
                    state: OutState::Backoff,
                    pending: Vec::new(),
                    written: 0,
                    want_write: false,
                    dirty: false,
                    backoff: BACKOFF_MIN,
                });
                self.out_index.insert(addr, idx);
                self.start_connect(idx);
                idx
            }
        };
        if self.outbound[idx].unwritten() >= self.high_water {
            // Everything sent since the last flush is still queued here;
            // only what the socket will not take counts against the bound.
            self.flush_out(idx);
        }
        let out = &mut self.outbound[idx];
        if out.unwritten() >= self.high_water {
            return SendOutcome::Backpressure;
        }
        append_frame(&mut out.pending, payload);
        if !out.dirty {
            out.dirty = true;
            self.dirty.push(idx);
        }
        SendOutcome::Queued
    }

    /// Unwritten bytes queued toward `addr` (0 if no connection).
    pub(crate) fn queued_bytes(&self, addr: SocketAddr) -> usize {
        self.out_index
            .get(&addr)
            .map_or(0, |&idx| self.outbound[idx].unwritten())
    }

    /// Hands every peer that was sent to since the last flush its queued
    /// frames in one `write`.
    pub(crate) fn flush(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for idx in dirty.drain(..) {
            self.outbound[idx].dirty = false;
            self.flush_out(idx);
        }
        self.dirty = dirty;
    }

    /// One `write` of a ready connection's unwritten bytes; write interest
    /// stays armed exactly while some remain.
    fn flush_out(&mut self, idx: usize) {
        let out = &mut self.outbound[idx];
        let OutState::Ready(stream) = &mut out.state else {
            return;
        };
        if out.written < out.pending.len() {
            match stream.write(&out.pending[out.written..]) {
                Ok(0) => return self.disconnect(idx),
                Ok(n) => {
                    out.written += n;
                    self.metrics.flush_bytes.observe(n as u64);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => return self.disconnect(idx),
            }
        }
        if out.written == out.pending.len() {
            out.pending.clear();
            out.written = 0;
        } else if out.written >= self.high_water {
            out.pending.drain(..out.written);
            out.written = 0;
        }
        // Level-triggered epoll: an idle socket with write interest would
        // wake the loop forever.
        let want_write = out.written < out.pending.len();
        if want_write != out.want_write {
            out.want_write = want_write;
            let interest = if want_write {
                Interest::BOTH
            } else {
                Interest::READ
            };
            let _ = self
                .poller
                .modify(stream.as_raw_fd(), Self::out_token(idx), interest);
        }
    }
}

/// Length of the longest prefix of `data` made of complete frames, or
/// `None` if it runs into a length prefix over [`MAX_FRAME`] — rejected on
/// sight, so only bytes that actually arrived are ever buffered.
fn complete_frames(data: &[u8]) -> Option<usize> {
    let mut end = 0;
    while data.len() - end >= 4 {
        let len = u32::from_le_bytes(data[end..end + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return None;
        }
        if data.len() - end - 4 < len {
            break;
        }
        end += 4 + len;
    }
    Some(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_over_the_bound_to_an_idle_socket_is_not_shed() {
        // The peer accepts and never reads, but 48 KiB fit its kernel
        // buffers many times over: the socket is idle, not blocked.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = peer.local_addr().unwrap();
        let hub = canopus_obs::NodeObs::disabled();
        let mut reactor = Reactor::new(
            NodeId(0),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ReactorMetrics {
                flush_bytes: hub.metrics.histogram("net.flush_bytes"),
                reconnects: hub.metrics.counter("net.reconnects"),
            },
        )
        .unwrap();
        reactor.high_water = 32 << 10;
        assert_eq!(reactor.send(addr, b"open"), SendOutcome::Queued);
        let _held = peer.accept().unwrap();
        while reactor.queued_bytes(addr) > 0 {
            reactor.flush();
            let idle = reactor.poll(Duration::from_millis(10), &mut |_, _| true);
            idle.unwrap();
        }
        // One loop iteration's worth of sends, half again the bound, with
        // no flush in between.
        for _ in 0..48 {
            assert_eq!(reactor.send(addr, &[7u8; 1020]), SendOutcome::Queued);
        }
        assert!(reactor.queued_bytes(addr) < 32 << 10);
    }
}
