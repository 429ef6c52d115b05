//! Vendored minimal `epoll` wrapper (offline build shim).
//!
//! The node event loop in `canopus-net` needs exactly three kernel
//! facilities that std does not expose: an epoll instance with
//! level-triggered readiness notification, a wait whose timeout is precise
//! to the nanosecond (the loop's timers are armed from the same wait), and
//! a nonblocking `connect(2)`. This crate wraps those via direct FFI to the
//! C library symbols that are always linked on Linux — no external crates,
//! mirroring the other `compat/` shims. Like them it lives outside the
//! workspace, which is also what permits the `unsafe` FFI here while the
//! workspace denies `unsafe_code`.
//!
//! The API is deliberately tiny and level-triggered only: [`Poller`]
//! (add/modify/delete/wait), [`Interest`], [`Events`]/[`Event`], and
//! [`connect_nonblocking`]. Linux-only by design (the repo's target
//! platform); other platforms fail to compile with a clear message.

#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

#[cfg(not(target_os = "linux"))]
compile_error!("epoll-shim is Linux-only; gate the `tcp` feature off on other platforms");

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_long, c_void};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// Constant values for Linux x86_64 / aarch64 (identical on both).
const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `epoll_pwait2(2)`: the same number on every Linux architecture.
const SYS_EPOLL_PWAIT2: c_long = 441;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0x800;
const SOCK_CLOEXEC: c_int = 0x80000;

const EINTR: i32 = 4;
const EPERM: i32 = 1;
const ENOSYS: i32 = 38;
const EINPROGRESS: i32 = 115;

/// Kernel ABI for `struct epoll_event`: packed on x86_64, naturally
/// aligned everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Kernel ABI for `struct __kernel_timespec`: both fields 64-bit on every
/// architecture.
#[repr(C)]
struct KernelTimespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Readiness interest for one registered fd. Level-triggered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or closed/errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    flags: u32,
}

impl Event {
    /// Readable — including hangup/error, which a read will surface as
    /// EOF or an io error.
    pub fn readable(&self) -> bool {
        self.flags & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0
    }

    /// Writable — including error, which the next write (or
    /// `take_error`) will surface.
    pub fn writable(&self) -> bool {
        self.flags & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }

    /// The peer closed or the fd errored.
    pub fn closed(&self) -> bool {
        self.flags & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0
    }
}

/// Reusable output buffer for [`Poller::wait`].
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that can carry up to `capacity` events per wait call.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) ABI struct.
            let flags = e.events;
            let token = e.data;
            Event { token, flags }
        })
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the last wait delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A level-triggered epoll instance.
pub struct Poller {
    fd: RawFd,
}

impl Poller {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the call.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest (and token) of an already registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Deregistering an fd that was already closed (and
    /// therefore auto-removed by the kernel) reports the OS error.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: event pointer must be non-null on kernels < 2.6.9; ours
        // is valid either way.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Waits for readiness, filling `events`. `None` blocks indefinitely.
    /// Returns the number of events (0 on timeout or `EINTR`).
    ///
    /// The timeout is honoured to the nanosecond (`epoll_pwait2`, Linux
    /// 5.11): an event loop that arms 200 µs timers from this wait must
    /// not have them rounded to the millisecond. Where the call does not
    /// exist — `ENOSYS` from an older kernel, `EPERM` from a seccomp
    /// profile that predates syscall 441 — it fails once and every wait
    /// from then on uses `epoll_wait` with the timeout rounded *up* to
    /// whole milliseconds, so a nonzero timeout never spins as zero.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        static NO_PWAIT2: AtomicBool = AtomicBool::new(false);
        let mut n = -1;
        if !NO_PWAIT2.load(Ordering::Relaxed) {
            n = self.pwait2(events, timeout);
            let errno = io::Error::last_os_error().raw_os_error();
            if n < 0 && matches!(errno, Some(ENOSYS | EPERM)) {
                NO_PWAIT2.store(true, Ordering::Relaxed);
            }
        }
        if NO_PWAIT2.load(Ordering::Relaxed) {
            let millis = timeout.map_or(-1, |d| {
                d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            });
            // SAFETY: buffer pointer/length describe `events.buf`, valid
            // for the duration of the call.
            n = unsafe {
                epoll_wait(
                    self.fd,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as c_int,
                    millis,
                )
            } as c_long;
        }
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                events.len = 0;
                return Ok(0);
            }
            return Err(err);
        }
        events.len = n as usize;
        Ok(events.len)
    }

    /// The raw `epoll_pwait2` call: event count, or -1 with `errno` set.
    fn pwait2(&self, events: &mut Events, timeout: Option<Duration>) -> c_long {
        let ts = timeout.map(|d| KernelTimespec {
            tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: d.subsec_nanos() as i64,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const KernelTimespec);
        // SAFETY: the buffer pointer/length describe `events.buf` and
        // `ts_ptr` is null or points at `ts`, all valid for the duration
        // of the call; a null sigmask leaves the signal mask alone.
        unsafe {
            syscall(
                SYS_EPOLL_PWAIT2,
                self.fd,
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                ts_ptr,
                std::ptr::null::<c_void>(),
                0usize,
            )
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this Poller and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

impl AsRawFd for Poller {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

/// Starts a nonblocking TCP connect. Returns the stream plus whether the
/// connect already completed (loopback often does). When it returns
/// `false`, register for writability and check `stream.take_error()` once
/// writable to learn the outcome.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<(TcpStream, bool)> {
    // SAFETY: plain syscall, no pointers.
    let fd = cvt(unsafe {
        socket(
            match addr {
                SocketAddr::V4(_) => AF_INET as c_int,
                SocketAddr::V6(_) => AF_INET6 as c_int,
            },
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    })?;
    // SAFETY: fd is a fresh socket owned from here on by the TcpStream,
    // which closes it on drop (including on the error paths below).
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let ret = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                sin_family: AF_INET,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: pointer/length describe `sa` for the call's duration.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                sin6_family: AF_INET6,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo().to_be(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: pointer/length describe `sa` for the call's duration.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if ret == 0 {
        return Ok((stream, true));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        return Ok((stream, false));
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

    #[test]
    fn wait_times_out_empty() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable());
    }

    #[test]
    fn sub_millisecond_timeouts_are_not_rounded_to_a_millisecond() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        let rounds = 200;
        let t0 = std::time::Instant::now();
        for _ in 0..rounds {
            let n = poller
                .wait(&mut events, Some(Duration::from_micros(100)))
                .unwrap();
            assert_eq!(n, 0);
        }
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_micros(100) * rounds);
        // Rounded up to 1 ms each this would take 200 ms; the kernel's
        // 50 µs timer slack and a busy host stay far below that.
        assert!(
            elapsed < Duration::from_millis(120),
            "200 x 100 µs waits took {elapsed:?}"
        );
    }

    #[test]
    fn nonblocking_connect_completes_writable_without_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stream, done) = connect_nonblocking(addr).unwrap();
        if !done {
            let poller = Poller::new().unwrap();
            poller.add(stream.as_raw_fd(), 9, Interest::WRITE).unwrap();
            let mut events = Events::with_capacity(8);
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(n, 1);
            assert!(events.iter().next().unwrap().writable());
        }
        assert!(stream.take_error().unwrap().is_none());
        // Prove the socket works as a std TcpStream end to end.
        let mut s = stream;
        s.set_nonblocking(false).unwrap();
        s.write_all(b"ping").unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        std::io::Read::read_exact(&mut peer, &mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn connect_to_dead_port_reports_error_on_writable() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let Ok((stream, done)) = connect_nonblocking(addr) else {
            return; // immediate ECONNREFUSED is also a pass
        };
        if done {
            return;
        }
        let poller = Poller::new().unwrap();
        poller.add(stream.as_raw_fd(), 3, Interest::WRITE).unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(stream.take_error().unwrap().is_some());
    }

    #[test]
    fn modify_toggles_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        // Read-only interest first: an idle connected socket is writable
        // but not readable, so the wait must time out.
        poller.add(stream.as_raw_fd(), 4, Interest::READ).unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        poller
            .modify(stream.as_raw_fd(), 4, Interest::BOTH)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable());
        poller.delete(stream.as_raw_fd()).unwrap();
    }
}
