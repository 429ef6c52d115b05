//! `TcpNodeHandle::stop()` returns with every fd the node opened closed.
//!
//! Alone in its own test binary: an exact count of `/proc/self/fd` cannot
//! share a process with tests that open sockets concurrently.

#![cfg(feature = "tcp")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use canopus_net::tcp::{bind_loopback, spawn_node_obs, NetObs};
use canopus_net::{FaultRules, Wire, WireError};
use canopus_sim::{impl_process_any, Context, NodeId, Payload, Process};

#[derive(Debug, Clone)]
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

/// Sends ten numbers to its peer on start; counts what it receives.
struct Pair {
    peer: NodeId,
    seen: usize,
}

impl Process<Num> for Pair {
    fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
        for i in 0..10 {
            ctx.send(self.peer, Num(i));
        }
    }
    fn on_message(&mut self, _from: NodeId, _msg: Num, _ctx: &mut Context<'_, Num>) {
        self.seen += 1;
    }
    impl_process_any!();
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn stop_closes_every_fd_the_node_opened() {
    let before = open_fds();
    let rules = Arc::new(FaultRules::new(1));
    let (listeners, peers) = bind_loopback(2);
    let handles: Vec<_> = (listeners.into_iter().enumerate())
        .map(|(i, listener)| {
            let pair = Pair {
                peer: NodeId(1 - i as u32),
                seen: 0,
            };
            spawn_node_obs(
                NodeId(i as u32),
                Box::new(pair),
                listener,
                peers.clone(),
                1 + i as u64,
                Arc::clone(&rules),
                NetObs::disabled(),
            )
        })
        .collect();
    // Two listeners, two epoll instances, four connection ends.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() < before + 8 {
        assert!(Instant::now() < deadline, "{} fds", open_fds() - before);
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    for h in handles {
        let done = h.stop();
        assert_eq!(done.as_any().downcast_ref::<Pair>().unwrap().seen, 10);
    }
    assert_eq!(open_fds(), before);
}
