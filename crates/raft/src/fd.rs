//! Heartbeat failure detection within a super-leaf.
//!
//! The paper (§3.6, §4.6) detects node failures "by using a method similar
//! to the heartbeat mechanism in Raft" and assumes detection within a rack
//! is reliable (assumption A2: bounded intra-rack delays). This detector
//! tracks the last time each peer was heard from — any protocol traffic
//! counts — and reports peers silent beyond a timeout as failed. The host
//! folds confirmed failures into the membership updates (`F` sets) carried
//! by the next consensus cycle.

use std::collections::BTreeMap;

use canopus_sim::{Dur, NodeId, Time};

/// Tracks peer liveness from observed traffic.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    timeout: Dur,
    last_heard: BTreeMap<NodeId, Time>,
    /// Peers already reported, so each failure is surfaced exactly once.
    reported: BTreeMap<NodeId, bool>,
}

impl FailureDetector {
    /// Creates a detector for `peers` (excluding self), considering a peer
    /// failed after `timeout` of silence.
    pub fn new(peers: &[NodeId], timeout: Dur, now: Time) -> Self {
        FailureDetector {
            timeout,
            last_heard: peers.iter().map(|&p| (p, now)).collect(),
            reported: peers.iter().map(|&p| (p, false)).collect(),
        }
    }

    /// Records traffic from `peer` at `now`. Unknown peers are ignored.
    pub fn record(&mut self, peer: NodeId, now: Time) {
        if let Some(t) = self.last_heard.get_mut(&peer) {
            if now > *t {
                *t = now;
            }
        }
    }

    /// Returns peers that crossed the silence threshold since the last call;
    /// each failed peer is reported once until it is heard from again.
    pub fn newly_failed(&mut self, now: Time) -> Vec<NodeId> {
        let mut failed = Vec::new();
        for (&peer, &heard) in &self.last_heard {
            let expired = now.saturating_since(heard) >= self.timeout;
            let reported = self.reported.get_mut(&peer).expect("tracked");
            if expired && !*reported {
                *reported = true;
                failed.push(peer);
            } else if !expired && *reported {
                // Heard again after being reported: allow re-reporting later.
                *reported = false;
            }
        }
        failed
    }

    /// Peers currently considered alive.
    pub fn live_peers(&self, now: Time) -> Vec<NodeId> {
        self.last_heard
            .iter()
            .filter(|(_, &heard)| now.saturating_since(heard) < self.timeout)
            .map(|(&p, _)| p)
            .collect()
    }

    /// The configured silence threshold.
    pub fn timeout(&self) -> Dur {
        self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::millis(ms)
    }

    #[test]
    fn silent_peer_reported_once() {
        let peers = [NodeId(1), NodeId(2)];
        let mut fd = FailureDetector::new(&peers, Dur::millis(10), t(0));
        fd.record(NodeId(1), t(5));
        // At t=12: peer 2 silent for 12ms (failed), peer 1 for 7ms (fine).
        assert_eq!(fd.newly_failed(t(12)), vec![NodeId(2)]);
        assert_eq!(fd.newly_failed(t(13)), vec![], "reported only once");
        // Peer 1 eventually fails too.
        assert_eq!(fd.newly_failed(t(20)), vec![NodeId(1)]);
    }

    #[test]
    fn traffic_resets_the_clock() {
        let peers = [NodeId(1)];
        let mut fd = FailureDetector::new(&peers, Dur::millis(10), t(0));
        for ms in (0..100).step_by(5) {
            fd.record(NodeId(1), t(ms));
            assert_eq!(fd.newly_failed(t(ms + 1)), vec![]);
        }
    }

    #[test]
    fn recovered_peer_can_fail_again() {
        let peers = [NodeId(1)];
        let mut fd = FailureDetector::new(&peers, Dur::millis(10), t(0));
        assert_eq!(fd.newly_failed(t(15)), vec![NodeId(1)]);
        // Peer rejoins and talks.
        fd.record(NodeId(1), t(20));
        assert_eq!(fd.newly_failed(t(21)), vec![]);
        // And fails again later: re-reported.
        assert_eq!(fd.newly_failed(t(40)), vec![NodeId(1)]);
    }

    #[test]
    fn live_peers_tracks_current_view() {
        let peers = [NodeId(1), NodeId(2)];
        let mut fd = FailureDetector::new(&peers, Dur::millis(10), t(0));
        fd.record(NodeId(1), t(8));
        assert_eq!(fd.live_peers(t(12)), vec![NodeId(1)]);
    }
}
