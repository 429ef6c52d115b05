//! Super-leaf reliable broadcast (paper §4.3).
//!
//! Within a super-leaf every node creates its own dedicated Raft group and
//! becomes its initial leader; all super-leaf peers join as followers.
//! A node broadcasts by proposing into *its own* group; the Raft log
//! replication then guarantees the reliable-broadcast properties (validity,
//! integrity, agreement) the Canopus proof assumes (A4): either all live
//! members deliver a message or none do, in a consistent per-origin order.
//!
//! If a node fails, the followers of its group elect a new leader who
//! completes any in-flight replication — exactly the paper's "the new
//! leader completes any incomplete log replication" — after which the group
//! simply goes quiet (a crashed owner proposes nothing new).

use std::collections::BTreeMap;

use bytes::Bytes;
use canopus_sim::{NodeId, Time};
use rand::rngs::SmallRng;

use crate::core::{GroupId, Outbox, RaftConfig, RaftCore, RaftMsg};

/// A message delivered by the super-leaf broadcast: `origin` broadcast
/// `data` as its `seq`-th message.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// The node that called [`SuperLeafBroadcast::broadcast`].
    pub origin: NodeId,
    /// Position in the origin's broadcast order (1-based).
    pub seq: u64,
    /// The payload.
    pub data: Bytes,
}

/// Reliable broadcast among the members of one super-leaf.
#[derive(Debug)]
pub struct SuperLeafBroadcast {
    me: NodeId,
    /// One Raft group per member, keyed by owner. `groups[me]` is the group
    /// this node leads.
    groups: BTreeMap<NodeId, RaftCore>,
}

impl SuperLeafBroadcast {
    /// Creates the broadcast layer for `me` within `members` (which must
    /// include `me`). Every member must construct this with the identical
    /// member list.
    pub fn new(
        me: NodeId,
        members: &[NodeId],
        cfg: RaftConfig,
        now: Time,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(members.contains(&me), "superleaf must include self");
        let mut groups = BTreeMap::new();
        for &owner in members {
            let core = RaftCore::new(
                GroupId(owner.0),
                me,
                members.to_vec(),
                cfg,
                owner == me,
                now,
                rng,
            );
            groups.insert(owner, core);
        }
        SuperLeafBroadcast { me, groups }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The members of the super-leaf (sorted).
    pub fn members(&self) -> &[NodeId] {
        self.groups[&self.me].members()
    }

    /// Reliably broadcasts `data` to the super-leaf (including self-delivery).
    ///
    /// Returns the sequence number in this node's broadcast order, or `None`
    /// if this node currently does not lead its own group (possible briefly
    /// after a false-positive failure detection; callers may retry).
    pub fn broadcast(&mut self, data: Bytes, now: Time, out: &mut Outbox) -> Option<u64> {
        let group = self.groups.get_mut(&self.me).expect("own group exists");
        group.propose(data, now, out)
    }

    /// Routes one incoming Raft message to its group; returns any newly
    /// delivered broadcasts (across all groups, grouped by origin, in each
    /// origin's log order).
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: RaftMsg,
        now: Time,
        rng: &mut SmallRng,
        out: &mut Outbox,
    ) -> Vec<Delivery> {
        let owner = NodeId(msg.group().0);
        let Some(group) = self.groups.get_mut(&owner) else {
            return Vec::new(); // unknown group: stale traffic after reconfig
        };
        group.handle(from, msg, now, rng, out);
        self.drain_deliveries()
    }

    /// Drives timeouts for all groups; returns any deliveries unlocked by
    /// elections (rare — only after owner failure).
    pub fn tick(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) -> Vec<Delivery> {
        for group in self.groups.values_mut() {
            group.tick(now, rng, out);
        }
        self.drain_deliveries()
    }

    /// Hands over what the groups committed and lets each group drop the
    /// part of its log nobody needs any more: a delivered payload lives on
    /// in the host, not here.
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        for (&owner, group) in self.groups.iter_mut() {
            for (seq, data) in group.take_delivered() {
                deliveries.push(Delivery {
                    origin: owner,
                    seq,
                    data,
                });
            }
            group.compact();
        }
        deliveries
    }

    /// Log entries held in memory, summed over the groups.
    pub fn retained_entries(&self) -> usize {
        self.groups.values().map(RaftCore::retained_len).sum()
    }

    /// Whether some group has discarded entries this node does not hold:
    /// it lost its logs, and only a peer's state can bring it back.
    pub fn needs_snapshot(&self) -> bool {
        self.groups.values().any(RaftCore::needs_snapshot)
    }

    /// Where this node's host stands in every group's log, by owner: the
    /// `(index, term)` of the last entry each group delivered.
    pub fn delivered_points(&self) -> Vec<(NodeId, (u64, u64))> {
        (self.groups.iter())
            .map(|(&owner, group)| (owner, group.delivered_point()))
            .collect()
    }

    /// Moves every group to a peer's [`Self::delivered_points`], for a
    /// host that has taken over that peer's state. All or nothing: false
    /// if any group here has already delivered past its point.
    pub fn resume_at(
        &mut self,
        points: &[(NodeId, (u64, u64))],
        now: Time,
        rng: &mut SmallRng,
    ) -> bool {
        let behind = |(owner, point): &(NodeId, (u64, u64))| {
            (self.groups.get(owner)).is_some_and(|g| g.delivered_point().0 <= point.0)
        };
        if points.len() != self.groups.len() || !points.iter().all(behind) {
            return false;
        }
        for (owner, point) in points {
            let group = self.groups.get_mut(owner).expect("checked");
            group.resume_at(*point, now, rng);
        }
        true
    }

    /// Whether this node currently leads its own broadcast group.
    pub fn leads_own_group(&self) -> bool {
        self.groups[&self.me].is_leader()
    }

    /// Campaigns to reclaim leadership of this node's own group (no-op if
    /// already leading, or if the last such campaign was less than an
    /// election timeout ago). The owner's log may lack what the usurper
    /// appended — at least its no-op — and then the campaign is refused;
    /// the pacing leaves the other members time to elect a leader that
    /// brings the owner up to date, after which its next campaign wins.
    pub fn reclaim_own_group(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        let group = self.groups.get_mut(&self.me).expect("own group exists");
        group.force_election(now, rng, out);
    }

    /// Whether this node currently leads the group owned by `owner` (true
    /// after winning the election triggered by `owner`'s failure).
    pub fn leads_group_of(&self, owner: NodeId) -> bool {
        self.groups.get(&owner).is_some_and(|g| g.is_leader())
    }

    /// Proposes `data` into the group owned by `owner`. Used by a successor
    /// leader to append administrative entries (tombstones) totally ordered
    /// with the owner's broadcasts. Returns the log index, or `None` if
    /// this node does not lead that group.
    pub fn propose_into(
        &mut self,
        owner: NodeId,
        data: Bytes,
        now: Time,
        out: &mut Outbox,
    ) -> Option<u64> {
        let group = self.groups.get_mut(&owner)?;
        group.propose(data, now, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_sim::{
        impl_process_any, Context, Dur, LossyFabric, Payload, Process, Simulation, Timer,
        UniformFabric,
    };

    /// Host process used to exercise broadcast inside the simulator.
    #[derive(Debug)]
    struct HostMsg(RaftMsg);

    impl Payload for HostMsg {
        fn wire_size(&self) -> usize {
            self.0.wire_size()
        }
    }

    struct Host {
        bcast: Option<SuperLeafBroadcast>,
        members: Vec<NodeId>,
        delivered: Vec<Delivery>,
        /// Payloads to broadcast at staggered times.
        to_send: Vec<Bytes>,
    }

    const TICK: u64 = 1;
    const SEND: u64 = 2;

    impl Process<HostMsg> for Host {
        fn on_start(&mut self, ctx: &mut Context<'_, HostMsg>) {
            let mut rng = ctx.rng().clone();
            self.bcast = Some(SuperLeafBroadcast::new(
                ctx.id(),
                &self.members.clone(),
                RaftConfig::default(),
                ctx.now(),
                &mut rng,
            ));
            ctx.set_timer(Dur::millis(1), TICK);
            if !self.to_send.is_empty() {
                ctx.set_timer(Dur::micros(100), SEND);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: HostMsg, ctx: &mut Context<'_, HostMsg>) {
            let bcast = self.bcast.as_mut().unwrap();
            let mut out = Outbox::new();
            let mut rng = ctx.rng().clone();
            let delivered = bcast.handle(from, msg.0, ctx.now(), &mut rng, &mut out);
            self.delivered.extend(delivered);
            for (to, m) in out {
                ctx.send(to, HostMsg(m));
            }
        }

        fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, HostMsg>) {
            let bcast = self.bcast.as_mut().unwrap();
            let mut out = Outbox::new();
            let mut rng = ctx.rng().clone();
            match timer.token {
                TICK => {
                    let delivered = bcast.tick(ctx.now(), &mut rng, &mut out);
                    self.delivered.extend(delivered);
                    ctx.set_timer(Dur::millis(1), TICK);
                }
                SEND => {
                    if let Some(data) = self.to_send.pop() {
                        bcast.broadcast(data, ctx.now(), &mut out);
                    }
                    if !self.to_send.is_empty() {
                        ctx.set_timer(Dur::micros(100), SEND);
                    }
                }
                _ => unreachable!(),
            }
            for (to, m) in out {
                ctx.send(to, HostMsg(m));
            }
        }

        impl_process_any!();
    }

    fn build(
        n: usize,
        payloads_for: impl Fn(usize) -> Vec<Bytes>,
        loss: f64,
        seed: u64,
    ) -> (Simulation<HostMsg, LossyFabric<UniformFabric>>, Vec<NodeId>) {
        let fabric = LossyFabric::new(UniformFabric::new(Dur::micros(25)), loss);
        let mut sim = Simulation::new(fabric, seed);
        let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for i in 0..n {
            sim.add_node(Box::new(Host {
                bcast: None,
                members: members.clone(),
                delivered: Vec::new(),
                to_send: payloads_for(i),
            }));
        }
        (sim, members)
    }

    fn delivered_keys(
        sim: &Simulation<HostMsg, LossyFabric<UniformFabric>>,
        id: NodeId,
    ) -> Vec<(NodeId, u64, Bytes)> {
        let host = sim.node::<Host>(id);
        let mut keys: Vec<_> = host
            .delivered
            .iter()
            .map(|d| (d.origin, d.seq, d.data.clone()))
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn all_members_deliver_all_broadcasts() {
        let (mut sim, members) = build(3, |i| vec![Bytes::from(format!("from-{i}"))], 0.0, 1);
        sim.run_for(Dur::millis(50));
        let reference = delivered_keys(&sim, members[0]);
        assert_eq!(reference.len(), 3, "one broadcast per member");
        for &m in &members[1..] {
            assert_eq!(delivered_keys(&sim, m), reference);
        }
    }

    #[test]
    fn per_origin_order_is_preserved() {
        let (mut sim, members) = build(
            3,
            |i| {
                if i == 0 {
                    (0..10)
                        .rev()
                        .map(|k| Bytes::from(format!("m{k}")))
                        .collect()
                } else {
                    vec![]
                }
            },
            0.0,
            2,
        );
        sim.run_for(Dur::millis(100));
        for &m in &members {
            let host = sim.node::<Host>(m);
            let from_zero: Vec<&Delivery> = host
                .delivered
                .iter()
                .filter(|d| d.origin == NodeId(0))
                .collect();
            assert_eq!(from_zero.len(), 10);
            for (k, d) in from_zero.iter().enumerate() {
                assert_eq!(d.seq, k as u64 + 1, "seq in order");
                // to_send is popped from the back, so "m0".."m9" in order.
                assert_eq!(d.data, Bytes::from(format!("m{k}")));
            }
        }
    }

    #[test]
    fn broadcast_survives_message_loss() {
        // 10% loss: Raft retries via heartbeats until everyone delivers.
        let (mut sim, members) = build(3, |i| vec![Bytes::from(format!("lossy-{i}"))], 0.10, 3);
        sim.run_for(Dur::millis(500));
        let reference = delivered_keys(&sim, members[0]);
        assert_eq!(reference.len(), 3);
        for &m in &members[1..] {
            assert_eq!(delivered_keys(&sim, m), reference);
        }
    }

    #[test]
    fn survivors_agree_after_owner_crash() {
        // Node 0 broadcasts then crashes; the remaining members must agree
        // on whether its message was delivered (both-or-neither).
        let (mut sim, members) = build(5, |i| vec![Bytes::from(format!("c-{i}"))], 0.0, 4);
        sim.run_for(Dur::micros(150)); // let node 0 propose
        sim.crash(members[0]);
        sim.run_for(Dur::millis(200));
        let a = delivered_keys(&sim, members[1]);
        for &m in &members[2..] {
            assert_eq!(delivered_keys(&sim, m), a, "survivors diverged");
        }
        // All four survivor broadcasts must be present.
        let survivor_msgs = a
            .iter()
            .filter(|(origin, _, _)| *origin != members[0])
            .count();
        assert_eq!(survivor_msgs, 4);
    }

    #[test]
    fn broadcast_works_in_two_node_superleaf() {
        let (mut sim, members) = build(2, |i| vec![Bytes::from(format!("duo-{i}"))], 0.0, 5);
        sim.run_for(Dur::millis(50));
        assert_eq!(delivered_keys(&sim, members[0]).len(), 2);
        assert_eq!(
            delivered_keys(&sim, members[0]),
            delivered_keys(&sim, members[1])
        );
    }
}
