//! Super-leaf reliable broadcast (paper §4.3).
//!
//! Within a super-leaf every node creates its own dedicated Raft group and
//! becomes its initial leader; all super-leaf peers join as followers.
//! A node broadcasts by proposing into *its own* group; the Raft log
//! replication then guarantees the reliable-broadcast properties (validity,
//! integrity, agreement) the Canopus proof assumes (A4): either all live
//! members deliver a message or none do, in a consistent per-origin order.
//!
//! How soon a broadcast is delivered depends on the super-leaf's size. In
//! one of two or three members — livebench's 3×3 cluster, the wide-area
//! deployments' three per site — the owner and any one peer are a
//! majority of its group, so a peer delivers as soon as it appends the
//! owner's entry, half a round trip after the broadcast, and the owner
//! once the first ack is back, one round trip after it: two messages per
//! peer, the append and its ack. In a super-leaf of four or more a peer
//! waits for the owner's commit notification, one and a half round trips,
//! and each broadcast costs four messages per peer. [`crate::core`]'s
//! module docs give the safety argument for the first and why the second
//! falls back.
//!
//! If a node fails, the followers of its group elect a new leader who
//! completes any in-flight replication — exactly the paper's "the new
//! leader completes any incomplete log replication" — after which the group
//! simply goes quiet (a crashed owner proposes nothing new).
//!
//! A live owner can lose its group too: a peer that falsely suspects it
//! (heavy CPU load delays heartbeats) wins the group's election. What the
//! owner hands to [`SuperLeafBroadcast::broadcast`] meanwhile waits here,
//! and what it had proposed on its stale term — which the usurper may
//! truncate — goes again, once [`SuperLeafBroadcast::tick`] has won the
//! group back: whatever is broadcast is delivered once the group can be
//! led, in broadcast order, and the host never sees the usurpation.

use std::collections::{BTreeMap, VecDeque};

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
    /// Broadcasts this node's own group has yet to accept, oldest first:
    /// handed over, or in flight, while the group was usurped.
    unsent: VecDeque<Bytes>,
    /// Broadcasts the own group accepted and has not delivered back yet,
    /// in broadcast order. Until it is committed an entry can still be
    /// truncated by a usurper of the group — typically one that this node,
    /// descheduled past the election timeout, proposed under its stale
    /// term — so these go again once the group is won back.
    in_flight: VecDeque<Bytes>,
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
        SuperLeafBroadcast {
            me,
            groups,
            unsent: VecDeque::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The members of the super-leaf (sorted).
    pub fn members(&self) -> &[NodeId] {
        self.groups[&self.me].members()
    }

    /// Reliably broadcasts `data` to the super-leaf (including
    /// self-delivery). While this node does not lead its own group the
    /// payload waits; [`Self::tick`] sends it. A payload in flight when the
    /// group was usurped may be delivered twice.
    pub fn broadcast(&mut self, data: Bytes, now: Time, out: &mut Outbox) {
        self.unsent.push_back(data);
        self.propose_unsent(now, out);
    }

    /// Proposes what is queued into the own group, oldest first, for as
    /// long as this node leads it.
    fn propose_unsent(&mut self, now: Time, out: &mut Outbox) {
        let group = self.groups.get_mut(&self.me).expect("own group exists");
        while let Some(data) = self.unsent.pop_front() {
            if group.propose(data.clone(), now, out).is_none() {
                self.unsent.push_front(data);
                return;
            }
            self.in_flight.push_back(data);
        }
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
    /// elections (rare — only after owner failure). A usurped own group is
    /// campaigned for while there is something to broadcast, and what
    /// waited for it goes out once it is led again.
    pub fn tick(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) -> Vec<Delivery> {
        for group in self.groups.values_mut() {
            group.tick(now, rng, out);
        }
        let deliveries = self.drain_deliveries();
        let own = self.groups.get_mut(&self.me).expect("own group exists");
        if own.is_leader() {
            self.propose_unsent(now, out);
        } else {
            // What was in flight goes again, ahead of what was queued
            // since; an item that did survive is delivered twice.
            while let Some(data) = self.in_flight.pop_back() {
                self.unsent.push_front(data);
            }
            if !self.unsent.is_empty() {
                // Paced by the group: a campaign the owner loses (its
                // log lacks the usurper's no-op) must leave the others
                // time to elect a leader that brings it up to date.
                own.force_election(now, rng, out);
            }
        }
        deliveries
    }

    /// Hands over what the groups committed and lets each group drop the
    /// part of its log nobody needs any more: a delivered payload lives on
    /// in the host, not here.
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        for (&owner, group) in self.groups.iter_mut() {
            for (seq, data) in group.take_delivered() {
                if owner == self.me && self.in_flight.front() == Some(&data) {
                    self.in_flight.pop_front();
                }
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
    /// host that has taken over that peer's state, and forgets what was
    /// waiting to be broadcast: it belongs to the history the host gave up.
    /// All or nothing: false if any group here has already delivered past
    /// its point.
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
        self.unsent.clear();
        self.in_flight.clear();
        true
    }

    /// Proposes `data` into the group owned by `owner`. Used by a successor
    /// leader to append administrative entries (tombstones) totally ordered
    /// with the owner's broadcasts. Returns the log index, or `None` if
    /// this node does not lead that group (it does after winning the
    /// election that `owner`'s failure sets off).
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
        impl_process_any, Context, Dur, FaultAction, FaultyFabric, Payload, Process, Simulation,
        Timer, UniformFabric,
    };

    type Fabric = FaultyFabric<UniformFabric>;

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
            let (me, now) = (ctx.id(), ctx.now());
            let cfg = RaftConfig::default();
            self.bcast = Some(SuperLeafBroadcast::new(
                me,
                &self.members,
                cfg,
                now,
                ctx.rng(),
            ));
            ctx.set_timer(Dur::millis(1), TICK);
            if !self.to_send.is_empty() {
                ctx.set_timer(Dur::micros(100), SEND);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: HostMsg, ctx: &mut Context<'_, HostMsg>) {
            let bcast = self.bcast.as_mut().unwrap();
            let mut out = Outbox::new();
            let delivered = bcast.handle(from, msg.0, ctx.now(), ctx.rng(), &mut out);
            self.delivered.extend(delivered);
            for (to, m) in out {
                ctx.send(to, HostMsg(m));
            }
        }

        fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, HostMsg>) {
            let bcast = self.bcast.as_mut().unwrap();
            let mut out = Outbox::new();
            match timer.token {
                TICK => {
                    let delivered = bcast.tick(ctx.now(), ctx.rng(), &mut out);
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
    ) -> (Simulation<HostMsg, Fabric>, Vec<NodeId>) {
        let mut fabric = FaultyFabric::new(UniformFabric::new(Dur::micros(25)));
        fabric.faults_mut().apply(&FaultAction::SetLoss(loss));
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

    fn delivered_keys(sim: &Simulation<HostMsg, Fabric>, id: NodeId) -> Vec<(NodeId, u64, Bytes)> {
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

    /// A cut that outlasts an election timeout: a peer usurps node 0's
    /// group while node 0, alive, goes on broadcasting — first into its
    /// stale term, where Raft truncates it after the heal, then into the
    /// queue. Once node 0 has its group back every member has delivered
    /// every payload, in broadcast order.
    #[test]
    fn a_usurped_owner_broadcasts_everything_once_it_leads_again() {
        // One payload per 100 µs: 60 ms of broadcasting.
        let sent: Vec<Bytes> = (0..600).map(|k| Bytes::from(format!("m{k:03}"))).collect();
        let leads_group_0 = |sim: &Simulation<HostMsg, Fabric>, n: u32| {
            let bcast = sim.node::<Host>(NodeId(n)).bcast.as_ref().unwrap();
            bcast.groups[&NodeId(0)].is_leader()
        };
        for seed in 6..10 {
            // `to_send` is popped from the back.
            let script = |i| match i {
                0 => sent.iter().rev().cloned().collect(),
                _ => vec![],
            };
            let (mut sim, members) = build(3, script, 0.0, seed);
            sim.run_for(Dur::millis(5));
            let cut = FaultAction::Cut(members[..1].to_vec(), members[1..].to_vec());
            sim.fabric_mut().faults_mut().apply(&cut);
            sim.run_for(Dur::millis(40));
            assert!(
                leads_group_0(&sim, 1) || leads_group_0(&sim, 2),
                "seed {seed}: the cut did not cost node 0 its group"
            );
            sim.fabric_mut().faults_mut().apply(&FaultAction::HealAll);
            sim.run_for(Dur::millis(300));

            assert!(leads_group_0(&sim, 0), "seed {seed}: not won back");
            let owner = sim.node::<Host>(members[0]).bcast.as_ref().unwrap();
            assert!(owner.unsent.is_empty() && owner.in_flight.is_empty());
            for &m in &members {
                let mut got: Vec<Bytes> = (sim.node::<Host>(m).delivered.iter())
                    .map(|d| d.data.clone())
                    .collect();
                // What was in flight at the usurpation may arrive twice,
                // next to itself.
                got.dedup();
                assert_eq!(got, sent, "seed {seed}: at {m}");
            }
        }
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
