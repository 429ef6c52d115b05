//! A compact, correct Raft core: leader election, log replication, and
//! commit tracking.
//!
//! Canopus (§4.3) uses Raft *within a super-leaf* as its software reliable
//! broadcast: each node leads its own single-purpose Raft group whose
//! followers are its super-leaf peers. This module implements the group
//! machinery; [`crate::broadcast`] assembles the per-node groups into the
//! super-leaf broadcast primitive.
//!
//! The implementation is sans-IO and tick-driven: the host process calls
//! [`RaftCore::tick`] periodically and [`RaftCore::handle`] for every
//! incoming [`RaftMsg`]; both push outbound messages into a caller-provided
//! buffer. Committed entries are drained with [`RaftCore::take_delivered`].
//!
//! Standard Raft details implemented here: randomized election timeouts,
//! vote up-to-dateness checks, the AppendEntries consistency check with
//! conflict truncation, commit only of current-term entries by counting
//! replicas, and a no-op entry appended on leadership change so earlier-term
//! entries commit promptly.
//!
//! # Commit at the follower
//!
//! A follower learns what is committed from the leader's commit index on
//! every `AppendEntries`. In a group of at most three members it also
//! concludes it by itself: after a successful append whose last matched
//! entry has the message's term, that entry and everything before it are
//! committed, and the follower delivers them without waiting for the leader
//! to say so. In a trio one broadcast is then two appends and two acks —
//! followers deliver half a round trip after the owner proposes, the owner
//! one round trip after — where the leader's notification used to add two
//! more messages, two more acks and a round trip.
//!
//! *Why it is Raft's rule.* Raft (§5.4.2) commits an entry once the leader
//! of the entry's term has stored it on a majority. The leader of term `T`
//! sent this entry and keeps it; this follower has just stored it; in a
//! group of at most three the two of them are a majority. The follower is
//! the member that knows both facts first, so it applies the rule the
//! leader would apply one round trip later, to the same entry.
//!
//! *A leader change between append and delivery.* Suppose the follower has
//! delivered index `i` of term `T` and the leader fails before anyone has
//! heard its ack. Every later leader needs votes from a majority, and in a
//! group of at most three any majority contains the old leader or this
//! follower. Each held the entry before it could vote in a term after `T`:
//! the leader appended it in `T`, the follower stored it while its term was
//! `T` and no leader of `T` or later removes it (Log Matching, and by
//! induction over the terms that follow). The vote's up-to-date check then
//! refuses any candidate whose log lacks it, so every later leader holds
//! entry `i` and, by Log Matching, everything before it: leader
//! completeness, unchanged from the leader-counted proof. Like that proof
//! it assumes a member keeps what it appended; the leader's count rests on
//! the same two members holding the same entry.
//!
//! *Why an earlier-term entry never counts.* An entry of term `T' < T` held
//! by the leader of `T` and one follower is on a majority but not
//! committed: a candidate whose last entry has a term between `T'` and `T`
//! can still win votes from members that hold the `T'` entry and overwrite
//! it (Figure 8 of the Raft paper). So a follower counts only an entry of
//! the message's own term; an earlier-term entry it holds is delivered once
//! a current-term entry behind it is — the no-op a new leader appends.
//!
//! *Why four or more members fall back.* There the leader and one follower
//! are not a majority, and no follower can see how many others hold an
//! entry. The leader counts the acks and, when its commit index moves,
//! sends every follower an empty `AppendEntries` carrying it; followers of
//! such groups (a super-leaf of four or more) deliver through that
//! notification alone. Which path a group takes is its size.
//!
//! Two things keep a long-lived group cheap. Replication is pipelined: a
//! follower's `next_index` advances when an append is *sent*, so each entry
//! travels to each follower once and a failed reply backs up. And the log
//! is bounded: a host that has consumed its deliveries calls
//! [`RaftCore::compact`], which discards the prefix that is delivered
//! locally *and* that every member is known to hold — the leader knows the
//! smallest match index, followers are told what the leader discarded on
//! every AppendEntries. Nothing a silent member still lacks is ever
//! dropped, so any successor leader can complete replication.
//!
//! What compaction cannot serve is a member that comes back *without* the
//! log it once acknowledged. Such a member is never skipped ahead silently:
//! it refuses the appends, reports [`RaftCore::needs_snapshot`], and stays
//! where it is until its host has obtained the state behind some peer's
//! [`RaftCore::delivered_point`] and calls [`RaftCore::resume_at`].

use bytes::{Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_sim::{Dur, NodeId, Time};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Identifies a Raft group. In super-leaf broadcast, the group id is the
/// owner node's id.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

impl Wire for GroupId {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(GroupId(u32::decode(buf)?))
    }
}

/// One replicated log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Term in which the entry was appended by a leader.
    pub term: u64,
    /// Opaque command payload. Empty payloads are leadership no-ops and are
    /// not delivered to the host.
    pub data: Bytes,
}

impl Wire for Entry {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.data.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Entry {
            term: u64::decode(buf)?,
            data: Bytes::decode(buf)?,
        })
    }
}

/// Raft protocol messages for one group.
#[derive(Clone, Debug, PartialEq)]
pub enum RaftMsg {
    /// Candidate solicits a vote.
    RequestVote {
        /// Group this message belongs to.
        group: GroupId,
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Response to `RequestVote`.
    VoteReply {
        /// Group this message belongs to.
        group: GroupId,
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat, or in a group of more
    /// than three the commit notification).
    AppendEntries {
        /// Group this message belongs to.
        group: GroupId,
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append (may be empty).
        entries: Vec<Entry>,
        /// Leader's commit index.
        commit: u64,
        /// Index up to which the leader has discarded its log: every
        /// member held those entries, so a follower that has delivered
        /// them may discard them too.
        discarded: u64,
    },
    /// Response to `AppendEntries`.
    AppendReply {
        /// Group this message belongs to.
        group: GroupId,
        /// Follower's current term.
        term: u64,
        /// Whether the consistency check passed and entries were appended.
        success: bool,
        /// Follower's highest matching index when `success`, else the
        /// follower's hint for where to back up to.
        match_index: u64,
    },
}

impl RaftMsg {
    /// The group this message targets.
    pub fn group(&self) -> GroupId {
        match self {
            RaftMsg::RequestVote { group, .. }
            | RaftMsg::VoteReply { group, .. }
            | RaftMsg::AppendEntries { group, .. }
            | RaftMsg::AppendReply { group, .. } => *group,
        }
    }

    /// Encoded size, used for network modelling; equal to `encoded_len`.
    pub fn wire_size(&self) -> usize {
        match self {
            RaftMsg::RequestVote { .. } => 29,
            RaftMsg::VoteReply { .. } => 14,
            RaftMsg::AppendEntries { entries, .. } => {
                49 + entries.iter().map(|e| 12 + e.data.len()).sum::<usize>()
            }
            RaftMsg::AppendReply { .. } => 22,
        }
    }
}

impl Wire for RaftMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RaftMsg::RequestVote {
                group,
                term,
                last_log_index,
                last_log_term,
            } => {
                0u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                last_log_index.encode(buf);
                last_log_term.encode(buf);
            }
            RaftMsg::VoteReply {
                group,
                term,
                granted,
            } => {
                1u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                granted.encode(buf);
            }
            RaftMsg::AppendEntries {
                group,
                term,
                prev_index,
                prev_term,
                entries,
                commit,
                discarded,
            } => {
                2u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                prev_index.encode(buf);
                prev_term.encode(buf);
                entries.encode(buf);
                commit.encode(buf);
                discarded.encode(buf);
            }
            RaftMsg::AppendReply {
                group,
                term,
                success,
                match_index,
            } => {
                3u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                success.encode(buf);
                match_index.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(RaftMsg::RequestVote {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                last_log_index: u64::decode(buf)?,
                last_log_term: u64::decode(buf)?,
            }),
            1 => Ok(RaftMsg::VoteReply {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                granted: bool::decode(buf)?,
            }),
            2 => Ok(RaftMsg::AppendEntries {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                prev_index: u64::decode(buf)?,
                prev_term: u64::decode(buf)?,
                entries: Vec::<Entry>::decode(buf)?,
                commit: u64::decode(buf)?,
                discarded: u64::decode(buf)?,
            }),
            3 => Ok(RaftMsg::AppendReply {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                success: bool::decode(buf)?,
                match_index: u64::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("raft msg tag")),
        }
    }
}

/// Raft timing parameters. Defaults suit an intra-rack deployment where the
/// one-way latency is tens of microseconds.
#[derive(Copy, Clone, Debug)]
pub struct RaftConfig {
    /// Leader sends an empty AppendEntries if idle this long.
    pub heartbeat_interval: Dur,
    /// Minimum follower election timeout.
    pub election_timeout_min: Dur,
    /// Maximum follower election timeout.
    pub election_timeout_max: Dur,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            heartbeat_interval: Dur::millis(2),
            election_timeout_min: Dur::millis(10),
            election_timeout_max: Dur::millis(20),
        }
    }
}

/// The role a peer currently plays in its group.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Role {
    /// Accepts entries from the leader.
    Follower,
    /// Soliciting votes after an election timeout.
    Candidate,
    /// Replicating entries to followers.
    Leader,
}

/// Outbound message buffer: `(destination, message)` pairs.
pub type Outbox = Vec<(NodeId, RaftMsg)>;

/// A single Raft group member.
#[derive(Debug)]
pub struct RaftCore {
    cfg: RaftConfig,
    group: GroupId,
    me: NodeId,
    members: Vec<NodeId>,
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    votes: BTreeSet<NodeId>,
    /// Retained log entries; `log[i]` has index `base_index + i + 1`.
    log: VecDeque<Entry>,
    /// Index and term of the last discarded entry (0, 0: none).
    base_index: u64,
    base_term: u64,
    /// Highest index every member is known to hold: the smallest match
    /// index as leader, what the leader reports discarded as follower.
    held_by_all: u64,
    commit_index: u64,
    delivered: u64,
    /// The leader has discarded entries this member does not hold.
    needs_snapshot: bool,
    election_deadline: Time,
    /// Earliest instant of the next [`RaftCore::force_election`] campaign.
    next_forced: Time,
    next_heartbeat: Time,
    next_index: BTreeMap<NodeId, u64>,
    match_index: BTreeMap<NodeId, u64>,
}

impl RaftCore {
    /// Creates a member of `group`. If `initial_leader` is true the node
    /// boots as leader of term 1 (used by super-leaf broadcast groups,
    /// where each node starts as the leader of its own group, §4.3);
    /// otherwise it boots as a follower that expects term-1 traffic.
    pub fn new(
        group: GroupId,
        me: NodeId,
        members: Vec<NodeId>,
        cfg: RaftConfig,
        initial_leader: bool,
        now: Time,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(members.contains(&me), "members must include self");
        assert!(!members.is_empty());
        let mut sorted = members;
        sorted.sort_unstable();
        sorted.dedup();
        let mut core = RaftCore {
            cfg,
            group,
            me,
            members: sorted,
            role: Role::Follower,
            term: 1,
            voted_for: None,
            votes: BTreeSet::new(),
            log: VecDeque::new(),
            base_index: 0,
            base_term: 0,
            held_by_all: 0,
            commit_index: 0,
            delivered: 0,
            needs_snapshot: false,
            election_deadline: Time::ZERO,
            next_forced: Time::ZERO,
            next_heartbeat: Time::ZERO,
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
        };
        if initial_leader {
            core.become_leader(now);
        } else {
            core.reset_election_deadline(now, rng);
        }
        core
    }

    /// This member's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Current commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Index of the last log entry (discarded ones count).
    pub fn log_len(&self) -> u64 {
        self.last_log_index()
    }

    /// Number of entries currently held in memory.
    pub fn retained_len(&self) -> usize {
        self.log.len()
    }

    /// Whether this member currently leads the group.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Group members (sorted).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Whether the leader and any one follower are a majority — a group of
    /// at most three — so that a follower knows, when it appends an entry
    /// of the leader's term, that it is committed (see the module docs).
    fn follower_commits_on_append(&self) -> bool {
        self.members.len() <= 3
    }

    fn last_log_index(&self) -> u64 {
        self.base_index + self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log.back().map_or(self.base_term, |e| e.term)
    }

    /// The retained entry at `index` (which must be above the base).
    fn entry(&self, index: u64) -> &Entry {
        &self.log[(index - self.base_index - 1) as usize]
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == self.base_index {
            self.base_term
        } else {
            self.entry(index).term
        }
    }

    fn reset_election_deadline(&mut self, now: Time, rng: &mut SmallRng) {
        let min = self.cfg.election_timeout_min.as_nanos();
        let max = self.cfg.election_timeout_max.as_nanos().max(min + 1);
        let timeout = Dur::nanos(rng.gen_range(min..max));
        self.election_deadline = now + timeout;
    }

    fn become_leader(&mut self, now: Time) {
        self.role = Role::Leader;
        self.next_index.clear();
        self.match_index.clear();
        let next = self.last_log_index() + 1;
        for &peer in &self.members {
            if peer != self.me {
                self.next_index.insert(peer, next);
                self.match_index.insert(peer, 0);
            }
        }
        self.next_heartbeat = now; // heartbeat immediately

        // Commit entries from prior terms by appending a no-op in our term
        // (Raft §5.4.2). Skipped for a fresh log: there is nothing to flush.
        if self.last_log_index() > 0 {
            self.log.push_back(Entry {
                term: self.term,
                data: Bytes::new(),
            });
        }
        self.recompute_commit();
    }

    fn become_follower(&mut self, term: u64, now: Time, rng: &mut SmallRng) {
        self.role = Role::Follower;
        self.term = term;
        self.voted_for = None;
        self.votes.clear();
        self.reset_election_deadline(now, rng);
    }

    /// Appends a command to the log. Returns its index, or `None` if this
    /// member is not currently the leader (callers should surface the error
    /// to the proposer; super-leaf broadcast never proposes to groups it
    /// does not own).
    pub fn propose(&mut self, data: Bytes, now: Time, out: &mut Outbox) -> Option<u64> {
        if self.role != Role::Leader {
            return None;
        }
        assert!(!data.is_empty(), "empty payloads are reserved for no-ops");
        self.log.push_back(Entry {
            term: self.term,
            data,
        });
        let index = self.last_log_index();
        self.broadcast_appends(now, out);
        // A single-member group commits immediately.
        self.recompute_commit();
        Some(index)
    }

    /// Sends AppendEntries to every follower, tailored to its `next_index`.
    fn broadcast_appends(&mut self, now: Time, out: &mut Outbox) {
        let peers: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        for peer in peers {
            self.send_append(peer, out);
        }
        self.next_heartbeat = now + self.cfg.heartbeat_interval;
    }

    /// Sends `peer` everything from its `next_index` on and moves
    /// `next_index` past it, so an entry travels to a follower once; a
    /// failed reply backs `next_index` up again.
    fn send_append(&mut self, peer: NodeId, out: &mut Outbox) {
        // Everything up to the base is held by every member.
        let next = (*self.next_index.get(&peer).unwrap_or(&1)).max(self.base_index + 1);
        let prev_index = next - 1;
        let prev_term = self.term_at(prev_index);
        let entries: Vec<Entry> = self
            .log
            .range((prev_index - self.base_index) as usize..)
            .cloned()
            .collect();
        self.next_index.insert(peer, self.last_log_index() + 1);
        out.push((
            peer,
            RaftMsg::AppendEntries {
                group: self.group,
                term: self.term,
                prev_index,
                prev_term,
                entries,
                commit: self.commit_index,
                discarded: self.base_index,
            },
        ));
    }

    /// Advances time-based behaviour: election timeouts and heartbeats.
    pub fn tick(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        match self.role {
            Role::Leader => {
                if now >= self.next_heartbeat {
                    self.broadcast_appends(now, out);
                }
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline && self.members.len() > 1 {
                    self.start_election(now, rng, out);
                } else if self.members.len() == 1 && self.role == Role::Follower {
                    // Sole member: become leader directly.
                    self.term += 1;
                    self.become_leader(now);
                }
            }
        }
    }

    /// Campaigns for leadership at a higher term without waiting for the
    /// election timeout. Used by a broadcast-group owner to reclaim its
    /// group after a transient usurpation (e.g. a false failure suspicion
    /// under CPU overload). At most one campaign per `election_timeout_max`,
    /// however often it is called: a campaign this member loses (its log is
    /// short) still deposes the leader and resets every voter's election
    /// deadline, so the others need a full timeout between two of them to
    /// elect a leader that can bring this member up to date.
    pub fn force_election(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        if self.role != Role::Leader && now >= self.next_forced {
            self.next_forced = now + self.cfg.election_timeout_max;
            self.start_election(now, rng, out);
        }
    }

    fn start_election(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.me);
        self.votes.clear();
        self.votes.insert(self.me);
        self.reset_election_deadline(now, rng);
        if self.votes.len() >= self.majority() {
            self.become_leader(now);
            return;
        }
        for &peer in &self.members {
            if peer != self.me {
                out.push((
                    peer,
                    RaftMsg::RequestVote {
                        group: self.group,
                        term: self.term,
                        last_log_index: self.last_log_index(),
                        last_log_term: self.last_log_term(),
                    },
                ));
            }
        }
    }

    /// Handles one incoming message for this group.
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: RaftMsg,
        now: Time,
        rng: &mut SmallRng,
        out: &mut Outbox,
    ) {
        debug_assert_eq!(msg.group(), self.group);
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
                ..
            } => {
                if term > self.term {
                    self.become_follower(term, now, rng);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let granted = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if granted {
                    self.voted_for = Some(from);
                    self.reset_election_deadline(now, rng);
                }
                out.push((
                    from,
                    RaftMsg::VoteReply {
                        group: self.group,
                        term: self.term,
                        granted,
                    },
                ));
            }
            RaftMsg::VoteReply { term, granted, .. } => {
                if term > self.term {
                    self.become_follower(term, now, rng);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.become_leader(now);
                        self.broadcast_appends(now, out);
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                commit,
                discarded,
                ..
            } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.become_follower(term, now, rng);
                }
                if term < self.term {
                    out.push((
                        from,
                        RaftMsg::AppendReply {
                            group: self.group,
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    ));
                    return;
                }
                // term == self.term and we are a follower.
                self.reset_election_deadline(now, rng);
                if discarded > self.last_log_index() {
                    // Every member held what the leader discarded, so this
                    // one lost its log (a restart without it). The entries
                    // are gone from the group; only the host can get what
                    // they amounted to. Until it has, refuse: the check
                    // below fails, since no append starts before `discarded`.
                    self.needs_snapshot = true;
                }
                // Consistency check. Below the base there is nothing to
                // compare and no need to: those entries are committed.
                if prev_index > self.last_log_index()
                    || (prev_index >= self.base_index && self.term_at(prev_index) != prev_term)
                {
                    // Hint: back up to our log end (simple but effective).
                    let hint = self.last_log_index().min(prev_index.saturating_sub(1));
                    out.push((
                        from,
                        RaftMsg::AppendReply {
                            group: self.group,
                            term: self.term,
                            success: false,
                            match_index: hint,
                        },
                    ));
                    return;
                }
                // Append, truncating conflicts.
                let mut index = prev_index;
                for entry in entries {
                    index += 1;
                    if index <= self.base_index {
                        // already held and discarded
                    } else if index <= self.last_log_index() {
                        if self.term_at(index) != entry.term {
                            self.log.truncate((index - self.base_index - 1) as usize);
                            self.log.push_back(entry);
                        }
                        // else: already have it
                    } else {
                        self.log.push_back(entry);
                    }
                }
                // Everything up to `index` matches the leader's log. What
                // of it the leader has committed is committed; in a small
                // group so is all of it, if it ends in an entry of the
                // leader's term. (`index > commit_index` keeps `term_at`
                // above the base.)
                let own = self.follower_commits_on_append()
                    && index > self.commit_index
                    && self.term_at(index) == term;
                let committed = if own { index } else { commit.min(index) };
                self.commit_index = self.commit_index.max(committed);
                self.held_by_all = self.held_by_all.max(discarded.min(index));
                out.push((
                    from,
                    RaftMsg::AppendReply {
                        group: self.group,
                        term: self.term,
                        success: true,
                        match_index: index,
                    },
                ));
            }
            RaftMsg::AppendReply {
                term,
                success,
                match_index,
                ..
            } => {
                if term > self.term {
                    self.become_follower(term, now, rng);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                if success {
                    // Replies to pipelined appends may arrive late: both
                    // indices only ever move forward here.
                    let matched = self.match_index.entry(from).or_insert(0);
                    *matched = (*matched).max(match_index);
                    let next = self.next_index.entry(from).or_insert(1);
                    *next = (*next).max(match_index + 1);
                    let old_commit = self.commit_index;
                    self.recompute_commit();
                    if self.commit_index > old_commit && !self.follower_commits_on_append() {
                        // Followers of a larger group learn the commit only
                        // from the leader: notify them now rather than at
                        // the next heartbeat (a broadcast delivers at ~1.5
                        // RTT instead of +interval; a smaller group's
                        // followers deliver at 0.5 RTT, on append).
                        // Entries went out when they were proposed, so the
                        // notification itself is empty.
                        self.broadcast_appends(now, out);
                    }
                } else {
                    let next = self
                        .next_index
                        .get(&from)
                        .copied()
                        .unwrap_or(1)
                        .saturating_sub(1)
                        .max(1)
                        .min(match_index + 1);
                    self.next_index.insert(from, next);
                    // A follower that lacks discarded entries cannot be
                    // served from this log (see `needs_snapshot`); the
                    // heartbeat keeps asking, an immediate resend would
                    // only be refused again.
                    if next > self.base_index {
                        self.send_append(from, out);
                    }
                }
            }
        }
    }

    /// Recomputes the commit index from match indices (leader only commits
    /// entries of its own term by counting, Raft §5.4.2).
    fn recompute_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        let mut candidates: Vec<u64> = self
            .members
            .iter()
            .map(|&peer| {
                if peer == self.me {
                    self.last_log_index()
                } else {
                    *self.match_index.get(&peer).unwrap_or(&0)
                }
            })
            .collect();
        candidates.sort_unstable();
        self.held_by_all = self.held_by_all.max(candidates[0]);
        // The majority-th highest match index is replicated on a majority.
        let majority_index = candidates[candidates.len() - self.majority()];
        if majority_index > self.commit_index && self.term_at(majority_index) == self.term {
            self.commit_index = majority_index;
        }
    }

    /// Drains newly committed entries, in log order, skipping no-ops.
    /// Each is `(index, payload)`.
    pub fn take_delivered(&mut self) -> Vec<(u64, Bytes)> {
        let mut out = Vec::new();
        while self.delivered < self.commit_index {
            self.delivered += 1;
            let entry = self.entry(self.delivered);
            if !entry.data.is_empty() {
                out.push((self.delivered, entry.data.clone()));
            }
        }
        out
    }

    /// Discards the log prefix that has been delivered to the host *and*
    /// that every member of the group is known to hold. An entry some
    /// member — however long silent — may still lack is kept, so whoever
    /// leads the group can always bring that member up to date.
    pub fn compact(&mut self) {
        let upto = self.held_by_all.min(self.delivered);
        while self.base_index < upto {
            let entry = self
                .log
                .pop_front()
                .expect("delivered entries are retained");
            self.base_index += 1;
            self.base_term = entry.term;
        }
    }

    /// Whether the leader has discarded entries this member does not hold
    /// — which every member once held, so this one lost its log. The group
    /// cannot help it any more; see [`RaftCore::resume_at`].
    pub fn needs_snapshot(&self) -> bool {
        self.needs_snapshot
    }

    /// `(index, term)` of the last entry handed to the host: the point in
    /// this group's log that the host's state reflects.
    pub fn delivered_point(&self) -> (u64, u64) {
        (self.delivered, self.term_at(self.delivered))
    }

    /// Tells a member whose host has taken over a peer's state where in
    /// this group's log that state stands (the peer's
    /// [`RaftCore::delivered_point`]): everything up to there counts as
    /// delivered. Entries held beyond it stay; a log that does not reach it
    /// is dropped, and a member that believed it led the group on such a
    /// log follows again. Returns false, changing nothing, if the point
    /// lies behind what this member has already delivered.
    pub fn resume_at(&mut self, (index, term): (u64, u64), now: Time, rng: &mut SmallRng) -> bool {
        if index < self.delivered {
            return false;
        }
        let held = (self.base_index..=self.last_log_index()).contains(&index)
            && self.term_at(index) == term;
        if !held {
            self.log.clear();
            (self.base_index, self.base_term) = (index, term);
            if self.role != Role::Follower {
                self.role = Role::Follower;
                self.votes.clear();
                self.reset_election_deadline(now, rng);
            }
        }
        self.commit_index = self.commit_index.max(index);
        self.delivered = index;
        self.needs_snapshot = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn trio(now: Time) -> (RaftCore, RaftCore, RaftCore, SmallRng) {
        let mut r = rng();
        let members = vec![NodeId(0), NodeId(1), NodeId(2)];
        let g = GroupId(0);
        let cfg = RaftConfig::default();
        let a = RaftCore::new(g, NodeId(0), members.clone(), cfg, true, now, &mut r);
        let b = RaftCore::new(g, NodeId(1), members.clone(), cfg, false, now, &mut r);
        let c = RaftCore::new(g, NodeId(2), members, cfg, false, now, &mut r);
        (a, b, c, r)
    }

    /// Synchronously shuttles messages between the three peers until quiet.
    fn pump(cores: &mut [&mut RaftCore], mut queue: Outbox, rng: &mut SmallRng, now: Time) {
        let mut rounds = 0;
        while !queue.is_empty() {
            rounds += 1;
            assert!(rounds < 1000, "message storm");
            let mut next = Outbox::new();
            for (to, msg) in queue.drain(..) {
                let from_sender = msg_sender(&msg, cores, to);
                let target = cores
                    .iter_mut()
                    .find(|c| c.me() == to)
                    .expect("destination exists");
                target.handle(from_sender, msg, now, rng, &mut next);
            }
            queue = next;
        }
    }

    /// Our tests route synchronously; infer senders by exclusion: messages
    /// destined to X from a group with leader semantics come from whoever
    /// could have sent them. For the simple pump we tag the leader/candidate
    /// by scanning. (Production code carries the sender on the wire.)
    fn msg_sender(msg: &RaftMsg, cores: &mut [&mut RaftCore], to: NodeId) -> NodeId {
        match msg {
            RaftMsg::AppendEntries { term, .. } | RaftMsg::RequestVote { term, .. } => cores
                .iter()
                .find(|c| c.term() == *term && c.me() != to && c.role() != Role::Follower)
                .map(|c| c.me())
                .unwrap_or(NodeId(0)),
            // Replies: sender is "the other" node; with three nodes and a
            // single active exchange this is unambiguous in these tests.
            _ => cores.iter().find(|c| c.me() != to).map(|c| c.me()).unwrap(),
        }
    }

    #[test]
    fn initial_leader_replicates_and_commits() {
        let now = Time::ZERO;
        let (mut a, mut b, mut c, mut r) = trio(now);
        let mut out = Outbox::new();
        let idx = a
            .propose(Bytes::from_static(b"x"), now, &mut out)
            .expect("leader proposes");
        assert_eq!(idx, 1);

        // Deliver appends to b and c; collect replies. Each follower and
        // the leader are a majority of three, so both deliver on append.
        let mut replies = Outbox::new();
        for (to, msg) in out.drain(..) {
            match to {
                NodeId(1) => b.handle(NodeId(0), msg, now, &mut r, &mut replies),
                NodeId(2) => c.handle(NodeId(0), msg, now, &mut r, &mut replies),
                other => panic!("unexpected dest {other}"),
            }
        }
        assert_eq!(b.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        assert_eq!(c.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);

        // First reply commits on the leader (majority of 3 = 2), and the
        // leader has nobody left to tell.
        let mut notify = Outbox::new();
        let (reply_to_a, msg) = replies.remove(0);
        assert_eq!(reply_to_a, NodeId(0));
        a.handle(NodeId(1), msg, now, &mut r, &mut notify);
        assert_eq!(a.commit_index(), 1);
        assert_eq!(a.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        assert!(notify.is_empty(), "{notify:?}");
    }

    #[test]
    fn follower_rejects_gap_and_leader_backs_up() {
        let now = Time::ZERO;
        let (mut a, mut b, _c, mut r) = trio(now);
        let mut out = Outbox::new();
        // Leader appends two entries but we only deliver the *second* append
        // (simulating loss of the first).
        a.propose(Bytes::from_static(b"1"), now, &mut out);
        out.clear();
        a.propose(Bytes::from_static(b"2"), now, &mut out);
        // Craft: take the append destined to b; it has prev_index=0 and both
        // entries (since next_index for b is still 1) — so no gap. To force a
        // gap, pretend b's next_index advanced without b hearing anything:
        // send an append with prev_index=1 manually.
        let gap = RaftMsg::AppendEntries {
            group: GroupId(0),
            term: a.term(),
            prev_index: 1,
            prev_term: a.term(),
            entries: vec![Entry {
                term: a.term(),
                data: Bytes::from_static(b"2"),
            }],
            commit: 0,
            discarded: 0,
        };
        let mut replies = Outbox::new();
        b.handle(NodeId(0), gap, now, &mut r, &mut replies);
        let (_, reply) = replies.pop().expect("reply");
        match reply {
            RaftMsg::AppendReply { success, .. } => assert!(!success),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn election_on_leader_silence() {
        let now = Time::ZERO;
        let (_a, mut b, mut c, mut r) = trio(now);
        // No traffic from the leader; advance past the election timeout.
        let later = now + Dur::millis(50);
        let mut out = Outbox::new();
        b.tick(later, &mut r, &mut out);
        // b should have started an election.
        assert_eq!(b.role(), Role::Candidate);
        let vote_reqs: Vec<_> = std::mem::take(&mut out);
        assert_eq!(vote_reqs.len(), 2);
        // c grants the vote.
        let mut replies = Outbox::new();
        let (_, req) = vote_reqs
            .into_iter()
            .find(|(to, _)| *to == NodeId(2))
            .unwrap();
        c.handle(NodeId(1), req, later, &mut r, &mut replies);
        let (_, reply) = replies.pop().unwrap();
        let mut out2 = Outbox::new();
        b.handle(NodeId(2), reply, later, &mut r, &mut out2);
        assert_eq!(b.role(), Role::Leader, "majority of 2 reached");
    }

    #[test]
    fn votes_denied_for_stale_log() {
        let now = Time::ZERO;
        let (mut a, mut b, _c, mut r) = trio(now);
        // Leader a commits an entry that b has.
        let mut out = Outbox::new();
        a.propose(Bytes::from_static(b"x"), now, &mut out);
        for (to, msg) in out.drain(..) {
            if to == NodeId(1) {
                let mut sink = Outbox::new();
                b.handle(NodeId(0), msg, now, &mut r, &mut sink);
            }
        }
        // A candidate with an empty log must not win b's vote.
        let stale = RaftMsg::RequestVote {
            group: GroupId(0),
            term: 5,
            last_log_index: 0,
            last_log_term: 0,
        };
        let mut replies = Outbox::new();
        b.handle(NodeId(2), stale, now, &mut r, &mut replies);
        let (_, reply) = replies.pop().unwrap();
        match reply {
            RaftMsg::VoteReply { granted, .. } => assert!(!granted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn new_leader_completes_replication() {
        // a replicates entry to b only, then "fails". b must become leader
        // (it has the longer log) and bring c up to date — the §4.3 scenario
        // where a new leader completes incomplete broadcasts.
        let now = Time::ZERO;
        let (mut a, mut b, mut c, mut r) = trio(now);
        let mut out = Outbox::new();
        a.propose(Bytes::from_static(b"x"), now, &mut out);
        for (to, msg) in out.drain(..) {
            if to == NodeId(1) {
                let mut sink = Outbox::new();
                b.handle(NodeId(0), msg, now, &mut r, &mut sink);
            }
            // message to c is lost; a crashes now.
        }
        assert_eq!(b.log_len(), 1);
        assert_eq!(c.log_len(), 0);

        // b times out and wins the election against c.
        let later = now + Dur::millis(50);
        let mut out = Outbox::new();
        b.tick(later, &mut r, &mut out);
        let mut replies = Outbox::new();
        for (to, msg) in out.drain(..) {
            if to == NodeId(2) {
                c.handle(NodeId(1), msg, later, &mut r, &mut replies);
            }
        }
        let mut appends = Outbox::new();
        for (_, msg) in replies.drain(..) {
            b.handle(NodeId(2), msg, later, &mut r, &mut appends);
        }
        assert!(b.is_leader());

        // b's first appends carry the old entry plus b's no-op; shuttle
        // messages between b and c (a stays crashed) until quiet, after
        // which both must deliver "x".
        let mut queue: Outbox = appends;
        let mut rounds = 0;
        while !queue.is_empty() {
            rounds += 1;
            assert!(rounds < 100, "message storm between b and c");
            let mut next = Outbox::new();
            for (to, msg) in queue.drain(..) {
                match to {
                    NodeId(1) => b.handle(NodeId(2), msg, later, &mut r, &mut next),
                    NodeId(2) => c.handle(NodeId(1), msg, later, &mut r, &mut next),
                    _ => {} // messages to the crashed node are lost
                }
            }
            queue = next;
        }
        assert_eq!(b.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        assert_eq!(c.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        let _ = pump; // silence unused in this configuration
        let _ = &mut a;
    }

    /// Group members (node 0 leads) and the wire between them, with every
    /// message's sender known. `deliver` runs until quiet, handing each
    /// member what it commits and letting it compact, as a host would.
    struct Net {
        cores: Vec<RaftCore>,
        rng: SmallRng,
        now: Time,
        wire: Vec<(NodeId, NodeId, RaftMsg)>,
        delivered: Vec<Vec<(u64, Bytes)>>,
        /// `(messages, entries carrying a payload)` put on the wire.
        sent: (usize, usize),
    }

    impl Net {
        fn trio() -> Net {
            Net::of(3)
        }

        fn of(n: u32) -> Net {
            let mut rng = rng();
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let cores = (0..n)
                .map(|i| {
                    let cfg = RaftConfig::default();
                    let m = members.clone();
                    RaftCore::new(GroupId(0), NodeId(i), m, cfg, i == 0, Time::ZERO, &mut rng)
                })
                .collect();
            Net {
                cores,
                rng,
                now: Time::ZERO,
                wire: Vec::new(),
                delivered: vec![Vec::new(); n as usize],
                sent: (0, 0),
            }
        }

        fn post(&mut self, from: usize, out: Outbox) {
            for (to, msg) in out {
                self.sent.0 += 1;
                if let RaftMsg::AppendEntries { entries, .. } = &msg {
                    self.sent.1 += entries.iter().filter(|e| !e.data.is_empty()).count();
                }
                self.wire.push((NodeId(from as u32), to, msg));
            }
        }

        fn propose(&mut self, leader: usize, data: Bytes) {
            let mut out = Outbox::new();
            self.cores[leader]
                .propose(data, self.now, &mut out)
                .expect("leads");
            self.post(leader, out);
        }

        /// Delivers until quiet; `lost(from, to)` messages vanish.
        fn deliver(&mut self, lost: impl Fn(usize, usize) -> bool) {
            let mut rounds = 0;
            while !self.wire.is_empty() {
                rounds += 1;
                assert!(rounds < 1000, "message storm");
                self.hop(&lost);
            }
        }

        /// Delivers what is on the wire now (not what that sends).
        fn hop(&mut self, lost: impl Fn(usize, usize) -> bool) {
            for (from, to, msg) in std::mem::take(&mut self.wire) {
                if lost(from.index(), to.index()) {
                    continue;
                }
                let mut out = Outbox::new();
                self.cores[to.index()].handle(from, msg, self.now, &mut self.rng, &mut out);
                self.post(to.index(), out);
            }
            for (core, got) in self.cores.iter_mut().zip(&mut self.delivered) {
                got.extend(core.take_delivered());
                core.compact();
            }
        }

        fn tick(&mut self, member: usize, after: Dur) {
            self.now += after;
            let mut out = Outbox::new();
            self.cores[member].tick(self.now, &mut self.rng, &mut out);
            self.post(member, out);
        }

        /// Delivers the `i`-th message on the wire alone, and hands its
        /// receiver what that commits.
        fn deliver_one(&mut self, i: usize) {
            let (from, to, msg) = self.wire.remove(i);
            let (to, mut out) = (to.index(), Outbox::new());
            self.cores[to].handle(from, msg, self.now, &mut self.rng, &mut out);
            self.post(to, out);
            self.delivered[to].extend(self.cores[to].take_delivered());
            self.cores[to].compact();
        }
    }

    /// Schedules explored per run of
    /// [`no_schedule_delivers_two_payloads_at_one_index`], and steps per
    /// schedule.
    const SCHEDULES: u64 = 5_000;
    const STEPS: usize = 300;

    /// A schedule explorer: a seeded adversary (one seed per schedule)
    /// drives a trio, at each step delivering *any* in-flight message (not
    /// only the oldest), dropping one, advancing the clock (by up to one
    /// heartbeat interval, one time in ten by up to one election timeout)
    /// and ticking one member, or proposing at a leader.
    /// After every step, no two deliveries of one index, at any members,
    /// may carry different payloads. Members keep their state throughout
    /// (no restarts).
    #[test]
    fn no_schedule_delivers_two_payloads_at_one_index() {
        let cfg = RaftConfig::default();
        let heartbeat = cfg.heartbeat_interval.as_nanos();
        let election = cfg.election_timeout_max.as_nanos();
        for seed in 0..SCHEDULES {
            let mut net = Net::trio();
            let mut adversary = SmallRng::seed_from_u64(seed);
            let mut at_index: BTreeMap<u64, Bytes> = BTreeMap::new();
            let mut checked = [0; 3];
            let mut proposed = 0;
            for step in 0..STEPS {
                match adversary.gen_range(0..20) {
                    0..=9 if !net.wire.is_empty() => {
                        net.deliver_one(adversary.gen_range(0..net.wire.len()));
                    }
                    10 if !net.wire.is_empty() => {
                        net.wire.remove(adversary.gen_range(0..net.wire.len()));
                    }
                    11..=15 => {
                        let gap = if adversary.gen_bool(0.1) {
                            election
                        } else {
                            heartbeat
                        };
                        let after = Dur::nanos(adversary.gen_range(0..=gap));
                        net.tick(adversary.gen_range(0..3), after);
                    }
                    _ => {
                        let leaders: Vec<usize> =
                            (0..3).filter(|&m| net.cores[m].is_leader()).collect();
                        if !leaders.is_empty() {
                            proposed += 1;
                            let leader = leaders[adversary.gen_range(0..leaders.len())];
                            net.propose(leader, payload(proposed));
                        }
                    }
                }
                for (member, got) in net.delivered.iter().enumerate() {
                    for (index, data) in &got[checked[member]..] {
                        let first = at_index.entry(*index).or_insert_with(|| data.clone());
                        assert_eq!(
                            first, data,
                            "schedule {seed}, step {step}: index {index} at member {member}"
                        );
                    }
                    checked[member] = got.len();
                }
            }
        }
    }

    fn payload(i: u64) -> Bytes {
        Bytes::from(i.to_le_bytes().to_vec())
    }

    #[test]
    fn one_proposal_ships_the_payload_once_per_follower() {
        let mut net = Net::trio();
        net.propose(0, payload(1));
        // Both followers deliver on append, before the leader has an ack.
        net.hop(|_, _| false);
        assert_eq!(net.cores[0].commit_index(), 0);
        assert_eq!(net.delivered[0], vec![]);
        for got in &net.delivered[1..] {
            assert_eq!(got, &vec![(1, payload(1))]);
        }
        net.deliver(|_, _| false);
        // Two appends carrying the payload and their acks; nothing else.
        assert_eq!(net.sent, (4, 2));
        for got in &net.delivered {
            assert_eq!(got, &vec![(1, payload(1))]);
        }

        // An append that is lost is noticed at the next message from the
        // leader (here the heartbeat), refused, and sent again — once.
        net.sent = (0, 0);
        net.propose(0, payload(2));
        let (_, to, _) = net.wire.remove(1);
        assert_eq!(to, NodeId(2), "the append to c is the one dropped");
        net.deliver(|_, _| false);
        assert_eq!(net.delivered[2], vec![(1, payload(1))], "c lacks it");
        net.tick(0, RaftConfig::default().heartbeat_interval);
        net.deliver(|_, _| false);
        assert_eq!(net.sent.1, 3, "b, c (lost), c again");
        for got in &net.delivered {
            assert_eq!(got, &vec![(1, payload(1)), (2, payload(2))]);
        }
    }

    /// Five members: the leader and one follower are not a majority, so
    /// followers deliver only when the leader's commit index reaches them
    /// — in the empty notification it sends when a majority has acked.
    #[test]
    fn a_group_of_five_delivers_through_the_leaders_commit_index() {
        let mut net = Net::of(5);
        net.propose(0, payload(1));
        net.hop(|_, _| false);
        assert!(net.delivered.iter().all(Vec::is_empty), "not on append");
        net.hop(|_, _| false);
        assert_eq!(net.delivered[0], vec![(1, payload(1))], "on two acks");
        assert!(net.delivered[1..].iter().all(Vec::is_empty));
        net.deliver(|_, _| false);
        for got in &net.delivered {
            assert_eq!(got, &vec![(1, payload(1))]);
        }
        // Four appends, four acks, four notifications, four acks.
        assert_eq!(net.sent, (16, 4));
    }

    /// Two members: the follower is half the group and the leader the
    /// other half, so the follower commits on append.
    #[test]
    fn a_pair_commits_on_append() {
        let mut net = Net::of(2);
        net.propose(0, payload(1));
        net.hop(|_, _| false);
        assert_eq!(net.delivered[1], vec![(1, payload(1))]);
        net.deliver(|_, _| false);
        assert_eq!(net.delivered[0], vec![(1, payload(1))]);
        assert_eq!(net.sent, (2, 1), "one append, one ack");
    }

    /// A new leader's append that brings a follower the entry an earlier
    /// leader could not commit carries the new leader's no-op behind it.
    /// Split in two, as a leader that sends a prefix of its log may: the
    /// earlier-term entry alone is appended but not delivered (a majority
    /// holding it does not make it committed), and it is delivered with
    /// the no-op.
    #[test]
    fn an_earlier_term_entry_is_delivered_with_the_no_op_not_before() {
        let mut net = Net::trio();
        // Nobody but a gets the entry. b leads term 2 on an empty log,
        // hence with no no-op; a follows and keeps its uncommitted entry.
        net.propose(0, payload(1));
        net.wire.clear();
        net.tick(1, Dur::millis(50));
        net.deliver(|_, _| false);
        assert!(net.cores[1].is_leader());
        // a wins term 3 on its longer log; once c has refused the first
        // append, a sends it the term-1 entry and the no-op.
        net.tick(0, Dur::millis(50));
        let whole = |(_, to, msg): &(NodeId, NodeId, RaftMsg)| match msg {
            RaftMsg::AppendEntries {
                prev_index,
                entries,
                ..
            } => *to == NodeId(2) && *prev_index == 0 && entries.len() == 2,
            _ => false,
        };
        for _ in 0..4 {
            if !net.wire.iter().any(whole) {
                net.hop(|_, _| false);
            }
        }
        assert!(net.cores[0].is_leader());
        let i = net.wire.iter().position(whole).expect("a's append to c");
        let (from, to, append) = net.wire.remove(i);
        net.wire.clear();
        let RaftMsg::AppendEntries {
            group,
            term,
            entries,
            commit,
            discarded,
            ..
        } = append
        else {
            unreachable!()
        };
        assert_eq!(entries.iter().map(|e| e.term).collect::<Vec<_>>(), [1, 3]);
        let part = |prev_index, prev_term, entries| RaftMsg::AppendEntries {
            group,
            term,
            prev_index,
            prev_term,
            entries,
            commit,
            discarded,
        };
        net.wire.push((from, to, part(0, 0, entries[..1].to_vec())));
        net.hop(|_, _| false);
        assert_eq!(net.cores[2].log_len(), 1);
        assert_eq!(net.delivered[2], vec![], "term 1 in term 3: not counted");
        net.wire.clear();
        net.wire.push((from, to, part(1, 1, entries[1..].to_vec())));
        net.hop(|_, _| false);
        assert_eq!(net.delivered[2], vec![(1, payload(1))], "with the no-op");
    }

    /// The owner's append reaches b only, b delivers it, and the owner
    /// fails before any ack reaches it. c campaigns first and is refused by
    /// b, whose log is longer; b wins, and index 1 of every member's log —
    /// the old leader's too, once it is back — is what b delivered.
    #[test]
    fn a_leader_change_after_an_append_keeps_what_the_follower_delivered() {
        let mut net = Net::trio();
        net.propose(0, payload(1));
        net.hop(|from, to| (from, to) != (0, 1));
        net.wire.clear(); // b's ack is lost with a
        assert_eq!(net.delivered[1], vec![(1, payload(1))]);
        assert_eq!(net.cores[0].commit_index(), 0);

        let a_down = |from, to| from == 0 || to == 0;
        net.tick(2, Dur::millis(50));
        assert_eq!(net.cores[2].role(), Role::Candidate);
        net.deliver(a_down);
        assert!(!net.cores[2].is_leader(), "b refuses c's shorter log");
        net.tick(1, Dur::millis(50));
        net.deliver(a_down);
        assert!(net.cores[1].is_leader());
        assert_eq!(net.delivered[2], vec![(1, payload(1))]);

        // a comes back and follows b.
        net.tick(1, RaftConfig::default().heartbeat_interval);
        net.deliver(|_, _| false);
        assert!(!net.cores[0].is_leader());
        for (core, got) in net.cores.iter().zip(&net.delivered) {
            assert_eq!(got, &vec![(1, payload(1))], "at {}", core.me());
        }
    }

    #[test]
    fn log_stays_bounded_over_ten_thousand_broadcasts() {
        let mut net = Net::trio();
        let mut most = 0;
        for i in 1..=10_000 {
            net.propose(0, payload(i));
            most = most.max(net.cores[0].retained_len());
            net.deliver(|_, _| false);
            most = net
                .cores
                .iter()
                .map(RaftCore::retained_len)
                .fold(most, usize::max);
        }
        // The leader holds an entry until both followers have it; a
        // follower learns that with the next append.
        assert!(most <= 2, "{most} entries retained at some point");
        for (core, got) in net.cores.iter().zip(&net.delivered) {
            assert_eq!(core.log_len(), 10_000);
            assert_eq!(got.len(), 10_000);
            assert!(got.iter().zip(1..).all(|(d, i)| *d == (i, payload(i))));
        }
    }

    #[test]
    fn a_silent_member_loses_nothing_and_a_successor_brings_it_up_to_date() {
        let mut net = Net::trio();
        for i in 1..=50 {
            net.propose(0, payload(i));
            net.deliver(|_, _| false);
        }
        // c goes silent. a and b commit on without it and keep everything
        // c has not acknowledged, however much that is.
        let c_silent = |from, to| from == 2 || to == 2;
        for i in 51..=150 {
            net.propose(0, payload(i));
            net.deliver(c_silent);
        }
        assert_eq!(net.delivered[0].len(), 150);
        assert_eq!(net.delivered[2].len(), 50);
        assert!(net.cores[0].retained_len() >= 100);
        assert!(net.cores[1].retained_len() >= 100);

        // a fails, c is reachable again: b wins the election on its longer
        // log and completes the replication a had begun.
        let a_down = |from, to| from == 0 || to == 0;
        net.tick(1, Dur::millis(50));
        net.deliver(a_down);
        assert!(net.cores[1].is_leader());
        assert_eq!(net.delivered[2].len(), 150);
        assert!(net.delivered[2]
            .iter()
            .zip(1..)
            .all(|(d, i)| *d == (i, payload(i))));

        // b leads on with c; a, silent now, still lacks nothing b dropped.
        for i in 151..=160 {
            net.propose(1, payload(i));
            net.deliver(a_down);
        }
        assert_eq!(net.delivered[2].len(), 160);
        assert!(net.cores[1].retained_len() >= 10);
    }

    /// A broadcast-group owner whose host reclaims the group on every 1 ms
    /// tick (what `CanopusNode::on_tick` does while it holds unsent items),
    /// after a peer usurped the group and the one append carrying the
    /// usurper's no-op to the owner was lost. The owner's log is an entry
    /// short, so its campaigns are refused; unpaced, each of them also
    /// deposes whoever leads and resets the voters' election deadlines, and
    /// nobody ever leads the group again.
    #[test]
    fn a_usurped_owner_that_missed_the_no_op_reclaims_its_group() {
        let mut net = Net::trio();
        net.propose(0, payload(1));
        net.deliver(|_, _| false);

        let mut lost_one = false;
        for ms in 1..=2000 {
            net.now += Dur::millis(1);
            let mut out = Outbox::new();
            if ms == 20 {
                net.cores[1].force_election(net.now, &mut net.rng, &mut out);
                net.post(1, std::mem::take(&mut out));
            }
            if ms > 20 {
                net.cores[0].force_election(net.now, &mut net.rng, &mut out);
                net.post(0, out);
            }
            for member in 0..3 {
                net.tick(member, Dur::ZERO);
            }
            // One hop per millisecond: a reply leaves in the next one.
            for (from, to, msg) in std::mem::take(&mut net.wire) {
                let carries_entries = matches!(
                    &msg,
                    RaftMsg::AppendEntries { entries, .. } if !entries.is_empty()
                );
                if !lost_one && (from, to) == (NodeId(1), NodeId(0)) && carries_entries {
                    lost_one = true;
                    continue;
                }
                let mut out = Outbox::new();
                net.cores[to.index()].handle(from, msg, net.now, &mut net.rng, &mut out);
                net.post(to.index(), out);
            }
        }
        assert!(
            lost_one,
            "the usurper's first append to the owner was dropped"
        );
        let state: Vec<_> = net
            .cores
            .iter()
            .map(|c| (c.role(), c.term(), c.log_len()))
            .collect();
        assert!(net.cores[0].is_leader(), "owner never led again: {state:?}");
        assert!(net.cores[0].term() < 50, "election storm: {state:?}");
    }

    #[test]
    fn a_member_that_lost_its_log_waits_for_its_host_and_resumes() {
        let mut net = Net::trio();
        for i in 1..=20 {
            net.propose(0, payload(i));
            net.deliver(|_, _| false);
        }
        // c comes back with no memory at all. What it once held is gone
        // from every log, so the group cannot replay it — and does not
        // pretend to: c refuses, says so, and is skipped past nothing.
        let members = vec![NodeId(0), NodeId(1), NodeId(2)];
        let now = net.now;
        net.cores[2] = RaftCore::new(
            GroupId(0),
            NodeId(2),
            members,
            RaftConfig::default(),
            false,
            now,
            &mut net.rng,
        );
        net.delivered[2].clear();
        net.sent = (0, 0);
        for i in 21..=25 {
            net.propose(0, payload(i));
            net.deliver(|_, _| false);
        }
        assert!(net.cores[2].needs_snapshot());
        assert!(!net.cores[0].needs_snapshot() && !net.cores[1].needs_snapshot());
        assert_eq!(net.delivered[2], vec![]);
        assert_eq!(net.cores[2].log_len(), 0);
        // One refusal per append, not a resend storm.
        assert!(net.sent.0 <= 5 * 8, "{} messages", net.sent.0);
        // Nothing c lacks is dropped while it is stuck.
        assert!(net.cores[0].retained_len() >= 5);

        // c's host takes over b's state, which stands at b's delivered
        // point; from there on the group serves c again.
        let point = net.cores[1].delivered_point();
        assert_eq!(point.0, 25);
        let now = net.now;
        assert!(net.cores[2].resume_at(point, now, &mut net.rng));
        assert!(!net.cores[2].needs_snapshot());
        for i in 26..=30 {
            net.propose(0, payload(i));
            net.deliver(|_, _| false);
        }
        let got: Vec<u64> = net.delivered[2].iter().map(|d| d.0).collect();
        assert_eq!(got, [26, 27, 28, 29, 30]);
        assert_eq!(net.delivered[0].len(), 30);
        assert!(net.cores[0].retained_len() <= 2, "compacts again");
        // A point behind what the host already consumed is refused.
        assert!(!net.cores[2].resume_at((3, 1), now, &mut net.rng));
    }

    #[test]
    fn single_member_group_commits_instantly() {
        let mut r = rng();
        let g = GroupId(9);
        let mut solo = RaftCore::new(
            g,
            NodeId(5),
            vec![NodeId(5)],
            RaftConfig::default(),
            true,
            Time::ZERO,
            &mut r,
        );
        let mut out = Outbox::new();
        solo.propose(Bytes::from_static(b"only"), Time::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            solo.take_delivered(),
            vec![(1, Bytes::from_static(b"only"))]
        );
    }

    #[test]
    fn raft_msgs_round_trip_on_wire() {
        let msgs = vec![
            RaftMsg::RequestVote {
                group: GroupId(3),
                term: 7,
                last_log_index: 9,
                last_log_term: 6,
            },
            RaftMsg::VoteReply {
                group: GroupId(3),
                term: 7,
                granted: true,
            },
            RaftMsg::AppendEntries {
                group: GroupId(1),
                term: 2,
                prev_index: 4,
                prev_term: 2,
                entries: vec![
                    Entry {
                        term: 2,
                        data: Bytes::from_static(b"hello"),
                    },
                    Entry {
                        term: 2,
                        data: Bytes::new(),
                    },
                ],
                commit: 4,
                discarded: 3,
            },
            RaftMsg::AppendReply {
                group: GroupId(1),
                term: 2,
                success: false,
                match_index: 3,
            },
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            let back = RaftMsg::from_bytes(bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn wire_size_is_the_encoded_length() {
        let entry = |data: &'static [u8]| Entry {
            term: 2,
            data: Bytes::from_static(data),
        };
        let append = |entries| RaftMsg::AppendEntries {
            group: GroupId(1),
            term: 2,
            prev_index: 4,
            prev_term: 2,
            entries,
            commit: 4,
            discarded: 3,
        };
        let msgs = [
            RaftMsg::RequestVote {
                group: GroupId(3),
                term: 7,
                last_log_index: 9,
                last_log_term: 6,
            },
            RaftMsg::VoteReply {
                group: GroupId(3),
                term: 7,
                granted: true,
            },
            append(vec![]),
            append(vec![entry(b"hello"), entry(b"")]),
            RaftMsg::AppendReply {
                group: GroupId(1),
                term: 2,
                success: true,
                match_index: 3,
            },
        ];
        for msg in msgs {
            assert_eq!(msg.wire_size(), msg.encoded_len(), "{msg:?}");
        }
    }
}
