//! Canopus protocol messages.
//!
//! Three planes share one message enum so a single transport carries them:
//! the super-leaf reliable-broadcast plane (Raft traffic), the inter-super-
//! leaf plane (proposal-request / proposal-response, §4.2), and the client
//! plane (requests in, replies out). Proposal-responses also travel inside a
//! super-leaf: the member that fetched a state forwards it to its
//! peers, since a state every emulator computes alike needs delivery, not
//! the broadcast's order. A fourth pair of messages is for the
//! rare member that restarted without its broadcast logs: it asks a
//! super-leaf peer for a [`Snapshot`].

use bytes::{Bytes, BytesMut};
use canopus_kv::{ClientReply, ClientRequest, KvStore};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_raft::RaftMsg;
use canopus_sim::{NodeId, Payload};

use crate::proposal::VnodeState;
use crate::types::{CycleId, VnodeId};

/// An item disseminated through super-leaf reliable broadcast (the payload
/// of a Raft log entry): only what must be ordered with a member's own
/// proposals. Fetched remote states are forwarded as
/// [`CanopusMsg::ProposalResponse`] instead. Tag 1 is unused.
#[derive(Clone, Debug, PartialEq)]
pub enum BroadcastItem {
    /// A round-1 proposal from a super-leaf member.
    Proposal(VnodeState),
    /// Proposed into a failed member's group by the successor leader:
    /// the member contributes no proposals from `from_cycle` on, until a
    /// `Rejoin` appears later in the same group's log. Because it is
    /// totally ordered with the member's own proposals, every survivor
    /// draws the same boundary (§4.6 exclusion, made explicit).
    Tombstone {
        /// The failed member.
        node: NodeId,
        /// First cycle it is excluded from.
        from_cycle: CycleId,
    },
    /// The member is active again starting at `from_cycle`.
    Rejoin {
        /// The rejoining member.
        node: NodeId,
        /// First cycle it participates in again.
        from_cycle: CycleId,
    },
}

impl Wire for BroadcastItem {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BroadcastItem::Proposal(state) => {
                0u8.encode(buf);
                state.encode(buf);
            }
            BroadcastItem::Tombstone { node, from_cycle } => {
                2u8.encode(buf);
                node.encode(buf);
                from_cycle.encode(buf);
            }
            BroadcastItem::Rejoin { node, from_cycle } => {
                3u8.encode(buf);
                node.encode(buf);
                from_cycle.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(BroadcastItem::Proposal(VnodeState::decode(buf)?)),
            2 => Ok(BroadcastItem::Tombstone {
                node: NodeId::decode(buf)?,
                from_cycle: CycleId::decode(buf)?,
            }),
            3 => Ok(BroadcastItem::Rejoin {
                node: NodeId::decode(buf)?,
                from_cycle: CycleId::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("broadcast item tag")),
        }
    }
}

/// The replicated part of a node's state between two events: what every
/// member of a super-leaf that has consumed the same broadcast deliveries
/// holds identically. A member that lost its broadcast logs — which the
/// groups compact, so they cannot replay them — takes this over from a
/// peer and carries on from `points`.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Per broadcast group (by owner), the `(index, term)` of the last
    /// delivery the state reflects.
    pub points: Vec<(NodeId, (u64, u64))>,
    /// Highest committed cycle, and the commit counters up to it.
    pub last_committed: CycleId,
    /// [`crate::CanopusStats::commit_digest`] at that cycle.
    pub commit_digest: u64,
    /// [`crate::CanopusStats::committed_cycles`] at that cycle.
    pub committed_cycles: u64,
    /// [`crate::CanopusStats::committed_weight`] at that cycle.
    pub committed_weight: u64,
    /// The emulation table's membership.
    pub membership: Vec<Vec<NodeId>>,
    /// Every node that was ever a member of the super-leaf.
    pub roster: Vec<NodeId>,
    /// Tombstones delivered: member → first cycle it is excluded from.
    pub tombstoned: Vec<(NodeId, CycleId)>,
    /// Rejoin markers delivered: member → first cycle it is back in.
    pub rejoined: Vec<(NodeId, CycleId)>,
    /// The store after `last_committed`.
    pub store: KvStore,
    /// Round-1 proposals delivered for cycles still in flight.
    pub round1: Vec<(NodeId, VnodeState)>,
    /// Remote vnode states received for cycles still in flight.
    pub remote: Vec<VnodeState>,
}

impl Wire for Snapshot {
    fn encode(&self, buf: &mut BytesMut) {
        self.points.encode(buf);
        self.last_committed.encode(buf);
        self.commit_digest.encode(buf);
        self.committed_cycles.encode(buf);
        self.committed_weight.encode(buf);
        self.membership.encode(buf);
        self.roster.encode(buf);
        self.tombstoned.encode(buf);
        self.rejoined.encode(buf);
        self.store.encode(buf);
        self.round1.encode(buf);
        self.remote.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Snapshot {
            points: Wire::decode(buf)?,
            last_committed: Wire::decode(buf)?,
            commit_digest: Wire::decode(buf)?,
            committed_cycles: Wire::decode(buf)?,
            committed_weight: Wire::decode(buf)?,
            membership: Wire::decode(buf)?,
            roster: Wire::decode(buf)?,
            tombstoned: Wire::decode(buf)?,
            rejoined: Wire::decode(buf)?,
            store: Wire::decode(buf)?,
            round1: Wire::decode(buf)?,
            remote: Wire::decode(buf)?,
        })
    }
}

/// All Canopus wire messages. Tag 7 is unused, and refused at decode.
#[derive(Clone, Debug, PartialEq)]
pub enum CanopusMsg {
    /// Super-leaf reliable-broadcast traffic.
    Raft(RaftMsg),
    /// A client submits an operation.
    Request(ClientRequest),
    /// The node answers a client.
    Reply(ClientReply),
    /// A super-leaf member asks an emulator for a vnode's state (§4.2): the
    /// member whose turn it is, a retry after `fetch_timeout`, or a member
    /// that found the state overdue.
    ProposalRequest {
        /// Cycle the state is needed for.
        cycle: CycleId,
        /// The vnode whose state is requested.
        vnode: VnodeId,
    },
    /// The emulator's answer (sent once the state is computed), or the
    /// fetching member's forward of it to a super-leaf peer.
    ProposalResponse {
        /// The requested state.
        state: VnodeState,
    },
    /// A super-leaf member that lost its broadcast logs asks for a peer's
    /// state.
    StateRequest,
    /// The peer's answer.
    StateResponse {
        /// Its state at the moment it answered.
        snapshot: Box<Snapshot>,
    },
}

impl Payload for CanopusMsg {
    fn wire_size(&self) -> usize {
        match self {
            CanopusMsg::Raft(m) => 1 + m.wire_size(),
            CanopusMsg::Request(r) => 1 + 13 + r.op.payload_bytes().min(64),
            CanopusMsg::Reply(_) => 1 + 14,
            CanopusMsg::ProposalRequest { vnode, .. } => 1 + 9 + 2 * vnode.depth(),
            CanopusMsg::ProposalResponse { state } => 1 + state.wire_bytes(),
            CanopusMsg::StateRequest => 1,
            CanopusMsg::StateResponse { snapshot } => 1 + snapshot.encoded_len(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            CanopusMsg::Raft(_) => "raft",
            CanopusMsg::Request(_) => "request",
            CanopusMsg::Reply(_) => "reply",
            CanopusMsg::ProposalRequest { .. } => "proposal_request",
            CanopusMsg::ProposalResponse { .. } => "proposal_response",
            CanopusMsg::StateRequest => "state_request",
            CanopusMsg::StateResponse { .. } => "state_response",
        }
    }
}

impl Wire for CanopusMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            CanopusMsg::Raft(m) => {
                0u8.encode(buf);
                m.encode(buf);
            }
            CanopusMsg::Request(r) => {
                1u8.encode(buf);
                r.encode(buf);
            }
            CanopusMsg::Reply(r) => {
                2u8.encode(buf);
                r.encode(buf);
            }
            CanopusMsg::ProposalRequest { cycle, vnode } => {
                3u8.encode(buf);
                cycle.encode(buf);
                vnode.encode(buf);
            }
            CanopusMsg::ProposalResponse { state } => {
                4u8.encode(buf);
                state.encode(buf);
            }
            CanopusMsg::StateRequest => 5u8.encode(buf),
            CanopusMsg::StateResponse { snapshot } => {
                6u8.encode(buf);
                snapshot.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(CanopusMsg::Raft(RaftMsg::decode(buf)?)),
            1 => Ok(CanopusMsg::Request(ClientRequest::decode(buf)?)),
            2 => Ok(CanopusMsg::Reply(ClientReply::decode(buf)?)),
            3 => Ok(CanopusMsg::ProposalRequest {
                cycle: CycleId::decode(buf)?,
                vnode: VnodeId::decode(buf)?,
            }),
            4 => Ok(CanopusMsg::ProposalResponse {
                state: VnodeState::decode(buf)?,
            }),
            5 => Ok(CanopusMsg::StateRequest),
            6 => Ok(CanopusMsg::StateResponse {
                snapshot: Box::new(Snapshot::decode(buf)?),
            }),
            _ => Err(WireError::Invalid("canopus msg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposal::RequestSet;
    use canopus_kv::Op;
    use canopus_raft::GroupId;

    fn sample_state() -> VnodeState {
        VnodeState::round1(
            NodeId(2),
            VnodeId(vec![1]),
            CycleId(4),
            12345,
            RequestSet {
                origin: NodeId(2),
                ops: [ClientRequest {
                    client: NodeId(30),
                    op_id: 7,
                    op: Op::Put {
                        key: 9,
                        value: Bytes::from_static(b"12345678"),
                    },
                }]
                .into_iter()
                .collect(),
            },
            vec![],
        )
    }

    fn sample_snapshot() -> Snapshot {
        let mut store = KvStore::new();
        store.put(9, Bytes::from_static(b"12345678"));
        Snapshot {
            points: vec![
                (NodeId(0), (40, 1)),
                (NodeId(1), (38, 2)),
                (NodeId(2), (41, 1)),
            ],
            last_committed: CycleId(3),
            commit_digest: 0xfeed,
            committed_cycles: 3,
            committed_weight: 17,
            membership: vec![vec![NodeId(0), NodeId(2)], vec![]],
            roster: vec![NodeId(0), NodeId(1), NodeId(2)],
            tombstoned: vec![(NodeId(1), CycleId(3))],
            rejoined: vec![],
            store,
            round1: vec![(NodeId(2), sample_state())],
            remote: vec![sample_state()],
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let msgs = vec![
            CanopusMsg::Raft(RaftMsg::VoteReply {
                group: GroupId(3),
                term: 9,
                granted: false,
            }),
            CanopusMsg::Request(ClientRequest {
                client: NodeId(44),
                op_id: 1,
                op: Op::Get { key: 5 },
            }),
            CanopusMsg::Reply(ClientReply {
                op_id: 1,
                weight: 1,
                result: canopus_kv::OpResult::Value(None),
            }),
            CanopusMsg::ProposalRequest {
                cycle: CycleId(8),
                vnode: VnodeId(vec![0, 2]),
            },
            CanopusMsg::ProposalResponse {
                state: sample_state(),
            },
            CanopusMsg::StateRequest,
            CanopusMsg::StateResponse {
                snapshot: Box::new(sample_snapshot()),
            },
        ];
        for msg in msgs {
            let back = CanopusMsg::from_bytes(msg.to_bytes()).unwrap();
            assert_eq!(back, msg);
        }
    }

    /// A frame under tag 7 comes from a build whose nodes ran several
    /// pipelines; it is refused, not read as the message it wraps.
    #[test]
    fn decode_refuses_the_retired_tag_7() {
        let mut frame = BytesMut::new();
        7u8.encode(&mut frame);
        0u16.encode(&mut frame);
        5u8.encode(&mut frame); // a StateRequest inside
        assert!(matches!(
            CanopusMsg::from_bytes(frame.freeze()),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn broadcast_items_round_trip() {
        let items = vec![
            BroadcastItem::Proposal(sample_state()),
            BroadcastItem::Tombstone {
                node: NodeId(3),
                from_cycle: CycleId(12),
            },
            BroadcastItem::Rejoin {
                node: NodeId(3),
                from_cycle: CycleId(20),
            },
        ];
        for item in items {
            let back = BroadcastItem::from_bytes(item.to_bytes()).unwrap();
            assert_eq!(back, item);
        }
        // Tag 1 is unused: fetched remote states are forwarded outside the
        // broadcast, so an item with that tag is refused.
        let mut buf = BytesMut::new();
        1u8.encode(&mut buf);
        sample_state().encode(&mut buf);
        assert!(BroadcastItem::from_bytes(buf.freeze()).is_err());
    }

    /// Reads are served where they arrive and never enter a request set:
    /// a proposal or a proposal-response carrying one is refused at
    /// decode, rather than ordered and then fatal to every node that
    /// commits the cycle.
    #[test]
    fn a_state_carrying_a_read_is_refused_at_decode() {
        use crate::proposal::MembershipUpdate;
        // `sample_state()` with `op` in place of its `Put`, behind `tag`.
        let frame = |tag: u8, op: Op| {
            let mut buf = BytesMut::new();
            tag.encode(&mut buf);
            VnodeId(vec![1]).encode(&mut buf);
            CycleId(4).encode(&mut buf);
            12345u64.encode(&mut buf);
            2u32.encode(&mut buf); // tie: the proposer
            1u32.encode(&mut buf); // one request set
            NodeId(2).encode(&mut buf); // its origin
            let req = ClientRequest {
                client: NodeId(30),
                op_id: 7,
                op,
            };
            vec![req].encode(&mut buf);
            Vec::<MembershipUpdate>::new().encode(&mut buf);
            buf.freeze()
        };
        let refused = WireError::Invalid("read in a request set");
        for read in [Op::Get { key: 9 }, Op::SyntheticRead { count: 3 }] {
            let item = BroadcastItem::from_bytes(frame(0, read.clone()));
            assert_eq!(item.unwrap_err(), refused);
            let msg = CanopusMsg::from_bytes(frame(4, read));
            assert_eq!(msg.unwrap_err(), refused);
        }
        let put = Op::Put {
            key: 9,
            value: Bytes::from_static(b"12345678"),
        };
        assert_eq!(
            BroadcastItem::from_bytes(frame(0, put.clone())),
            Ok(BroadcastItem::Proposal(sample_state()))
        );
        assert_eq!(
            CanopusMsg::from_bytes(frame(4, put)),
            Ok(CanopusMsg::ProposalResponse {
                state: sample_state()
            })
        );
    }

    #[test]
    fn payload_sizes_track_content() {
        let small = CanopusMsg::ProposalRequest {
            cycle: CycleId(1),
            vnode: VnodeId(vec![0]),
        };
        let big = CanopusMsg::ProposalResponse {
            state: sample_state(),
        };
        assert!(small.wire_size() < big.wire_size());
        assert!(small.wire_size() < 32);
    }
}
