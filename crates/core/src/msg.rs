//! Canopus protocol messages.
//!
//! Three planes share one message enum so a single transport carries them:
//! the super-leaf reliable-broadcast plane (Raft traffic), the inter-super-
//! leaf plane (proposal-request / proposal-response, §4.2), and the client
//! plane (requests in, replies out). A fourth pair of messages is for the
//! rare member that restarted without its broadcast logs: it asks a
//! super-leaf peer for a [`Snapshot`].
//!
//! A node hosting several LOT pipelines (lanes) wraps every protocol frame
//! in [`CanopusMsg::Lane`]; a node with one lane sends them bare, and a
//! bare frame belongs to lane 0. The client plane is never wrapped: the
//! receiving node routes a request to the lane that owns it.

use bytes::{Bytes, BytesMut};
use canopus_kv::{route_hint, ClientReply, ClientRequest, Key, KvStore};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_raft::RaftMsg;
use canopus_sim::{NodeId, Payload};

use crate::proposal::VnodeState;
use crate::types::{CycleId, VnodeId};

/// An item disseminated through super-leaf reliable broadcast (the payload
/// of a Raft log entry).
#[derive(Clone, Debug, PartialEq)]
pub enum BroadcastItem {
    /// A round-1 proposal from a super-leaf member.
    Proposal(VnodeState),
    /// A remote vnode state fetched by a representative.
    Remote(VnodeState),
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
            BroadcastItem::Remote(state) => {
                1u8.encode(buf);
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
            1 => Ok(BroadcastItem::Remote(VnodeState::decode(buf)?)),
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
    /// Write leases: key → last cycle covered.
    pub leases: Vec<(Key, u64)>,
    /// The store after `last_committed`.
    pub store: KvStore,
    /// Round-1 proposals delivered for cycles still in flight.
    pub round1: Vec<(NodeId, VnodeState)>,
    /// Remote vnode states delivered for cycles still in flight.
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
        self.leases.encode(buf);
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
            leases: Wire::decode(buf)?,
            store: Wire::decode(buf)?,
            round1: Wire::decode(buf)?,
            remote: Wire::decode(buf)?,
        })
    }
}

/// All Canopus wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum CanopusMsg {
    /// Super-leaf reliable-broadcast traffic.
    Raft(RaftMsg),
    /// A client submits an operation.
    Request(ClientRequest),
    /// The node answers a client.
    Reply(ClientReply),
    /// A representative asks an emulator for a vnode's state (§4.2).
    ProposalRequest {
        /// Cycle the state is needed for.
        cycle: CycleId,
        /// The vnode whose state is requested.
        vnode: VnodeId,
    },
    /// The emulator's answer (sent once the state is computed).
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
    /// A protocol frame of one lane of a node that hosts several. Never
    /// wraps a client-plane frame or another `Lane`.
    Lane {
        /// The lane (LOT pipeline) the frame belongs to, at both ends.
        lane: u16,
        /// The lane's frame.
        msg: Box<CanopusMsg>,
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
            CanopusMsg::Lane { msg, .. } => 1 + 2 + msg.wire_size(),
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
            CanopusMsg::Lane { msg, .. } => msg.kind(),
        }
    }

    /// A lane's frames run on the lane's CPU; a request queues where the
    /// router will send it ([`route_hint`]); a bare protocol frame belongs
    /// to lane 0.
    fn lane_hint(&self) -> u64 {
        match self {
            CanopusMsg::Request(r) => route_hint(r.op_id, &r.op),
            CanopusMsg::Lane { lane, .. } => u64::from(*lane),
            _ => 0,
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
            CanopusMsg::Lane { lane, msg } => {
                7u8.encode(buf);
                lane.encode(buf);
                msg.encode(buf);
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
            7 => {
                let lane = u16::decode(buf)?;
                // Looked at before the inner frame is decoded, so a frame
                // of nested tags cannot recurse: requests (1) and replies
                // (2) travel bare, and a lane frame (7) holds no other.
                if matches!(buf.first(), Some(1 | 2 | 7)) {
                    return Err(WireError::Invalid(
                        "lane frame wraps a client or lane frame",
                    ));
                }
                Ok(CanopusMsg::Lane {
                    lane,
                    msg: Box::new(CanopusMsg::decode(buf)?),
                })
            }
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
                ops: [crate::proposal::TimedOp {
                    req: ClientRequest {
                        client: NodeId(30),
                        op_id: 7,
                        op: Op::Put {
                            key: 9,
                            value: Bytes::from_static(b"12345678"),
                        },
                    },
                    arrival: canopus_sim::Time::from_nanos(500),
                }]
                .into_iter()
                .collect(),
                lease_requests: vec![],
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
            leases: vec![(9, 6)],
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
            CanopusMsg::Lane {
                lane: 3,
                msg: Box::new(CanopusMsg::ProposalResponse {
                    state: sample_state(),
                }),
            },
        ];
        for msg in msgs {
            let back = CanopusMsg::from_bytes(msg.to_bytes()).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn lane_frames_carry_the_inner_kind_and_three_more_bytes() {
        let inner = CanopusMsg::ProposalRequest {
            cycle: CycleId(8),
            vnode: VnodeId(vec![0, 2]),
        };
        let framed = CanopusMsg::Lane {
            lane: 2,
            msg: Box::new(inner.clone()),
        };
        assert_eq!(framed.kind(), "proposal_request");
        assert_eq!(framed.wire_size(), inner.wire_size() + 3);
        assert_eq!(framed.to_bytes().len(), inner.to_bytes().len() + 3);
        assert_eq!((framed.lane_hint(), inner.lane_hint()), (2, 0));
    }

    #[test]
    fn decode_rejects_a_lane_frame_around_a_client_or_lane_frame() {
        let request = CanopusMsg::Request(ClientRequest {
            client: NodeId(44),
            op_id: 1,
            op: Op::Get { key: 5 },
        });
        let reply = CanopusMsg::Reply(ClientReply {
            op_id: 1,
            weight: 1,
            result: canopus_kv::OpResult::Written,
        });
        let nested = CanopusMsg::Lane {
            lane: 1,
            msg: Box::new(CanopusMsg::StateRequest),
        };
        for inner in [request, reply, nested] {
            let framed = CanopusMsg::Lane {
                lane: 0,
                msg: Box::new(inner),
            };
            assert!(matches!(
                CanopusMsg::from_bytes(framed.to_bytes()),
                Err(WireError::Invalid(_))
            ));
        }
        // However deep the nesting claims to be, decoding stops at the
        // second tag.
        let mut deep = BytesMut::new();
        for _ in 0..100_000 {
            7u8.encode(&mut deep);
            0u16.encode(&mut deep);
        }
        assert!(matches!(
            CanopusMsg::from_bytes(deep.freeze()),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn broadcast_items_round_trip() {
        let items = vec![
            BroadcastItem::Proposal(sample_state()),
            BroadcastItem::Remote(sample_state()),
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
    }

    /// Reads are served where they arrive and never enter a request set:
    /// a proposal or a proposal-response carrying one is refused at
    /// decode, rather than ordered and then fatal to every node that
    /// commits the cycle.
    #[test]
    fn a_state_carrying_a_read_is_refused_at_decode() {
        use crate::proposal::{MembershipUpdate, TimedOp};
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
            let arrival = canopus_sim::Time::from_nanos(500);
            vec![TimedOp { req, arrival }].encode(&mut buf);
            Vec::<Key>::new().encode(&mut buf); // lease requests
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
