//! Zab protocol messages.

use bytes::{Bytes, BytesMut};
use canopus_kv::{ClientReply, ClientRequest};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_sim::{NodeId, Payload};

/// A Zab transaction id: `(epoch, counter)`, totally ordered.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Zxid {
    /// Leader epoch.
    pub epoch: u32,
    /// Counter within the epoch.
    pub counter: u64,
}

impl Wire for Zxid {
    fn encode(&self, buf: &mut BytesMut) {
        self.epoch.encode(buf);
        self.counter.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Zxid {
            epoch: u32::decode(buf)?,
            counter: u64::decode(buf)?,
        })
    }
}

/// One replicated transaction: the op and the node that received it from
/// its client (which owes the reply).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Txn {
    /// The client's request.
    pub req: ClientRequest,
    /// The node that received it from the client.
    pub origin: NodeId,
}

impl Wire for Txn {
    fn encode(&self, buf: &mut BytesMut) {
        self.req.encode(buf);
        self.origin.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Txn {
            req: ClientRequest::decode(buf)?,
            origin: NodeId::decode(buf)?,
        })
    }
}

/// Zab / ZooKeeper-model messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ZabMsg {
    /// Client submits an operation (to any node).
    Request(ClientRequest),
    /// Node answers its client.
    Reply(ClientReply),
    /// A non-leader forwards a write to the leader.
    Forward(Txn),
    /// Leader proposes a transaction to its followers.
    Propose {
        /// Transaction id.
        zxid: Zxid,
        /// The transaction.
        txn: Txn,
    },
    /// Follower acknowledges a proposal (after logging it).
    Ack {
        /// Acked transaction.
        zxid: Zxid,
    },
    /// Leader commits a transaction at the followers.
    Commit {
        /// Committed transaction.
        zxid: Zxid,
    },
    /// Leader informs observers of a committed transaction (proposal and
    /// commit fused, as in ZooKeeper's INFORM).
    Inform {
        /// Committed transaction id.
        zxid: Zxid,
        /// The transaction.
        txn: Txn,
    },
    /// Leader heartbeat (keeps followers from electing).
    Ping {
        /// Leader's epoch.
        epoch: u32,
    },
    /// Election: a participant announces its candidacy credentials.
    Election {
        /// Proposed new epoch.
        epoch: u32,
        /// Candidate's last logged zxid.
        last_zxid: Zxid,
    },
    /// The election winner announces itself and syncs followers.
    NewLeader {
        /// New epoch.
        epoch: u32,
        /// The leader's log suffix from the follower's committed point on
        /// (full resync; logs are short at the scale elections occur).
        history: Vec<(Zxid, Txn)>,
        /// Commit point within `history`.
        committed: Zxid,
    },
    /// Follower acknowledges the new leader.
    FollowerAck {
        /// Acked epoch.
        epoch: u32,
    },
    /// A node that noticed it is behind (stale epoch or a log gap, e.g.
    /// after a restart or a healed partition) asks the current leader for
    /// a full resync; the leader answers with `NewLeader`.
    ResyncRequest,
}

impl Payload for ZabMsg {
    fn wire_size(&self) -> usize {
        match self {
            ZabMsg::Request(r) => 1 + 13 + r.op.payload_bytes().min(64),
            ZabMsg::Reply(_) => 1 + 14,
            ZabMsg::Forward(txn) | ZabMsg::Propose { txn, .. } => {
                1 + 16 + txn.req.op.payload_bytes() + 17
            }
            ZabMsg::Ack { .. } | ZabMsg::Commit { .. } => 1 + 12,
            ZabMsg::Inform { txn, .. } => 1 + 16 + txn.req.op.payload_bytes() + 17,
            ZabMsg::Ping { .. } => 1 + 4,
            ZabMsg::Election { .. } => 1 + 16,
            ZabMsg::NewLeader { history, .. } => {
                1 + 16
                    + history
                        .iter()
                        .map(|(_, t)| 12 + t.req.op.payload_bytes() + 17)
                        .sum::<usize>()
            }
            ZabMsg::FollowerAck { .. } => 1 + 4,
            ZabMsg::ResyncRequest => 1,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            ZabMsg::Request(_) => "request",
            ZabMsg::Reply(_) => "reply",
            ZabMsg::Forward(_) => "forward",
            ZabMsg::Propose { .. } => "propose",
            ZabMsg::Ack { .. } => "ack",
            ZabMsg::Commit { .. } => "commit",
            ZabMsg::Inform { .. } => "inform",
            ZabMsg::Ping { .. } => "ping",
            ZabMsg::Election { .. } => "election",
            ZabMsg::NewLeader { .. } => "new_leader",
            ZabMsg::FollowerAck { .. } => "follower_ack",
            ZabMsg::ResyncRequest => "resync_request",
        }
    }
}

impl Wire for ZabMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ZabMsg::Request(r) => {
                0u8.encode(buf);
                r.encode(buf);
            }
            ZabMsg::Reply(r) => {
                1u8.encode(buf);
                r.encode(buf);
            }
            ZabMsg::Forward(txn) => {
                2u8.encode(buf);
                txn.encode(buf);
            }
            ZabMsg::Propose { zxid, txn } => {
                3u8.encode(buf);
                zxid.encode(buf);
                txn.encode(buf);
            }
            ZabMsg::Ack { zxid } => {
                4u8.encode(buf);
                zxid.encode(buf);
            }
            ZabMsg::Commit { zxid } => {
                5u8.encode(buf);
                zxid.encode(buf);
            }
            ZabMsg::Inform { zxid, txn } => {
                6u8.encode(buf);
                zxid.encode(buf);
                txn.encode(buf);
            }
            ZabMsg::Ping { epoch } => {
                7u8.encode(buf);
                epoch.encode(buf);
            }
            ZabMsg::Election { epoch, last_zxid } => {
                8u8.encode(buf);
                epoch.encode(buf);
                last_zxid.encode(buf);
            }
            ZabMsg::NewLeader {
                epoch,
                history,
                committed,
            } => {
                9u8.encode(buf);
                epoch.encode(buf);
                history.encode(buf);
                committed.encode(buf);
            }
            ZabMsg::FollowerAck { epoch } => {
                10u8.encode(buf);
                epoch.encode(buf);
            }
            ZabMsg::ResyncRequest => 11u8.encode(buf),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(ZabMsg::Request(ClientRequest::decode(buf)?)),
            1 => Ok(ZabMsg::Reply(ClientReply::decode(buf)?)),
            2 => Ok(ZabMsg::Forward(Txn::decode(buf)?)),
            3 => Ok(ZabMsg::Propose {
                zxid: Zxid::decode(buf)?,
                txn: Txn::decode(buf)?,
            }),
            4 => Ok(ZabMsg::Ack {
                zxid: Zxid::decode(buf)?,
            }),
            5 => Ok(ZabMsg::Commit {
                zxid: Zxid::decode(buf)?,
            }),
            6 => Ok(ZabMsg::Inform {
                zxid: Zxid::decode(buf)?,
                txn: Txn::decode(buf)?,
            }),
            7 => Ok(ZabMsg::Ping {
                epoch: u32::decode(buf)?,
            }),
            8 => Ok(ZabMsg::Election {
                epoch: u32::decode(buf)?,
                last_zxid: Zxid::decode(buf)?,
            }),
            9 => Ok(ZabMsg::NewLeader {
                epoch: u32::decode(buf)?,
                history: Vec::<(Zxid, Txn)>::decode(buf)?,
                committed: Zxid::decode(buf)?,
            }),
            10 => Ok(ZabMsg::FollowerAck {
                epoch: u32::decode(buf)?,
            }),
            11 => Ok(ZabMsg::ResyncRequest),
            _ => Err(WireError::Invalid("zab msg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_kv::Op;

    fn txn() -> Txn {
        Txn {
            req: ClientRequest {
                client: NodeId(9),
                op_id: 1,
                op: Op::Put {
                    key: 3,
                    value: Bytes::from_static(b"12345678"),
                },
            },
            origin: NodeId(2),
        }
    }

    #[test]
    fn zxid_ordering() {
        let a = Zxid {
            epoch: 1,
            counter: 9,
        };
        let b = Zxid {
            epoch: 2,
            counter: 1,
        };
        assert!(a < b, "epoch dominates counter");
    }

    #[test]
    fn all_variants_round_trip() {
        let z = Zxid {
            epoch: 3,
            counter: 77,
        };
        let msgs = vec![
            ZabMsg::Forward(txn()),
            ZabMsg::Propose {
                zxid: z,
                txn: txn(),
            },
            ZabMsg::Ack { zxid: z },
            ZabMsg::Commit { zxid: z },
            ZabMsg::Inform {
                zxid: z,
                txn: txn(),
            },
            ZabMsg::Ping { epoch: 3 },
            ZabMsg::Election {
                epoch: 4,
                last_zxid: z,
            },
            ZabMsg::NewLeader {
                epoch: 4,
                history: vec![(z, txn())],
                committed: z,
            },
            ZabMsg::FollowerAck { epoch: 4 },
        ];
        for m in msgs {
            assert_eq!(ZabMsg::from_bytes(m.to_bytes()).unwrap(), m);
        }
    }
}
