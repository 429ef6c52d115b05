//! EPaxos wire messages and instance identifiers.

use bytes::{Bytes, BytesMut};
use canopus_kv::{ClientReply, ClientRequest};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_sim::{NodeId, Payload};

/// Identifies one instance: slot `slot` in `replica`'s row of the
/// two-dimensional instance space.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstanceId {
    /// The command leader that owns the row.
    pub replica: NodeId,
    /// Slot within the row (1-based).
    pub slot: u64,
}

impl Wire for InstanceId {
    fn encode(&self, buf: &mut BytesMut) {
        self.replica.encode(buf);
        self.slot.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(InstanceId {
            replica: NodeId::decode(buf)?,
            slot: u64::decode(buf)?,
        })
    }
}

/// A batch of client operations proposed as one instance (EPaxos is run
/// with request batching in the paper: 5 ms or 2 ms windows).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CmdBatch {
    /// The operations, in arrival order. Unlike Canopus, reads travel
    /// through the protocol too (§2.2: "these protocols broadcast both
    /// read and write requests").
    pub ops: Vec<ClientRequest>,
}

impl CmdBatch {
    /// Total client requests represented.
    pub fn weight(&self) -> u64 {
        self.ops.iter().map(|o| o.op.weight() as u64).sum()
    }

    /// Encoded payload size for network modelling.
    pub fn payload_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|o| o.op.payload_bytes() + 13)
            .sum::<usize>()
    }
}

impl Wire for CmdBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.ops.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(CmdBatch {
            ops: Vec::<ClientRequest>::decode(buf)?,
        })
    }
}

/// EPaxos protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum EpaxosMsg {
    /// Client submits an operation.
    Request(ClientRequest),
    /// Node answers a client.
    Reply(ClientReply),
    /// Phase 1: command leader proposes attributes to the fast quorum.
    PreAccept {
        /// The instance.
        inst: InstanceId,
        /// The command batch.
        batch: CmdBatch,
        /// Proposed sequence number.
        seq: u64,
        /// Proposed dependencies.
        deps: Vec<InstanceId>,
    },
    /// Phase 1 reply with the replica's merged attributes.
    PreAcceptOk {
        /// The instance.
        inst: InstanceId,
        /// Merged sequence number.
        seq: u64,
        /// Merged dependencies.
        deps: Vec<InstanceId>,
        /// Whether the replica changed the leader's attributes.
        changed: bool,
    },
    /// Phase 2 (slow path): leader fixes the final attributes.
    Accept {
        /// The instance.
        inst: InstanceId,
        /// The command batch (for replicas that missed PreAccept).
        batch: CmdBatch,
        /// Final sequence number.
        seq: u64,
        /// Final dependencies.
        deps: Vec<InstanceId>,
    },
    /// Phase 2 acknowledgement.
    AcceptOk {
        /// The instance.
        inst: InstanceId,
    },
    /// Commit notification, broadcast to all replicas.
    Commit {
        /// The instance.
        inst: InstanceId,
        /// The command batch.
        batch: CmdBatch,
        /// Final sequence number.
        seq: u64,
        /// Final dependencies.
        deps: Vec<InstanceId>,
    },
}

impl Payload for EpaxosMsg {
    fn wire_size(&self) -> usize {
        match self {
            EpaxosMsg::Request(r) => 1 + 13 + r.op.payload_bytes().min(64),
            EpaxosMsg::Reply(_) => 1 + 14,
            EpaxosMsg::PreAccept { batch, deps, .. } => {
                1 + 20 + batch.payload_bytes() + deps.len() * 12
            }
            EpaxosMsg::PreAcceptOk { deps, .. } => 1 + 21 + deps.len() * 12,
            EpaxosMsg::Accept { batch, deps, .. } => {
                1 + 20 + batch.payload_bytes() + deps.len() * 12
            }
            EpaxosMsg::AcceptOk { .. } => 1 + 12,
            EpaxosMsg::Commit { batch, deps, .. } => {
                1 + 20 + batch.payload_bytes() + deps.len() * 12
            }
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            EpaxosMsg::Request(_) => "request",
            EpaxosMsg::Reply(_) => "reply",
            EpaxosMsg::PreAccept { .. } => "pre_accept",
            EpaxosMsg::PreAcceptOk { .. } => "pre_accept_ok",
            EpaxosMsg::Accept { .. } => "accept",
            EpaxosMsg::AcceptOk { .. } => "accept_ok",
            EpaxosMsg::Commit { .. } => "commit",
        }
    }
}

impl Wire for EpaxosMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            EpaxosMsg::Request(r) => {
                0u8.encode(buf);
                r.encode(buf);
            }
            EpaxosMsg::Reply(r) => {
                1u8.encode(buf);
                r.encode(buf);
            }
            EpaxosMsg::PreAccept {
                inst,
                batch,
                seq,
                deps,
            } => {
                2u8.encode(buf);
                inst.encode(buf);
                batch.encode(buf);
                seq.encode(buf);
                deps.encode(buf);
            }
            EpaxosMsg::PreAcceptOk {
                inst,
                seq,
                deps,
                changed,
            } => {
                3u8.encode(buf);
                inst.encode(buf);
                seq.encode(buf);
                deps.encode(buf);
                changed.encode(buf);
            }
            EpaxosMsg::Accept {
                inst,
                batch,
                seq,
                deps,
            } => {
                4u8.encode(buf);
                inst.encode(buf);
                batch.encode(buf);
                seq.encode(buf);
                deps.encode(buf);
            }
            EpaxosMsg::AcceptOk { inst } => {
                5u8.encode(buf);
                inst.encode(buf);
            }
            EpaxosMsg::Commit {
                inst,
                batch,
                seq,
                deps,
            } => {
                6u8.encode(buf);
                inst.encode(buf);
                batch.encode(buf);
                seq.encode(buf);
                deps.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(EpaxosMsg::Request(ClientRequest::decode(buf)?)),
            1 => Ok(EpaxosMsg::Reply(ClientReply::decode(buf)?)),
            2 => Ok(EpaxosMsg::PreAccept {
                inst: InstanceId::decode(buf)?,
                batch: CmdBatch::decode(buf)?,
                seq: u64::decode(buf)?,
                deps: Vec::<InstanceId>::decode(buf)?,
            }),
            3 => Ok(EpaxosMsg::PreAcceptOk {
                inst: InstanceId::decode(buf)?,
                seq: u64::decode(buf)?,
                deps: Vec::<InstanceId>::decode(buf)?,
                changed: bool::decode(buf)?,
            }),
            4 => Ok(EpaxosMsg::Accept {
                inst: InstanceId::decode(buf)?,
                batch: CmdBatch::decode(buf)?,
                seq: u64::decode(buf)?,
                deps: Vec::<InstanceId>::decode(buf)?,
            }),
            5 => Ok(EpaxosMsg::AcceptOk {
                inst: InstanceId::decode(buf)?,
            }),
            6 => Ok(EpaxosMsg::Commit {
                inst: InstanceId::decode(buf)?,
                batch: CmdBatch::decode(buf)?,
                seq: u64::decode(buf)?,
                deps: Vec::<InstanceId>::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("epaxos msg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_kv::Op;

    fn sample_batch() -> CmdBatch {
        CmdBatch {
            ops: vec![ClientRequest {
                client: NodeId(9),
                op_id: 3,
                op: Op::Put {
                    key: 7,
                    value: Bytes::from_static(b"12345678"),
                },
            }],
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let inst = InstanceId {
            replica: NodeId(2),
            slot: 5,
        };
        let deps = vec![InstanceId {
            replica: NodeId(1),
            slot: 4,
        }];
        let msgs = vec![
            EpaxosMsg::Request(ClientRequest {
                client: NodeId(9),
                op_id: 1,
                op: Op::Get { key: 7 },
            }),
            EpaxosMsg::PreAccept {
                inst,
                batch: sample_batch(),
                seq: 9,
                deps: deps.clone(),
            },
            EpaxosMsg::PreAcceptOk {
                inst,
                seq: 10,
                deps: deps.clone(),
                changed: true,
            },
            EpaxosMsg::Accept {
                inst,
                batch: sample_batch(),
                seq: 10,
                deps: deps.clone(),
            },
            EpaxosMsg::AcceptOk { inst },
            EpaxosMsg::Commit {
                inst,
                batch: sample_batch(),
                seq: 10,
                deps,
            },
        ];
        for msg in msgs {
            assert_eq!(EpaxosMsg::from_bytes(msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn batch_attributes() {
        let b = sample_batch();
        assert_eq!(b.weight(), 1);
        assert!(b.payload_bytes() > 16);
    }
}
