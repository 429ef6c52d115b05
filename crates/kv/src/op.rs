//! The client-facing operation API shared by all three protocols.
//!
//! The paper's workload is 16-byte key-value pairs over one million keys
//! (§8.1). Every protocol in this repository — Canopus, EPaxos, and the
//! Zab-based ZooKeeper model — serves the same [`ClientRequest`] /
//! [`ClientReply`] API so the harness can drive them interchangeably.
//!
//! Two operation granularities exist:
//!
//! * `Put` / `Get` — real single-key operations, applied to the
//!   [`crate::KvStore`] state machine; used by correctness tests and the
//!   precise-latency experiments.
//! * `SyntheticWrite` / `SyntheticRead` — aggregated batches standing for
//!   `count` identical client requests; used by the throughput experiments
//!   where simulating five million individual 16-byte requests per second
//!   as separate events would swamp the event queue without changing the
//!   measured shapes. Synthetic batches carry the byte volume and request
//!   count so network and CPU models see the same load.

use bytes::{Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_sim::NodeId;

/// Key type: the paper draws keys uniformly from a space of one million.
pub type Key = u64;

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Write `value` to `key`.
    Put {
        /// The key.
        key: Key,
        /// The value (the paper uses 8-byte values: 16-byte kv pairs).
        value: Bytes,
    },
    /// Read `key`.
    Get {
        /// The key.
        key: Key,
    },
    /// `count` aggregated write requests of `op_bytes` each.
    SyntheticWrite {
        /// Number of client requests this batch represents.
        count: u32,
        /// Bytes per represented request (key + value).
        op_bytes: u16,
    },
    /// `count` aggregated read requests.
    SyntheticRead {
        /// Number of client requests this batch represents.
        count: u32,
    },
    /// An atomic multi-key write: one op in one request set, so every
    /// replica applies all of its writes at one position of the total order.
    MultiPut {
        /// The writes, in client order. Must be non-empty.
        puts: Vec<(Key, Bytes)>,
    },
}

impl Op {
    /// Whether this operation mutates state (and must be ordered by
    /// consensus; reads are served locally in Canopus).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Put { .. } | Op::SyntheticWrite { .. } | Op::MultiPut { .. }
        )
    }

    /// The number of client requests this operation represents.
    pub fn weight(&self) -> u32 {
        match self {
            Op::Put { .. } | Op::Get { .. } => 1,
            Op::SyntheticWrite { count, .. } | Op::SyntheticRead { count } => *count,
            Op::MultiPut { .. } => 1,
        }
    }

    /// Bytes this operation contributes to a proposal's payload.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Op::Put { value, .. } => 8 + value.len(),
            Op::Get { .. } => 8,
            Op::SyntheticWrite { count, op_bytes } => *count as usize * *op_bytes as usize,
            Op::SyntheticRead { count } => *count as usize * 8,
            Op::MultiPut { puts } => puts.iter().map(|(_, v)| 8 + v.len()).sum(),
        }
    }
}

impl Wire for Op {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Op::Put { key, value } => {
                0u8.encode(buf);
                key.encode(buf);
                value.encode(buf);
            }
            Op::Get { key } => {
                1u8.encode(buf);
                key.encode(buf);
            }
            Op::SyntheticWrite { count, op_bytes } => {
                2u8.encode(buf);
                count.encode(buf);
                op_bytes.encode(buf);
            }
            Op::SyntheticRead { count } => {
                3u8.encode(buf);
                count.encode(buf);
            }
            Op::MultiPut { puts } => {
                4u8.encode(buf);
                puts.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(Op::Put {
                key: Key::decode(buf)?,
                value: Bytes::decode(buf)?,
            }),
            1 => Ok(Op::Get {
                key: Key::decode(buf)?,
            }),
            2 => Ok(Op::SyntheticWrite {
                count: u32::decode(buf)?,
                op_bytes: u16::decode(buf)?,
            }),
            3 => Ok(Op::SyntheticRead {
                count: u32::decode(buf)?,
            }),
            4 => Ok(Op::MultiPut {
                puts: Vec::<(Key, Bytes)>::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("op tag")),
        }
    }
}

/// A client request as delivered to a protocol node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientRequest {
    /// The client's process id — replies are sent here.
    pub client: NodeId,
    /// Client-assigned id, unique per client; replies echo it.
    pub op_id: u64,
    /// The operation.
    pub op: Op,
}

impl Wire for ClientRequest {
    fn encode(&self, buf: &mut BytesMut) {
        self.client.encode(buf);
        self.op_id.encode(buf);
        self.op.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ClientRequest {
            client: NodeId::decode(buf)?,
            op_id: u64::decode(buf)?,
            op: Op::decode(buf)?,
        })
    }
}

/// Result carried in a [`ClientReply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// A write was committed.
    Written,
    /// A read completed with the value (or `None` for an absent key).
    Value(Option<Bytes>),
    /// A synthetic batch completed.
    Batch,
}

impl Wire for OpResult {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            OpResult::Written => 0u8.encode(buf),
            OpResult::Value(v) => {
                1u8.encode(buf);
                v.encode(buf);
            }
            OpResult::Batch => 2u8.encode(buf),
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(OpResult::Written),
            1 => Ok(OpResult::Value(Option::<Bytes>::decode(buf)?)),
            2 => Ok(OpResult::Batch),
            _ => Err(WireError::Invalid("op result tag")),
        }
    }
}

/// A protocol node's reply to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientReply {
    /// Echo of the request's `op_id`.
    pub op_id: u64,
    /// Number of client requests completed (1, or the synthetic count).
    pub weight: u32,
    /// The result.
    pub result: OpResult,
}

impl Wire for ClientReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.op_id.encode(buf);
        self.weight.encode(buf);
        self.result.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ClientReply {
            op_id: u64::decode(buf)?,
            weight: u32::decode(buf)?,
            result: OpResult::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Op::Put {
            key: 1,
            value: Bytes::from_static(b"v")
        }
        .is_write());
        assert!(!Op::Get { key: 1 }.is_write());
        assert!(Op::SyntheticWrite {
            count: 10,
            op_bytes: 16
        }
        .is_write());
        assert!(!Op::SyntheticRead { count: 10 }.is_write());
    }

    #[test]
    fn weights_and_bytes() {
        assert_eq!(Op::Get { key: 1 }.weight(), 1);
        assert_eq!(
            Op::SyntheticWrite {
                count: 500,
                op_bytes: 16
            }
            .weight(),
            500
        );
        assert_eq!(
            Op::SyntheticWrite {
                count: 500,
                op_bytes: 16
            }
            .payload_bytes(),
            8000
        );
        assert_eq!(
            Op::Put {
                key: 1,
                value: Bytes::from_static(b"12345678")
            }
            .payload_bytes(),
            16,
            "16-byte kv pair as in the paper"
        );
    }

    #[test]
    fn request_reply_round_trip() {
        let req = ClientRequest {
            client: NodeId(7),
            op_id: 99,
            op: Op::Put {
                key: 123,
                value: Bytes::from_static(b"abc"),
            },
        };
        assert_eq!(ClientRequest::from_bytes(req.to_bytes()).unwrap(), req);
        let reply = ClientReply {
            op_id: 99,
            weight: 1,
            result: OpResult::Value(Some(Bytes::from_static(b"abc"))),
        };
        assert_eq!(ClientReply::from_bytes(reply.to_bytes()).unwrap(), reply);
    }

    #[test]
    fn all_op_variants_round_trip() {
        for op in [
            Op::Put {
                key: u64::MAX,
                value: Bytes::new(),
            },
            Op::Get { key: 0 },
            Op::SyntheticWrite {
                count: 1000,
                op_bytes: 16,
            },
            Op::SyntheticRead { count: 1 },
            Op::MultiPut {
                puts: vec![(3, Bytes::from_static(b"abc")), (u64::MAX, Bytes::new())],
            },
        ] {
            assert_eq!(Op::from_bytes(op.to_bytes()).unwrap(), op);
        }
    }

    #[test]
    fn multi_put_classification() {
        let op = Op::MultiPut {
            puts: vec![
                (1, Bytes::from_static(b"12345678")),
                (2, Bytes::from_static(b"12345678")),
            ],
        };
        assert!(op.is_write());
        assert_eq!(op.weight(), 1, "one client request, many keys");
        assert_eq!(op.payload_bytes(), 32);
    }
}
