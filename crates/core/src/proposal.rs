//! Proposals, vnode states, and the merge that defines the total order
//! (paper §4.2).
//!
//! A round-1 proposal carries the requests a pnode batched before the cycle
//! started, a fresh 64-bit random *proposal number*, and pending membership
//! updates. The state of a height-`r` vnode is the merge of its children's
//! states, ordered by `(proposal number, tie-break id)` — request sets are
//! never interleaved, only concatenated, which is what keeps each client's
//! requests contiguous ("requests in a request set are never separated",
//! §5). The merged state's number is the *largest* number among its
//! children, so ordering at the next level is again by fresh randomness.
//!
//! ## Request sets stay encoded
//!
//! Because sets are only ever concatenated, no node needs to look inside
//! one until it applies the committed cycle: the merges order sets by
//! their proposals' numbers, and the sizes the network and the counters
//! see are sums kept per set. So a set's writes are one [`OpBlock`] —
//! the bytes the wire carries for them, checked once when they are
//! decoded and read in place, op by op, when the cycle commits. Between
//! the two, the merges, the clones a lane keeps of each state and the
//! proposal-responses it serves move reference counts, and encoding a
//! set copies its bytes. The decoder refuses a block that holds a read
//! (reads are answered where they arrive, §5), so every block a cycle
//! commits can be applied.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use canopus_kv::Key;
use canopus_net::wire::{Wire, WireError, WireRead, MAX_FRAME};
use canopus_sim::{NodeId, Time};

pub use canopus_kv::TimedOp;

use crate::types::{CycleId, VnodeId};

/// A membership change carried through a consensus cycle (§4.6) and applied
/// by every node to its emulation table at cycle commit.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MembershipUpdate {
    /// `node` joined super-leaf `superleaf`.
    Join {
        /// The joining node.
        node: NodeId,
        /// Index of the super-leaf it joins.
        superleaf: u32,
    },
    /// `node` left (crashed out of) the tree.
    Leave {
        /// The departing node.
        node: NodeId,
    },
}

impl Wire for MembershipUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            MembershipUpdate::Join { node, superleaf } => {
                0u8.encode(buf);
                node.encode(buf);
                superleaf.encode(buf);
            }
            MembershipUpdate::Leave { node } => {
                1u8.encode(buf);
                node.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(MembershipUpdate::Join {
                node: NodeId::decode(buf)?,
                superleaf: u32::decode(buf)?,
            }),
            1 => Ok(MembershipUpdate::Leave {
                node: NodeId::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("membership tag")),
        }
    }
}

/// One node's batched writes for one cycle. Request sets travel and commit
/// as units; the consensus orders sets, never individual requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSet {
    /// The node that received these requests from its clients.
    pub origin: NodeId,
    /// The writes, in arrival (client-FIFO) order.
    pub ops: OpBlock,
    /// Keys for which this origin requests write leases (§7.2; empty unless
    /// the lease optimization is enabled).
    pub lease_requests: Vec<u64>,
}

impl RequestSet {
    /// An empty set for `origin` (empty proposals still occupy a position
    /// in the total order, as in the paper's example `PC = {∅ | NC | 1}`).
    pub fn empty(origin: NodeId) -> Self {
        RequestSet {
            origin,
            ops: OpBlock::default(),
            lease_requests: Vec::new(),
        }
    }

    /// Total client requests represented (synthetic batches count fully).
    pub fn weight(&self) -> u64 {
        self.ops.weight()
    }

    /// Payload bytes represented.
    pub fn payload_bytes(&self) -> usize {
        self.ops.payload_bytes() + self.lease_requests.len() * 8 + 16
    }
}

impl Wire for RequestSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.origin.encode(buf);
        self.ops.encode(buf);
        self.lease_requests.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RequestSet {
            origin: NodeId::decode(buf)?,
            ops: OpBlock::decode(buf)?,
            lease_requests: Vec::<u64>::decode(buf)?,
        })
    }
}

/// The writes of one request set, held as the bytes the wire carries for
/// them: a `u32` count, then each op as [`TimedOp`] encodes it (the bytes
/// `Vec::<TimedOp>::encode` writes). The count, the weight and the payload
/// size are computed once, when the block is built or decoded.
///
/// Nothing is parsed out of a block before the cycle that orders it
/// commits; [`OpBlock::iter`] then reads each op in place. A block is
/// immutable and owns its own allocation: cloning it bumps one reference
/// count, encoding it copies its bytes, and decoding one copies it out of
/// the receive frame, so a retained cycle state never keeps a frame alive.
#[derive(Clone, PartialEq, Eq)]
pub struct OpBlock {
    bytes: Bytes,
    len: u32,
    weight: u64,
    payload: usize,
}

impl OpBlock {
    /// Number of ops (client requests and synthetic batches alike).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block holds no op.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Client requests represented (a synthetic batch counts fully).
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Payload bytes represented: each op's payload plus 21 bytes of
    /// per-request header.
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// The ops in arrival order, read in place.
    pub fn iter(&self) -> Ops<'_> {
        Ops {
            rest: &self.bytes[4..],
            left: self.len,
        }
    }
}

impl Default for OpBlock {
    fn default() -> Self {
        OpBlock {
            bytes: Bytes::copy_from_slice(&0u32.to_le_bytes()),
            len: 0,
            weight: 0,
            payload: 0,
        }
    }
}

/// Encodes client writes into a block.
///
/// # Panics
/// Panics on a read: reads are served locally and never enter a set.
impl FromIterator<TimedOp> for OpBlock {
    fn from_iter<I: IntoIterator<Item = TimedOp>>(ops: I) -> Self {
        let mut buf = BytesMut::new();
        0u32.encode(&mut buf);
        let (mut len, mut weight, mut payload) = (0u32, 0u64, 0usize);
        for op in ops {
            assert!(op.req.op.is_write(), "a read in a request set");
            op.encode(&mut buf);
            len += 1;
            weight += u64::from(op.req.op.weight());
            payload += op.req.op.payload_bytes() + 21;
        }
        buf[..4].copy_from_slice(&len.to_le_bytes());
        OpBlock {
            bytes: buf.freeze(),
            len,
            weight,
            payload,
        }
    }
}

impl fmt::Debug for OpBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Wire for OpBlock {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.bytes);
    }

    /// Walks the ops once to check them and find the block's end, then
    /// copies the block out of `buf`. Rejects everything
    /// `Vec::<TimedOp>::decode` rejects, and a read besides.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let mut rest: &[u8] = buf;
        let len = read_u32(&mut rest)?;
        if len as usize > MAX_FRAME {
            return Err(WireError::TooLarge(len as usize));
        }
        let (mut weight, mut payload) = (0u64, 0usize);
        for _ in 0..len {
            let op = read_op(&mut rest)?;
            weight += u64::from(op.write.weight());
            // Synthetic batches in a crafted frame could overflow the sum.
            payload = payload.saturating_add(op.write.payload_bytes() + 21);
        }
        let size = buf.len() - rest.len();
        let bytes = Bytes::copy_from_slice(&buf[..size]);
        buf.advance(size);
        Ok(OpBlock {
            bytes,
            len,
            weight,
            payload,
        })
    }
}

/// One op of an [`OpBlock`], borrowed from the block's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpView<'a> {
    /// The client's process id, to which the origin replies.
    pub client: NodeId,
    /// Client-assigned id, echoed in the reply.
    pub op_id: u64,
    /// Arrival time at the origin node.
    pub arrival: Time,
    /// The write.
    pub write: WriteView<'a>,
}

/// The write an [`OpView`] carries: a write variant of
/// [`canopus_kv::Op`], read in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteView<'a> {
    /// Write `value` to `key`.
    Put {
        /// The key.
        key: Key,
        /// The value.
        value: &'a [u8],
    },
    /// `count` aggregated write requests of `op_bytes` each.
    SyntheticWrite {
        /// Number of client requests this batch represents.
        count: u32,
        /// Bytes per represented request.
        op_bytes: u16,
    },
    /// An atomic multi-key write.
    MultiPut(PutPairs<'a>),
}

impl WriteView<'_> {
    /// The number of client requests this write represents
    /// ([`canopus_kv::Op::weight`]).
    pub fn weight(&self) -> u32 {
        match *self {
            WriteView::Put { .. } | WriteView::MultiPut(_) => 1,
            WriteView::SyntheticWrite { count, .. } => count,
        }
    }

    /// Bytes it contributes to a proposal's payload
    /// ([`canopus_kv::Op::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        match *self {
            WriteView::Put { value, .. } => 8 + value.len(),
            WriteView::SyntheticWrite { count, op_bytes } => count as usize * op_bytes as usize,
            WriteView::MultiPut(pairs) => pairs.map(|(_, value)| 8 + value.len()).sum(),
        }
    }
}

/// A [`WriteView::MultiPut`]'s `(key, value)` pairs in client order, read
/// in place.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PutPairs<'a> {
    rest: &'a [u8],
    left: u32,
}

impl<'a> Iterator for PutPairs<'a> {
    type Item = (Key, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(read_pair(&mut self.rest).expect("validated at decode"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for PutPairs<'_> {}

impl fmt::Debug for PutPairs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(*self).finish()
    }
}

/// The ops of an [`OpBlock`], in order.
#[derive(Clone)]
pub struct Ops<'a> {
    rest: &'a [u8],
    left: u32,
}

impl<'a> Iterator for Ops<'a> {
    type Item = OpView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(read_op(&mut self.rest).expect("validated at decode"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl<'a> IntoIterator for &'a OpBlock {
    type Item = OpView<'a>;
    type IntoIter = Ops<'a>;
    fn into_iter(self) -> Ops<'a> {
        self.iter()
    }
}

// In-place readers over a block's bytes, with the checks the `Wire`
// decoders of the same fields make.

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if n > MAX_FRAME {
        return Err(WireError::TooLarge(n));
    }
    if rest.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

fn read_array<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], WireError> {
    Ok(take(rest, N)?.try_into().expect("N bytes"))
}

fn read_u32(rest: &mut &[u8]) -> Result<u32, WireError> {
    read_array(rest).map(u32::from_le_bytes)
}

fn read_u64(rest: &mut &[u8]) -> Result<u64, WireError> {
    read_array(rest).map(u64::from_le_bytes)
}

/// A length-prefixed byte string, as [`Bytes`] encodes it.
fn read_value<'a>(rest: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let n = read_u32(rest)? as usize;
    take(rest, n)
}

fn read_pair<'a>(rest: &mut &'a [u8]) -> Result<(Key, &'a [u8]), WireError> {
    Ok((read_u64(rest)?, read_value(rest)?))
}

/// One [`TimedOp`]'s encoding; a read is invalid here.
fn read_op<'a>(rest: &mut &'a [u8]) -> Result<OpView<'a>, WireError> {
    let client = NodeId(read_u32(rest)?);
    let op_id = read_u64(rest)?;
    let write = match read_array::<1>(rest)?[0] {
        0 => WriteView::Put {
            key: read_u64(rest)?,
            value: read_value(rest)?,
        },
        2 => WriteView::SyntheticWrite {
            count: read_u32(rest)?,
            op_bytes: u16::from_le_bytes(read_array(rest)?),
        },
        4 => {
            let left = read_u32(rest)?;
            if left as usize > MAX_FRAME {
                return Err(WireError::TooLarge(left as usize));
            }
            let start = *rest;
            for _ in 0..left {
                read_pair(rest)?;
            }
            let size = start.len() - rest.len();
            WriteView::MultiPut(PutPairs {
                rest: &start[..size],
                left,
            })
        }
        1 | 3 => return Err(WireError::Invalid("read in a request set")),
        _ => return Err(WireError::Invalid("op tag")),
    };
    let arrival = Time::from_nanos(read_u64(rest)?);
    Ok(OpView {
        client,
        op_id,
        arrival,
        write,
    })
}

/// The state of a vnode in one cycle, as computed by a pnode (the paper's
/// `Π(s, n, c, r)`): an ordered list of request sets, the dominating
/// proposal number, and the merged membership updates.
///
/// A round-1 proposal is the degenerate case: `vnode` is the pnode's
/// height-1 parent, `sets` holds the single origin set, and `(number, tie)`
/// is the fresh random draw with the pnode id as tie-break.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VnodeState {
    /// Which vnode this state belongs to.
    pub vnode: VnodeId,
    /// The cycle it was computed in.
    pub cycle: CycleId,
    /// Dominating proposal number (the max among merged children).
    pub number: u64,
    /// Deterministic tie-break: the pnode id (round 1) or the child vnode's
    /// last path digit (later rounds) accompanying `number`.
    pub tie: u32,
    /// Ordered request sets.
    pub sets: Vec<RequestSet>,
    /// Merged membership updates (sorted, deduplicated).
    pub updates: Vec<MembershipUpdate>,
}

impl VnodeState {
    /// Builds a round-1 proposal for pnode `origin`.
    pub fn round1(
        origin: NodeId,
        parent: VnodeId,
        cycle: CycleId,
        number: u64,
        set: RequestSet,
        updates: Vec<MembershipUpdate>,
    ) -> VnodeState {
        debug_assert_eq!(set.origin, origin);
        let mut updates = updates;
        updates.sort();
        updates.dedup();
        VnodeState {
            vnode: parent,
            cycle,
            number,
            tie: origin.0,
            sets: vec![set],
            updates,
        }
    }

    /// The key children are ordered by when merging.
    pub fn order_key(&self) -> (u64, u32) {
        (self.number, self.tie)
    }

    /// Total client requests across all sets.
    pub fn weight(&self) -> u64 {
        self.sets.iter().map(RequestSet::weight).sum()
    }

    /// Approximate encoded size, for network modelling.
    pub fn wire_bytes(&self) -> usize {
        32 + 2 * self.vnode.depth()
            + self
                .sets
                .iter()
                .map(RequestSet::payload_bytes)
                .sum::<usize>()
            + self.updates.len() * 9
    }

    /// Merges sibling states into their parent's state (one consensus
    /// round, §4.2): children sorted by `(number, tie)`, sets concatenated
    /// in that order, updates unioned, number = max.
    ///
    /// # Panics
    /// Panics if `children` is empty or the children disagree on the cycle.
    pub fn merge(parent: VnodeId, mut children: Vec<VnodeState>) -> VnodeState {
        assert!(!children.is_empty(), "merge of zero children");
        let cycle = children[0].cycle;
        assert!(
            children.iter().all(|c| c.cycle == cycle),
            "cycle mismatch in merge"
        );
        children.sort_by_key(|c| c.order_key());
        let (number, tie) = children
            .last()
            .map(|c| (c.number, c.tie))
            .expect("non-empty");
        let mut sets = Vec::with_capacity(children.iter().map(|c| c.sets.len()).sum());
        let mut updates = Vec::new();
        for child in children {
            sets.extend(child.sets);
            updates.extend(child.updates);
        }
        updates.sort();
        updates.dedup();
        VnodeState {
            vnode: parent,
            cycle,
            number,
            tie,
            sets,
            updates,
        }
    }
}

impl Wire for VnodeState {
    fn encode(&self, buf: &mut BytesMut) {
        self.vnode.encode(buf);
        self.cycle.encode(buf);
        self.number.encode(buf);
        self.tie.encode(buf);
        self.sets.encode(buf);
        self.updates.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(VnodeState {
            vnode: VnodeId::decode(buf)?,
            cycle: CycleId::decode(buf)?,
            number: u64::decode(buf)?,
            tie: u32::decode(buf)?,
            sets: Vec::<RequestSet>::decode(buf)?,
            updates: Vec::<MembershipUpdate>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_kv::{ClientRequest, Op};

    fn set_with(origin: u32, keys: &[u64]) -> RequestSet {
        RequestSet {
            origin: NodeId(origin),
            ops: keys
                .iter()
                .map(|&k| TimedOp {
                    req: ClientRequest {
                        client: NodeId(100 + origin),
                        op_id: k,
                        op: Op::Put {
                            key: k,
                            value: Bytes::from_static(b"12345678"),
                        },
                    },
                    arrival: Time::ZERO,
                })
                .collect(),
            lease_requests: Vec::new(),
        }
    }

    fn proposal(origin: u32, number: u64, keys: &[u64]) -> VnodeState {
        VnodeState::round1(
            NodeId(origin),
            VnodeId(vec![0]),
            CycleId(1),
            number,
            set_with(origin, keys),
            Vec::new(),
        )
    }

    #[test]
    fn merge_orders_by_proposal_number() {
        let a = proposal(0, 500, &[1]);
        let b = proposal(1, 100, &[2]);
        let c = proposal(2, 300, &[3]);
        let merged = VnodeState::merge(VnodeId(vec![0]), vec![a, b, c]);
        let origins: Vec<u32> = merged.sets.iter().map(|s| s.origin.0).collect();
        assert_eq!(origins, vec![1, 2, 0], "sorted by random number");
        assert_eq!(merged.number, 500, "max number propagates");
        assert_eq!(merged.tie, 0, "tie of the max-number child");
    }

    #[test]
    fn merge_breaks_ties_by_id() {
        let a = proposal(7, 100, &[1]);
        let b = proposal(3, 100, &[2]);
        let merged = VnodeState::merge(VnodeId(vec![0]), vec![a, b]);
        let origins: Vec<u32> = merged.sets.iter().map(|s| s.origin.0).collect();
        assert_eq!(origins, vec![3, 7], "equal numbers break by node id");
    }

    #[test]
    fn merge_keeps_sets_contiguous() {
        // Two height-1 states each with multiple sets; merging must not
        // interleave their sets.
        let x = VnodeState::merge(
            VnodeId(vec![0]),
            vec![proposal(0, 10, &[1]), proposal(1, 20, &[2])],
        );
        let y = VnodeState::merge(
            VnodeId(vec![1]),
            vec![proposal(2, 5, &[3]), proposal(3, 15, &[4])],
        );
        // x has number 20, y has 15: y's block comes first, intact.
        let mut x2 = x.clone();
        x2.tie = x.vnode.last_digit() as u32;
        let mut y2 = y.clone();
        y2.tie = y.vnode.last_digit() as u32;
        let root = VnodeState::merge(VnodeId::root(), vec![x2, y2]);
        let origins: Vec<u32> = root.sets.iter().map(|s| s.origin.0).collect();
        assert_eq!(origins, vec![2, 3, 0, 1], "blocks stay contiguous");
    }

    #[test]
    fn merge_is_deterministic_regardless_of_input_order() {
        let children = vec![
            proposal(0, 50, &[1]),
            proposal(1, 10, &[2]),
            proposal(2, 90, &[3]),
        ];
        let m1 = VnodeState::merge(VnodeId(vec![0]), children.clone());
        let mut rev = children;
        rev.reverse();
        let m2 = VnodeState::merge(VnodeId(vec![0]), rev);
        assert_eq!(m1, m2);
    }

    #[test]
    fn merge_unions_membership_updates() {
        let mut a = proposal(0, 1, &[]);
        a.updates = vec![MembershipUpdate::Leave { node: NodeId(9) }];
        let mut b = proposal(1, 2, &[]);
        b.updates = vec![
            MembershipUpdate::Leave { node: NodeId(9) },
            MembershipUpdate::Join {
                node: NodeId(4),
                superleaf: 1,
            },
        ];
        let merged = VnodeState::merge(VnodeId(vec![0]), vec![a, b]);
        assert_eq!(merged.updates.len(), 2, "deduplicated");
    }

    #[test]
    #[should_panic(expected = "cycle mismatch")]
    fn merge_rejects_mixed_cycles() {
        let a = proposal(0, 1, &[]);
        let mut b = proposal(1, 2, &[]);
        b.cycle = CycleId(2);
        VnodeState::merge(VnodeId(vec![0]), vec![a, b]);
    }

    #[test]
    fn wire_round_trip() {
        let mut state = proposal(3, 0xDEADBEEF, &[5, 6]);
        state.updates = vec![MembershipUpdate::Join {
            node: NodeId(8),
            superleaf: 2,
        }];
        state.sets[0].lease_requests = vec![42, 43];
        let back = VnodeState::from_bytes(state.to_bytes()).unwrap();
        assert_eq!(back, state);
    }

    fn timed(op_id: u64, op: Op) -> TimedOp {
        TimedOp {
            req: ClientRequest {
                client: NodeId(5),
                op_id,
                op,
            },
            arrival: Time::from_nanos(op_id * 10),
        }
    }

    /// A `Put`, a `SyntheticWrite` and a `MultiPut`.
    fn mixed_ops() -> Vec<TimedOp> {
        vec![
            timed(
                1,
                Op::Put {
                    key: 7,
                    value: Bytes::from_static(b"12345678"),
                },
            ),
            timed(
                2,
                Op::SyntheticWrite {
                    count: 100,
                    op_bytes: 16,
                },
            ),
            timed(
                3,
                Op::MultiPut {
                    puts: vec![(3, Bytes::from_static(b"abc")), (4, Bytes::new())],
                },
            ),
        ]
    }

    #[test]
    fn weights_aggregate() {
        let block: OpBlock = mixed_ops().into_iter().collect();
        assert_eq!(block.weight(), 102);
        let set = RequestSet {
            origin: NodeId(0),
            ops: block,
            lease_requests: vec![9],
        };
        assert_eq!(set.weight(), 102);
        assert_eq!(set.payload_bytes(), 16 + 1600 + 19 + 3 * 21 + 8 + 16);
    }

    #[test]
    fn a_block_holds_the_ops_encoding_and_reads_each_op_in_place() {
        let ops = mixed_ops();
        let block: OpBlock = ops.iter().cloned().collect();
        assert_eq!(
            block.to_bytes(),
            ops.to_bytes(),
            "the bytes of Vec<TimedOp>"
        );
        assert_eq!((block.len(), block.is_empty()), (3, false));
        let payload: usize = ops.iter().map(|op| op.req.op.payload_bytes() + 21).sum();
        assert_eq!(block.payload_bytes(), payload);
        let views: Vec<OpView<'_>> = block.iter().collect();
        let value = &b"12345678"[..];
        assert_eq!(views[0].write, WriteView::Put { key: 7, value });
        let synthetic = WriteView::SyntheticWrite {
            count: 100,
            op_bytes: 16,
        };
        assert_eq!(views[1].write, synthetic);
        let WriteView::MultiPut(pairs) = views[2].write else {
            panic!("not a MultiPut: {:?}", views[2]);
        };
        let pairs: Vec<_> = pairs.collect();
        assert_eq!(pairs, vec![(3, &b"abc"[..]), (4, &b""[..])]);
        for (view, op) in views.iter().zip(&ops) {
            assert_eq!(
                (view.client, view.op_id, view.arrival),
                (op.req.client, op.req.op_id, op.arrival)
            );
            assert_eq!(view.write.weight(), op.req.op.weight());
            assert_eq!(view.write.payload_bytes(), op.req.op.payload_bytes());
        }
        let empty = OpBlock::default();
        assert_eq!(empty.to_bytes(), Vec::<TimedOp>::new().to_bytes());
        assert_eq!(empty, std::iter::empty().collect());
        assert_eq!((empty.len(), empty.iter().count()), (0, 0));
    }

    #[test]
    fn a_decoded_block_owns_its_bytes() {
        let block: OpBlock = mixed_ops().into_iter().collect();
        let frame = block.to_bytes();
        let back = OpBlock::from_bytes(frame.clone()).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.weight(), 102);
        let held = frame.as_ptr_range();
        assert!(
            !held.contains(&back.bytes.as_ptr()),
            "copied out of the frame, not a slice of it"
        );
    }

    #[test]
    fn a_block_is_decoded_as_strictly_as_a_vec_of_ops() {
        let ops = mixed_ops();
        let frame = ops.to_bytes();
        for cut in 0..frame.len() {
            assert_eq!(
                OpBlock::decode(&mut frame.slice(..cut)),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        let mut huge = BytesMut::new();
        u32::MAX.encode(&mut huge);
        assert!(matches!(
            OpBlock::decode(&mut huge.freeze()),
            Err(WireError::TooLarge(_))
        ));
        let mut bad_tag = frame.to_vec();
        bad_tag[4 + 12] = 9; // the first op's tag
        assert_eq!(
            OpBlock::from_bytes(Bytes::from(bad_tag)),
            Err(WireError::Invalid("op tag"))
        );
        // The rest of the buffer is left where the block ends.
        let mut buf = BytesMut::new();
        ops.encode(&mut buf);
        7u8.encode(&mut buf);
        let mut buf = buf.freeze();
        OpBlock::decode(&mut buf).unwrap();
        assert_eq!(&buf[..], &[7u8][..]);
    }

    #[test]
    #[should_panic(expected = "a read in a request set")]
    fn a_block_is_never_built_with_a_read() {
        let _: OpBlock = [timed(1, Op::Get { key: 1 })].into_iter().collect();
    }
}
