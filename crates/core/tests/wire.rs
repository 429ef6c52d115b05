//! The bytes a proposal and a proposal-response put on the wire, pinned by
//! value against a hand-built byte string, together with the sizes the
//! simulator charges for them. A change to how request sets are held in
//! memory must leave every byte and every size here as it is.

use bytes::Bytes;
use canopus::{
    BroadcastItem, CanopusMsg, CycleId, MembershipUpdate, RequestSet, TimedOp, VnodeId, VnodeState,
};
use canopus_kv::{ClientRequest, Op};
use canopus_net::wire::Wire;
use canopus_sim::{NodeId, Payload, Time};

fn timed(client: u32, op_id: u64, op: Op, arrival_ns: u64) -> TimedOp {
    TimedOp {
        req: ClientRequest {
            client: NodeId(client),
            op_id,
            op,
        },
        arrival: Time::from_nanos(arrival_ns),
    }
}

/// A round-1 proposal of node 2 for cycle 4 under vnode `[1]`: one `Put`,
/// one `SyntheticWrite`, one `MultiPut`, a lease request and a `Leave`.
fn state() -> VnodeState {
    let ops = [
        timed(
            30,
            7,
            Op::Put {
                key: 9,
                value: Bytes::from_static(b"12345678"),
            },
            500,
        ),
        timed(
            31,
            8,
            Op::SyntheticWrite {
                count: 100,
                op_bytes: 16,
            },
            600,
        ),
        timed(
            32,
            9,
            Op::MultiPut {
                puts: vec![(3, Bytes::from_static(b"abc")), (4, Bytes::new())],
            },
            700,
        ),
    ];
    VnodeState::round1(
        NodeId(2),
        VnodeId(vec![1]),
        CycleId(4),
        0x0123_4567_89ab_cdef,
        RequestSet {
            origin: NodeId(2),
            ops: ops.into_iter().collect(),
            lease_requests: vec![9],
        },
        vec![MembershipUpdate::Leave { node: NodeId(5) }],
    )
}

/// `state()` as the codec must write it, field by field.
fn state_bytes() -> Vec<u8> {
    let mut b = Vec::new();
    let u16 = |b: &mut Vec<u8>, v: u16| b.extend_from_slice(&v.to_le_bytes());
    let u32 = |b: &mut Vec<u8>, v: u32| b.extend_from_slice(&v.to_le_bytes());
    let u64 = |b: &mut Vec<u8>, v: u64| b.extend_from_slice(&v.to_le_bytes());
    // vnode [1]: path length, then each digit.
    b.push(1);
    u16(&mut b, 1);
    u64(&mut b, 4); // cycle
    u64(&mut b, 0x0123_4567_89ab_cdef); // number
    u32(&mut b, 2); // tie: the proposer
    u32(&mut b, 1); // one request set
    u32(&mut b, 2); // origin
    u32(&mut b, 3); // three ops

    // Put: client, op_id, tag 0, key, value.
    u32(&mut b, 30);
    u64(&mut b, 7);
    b.push(0);
    u64(&mut b, 9);
    u32(&mut b, 8);
    b.extend_from_slice(b"12345678");
    u64(&mut b, 500); // arrival

    // SyntheticWrite: client, op_id, tag 2, count, op_bytes.
    u32(&mut b, 31);
    u64(&mut b, 8);
    b.push(2);
    u32(&mut b, 100);
    u16(&mut b, 16);
    u64(&mut b, 600);

    // MultiPut: client, op_id, tag 4, pair count, then key and value each.
    u32(&mut b, 32);
    u64(&mut b, 9);
    b.push(4);
    u32(&mut b, 2);
    u64(&mut b, 3);
    u32(&mut b, 3);
    b.extend_from_slice(b"abc");
    u64(&mut b, 4);
    u32(&mut b, 0);
    u64(&mut b, 700);

    // Lease requests: count, keys.
    u32(&mut b, 1);
    u64(&mut b, 9);

    // Membership updates: count, then Leave (tag 1) of node 5.
    u32(&mut b, 1);
    b.push(1);
    u32(&mut b, 5);
    b
}

#[test]
fn a_proposal_and_a_proposal_response_keep_their_bytes_and_sizes() {
    let state = state();
    assert_eq!(state.weight(), 102, "1 + 100 + 1 requests");
    assert_eq!(state.sets[0].payload_bytes(), 1722);
    assert_eq!(state.wire_bytes(), 1765);

    let mut proposal = vec![0u8]; // BroadcastItem::Proposal
    proposal.extend(state_bytes());
    assert_eq!(proposal.len(), 177);
    let item = BroadcastItem::Proposal(state.clone());
    assert_eq!(item.to_bytes(), Bytes::from(proposal.clone()));
    assert_eq!(BroadcastItem::from_bytes(Bytes::from(proposal)), Ok(item));

    let mut response = vec![4u8]; // CanopusMsg::ProposalResponse
    response.extend(state_bytes());
    let msg = CanopusMsg::ProposalResponse { state };
    assert_eq!(msg.to_bytes(), Bytes::from(response.clone()));
    assert_eq!(
        CanopusMsg::from_bytes(Bytes::from(response)),
        Ok(msg.clone())
    );
    assert_eq!(msg.wire_size(), 1766);
}
