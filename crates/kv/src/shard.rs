//! Key-space shard routing.
//!
//! A sharded deployment runs one independent LOT pipeline (a *lane*) per
//! key-space shard inside every Canopus node. This module owns the routing
//! function every layer must agree on — workload clients deciding where
//! their traffic lands, `CanopusNode` in `canopus-core` handing a request
//! to the lane that owns it, the message's CPU-lane hint in the simulator,
//! and the chaos verdict grouping committed logs per shard. The mapping is
//! a pure function of the operation, so it is identical across nodes,
//! across restarts, and across processes with no coordination.
//!
//! Routing rules ([`route_hint`] reduced modulo the shard count):
//!
//! * Keyed ops (`Put`/`Get`) go to the shard owning the key.
//! * Synthetic aggregates carry no keys; they go to shard `op_id % shards`,
//!   so a client that wants a stream on shard `s` numbers its ops
//!   `seq * shards + s`, and an unsharded client's ids need no thought.
//! * `MultiPut` touches one shard per distinct key owner; [`ShardRouter::
//!   split_multi`] partitions the writes and the lowest touched shard id
//!   is the transaction's *anchor* (the shard whose commit position fixes
//!   the transaction's place in the cross-shard order).

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::op::{Key, Op};

/// Mixes a 64-bit value into a uniformly distributed hash
/// (splitmix64 finalizer — deterministic, dependency-free).
pub fn shard_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Where `op` goes, before reduction modulo the shard count: the key's
/// hash for keyed ops (a `MultiPut` counts as its first key — all of it,
/// if it stays on one shard; the work of splitting it, if not), the op id
/// for keyless aggregates. The router and the message's CPU-lane hint both
/// call this, so the lane a request queues on is the lane that runs it.
pub fn route_hint(op_id: u64, op: &Op) -> u64 {
    match op {
        Op::Put { key, .. } | Op::Get { key } => shard_hash(*key),
        Op::SyntheticWrite { .. } | Op::SyntheticRead { .. } => op_id,
        Op::MultiPut { puts } => shard_hash(puts.first().map_or(0, |(k, _)| *k)),
    }
}

/// The deterministic op→shard map shared by clients, nodes, and
/// checkers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u16,
}

impl ShardRouter {
    /// A router over `shards` shards (at least 1).
    pub fn new(shards: u16) -> Self {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shard owning `key`.
    pub fn shard_of_key(&self, key: Key) -> u16 {
        (shard_hash(key) % u64::from(self.shards)) as u16
    }

    /// The single shard handling `op` with id `op_id`, or `None` for a
    /// `MultiPut` spanning more than one shard (route those through
    /// [`ShardRouter::split_multi`]).
    pub fn shard_of(&self, op_id: u64, op: &Op) -> Option<u16> {
        if let Op::MultiPut { puts } = op {
            let mut owners = puts.iter().map(|(k, _)| self.shard_of_key(*k));
            let first = owners.next();
            if !owners.all(|s| Some(s) == first) {
                return None;
            }
        }
        Some((route_hint(op_id, op) % u64::from(self.shards)) as u16)
    }

    /// Partitions a multi-key write by owning shard, preserving the
    /// client's key order within each shard. The map's first key is the
    /// transaction's anchor shard.
    pub fn split_multi(&self, puts: &[(Key, Bytes)]) -> BTreeMap<u16, Vec<(Key, Bytes)>> {
        let mut by_shard: BTreeMap<u16, Vec<(Key, Bytes)>> = BTreeMap::new();
        for (k, v) in puts {
            by_shard
                .entry(self.shard_of_key(*k))
                .or_default()
                .push((*k, v.clone()));
        }
        by_shard
    }

    /// The anchor shard of a multi-key write: the lowest touched shard id.
    pub fn anchor_of(&self, puts: &[(Key, Bytes)]) -> u16 {
        puts.iter()
            .map(|(k, _)| self.shard_of_key(*k))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_pinned() {
        // Golden values: the key→shard map is part of the cross-process
        // contract, so the hash function must never drift silently.
        assert_eq!(shard_hash(0), 0xe220a8397b1dcdaf);
        assert_eq!(shard_hash(1), 0x910a2dec89025cc1);
        assert_eq!(shard_hash(0xdead_beef), 0x4adfb90f68c9eb9b);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let r = ShardRouter::new(4);
        for key in 0..1000u64 {
            let s = r.shard_of_key(key);
            assert!(s < 4);
            assert_eq!(s, ShardRouter::new(4).shard_of_key(key), "restart-stable");
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let r = ShardRouter::new(4);
        let mut counts = [0u32; 4];
        for key in 0..10_000u64 {
            counts[r.shard_of_key(key) as usize] += 1;
        }
        for c in counts {
            // Uniform hash: each shard gets 2500 ± a generous tolerance.
            assert!((1800..=3200).contains(&c), "skewed shard: {counts:?}");
        }
    }

    #[test]
    fn keyless_ops_route_by_op_id() {
        let r = ShardRouter::new(8);
        let w = Op::SyntheticWrite {
            count: 10,
            op_bytes: 16,
        };
        let rd = Op::SyntheticRead { count: 5 };
        for seq in 1..50u64 {
            for s in 0..8u16 {
                let op_id = seq * 8 + u64::from(s);
                assert_eq!(r.shard_of(op_id, &w), Some(s));
                assert_eq!(r.shard_of(op_id, &rd), Some(s));
            }
        }
    }

    #[test]
    fn multi_put_splits_by_owner_with_anchor_first() {
        let r = ShardRouter::new(4);
        // Find two keys on different shards.
        let k0 = (0..).find(|k| r.shard_of_key(*k) == 0).unwrap();
        let k3 = (0..).find(|k| r.shard_of_key(*k) == 3).unwrap();
        let puts = vec![
            (k3, Bytes::from_static(b"a")),
            (k0, Bytes::from_static(b"b")),
        ];
        let op = Op::MultiPut { puts: puts.clone() };
        assert_eq!(r.shard_of(1, &op), None, "spans two shards");
        let split = r.split_multi(&puts);
        assert_eq!(split.len(), 2);
        assert_eq!(*split.keys().next().unwrap(), 0);
        assert_eq!(r.anchor_of(&puts), 0);
        // Single-shard multi-put routes like a plain op.
        let same = vec![(k0, Bytes::new()), (k0, Bytes::new())];
        assert_eq!(r.shard_of(1, &Op::MultiPut { puts: same }), Some(0));
    }

    #[test]
    fn one_shard_maps_everything_to_zero() {
        let r = ShardRouter::new(1);
        for key in 0..100u64 {
            assert_eq!(r.shard_of_key(key), 0);
        }
        assert_eq!(r.shard_of(7, &Op::SyntheticRead { count: 1 }), Some(0));
    }
}
