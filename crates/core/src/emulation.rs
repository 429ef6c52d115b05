//! The emulation table (paper §4.6): vnode → live emulator pnodes.
//!
//! Every pnode holds an identical table mapping each super-leaf to its live
//! members; the emulators of a vnode are the members of all super-leaves
//! beneath it. The table changes only by applying the membership updates
//! agreed in a committed consensus cycle, so — as the paper's Appendix A
//! argues — all nodes hold the same table in every cycle. Tests assert
//! table digests match across nodes at every commit.

use std::collections::{BTreeMap, BTreeSet};

use canopus_sim::NodeId;

use crate::proposal::MembershipUpdate;
use crate::types::{LotShape, VnodeId};

/// Live membership of every super-leaf, with vnode→emulator queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmulationTable {
    shape: LotShape,
    members: Vec<BTreeSet<NodeId>>,
    home: BTreeMap<NodeId, u32>,
}

impl EmulationTable {
    /// Builds the initial table: `initial[s]` lists the pnodes of
    /// super-leaf `s`.
    ///
    /// # Panics
    /// Panics if the count mismatches the shape, a super-leaf is empty, or
    /// a node appears twice.
    pub fn new(shape: LotShape, initial: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(
            initial.len(),
            shape.num_superleaves(),
            "one member list per super-leaf"
        );
        let mut home = BTreeMap::new();
        let mut members = Vec::with_capacity(initial.len());
        for (s, list) in initial.into_iter().enumerate() {
            assert!(!list.is_empty(), "super-leaf {s} must start non-empty");
            let set: BTreeSet<NodeId> = list.into_iter().collect();
            for &n in &set {
                let prev = home.insert(n, s as u32);
                assert!(prev.is_none(), "{n} appears in two super-leaves");
            }
            members.push(set);
        }
        EmulationTable {
            shape,
            members,
            home,
        }
    }

    /// The LOT shape.
    pub fn shape(&self) -> &LotShape {
        &self.shape
    }

    /// Which super-leaf a node belongs to, if it is currently a member.
    pub fn superleaf_of(&self, node: NodeId) -> Option<usize> {
        self.home.get(&node).map(|&s| s as usize)
    }

    /// Live members of super-leaf `s`, in id order.
    pub fn members_of(&self, s: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.members[s].iter().copied()
    }

    /// All live pnodes that emulate `vnode` (members of every super-leaf
    /// beneath it), in id order.
    pub fn emulators(&self, vnode: &VnodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for s in self.shape.superleaves_under(vnode) {
            out.extend(self.members[s].iter().copied());
        }
        out
    }

    /// Applies one committed membership update. Unknown leaves and
    /// duplicate joins are tolerated (updates may be proposed by several
    /// observers and merge idempotently).
    pub fn apply(&mut self, update: &MembershipUpdate) {
        match update {
            MembershipUpdate::Join { node, superleaf } => {
                let s = *superleaf as usize;
                assert!(s < self.members.len(), "join to unknown super-leaf");
                if let Some(&old) = self.home.get(node) {
                    if old as usize == s {
                        return; // duplicate join
                    }
                    self.members[old as usize].remove(node);
                }
                self.members[s].insert(*node);
                self.home.insert(*node, s as u32);
            }
            MembershipUpdate::Leave { node } => {
                if let Some(s) = self.home.remove(node) {
                    self.members[s as usize].remove(node);
                }
            }
        }
    }

    /// The live members of every super-leaf, in super-leaf order.
    pub fn membership(&self) -> Vec<Vec<NodeId>> {
        (self.members.iter())
            .map(|set| set.iter().copied().collect())
            .collect()
    }

    /// Replaces the membership with another node's [`Self::membership`]
    /// (state transfer). Unlike the initial table, a super-leaf may by now
    /// be empty.
    pub fn set_membership(&mut self, membership: Vec<Vec<NodeId>>) {
        assert_eq!(membership.len(), self.members.len(), "same LOT shape");
        self.home.clear();
        for (s, (set, list)) in self.members.iter_mut().zip(membership).enumerate() {
            *set = list.into_iter().collect();
            self.home.extend(set.iter().map(|&n| (n, s as u32)));
        }
    }

    /// Applies a batch of committed updates in order.
    pub fn apply_all(&mut self, updates: &[MembershipUpdate]) {
        for u in updates {
            self.apply(u);
        }
    }

    /// Digest of the whole table, for cross-node agreement checks.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (s, set) in self.members.iter().enumerate() {
            mix(s as u64);
            for n in set {
                mix(n.0 as u64 + 1);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmulationTable {
        // Height-2 LOT, 2 super-leaves of 3.
        EmulationTable::new(
            LotShape::flat(2),
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4), NodeId(5)],
            ],
        )
    }

    #[test]
    fn emulators_by_subtree() {
        let t = table();
        assert_eq!(
            t.emulators(&VnodeId(vec![0])),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(t.emulators(&VnodeId::root()).len(), 6);
        assert_eq!(t.superleaf_of(NodeId(4)), Some(1));
        assert_eq!(t.superleaf_of(NodeId(9)), None);
    }

    #[test]
    fn leave_removes_everywhere() {
        let mut t = table();
        t.apply(&MembershipUpdate::Leave { node: NodeId(1) });
        assert_eq!(t.superleaf_of(NodeId(1)), None);
        assert_eq!(t.emulators(&VnodeId(vec![0])), vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.members_of(0).count(), 2);
        // Leave of an unknown node is a no-op.
        t.apply(&MembershipUpdate::Leave { node: NodeId(99) });
        assert_eq!(t.members_of(0).count(), 2);
    }

    #[test]
    fn join_and_duplicate_join() {
        let mut t = table();
        t.apply(&MembershipUpdate::Join {
            node: NodeId(9),
            superleaf: 1,
        });
        assert_eq!(t.superleaf_of(NodeId(9)), Some(1));
        assert_eq!(t.members_of(1).count(), 4);
        let digest = t.digest();
        t.apply(&MembershipUpdate::Join {
            node: NodeId(9),
            superleaf: 1,
        });
        assert_eq!(t.digest(), digest, "duplicate join is idempotent");
    }

    #[test]
    fn identical_update_sequences_converge() {
        let mut a = table();
        let mut b = table();
        let updates = vec![
            MembershipUpdate::Leave { node: NodeId(2) },
            MembershipUpdate::Join {
                node: NodeId(7),
                superleaf: 0,
            },
            MembershipUpdate::Leave { node: NodeId(3) },
        ];
        a.apply_all(&updates);
        b.apply_all(&updates);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn figure1_emulator_counts() {
        // Figure 1: height 3, fanouts [3,3], 3 pnodes per super-leaf; the
        // paper notes vnode 1.1 is emulated by nine pnodes and the root by
        // all 27.
        let shape = LotShape::new(vec![3, 3]);
        let initial: Vec<Vec<NodeId>> = (0..9)
            .map(|s| (0..3).map(|i| NodeId(s * 3 + i)).collect())
            .collect();
        let t = EmulationTable::new(shape, initial);
        assert_eq!(t.emulators(&VnodeId(vec![0])).len(), 9);
        assert_eq!(t.emulators(&VnodeId::root()).len(), 27);
        assert_eq!(t.emulators(&VnodeId(vec![1, 2])).len(), 3);
    }

    #[test]
    #[should_panic(expected = "two super-leaves")]
    fn duplicate_initial_member_rejected() {
        EmulationTable::new(LotShape::flat(2), vec![vec![NodeId(0)], vec![NodeId(0)]]);
    }
}
