//! Core identifiers and the Leaf-Only Tree (LOT) geometry (paper §4.1).
//!
//! Only leaf nodes (*pnodes*) exist physically; interior *vnodes* are
//! virtual and emulated by every descendant pnode. Pnodes in one rack form
//! a *super-leaf* sharing a height-1 parent vnode. A consensus cycle of a
//! height-`h` LOT runs `h` rounds: after round `r` every pnode holds the
//! state of its height-`r` ancestor, and round `h` yields the root state —
//! the cycle's total order.

use bytes::{Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError, WireRead};
use std::fmt;

/// Identifier of one consensus cycle; cycles are numbered from 1 and
/// execute strictly in sequence.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CycleId(pub u64);

impl CycleId {
    /// The next cycle.
    pub fn next(self) -> CycleId {
        CycleId(self.0 + 1)
    }
}

impl fmt::Debug for CycleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CycleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Wire for CycleId {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(CycleId(u64::decode(buf)?))
    }
}

/// Identifier of a vnode: the path of child indices from the root.
///
/// The root is the empty path; the paper's vnode `1.2.3` (under a root
/// named `1`) is `VnodeId(vec![1, 2])` here with 0-based digits. A vnode at
/// depth `d` in a height-`h` LOT has height `h - d`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VnodeId(pub Vec<u16>);

impl VnodeId {
    /// The root vnode.
    pub fn root() -> VnodeId {
        VnodeId(Vec::new())
    }

    /// Depth below the root (root = 0).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The parent vnode, or `None` for the root.
    pub fn parent(&self) -> Option<VnodeId> {
        if self.0.is_empty() {
            None
        } else {
            Some(VnodeId(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// The `i`-th child.
    pub fn child(&self, i: u16) -> VnodeId {
        let mut path = self.0.clone();
        path.push(i);
        VnodeId(path)
    }

    /// The last path digit (used as a deterministic merge tie-break among
    /// siblings), or 0 for the root.
    pub fn last_digit(&self) -> u16 {
        self.0.last().copied().unwrap_or(0)
    }
}

impl fmt::Debug for VnodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "v:root");
        }
        write!(f, "v:")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl fmt::Display for VnodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Wire for VnodeId {
    fn encode(&self, buf: &mut BytesMut) {
        (self.0.len() as u8).encode(buf);
        for &d in &self.0 {
            d.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = buf.read_u8()? as usize;
        let mut path = Vec::with_capacity(n);
        for _ in 0..n {
            path.push(u16::decode(buf)?);
        }
        Ok(VnodeId(path))
    }
}

/// The shape of a LOT: interior fanouts from the root down to the
/// super-leaf parents.
///
/// * `fanouts = []` — height 1: a single super-leaf whose parent is the root.
/// * `fanouts = [n]` — height 2: `n` super-leaves under the root (the
///   paper's evaluation shape, Figure 2 / §8).
/// * `fanouts = [a, b]` — height 3: `a` height-2 vnodes, each with `b`
///   height-1 children: `a*b` super-leaves (Figure 1 is `[3, 3]` with
///   3-node super-leaves).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LotShape {
    fanouts: Vec<u16>,
}

impl LotShape {
    /// Builds a shape; all fanouts must be ≥ 1.
    pub fn new(fanouts: Vec<u16>) -> LotShape {
        assert!(
            fanouts.iter().all(|&f| f >= 1),
            "fanouts must be at least 1"
        );
        LotShape { fanouts }
    }

    /// A height-2 LOT with `n` super-leaves (the common deployment shape).
    pub fn flat(n: u16) -> LotShape {
        if n == 1 {
            LotShape::new(vec![])
        } else {
            LotShape::new(vec![n])
        }
    }

    /// Tree height `h` (number of rounds per consensus cycle).
    pub fn height(&self) -> usize {
        self.fanouts.len() + 1
    }

    /// Total number of super-leaves.
    pub fn num_superleaves(&self) -> usize {
        self.fanouts.iter().map(|&f| f as usize).product()
    }

    /// The height-1 parent vnode of super-leaf `s` (mixed-radix digits of
    /// `s`, most significant first).
    pub fn superleaf_vnode(&self, s: usize) -> VnodeId {
        assert!(s < self.num_superleaves(), "superleaf {s} out of range");
        let mut digits = vec![0u16; self.fanouts.len()];
        let mut rem = s;
        for (i, &f) in self.fanouts.iter().enumerate().rev() {
            digits[i] = (rem % f as usize) as u16;
            rem /= f as usize;
        }
        VnodeId(digits)
    }

    /// The height-`height` ancestor vnode of super-leaf `s`.
    /// `height` ranges from 1 (the super-leaf's parent) to `h` (the root).
    pub fn ancestor_of_superleaf(&self, s: usize, height: usize) -> VnodeId {
        assert!((1..=self.height()).contains(&height), "bad height");
        let leaf_parent = self.superleaf_vnode(s);
        let keep = self.height() - height;
        VnodeId(leaf_parent.0[..keep].to_vec())
    }

    /// The children of a vnode (all vnodes; callers never need leaf
    /// children since round 1 is handled by super-leaf broadcast).
    pub fn children(&self, v: &VnodeId) -> Vec<VnodeId> {
        let depth = v.depth();
        assert!(
            depth < self.fanouts.len(),
            "height-1 vnodes have no vnode children"
        );
        (0..self.fanouts[depth]).map(|i| v.child(i)).collect()
    }

    /// The contiguous range of super-leaf indices descending from `v`.
    pub fn superleaves_under(&self, v: &VnodeId) -> std::ops::Range<usize> {
        let depth = v.depth();
        assert!(depth <= self.fanouts.len());
        let below: usize = self.fanouts[depth..].iter().map(|&f| f as usize).product();
        let mut start = 0usize;
        for (i, &d) in v.0.iter().enumerate() {
            start = start * self.fanouts[i] as usize + d as usize;
        }
        start *= below;
        start..start + below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_shape_basics() {
        let s = LotShape::flat(3);
        assert_eq!(s.height(), 2);
        assert_eq!(s.num_superleaves(), 3);
        assert_eq!(s.superleaf_vnode(0), VnodeId(vec![0]));
        assert_eq!(s.superleaf_vnode(2), VnodeId(vec![2]));
        assert_eq!(s.ancestor_of_superleaf(1, 1), VnodeId(vec![1]));
        assert_eq!(s.ancestor_of_superleaf(1, 2), VnodeId::root());
    }

    #[test]
    fn single_superleaf_shape() {
        let s = LotShape::flat(1);
        assert_eq!(s.height(), 1);
        assert_eq!(s.num_superleaves(), 1);
        assert_eq!(s.superleaf_vnode(0), VnodeId::root());
        assert_eq!(s.ancestor_of_superleaf(0, 1), VnodeId::root());
    }

    #[test]
    fn figure1_shape() {
        // Figure 1: 27 pnodes, 3 per super-leaf, height 3 => fanouts [3,3].
        let s = LotShape::new(vec![3, 3]);
        assert_eq!(s.height(), 3);
        assert_eq!(s.num_superleaves(), 9);
        // Super-leaf 4 = digits [1,1]: the "1.1.2"-style middle of the tree.
        assert_eq!(s.superleaf_vnode(4), VnodeId(vec![1, 1]));
        assert_eq!(s.ancestor_of_superleaf(4, 2), VnodeId(vec![1]));
        assert_eq!(s.ancestor_of_superleaf(4, 3), VnodeId::root());
        assert_eq!(
            s.children(&VnodeId(vec![1])),
            vec![
                VnodeId(vec![1, 0]),
                VnodeId(vec![1, 1]),
                VnodeId(vec![1, 2])
            ]
        );
        assert_eq!(s.superleaves_under(&VnodeId(vec![1])), 3..6);
        assert_eq!(s.superleaves_under(&VnodeId::root()), 0..9);
        assert_eq!(s.superleaves_under(&VnodeId(vec![2, 1])), 7..8);
    }

    #[test]
    fn vnode_relationships() {
        let v = VnodeId(vec![1, 2]);
        assert_eq!(v.parent(), Some(VnodeId(vec![1])));
        assert_eq!(VnodeId::root().parent(), None);
        assert_eq!(v.child(0), VnodeId(vec![1, 2, 0]));
        assert_eq!(v.depth(), 2);
        assert_eq!(v.last_digit(), 2);
    }

    #[test]
    fn wire_round_trips() {
        for v in [VnodeId::root(), VnodeId(vec![3]), VnodeId(vec![1, 2, 3])] {
            assert_eq!(VnodeId::from_bytes(v.to_bytes()).unwrap(), v);
        }
        assert_eq!(
            CycleId::from_bytes(CycleId(77).to_bytes()).unwrap(),
            CycleId(77)
        );
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", VnodeId::root()), "v:root");
        assert_eq!(format!("{:?}", VnodeId(vec![1, 0, 2])), "v:1.0.2");
        assert_eq!(format!("{}", CycleId(9)), "c9");
    }
}
