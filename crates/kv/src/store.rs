//! The replicated key-value state machine.
//!
//! Every protocol node applies its committed write sequence to a
//! [`KvStore`]. The store tracks a version counter per key so the
//! consistency checkers can reconstruct which write a read observed.
//!
//! Every replica applies every committed write, so `put` is on the hot
//! path nine times per op in a 3×3 cluster: it is one probe of a
//! `HashMap` (std's randomly keyed hasher, because clients choose the
//! keys) and, for a value of up to 30 bytes, allocates nothing. The two
//! outputs whose order anyone can observe, [`KvStore::digest`] and the
//! [`Wire`] encoding, walk the entries sorted by key, so they are
//! functions of the contents alone.
//!
//! The store owns what it holds. A value arrives as a zero-copy slice of
//! the block the node loop read it into, up to 64 KiB shared with every
//! other message of that read; kept as such, one 8-byte value would keep
//! the whole block alive until its key is overwritten. `put` copies the
//! bytes instead, into the map entry itself when they fit ([`Value`]).

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::ops::Deref;

use bytes::{BufMut, Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError};

use crate::op::Key;

/// The longest value held inline. With its length byte and the enum's tag
/// it fills 32 bytes, the size of the `Bytes` it replaces, so a
/// [`Versioned`] is still 40 bytes.
const INLINE: usize = 30;

/// A stored value: the store's own copy of the bytes written. Up to 30
/// bytes live in the map entry; a longer value is copied into an
/// allocation of its own. Either way it shares no allocation with the
/// frame it was decoded from.
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<[u8]>),
}

impl Value {
    fn new(bytes: &[u8]) -> Value {
        Value(if bytes.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..bytes.len()].copy_from_slice(bytes);
            Repr::Inline {
                len: bytes.len() as u8,
                bytes: inline,
            }
        } else {
            Repr::Boxed(bytes.into())
        })
    }
}

impl Deref for Value {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Boxed(bytes) => bytes,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        **self == **other
    }
}
impl Eq for Value {}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

/// Encoded as [`Bytes`] is: a u32 LE length, then the bytes.
impl Wire for Value {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Value::new(&Bytes::decode(buf)?))
    }
}

/// A versioned value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned {
    /// Monotonic per-key version, starting at 1 for the first write.
    pub version: u64,
    /// The value.
    pub value: Value,
}

/// In-memory key-value store with per-key versions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: HashMap<Key, Versioned>,
    applied_writes: u64,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies a write of a copy of `value`; returns the new version of
    /// the key.
    pub fn put(&mut self, key: Key, value: impl AsRef<[u8]>) -> u64 {
        self.applied_writes += 1;
        let value = Value::new(value.as_ref());
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                let v = e.get_mut();
                v.version += 1;
                v.value = value;
                v.version
            }
            Entry::Vacant(e) => e.insert(Versioned { version: 1, value }).version,
        }
    }

    /// Reads the current value of a key.
    pub fn get(&self, key: Key) -> Option<&Versioned> {
        self.map.get(&key)
    }

    /// Reads just the value bytes, copied out.
    pub fn get_value(&self, key: Key) -> Option<Bytes> {
        self.map.get(&key).map(|v| Bytes::copy_from_slice(&v.value))
    }

    /// Total writes applied over the store's lifetime.
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entries in key order.
    fn sorted(&self) -> Vec<(&Key, &Versioned)> {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| *key);
        entries
    }

    /// A digest of the full store state, for cheap cross-replica agreement
    /// checks (FNV-1a over keys, versions, and values).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (k, v) in self.sorted() {
            mix(&k.to_le_bytes());
            mix(&v.version.to_le_bytes());
            mix(&v.value);
        }
        h
    }
}

/// The whole store, for state transfer to a replica that lost its own.
impl Wire for KvStore {
    fn encode(&self, buf: &mut BytesMut) {
        self.applied_writes.encode(buf);
        (self.map.len() as u32).encode(buf);
        for (key, v) in self.sorted() {
            key.encode(buf);
            v.version.encode(buf);
            v.value.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let applied_writes = u64::decode(buf)?;
        let mut map = HashMap::new();
        for _ in 0..u32::decode(buf)? {
            let key = Key::decode(buf)?;
            let version = u64::decode(buf)?;
            let value = Value::decode(buf)?;
            map.insert(key, Versioned { version, value });
        }
        Ok(KvStore {
            map,
            applied_writes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_versions() {
        let mut s = KvStore::new();
        assert!(s.get(1).is_none());
        assert_eq!(s.put(1, Bytes::from_static(b"a")), 1);
        assert_eq!(s.put(1, Bytes::from_static(b"b")), 2);
        assert_eq!(s.put(2, Bytes::from_static(b"c")), 1);
        let v = s.get(1).unwrap();
        assert_eq!(v.version, 2);
        assert_eq!(&*v.value, b"b");
        assert_eq!(s.applied_writes(), 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn round_trips_on_wire() {
        let mut s = KvStore::new();
        s.put(1, Bytes::from_static(b"a"));
        s.put(1, Bytes::from_static(b"b"));
        s.put(7, Bytes::new());
        let back = KvStore::from_bytes(s.to_bytes()).expect("decode");
        assert_eq!(back, s);
        assert_eq!(back.applied_writes(), 3);
    }

    #[test]
    fn digest_detects_divergence() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.put(1, Bytes::from_static(b"x"));
        b.put(1, Bytes::from_static(b"x"));
        assert_eq!(a.digest(), b.digest());
        b.put(2, Bytes::from_static(b"y"));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sensitive_to_versions() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.put(1, Bytes::from_static(b"x"));
        b.put(1, Bytes::from_static(b"other"));
        b.put(1, Bytes::from_static(b"x"));
        // Same final value, different version history.
        assert_ne!(a.digest(), b.digest());
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    /// A fixed, scrambled write sequence: keys drawn from an LCG and spread
    /// over the whole `u64` range (so key order is neither insertion order
    /// nor any hash order), overwrites, key 0, `u64::MAX` and an empty value.
    fn scrambled_puts() -> Vec<(Key, Bytes)> {
        let mut puts = vec![
            (u64::MAX, Bytes::from_static(b"max")),
            (0, Bytes::from_static(b"zero")),
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..300u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = ((x >> 33) % 97).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            puts.push((key, Bytes::from(i.to_le_bytes().to_vec())));
        }
        puts.push((u64::MAX, Bytes::from_static(b"max again")));
        puts.push((0, Bytes::new()));
        puts
    }

    /// `digest()` and the state-transfer encoding are the store's two
    /// observable outputs; both are functions of its contents alone, pinned
    /// by value, whatever order the contents were written in.
    #[test]
    fn observable_outputs_are_pinned_and_independent_of_insertion_order() {
        let puts = scrambled_puts();
        let mut a = KvStore::new();
        for (key, value) in &puts {
            a.put(*key, value.clone());
        }
        assert_eq!(a.len(), 93);
        assert_eq!(a.applied_writes(), 304);
        assert_eq!(a.digest(), 0x17f2_6359_a9e8_0415);
        assert_eq!(fnv(&a.to_bytes()), 0x99b3_45cf_ab79_b1a8);

        // The same writes per key, in the same order per key, with the keys
        // taken from the highest down: the same contents reached another way.
        let mut regrouped = puts.clone();
        regrouped.sort_by_key(|(key, _)| std::cmp::Reverse(*key));
        let mut b = KvStore::new();
        for (key, value) in regrouped {
            b.put(key, value);
        }
        assert_eq!(b, a);
        assert_eq!(b.digest(), a.digest());
        assert_eq!(b.to_bytes(), a.to_bytes());

        for s in [&a, &b] {
            let back = KvStore::from_bytes(s.to_bytes()).expect("decode");
            assert_eq!(&back, s);
            assert_eq!(back.to_bytes(), s.to_bytes());
        }
    }

    /// Empty, the longest inline, the shortest boxed and a long value, each
    /// written over a value held the other way: every read gives the bytes
    /// back, and `digest()` and the `Snapshot` are the hand-built layout
    /// (`u32 LE length ‖ bytes` per value), so where a value is held never
    /// shows outside the store.
    #[test]
    fn values_of_every_length_round_trip_in_the_same_layout() {
        for len in [0, INLINE, INLINE + 1, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let other = vec![0xaa; if len <= INLINE { 4096 } else { 1 }];
            let mut s = KvStore::new();
            s.put(5, Bytes::from(other));
            assert_eq!(s.put(5, &bytes), 2);
            let v = s.get(5).expect("written");
            assert_eq!(&*v.value, &bytes[..], "len {len}");
            assert_eq!(s.get_value(5), Some(Bytes::from(bytes.clone())));

            let mut value = (len as u32).to_le_bytes().to_vec();
            value.extend_from_slice(&bytes);
            assert_eq!(&v.value.to_bytes()[..], &value[..], "len {len}");

            let entry = [&5u64.to_le_bytes()[..], &2u64.to_le_bytes()].concat();
            let mut snapshot = [&2u64.to_le_bytes()[..], &1u32.to_le_bytes(), &entry].concat();
            snapshot.extend_from_slice(&value);
            assert_eq!(&s.to_bytes()[..], &snapshot[..], "len {len}");
            assert_eq!(s.digest(), fnv(&[&entry[..], &bytes].concat()), "len {len}");

            let back = KvStore::from_bytes(s.to_bytes()).expect("decode");
            assert_eq!(back, s);
            assert_eq!(&*back.get(5).expect("decoded").value, &bytes[..]);
            assert_eq!(back.digest(), s.digest());
        }
    }

    #[test]
    fn an_entry_is_as_small_as_when_it_held_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(std::mem::size_of::<Versioned>(), 40);
    }
}
