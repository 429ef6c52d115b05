//! The replicated key-value state machine.
//!
//! Every protocol node applies its committed write sequence to a
//! [`KvStore`]. The store tracks a version counter per key so the
//! consistency checkers can reconstruct which write a read observed.
//!
//! Every replica applies every committed write, so a write is on the hot
//! path nine times per op in a 3×3 cluster, and with 100 000 keys per
//! store nearly every one misses cache.
//!
//! *One array.* The store is one array of 32-byte slots, each a key beside
//! its [`Versioned`] entry, probed linearly from the key's home slot;
//! version 0 marks an empty slot, and the array doubles when a write could
//! fill more than 7/8 of it (100 000 keys fit in 131 072 slots, 4 MiB). A
//! slot is aligned to 32 bytes, so two fit a 64-byte cache line and none
//! straddles two: a write touches one slot, so it costs one miss, and the
//! slot it will touch is known from the key's hash alone, before the write
//! runs. (Unaligned, a table this large starts where the allocator's
//! `mmap` header leaves it, 16 bytes into a line, and half its slots would
//! span two lines, at 48 bytes as at 32.)
//!
//! *Runs of 16.* That is what [`KvStore::put_many`] uses: it hashes a
//! run's writes 16 at a time, loads the 16 home slots in one loop whose
//! loads do not depend on each other, so the core waits for their misses
//! together rather than one after another, and then applies the 16 in
//! order. Plain loads fed to [`black_box`] do it; no prefetch intrinsic.
//! Sixteen is about as many misses as a core keeps in flight, and a
//! saturated cycle's sets hold hundreds of writes. [`KvStore::put`] is a
//! run of one on the same probe; alone it costs what a `HashMap` probe
//! did, so the gain is the overlap, not the table.
//!
//! *SipHash.* Keys are hashed with std's randomly keyed SipHash
//! ([`RandomState`]), because clients choose the keys: with a fixed or
//! cheap hash a client could pick keys that share a home slot and turn
//! every probe into a walk. The hashing is not where the time goes.
//!
//! The two outputs whose order anyone can observe, [`KvStore::digest`]
//! and the [`Wire`] encoding, walk the entries sorted by key, so they are
//! functions of the contents alone, never of the table's layout.
//!
//! The store owns what it holds. A value arrives as a zero-copy slice of
//! the block the node loop read it into, up to 64 KiB shared with every
//! other message of that read; kept as such, one 8-byte value would keep
//! the whole block alive until its key is overwritten. A write copies the
//! bytes instead, into the slot itself when they fit ([`Value`]).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::ops::Deref;

use bytes::{BufMut, Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError};

use crate::op::Key;

/// The longest value held inline. With its length byte and the enum's tag
/// it fills 16 bytes, as much as the boxed form's tag and pointer take, so
/// a [`Versioned`] is 24 bytes and a slot 32.
const INLINE: usize = 14;

/// Writes whose home slots [`KvStore::put_many`] loads together.
const LOOKAHEAD: usize = 16;

/// A stored value: the store's own copy of the bytes written. Up to 14
/// bytes live in the slot; a longer value is copied into an allocation of
/// its own, reached through one thin pointer (a boxed slice is a pointer
/// and a length, too wide to leave room in 16 bytes). Either way it shares
/// no allocation with the frame it was decoded from.
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<Box<[u8]>>),
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
            Repr::Boxed(Box::new(bytes.into()))
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

/// One slot of the table: a key and its entry, or empty if the entry's
/// version is 0. Aligned to its size, so it never spans two cache lines.
#[derive(Clone)]
#[repr(align(32))]
struct Slot {
    key: Key,
    entry: Versioned,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            key: 0,
            entry: Versioned {
                version: 0,
                value: Value::new(&[]),
            },
        }
    }

    fn is_empty(&self) -> bool {
        self.entry.version == 0
    }
}

/// In-memory key-value store with per-key versions. Two stores are equal
/// if they hold the same entries and have applied as many writes.
#[derive(Clone, Default)]
pub struct KvStore {
    /// Empty, or a power of two of slots, at most 7/8 of them occupied.
    slots: Vec<Slot>,
    len: usize,
    hasher: RandomState,
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
        self.apply(self.hasher.hash_one(key), key, value.as_ref())
    }

    /// Applies a run of writes in order, as many [`KvStore::put`]s would;
    /// returns each write's new version. Each chunk of 16 loads its home
    /// slots together before it is applied, so their cache misses overlap.
    pub fn put_many<V: AsRef<[u8]>>(&mut self, writes: &[(Key, V)]) -> Vec<u64> {
        let mut versions = Vec::with_capacity(writes.len());
        for chunk in writes.chunks(LOOKAHEAD) {
            let mut hashes = [0; LOOKAHEAD];
            for (hash, (key, _)) in hashes.iter_mut().zip(chunk) {
                *hash = self.hasher.hash_one(key);
            }
            // A home slot is `hash & mask` until the table grows; a write
            // that grows it still applies correctly, only unprefetched.
            if let Some(mask) = self.slots.len().checked_sub(1) {
                let mut seen = 0;
                for hash in &hashes[..chunk.len()] {
                    seen ^= self.slots[*hash as usize & mask].entry.version;
                }
                black_box(seen);
            }
            for (&hash, (key, value)) in hashes.iter().zip(chunk) {
                versions.push(self.apply(hash, *key, value.as_ref()));
            }
        }
        versions
    }

    /// The one write path: a probe from `hash`'s home slot, then an
    /// overwrite or an insert.
    fn apply(&mut self, hash: u64, key: Key, value: &[u8]) -> u64 {
        self.applied_writes += 1;
        self.reserve_one();
        let i = self.probe(hash, key);
        let slot = &mut self.slots[i];
        if slot.is_empty() {
            slot.key = key;
            self.len += 1;
        }
        slot.entry.version += 1;
        slot.entry.value = Value::new(value);
        slot.entry.version
    }

    /// Grows the table if one more key would fill more than 7/8 of it.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        let size = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot::empty(); size]);
        for slot in old.into_iter().filter(|slot| !slot.is_empty()) {
            let i = self.probe(self.hasher.hash_one(slot.key), slot.key);
            self.slots[i] = slot;
        }
    }

    /// The index of `key`'s slot, or of the empty slot where it would go.
    /// The table must not be empty; it is never full.
    fn probe(&self, hash: u64, key: Key) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while !self.slots[i].is_empty() && self.slots[i].key != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Reads the current value of a key.
    pub fn get(&self, key: Key) -> Option<&Versioned> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.probe(self.hasher.hash_one(key), key)];
        (!slot.is_empty()).then_some(&slot.entry)
    }

    /// Reads just the value bytes, copied out.
    pub fn get_value(&self, key: Key) -> Option<Bytes> {
        self.get(key).map(|v| Bytes::copy_from_slice(&v.value))
    }

    /// Total writes applied over the store's lifetime.
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in key order.
    fn sorted(&self) -> Vec<(Key, &Versioned)> {
        let mut entries: Vec<_> = self
            .slots
            .iter()
            .filter(|slot| !slot.is_empty())
            .map(|slot| (slot.key, &slot.entry))
            .collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
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

impl PartialEq for KvStore {
    fn eq(&self, other: &KvStore) -> bool {
        self.applied_writes == other.applied_writes
            && self.len == other.len
            && self
                .slots
                .iter()
                .filter(|slot| !slot.is_empty())
                .all(|slot| other.get(slot.key) == Some(&slot.entry))
    }
}
impl Eq for KvStore {}

impl fmt::Debug for KvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KvStore {{ applied_writes: {}, entries: ",
            self.applied_writes
        )?;
        f.debug_map().entries(self.sorted()).finish()?;
        f.write_str(" }")
    }
}

/// The whole store, for state transfer to a replica that lost its own.
/// A snapshot that names a key twice, or holds a version outside
/// `1..=applied_writes`, is refused: no replica could have encoded it
/// (each write adds one to one key's version). Version 0 marks an empty
/// slot, and the bound keeps a later write from wrapping a version to 0.
impl Wire for KvStore {
    fn encode(&self, buf: &mut BytesMut) {
        self.applied_writes.encode(buf);
        (self.len as u32).encode(buf);
        for (key, v) in self.sorted() {
            key.encode(buf);
            v.version.encode(buf);
            v.value.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let mut store = KvStore {
            applied_writes: u64::decode(buf)?,
            ..KvStore::default()
        };
        // The table grows as entries arrive, never sized from the count.
        for _ in 0..u32::decode(buf)? {
            let key = Key::decode(buf)?;
            let version = u64::decode(buf)?;
            let value = Value::decode(buf)?;
            if version == 0 || version > store.applied_writes {
                return Err(WireError::Invalid("store entry version out of range"));
            }
            store.reserve_one();
            let i = store.probe(store.hasher.hash_one(key), key);
            if !store.slots[i].is_empty() {
                return Err(WireError::Invalid("store key named twice"));
            }
            store.slots[i] = Slot {
                key,
                entry: Versioned { version, value },
            };
            store.len += 1;
        }
        Ok(store)
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

    /// Two slots to a 64-byte line, none across two, in a table as large
    /// as a replica's: 100 000 keys.
    #[test]
    fn a_slot_is_32_bytes_and_never_straddles_a_cache_line() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Versioned>(), 24);
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(std::mem::align_of::<Slot>(), 32);

        let mut s = KvStore::new();
        for key in 0..100_000 {
            s.put(key, key.to_le_bytes());
        }
        assert_eq!(s.slots.len(), 131_072);
        assert_eq!(s.slots.as_ptr() as usize % 32, 0);
    }

    /// `n` writes over `keys` distinct keys spread across the `u64` range,
    /// values cycling through the lengths 0, 14, 15 and 4096.
    fn scrambled_run(seed: u64, n: usize, keys: u64) -> Vec<(Key, Vec<u8>)> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let key = ((x >> 33) % keys).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let len = [0, INLINE, INLINE + 1, 4096][i % 4];
                (key, (0..len).map(|j| (j * 3 + i) as u8).collect())
            })
            .collect()
    }

    /// Runs of every length around a chunk of 16, each over few or many
    /// keys (so a chunk names a key more than once, or grows the table
    /// part-way), applied by `put_many` to one store and by `put` one by
    /// one to another: the same versions come back and the stores agree in
    /// every output.
    #[test]
    fn put_many_matches_put_one_by_one() {
        let mut many = KvStore::new();
        let mut one = KvStore::new();
        let mut grew_mid_run = 0;
        let runs = [
            (0, 4),
            (1, 4),
            (15, 4),
            (16, 3),
            (17, 5),
            (16, 1_000_000),
            (2_100, 1_500),
            (17, 1_000_000),
            (15, 1_000_000),
            (2_100, 20),
            (2_100, 1_000_000),
            (0, 1),
        ];
        for (i, &(n, keys)) in runs.iter().enumerate() {
            let writes = scrambled_run(i as u64 + 1, n, keys);
            if n == 16 && keys < 16 {
                let mut chunk: Vec<Key> = writes.iter().map(|&(key, _)| key).collect();
                chunk.sort_unstable();
                chunk.dedup();
                assert!(chunk.len() < 16, "a key repeats within the chunk");
            }
            let versions = many.put_many(&writes);
            let mut expected = Vec::new();
            for (k, (key, value)) in writes.iter().enumerate() {
                let size = one.slots.len();
                expected.push(one.put(*key, value));
                if one.slots.len() != size && k % LOOKAHEAD != 0 {
                    grew_mid_run += 1;
                }
            }
            assert_eq!(versions, expected, "run {i}");
            for (key, _) in &writes {
                assert_eq!(many.get(*key), one.get(*key), "run {i}");
            }
            assert_eq!(many.get(3), None);
            assert_eq!(many.applied_writes(), one.applied_writes());
            assert_eq!(many.digest(), one.digest(), "run {i}");
            assert_eq!(many.to_bytes(), one.to_bytes(), "run {i}");
            assert_eq!(many, one, "run {i}");
        }
        // Writes after the one that grows the table start from stale homes.
        assert!(
            grew_mid_run >= 4,
            "the table grew {grew_mid_run} times mid-chunk"
        );
    }

    /// A snapshot entry as `Wire` writes it: key, version, value.
    fn snapshot_entry(key: Key, version: u64, value: &[u8]) -> Vec<u8> {
        let len = (value.len() as u32).to_le_bytes();
        [&key.to_le_bytes()[..], &version.to_le_bytes(), &len, value].concat()
    }

    fn snapshot(applied: u64, entries: &[Vec<u8>]) -> Bytes {
        let count = (entries.len() as u32).to_le_bytes();
        let mut bytes = [&applied.to_le_bytes()[..], &count].concat();
        for entry in entries {
            bytes.extend_from_slice(entry);
        }
        Bytes::from(bytes)
    }

    /// No replica encodes a key twice, a version 0 or a version above its
    /// applied writes, so a snapshot that does is not adopted: with the
    /// later entry winning, the member would hold a store that no peer has.
    #[test]
    fn a_snapshot_naming_a_key_twice_is_refused() {
        let first = snapshot_entry(5, 1, b"a");
        let again = snapshot_entry(5, 3, b"b");
        let other = snapshot_entry(6, 2, b"c");
        let store = KvStore::from_bytes(snapshot(4, &[first.clone(), other.clone()]))
            .expect("two keys decode");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get_value(5), Some(Bytes::from_static(b"a")));

        assert_eq!(
            KvStore::from_bytes(snapshot(4, &[first.clone(), other.clone(), again])),
            Err(WireError::Invalid("store key named twice"))
        );
        for version in [0, 5, u64::MAX] {
            assert_eq!(
                KvStore::from_bytes(snapshot(
                    4,
                    &[first.clone(), snapshot_entry(7, version, b"")]
                )),
                Err(WireError::Invalid("store entry version out of range")),
                "version {version}"
            );
        }
        let at_bound = snapshot(4, &[first, snapshot_entry(7, 4, b"")]);
        assert!(KvStore::from_bytes(at_bound).is_ok());
    }

    /// The entry count comes from a peer: a snapshot that claims
    /// `u32::MAX` entries and holds none or half of one is truncated. The
    /// table grows per decoded entry, so nothing is reserved for the claim
    /// (room for it would be ≈ 200 GB, an allocation that fails and aborts
    /// the test).
    #[test]
    fn a_snapshot_claiming_u32_max_entries_is_truncated() {
        let claims_max = snapshot(7, &[]);
        let claims_max = [&claims_max[..8], &u32::MAX.to_le_bytes()].concat();
        assert_eq!(
            KvStore::from_bytes(Bytes::from(claims_max.clone())),
            Err(WireError::Truncated)
        );
        let half = [&claims_max[..], &snapshot_entry(5, 1, b"a")[..12]].concat();
        assert_eq!(
            KvStore::from_bytes(Bytes::from(half)),
            Err(WireError::Truncated)
        );
        let one = [&claims_max[..], &snapshot_entry(5, 1, b"a")].concat();
        assert_eq!(
            KvStore::from_bytes(Bytes::from(one)),
            Err(WireError::Truncated)
        );
    }
}
