//! The replicated key-value state machine.
//!
//! Every protocol node applies its committed write sequence to a
//! [`KvStore`]. The store tracks a version counter per key so the
//! consistency checkers can reconstruct which write a read observed.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError};

use crate::op::Key;

/// A versioned value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned {
    /// Monotonic per-key version, starting at 1 for the first write.
    pub version: u64,
    /// The value.
    pub value: Bytes,
}

/// In-memory key-value store with per-key versions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Key, Versioned>,
    applied_writes: u64,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies a write; returns the new version of the key.
    pub fn put(&mut self, key: Key, value: Bytes) -> u64 {
        self.applied_writes += 1;
        let entry = self.map.entry(key).or_insert(Versioned {
            version: 0,
            value: Bytes::new(),
        });
        entry.version += 1;
        entry.value = value;
        entry.version
    }

    /// Reads the current value of a key.
    pub fn get(&self, key: Key) -> Option<&Versioned> {
        self.map.get(&key)
    }

    /// Reads just the value bytes.
    pub fn get_value(&self, key: Key) -> Option<Bytes> {
        self.map.get(&key).map(|v| v.value.clone())
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
        for (k, v) in &self.map {
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
        for (key, v) in &self.map {
            key.encode(buf);
            v.version.encode(buf);
            v.value.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let applied_writes = u64::decode(buf)?;
        let mut map = BTreeMap::new();
        for _ in 0..u32::decode(buf)? {
            let key = Key::decode(buf)?;
            let version = u64::decode(buf)?;
            let value = Bytes::decode(buf)?;
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
        assert_eq!(v.value, Bytes::from_static(b"b"));
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
}
