//! Hand-rolled binary wire format.
//!
//! Messages crossing the real TCP transport are encoded with this
//! explicit, versionless little-endian format rather than a serialization
//! framework: consensus messages are small, hot, and schema-stable, and an
//! explicit codec keeps the wire size computable (the simulator's
//! [`canopus_sim::Payload::wire_size`] must agree with what the TCP
//! transport actually sends).
//!
//! Framing on a stream is a 4-byte little-endian length prefix followed by
//! the encoded message; see [`crate::tcp`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum accepted frame size (16 MiB); guards against corrupted prefixes.
pub const MAX_FRAME: usize = 16 << 20;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag or invariant was violated; the payload names the field.
    Invalid(&'static str),
    /// A length prefix exceeded [`MAX_FRAME`].
    TooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types with a binary wire representation.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes a value from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes from a complete buffer, requiring full consumption.
    fn from_bytes(mut bytes: Bytes) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(WireError::Invalid("trailing bytes"));
        }
        Ok(v)
    }

    /// The exact encoded size in bytes.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Checked reads over [`Bytes`].
pub trait WireRead {
    /// Reads a `u8`, failing on truncation.
    fn read_u8(&mut self) -> Result<u8, WireError>;
    /// Reads a little-endian `u16`, failing on truncation.
    fn read_u16(&mut self) -> Result<u16, WireError>;
    /// Reads a little-endian `u32`, failing on truncation.
    fn read_u32(&mut self) -> Result<u32, WireError>;
    /// Reads a little-endian `u64`, failing on truncation.
    fn read_u64(&mut self) -> Result<u64, WireError>;
    /// Reads `n` raw bytes, failing on truncation.
    fn read_bytes(&mut self, n: usize) -> Result<Bytes, WireError>;
}

impl WireRead for Bytes {
    fn read_u8(&mut self) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        Ok(self.get_u8())
    }
    fn read_u16(&mut self) -> Result<u16, WireError> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated);
        }
        Ok(self.get_u16_le())
    }
    fn read_u32(&mut self) -> Result<u32, WireError> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        Ok(self.get_u32_le())
    }
    fn read_u64(&mut self) -> Result<u64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Ok(self.get_u64_le())
    }
    fn read_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        if n > MAX_FRAME {
            return Err(WireError::TooLarge(n));
        }
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        Ok(self.split_to(n))
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        buf.read_u8()
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        buf.read_u16()
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        buf.read_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        buf.read_u64()
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool")),
        }
    }
}

impl Wire for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = buf.read_u32()? as usize;
        buf.read_bytes(n)
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = buf.read_u32()? as usize;
        let raw = buf.read_bytes(n)?;
        // Validate in place over the sliced frame, then copy exactly once
        // into the owned String (the old path copied to a Vec first and
        // validated the copy).
        std::str::from_utf8(&raw)
            .map(str::to_owned)
            .map_err(|_| WireError::Invalid("utf8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = buf.read_u32()? as usize;
        if n > MAX_FRAME {
            return Err(WireError::TooLarge(n));
        }
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl Wire for canopus_sim::NodeId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(canopus_sim::NodeId(buf.read_u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len());
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEADBEEFu32);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip("hello canopus".to_string());
        round_trip(Bytes::from_static(b"\x00\x01\x02"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(42u64));
        round_trip((7u8, "x".to_string()));
        round_trip(canopus_sim::NodeId(12));
    }

    #[test]
    fn truncated_fails() {
        let bytes = 0xDEADBEEFu32.to_bytes();
        let short = bytes.slice(..2);
        assert_eq!(u32::from_bytes(short), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        1u8.encode(&mut buf);
        2u8.encode(&mut buf);
        assert_eq!(
            u8::from_bytes(buf.freeze()),
            Err(WireError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(
            bool::from_bytes(Bytes::from_static(&[7])),
            Err(WireError::Invalid("bool"))
        );
    }

    #[test]
    fn bad_option_tag_rejected() {
        assert_eq!(
            Option::<u8>::from_bytes(Bytes::from_static(&[9])),
            Err(WireError::Invalid("option tag"))
        );
    }

    #[test]
    fn oversized_vec_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            Vec::<u8>::from_bytes(buf.freeze()),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(
            String::from_bytes(buf.freeze()),
            Err(WireError::Invalid("utf8"))
        );
    }

    // Seeded randomized property tests (proptest is unavailable offline;
    // the generators below cover the same input spaces deterministically).

    fn arb_string(rng: &mut SmallRng, max_len: usize) -> String {
        let len = rng.gen_range(0..=max_len);
        (0..len)
            .map(|_| {
                // The whole scalar-value space, surrogates excluded: control
                // chars, astral planes, and char::MAX are all fair game.
                loop {
                    if let Some(c) = char::from_u32(rng.gen_range(0u32..=char::MAX as u32)) {
                        break c;
                    }
                }
            })
            .collect()
    }

    #[test]
    fn prop_u64_round_trip() {
        let mut rng = SmallRng::seed_from_u64(0xA1);
        for _ in 0..256 {
            round_trip(rng.gen::<u64>());
        }
    }

    #[test]
    fn prop_string_round_trip() {
        let mut rng = SmallRng::seed_from_u64(0xA2);
        for _ in 0..256 {
            round_trip(arb_string(&mut rng, 64));
        }
    }

    #[test]
    fn prop_vec_round_trip() {
        let mut rng = SmallRng::seed_from_u64(0xA3);
        for _ in 0..256 {
            let n = rng.gen_range(0usize..100);
            round_trip((0..n).map(|_| rng.gen::<u32>()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn prop_nested_round_trip() {
        let mut rng = SmallRng::seed_from_u64(0xA4);
        for _ in 0..256 {
            let n = rng.gen_range(0usize..20);
            let v: Vec<(u8, String)> = (0..n)
                .map(|_| (rng.gen::<u8>(), arb_string(&mut rng, 8)))
                .collect();
            round_trip(v);
        }
    }

    #[test]
    fn prop_decode_arbitrary_bytes_never_panics() {
        let mut rng = SmallRng::seed_from_u64(0xA5);
        for _ in 0..1024 {
            let n = rng.gen_range(0usize..256);
            let data: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
            // Decoding must fail gracefully, never panic, on any input.
            let _ = Vec::<String>::from_bytes(Bytes::from(data.clone()));
            let _ = Option::<u64>::from_bytes(Bytes::from(data));
        }
    }
}
