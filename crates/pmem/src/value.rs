//! The variable-length payload value type shared by the payload store and
//! the service layers above it.
//!
//! Historically every payload was a single `u64`; the KV service grew
//! length-prefixed byte values end to end, and this enum is the in-memory
//! representation that flows from the wire protocol through the transient
//! indices (`nbds` maps are generic over their value type) down to the
//! durable payload arenas:
//!
//! * [`Value::U64`] — the inline "word" fast path.  Stored directly in a
//!   64-byte payload slot, cloned by copy, compared by value.
//! * [`Value::Bytes`] — a heap value behind an `Arc`, so clones along the
//!   transient index / transaction-footprint paths are refcount bumps, not
//!   byte copies.
//!
//! # Canonical form
//!
//! A value of **exactly 8 bytes is always represented as `U64`** (little
//! endian).  [`Value::from_bytes`] enforces this, and every decoder in the
//! stack builds values through it.  The invariant is what makes an 8-byte
//! wire value a word: `PUTB k <5u64 LE>` stores `U64(5)`, which `kvstore`'s
//! `TRANSFER` reads as a balance, and equality (e.g. `CASB`) never depends
//! on how a client spelled the value.

use std::sync::Arc;

/// Maximum byte length of a single payload value (256 KiB).
///
/// Bounds the overflow-chain walk in the payload store and keeps any single
/// value well under the wire protocol's 1 MiB frame cap.
pub const MAX_VALUE_BYTES: usize = 256 * 1024;

/// A payload value: an inline word or a heap byte string.
///
/// See the module docs for the canonical-form invariant (8-byte values are
/// always `U64`).  Construct byte values through [`Value::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An 8-byte word value (the historical fixed-width payload).
    U64(u64),
    /// A byte-string value of any length other than 8 (see
    /// [`Value::from_bytes`]); cheap to clone.
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Builds the canonical value for `bytes`: exactly-8-byte inputs become
    /// [`Value::U64`] (little endian), everything else [`Value::Bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        if bytes.len() == 8 {
            Value::U64(u64::from_le_bytes(bytes.try_into().unwrap()))
        } else {
            Value::Bytes(Arc::from(bytes))
        }
    }

    /// The word form, if this value is one.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::Bytes(_) => None,
        }
    }

    /// Byte length of the value (8 for a word).
    #[inline]
    pub fn byte_len(&self) -> usize {
        match self {
            Value::U64(_) => 8,
            Value::Bytes(b) => b.len(),
        }
    }

    /// The value as bytes (words serialize little endian, matching
    /// [`Value::from_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Value::U64(v) => v.to_le_bytes().to_vec(),
            Value::Bytes(b) => b.to_vec(),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_byte_values_canonicalize_to_words() {
        let v = Value::from_bytes(&42u64.to_le_bytes());
        assert_eq!(v, Value::U64(42));
        assert_eq!(v.byte_len(), 8);
        assert_eq!(v.to_bytes(), 42u64.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_bytes_and_equality() {
        for len in [0usize, 1, 7, 9, 64, 65, 448, 449, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let v = Value::from_bytes(&bytes);
            assert_eq!(v.byte_len(), len);
            assert_eq!(v.to_bytes(), bytes);
            assert_eq!(v, Value::from_bytes(&bytes));
        }
        assert_ne!(Value::from_bytes(b"ab"), Value::from_bytes(b"ac"));
        assert_ne!(Value::U64(1), Value::from_bytes(b"not8bytes"));
    }
}
