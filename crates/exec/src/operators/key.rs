//! Hash keys of the hash join and the hash aggregate: a reused key buffer
//! and the fixed hasher both operators' tables share.

use pop_types::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash table keyed by a row's key columns. Lookups borrow the key as a
/// `&[Value]` slice, so probing never allocates.
pub(crate) type KeyMap<V> = HashMap<Vec<Value>, V, BuildHasherDefault<KeyHasher>>;

/// Overwrite `key` with the values of `row` at `positions`.
pub(crate) fn fill_key(key: &mut Vec<Value>, row: &[Value], positions: &[usize]) {
    key.clear();
    key.extend(positions.iter().map(|p| row[*p].clone()));
}

/// Fixed (unseeded) multiply-xor hasher for [`KeyMap`]. Join and group
/// keys are a few machine words, where SipHash's per-key set-up dominates;
/// being unseeded it is also deterministic across runs. It makes no
/// attempt to resist keys crafted to collide.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

const MUL: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(MUL);
    }

    /// `Value::hash` feeds numerics as `f64` bit patterns, whose low ~30
    /// bits are zero for small integers, and a multiply only carries
    /// entropy upwards — while the table picks buckets from the low bits.
    /// Fold the high half down (a murmur-style finalizer) so consecutive
    /// integer keys spread instead of sharing a handful of buckets.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 29;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn hash_of(key: &[Value]) -> u64 {
        let mut h = KeyHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn consecutive_int_keys_spread_in_the_low_bits() {
        // 2^15 consecutive keys into 2^15 buckets (the bits a hash table
        // of that size indexes with): a uniform hash fills ~63 % of them;
        // without the finalizer every key lands in a handful.
        let n = 1usize << 15;
        let buckets: HashSet<u64> = (0..n as i64)
            .map(|i| hash_of(&[Value::Int(i)]) & (n as u64 - 1))
            .collect();
        assert!(
            buckets.len() > n / 2,
            "{} of {n} buckets used",
            buckets.len()
        );
        // The 7 bits hashbrown tags control bytes with come from the top.
        let tags: HashSet<u64> = (0..n as i64)
            .map(|i| hash_of(&[Value::Int(i)]) >> 57)
            .collect();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn equal_keys_of_different_numeric_types_hash_equally() {
        let int = hash_of(&[Value::Int(3), Value::str("x")]);
        assert_eq!(int, hash_of(&[Value::Float(3.0), Value::str("x")]));
        assert_eq!(int, hash_of(&[Value::Date(3), Value::str("x")]));
        assert_ne!(int, hash_of(&[Value::Int(4), Value::str("x")]));
    }
}
