//! The hash table behind the hash join's build and the hash aggregate's
//! groups: key hashing straight off a row's key columns, and a
//! chained-`u32` index over rows that live elsewhere (the build's
//! [`crate::RowBatch`], the aggregate's flat key buffer). The index
//! stores no keys — a lookup walks one bucket's chain and the caller
//! compares keys in place — so building it allocates two arrays, not one
//! entry per key.

use pop_types::Value;

/// End-of-chain / empty-bucket marker.
pub(crate) const NIL: u32 = u32::MAX;

const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-xor round. Fixed (unseeded), so hashes are deterministic
/// across runs; join and group keys are a few machine words, where a
/// keyed hash's set-up would dominate. No attempt to resist keys crafted
/// to collide.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(MUL)
}

/// Hash a key, and report whether any of its values is NULL. Values that
/// compare equal hash equally: all numerics go through their `f64` bit
/// pattern, as in `Value`'s own `Hash`, so `Int(3)`, `Float(3.0)` and
/// `Date(3)` meet in one bucket.
#[inline]
fn hash_values<'a>(key: impl Iterator<Item = &'a Value>) -> (u64, bool) {
    let mut h = 0u64;
    let mut null = false;
    for v in key {
        h = match v {
            Value::Null => {
                null = true;
                mix(h, 0)
            }
            Value::Bool(b) => mix(mix(h, 1), u64::from(*b)),
            Value::Int(i) => mix(mix(h, 2), (*i as f64).to_bits()),
            Value::Float(f) => mix(mix(h, 2), f.to_bits()),
            Value::Date(d) => mix(mix(h, 2), f64::from(*d).to_bits()),
            Value::Str(s) => s.as_bytes().chunks(8).fold(mix(h, 5), |h, chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                mix(h, u64::from_le_bytes(word))
            }),
        };
    }
    // Numeric bit patterns have their low ~30 bits zero for small
    // integers, and a multiply only carries entropy upwards — while the
    // index picks buckets from the low bits. Fold the high half down (a
    // murmur-style finalizer) so consecutive integer keys spread.
    h ^= h >> 32;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    (h, null)
}

/// Hash of the join key at `positions` of `row`; `None` when any key
/// column is NULL (NULL keys never join).
#[inline]
pub(crate) fn key_hash(row: &[Value], positions: &[usize]) -> Option<u64> {
    let (h, null) = hash_values(positions.iter().map(|p| &row[*p]));
    (!null).then_some(h)
}

/// Hash of a GROUP BY key, where NULL is a key value like any other.
#[inline]
pub(crate) fn group_hash<'a>(key: impl Iterator<Item = &'a Value>) -> u64 {
    hash_values(key).0
}

/// Chained hash index over rows `0..n`: `heads[hash & mask]` is the first
/// row of a bucket, `next[row]` the following one, [`NIL`] ends a chain.
#[derive(Debug)]
pub(crate) struct ChainIndex {
    /// Power-of-two sized.
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl ChainIndex {
    /// Index `rows` rows with buckets for `room` of them, `hash_of(row)`
    /// giving each row's key hash (`None` leaves the row out). Rows are
    /// threaded last to first, so every chain yields its rows in
    /// ascending (build) order.
    pub(crate) fn build(rows: usize, room: usize, hash_of: impl Fn(usize) -> Option<u64>) -> Self {
        let mut ix = ChainIndex {
            heads: vec![NIL; room.max(1).next_power_of_two()],
            next: vec![NIL; rows],
        };
        for row in (0..rows).rev() {
            if let Some(h) = hash_of(row) {
                let bucket = ix.bucket(h);
                ix.next[row] = std::mem::replace(&mut ix.heads[bucket], row as u32);
            }
        }
        ix
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Add the next row (id = rows so far) under `hash`, doubling the
    /// bucket array — re-threading every row by `hash_of` — when rows
    /// outnumber buckets. The aggregate's path: its keys are unique, so
    /// chain order does not matter there.
    pub(crate) fn push(&mut self, hash: u64, hash_of: impl Fn(usize) -> u64) {
        let row = self.next.len();
        if row >= self.heads.len() {
            *self = Self::build(row, 2 * row, |r| Some(hash_of(r)));
        }
        let bucket = self.bucket(hash);
        self.next
            .push(std::mem::replace(&mut self.heads[bucket], row as u32));
    }

    /// First row of the chain `hash` falls in, or [`NIL`].
    #[inline]
    pub(crate) fn first(&self, hash: u64) -> u32 {
        self.heads[self.bucket(hash)]
    }

    /// The row after `row` in its chain, or [`NIL`].
    #[inline]
    pub(crate) fn next_of(&self, row: u32) -> u32 {
        self.next[row as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn chain(ix: &ChainIndex, hash: u64) -> Vec<u32> {
        let mut rows = Vec::new();
        let mut r = ix.first(hash);
        while r != NIL {
            rows.push(r);
            r = ix.next_of(r);
        }
        rows
    }

    #[test]
    fn consecutive_int_keys_spread_in_the_low_bits() {
        // 2^15 consecutive keys into 2^15 buckets (the bits an index of
        // that size picks with): a uniform hash fills ~63 % of them;
        // without the finalizer every key lands in a handful.
        let n = 1usize << 15;
        let buckets: HashSet<u64> = (0..n as i64)
            .map(|i| key_hash(&[Value::Int(i)], &[0]).unwrap() & (n as u64 - 1))
            .collect();
        assert!(
            buckets.len() > n / 2,
            "{} of {n} buckets used",
            buckets.len()
        );
    }

    #[test]
    fn equal_keys_of_different_numeric_types_hash_equally() {
        let int = key_hash(&[Value::Int(3), Value::str("x")], &[0, 1]);
        assert!(int.is_some());
        assert_eq!(
            int,
            key_hash(&[Value::Float(3.0), Value::str("x")], &[0, 1])
        );
        assert_eq!(int, key_hash(&[Value::Date(3), Value::str("x")], &[0, 1]));
        assert_ne!(int, key_hash(&[Value::Int(4), Value::str("x")], &[0, 1]));
        // Positions pick the key out of a wider row.
        assert_eq!(
            int,
            key_hash(&[Value::str("x"), Value::Null, Value::Int(3)], &[2, 0])
        );
    }

    #[test]
    fn null_keys_hash_for_grouping_only() {
        let row = [Value::Int(1), Value::Null];
        assert_eq!(key_hash(&row, &[0, 1]), None);
        assert_eq!(key_hash(&row, &[0]), key_hash(&[Value::Int(1)], &[0]));
        assert_eq!(group_hash(row.iter()), group_hash(row.iter()));
        assert_ne!(group_hash(row.iter()), group_hash(row[..1].iter()));
        // The zero-column key is a key too: every row's.
        assert_eq!(key_hash(&row, &[]), Some(group_hash([].iter())));
    }

    #[test]
    fn chains_yield_rows_in_build_order_and_skip_unhashed_rows() {
        // Rows 0..10 in two buckets' worth of keys; row 4 has no key.
        let hash_of = |r: usize| (r != 4).then_some((r % 2) as u64);
        let ix = ChainIndex::build(10, 10, hash_of);
        assert_eq!(chain(&ix, 0), vec![0, 2, 6, 8]);
        assert_eq!(chain(&ix, 1), vec![1, 3, 5, 7, 9]);
        let empty = ChainIndex::build(0, 0, |_| None);
        assert_eq!(chain(&empty, 7), Vec::<u32>::new());
    }

    #[test]
    fn pushed_rows_survive_growth() {
        let hash_of = |r: usize| key_hash(&[Value::Int(r as i64)], &[0]).unwrap();
        let mut ix = ChainIndex::build(0, 0, |_| None);
        for r in 0..1000 {
            ix.push(hash_of(r), hash_of);
        }
        for r in 0..1000 {
            assert!(chain(&ix, hash_of(r)).contains(&(r as u32)), "row {r}");
        }
        assert!(ix.heads.len() >= 1000 && ix.heads.len().is_power_of_two());
    }
}
