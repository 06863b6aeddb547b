//! The hash table behind the hash join's build and the hash aggregate's
//! groups: key hashing a column at a time over a batch's typed key
//! columns, and a chained-`u32` index over rows that live elsewhere (the
//! build's [`crate::RowBatch`], the aggregate's key buffer). The index
//! stores no keys — a lookup walks one bucket's chain and the caller
//! compares keys in place — so building it allocates two arrays, not one
//! entry per key.
//!
//! The aggregate's group lookup compares keys as machine words where it
//! can: a [`KeyShape`], decided once per batch, says whether the key is
//! one or two NULL-free `Int` columns on both sides, and a [`KeyEq`] bound
//! from it compares `i64`s there and [`Column::key_eq`] per column
//! elsewhere. The aggregate's groups are put in key order by
//! [`key_order`], which sorts one- or two-word key tuples.

use crate::RowBatch;
use pop_types::column::{Cell, Column, Data};
use pop_types::hash::{mix, mix_bytes, mix_finish};
use pop_types::sort::total_order_key;
use std::borrow::Cow;
use std::cmp::Ordering;

/// End-of-chain / empty-bucket marker.
pub(crate) const NIL: u32 = u32::MAX;

// Keys hash with the shared fixed `pop_types::hash::mix` (unseeded, so
// hashes are deterministic across runs): join and group keys are a few
// machine words, where a keyed hash's set-up would dominate. No attempt
// to resist keys crafted to collide.

/// Fold in a numeric key value: all numerics go through their `f64` bit
/// pattern, as in `Value`'s own `Hash`, so `Int(3)`, `Float(3.0)` and
/// `Date(3)` meet in one bucket.
#[inline]
fn num(h: u64, x: f64) -> u64 {
    mix(mix(h, 2), x.to_bits())
}

/// Fold in one key value. The column-wise loops of [`hash_keys`] apply
/// exactly this step, per type.
#[inline]
fn step(h: u64, c: Cell<'_>) -> u64 {
    match c {
        Cell::Null => mix(h, 0),
        Cell::Bool(b) => mix(mix(h, 1), u64::from(b)),
        Cell::Int(i) => num(h, i as f64),
        Cell::Float(f) => num(h, f),
        Cell::Date(d) => num(h, f64::from(d)),
        Cell::Str(s) => mix_bytes(mix(h, 5), s.as_bytes()),
    }
}

/// Hash of one key given value by value, and whether any of it is NULL:
/// the reference [`hash_keys`] is tested against.
#[cfg(test)]
pub(crate) fn hash_cells<'a>(key: impl Iterator<Item = Cell<'a>>) -> (u64, bool) {
    let mut null = false;
    let h = key.fold(0, |h, c| {
        null |= c.is_null();
        step(h, c)
    });
    (mix_finish(h), null)
}

/// Hash the key columns `positions` of each live row of `batch`, one
/// column at a time, into `hashes` (one per live row, in order; the
/// buffers are cleared first). `nulls[k]` reports a NULL in row `k`'s key:
/// such a key never joins, but groups like any other. Equal to
/// [`hash_cells`] over each row's key.
pub(crate) fn hash_keys(
    batch: &RowBatch,
    positions: &[usize],
    hashes: &mut Vec<u64>,
    nulls: &mut Vec<bool>,
) {
    let n = batch.live_count();
    hashes.clear();
    hashes.resize(n, 0);
    nulls.clear();
    nulls.resize(n, false);
    if n == 0 {
        return;
    }
    for p in positions {
        let col = batch.col(*p);
        let rows = batch.live_indices();
        match col.data() {
            Data::Int(v) if !col.has_null_bitmap() => {
                for (h, i) in hashes.iter_mut().zip(rows) {
                    *h = num(*h, v[i] as f64);
                }
            }
            Data::Float(v) if !col.has_null_bitmap() => {
                for (h, i) in hashes.iter_mut().zip(rows) {
                    *h = num(*h, v[i]);
                }
            }
            Data::Date(v) if !col.has_null_bitmap() => {
                for (h, i) in hashes.iter_mut().zip(rows) {
                    *h = num(*h, f64::from(v[i]));
                }
            }
            Data::Str(v) if !col.has_null_bitmap() => {
                for (h, i) in hashes.iter_mut().zip(rows) {
                    *h = mix_bytes(mix(*h, 5), v.bytes_at(i));
                }
            }
            _ => {
                for ((h, null), i) in hashes.iter_mut().zip(nulls.iter_mut()).zip(rows) {
                    let c = col.cell(i);
                    *null |= c.is_null();
                    *h = step(*h, c);
                }
            }
        }
    }
    for h in hashes.iter_mut() {
        *h = mix_finish(*h);
    }
}

/// How rows of two batches compare on their key columns, decided once per
/// batch by [`KeyShape::of`] and bound to the columns by
/// [`KeyShape::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyShape {
    /// One key column, a NULL-free `Int` vector on both sides.
    Int,
    /// Two key columns, each a NULL-free `Int` vector on both sides.
    Int2,
    /// Any other key.
    Cells,
}

/// Is `col` a NULL-free `Int` vector?
fn int_vector(col: &Column) -> bool {
    matches!(col.data(), Data::Int(_)) && !col.has_null_bitmap()
}

impl KeyShape {
    /// The shape of the key `a_pos` of `a` against the key `b_pos` of `b`
    /// (parallel lists of column positions). An empty batch has no rows to
    /// compare: [`KeyShape::Cells`].
    pub(crate) fn of(a: &RowBatch, a_pos: &[usize], b: &RowBatch, b_pos: &[usize]) -> KeyShape {
        let all_int = !a.is_empty()
            && !b.is_empty()
            && (a_pos.iter().zip(b_pos))
                .all(|(x, y)| int_vector(a.col(*x)) && int_vector(b.col(*y)));
        match (a_pos.len(), all_int) {
            (1, true) => KeyShape::Int,
            (2, true) => KeyShape::Int2,
            _ => KeyShape::Cells,
        }
    }

    /// Bind the shape to the key columns it was decided on (or to the same
    /// columns grown by rows of the same shape).
    #[inline]
    pub(crate) fn bind<'a>(
        self,
        a: &'a RowBatch,
        a_pos: &'a [usize],
        b: &'a RowBatch,
        b_pos: &'a [usize],
    ) -> KeyEq<'a> {
        let ints = |x: &'a Column| match x.data() {
            Data::Int(v) => v.as_slice(),
            _ => unreachable!("an Int key shape over a column of another type"),
        };
        match self {
            KeyShape::Int => KeyEq::Int(ints(a.col(a_pos[0])), ints(b.col(b_pos[0]))),
            KeyShape::Int2 => KeyEq::Int2(
                [ints(a.col(a_pos[0])), ints(a.col(a_pos[1]))],
                [ints(b.col(b_pos[0])), ints(b.col(b_pos[1]))],
            ),
            KeyShape::Cells => KeyEq::Cells(a, a_pos, b, b_pos),
        }
    }
}

/// Key equality of row `i` of one batch and row `j` of another (NULL
/// equals NULL, numerics compare by value): [`Column::key_eq`] per column,
/// in machine words where the [`KeyShape`] allows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeyEq<'a> {
    Int(&'a [i64], &'a [i64]),
    Int2([&'a [i64]; 2], [&'a [i64]; 2]),
    Cells(&'a RowBatch, &'a [usize], &'a RowBatch, &'a [usize]),
}

impl KeyEq<'_> {
    /// Are row `i`'s key and row `j`'s equal?
    #[inline]
    pub(crate) fn eq(&self, i: usize, j: usize) -> bool {
        match *self {
            KeyEq::Int(x, y) => x[i] == y[j],
            KeyEq::Int2(x, y) => x[0][i] == y[0][j] && x[1][i] == y[1][j],
            KeyEq::Cells(a, a_pos, b, b_pos) => {
                (a_pos.iter().zip(b_pos)).all(|(p, q)| a.col(*p).key_eq(i, b.col(*q), j))
            }
        }
    }
}

/// A NULL-free number (or boolean) column as `i64` words in
/// [`Column::cmp_rows`] order: `Int` as is, `Date` widened, `Float` by
/// [`total_order_key`]. `None` for any other column.
fn sort_words(col: &Column) -> Option<Cow<'_, [i64]>> {
    if col.has_null_bitmap() {
        return None;
    }
    Some(match col.data() {
        Data::Int(v) => Cow::Borrowed(v),
        Data::Date(v) => v.iter().map(|d| i64::from(*d)).collect(),
        Data::Float(v) => v.iter().map(|f| total_order_key(*f)).collect(),
        Data::Bool(v) => v.iter().map(|b| i64::from(*b)).collect(),
        _ => return None,
    })
}

/// The rows of `batch` ordered by its first `k` columns under
/// [`Column::cmp_rows`], column by column. A key of one or two NULL-free
/// number columns sorts as `(i64, u32)` / `(i64, i64, u32)` tuples of its
/// [`sort_words`]; any other key through `cmp_rows`. The rows must be
/// distinct on the key (the aggregate's groups are), so the unstable sort
/// is deterministic.
pub(crate) fn key_order(batch: &RowBatch, k: usize) -> Vec<u32> {
    let n = batch.len();
    if n == 0 {
        return Vec::new();
    }
    let words = |c: usize| sort_words(batch.col(c));
    match k {
        1 => {
            if let Some(w) = words(0) {
                let mut pairs: Vec<(i64, u32)> = w.iter().zip(0..).map(|(w, g)| (*w, g)).collect();
                pairs.sort_unstable();
                return pairs.into_iter().map(|(_, g)| g).collect();
            }
        }
        2 => {
            if let (Some(w), Some(v)) = (words(0), words(1)) {
                let mut triples: Vec<(i64, i64, u32)> = (w.iter().zip(v.iter()).zip(0..))
                    .map(|((w, v), g)| (*w, *v, g))
                    .collect();
                triples.sort_unstable();
                return triples.into_iter().map(|(_, _, g)| g).collect();
            }
        }
        _ => {}
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|x, y| {
        (0..k)
            .map(|c| batch.col(c).cmp_rows(*x as usize, *y as usize))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    order
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
    /// bucket array — re-threading every row by its stored hash in
    /// `hashes` — when rows outnumber buckets. The aggregate's path: its
    /// keys are unique, so chain order does not matter there.
    pub(crate) fn push(&mut self, hash: u64, hashes: &[u64]) {
        let row = self.next.len();
        if row >= self.heads.len() {
            *self = Self::build(row, 2 * row, |r| Some(hashes[r]));
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
    use pop_types::Value;
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

    fn hash_of(key: &[Value]) -> (u64, bool) {
        hash_cells(key.iter().map(Cell::of))
    }

    /// Column-wise hashes of `positions` over every row of `rows`.
    fn column_hashes(rows: &[Vec<Value>], positions: &[usize]) -> Vec<(u64, bool)> {
        let mut b = RowBatch::new();
        for r in rows {
            b.push_row(r, &[]);
        }
        let (mut h, mut n) = (Vec::new(), Vec::new());
        hash_keys(&b, positions, &mut h, &mut n);
        h.into_iter().zip(n).collect()
    }

    #[test]
    fn consecutive_int_keys_spread_in_the_low_bits() {
        // 2^15 consecutive keys into 2^15 buckets (the bits an index of
        // that size picks with): a uniform hash fills ~63 % of them;
        // without the finalizer every key lands in a handful.
        let n = 1usize << 15;
        let rows: Vec<Vec<Value>> = (0..n as i64).map(|i| vec![Value::Int(i)]).collect();
        let buckets: HashSet<u64> = column_hashes(&rows, &[0])
            .into_iter()
            .map(|(h, _)| h & (n as u64 - 1))
            .collect();
        assert!(
            buckets.len() > n / 2,
            "{} of {n} buckets used",
            buckets.len()
        );
    }

    #[test]
    fn equal_keys_of_different_numeric_types_hash_equally() {
        let int = hash_of(&[Value::Int(3), Value::str("x")]);
        assert!(!int.1);
        assert_eq!(int, hash_of(&[Value::Float(3.0), Value::str("x")]));
        assert_eq!(int, hash_of(&[Value::Date(3), Value::str("x")]));
        assert_ne!(int, hash_of(&[Value::Int(4), Value::str("x")]));
        // The column-wise hash equals the value-wise one on typed, NULL-
        // bearing and mixed columns, and positions pick the key out of a
        // wider row.
        let rows = vec![
            vec![Value::str("x"), Value::Null, Value::Int(3), Value::Int(3)],
            vec![
                Value::str("xyzzy-long"),
                Value::Float(3.0),
                Value::Null,
                Value::Float(-0.0),
            ],
            vec![
                Value::Null,
                Value::Date(3),
                Value::Int(-2),
                Value::Bool(true),
            ],
            vec![
                Value::str(""),
                Value::Int(3),
                Value::Int(9),
                Value::str("3"),
            ],
        ];
        let by_column = column_hashes(&rows, &[2, 0, 1, 3]);
        for (r, got) in rows.iter().zip(by_column) {
            let key = [r[2].clone(), r[0].clone(), r[1].clone(), r[3].clone()];
            assert_eq!(got, hash_of(&key), "{r:?}");
        }
        assert_eq!(column_hashes(&rows, &[2, 0])[0], int);
        // A NULL-free string column takes its typed arm: the same hashes.
        let strs: Vec<Vec<Value>> = ["", "a", "abcdefgh", "abcdefghi"]
            .iter()
            .map(|s| vec![Value::Int(1), Value::str(*s)])
            .collect();
        for (r, got) in strs.iter().zip(column_hashes(&strs, &[1, 0])) {
            assert_eq!(got, hash_of(&[r[1].clone(), r[0].clone()]), "{r:?}");
        }
    }

    #[test]
    fn null_keys_hash_for_grouping_only() {
        let row = [Value::Int(1), Value::Null];
        assert!(hash_of(&row).1, "a NULL key never joins");
        assert_eq!(hash_of(&row), hash_of(&row));
        assert_ne!(hash_of(&row).0, hash_of(&row[..1]).0);
        // The zero-column key is a key too: every row's.
        assert_eq!(column_hashes(&[row.to_vec()], &[]), vec![hash_of(&[])]);
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

    /// `key_order` on word tuples = the `cmp_rows` order, column by
    /// column: `-0.0` before `0.0`, NaNs by their bits, `i64` extremes,
    /// negative dates, booleans; and on the keys it leaves to `cmp_rows`
    /// (strings sharing a prefix, NULL-bearing and mixed columns, three
    /// columns).
    #[test]
    fn typed_key_order_is_the_cmp_rows_order() {
        let nan = f64::NAN;
        let columns: Vec<Vec<Value>> = vec![
            [3, i64::MIN, -1, 0, i64::MAX, 2].map(Value::Int).to_vec(),
            [-3, 7, 0, -40_000, 2].map(Value::Date).to_vec(),
            [
                0.0,
                -0.0,
                nan,
                -nan,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                -2.5,
            ]
            .map(Value::Float)
            .to_vec(),
            ["abcdefgh", "abc", "", "abcdefghi", "b", "abd"]
                .map(Value::str)
                .to_vec(),
            [true, false].map(Value::Bool).to_vec(),
            vec![Value::Int(2), Value::Null, Value::Int(-1)],
            vec![
                Value::Int(2),
                Value::Float(1.5),
                Value::Date(0),
                Value::str("x"),
            ],
        ];
        let by_cmp_rows = |b: &RowBatch, k: usize| {
            let mut order: Vec<u32> = (0..b.len() as u32).collect();
            order.sort_by(|x, y| {
                (0..k)
                    .map(|c| b.col(c).cmp_rows(*x as usize, *y as usize))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            order
        };
        let batch = |rows: Vec<Vec<Value>>| {
            let mut b = RowBatch::new();
            for r in &rows {
                b.push_row(r, &[]);
            }
            b
        };
        for (i, a) in columns.iter().enumerate() {
            // One column, and every pair of columns: each row of `a`
            // against every row of `b` (so tuples tie on their first
            // column and are ordered by the second).
            let b = batch(a.iter().map(|v| vec![v.clone()]).collect());
            assert_eq!(key_order(&b, 1), by_cmp_rows(&b, 1), "{a:?}");
            for second in &columns[i..] {
                let rows = (a.iter())
                    .flat_map(|x| second.iter().map(move |y| vec![x.clone(), y.clone()]))
                    .collect();
                let b = batch(rows);
                assert_eq!(key_order(&b, 2), by_cmp_rows(&b, 2), "{a:?} x {second:?}");
            }
        }
        // Three columns, and no key columns at all (the scalar aggregate).
        let rows = (0..24)
            .map(|i| {
                vec![
                    Value::Int(i % 2),
                    Value::str(format!("s{}", i % 3)),
                    Value::Float(i as f64),
                ]
            })
            .collect();
        let b = batch(rows);
        assert_eq!(key_order(&b, 3), by_cmp_rows(&b, 3));
        assert_eq!(key_order(&batch(vec![vec![]]), 0), vec![0]);
        assert_eq!(key_order(&RowBatch::new(), 1), Vec::<u32>::new());
    }

    #[test]
    fn pushed_rows_survive_growth() {
        let hash_of = |r: usize| hash_of(&[Value::Int(r as i64)]).0;
        let mut ix = ChainIndex::build(0, 0, |_| None);
        let mut hashes = Vec::new();
        for r in 0..1000 {
            ix.push(hash_of(r), &hashes);
            hashes.push(hash_of(r));
        }
        for r in 0..1000 {
            assert!(chain(&ix, hash_of(r)).contains(&(r as u32)), "row {r}");
        }
        assert!(ix.heads.len() >= 1000 && ix.heads.len().is_power_of_two());
    }
}
