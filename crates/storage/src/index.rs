//! Secondary indexes over a single column.
//!
//! Index nested-loop join (the paper's "index NLJN") probes these; the
//! availability of an index on the inner join column is what makes NLJN
//! attractive to the optimizer when the outer cardinality is small — and
//! catastrophic when the outer estimate was wrong, which is exactly the
//! situation POP's CHECK on the NLJN outer guards against (Figure 2).
//!
//! Every index, on either backend, is one representation: in-memory
//! sorted runs, built by one sort of the indexed column (on a paged table,
//! decoding only that column; a number column through the key sort
//! ANALYZE uses, [`pop_types::sort::sort_runs`]) over the rows the table
//! held at build time, and rebuilt by [`crate::Catalog::refresh_indexes`].
//! NULLs are never indexed, keys compare under `Value`'s order (`Int(3)`,
//! `Float(3.0)` and `Date(3)` are one key), probes return row positions in
//! ascending order per key, range scans return keys in ascending order.
//! Probes read no pages, so they cannot fail.

use crate::table::Table;
use pop_types::column::{Cell, Column, Data};
use pop_types::sort::{sort_runs, total_order_key};
use pop_types::{PopError, PopResult, Value};
use std::cmp::Ordering;
use std::ops::Range;

/// Kind of index structure. Both kinds are built as the same sorted runs;
/// the kind tells the planner whether the index answers range probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Equality probes only.
    Hash,
    /// Equality and range probes.
    Sorted,
}

/// A column's non-NULL rows sorted by key: the distinct keys in `Value`
/// order, and the row positions of key `k` at
/// `positions[starts[k]..starts[k + 1]]`, ascending.
#[derive(Debug)]
struct Runs {
    keys: Column,
    /// One more entry than `keys`: the last is `positions.len()`.
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl Runs {
    /// Sort the non-NULL rows `rows` of `col` (row `rows.start + p` is
    /// table position `p`) into runs of equal keys.
    fn build(col: &Column, rows: Range<usize>) -> PopResult<Runs> {
        let base = rows.start;
        if u32::try_from(rows.len()).is_err() {
            return Err(PopError::Execution(format!(
                "index: {} rows exceed the u32 positions of an in-memory index",
                rows.len()
            )));
        }
        let live = rows.filter(|&i| !col.is_null(i)).map(|i| (i - base) as u32);
        let at = |p: u32| base + p as usize;
        let (positions, mut starts) = match col.data() {
            Data::Int(v) => sort_runs(live.map(|p| (v[at(p)], p))).into_runs(),
            Data::Date(v) => sort_runs(live.map(|p| (i64::from(v[at(p)]), p))).into_runs(),
            Data::Float(v) => sort_runs(live.map(|p| (total_order_key(v[at(p)]), p))).into_runs(),
            _ => {
                let mut positions: Vec<u32> = live.collect();
                positions.sort_by(|a, b| col.cmp_rows(at(*a), at(*b)));
                // A run starts wherever the key changes.
                let starts = (0..positions.len())
                    .filter(|&k| k == 0 || !col.key_eq(at(positions[k - 1]), col, at(positions[k])))
                    .map(|k| k as u32)
                    .collect();
                (positions, starts)
            }
        };
        let mut keys = Column::default();
        let firsts = starts.iter().map(|&s| at(positions[s as usize]));
        keys.extend_gather(col, firsts, starts.len());
        starts.push(positions.len() as u32);
        Ok(Runs {
            keys,
            starts,
            positions,
        })
    }

    /// The number of keys below `key` or, with `through`, not above it
    /// (a binary search: the keys are in `cmp_total` order).
    fn bound(&self, key: Cell<'_>, through: bool) -> usize {
        let (mut lo, mut hi) = (0, self.keys.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let before = match self.keys.cell(mid).cmp_total(key) {
                Ordering::Less => true,
                Ordering::Equal => through,
                Ordering::Greater => false,
            };
            if before {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Positions of the keys `keys` (empty when the range is).
    fn positions(&self, keys: Range<usize>) -> &[u32] {
        if keys.start >= keys.end {
            return &[];
        }
        &self.positions[self.starts[keys.start] as usize..self.starts[keys.end] as usize]
    }

    /// Positions of the keys equal to `key`: one run, or more than one
    /// where distinct keys of a mixed column both equal it.
    fn probe(&self, key: Cell<'_>) -> &[u32] {
        self.positions(self.bound(key, false)..self.bound(key, true))
    }

    /// Append the positions of row `i` of `col` for each of `rows` to
    /// `out`, and `out`'s length after each row to `bounds`. Where the
    /// keys and the probe column are the same NULL-free `Int` or `Date`
    /// vector, a binary search over the words; per [`Cell`] otherwise.
    fn probe_rows(
        &self,
        col: &Column,
        rows: impl Iterator<Item = usize>,
        out: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    ) {
        let typed = !col.has_null_bitmap() && !self.keys.has_null_bitmap();
        match (self.keys.data(), col.data()) {
            (Data::Int(keys), Data::Int(probe)) if typed => {
                self.probe_words(keys, rows.map(|i| probe[i]), out, bounds);
            }
            (Data::Date(keys), Data::Date(probe)) if typed => {
                self.probe_words(keys, rows.map(|i| probe[i]), out, bounds);
            }
            _ => {
                for i in rows {
                    let key = col.cell(i);
                    if !key.is_null() {
                        out.extend(self.probe(key).iter().map(|&p| u64::from(p)));
                    }
                    bounds.push(out.len());
                }
            }
        }
    }

    /// [`Runs::probe_rows`] over keys of one machine type: distinct keys,
    /// so a key matches at most one run.
    fn probe_words<T: Ord>(
        &self,
        keys: &[T],
        probe: impl Iterator<Item = T>,
        out: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    ) {
        for key in probe {
            if let Ok(k) = keys.binary_search(&key) {
                out.extend(self.positions(k..k + 1).iter().map(|&p| u64::from(p)));
            }
            bounds.push(out.len());
        }
    }

    /// Positions of the keys in `[lo, hi]`.
    fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> &[u32] {
        let start = lo.map_or(0, |v| self.bound(Cell::of(v), false));
        let end = hi.map_or(self.keys.len(), |v| self.bound(Cell::of(v), true));
        self.positions(start..end)
    }
}

/// A secondary index mapping a column value to the row positions holding
/// it: sorted runs over the rows the table held at build time.
#[derive(Debug)]
pub struct Index {
    column: usize,
    kind: IndexKind,
    runs: Runs,
}

impl Index {
    /// Build an index of `kind` on `column` over the table's current rows:
    /// one projected read of that column (a mem table hands out its stored
    /// column), one sort of its non-NULL rows. A table of more than
    /// `u32::MAX` rows is a typed error.
    pub fn build(kind: IndexKind, column: usize, table: &Table) -> PopResult<Self> {
        let mut cursor = table.cursor(0, u64::MAX)?.project([column]);
        let runs = match cursor.next_chunk(usize::MAX)? {
            Some(chunk) => Runs::build(&chunk.cols[column], chunk.rows)?,
            None => Runs::build(&Column::default(), 0..0)?,
        };
        Ok(Index { column, kind, runs })
    }

    /// Indexed column position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Index kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Number of indexed (non-NULL) entries.
    pub fn entries(&self) -> u64 {
        self.runs.positions.len() as u64
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        self.runs.keys.len() as u64
    }

    /// Row positions with column equal to `key` (ascending); none for NULL.
    pub fn probe(&self, key: &Value) -> Vec<u64> {
        if key.is_null() {
            return Vec::new();
        }
        widen(self.runs.probe(Cell::of(key)))
    }

    /// Probe row `i` of `col` for each of `rows`, in order: `out` is
    /// cleared and refilled with every row's positions (each row's
    /// ascending, as [`Index::probe`] returns them), and `bounds` with
    /// `0` and then `out`'s length after each row, so row `k`'s are
    /// `out[bounds[k]..bounds[k + 1]]`. A NULL key matches nothing. The
    /// join probing a batch of outer rows calls this once per batch.
    pub fn probe_batch(
        &self,
        col: &Column,
        rows: impl Iterator<Item = usize>,
        out: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    ) {
        out.clear();
        bounds.clear();
        bounds.push(0);
        self.runs.probe_rows(col, rows, out, bounds);
    }

    /// Row positions with column in `[lo, hi]` (either bound optional),
    /// ascending by key. Only supported for sorted indexes; hash indexes
    /// return `None`.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Option<Vec<u64>> {
        (self.kind == IndexKind::Sorted).then(|| widen(self.runs.range(lo, hi)))
    }
}

/// `positions` as the `u64` table positions callers take.
fn widen(positions: &[u32]) -> Vec<u64> {
    positions.iter().map(|&p| u64::from(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{DataType, Row, Schema};

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(5), Value::str("a")],
            vec![Value::Int(3), Value::str("b")],
            vec![Value::Int(5), Value::str("c")],
            vec![Value::Null, Value::str("d")],
        ]
    }

    fn build(kind: IndexKind, column: usize) -> Index {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        Index::build(kind, column, &Table::new(0, "t", schema, rows())).unwrap()
    }

    #[test]
    fn hash_probe() {
        let idx = build(IndexKind::Hash, 0);
        assert_eq!(idx.probe(&Value::Int(5)), vec![0, 2]);
        assert!(idx.probe(&Value::Int(9)).is_empty());
        assert!(idx.probe(&Value::Null).is_empty());
        assert_eq!(idx.entries(), 3);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn sorted_probe_and_range() {
        let idx = build(IndexKind::Sorted, 0);
        assert_eq!(idx.probe(&Value::Int(3)), vec![1]);
        let r = idx
            .range(Some(&Value::Int(3)), Some(&Value::Int(5)))
            .unwrap();
        assert_eq!(r, vec![1, 0, 2]);
        let r = idx.range(None, Some(&Value::Int(4))).unwrap();
        assert_eq!(r, vec![1]);
        let r = idx.range(Some(&Value::Int(4)), None).unwrap();
        assert_eq!(r, vec![0, 2]);
    }

    /// The runs of a typed column with NULLs keep a NULL-free typed key
    /// vector (what the batch probe's word search needs), and the batch
    /// probe returns each row's positions.
    #[test]
    fn batch_probe_over_typed_keys() {
        let idx = build(IndexKind::Hash, 0);
        let runs = &idx.runs;
        assert!(matches!(runs.keys.data(), Data::Int(_)) && !runs.keys.has_null_bitmap());
        let mut col = Column::default();
        for v in [5, 9, 3, 5] {
            col.push(&Value::Int(v), 4);
        }
        let (mut out, mut bounds) = (vec![1], vec![1]);
        idx.probe_batch(&col, [3, 1, 2].into_iter(), &mut out, &mut bounds);
        assert_eq!((out, bounds), (vec![0, 2, 1], vec![0, 2, 2, 3]));
    }

    #[test]
    fn hash_has_no_range() {
        let idx = build(IndexKind::Hash, 0);
        assert!(idx.range(None, None).is_none());
    }

    #[test]
    fn string_keys() {
        let idx = build(IndexKind::Hash, 1);
        assert_eq!(idx.probe(&Value::str("c")), vec![2]);
        assert_eq!(idx.distinct_keys(), 4);
    }
}
