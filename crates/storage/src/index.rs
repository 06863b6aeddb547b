//! Secondary indexes over a single column.
//!
//! Index nested-loop join (the paper's "index NLJN") probes these; the
//! availability of an index on the inner join column is what makes NLJN
//! attractive to the optimizer when the outer cardinality is small — and
//! catastrophic when the outer estimate was wrong, which is exactly the
//! situation POP's CHECK on the NLJN outer guards against (Figure 2).
//!
//! Two representations share one probe interface: in-memory sorted runs
//! (built by one sort of the indexed column — on a paged table, decoding
//! only that column; a number column through the key sort ANALYZE uses,
//! [`pop_types::sort::sort_runs`] — rebuilt by
//! [`crate::Catalog::refresh_indexes`]) and
//! the paged backend's persistent [`BTree`] primary index (maintained
//! incrementally on append, read through the buffer pool). Key semantics
//! are identical: NULLs are never indexed, keys compare under `Value`'s
//! order (`Int(3)`, `Float(3.0)` and `Date(3)` are one key), probes return
//! row positions in ascending order per key, range scans return keys in
//! ascending order.

use crate::btree::BTree;
use crate::table::Table;
use pop_types::column::{Cell, Column, Data};
use pop_types::sort::{sort_runs, total_order_key};
use pop_types::{PopError, PopResult, Value};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Kind of index structure. Both kinds are built as the same sorted runs;
/// the kind tells the planner whether the index answers range probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Equality probes only.
    Hash,
    /// Equality and range probes.
    Sorted,
}

#[derive(Debug)]
enum Repr {
    /// Sorted runs over the rows the table held at build time.
    Mem(Runs),
    /// Persistent B+tree (paged backend primary index). Always `Sorted`.
    BTree(Arc<BTree>),
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

/// A secondary index mapping a column value to the row positions holding it.
#[derive(Debug)]
pub struct Index {
    column: usize,
    kind: IndexKind,
    repr: Repr,
}

impl Index {
    /// Build an in-memory index of `kind` on `column` over the table's
    /// current rows: one projected read of that column (a mem table hands
    /// out its stored column), one sort of its non-NULL rows.
    pub fn build(kind: IndexKind, column: usize, table: &Table) -> PopResult<Self> {
        let mut cursor = table.cursor(0, u64::MAX)?.project([column]);
        let runs = match cursor.next_chunk(usize::MAX)? {
            Some(chunk) => Runs::build(&chunk.cols[column], chunk.rows)?,
            None => Runs::build(&Column::default(), 0..0)?,
        };
        Ok(Index {
            column,
            kind,
            repr: Repr::Mem(runs),
        })
    }

    /// Wrap a paged backend's persistent B+tree primary index. Always
    /// `Sorted`; stays current with appends without a rebuild.
    pub fn from_btree(column: usize, btree: Arc<BTree>) -> Self {
        Index {
            column,
            kind: IndexKind::Sorted,
            repr: Repr::BTree(btree),
        }
    }

    /// True for the persistent B+tree representation (maintained on
    /// append — [`crate::Catalog::refresh_indexes`] skips it).
    pub fn is_persistent(&self) -> bool {
        matches!(self.repr, Repr::BTree(_))
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
        match &self.repr {
            Repr::Mem(runs) => runs.positions.len() as u64,
            Repr::BTree(bt) => bt.entry_count(),
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        match &self.repr {
            Repr::Mem(runs) => runs.keys.len() as u64,
            Repr::BTree(bt) => bt.distinct_keys(),
        }
    }

    /// Row positions with column equal to `key` (ascending). The B+tree
    /// representation reads pages, so probes can fail with a storage
    /// error.
    pub fn probe(&self, key: &Value) -> PopResult<Vec<u64>> {
        let mut out = Vec::new();
        self.probe_into(key, &mut out)?;
        Ok(out)
    }

    /// [`Index::probe`] into a caller-owned buffer: `out` is cleared and
    /// refilled, so repeated probes reuse one buffer.
    pub fn probe_into(&self, key: &Value, out: &mut Vec<u64>) -> PopResult<()> {
        out.clear();
        if key.is_null() {
            return Ok(());
        }
        match &self.repr {
            Repr::Mem(runs) => {
                out.extend(runs.probe(Cell::of(key)).iter().map(|&p| u64::from(p)));
                Ok(())
            }
            Repr::BTree(bt) => bt.probe_into(key, out),
        }
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
    ) -> PopResult<()> {
        out.clear();
        bounds.clear();
        bounds.push(0);
        match &self.repr {
            Repr::Mem(runs) => runs.probe_rows(col, rows, out, bounds),
            Repr::BTree(bt) => {
                for i in rows {
                    let key = col.value(i);
                    if !key.is_null() {
                        bt.probe_into(&key, out)?;
                    }
                    bounds.push(out.len());
                }
            }
        }
        Ok(())
    }

    /// Row positions with column in `[lo, hi]` (either bound optional),
    /// ascending by key. Only supported for sorted indexes; hash indexes
    /// return `Ok(None)`.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> PopResult<Option<Vec<u64>>> {
        if self.kind != IndexKind::Sorted {
            return Ok(None);
        }
        match &self.repr {
            Repr::Mem(runs) => Ok(Some(
                runs.range(lo, hi).iter().map(|&p| u64::from(p)).collect(),
            )),
            Repr::BTree(bt) => bt.range(lo, hi).map(Some),
        }
    }
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
        assert_eq!(idx.probe(&Value::Int(5)).unwrap(), vec![0, 2]);
        assert!(idx.probe(&Value::Int(9)).unwrap().is_empty());
        assert!(idx.probe(&Value::Null).unwrap().is_empty());
        assert_eq!(idx.entries(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert!(!idx.is_persistent());
    }

    #[test]
    fn sorted_probe_and_range() {
        let idx = build(IndexKind::Sorted, 0);
        assert_eq!(idx.probe(&Value::Int(3)).unwrap(), vec![1]);
        let r = idx
            .range(Some(&Value::Int(3)), Some(&Value::Int(5)))
            .unwrap()
            .unwrap();
        assert_eq!(r, vec![1, 0, 2]);
        let r = idx.range(None, Some(&Value::Int(4))).unwrap().unwrap();
        assert_eq!(r, vec![1]);
        let r = idx.range(Some(&Value::Int(4)), None).unwrap().unwrap();
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn probe_into_refills_the_buffer() {
        for kind in [IndexKind::Hash, IndexKind::Sorted] {
            let idx = build(kind, 0);
            let mut buf = vec![99];
            for key in [Value::Int(5), Value::Int(9), Value::Int(3), Value::Null] {
                idx.probe_into(&key, &mut buf).unwrap();
                assert_eq!(buf, idx.probe(&key).unwrap(), "{kind:?} {key:?}");
            }
        }
    }

    /// The runs of a typed column with NULLs keep a NULL-free typed key
    /// vector (what the batch probe's word search needs), and the batch
    /// probe returns each row's positions.
    #[test]
    fn batch_probe_over_typed_keys() {
        let idx = build(IndexKind::Hash, 0);
        let Repr::Mem(runs) = &idx.repr else {
            panic!("an in-memory index")
        };
        assert!(matches!(runs.keys.data(), Data::Int(_)) && !runs.keys.has_null_bitmap());
        let mut col = Column::default();
        for v in [5, 9, 3, 5] {
            col.push(&Value::Int(v), 4);
        }
        let (mut out, mut bounds) = (vec![1], vec![1]);
        idx.probe_batch(&col, [3, 1, 2].into_iter(), &mut out, &mut bounds)
            .unwrap();
        assert_eq!((out, bounds), (vec![0, 2, 1], vec![0, 2, 2, 3]));
    }

    #[test]
    fn hash_has_no_range() {
        let idx = build(IndexKind::Hash, 0);
        assert!(idx.range(None, None).unwrap().is_none());
    }

    #[test]
    fn string_keys() {
        let idx = build(IndexKind::Hash, 1);
        assert_eq!(idx.probe(&Value::str("c")).unwrap(), vec![2]);
        assert_eq!(idx.distinct_keys(), 4);
    }

    #[test]
    fn btree_repr_matches_mem_semantics() {
        use crate::backend::{StorageBackend, StorageConfig, StorageEnv};
        use crate::paged::PagedBackend;

        let env = Arc::new(StorageEnv::new(StorageConfig {
            page_size: 512,
            ..StorageConfig::paged()
        }));
        let b = PagedBackend::create(Arc::clone(&env), "t", true).unwrap();
        b.append(&crate::columns_of(&rows()), rows().len()).unwrap();
        let bt = b.ensure_primary(0).unwrap().unwrap();
        let idx = Index::from_btree(0, bt);
        assert!(idx.is_persistent());
        assert_eq!(idx.kind(), IndexKind::Sorted);
        let mem = build(IndexKind::Sorted, 0);
        // NULL skipped, positions ascending, ranges by ascending key —
        // exactly the in-memory Sorted semantics.
        assert_eq!(idx.entries(), mem.entries());
        assert_eq!(idx.distinct_keys(), mem.distinct_keys());
        let mut buf = vec![99];
        for key in [Value::Int(5), Value::Int(3), Value::Int(9), Value::Null] {
            assert_eq!(
                idx.probe(&key).unwrap(),
                mem.probe(&key).unwrap(),
                "{key:?}"
            );
            idx.probe_into(&key, &mut buf).unwrap();
            assert_eq!(buf, mem.probe(&key).unwrap(), "{key:?}");
        }
        assert_eq!(
            idx.range(Some(&Value::Int(3)), Some(&Value::Int(5)))
                .unwrap(),
            mem.range(Some(&Value::Int(3)), Some(&Value::Int(5)))
                .unwrap()
        );
    }
}
