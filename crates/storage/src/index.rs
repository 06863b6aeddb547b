//! Secondary indexes over a single column.
//!
//! Index nested-loop join (the paper's "index NLJN") probes these; the
//! availability of an index on the inner join column is what makes NLJN
//! attractive to the optimizer when the outer cardinality is small — and
//! catastrophic when the outer estimate was wrong, which is exactly the
//! situation POP's CHECK on the NLJN outer guards against (Figure 2).
//!
//! Two representations share one probe interface: in-memory maps (built
//! by scanning the indexed column — and, on a paged table, decoding only
//! that column — rebuilt by [`crate::Catalog::refresh_indexes`]) and
//! the paged backend's persistent [`BTree`] primary index (maintained
//! incrementally on append, read through the buffer pool). Key semantics
//! are identical: NULLs are never indexed, probes return row positions
//! in ascending order per key, range scans return keys in ascending
//! order.

use crate::btree::BTree;
use crate::table::Table;
use pop_types::{PopResult, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Rows read per cursor chunk while building an in-memory index.
const BUILD_CHUNK: usize = 1024;

/// Kind of index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: equality probes only.
    Hash,
    /// Ordered map: equality and range probes.
    Sorted,
}

#[derive(Debug)]
enum Repr {
    /// In-memory maps over the rows the table held at build time.
    Mem {
        hash: HashMap<Value, Vec<u64>>,
        sorted: BTreeMap<Value, Vec<u64>>,
        entries: u64,
    },
    /// Persistent B+tree (paged backend primary index). Always `Sorted`.
    BTree(Arc<BTree>),
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
    /// current rows, reading that one column through a projected cursor.
    pub fn build(kind: IndexKind, column: usize, table: &Table) -> PopResult<Self> {
        let mut hash = HashMap::new();
        let mut sorted = BTreeMap::new();
        let mut entries = 0u64;
        let mut cursor = table.cursor(0, u64::MAX)?.project([column]);
        while let Some(chunk) = cursor.next_chunk(BUILD_CHUNK)? {
            let keys = &chunk.cols[column];
            for (pos, i) in (chunk.start..).zip(chunk.rows) {
                if keys.is_null(i) {
                    continue; // NULL never matches an equi-join or range probe
                }
                entries += 1;
                let v = keys.value(i);
                match kind {
                    IndexKind::Hash => hash.entry(v).or_insert_with(Vec::new).push(pos),
                    IndexKind::Sorted => sorted.entry(v).or_insert_with(Vec::new).push(pos),
                }
            }
        }
        Ok(Index {
            column,
            kind,
            repr: Repr::Mem {
                hash,
                sorted,
                entries,
            },
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
            Repr::Mem { entries, .. } => *entries,
            Repr::BTree(bt) => bt.entry_count(),
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        match &self.repr {
            Repr::Mem { hash, sorted, .. } => match self.kind {
                IndexKind::Hash => hash.len() as u64,
                IndexKind::Sorted => sorted.len() as u64,
            },
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
    /// refilled, so a join probing once per outer row reuses one buffer.
    pub fn probe_into(&self, key: &Value, out: &mut Vec<u64>) -> PopResult<()> {
        out.clear();
        if key.is_null() {
            return Ok(());
        }
        match &self.repr {
            Repr::Mem { hash, sorted, .. } => {
                let hit = match self.kind {
                    IndexKind::Hash => hash.get(key),
                    IndexKind::Sorted => sorted.get(key),
                };
                out.extend_from_slice(hit.map_or(&[][..], Vec::as_slice));
                Ok(())
            }
            Repr::BTree(bt) => bt.probe_into(key, out),
        }
    }

    /// Row positions with column in `[lo, hi]` (either bound optional),
    /// ascending by key. Only supported for sorted indexes; hash indexes
    /// return `Ok(None)`.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> PopResult<Option<Vec<u64>>> {
        match &self.repr {
            Repr::Mem { sorted, .. } => {
                if self.kind != IndexKind::Sorted {
                    return Ok(None);
                }
                let lo_b = lo.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
                let hi_b = hi.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
                let mut out = Vec::new();
                for (_, positions) in sorted.range((lo_b, hi_b)) {
                    out.extend_from_slice(positions);
                }
                Ok(Some(out))
            }
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
        b.append(rows()).unwrap();
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
