//! Temporary materialized views created from intermediate results.

use crate::Table;
use pop_types::{ColId, Rid};
use std::sync::Arc;

/// The base-table rids of a temp MV's rows, flat: every row has `width`
/// of them, row `i` at `rids[i * width..(i + 1) * width]`. Shared, so a
/// catalog lookup clones no rid.
#[derive(Debug, Clone)]
pub struct Lineage {
    rids: Arc<Vec<Rid>>,
    width: usize,
}

impl Lineage {
    /// Lineage of `rids.len() / width` rows of `width` rids each, taking
    /// the vector as it is.
    pub fn new(rids: Vec<Rid>, width: usize) -> Self {
        debug_assert!(rids.len().is_multiple_of(width), "ragged lineage");
        Lineage {
            rids: Arc::new(rids),
            width,
        }
    }

    /// The rids of row `i` (none past the last row).
    pub fn row(&self, i: usize) -> &[Rid] {
        self.rids
            .get(i * self.width..(i + 1) * self.width)
            .unwrap_or(&[])
    }
}

/// A temporary materialized view promoted from an intermediate result when
/// a CHECK fails (§2.3).
///
/// `tables` names *which part of the query* the rows compute: the query
/// tables the subplan joins. Temp MVs live only as long as the query that
/// promoted them, whose predicates and parameter values are fixed, so the
/// table set identifies the subplan; the rows are in the set's canonical
/// layout. During re-optimization, the optimizer offers an `MvScan`
/// alternative for the subplan over the same set, carrying the **actual**
/// cardinality — the optimizer then makes a cost-based decision whether
/// to reuse it.
///
/// On the paged backend the backing table is a *temporary* backend: its
/// rows spill to pages (so promotion cannot OOM) but skip the WAL and
/// checkpointing, and the page file is unlinked when the last `Arc` to
/// the table drops — `Catalog::clear_temp_mvs` (run by the driver's RAII
/// MV-cleanup guard) is therefore also the file cleanup.
#[derive(Debug, Clone)]
pub struct TempMv {
    /// Backing storage for the materialized rows.
    pub table: Arc<Table>,
    /// Mask of the query tables the subplan joins (bit `i`: query table
    /// `i`): the catalog registers the MV under it, and a re-plan finds
    /// the MV's group by it.
    pub tables: u64,
    /// Column layout of the materialized rows (query-table/column ids).
    pub layout: Vec<ColId>,
    /// Actual (exact) cardinality, recorded at materialization time.
    pub actual_card: u64,
    /// Lineage of base-table rids per materialized row, when tracked.
    pub lineage: Option<Lineage>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{DataType, Schema};

    #[test]
    fn construct() {
        let t = Arc::new(Table::new(
            100,
            "__mv_1",
            Schema::from_pairs(&[("a", DataType::Int)]),
            vec![],
        ));
        let mv = TempMv {
            table: t,
            tables: 1,
            layout: vec![ColId::new(0, 0)],
            actual_card: 0,
            lineage: None,
        };
        assert_eq!(mv.tables, 1);
        assert_eq!(mv.table.row_count(), 0);
        let rids: Vec<Rid> = (0..6u64).map(|i| Rid::new((i % 2) as u32, i)).collect();
        let lineage = Lineage::new(rids, 2);
        assert_eq!(lineage.row(1), &[Rid::new(0, 2), Rid::new(1, 3)]);
        assert!(lineage.row(3).is_empty());
    }
}
