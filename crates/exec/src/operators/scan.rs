//! Base-table and materialized-view scans, batch-at-a-time.

use crate::operators::Operator;
use crate::{ExecCtx, OpResult, RowBatch};
use pop_expr::BoundExpr;
use pop_storage::{Lineage, RowFetcher, Table, TableCursor};
use pop_types::Rid;
use std::sync::Arc;

/// Sequential scan with an optional pushed-down predicate. Each
/// `next_batch` call charges and filters one cursor chunk: the predicate
/// (bound against the table schema) refines a selection vector over the
/// chunk's typed columns — the stored columns themselves on the mem
/// backend — and only the output columns of passing rows are gathered out.
/// The cursor is asked for exactly the columns the scan reads (the
/// `read_set`), so a paged table decodes nothing else. Chunk boundaries and
/// logical page touches are identical on either backend, so the charged
/// work is too.
pub struct TableScanOp {
    table: Arc<Table>,
    pred: Option<BoundExpr>,
    /// Table columns copied into the output, in layout order.
    cols: Vec<usize>,
    cursor: Option<TableCursor>,
    /// Selection-vector scratch, reused across chunks.
    sel: Vec<u32>,
}

impl TableScanOp {
    /// Create a scan of `table` filtered by the predicate (already bound
    /// against the table schema), emitting every column.
    pub fn new(table: Arc<Table>, pred: Option<BoundExpr>) -> Self {
        TableScanOp {
            cols: (0..table.schema().len()).collect(),
            table,
            pred,
            cursor: None,
            sel: Vec::new(),
        }
    }

    /// Emit only the table columns `cols` (each below the schema width),
    /// in that order.
    pub fn with_columns(mut self, cols: Vec<usize>) -> Self {
        self.cols = cols;
        self
    }
}

/// The table columns a leaf reads from storage: its output columns plus
/// every column its predicate (bound against the table schema) touches.
/// Any other column of a chunk or fetch is unspecified and must not be
/// read.
pub(crate) fn read_set(cols: &[usize], pred: Option<&BoundExpr>) -> Vec<usize> {
    let mut set = cols.to_vec();
    if let Some(p) = pred {
        p.for_each_col(&mut |c| set.push(c));
    }
    set
}

impl Operator for TableScanOp {
    fn open(&mut self, _ctx: &mut ExecCtx) -> OpResult<()> {
        let cursor = self.table.cursor(0, self.table.row_count() as u64)?;
        self.cursor = Some(cursor.project(read_set(&self.cols, self.pred.as_ref())));
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        ctx.fault_storage_read(self.table.name())?;
        let cursor = self
            .cursor
            .as_mut()
            .ok_or_else(|| super::protocol_err("table scan next_batch() before open()"))?;
        let table = self.table.id();
        while let Some(chunk) = cursor.next_chunk(ctx.batch_size)? {
            let n = chunk.rows.len();
            ctx.charge(n as f64 * ctx.model.seq_row + chunk.new_pages as f64 * ctx.model.page_io);
            ctx.rows_scanned += n as u64;
            // Table position of the row at index `i` of the chunk's columns.
            let base = chunk.start - chunk.rows.start as u64;
            let rid = |i: usize| [Rid::new(table, base + i as u64)];
            let out = match &self.pred {
                None => {
                    let mut out = RowBatch::with_capacity(n);
                    let rows = chunk.rows.clone();
                    out.extend_columns(chunk.cols, &self.cols, rows.clone(), rows.map(rid));
                    out
                }
                Some(p) => {
                    self.sel.clear();
                    self.sel
                        .extend(chunk.rows.start as u32..chunk.rows.end as u32);
                    p.filter_batch(chunk.cols, &ctx.params, &mut self.sel)?;
                    if self.sel.is_empty() {
                        continue; // whole chunk filtered out: keep scanning
                    }
                    let mut out = RowBatch::with_capacity(self.sel.len());
                    let pick = self.sel.iter().map(|i| *i as usize);
                    out.extend_columns(chunk.cols, &self.cols, pick.clone(), pick.map(rid));
                    out
                }
            };
            return Ok(Some(out));
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecCtx) {
        self.cursor = None;
    }
}

/// Range scan over a sorted index: fetches only the rows whose indexed
/// column lies in `[lo, hi]`, in index (ascending key) order, then filters
/// the fetched columns with the residual predicate (bound against the
/// table schema) and gathers out the output columns — one batch of
/// positions per call.
pub struct IndexRangeScanOp {
    table: Arc<Table>,
    index: Arc<pop_storage::Index>,
    lo: Option<pop_types::Value>,
    hi: Option<pop_types::Value>,
    residual: Option<BoundExpr>,
    /// Table columns copied into the output, in layout order.
    cols: Vec<usize>,
    fetcher: Option<RowFetcher>,
    positions: Vec<u64>,
    pos: usize,
    /// Last page a fetch landed on, for random-I/O accounting: every
    /// page *transition* is charged as a random page read.
    last_page: Option<u64>,
    /// Selection-vector scratch, reused across fetches.
    sel: Vec<u32>,
}

impl IndexRangeScanOp {
    /// Create an index range scan emitting every column.
    pub fn new(
        table: Arc<Table>,
        index: Arc<pop_storage::Index>,
        lo: Option<pop_types::Value>,
        hi: Option<pop_types::Value>,
        residual: Option<BoundExpr>,
    ) -> Self {
        IndexRangeScanOp {
            cols: (0..table.schema().len()).collect(),
            table,
            index,
            lo,
            hi,
            residual,
            fetcher: None,
            positions: Vec::new(),
            pos: 0,
            last_page: None,
            sel: Vec::new(),
        }
    }

    /// Emit only the table columns `cols` (each below the schema width),
    /// in that order.
    pub fn with_columns(mut self, cols: Vec<usize>) -> Self {
        self.cols = cols;
        self
    }
}

impl Operator for IndexRangeScanOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        let fetcher = self.table.fetcher();
        self.fetcher = Some(fetcher.project(read_set(&self.cols, self.residual.as_ref())));
        self.positions = self
            .index
            .range(self.lo.as_ref(), self.hi.as_ref())?
            .ok_or_else(|| {
                pop_types::PopError::Execution(format!(
                    "index on {} column {} does not support range probes",
                    self.table.name(),
                    self.index.column()
                ))
            })?;
        ctx.charge(ctx.model.index_probe);
        self.pos = 0;
        self.last_page = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        ctx.fault_storage_read(self.table.name())?;
        let fetcher = self
            .fetcher
            .as_mut()
            .ok_or_else(|| super::protocol_err("index range scan next_batch() before open()"))?;
        let table = self.table.id();
        while self.pos < self.positions.len() {
            let end = (self.pos + ctx.batch_size.max(1)).min(self.positions.len());
            let chunk = &self.positions[self.pos..end];
            self.pos = end;
            ctx.rows_scanned += chunk.len() as u64;
            let (len, mut new_pages) = (fetcher.len(), 0u64);
            for &p in chunk.iter().filter(|p| **p < len) {
                let pg = fetcher.page_of(p);
                if self.last_page != Some(pg) {
                    self.last_page = Some(pg);
                    new_pages += 1;
                }
            }
            let got = fetcher.fetch(chunk)?;
            self.sel.clear();
            self.sel.extend_from_slice(got.rows);
            if let Some(r) = &self.residual {
                r.filter_batch(got.cols, &ctx.params, &mut self.sel)?;
            }
            let mut out = RowBatch::with_capacity(self.sel.len());
            let pick = self.sel.iter().map(|i| *i as usize);
            let rids = got.positions_of(&self.sel).map(|p| [Rid::new(table, p)]);
            out.extend_columns(got.cols, &self.cols, pick, rids);
            // Scattered fetches pay the random-read multiplier per page
            // transition — the runtime mirror of the model's Cardenas term.
            ctx.charge(
                chunk.len() as f64 * ctx.model.index_fetch_row
                    + new_pages as f64 * ctx.model.page_io * ctx.model.seq_vs_random,
            );
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecCtx) {
        self.fetcher = None;
        self.positions.clear();
    }
}

/// Scan of a temporary materialized view (an intermediate result from a
/// previous execution step, §2.3). Lineage is restored from the harvest so
/// deferred compensation keeps working across re-optimizations.
pub struct MvScanOp {
    table: Arc<Table>,
    lineage: Option<Lineage>,
    /// Every column of the MV, in order.
    cols: Vec<usize>,
    cursor: Option<TableCursor>,
}

impl MvScanOp {
    /// Create an MV scan.
    pub fn new(table: Arc<Table>, lineage: Option<Lineage>) -> Self {
        MvScanOp {
            cols: (0..table.schema().len()).collect(),
            table,
            lineage,
            cursor: None,
        }
    }
}

impl Operator for MvScanOp {
    fn open(&mut self, _ctx: &mut ExecCtx) -> OpResult<()> {
        self.cursor = Some(self.table.cursor(0, u64::MAX)?);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        ctx.fault_storage_read(self.table.name())?;
        let cursor = self
            .cursor
            .as_mut()
            .ok_or_else(|| super::protocol_err("MV scan next_batch() before open()"))?;
        let Some(chunk) = cursor.next_chunk(ctx.batch_size)? else {
            return Ok(None);
        };
        let n = chunk.rows.len();
        ctx.charge(n as f64 * ctx.model.temp_read_row + chunk.new_pages as f64 * ctx.model.page_io);
        let mut out = RowBatch::with_capacity(n);
        let lineage = (chunk.start as usize..)
            .take(n)
            .map(|pos| self.lineage.as_ref().map_or(&[] as &[Rid], |l| l.row(pos)));
        out.extend_columns(chunk.cols, &self.cols, chunk.rows.clone(), lineage);
        Ok(Some(out))
    }

    fn close(&mut self, _ctx: &mut ExecCtx) {
        self.cursor = None;
    }

    fn materialized_count(&self) -> Option<u64> {
        Some(self.table.row_count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::drain;
    use pop_expr::{Expr, Params};
    use pop_plan::CostModel;
    use pop_storage::Catalog;
    use pop_types::{ColId, DataType, Schema, Value};

    fn ctx_and_table() -> (ExecCtx, Arc<Table>) {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
                (0..10).map(|i| vec![Value::Int(i), Value::Int(i % 3)]),
            )
            .unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        (ctx, t)
    }

    #[test]
    fn unfiltered_scan_returns_all_with_rids() {
        let (mut ctx, t) = ctx_and_table();
        let mut op = TableScanOp::new(t.clone(), None);
        let rows = drain(&mut op, &mut ctx);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3].1, vec![Rid::new(t.id(), 3)]);
        assert_eq!(ctx.work, 10.0 * ctx.model.seq_row);
        assert_eq!(ctx.rows_scanned, 10);
    }

    #[test]
    fn filtered_scan_charges_for_all_rows() {
        let (mut ctx, t) = ctx_and_table();
        let layout = vec![ColId::new(0, 0), ColId::new(0, 1)];
        let pred = BoundExpr::bind(&Expr::col(0, 1).eq(Expr::lit(0i64)), &layout).unwrap();
        let mut op = TableScanOp::new(t, Some(pred));
        let rows = drain(&mut op, &mut ctx);
        assert_eq!(rows.len(), 4); // b=0 for i in {0,3,6,9}
                                   // The scan still touches all 10 rows.
        assert_eq!(ctx.work, 10.0 * ctx.model.seq_row);
    }

    #[test]
    fn predicate_reads_a_column_the_output_drops() {
        let (mut ctx, t) = ctx_and_table();
        let schema = vec![ColId::new(0, 0), ColId::new(0, 1)];
        let pred = BoundExpr::bind(&Expr::col(0, 1).eq(Expr::lit(0i64)), &schema).unwrap();
        let mut op = TableScanOp::new(t, Some(pred)).with_columns(vec![0]);
        let rows = drain(&mut op, &mut ctx);
        let a: Vec<Vec<Value>> = rows.into_iter().map(|(r, _)| r).collect();
        assert_eq!(
            a,
            [0, 3, 6, 9].map(|i| vec![Value::Int(i)]),
            "b = 0 filters on the stored row; only column a is copied out"
        );
    }

    #[test]
    fn tiny_batches_return_same_rows() {
        let (mut ctx, t) = ctx_and_table();
        ctx.batch_size = 3;
        let mut op = TableScanOp::new(t.clone(), None);
        op.open(&mut ctx).unwrap();
        let mut sizes = Vec::new();
        let mut rows = Vec::new();
        while let Some(b) = op.next_batch(&mut ctx).unwrap() {
            sizes.push(b.live_count());
            rows.extend(b.live_indices().map(|i| b.lineage_at(i).to_vec()));
        }
        op.close(&mut ctx);
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[7], vec![Rid::new(t.id(), 7)]);
    }

    #[test]
    fn mv_scan_restores_lineage() {
        let (mut ctx, t) = ctx_and_table();
        let rids: Arc<[Rid]> = (0..10).map(|i| Rid::new(9, i)).collect();
        let mut op = MvScanOp::new(t, Some(Lineage::new(rids, 1)));
        op.open(&mut ctx).unwrap();
        assert_eq!(op.materialized_count(), Some(10));
        let b = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(b.lineage_at(0), &[Rid::new(9, 0)]);
    }
}

crate::operators::opaque_debug!(TableScanOp, IndexRangeScanOp, MvScanOp);
