//! Base-table and materialized-view scans, batch-at-a-time.

use crate::operators::Operator;
use crate::{ExecCtx, OpResult, RowBatch};
use pop_expr::BoundExpr;
use pop_storage::{RowFetcher, Table, TableCursor};
use pop_types::Rid;
use std::sync::Arc;

/// Sequential scan with an optional pushed-down predicate. Each
/// `next_batch` call charges and filters one cursor chunk; the predicate
/// (bound against the table schema) runs over the stored rows of the whole
/// chunk via a selection vector, and only the output columns of passing
/// rows are copied out, each into its typed column vector. The cursor is asked for exactly those columns (the
/// `read_set`), so a paged table decodes nothing else. Chunk boundaries
/// and logical page touches are identical on either backend, so the charged
/// work is too.
pub struct TableScanOp {
    table: Arc<Table>,
    pred: Option<BoundExpr>,
    /// Table columns copied into the output, in layout order.
    cols: Vec<usize>,
    /// Active stride sampling (from [`ExecCtx::sample`], bound at `open`):
    /// read only rows at positions `0 (mod stride)`.
    sample_stride: Option<usize>,
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
            sample_stride: None,
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
/// Any other column of a stored row is unspecified and must not be read.
pub(crate) fn read_set(cols: &[usize], pred: Option<&BoundExpr>) -> Vec<usize> {
    let mut set = cols.to_vec();
    if let Some(p) = pred {
        p.for_each_col(&mut |c| set.push(c));
    }
    set
}

impl Operator for TableScanOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.sample_stride = match ctx.sample.as_ref() {
            Some(s) if s.table == self.table.name() => Some(s.stride.max(1)),
            _ => None,
        };
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
        if let Some(stride) = self.sample_stride {
            // Stride sample: fetch (and charge for) only every stride-th
            // row, row-at-a-time — the sample run's modeled work scales
            // with the sample, not the table.
            loop {
                let mut out = RowBatch::with_capacity(ctx.batch_size.max(1));
                let mut fetched = 0u64;
                let mut pages = 0u64;
                while cursor.remaining() > 0 && out.len() < ctx.batch_size.max(1) {
                    let p = cursor.position();
                    let Some(chunk) = cursor.next_chunk(1)? else {
                        break;
                    };
                    fetched += 1;
                    pages += chunk.new_pages;
                    let row = &chunk.rows[0];
                    let passes = match &self.pred {
                        Some(pr) => pr.passes(row, &ctx.params)?,
                        None => true,
                    };
                    if passes {
                        out.push_projected(row, &self.cols, &[Rid::new(self.table.id(), p)]);
                    }
                    cursor.seek(p + stride as u64);
                }
                ctx.charge(fetched as f64 * ctx.model.seq_row + pages as f64 * ctx.model.page_io);
                ctx.rows_scanned += fetched;
                if !out.is_empty() {
                    return Ok(Some(out));
                }
                if cursor.remaining() == 0 {
                    return Ok(None);
                }
            }
        }
        while let Some(chunk) = cursor.next_chunk(ctx.batch_size)? {
            let start = chunk.start;
            ctx.charge(
                chunk.rows.len() as f64 * ctx.model.seq_row
                    + chunk.new_pages as f64 * ctx.model.page_io,
            );
            ctx.rows_scanned += chunk.rows.len() as u64;
            let table = self.table.id();
            let rid = |i: usize| [Rid::new(table, start + i as u64)];
            let out = match &self.pred {
                None => {
                    let mut out = RowBatch::with_capacity(chunk.rows.len());
                    out.extend_stored(chunk.rows, 0..chunk.rows.len(), &self.cols, rid);
                    out
                }
                Some(p) => {
                    self.sel.clear();
                    self.sel.extend(0..chunk.rows.len() as u32);
                    p.filter_batch(chunk.rows, &ctx.params, &mut self.sel)?;
                    if self.sel.is_empty() {
                        continue; // whole chunk filtered out: keep scanning
                    }
                    let mut out = RowBatch::with_capacity(self.sel.len());
                    let pick = self.sel.iter().map(|i| *i as usize);
                    out.extend_stored(chunk.rows, pick, &self.cols, rid);
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
/// column lies in `[lo, hi]`, in index (ascending key) order, then applies
/// the residual predicate (bound against the table schema) to the stored
/// row and copies out the output columns — one batch of positions per
/// call.
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
            .as_ref()
            .ok_or_else(|| super::protocol_err("index range scan next_batch() before open()"))?;
        while self.pos < self.positions.len() {
            let end = (self.pos + ctx.batch_size.max(1)).min(self.positions.len());
            let chunk = &self.positions[self.pos..end];
            self.pos = end;
            ctx.rows_scanned += chunk.len() as u64;
            let mut out = RowBatch::with_capacity(chunk.len());
            let mut last_page = self.last_page;
            let mut new_pages = 0u64;
            let params = &ctx.params;
            fetcher.for_each(chunk, |p, row| {
                let pg = fetcher.page_of(p);
                if last_page != Some(pg) {
                    last_page = Some(pg);
                    new_pages += 1;
                }
                let passes = match &self.residual {
                    Some(r) => r.passes(row, params)?,
                    None => true,
                };
                if passes {
                    out.push_projected(row, &self.cols, &[Rid::new(self.table.id(), p)]);
                }
                Ok(true)
            })?;
            self.last_page = last_page;
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
    lineage: Option<Arc<Vec<Vec<Rid>>>>,
    /// Every column of the MV, in order.
    cols: Vec<usize>,
    cursor: Option<TableCursor>,
}

impl MvScanOp {
    /// Create an MV scan.
    pub fn new(table: Arc<Table>, lineage: Option<Arc<Vec<Vec<Rid>>>>) -> Self {
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
        ctx.charge(
            chunk.rows.len() as f64 * ctx.model.temp_read_row
                + chunk.new_pages as f64 * ctx.model.page_io,
        );
        let mut out = RowBatch::with_capacity(chunk.rows.len());
        let lineage = |i: usize| -> &[Rid] {
            self.lineage
                .as_ref()
                .and_then(|l| l.get(chunk.start as usize + i))
                .map_or(&[], Vec::as_slice)
        };
        out.extend_stored(chunk.rows, 0..chunk.rows.len(), &self.cols, lineage);
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
                (0..10)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                    .collect(),
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
    fn stride_sample_reads_every_kth_row() {
        let (mut ctx, t) = ctx_and_table();
        ctx.sample = Some(crate::SampleSpec {
            table: "t".into(),
            stride: 3,
        });
        let mut op = TableScanOp::new(t.clone(), None);
        let rows = drain(&mut op, &mut ctx);
        assert_eq!(rows.len(), 4); // positions 0, 3, 6, 9
        assert_eq!(rows[1].1, vec![Rid::new(t.id(), 3)]);
        assert_eq!(ctx.rows_scanned, 4);
        // Only the sampled rows are charged.
        assert_eq!(ctx.work, 4.0 * ctx.model.seq_row);
    }

    #[test]
    fn mv_scan_restores_lineage() {
        let (mut ctx, t) = ctx_and_table();
        let lineage = Arc::new((0..10).map(|i| vec![Rid::new(9, i)]).collect::<Vec<_>>());
        let mut op = MvScanOp::new(t, Some(lineage));
        op.open(&mut ctx).unwrap();
        assert_eq!(op.materialized_count(), Some(10));
        let b = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(b.lineage_at(0), &[Rid::new(9, 0)]);
    }
}

crate::operators::opaque_debug!(TableScanOp, IndexRangeScanOp, MvScanOp);
