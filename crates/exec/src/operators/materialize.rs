//! Materializing operators: SORT and TEMP — the paper's materialization
//! points, and the source of reusable intermediate results. Each buffers
//! its input in one grown [`RowBatch`] (SORT orders a `u32` permutation
//! over it by the typed key column, never the rows) and shares that
//! buffer with its harvest.

use crate::context::Harvest;
use crate::operators::{next_chunk, CostUnit, Operator};
use crate::{ExecCtx, OpResult, RowBatch};
use pop_plan::{CostModel, TableSet};
use std::sync::Arc;

/// Drain `input` into one flat buffer (behind an `Arc`, to be shared with
/// a harvest) — the one loop behind SORT, TEMP and the hash-join build —
/// charging each batch's rows at the cost unit `unit` and reserving each
/// batch's bytes against the governor (added to `reserved`, which the
/// caller releases).
pub(crate) fn materialize(
    input: &mut dyn Operator,
    unit: CostUnit,
    reserved: &mut u64,
    ctx: &mut ExecCtx,
) -> OpResult<Arc<RowBatch>> {
    let mut buf = RowBatch::new();
    while let Some(b) = input.next_batch(ctx)? {
        ctx.charge(unit(&ctx.model, b.live_count() as f64));
        let bytes = b.approx_bytes();
        *reserved += bytes;
        ctx.guard_reserve(bytes)?;
        ctx.guard_tick()?;
        buf.append(b);
    }
    Ok(Arc::new(buf))
}

/// Materializing sort. The entire input is consumed at `open`; the sorted
/// result is registered as a harvest of its table set (when given one)
/// for potential reuse after a CHECK failure, then re-emitted in batches.
pub struct SortOp {
    input: Box<dyn Operator>,
    key_pos: usize,
    desc: bool,
    harvest: Option<TableSet>,
    /// The input, in arrival order; `None` until `open`.
    buf: Option<Arc<RowBatch>>,
    /// Indices into `buf`, in sorted order.
    order: Arc<[u32]>,
    pos: usize,
    /// Resident bytes charged to the governor for the sort buffer.
    reserved: u64,
}

impl SortOp {
    /// Create a sort on the given layout position.
    pub fn new(
        input: Box<dyn Operator>,
        key_pos: usize,
        desc: bool,
        harvest: Option<TableSet>,
    ) -> Self {
        SortOp {
            input,
            key_pos,
            desc,
            harvest,
            buf: None,
            order: Arc::from([]),
            pos: 0,
            reserved: 0,
        }
    }
}

impl Operator for SortOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)?;
        self.pos = 0;
        // The sort is charged whole, once its input is in.
        let buf = materialize(self.input.as_mut(), |_, _| 0.0, &mut self.reserved, ctx)?;
        let mut order: Vec<u32> = (0..buf.len() as u32).collect();
        // Stable sort on the typed key column: chained sorts implement
        // multi-key ORDER BY.
        if !order.is_empty() {
            let key = buf.col(self.key_pos);
            order.sort_by(|a, b| key.cmp_rows(*a as usize, *b as usize));
        }
        if self.desc {
            order.reverse();
        }
        self.order = Arc::from(order);
        ctx.charge(ctx.model.sort_cost(buf.len() as f64));
        if let Some(tables) = self.harvest {
            let order = Some(Arc::clone(&self.order));
            ctx.harvests
                .push(Harvest::new(tables, Arc::clone(&buf), order));
        }
        self.buf = Some(buf);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let Some(buf) = &self.buf else {
            return Ok(None);
        };
        Ok(next_chunk(&mut self.pos, buf.len(), ctx)
            .map(|chunk| buf.copy_rows(self.order[chunk].iter().map(|i| *i as usize))))
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.buf = None;
        ctx.guard_release(self.reserved);
        self.reserved = 0;
    }

    fn materialized_count(&self) -> Option<u64> {
        self.buf.as_ref().map(|b| b.len() as u64)
    }
}

/// Explicit materialization (TEMP): buffers its input completely at
/// `open`, then streams it in batches. Introduced by LCEM placement on
/// NLJN outers, and usable as a blocking buffer anywhere.
pub struct TempOp {
    input: Box<dyn Operator>,
    harvest: Option<TableSet>,
    /// The input, in arrival order; `None` until `open`.
    buf: Option<Arc<RowBatch>>,
    pos: usize,
    /// Resident bytes charged to the governor for the TEMP buffer.
    reserved: u64,
}

impl TempOp {
    /// Create a TEMP, harvested as the materialization of `harvest`.
    pub fn new(input: Box<dyn Operator>, harvest: Option<TableSet>) -> Self {
        TempOp {
            input,
            harvest,
            buf: None,
            pos: 0,
            reserved: 0,
        }
    }
}

impl Operator for TempOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)?;
        self.pos = 0;
        let write = CostModel::temp_write;
        let buf = materialize(self.input.as_mut(), write, &mut self.reserved, ctx)?;
        if let Some(tables) = self.harvest {
            ctx.harvests
                .push(Harvest::new(tables, Arc::clone(&buf), None));
        }
        self.buf = Some(buf);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let Some(buf) = &self.buf else {
            return Ok(None);
        };
        let out = next_chunk(&mut self.pos, buf.len(), ctx).map(|chunk| buf.copy_rows(chunk));
        if let Some(b) = &out {
            ctx.charge(ctx.model.temp_read(b.live_count() as f64));
        }
        Ok(out)
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.buf = None;
        ctx.guard_release(self.reserved);
        self.reserved = 0;
    }

    fn materialized_count(&self) -> Option<u64> {
        self.buf.as_ref().map(|b| b.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::TableScanOp;
    use pop_expr::Params;
    use pop_plan::CostModel;
    use pop_storage::Catalog;
    use pop_types::{DataType, Schema, Value};

    fn ctx_and_scan() -> (ExecCtx, Box<dyn Operator>) {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::from_pairs(&[("a", DataType::Int)]),
                vec![
                    vec![Value::Int(3)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                ],
            )
            .unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        (ctx, Box::new(TableScanOp::new(t, None)))
    }

    fn drain_values(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Value> {
        let mut vals = Vec::new();
        while let Some(b) = op.next_batch(ctx).unwrap() {
            vals.extend(b.live_indices().map(|i| b.value(0, i)));
        }
        vals
    }

    #[test]
    fn sort_orders_rows() {
        let (mut ctx, scan) = ctx_and_scan();
        let mut op = SortOp::new(scan, 0, false, None);
        op.open(&mut ctx).unwrap();
        assert_eq!(op.materialized_count(), Some(3));
        let vals = drain_values(&mut op, &mut ctx);
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn sort_desc() {
        let (mut ctx, scan) = ctx_and_scan();
        let mut op = SortOp::new(scan, 0, true, None);
        op.open(&mut ctx).unwrap();
        let b = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(b.value(0, 0), Value::Int(3));
    }

    #[test]
    fn sort_emits_in_batches() {
        let (mut ctx, scan) = ctx_and_scan();
        ctx.batch_size = 2;
        let mut op = SortOp::new(scan, 0, false, None);
        op.open(&mut ctx).unwrap();
        let first = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(first.live_count(), 2);
        let second = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(second.live_count(), 1);
        assert!(op.next_batch(&mut ctx).unwrap().is_none());
    }

    #[test]
    fn temp_harvest_shares_the_buffer() {
        let (mut ctx, scan) = ctx_and_scan();
        let mut op = TempOp::new(scan, Some(TableSet::single(0)));
        op.open(&mut ctx).unwrap();
        assert_eq!(ctx.harvests.len(), 1);
        let h = &ctx.harvests[0];
        assert_eq!(h.tables, TableSet::single(0));
        assert_eq!(h.row_count(), 3);
        assert_eq!(op.materialized_count(), Some(3));
        // The harvest outlives the operator's own handle on the buffer.
        op.close(&mut ctx);
        let (cols, lineage) = ctx.harvests[0].columns();
        let lineage = lineage.expect("a scan's rows carry lineage");
        assert_eq!(cols.len(), 1);
        let values: Vec<Value> = (0..3).map(|i| cols[0].value(i)).collect();
        assert_eq!(values, [3, 1, 2].map(Value::Int));
        assert_eq!(lineage.row(1).len(), 1);
        assert!(lineage.row(3).is_empty());
        // Promotion moves the same rows out of the (now unshared) buffer.
        let (moved, moved_lineage) = ctx.harvests.pop().unwrap().into_columns();
        let moved_values: Vec<Value> = (0..3).map(|i| moved[0].value(i)).collect();
        assert_eq!(moved_values, values);
        assert_eq!(
            moved_lineage.expect("moved with the rows").row(1),
            lineage.row(1)
        );
    }

    #[test]
    fn temp_streams_after_materialization() {
        let (mut ctx, scan) = ctx_and_scan();
        let mut op = TempOp::new(scan, None);
        op.open(&mut ctx).unwrap();
        let n = drain_values(&mut op, &mut ctx).len();
        assert_eq!(n, 3);
        // write+read charged on top of the scan
        let expect = ctx.model.scan_cost(3.0, 0.0) + ctx.model.temp_cost(3.0);
        assert!((ctx.work - expect).abs() < 1e-9, "work={}", ctx.work);
    }

    /// `(key, tag)` rows with duplicate keys: a descending sort is the
    /// stable ascending sort reversed (equal keys come out in reverse
    /// input order), and the harvest reads the buffer in sorted order,
    /// its columns in the node's own order.
    #[test]
    fn sort_desc_is_the_reversed_stable_sort_and_harvests_in_sorted_order() {
        let cat = Catalog::new();
        let rows = [(2, "a"), (1, "b"), (2, "c"), (1, "d"), (3, "e")];
        let t = cat
            .create_table(
                "kt",
                Schema::from_pairs(&[("k", DataType::Int), ("t", DataType::Str)]),
                rows.iter()
                    .map(|(k, t)| vec![Value::Int(*k), Value::str(t)]),
            )
            .unwrap();
        for (desc, expect) in [(false, "bdace"), (true, "ecadb")] {
            for batch_size in [1, 2, 1024] {
                let mut ctx = ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
                ctx.batch_size = batch_size;
                let scan = Box::new(TableScanOp::new(t.clone(), None));
                let mut op = SortOp::new(scan, 0, desc, Some(TableSet::single(0)));
                op.open(&mut ctx).unwrap();
                let mut tags = String::new();
                while let Some(b) = op.next_batch(&mut ctx).unwrap() {
                    assert!(b.live_count() <= batch_size);
                    for i in b.live_indices() {
                        tags.push_str(b.value(1, i).as_str().unwrap());
                        assert_eq!(b.lineage_at(i).len(), 1);
                    }
                }
                assert_eq!(tags, expect, "desc={desc} @ {batch_size}");
                op.close(&mut ctx);
                let (cols, lineage) = ctx.harvests[0].columns();
                let lineage = lineage.expect("a scan's rows carry lineage");
                let harvested: String = (0..5)
                    .map(|i| cols[1].value(i).as_str().unwrap().to_string())
                    .collect();
                assert_eq!(harvested, expect, "harvest, desc={desc}");
                assert!((0..5).all(|i| cols[0].value(i).as_i64().is_some()));
                let pos = |tag: char| expect.find(tag).unwrap();
                assert_eq!(lineage.row(pos('a')), &[pop_types::Rid::new(t.id(), 0)]);
                assert_eq!(lineage.row(pos('e')), &[pop_types::Rid::new(t.id(), 4)]);
            }
        }
    }
}

crate::operators::opaque_debug!(SortOp, TempOp);
