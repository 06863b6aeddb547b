//! Side-effect and compensation operators: INSERT, RIDSINK and the
//! rid-side-table anti-join (Figure 9 of the paper).

use crate::operators::{lineage_key, Operator};
use crate::{EffectKey, ExecCtx, OpResult, RowBatch};
use pop_storage::Table;
use pop_types::PopError;
use std::sync::Arc;

/// Insert the input rows into a base table, exactly once per source row
/// across re-optimizations.
///
/// §2.3: "If the plan under CHECK performs a side-effect, the intermediate
/// results must always be matched and reused — otherwise the side-effect
/// would be applied twice." This engine enforces the same guarantee
/// mechanically: each source row's lineage is remembered in
/// [`ExecCtx::side_effects_applied`], and a re-execution skips rows whose
/// effect was already applied. A row without lineage (an aggregate's) is
/// remembered by its values.
pub struct InsertOp {
    input: Box<dyn Operator>,
    target: Arc<Table>,
}

impl InsertOp {
    /// Create an INSERT into `target`.
    pub fn new(input: Box<dyn Operator>, target: Arc<Table>) -> Self {
        InsertOp { input, target }
    }
}

impl Operator for InsertOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let Some(b) = self.input.next_batch(ctx)? else {
            return Ok(None);
        };
        let arity = self.target.schema().len();
        let mut keep = Vec::new();
        for i in b.live_indices() {
            let key = match b.lineage_at(i) {
                [] => EffectKey::Values(b.row_at(i)),
                lineage => EffectKey::Lineage(lineage_key(lineage)),
            };
            if ctx.side_effects_applied.contains(&key) {
                continue;
            }
            if b.width() != arity {
                return Err(PopError::Execution(format!(
                    "INSERT into {}: row arity {} != schema arity {arity}",
                    self.target.name(),
                    b.width(),
                ))
                .into());
            }
            ctx.charge(ctx.model.insert(1.0));
            ctx.side_effects_applied.insert(key);
            keep.push(i);
        }
        if !keep.is_empty() {
            let cols = b.gather_columns(0..arity, &keep.iter().copied());
            self.target
                .append(&cols, keep.len())
                .map_err(crate::ExecSignal::Error)?;
        }
        Ok(Some(b))
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
    }
}

/// Records the lineage of every row flowing to the application into the
/// rid side table `S` (the INSERT below RETURN in Figure 9). The actual
/// set lives in the driver-owned [`ExecCtx`]; this operator charges the
/// bookkeeping cost. The driver moves the recorded lineage into
/// [`ExecCtx::prev_returned`] when an execution step is cut short.
pub struct RidSinkOp {
    input: Box<dyn Operator>,
}

impl RidSinkOp {
    /// Create a rid sink.
    pub fn new(input: Box<dyn Operator>) -> Self {
        RidSinkOp { input }
    }
}

impl Operator for RidSinkOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let b = self.input.next_batch(ctx)?;
        if let Some(b) = &b {
            ctx.charge(ctx.model.rid_sink(b.live_count() as f64));
        }
        Ok(b)
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
    }
}

/// Anti-join against the rid side table: drops rows whose lineage was
/// already returned to the application by a previous execution step, so
/// re-optimized pipelined plans never emit duplicates (ECDC compensation,
/// Figure 9). Dropped rows simply leave the batch's selection vector.
pub struct AntiJoinRidsOp {
    input: Box<dyn Operator>,
}

impl AntiJoinRidsOp {
    /// Create the compensation anti-join.
    pub fn new(input: Box<dyn Operator>) -> Self {
        AntiJoinRidsOp { input }
    }
}

impl Operator for AntiJoinRidsOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        loop {
            let Some(mut b) = self.input.next_batch(ctx)? else {
                return Ok(None);
            };
            ctx.charge(ctx.model.anti_join(b.live_count() as f64));
            let prev = &ctx.prev_returned;
            b.retain_live(|b, i| !prev.contains(&lineage_key(b.lineage_at(i))));
            if b.live_count() > 0 {
                return Ok(Some(b));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{drain, TableScanOp};
    use pop_expr::Params;
    use pop_plan::CostModel;
    use pop_storage::Catalog;
    use pop_types::{DataType, Rid, Schema, Value};

    fn setup() -> (ExecCtx, Arc<Table>, Arc<Table>) {
        let cat = Catalog::new();
        let src = cat
            .create_table(
                "src",
                Schema::from_pairs(&[("a", DataType::Int)]),
                (0..5).map(|i| vec![Value::Int(i)]),
            )
            .unwrap();
        let sink = cat
            .create_table("sink", Schema::from_pairs(&[("a", DataType::Int)]), vec![])
            .unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        (ctx, src, sink)
    }

    #[test]
    fn insert_applies_rows_once() {
        let (mut ctx, src, sink) = setup();
        let mut op = InsertOp::new(Box::new(TableScanOp::new(src.clone(), None)), sink.clone());
        drain(&mut op, &mut ctx);
        assert_eq!(sink.row_count(), 5);
        // Re-running the same plan applies nothing new.
        let mut op2 = InsertOp::new(Box::new(TableScanOp::new(src, None)), sink.clone());
        drain(&mut op2, &mut ctx);
        assert_eq!(sink.row_count(), 5, "side effects must be exactly-once");
    }

    #[test]
    fn insert_arity_mismatch_errors() {
        let (mut ctx, src, _) = setup();
        let wide = ctx
            .catalog
            .create_table(
                "wide",
                Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
                vec![],
            )
            .unwrap();
        let mut op = InsertOp::new(Box::new(TableScanOp::new(src, None)), wide);
        op.open(&mut ctx).unwrap();
        assert!(op.next_batch(&mut ctx).is_err());
    }

    #[test]
    fn antijoin_drops_previously_returned() {
        let (mut ctx, src, _) = setup();
        // Rows 1 and 3 were returned in a previous step.
        ctx.prev_returned.insert(vec![Rid::new(src.id(), 1)]);
        ctx.prev_returned.insert(vec![Rid::new(src.id(), 3)]);
        let mut op = AntiJoinRidsOp::new(Box::new(TableScanOp::new(src, None)));
        let rows = drain(&mut op, &mut ctx);
        let vals: Vec<&Value> = rows.iter().map(|(r, _)| &r[0]).collect();
        assert_eq!(vals, vec![&Value::Int(0), &Value::Int(2), &Value::Int(4)]);
    }

    #[test]
    fn ridsink_passes_everything() {
        let (mut ctx, src, _) = setup();
        let mut op = RidSinkOp::new(Box::new(TableScanOp::new(src, None)));
        assert_eq!(drain(&mut op, &mut ctx).len(), 5);
    }

    #[test]
    fn lineage_key_is_order_insensitive() {
        let a = lineage_key(&[Rid::new(1, 5), Rid::new(0, 2)]);
        let b = lineage_key(&[Rid::new(0, 2), Rid::new(1, 5)]);
        assert_eq!(a, b);
    }
}

crate::operators::opaque_debug!(InsertOp, RidSinkOp, AntiJoinRidsOp);
