//! Hash aggregation and projection.

use crate::operators::key::{fill_key, KeyMap};
use crate::operators::{emit_chunk, Operator};
use crate::{ExecCtx, ExecRow, OpResult, RowBatch};
use pop_types::Value;

/// An aggregate to compute, with its argument resolved to a layout
/// position (`None` for COUNT(*)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// COUNT(*)
    Count,
    /// SUM(pos)
    Sum(usize),
    /// MIN(pos)
    Min(usize),
    /// MAX(pos)
    Max(usize),
    /// AVG(pos)
    Avg(usize),
}

#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum { sum: f64, all_int: bool, any: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl AggState {
    fn new(kind: AggKind) -> AggState {
        match kind {
            AggKind::Count => AggState::Count(0),
            AggKind::Sum(_) => AggState::Sum {
                sum: 0.0,
                all_int: true,
                any: false,
            },
            AggKind::Min(_) => AggState::Min(None),
            AggKind::Max(_) => AggState::Max(None),
            AggKind::Avg(_) => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, kind: AggKind, row: &[Value]) -> OpResult<()> {
        match (self, kind) {
            (AggState::Count(n), AggKind::Count) => *n += 1,
            (AggState::Sum { sum, all_int, any }, AggKind::Sum(pos)) => {
                let v = &row[pos];
                if v.is_null() {
                    return Ok(());
                }
                if !matches!(v, Value::Int(_)) {
                    *all_int = false;
                }
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *any = true;
                }
            }
            (AggState::Min(m), AggKind::Min(pos)) => {
                let v = &row[pos];
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            (AggState::Max(m), AggKind::Max(pos)) => {
                let v = &row[pos];
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            (AggState::Avg { sum, n }, AggKind::Avg(pos)) => {
                let v = &row[pos];
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                }
            }
            _ => {
                return Err(super::protocol_err(
                    "aggregate state does not match its kind",
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { sum, all_int, any } => {
                if !any {
                    Value::Null
                } else if all_int && sum.fract() == 0.0 && sum.abs() < 9e15 {
                    Value::Int(sum as i64)
                } else {
                    Value::Float(sum)
                }
            }
            AggState::Min(m) => m.unwrap_or(Value::Null),
            AggState::Max(m) => m.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// Hash aggregation: consumes the input at `open` batch by batch, emits
/// one row per group (group key columns followed by aggregate values),
/// **sorted by group key** for deterministic output.
pub struct HashAggOp {
    input: Box<dyn Operator>,
    key_pos: Vec<usize>,
    aggs: Vec<AggKind>,
    out: Vec<ExecRow>,
    pos: usize,
}

impl HashAggOp {
    /// Create an aggregation over the given key positions.
    pub fn new(input: Box<dyn Operator>, key_pos: Vec<usize>, aggs: Vec<AggKind>) -> Self {
        HashAggOp {
            input,
            key_pos,
            aggs,
            out: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for HashAggOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)?;
        let mut groups: KeyMap<Vec<AggState>> = KeyMap::default();
        // Group-key scratch: a row of an existing group is looked up by
        // slice; only a new group allocates its key.
        let mut key = Vec::with_capacity(self.key_pos.len());
        let mut saw_any = false;
        while let Some(b) = self.input.next_batch(ctx)? {
            ctx.charge(b.live_count() as f64 * ctx.model.agg_row);
            ctx.guard_tick()?;
            for i in b.live_indices() {
                saw_any = true;
                let row = b.values_at(i);
                fill_key(&mut key, row, &self.key_pos);
                let update = |states: &mut [AggState]| {
                    states
                        .iter_mut()
                        .zip(&self.aggs)
                        .try_for_each(|(state, kind)| state.update(*kind, row))
                };
                if let Some(states) = groups.get_mut(key.as_slice()) {
                    update(states)?;
                } else {
                    let mut fresh: Vec<AggState> =
                        self.aggs.iter().map(|a| AggState::new(*a)).collect();
                    update(&mut fresh)?;
                    groups.insert(key.clone(), fresh);
                }
            }
        }
        // Scalar aggregate over an empty input still yields one row.
        if groups.is_empty() && self.key_pos.is_empty() && !saw_any {
            groups.insert(
                Vec::new(),
                self.aggs.iter().map(|a| AggState::new(*a)).collect(),
            );
        }
        let mut rows: Vec<(Vec<Value>, Vec<AggState>)> = groups.into_iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        self.out = rows
            .into_iter()
            .map(|(mut key, states)| {
                key.extend(states.into_iter().map(AggState::finish));
                ExecRow::derived(key)
            })
            .collect();
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        Ok(emit_chunk(&self.out, &mut self.pos, ctx))
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.out.clear();
    }
}

/// HAVING filter: conjunctive positional predicates over the aggregate
/// output row, applied batch-wise through the selection vector.
pub struct HavingOp {
    input: Box<dyn Operator>,
    preds: Vec<pop_plan::HavingPred>,
}

impl HavingOp {
    /// Create a HAVING filter.
    pub fn new(input: Box<dyn Operator>, preds: Vec<pop_plan::HavingPred>) -> Self {
        HavingOp { input, preds }
    }
}

impl Operator for HavingOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        loop {
            let Some(mut b) = self.input.next_batch(ctx)? else {
                return Ok(None);
            };
            b.retain_live(|values, _| {
                self.preds
                    .iter()
                    .all(|p| match values[p.pos].sql_cmp(&p.value) {
                        None => false,
                        Some(ord) => match p.op {
                            pop_expr::CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                            pop_expr::CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                            pop_expr::CmpOp::Lt => ord == std::cmp::Ordering::Less,
                            pop_expr::CmpOp::Le => ord != std::cmp::Ordering::Greater,
                            pop_expr::CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                            pop_expr::CmpOp::Ge => ord != std::cmp::Ordering::Less,
                        },
                    })
            });
            if b.live_count() > 0 {
                return Ok(Some(b));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
    }
}

/// LIMIT: stops pulling from the input after `n` rows, truncating the
/// batch that crosses the limit.
pub struct LimitOp {
    input: Box<dyn Operator>,
    n: usize,
    emitted: usize,
}

impl LimitOp {
    /// Create a LIMIT.
    pub fn new(input: Box<dyn Operator>, n: usize) -> Self {
        LimitOp {
            input,
            n,
            emitted: 0,
        }
    }
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.emitted = 0;
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.input.next_batch(ctx)? {
            None => Ok(None),
            Some(mut b) => {
                b.truncate_live(self.n - self.emitted);
                self.emitted += b.live_count();
                if b.live_count() == 0 {
                    return Ok(None);
                }
                Ok(Some(b))
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
    }
}

/// Projection to a subset of layout positions. Lineage passes through.
pub struct ProjectOp {
    input: Box<dyn Operator>,
    positions: Vec<usize>,
}

impl ProjectOp {
    /// Create a projection.
    pub fn new(input: Box<dyn Operator>, positions: Vec<usize>) -> Self {
        ProjectOp { input, positions }
    }
}

impl Operator for ProjectOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        match self.input.next_batch(ctx)? {
            None => Ok(None),
            Some(b) => Ok(Some(b.project(&self.positions))),
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::TableScanOp;
    use pop_expr::Params;
    use pop_plan::CostModel;
    use pop_storage::Catalog;
    use pop_types::{DataType, Schema};

    fn setup(rows: Vec<Vec<Value>>) -> (ExecCtx, Box<dyn Operator>) {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]),
                rows,
            )
            .unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        (ctx, Box::new(TableScanOp::new(t, None)))
    }

    fn drain(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Vec<Value>> {
        op.open(ctx).unwrap();
        let mut out = Vec::new();
        while let Some(b) = op.next_batch(ctx).unwrap() {
            out.extend(b.into_rows().into_iter().map(|r| r.values));
        }
        op.close(ctx);
        out
    }

    #[test]
    fn group_by_with_all_aggregates() {
        let (mut ctx, scan) = setup(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(1), Value::Null],
        ]);
        let mut op = HashAggOp::new(
            scan,
            vec![0],
            vec![
                AggKind::Count,
                AggKind::Sum(1),
                AggKind::Min(1),
                AggKind::Max(1),
                AggKind::Avg(1),
            ],
        );
        let out = drain(&mut op, &mut ctx);
        assert_eq!(out.len(), 2);
        // group 1: count=3 (count(*) counts nulls), sum=30, min=10, max=20, avg=15
        assert_eq!(
            out[0],
            vec![
                Value::Int(1),
                Value::Int(3),
                Value::Int(30),
                Value::Int(10),
                Value::Int(20),
                Value::Float(15.0)
            ]
        );
        assert_eq!(
            out[1],
            vec![
                Value::Int(2),
                Value::Int(1),
                Value::Int(5),
                Value::Int(5),
                Value::Int(5),
                Value::Float(5.0)
            ]
        );
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let (mut ctx, scan) = setup(vec![]);
        let mut op = HashAggOp::new(scan, vec![], vec![AggKind::Count, AggKind::Sum(1)]);
        let out = drain(&mut op, &mut ctx);
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let (mut ctx, scan) = setup(vec![]);
        let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count]);
        let out = drain(&mut op, &mut ctx);
        assert!(out.is_empty());
    }

    #[test]
    fn output_sorted_by_group_key() {
        let (mut ctx, scan) = setup(vec![
            vec![Value::Int(5), Value::Int(1)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)],
        ]);
        let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count]);
        let out = drain(&mut op, &mut ctx);
        let keys: Vec<&Value> = out.iter().map(|r| &r[0]).collect();
        assert_eq!(keys, vec![&Value::Int(1), &Value::Int(3), &Value::Int(5)]);
    }

    #[test]
    fn project_reorders_and_drops() {
        let (mut ctx, scan) = setup(vec![vec![Value::Int(1), Value::Int(2)]]);
        let mut op = ProjectOp::new(scan, vec![1]);
        let out = drain(&mut op, &mut ctx);
        assert_eq!(out, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn limit_truncates_mid_batch() {
        let (mut ctx, scan) = setup(
            (0..10)
                .map(|i| vec![Value::Int(i), Value::Int(0)])
                .collect(),
        );
        ctx.batch_size = 4;
        let mut op = LimitOp::new(scan, 6);
        let out = drain(&mut op, &mut ctx);
        assert_eq!(out.len(), 6);
        assert_eq!(out[5][0], Value::Int(5));
    }

    #[test]
    fn float_sum_stays_float() {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "f",
                Schema::from_pairs(&[("x", DataType::Float)]),
                vec![vec![Value::Float(1.5)], vec![Value::Float(2.0)]],
            )
            .unwrap();
        let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        let mut op = HashAggOp::new(
            Box::new(TableScanOp::new(t, None)),
            vec![],
            vec![AggKind::Sum(0)],
        );
        let out = drain(&mut op, &mut ctx);
        assert_eq!(out, vec![vec![Value::Float(3.5)]]);
    }
}

crate::operators::opaque_debug!(HashAggOp, HavingOp, LimitOp, ProjectOp);
