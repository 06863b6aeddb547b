//! Hash aggregation and projection.

use crate::operators::key::{group_hash, ChainIndex, NIL};
use crate::operators::{next_chunk, Operator};
use crate::{ExecCtx, OpResult, RowBatch};
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

    /// The aggregate's value (MIN/MAX move theirs out).
    fn finish(&mut self) -> Value {
        match *self {
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
            AggState::Min(ref mut m) | AggState::Max(ref mut m) => m.take().unwrap_or(Value::Null),
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
///
/// Groups are dense ids in first-seen order: group `g` owns
/// `keys[g*k..(g+1)*k]` and `states[g*a..(g+1)*a]` of two flat buffers
/// (`k` key columns, `a` aggregates), found through a [`ChainIndex`] by
/// comparing an input row's key columns against the stored key in place.
pub struct HashAggOp {
    input: Box<dyn Operator>,
    key_pos: Vec<usize>,
    aggs: Vec<AggKind>,
    keys: Vec<Value>,
    states: Vec<AggState>,
    /// Group ids sorted by key; emitted from `pos` on.
    order: Vec<u32>,
    pos: usize,
    /// Resident bytes charged to the governor for the group table.
    reserved: u64,
}

impl HashAggOp {
    /// Create an aggregation over the given key positions.
    pub fn new(input: Box<dyn Operator>, key_pos: Vec<usize>, aggs: Vec<AggKind>) -> Self {
        HashAggOp {
            input,
            key_pos,
            aggs,
            keys: Vec::new(),
            states: Vec::new(),
            order: Vec::new(),
            pos: 0,
            reserved: 0,
        }
    }
}

impl Operator for HashAggOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)?;
        let (k, a) = (self.key_pos.len(), self.aggs.len());
        let group_bytes = k * std::mem::size_of::<Value>() + a * std::mem::size_of::<AggState>();
        let (keys, states) = (&mut self.keys, &mut self.states);
        keys.clear();
        states.clear();
        let mut index = ChainIndex::build(0, 0, |_| None);
        let mut groups = 0usize;
        while let Some(b) = self.input.next_batch(ctx)? {
            ctx.charge(b.live_count() as f64 * ctx.model.agg_row);
            ctx.guard_tick()?;
            let seen = groups;
            for i in b.live_indices() {
                let row = b.values_at(i);
                let hash = group_hash(self.key_pos.iter().map(|p| &row[*p]));
                let mut g = index.first(hash);
                while g != NIL
                    && !(keys[g as usize * k..][..k].iter())
                        .zip(&self.key_pos)
                        .all(|(key, p)| *key == row[*p])
                {
                    g = index.next_of(g);
                }
                if g == NIL {
                    g = groups as u32;
                    groups += 1;
                    keys.extend(self.key_pos.iter().map(|p| row[*p].clone()));
                    states.extend(self.aggs.iter().map(|kind| AggState::new(*kind)));
                    index.push(hash, |g| group_hash(keys[g * k..][..k].iter()));
                }
                for (state, kind) in states[g as usize * a..][..a].iter_mut().zip(&self.aggs) {
                    state.update(*kind, row)?;
                }
            }
            let bytes = ((groups - seen) * group_bytes) as u64;
            self.reserved += bytes;
            ctx.guard_reserve(bytes)?;
        }
        // Scalar aggregate over an empty input still yields one row.
        if groups == 0 && k == 0 {
            states.extend(self.aggs.iter().map(|kind| AggState::new(*kind)));
            groups = 1;
        }
        self.order = (0..groups as u32).collect();
        self.order
            .sort_by(|x, y| keys[*x as usize * k..][..k].cmp(&keys[*y as usize * k..][..k]));
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let Some(chunk) = next_chunk(&mut self.pos, self.order.len(), ctx) else {
            return Ok(None);
        };
        let (k, a) = (self.key_pos.len(), self.aggs.len());
        let mut out = RowBatch::with_capacity(chunk.len());
        for g in &self.order[chunk] {
            // Each group is emitted once: move its key and values out.
            let key = self.keys[*g as usize * k..][..k]
                .iter_mut()
                .map(|v| std::mem::replace(v, Value::Null));
            let aggs = self.states[*g as usize * a..][..a]
                .iter_mut()
                .map(AggState::finish);
            out.push_derived(k + a, key.chain(aggs));
        }
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.keys.clear();
        self.states.clear();
        self.order.clear();
        ctx.guard_release(self.reserved);
        self.reserved = 0;
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

    /// Group-key semantics of the flat group table, at batch sizes
    /// 1 / 7 / 1024: NULL is a key value (one group per distinct
    /// NULL-bearing key, apart from every non-NULL key), numerics of
    /// equal value share a group under its first-seen key, and enough
    /// distinct keys to grow the index several times all stay apart.
    #[test]
    fn group_key_table() {
        let mut rows = vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(0), Value::Int(2)],
            vec![Value::Int(3), Value::Int(3)],
            vec![Value::Float(3.0), Value::Int(4)],
            vec![Value::Null, Value::Int(5)],
            vec![Value::Date(3), Value::Int(6)],
        ];
        rows.extend((10..400).map(|i| vec![Value::Int(i), Value::Int(i)]));
        for batch_size in [1, 7, 1024] {
            let (mut ctx, scan) = setup(rows.clone());
            ctx.batch_size = batch_size;
            let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count, AggKind::Sum(1)]);
            let out = drain(&mut op, &mut ctx);
            assert_eq!(out.len(), 3 + 390, "@ {batch_size}");
            assert_eq!(out[0], vec![Value::Null, Value::Int(2), Value::Int(6)]);
            assert_eq!(out[1], vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
            assert_eq!(out[2], vec![Value::Int(3), Value::Int(3), Value::Int(13)]);
            assert!(matches!(out[2][0], Value::Int(_)), "first-seen key kept");
            assert!(out[3..].iter().all(|r| r[1] == Value::Int(1)));
            // Both key columns: (NULL, x) groups differ by x.
            let (mut ctx, scan) = setup(rows[..6].to_vec());
            ctx.batch_size = batch_size;
            let mut op = HashAggOp::new(scan, vec![0, 1], vec![AggKind::Count]);
            assert_eq!(drain(&mut op, &mut ctx).len(), 6);
            // No key column: one group over everything.
            let (mut ctx, scan) = setup(rows.clone());
            ctx.batch_size = batch_size;
            let mut op = HashAggOp::new(scan, vec![], vec![AggKind::Count]);
            assert_eq!(drain(&mut op, &mut ctx), vec![vec![Value::Int(396)]]);
        }
    }

    /// The group table is resident operator state: it is charged to the
    /// byte budget as groups appear and given back on `close`.
    #[test]
    fn group_table_is_charged_to_the_byte_budget() {
        use pop_guard::{Budget, Governor};
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i), Value::Int(1)])
            .collect();
        let group_bytes = (std::mem::size_of::<Value>() + std::mem::size_of::<AggState>()) as u64;
        let budget = |max| Budget {
            max_resident_bytes: Some(max),
            ..Budget::unlimited()
        };
        let (mut ctx, scan) = setup(rows.clone());
        ctx.guard = Governor::new(budget(500 * group_bytes), None);
        let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count]);
        assert_eq!(drain(&mut op, &mut ctx).len(), 500);
        assert_eq!(ctx.guard.peak_resident_bytes(), 500 * group_bytes);
        // Released: the same budget admits the same aggregate again.
        let t = ctx.catalog.table("t").unwrap();
        let mut op = HashAggOp::new(
            Box::new(TableScanOp::new(t, None)),
            vec![0],
            vec![AggKind::Count],
        );
        assert_eq!(drain(&mut op, &mut ctx).len(), 500);

        let (mut ctx, scan) = setup(rows);
        ctx.guard = Governor::new(budget(100 * group_bytes), None);
        let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count]);
        match op.open(&mut ctx) {
            Err(crate::ExecSignal::Error(pop_types::PopError::BudgetExceeded(msg))) => {
                assert!(msg.contains("resident"), "{msg}");
            }
            other => panic!("expected BudgetExceeded, got {:?}", other.err()),
        }
        op.close(&mut ctx);
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
