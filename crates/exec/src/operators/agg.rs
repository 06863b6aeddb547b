//! Hash aggregation and projection.

use crate::operators::key::{hash_keys, key_order, ChainIndex, KeyShape, NIL};
use crate::operators::{next_chunk, Operator};
use crate::{ExecCtx, OpResult, RowBatch};
use pop_types::column::{Cell, Data};
use pop_types::Value;
use std::cmp::Ordering;

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

/// The running state of one aggregate, one slot per group.
#[derive(Debug)]
enum Acc {
    Count(Vec<i64>),
    /// Summed in `f64` in row order; the result is an `Int` when every
    /// summed value was one (and the sum is integral and exact).
    Sum {
        pos: usize,
        sum: Vec<f64>,
        all_int: Vec<bool>,
        any: Vec<bool>,
    },
    /// The best value so far (`Null` = none yet).
    Min {
        pos: usize,
        best: Vec<Value>,
    },
    Max {
        pos: usize,
        best: Vec<Value>,
    },
    Avg {
        pos: usize,
        sum: Vec<f64>,
        n: Vec<i64>,
    },
}

impl Acc {
    fn new(kind: AggKind) -> Acc {
        match kind {
            AggKind::Count => Acc::Count(Vec::new()),
            AggKind::Sum(pos) => Acc::Sum {
                pos,
                sum: Vec::new(),
                all_int: Vec::new(),
                any: Vec::new(),
            },
            AggKind::Min(pos) => Acc::Min {
                pos,
                best: Vec::new(),
            },
            AggKind::Max(pos) => Acc::Max {
                pos,
                best: Vec::new(),
            },
            AggKind::Avg(pos) => Acc::Avg {
                pos,
                sum: Vec::new(),
                n: Vec::new(),
            },
        }
    }

    /// Open a slot for a new group.
    fn push_group(&mut self) {
        match self {
            Acc::Count(n) => n.push(0),
            Acc::Sum {
                sum, all_int, any, ..
            } => {
                sum.push(0.0);
                all_int.push(true);
                any.push(false);
            }
            Acc::Min { best, .. } | Acc::Max { best, .. } => best.push(Value::Null),
            Acc::Avg { sum, n, .. } => {
                sum.push(0.0);
                n.push(0);
            }
        }
    }

    /// Bytes one group's slot holds.
    fn slot_bytes(&self) -> usize {
        match self {
            Acc::Count(_) => 8,
            Acc::Sum { .. } => 8 + 1 + 1,
            Acc::Min { .. } | Acc::Max { .. } => std::mem::size_of::<Value>(),
            Acc::Avg { .. } => 8 + 8,
        }
    }

    /// Fold the batch rows `rows` into the slots `gids` (parallel lists),
    /// in row order: one loop over the argument column, typed where the
    /// column is.
    fn update(&mut self, b: &RowBatch, rows: &[u32], gids: &[u32]) {
        let pairs = rows
            .iter()
            .zip(gids)
            .map(|(i, g)| (*i as usize, *g as usize));
        let better = if matches!(self, Acc::Min { .. }) {
            Ordering::Less
        } else {
            Ordering::Greater
        };
        match self {
            Acc::Count(n) => pairs.for_each(|(_, g)| n[g] += 1),
            Acc::Sum {
                pos,
                sum,
                all_int,
                any,
            } => {
                let col = b.col(*pos);
                match col.data() {
                    Data::Int(v) if !col.has_null_bitmap() => {
                        for (i, g) in pairs {
                            sum[g] += v[i] as f64;
                            any[g] = true;
                        }
                    }
                    Data::Float(v) if !col.has_null_bitmap() => {
                        for (i, g) in pairs {
                            sum[g] += v[i];
                            all_int[g] = false;
                            any[g] = true;
                        }
                    }
                    _ => {
                        for (i, g) in pairs {
                            let c = col.cell(i);
                            if c.is_null() {
                                continue;
                            }
                            if !matches!(c, Cell::Int(_)) {
                                all_int[g] = false;
                            }
                            if let Some(x) = c.as_f64() {
                                sum[g] += x;
                                any[g] = true;
                            }
                        }
                    }
                }
            }
            Acc::Min { pos, best } | Acc::Max { pos, best } => {
                let col = b.col(*pos);
                for (i, g) in pairs {
                    let c = col.cell(i);
                    if !c.is_null()
                        && (best[g].is_null() || c.cmp_total(Cell::of(&best[g])) == better)
                    {
                        best[g] = col.value(i);
                    }
                }
            }
            Acc::Avg { pos, sum, n } => {
                let col = b.col(*pos);
                match col.data() {
                    Data::Int(v) if !col.has_null_bitmap() => {
                        for (i, g) in pairs {
                            sum[g] += v[i] as f64;
                            n[g] += 1;
                        }
                    }
                    Data::Float(v) if !col.has_null_bitmap() => {
                        for (i, g) in pairs {
                            sum[g] += v[i];
                            n[g] += 1;
                        }
                    }
                    _ => {
                        for (i, g) in pairs {
                            if let Some(x) = col.cell(i).as_f64() {
                                sum[g] += x;
                                n[g] += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Group `g`'s aggregate value.
    fn finish(&self, g: usize) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n[g]),
            Acc::Sum {
                sum, all_int, any, ..
            } => {
                let s = sum[g];
                if !any[g] {
                    Value::Null
                } else if all_int[g] && s.fract() == 0.0 && s.abs() < 9e15 {
                    Value::Int(s as i64)
                } else {
                    Value::Float(s)
                }
            }
            Acc::Min { best, .. } | Acc::Max { best, .. } => best[g].clone(),
            Acc::Avg { sum, n, .. } => {
                if n[g] == 0 {
                    Value::Null
                } else {
                    Value::Float(sum[g] / n[g] as f64)
                }
            }
        }
    }
}

/// Hash aggregation: consumes the input at `open` batch by batch, emits
/// one row per group (group key columns followed by aggregate values),
/// **sorted by group key** for deterministic output.
///
/// Groups are dense ids in first-seen order: group `g`'s key is row `g` of
/// a key buffer (a [`RowBatch`] of typed key columns, holding each key as
/// first seen), its key hash entry `g` of a hash list, and its state slot
/// `g` of one typed array per aggregate. Each input batch is aggregated in
/// two phases: every live row's group id is resolved — its key columns
/// hashed a column at a time, its chain in a `ChainIndex` walked
/// comparing keys against the key buffer (in machine words where the
/// batch's `KeyShape` allows), a new group appended on a miss — and then
/// each aggregate folds the batch into its array in one loop, rows in
/// order. Growing the index re-threads the stored hashes; nothing is
/// hashed twice.
pub struct HashAggOp {
    input: Box<dyn Operator>,
    key_pos: Vec<usize>,
    aggs: Vec<AggKind>,
    keys: RowBatch,
    accs: Vec<Acc>,
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
            keys: RowBatch::new(),
            accs: Vec::new(),
            order: Vec::new(),
            pos: 0,
            reserved: 0,
        }
    }
}

impl Operator for HashAggOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)?;
        let k = self.key_pos.len();
        let (keys, accs) = (&mut self.keys, &mut self.accs);
        *keys = RowBatch::new();
        *accs = self.aggs.iter().map(|kind| Acc::new(*kind)).collect();
        let slot_bytes: usize = accs.iter().map(Acc::slot_bytes).sum();
        let key_cols: Vec<usize> = (0..k).collect();
        let mut index = ChainIndex::build(0, 0, |_| None);
        let (mut rows, mut gids, mut hashes, mut nulls, mut group_hashes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        while let Some(b) = self.input.next_batch(ctx)? {
            ctx.charge(ctx.model.agg_cost(b.live_count() as f64));
            ctx.guard_tick()?;
            // Phase 1: every live row's group id.
            rows.clear();
            rows.extend(b.live_indices().map(|i| i as u32));
            hash_keys(&b, &self.key_pos, &mut hashes, &mut nulls);
            gids.clear();
            // Groups added from this batch keep the key buffer's shape;
            // an empty buffer takes its first group's. A new group may
            // move the key vectors, so the compare is bound again after it.
            let shape_of = |keys: &RowBatch| KeyShape::of(keys, &key_cols, &b, &self.key_pos);
            let mut shape = (!keys.is_empty()).then(|| shape_of(keys));
            let mut eq = shape.map(|s| s.bind(keys, &key_cols, &b, &self.key_pos));
            for (i, h) in rows.iter().zip(&hashes) {
                let i = *i as usize;
                let mut g = index.first(*h);
                if let Some(eq) = &eq {
                    while g != NIL && !eq.eq(g as usize, i) {
                        g = index.next_of(g);
                    }
                }
                if g == NIL {
                    g = keys.len() as u32;
                    keys.push_cols_from(&b, i, &self.key_pos);
                    accs.iter_mut().for_each(Acc::push_group);
                    index.push(*h, &group_hashes);
                    group_hashes.push(*h);
                    let s = *shape.get_or_insert_with(|| shape_of(keys));
                    eq = Some(s.bind(keys, &key_cols, &b, &self.key_pos));
                }
                gids.push(g);
            }
            // Phase 2: each aggregate over the whole batch.
            for acc in accs.iter_mut() {
                acc.update(&b, &rows, &gids);
            }
            let held = keys.approx_bytes() + (keys.len() * slot_bytes) as u64;
            let bytes = held.saturating_sub(self.reserved);
            self.reserved += bytes;
            ctx.guard_reserve(bytes)?;
            ctx.recycle(b);
        }
        // Scalar aggregate over an empty input still yields one row.
        if keys.is_empty() && k == 0 {
            keys.push_row(&[], &[]);
            accs.iter_mut().for_each(Acc::push_group);
        }
        self.order = key_order(keys, k);
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let Some(chunk) = next_chunk(&mut self.pos, self.order.len(), ctx) else {
            return Ok(None);
        };
        let groups = &self.order[chunk];
        let mut out = self.keys.copy_rows(groups.iter().map(|g| *g as usize));
        for acc in &self.accs {
            out.push_column(groups.iter().map(|g| acc.finish(*g as usize)));
        }
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.keys = RowBatch::new();
        self.accs.clear();
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
            // One column per predicate, each over the rows the earlier
            // ones kept.
            for p in &self.preds {
                let value = Cell::of(&p.value);
                b.retain_live(|b, i| match b.cell(p.pos, i).sql_cmp(value) {
                    None => false,
                    Some(ord) => match p.op {
                        pop_expr::CmpOp::Eq => ord == Ordering::Equal,
                        pop_expr::CmpOp::Ne => ord != Ordering::Equal,
                        pop_expr::CmpOp::Lt => ord == Ordering::Less,
                        pop_expr::CmpOp::Le => ord != Ordering::Greater,
                        pop_expr::CmpOp::Gt => ord == Ordering::Greater,
                        pop_expr::CmpOp::Ge => ord != Ordering::Less,
                    },
                });
            }
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
        crate::operators::drain(op, ctx)
            .into_iter()
            .map(|(r, _)| r)
            .collect()
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

    /// Group-key semantics of the group table, at batch sizes 1 / 7 /
    /// 1024: NULL is a key value (one group per distinct NULL-bearing key,
    /// apart from every non-NULL key, in either position of a two-column
    /// key), numerics of equal value share a group under its first-seen
    /// key, `-0.0` and `0.0` do not, NaN groups with NaN, strings sharing
    /// a prefix stay apart, a key column that turns mixed mid-stream keeps
    /// grouping by value, and enough distinct keys to grow the index
    /// several times all stay apart.
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
        let special = vec![
            vec![Value::Float(-0.0), Value::Int(1)],
            vec![Value::Float(0.0), Value::Int(2)],
            vec![Value::Int(0), Value::Int(4)],
            vec![Value::Float(f64::NAN), Value::Int(8)],
            vec![Value::Float(f64::NAN), Value::Int(16)],
            vec![Value::str("abcdefgh"), Value::Int(32)],
            vec![Value::str("abcdefghi"), Value::Int(64)],
            vec![Value::str("abcdefgh"), Value::Int(128)],
        ];
        let null_pairs: Vec<Vec<Value>> = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 0), (0, 1)]
            .iter()
            .map(|(a, b)| {
                let v = |x: i64| if x == 0 { Value::Null } else { Value::Int(x) };
                vec![v(*a), v(*b)]
            })
            .collect();
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

            let (mut ctx, scan) = setup(special.clone());
            ctx.batch_size = batch_size;
            let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count, AggKind::Sum(1)]);
            let out = drain(&mut op, &mut ctx);
            let groups: Vec<(Value, Value, Value)> = out
                .into_iter()
                .map(|r| (r[0].clone(), r[1].clone(), r[2].clone()))
                .collect();
            let want = [
                (Value::Float(-0.0), 1, 1),
                (Value::Float(0.0), 2, 6),
                (Value::Float(f64::NAN), 2, 24),
                (Value::str("abcdefgh"), 2, 160),
                (Value::str("abcdefghi"), 1, 64),
            ];
            assert_eq!(groups.len(), want.len(), "@ {batch_size}: {groups:?}");
            for ((key, n, sum), (wkey, wn, wsum)) in groups.iter().zip(&want) {
                assert_eq!(key.cmp_total(wkey), Ordering::Equal, "@ {batch_size}");
                assert!(
                    std::mem::discriminant(key) == std::mem::discriminant(wkey),
                    "first-seen key kept: {key:?}"
                );
                assert_eq!((n, sum), (&Value::Int(*wn), &Value::Int(*wsum)));
            }

            let (mut ctx, scan) = setup(null_pairs.clone());
            ctx.batch_size = batch_size;
            let mut op = HashAggOp::new(scan, vec![0, 1], vec![AggKind::Count]);
            let counts: Vec<Value> = drain(&mut op, &mut ctx)
                .into_iter()
                .map(|r| r[2].clone())
                .collect();
            assert_eq!(counts, [2, 2, 2, 1].map(Value::Int), "@ {batch_size}");
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
        // An `Int` key and a COUNT slot: 8 B each.
        let group_bytes = 16;
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

    /// An `Int`-keyed COUNT + SUM table of 10 000 groups is charged at
    /// its typed size — 8 B key, 8 B count, 10 B sum state — against the
    /// 880 000 B (24 B key value plus two 32 B states per group) the same
    /// table was charged as `Value`s.
    #[test]
    fn typed_group_table_is_charged_under_half_the_value_table() {
        use pop_guard::{Budget, Governor};
        const RECORDED_AS_VALUES: u64 = 880_000;
        let rows: Vec<Vec<Value>> = (0..10_000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect();
        let (mut ctx, scan) = setup(rows);
        ctx.guard = Governor::new(
            Budget {
                max_resident_bytes: Some(u64::MAX),
                ..Budget::unlimited()
            },
            None,
        );
        let mut op = HashAggOp::new(scan, vec![0], vec![AggKind::Count, AggKind::Sum(1)]);
        assert_eq!(drain(&mut op, &mut ctx).len(), 10_000);
        let peak = ctx.guard.peak_resident_bytes();
        assert_eq!(peak, 10_000 * (8 + 8 + 10));
        assert!(peak * 2 <= RECORDED_AS_VALUES, "{peak} B");
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
