//! Property-based tests for the execution operators: the three join
//! methods must agree with each other and with a nested-loop reference
//! implementation on arbitrary data, including duplicates and NULLs.

use pop_exec::operators::{AggKind, HashAggOp, HsjnOp, MgjnOp, NljnOp, SortOp, TableScanOp};
use pop_exec::{ExecCtx, JoinSide, Operator};
use pop_expr::Params;
use pop_plan::CostModel;
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Join output columns: the left positions `left`, then the right's.
fn side_by_side(left: &[usize], right: &[usize]) -> Vec<(JoinSide, usize)> {
    (left.iter().map(|p| (JoinSide::Left, *p)))
        .chain(right.iter().map(|p| (JoinSide::Right, *p)))
        .collect()
}

fn opt_int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// Build a catalog with two keyed tables from generated data.
fn setup(
    left: &[(Option<i64>, i64)],
    right: &[(Option<i64>, i64)],
) -> (ExecCtx, Arc<pop_storage::Table>, Arc<pop_storage::Table>) {
    let cat = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let l = cat
        .create_table(
            "l",
            schema.clone(),
            left.iter().map(|(k, v)| vec![opt_int(*k), Value::Int(*v)]),
        )
        .unwrap();
    let r = cat
        .create_table(
            "r",
            schema,
            right.iter().map(|(k, v)| vec![opt_int(*k), Value::Int(*v)]),
        )
        .unwrap();
    cat.create_index("r", "k", IndexKind::Hash).unwrap();
    let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
    (ctx, l, r)
}

fn drain_in_order(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Vec<Value>> {
    op.open(ctx).unwrap();
    let mut out = Vec::new();
    while let Some(b) = op.next_batch(ctx).unwrap() {
        assert!(b.live_count() <= ctx.batch_size);
        out.extend(b.live_indices().map(|i| b.row_at(i)));
    }
    op.close(ctx);
    out
}

fn drain(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Vec<Value>> {
    let mut out = drain_in_order(op, ctx);
    out.sort();
    out
}

/// Reference join: nested loops over the raw data.
fn reference_join(left: &[(Option<i64>, i64)], right: &[(Option<i64>, i64)]) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for (lk, lv) in left {
        for (rk, rv) in right {
            if let (Some(a), Some(b)) = (lk, rk) {
                if a == b {
                    out.push(vec![
                        Value::Int(*a),
                        Value::Int(*lv),
                        Value::Int(*b),
                        Value::Int(*rv),
                    ]);
                }
            }
        }
    }
    out.sort();
    out
}

fn arb_table() -> impl Strategy<Value = Vec<(Option<i64>, i64)>> {
    prop::collection::vec((prop::option::of(0i64..12), -100i64..100), 0..40)
}

/// A key value: NULL, or one of a few numbers spelled as `Int`, `Float`
/// (whole and fractional) or `Date`, so equal keys of different types and
/// duplicates are both common.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..5).prop_map(Value::Int),
        (0i64..10).prop_map(|i| Value::Float(i as f64 / 2.0)),
        (0i32..5).prop_map(Value::Date),
    ]
}

/// Rows `(k1, k2, x)`: a numeric-or-NULL key column, a string-or-NULL key
/// column and a nullable integer payload.
fn arb_keyed_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let k2 = prop_oneof![
        Just(Value::Null),
        Just(Value::str("a")),
        Just(Value::str("b"))
    ];
    let x = prop::option::of(-50i64..50).prop_map(opt_int);
    prop::collection::vec(
        (arb_key(), k2, x).prop_map(|(a, b, c)| vec![a, b, c]),
        0..60,
    )
}

fn keyed_scan(cat: &Catalog, name: &str, rows: &[Vec<Value>]) -> Box<dyn Operator> {
    let schema = Schema::from_pairs(&[
        ("k1", DataType::Float),
        ("k2", DataType::Str),
        ("x", DataType::Int),
    ]);
    let t = cat.create_table(name, schema, rows.to_vec()).unwrap();
    Box::new(TableScanOp::new(t, None))
}

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];

/// Key shapes for the typed-compare properties.
const ALL_INT: usize = 0;
const ALL_DATE: usize = 1;
const INT_VS_FLOAT: usize = 2;
const NULL_BEARING: usize = 3;

/// Key value `a` of `shape` on the build side (`probe == false`) or the
/// probe side: `Int`s, `Date`s, `Int`s against `Float`s (whole ones equal
/// to an `Int` key, halves equal to none), or `Int`s with NULLs.
fn shaped_key(shape: usize, probe: bool, a: i64, null: bool) -> Value {
    match shape {
        ALL_DATE => Value::Date(a as i32),
        INT_VS_FLOAT if probe && a % 2 == 1 => Value::Float(a as f64),
        INT_VS_FLOAT if probe => Value::Float(a as f64 + 0.5),
        NULL_BEARING if null => Value::Null,
        ALL_INT | INT_VS_FLOAT | NULL_BEARING => Value::Int(a),
        _ => unreachable!("shape {shape}"),
    }
}

/// Rows `(k1, k2, x)` of `shape` (`k2` is used when the key is two
/// columns wide; `x` numbers the rows from `base`).
fn shaped_rows(shape: usize, probe: bool, raw: &[(i64, i64, bool)], base: i64) -> Vec<Vec<Value>> {
    (raw.iter().zip(base..))
        .map(|(&(a, b, null), x)| {
            vec![
                shaped_key(shape, probe, a, null),
                shaped_key(shape, probe, b, null && a % 2 == 0),
                Value::Int(x),
            ]
        })
        .collect()
}

fn arb_raw_rows() -> impl Strategy<Value = Vec<(i64, i64, bool)>> {
    prop::collection::vec((0i64..6, 0i64..4, any::<bool>()), 0..60)
}

proptest! {
    /// The chained index + in-place key comparison against nested loops:
    /// two-column keys, NULL in either column never joins, numerics of
    /// equal value join across types, and the output comes in probe order
    /// with each probe row's matches in build order.
    #[test]
    fn hash_join_matches_nested_loop_oracle(
        build in arb_keyed_rows(),
        probe in arb_keyed_rows(),
        batch_idx in 0usize..3,
    ) {
        let mut expected = Vec::new();
        for p in &probe {
            for b in &build {
                let no_null = !(b[0].is_null() || b[1].is_null() || p[0].is_null() || p[1].is_null());
                if no_null && b[0] == p[0] && b[1] == p[1] {
                    expected.push([b.as_slice(), p.as_slice()].concat());
                }
            }
        }
        let cat = Catalog::new();
        let mut ctx = ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
        ctx.batch_size = BATCH_SIZES[batch_idx];
        let mut join = HsjnOp::new(
            keyed_scan(&cat, "b", &build),
            keyed_scan(&cat, "p", &probe),
            vec![0, 1],
            vec![0, 1],
            side_by_side(&[0, 1, 2], &[0, 1, 2]),
        );
        prop_assert_eq!(drain_in_order(&mut join, &mut ctx), expected);
    }

    /// The flat group table against a `BTreeMap` keyed by the same total
    /// order: NULL is a group key, numerics of equal value share a group,
    /// output is sorted by key.
    #[test]
    fn hash_aggregate_matches_btreemap_oracle(
        rows in arb_keyed_rows(),
        batch_idx in 0usize..3,
    ) {
        // key -> [count, sum of x, min x, max x], x over non-NULL values.
        let mut oracle: BTreeMap<Vec<Value>, [Option<i64>; 4]> = BTreeMap::new();
        for r in &rows {
            let [n, sum, min, max] = oracle.entry(r[..2].to_vec()).or_insert([Some(0), None, None, None]);
            *n = n.map(|n| n + 1);
            if let Some(x) = r[2].as_i64() {
                *sum = Some(sum.unwrap_or(0) + x);
                *min = Some(min.map_or(x, |m| m.min(x)));
                *max = Some(max.map_or(x, |m| m.max(x)));
            }
        }
        let expected: Vec<Vec<Value>> = oracle
            .into_iter()
            .map(|(mut key, aggs)| {
                key.extend(aggs.map(opt_int));
                key
            })
            .collect();
        let cat = Catalog::new();
        let mut ctx = ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
        ctx.batch_size = BATCH_SIZES[batch_idx];
        let mut agg = HashAggOp::new(
            keyed_scan(&cat, "t", &rows),
            vec![0, 1],
            vec![AggKind::Count, AggKind::Sum(2), AggKind::Min(2), AggKind::Max(2)],
        );
        prop_assert_eq!(drain_in_order(&mut agg, &mut ctx), expected);
    }

    #[test]
    fn all_join_methods_agree_with_reference(
        left in arb_table(),
        right in arb_table(),
        batch_idx in 0usize..4,
    ) {
        let batch_size = [1usize, 2, 7, 1024][batch_idx];
        let expected = reference_join(&left, &right);

        // NLJN (index probe).
        let (mut ctx, l, r) = setup(&left, &right);
        ctx.batch_size = batch_size;
        let idx = ctx.catalog.find_index(r.id(), 0, false).unwrap();
        let outer = Box::new(TableScanOp::new(l.clone(), None));
        let cols = || side_by_side(&[0, 1], &[0, 1]);
        let mut nljn = NljnOp::new(outer, 0, r.clone(), idx, None, vec![], cols());
        prop_assert_eq!(drain(&mut nljn, &mut ctx), expected.clone());

        // HSJN.
        let (mut ctx, l, r) = setup(&left, &right);
        ctx.batch_size = batch_size;
        let mut hsjn = HsjnOp::new(
            Box::new(TableScanOp::new(l.clone(), None)),
            Box::new(TableScanOp::new(r.clone(), None)),
            vec![0],
            vec![0],
            cols(),
        );
        prop_assert_eq!(drain(&mut hsjn, &mut ctx), expected.clone());

        // MGJN over sorted inputs.
        let (mut ctx, l, r) = setup(&left, &right);
        ctx.batch_size = batch_size;
        let sl = SortOp::new(Box::new(TableScanOp::new(l, None)), 0, false, None);
        let sr = SortOp::new(Box::new(TableScanOp::new(r, None)), 0, false, None);
        let mut mgjn = MgjnOp::new(Box::new(sl), Box::new(sr), 0, 0, cols());
        prop_assert_eq!(drain(&mut mgjn, &mut ctx), expected);
    }

    /// Sorting is stable and a permutation of its input.
    #[test]
    fn sort_is_a_stable_permutation(rows in arb_table()) {
        let (mut ctx, l, _r) = setup(&rows, &[]);
        let mut sort = SortOp::new(Box::new(TableScanOp::new(l, None)), 0, false, None);
        sort.open(&mut ctx).unwrap();
        let mut out = Vec::new();
        while let Some(b) = sort.next_batch(&mut ctx).unwrap() {
            out.extend(b.live_indices().map(|i| b.row_at(i)));
        }
        // Permutation check.
        let mut a: Vec<Vec<Value>> = rows
            .iter()
            .map(|(k, v)| vec![opt_int(*k), Value::Int(*v)])
            .collect();
        let mut b = out.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Sortedness on the key.
        for w in out.windows(2) {
            prop_assert!(w[0][0] <= w[1][0]);
        }
        // Stability: equal keys keep input order (v encodes input order
        // only when unique; check via positions of equal-key runs).
        let mut last_pos = std::collections::HashMap::<Value, usize>::default();
        let orig: Vec<Vec<Value>> = rows
            .iter()
            .map(|(k, v)| vec![opt_int(*k), Value::Int(*v)])
            .collect();
        for row in &out {
            let start = last_pos.get(&row[0]).copied().unwrap_or(0);
            let pos = orig
                .iter()
                .enumerate()
                .skip(start)
                .find(|(_, r)| *r == row)
                .map(|(i, _)| i);
            prop_assert!(pos.is_some(), "stability violated");
            last_pos.insert(row[0].clone(), pos.unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hash join and aggregate on all-`Int`, all-`Date`, `Int`-vs-`Float`
    /// and NULL-bearing keys of one or two columns (the aggregate's word
    /// compares and the `Cell` compares beside them) against nested loops
    /// and a `BTreeMap`: hash join output
    /// in probe order, each probe row's matches in build order; groups in
    /// key order, each under its first-seen key (compared by `Debug`, so an
    /// `Int` key is not a `Float` one).
    #[test]
    fn typed_key_compares_match_the_oracles(
        shape in 0usize..4,
        width in 1usize..3,
        build in arb_raw_rows(),
        probe in arb_raw_rows(),
        batch_idx in 0usize..3,
    ) {
        let build = shaped_rows(shape, false, &build, 0);
        let probe = shaped_rows(shape, true, &probe, 1000);
        let keys: Vec<usize> = (0..width).collect();
        let mut joined = Vec::new();
        for p in &probe {
            for b in &build {
                let no_null = keys.iter().all(|k| !b[*k].is_null() && !p[*k].is_null());
                if no_null && keys.iter().all(|k| b[*k] == p[*k]) {
                    joined.push([b.as_slice(), p.as_slice()].concat());
                }
            }
        }
        let cat = Catalog::new();
        let mut ctx = ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
        ctx.batch_size = BATCH_SIZES[batch_idx];
        let mut join = HsjnOp::new(
            keyed_scan(&cat, "b", &build),
            keyed_scan(&cat, "p", &probe),
            keys.clone(),
            keys.clone(),
            side_by_side(&[0, 1, 2], &[0, 1, 2]),
        );
        prop_assert_eq!(drain_in_order(&mut join, &mut ctx), joined);

        // Both sides through one aggregate: under INT_VS_FLOAT the key
        // column turns from `Int` to `Float` mid-stream.
        let rows: Vec<Vec<Value>> = build.iter().chain(&probe).cloned().collect();
        let mut oracle: BTreeMap<Vec<Value>, (i64, i64)> = BTreeMap::new();
        for r in &rows {
            let (n, sum) = oracle.entry(r[..width].to_vec()).or_insert((0, 0));
            *n += 1;
            *sum += r[2].as_i64().unwrap();
        }
        let grouped: Vec<Vec<Value>> = oracle
            .into_iter()
            .map(|(mut key, (n, sum))| {
                key.extend([Value::Int(n), Value::Int(sum)]);
                key
            })
            .collect();
        let mut agg = HashAggOp::new(
            keyed_scan(&cat, "t", &rows),
            keys,
            vec![AggKind::Count, AggKind::Sum(2)],
        );
        let got = drain_in_order(&mut agg, &mut ctx);
        prop_assert_eq!(format!("{got:?}"), format!("{grouped:?}"));
    }
}
