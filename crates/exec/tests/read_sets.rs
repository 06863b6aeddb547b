//! The storage leaves name the columns they read (`read_set`), and a paged
//! table decodes nothing else: every other slot of a stored row is NULL
//! there. These tests run each leaf with a predicate on a column it does
//! *not* emit, on both backends, against a filter written out by hand — a
//! leaf that read outside its set, or left a predicate column out of it,
//! would see NULLs on pages and diverge.

use pop_exec::operators::{IndexRangeScanOp, NljnOp, SemiProbeOp, TableScanOp};
use pop_exec::{ExecCtx, JoinSide, Operator};
use pop_expr::{BoundExpr, Expr, Params};
use pop_plan::CostModel;
use pop_storage::{Catalog, IndexKind, StorageConfig, Table};
use pop_types::{ColId, DataType, Row, Schema, Value};
use std::sync::Arc;

const N: i64 = 600;

/// `t(k, grp, note, amount, flag, pad)`, one row per `k`.
fn t_row(k: i64) -> Row {
    vec![
        Value::Int(k),
        Value::Int(k % 7),
        Value::str(format!("n{}", k % 13)),
        Value::Float(k as f64 * 0.5),
        if k % 11 == 0 {
            Value::Null
        } else {
            Value::Bool(k % 3 == 0)
        },
        Value::str("padding-".repeat(1 + (k % 3) as usize)),
    ]
}

/// `u(k, w, tag, note)`: three rows per key `0..N/4`.
fn u_rows() -> Vec<Row> {
    (0..N / 4)
        .flat_map(|k| (0..3).map(move |j| (k, j)))
        .map(|(k, j)| {
            vec![
                Value::Int(k),
                Value::Int((k + j) % 7),
                Value::str(if (k + j) % 2 == 0 { "a-tag" } else { "b-tag" }),
                Value::str(format!("u{k}.{j}")),
            ]
        })
        .collect()
}

struct Fixture {
    ctx: ExecCtx,
    t: Arc<Table>,
    u: Arc<Table>,
}

/// The same two tables on the mem backend and on 512-byte pages behind a
/// four-frame pool.
fn fixtures() -> [Fixture; 2] {
    let paged = StorageConfig {
        page_size: 512,
        buffer_pool_bytes: 2048,
        ..StorageConfig::paged()
    };
    [StorageConfig::default(), paged].map(|config| {
        let cat = Catalog::with_storage(config);
        let t = cat
            .create_table(
                "t",
                Schema::from_pairs(&[
                    ("k", DataType::Int),
                    ("grp", DataType::Int),
                    ("note", DataType::Str),
                    ("amount", DataType::Float),
                    ("flag", DataType::Bool),
                    ("pad", DataType::Str),
                ]),
                (0..N).map(t_row),
            )
            .unwrap();
        let u = cat
            .create_table(
                "u",
                Schema::from_pairs(&[
                    ("k", DataType::Int),
                    ("w", DataType::Int),
                    ("tag", DataType::Str),
                    ("note", DataType::Str),
                ]),
                u_rows(),
            )
            .unwrap();
        // Sorted on t.k, hash on u.k: both built in memory through the
        // projected cursor on either backend.
        cat.create_index("t", "k", IndexKind::Sorted).unwrap();
        cat.create_index("u", "k", IndexKind::Hash).unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        Fixture { ctx, t, u }
    })
}

/// Bind `expr` (over query table 0) against `table`'s own schema.
fn bind(expr: &Expr, table: &Table) -> BoundExpr {
    let layout: Vec<ColId> = (0..table.schema().len())
        .map(|c| ColId::new(0, c))
        .collect();
    BoundExpr::bind(expr, &layout).unwrap()
}

fn drain(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Row> {
    op.open(ctx).unwrap();
    let mut out = Vec::new();
    while let Some(b) = op.next_batch(ctx).unwrap() {
        out.extend(b.live_indices().map(|i| b.row_at(i)));
    }
    op.close(ctx);
    out
}

/// Run `plan` on both backends at several batch sizes; rows and charged
/// work must agree with each other and the rows with `expect`.
fn check(name: &str, expect: &[Row], plan: impl Fn(&Fixture) -> Box<dyn Operator>) {
    assert!(!expect.is_empty(), "{name}: the case must select something");
    for batch_size in [1, 7, 64, 1024] {
        let mut works = Vec::new();
        let fixtures = fixtures();
        assert!(!fixtures[0].t.is_paged() && fixtures[1].t.is_paged());
        for mut f in fixtures {
            f.ctx.batch_size = batch_size;
            let rows = drain(plan(&f).as_mut(), &mut f.ctx);
            let backend = if f.t.is_paged() { "paged" } else { "mem" };
            assert_eq!(rows, expect, "{name} @ {batch_size} on {backend}");
            works.push(f.ctx.work.to_bits());
        }
        assert_eq!(works[0], works[1], "{name} @ {batch_size}: charged work");
    }
}

/// `grp = 3 AND note LIKE 'n1%'`, by hand.
fn scan_keeps(k: i64) -> bool {
    k % 7 == 3 && matches!(k % 13, 1 | 10 | 11 | 12)
}

fn scan_pred() -> Expr {
    Expr::col(0, 1)
        .eq(Expr::lit(3i64))
        .and(Expr::col(0, 2).like("n1%"))
}

/// Output columns `k, amount`: neither predicate column is emitted.
fn scan_out(k: i64) -> Row {
    vec![Value::Int(k), Value::Float(k as f64 * 0.5)]
}

#[test]
fn table_scan_filters_on_columns_it_does_not_emit() {
    let expect: Vec<Row> = (0..N).filter(|&k| scan_keeps(k)).map(scan_out).collect();
    check("scan", &expect, |f| {
        Box::new(
            TableScanOp::new(f.t.clone(), Some(bind(&scan_pred(), &f.t))).with_columns(vec![0, 3]),
        )
    });
}

#[test]
fn index_range_scan_applies_its_residual_to_a_column_it_does_not_emit() {
    // k in [100, 300] AND flag = true (NULL flags fail), emitting `note`.
    let expect: Vec<Row> = (100..=300)
        .filter(|k| k % 11 != 0 && k % 3 == 0)
        .map(|k| vec![Value::str(format!("n{}", k % 13))])
        .collect();
    check("index range scan", &expect, |f| {
        let index = f.ctx.catalog.find_index(f.t.id(), 0, true).unwrap();
        let residual = bind(&Expr::col(0, 4).eq(Expr::lit(true)), &f.t);
        Box::new(
            IndexRangeScanOp::new(
                f.t.clone(),
                index,
                Some(Value::Int(100)),
                Some(Value::Int(300)),
                Some(residual),
            )
            .with_columns(vec![2]),
        )
    });
}

#[test]
fn nljn_reads_predicate_and_residual_columns_it_does_not_emit() {
    // t ⋈ u on k, u.tag LIKE 'a%' (inner_pred), t.grp = u.w (residual),
    // emitting t.k, t.grp and u.note only.
    let expect: Vec<Row> = (0..N / 4)
        .flat_map(|k| (0..3).map(move |j| (k, j)))
        .filter(|(k, j)| (k + j) % 2 == 0 && (k + j) % 7 == k % 7)
        .map(|(k, j)| {
            vec![
                Value::Int(k),
                Value::Int(k % 7),
                Value::str(format!("u{k}.{j}")),
            ]
        })
        .collect();
    check("nljn", &expect, |f| {
        let outer = Box::new(TableScanOp::new(f.t.clone(), None).with_columns(vec![0, 1]));
        let index = f.ctx.catalog.find_index(f.u.id(), 0, false).unwrap();
        let inner_pred = bind(&Expr::col(0, 2).like("a%"), &f.u);
        // t's two columns, then u's tag.
        let cols = vec![
            (JoinSide::Left, 0),
            (JoinSide::Left, 1),
            (JoinSide::Right, 3),
        ];
        Box::new(NljnOp::new(
            outer,
            0,
            f.u.clone(),
            index,
            Some(inner_pred),
            vec![(1, 1)],
            cols,
        ))
    });
}

#[test]
fn semi_probe_reads_only_its_predicate_columns() {
    // EXISTS (u.k = t.k AND u.w > 4 AND u.tag = 'b-tag'), and its negation.
    let exists = |k: i64| {
        k < N / 4
            && (0..3).any(|j| {
                let s = k + j;
                s % 7 > 4 && s % 2 == 1
            })
    };
    for negated in [false, true] {
        let expect: Vec<Row> = (0..N)
            .filter(|&k| exists(k) != negated)
            .map(|k| vec![Value::Int(k)])
            .collect();
        check(&format!("semi probe negated={negated}"), &expect, |f| {
            let input = Box::new(TableScanOp::new(f.t.clone(), None).with_columns(vec![0]));
            let index = f.ctx.catalog.find_index(f.u.id(), 0, false).unwrap();
            let pred = Expr::col(0, 1)
                .gt(Expr::lit(4i64))
                .and(Expr::col(0, 2).eq(Expr::lit("b-tag")));
            Box::new(SemiProbeOp::new(
                input,
                0,
                f.u.clone(),
                index,
                Some(bind(&pred, &f.u)),
                negated,
            ))
        });
    }
}
