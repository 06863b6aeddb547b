//! Index range scans as an access path: correctness, plan choice, and
//! interesting-order interaction with merge joins.

use pop::{PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};

fn db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "events",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("day", DataType::Date),
            ("kind", DataType::Int),
        ]),
        (0..20_000).map(|i| {
            vec![
                Value::Int(i),
                Value::Date((i % 1000) as i32),
                Value::Int(i % 7),
            ]
        }),
    )
    .unwrap();
    cat.create_table(
        "kinds",
        Schema::from_pairs(&[("kind", DataType::Int), ("label", DataType::Str)]),
        (0..7).map(|k| vec![Value::Int(k), Value::str(format!("k{k}"))]),
    )
    .unwrap();
    cat.create_index("events", "day", IndexKind::Sorted)
        .unwrap();
    cat.create_index("events", "id", IndexKind::Hash).unwrap();
    cat.create_index("kinds", "kind", IndexKind::Hash).unwrap();
    cat
}

fn range_query(lo: i32, hi: i32) -> pop::QuerySpec {
    let mut b = QueryBuilder::new();
    let e = b.table("events");
    let k = b.table("kinds");
    b.join(e, 2, k, 0);
    b.filter(
        e,
        Expr::col(e, 1).between(Expr::lit(Value::Date(lo)), Expr::lit(Value::Date(hi))),
    );
    b.project(&[(e, 0), (k, 1)]);
    b.build().unwrap()
}

#[test]
fn selective_range_uses_index_scan() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    // 3/1000 of the table: far below the random-vs-sequential breakeven.
    let plan = exec.explain(&range_query(10, 12), &Params::none()).unwrap();
    assert!(
        plan.contains("IXSCAN"),
        "expected an index range scan:\n{plan}"
    );
}

#[test]
fn wide_range_prefers_sequential_scan() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    // 90% of the table: sequential scan must win.
    let plan = exec.explain(&range_query(0, 899), &Params::none()).unwrap();
    assert!(
        !plan.contains("IXSCAN"),
        "wide range should not use the index:\n{plan}"
    );
}

#[test]
fn index_scan_and_table_scan_agree() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let mut no_index_cfg = PopConfig::default();
    // Force the sequential path by making random fetches prohibitive.
    no_index_cfg.cost_model.index_fetch_row = 1e9;
    let seq_exec = PopExecutor::new(db(), no_index_cfg).unwrap();
    for (lo, hi) in [(10, 12), (0, 0), (995, 1005), (500, 600)] {
        let q = range_query(lo, hi);
        let mut a = exec.run(&q, &Params::none()).unwrap().rows;
        let mut b = seq_exec.run(&q, &Params::none()).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "range [{lo},{hi}] diverged");
    }
}

#[test]
fn index_scan_output_is_sorted_by_indexed_column() {
    // The optimizer should know the range scan's order; verify the rows
    // really arrive sorted by `day` when we project it.
    let cat = db();
    let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let e = b.table("events");
    let k = b.table("kinds");
    b.join(e, 2, k, 0);
    b.filter(
        e,
        Expr::col(e, 1).between(Expr::lit(Value::Date(100)), Expr::lit(Value::Date(104))),
    );
    b.project(&[(e, 1), (e, 0)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 100); // 5 days x 20 events each
    for row in &res.rows {
        let d = row[0].as_f64().unwrap();
        assert!((100.0..=104.0).contains(&d));
    }
}

#[test]
fn strict_bounds_are_rechecked_by_residual() {
    // `day < 5` uses hi=5 as an inclusive superset bound; the residual
    // must exclude day == 5.
    let cat = db();
    let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let e = b.table("events");
    let k = b.table("kinds");
    b.join(e, 2, k, 0);
    b.filter(e, Expr::col(e, 1).lt(Expr::lit(Value::Date(5))));
    b.project(&[(e, 1)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 100); // days 0..=4, 20 each
    assert!(res.rows.iter().all(|r| r[0].as_f64().unwrap() < 5.0));
}
