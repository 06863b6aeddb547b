//! HAVING and LIMIT semantics end-to-end.

use pop::{PopConfig, PopExecutor};
use pop_expr::{CmpOp, Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{ColId, DataType, Schema, Value};

fn db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "sales",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("grp", DataType::Int),
            ("amount", DataType::Int),
        ]),
        (0..10_000).map(|i| vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)]),
    )
    .unwrap();
    cat.create_table(
        "groups",
        Schema::from_pairs(&[("gid", DataType::Int), ("name", DataType::Str)]),
        (0..100).map(|g| vec![Value::Int(g), Value::str(format!("g{g}"))]),
    )
    .unwrap();
    cat.create_index("sales", "grp", IndexKind::Hash).unwrap();
    cat.create_index("groups", "gid", IndexKind::Hash).unwrap();
    cat
}

#[test]
fn having_filters_groups() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let s = b.table("sales");
    let g = b.table("groups");
    b.join(s, 1, g, 0);
    // Per group g: 100 rows with amount = g % 10 constant, so
    // count = 100 and sum(amount) = 100 * (g % 10).
    b.aggregate(
        &[(g, 0)],
        vec![pop::AggFunc::Count, pop::AggFunc::Sum(ColId::new(s, 2))],
    );
    // count > 100: no group qualifies.
    b.having(1, CmpOp::Gt, 100i64);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert!(res.rows.is_empty());

    // count = 100: all 100 groups qualify.
    let mut b = QueryBuilder::new();
    let s = b.table("sales");
    let g = b.table("groups");
    b.join(s, 1, g, 0);
    b.aggregate(
        &[(g, 0)],
        vec![pop::AggFunc::Count, pop::AggFunc::Sum(ColId::new(s, 2))],
    );
    b.having(1, CmpOp::Eq, 100i64);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 100);

    // sum > 500 <=> g % 10 >= 6: 40 groups.
    let mut b = QueryBuilder::new();
    let s = b.table("sales");
    let g = b.table("groups");
    b.join(s, 1, g, 0);
    b.aggregate(
        &[(g, 0)],
        vec![pop::AggFunc::Count, pop::AggFunc::Sum(ColId::new(s, 2))],
    );
    b.having(2, CmpOp::Gt, 500i64);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 40);
}

#[test]
fn having_without_aggregate_is_invalid() {
    let mut b = QueryBuilder::new();
    let s = b.table("sales");
    let g = b.table("groups");
    b.join(s, 1, g, 0);
    b.having(0, CmpOp::Gt, 1i64);
    assert!(b.build().is_err());
}

#[test]
fn limit_truncates_after_order_by() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let s = b.table("sales");
    let g = b.table("groups");
    b.join(s, 1, g, 0);
    b.aggregate(&[(g, 0)], vec![pop::AggFunc::Sum(ColId::new(s, 0))]);
    b.order_by(1, true);
    b.limit(7);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 7);
    // Descending by the sum.
    for w in res.rows.windows(2) {
        assert!(w[0][1] >= w[1][1]);
    }
}

#[test]
fn limit_on_pipelined_query_saves_work() {
    let cat = db();
    let exec = PopExecutor::new(cat, PopConfig::without_pop()).unwrap();
    let make = |limit: Option<usize>| {
        let mut b = QueryBuilder::new();
        let s = b.table("sales");
        let g = b.table("groups");
        b.join(s, 1, g, 0);
        b.filter(s, Expr::col(s, 2).ge(Expr::lit(0i64)));
        b.project(&[(s, 0), (g, 1)]);
        if let Some(n) = limit {
            b.limit(n);
        }
        b.build().unwrap()
    };
    let full = exec.run(&make(None), &Params::none()).unwrap();
    let limited = exec.run(&make(Some(10)), &Params::none()).unwrap();
    assert_eq!(limited.rows.len(), 10);
    assert_eq!(full.rows.len(), 10_000);
    assert!(
        limited.report.total_work < full.report.total_work,
        "limit should stop the pipeline early: {} vs {}",
        limited.report.total_work,
        full.report.total_work
    );
}

#[test]
fn q18_having_limit_shape() {
    let exec = PopExecutor::new(
        pop_tpch::tpch_catalog(0.0005).unwrap(),
        PopConfig::default(),
    )
    .unwrap();
    let res = exec.run(&pop_tpch::q18(), &Params::none()).unwrap();
    assert!(res.rows.len() <= 100, "LIMIT 100 violated");
    for row in &res.rows {
        let qty = row[2].as_f64().unwrap();
        assert!(qty > 120.0, "HAVING violated: {qty}");
    }
}
