//! Engine edge cases end-to-end: empty tables, zero-selectivity filters,
//! self-joins, NULL join keys, degenerate configs.

use pop::{PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{ColId, DataType, Schema, Value};

fn two_tables(n_left: usize, n_right: usize) -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "l",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        (0..n_left).map(|i| vec![Value::Int((i % 10) as i64), Value::Int(i as i64)]),
    )
    .unwrap();
    cat.create_table(
        "r",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        (0..n_right).map(|i| vec![Value::Int((i % 10) as i64), Value::Int(i as i64)]),
    )
    .unwrap();
    cat.create_index("r", "k", IndexKind::Hash).unwrap();
    cat.create_index("l", "k", IndexKind::Hash).unwrap();
    cat
}

fn join_query() -> pop::QuerySpec {
    let mut b = QueryBuilder::new();
    let l = b.table("l");
    let r = b.table("r");
    b.join(l, 0, r, 0);
    b.build().unwrap()
}

#[test]
fn empty_left_table() {
    let exec = PopExecutor::new(two_tables(0, 100), PopConfig::default()).unwrap();
    let res = exec.run(&join_query(), &Params::none()).unwrap();
    assert!(res.rows.is_empty());
}

#[test]
fn empty_right_table() {
    let exec = PopExecutor::new(two_tables(100, 0), PopConfig::default()).unwrap();
    let res = exec.run(&join_query(), &Params::none()).unwrap();
    assert!(res.rows.is_empty());
}

#[test]
fn both_tables_empty() {
    let exec = PopExecutor::new(two_tables(0, 0), PopConfig::default()).unwrap();
    let res = exec.run(&join_query(), &Params::none()).unwrap();
    assert!(res.rows.is_empty());
    assert_eq!(res.report.reopt_count, 0);
}

#[test]
fn zero_selectivity_filter() {
    let exec = PopExecutor::new(two_tables(500, 500), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let l = b.table("l");
    let r = b.table("r");
    b.join(l, 0, r, 0);
    b.filter(l, Expr::col(l, 1).gt(Expr::lit(1_000_000i64)));
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert!(res.rows.is_empty());
}

#[test]
fn self_join_works() {
    let exec = PopExecutor::new(two_tables(100, 1), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let a = b.table("l");
    let c = b.table("l"); // same base table twice
    b.join(a, 1, c, 1); // v = v: each row matches itself exactly
    b.filter(a, Expr::col(a, 0).eq(Expr::lit(3i64)));
    b.project(&[(a, 1), (c, 1)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 10); // k=3 for i in {3,13,...,93}
    for row in &res.rows {
        assert_eq!(row[0], row[1]);
    }
}

#[test]
fn null_join_keys_never_match() {
    let cat = Catalog::new();
    cat.create_table(
        "a",
        Schema::from_pairs(&[("k", DataType::Int)]),
        vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Null]],
    )
    .unwrap();
    cat.create_table(
        "b",
        Schema::from_pairs(&[("k", DataType::Int)]),
        vec![vec![Value::Null], vec![Value::Int(1)]],
    )
    .unwrap();
    cat.create_index("b", "k", IndexKind::Hash).unwrap();
    let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let x = b.table("a");
    let y = b.table("b");
    b.join(x, 0, y, 0);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    // Only the 1=1 pair; NULLs never join.
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0], vec![Value::Int(1), Value::Int(1)]);
}

#[test]
fn aggregate_over_empty_join_is_scalar_row() {
    let exec = PopExecutor::new(two_tables(0, 0), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let l = b.table("l");
    let r = b.table("r");
    b.join(l, 0, r, 0);
    b.aggregate(
        &[],
        vec![pop::AggFunc::Count, pop::AggFunc::Sum(ColId::new(l, 1))],
    );
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows, vec![vec![Value::Int(0), Value::Null]]);
}

#[test]
fn limit_zero_returns_nothing() {
    let exec = PopExecutor::new(two_tables(100, 100), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let l = b.table("l");
    let r = b.table("r");
    b.join(l, 0, r, 0);
    b.limit(0);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert!(res.rows.is_empty());
}

#[test]
fn single_table_query_without_joins() {
    let exec = PopExecutor::new(two_tables(100, 0), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let l = b.table("l");
    b.filter(l, Expr::col(l, 0).eq(Expr::lit(7i64)));
    b.project(&[(l, 1)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 10);
}

#[test]
fn duplicate_projection_columns_are_allowed() {
    let exec = PopExecutor::new(two_tables(10, 10), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let l = b.table("l");
    let r = b.table("r");
    b.join(l, 0, r, 0);
    b.project(&[(l, 0), (l, 0), (r, 0)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    for row in &res.rows {
        assert_eq!(row[0], row[1]);
        assert_eq!(row[0], row[2]);
    }
}

#[test]
fn unknown_table_in_query_is_an_error() {
    let exec = PopExecutor::new(two_tables(10, 10), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let x = b.table("does_not_exist");
    b.filter(x, Expr::col(x, 0).eq(Expr::lit(1i64)));
    let q = b.build().unwrap();
    assert!(exec.run(&q, &Params::none()).is_err());
}
