//! Correlated EXISTS / NOT EXISTS semantics end-to-end, including the
//! real forms of TPC-H Q4 and a Q22-style anti-join query.

use pop::{PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};

fn db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "customer",
        Schema::from_pairs(&[("cid", DataType::Int), ("nation", DataType::Int)]),
        (0..1000).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )
    .unwrap();
    // Orders exist only for even customers; amount flags some as large.
    cat.create_table(
        "orders",
        Schema::from_pairs(&[
            ("oid", DataType::Int),
            ("cust", DataType::Int),
            ("amount", DataType::Int),
        ]),
        (0..5000).map(|i| {
            vec![
                Value::Int(i),
                Value::Int((i % 500) * 2), // customers 0,2,...,998
                Value::Int(i % 100),
            ]
        }),
    )
    .unwrap();
    cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
    cat.create_index("customer", "cid", IndexKind::Hash)
        .unwrap();
    cat
}

#[test]
fn exists_keeps_customers_with_orders() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    b.filter(c, Expr::col(c, 1).eq(Expr::lit(4i64)));
    b.exists("orders", (c, 0), 1, None);
    b.project(&[(c, 0)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    // Nation 4: customers 4, 14, 24, ... (100 of them) — all even, so
    // all have orders.
    assert_eq!(res.rows.len(), 100);
    for row in &res.rows {
        assert_eq!(row[0].as_i64().unwrap() % 2, 0);
    }
}

#[test]
fn not_exists_keeps_customers_without_orders() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    b.not_exists("orders", (c, 0), 1, None);
    b.aggregate(&[(c, 1)], vec![pop::AggFunc::Count]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    // Customers without orders are exactly the odd cids, i.e. the five
    // odd-digit nations, 100 customers each.
    assert_eq!(res.rows.len(), 5);
    for row in &res.rows {
        assert_eq!(row[0].as_i64().unwrap() % 2, 1, "nation digit must be odd");
        assert_eq!(row[1], Value::Int(100));
    }
}

#[test]
fn exists_with_inner_predicate() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    // Customers with at least one order of amount >= 99 (1% of orders).
    b.exists(
        "orders",
        (c, 0),
        1,
        Some(Expr::col(0, 2).ge(Expr::lit(99i64))),
    );
    b.project(&[(c, 0)]);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    // amount = i % 100 == 99 for i in {99,199,...}: custs (99%500)*2 etc.
    let expected: std::collections::HashSet<i64> = (0..5000)
        .filter(|i| i % 100 == 99)
        .map(|i| (i % 500) * 2)
        .collect();
    assert_eq!(res.rows.len(), expected.len());
    for row in &res.rows {
        assert!(expected.contains(&row[0].as_i64().unwrap()));
    }
}

#[test]
fn exists_and_not_exists_partition_the_table() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let run = |negated: bool| {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        if negated {
            b.not_exists("orders", (c, 0), 1, None);
        } else {
            b.exists("orders", (c, 0), 1, None);
        }
        b.project(&[(c, 0)]);
        exec.run(&b.build().unwrap(), &Params::none()).unwrap().rows
    };
    let with = run(false);
    let without = run(true);
    assert_eq!(with.len() + without.len(), 1000);
    let a: std::collections::HashSet<_> = with.into_iter().collect();
    let b: std::collections::HashSet<_> = without.into_iter().collect();
    assert!(a.is_disjoint(&b));
}

/// TPC-H Q4 in its real (EXISTS) form.
#[test]
fn q4_exists_form_matches_join_form() {
    use pop_tpch::cols::{lineitem, orders};
    let exec = PopExecutor::new(
        pop_tpch::tpch_catalog(0.0005).unwrap(),
        PopConfig::default(),
    )
    .unwrap();
    // EXISTS form: orders with a late lineitem, counted by priority.
    let mut b = QueryBuilder::new();
    let o = b.table("orders");
    b.filter(
        o,
        Expr::col(o, orders::ORDERDATE)
            .between(Expr::lit(Value::Date(800)), Expr::lit(Value::Date(890))),
    );
    b.exists(
        "lineitem",
        (o, orders::ORDERKEY),
        lineitem::ORDERKEY,
        Some(Expr::col(0, lineitem::COMMITDATE).lt(Expr::col(0, lineitem::RECEIPTDATE))),
    );
    b.aggregate(&[(o, orders::ORDERPRIORITY)], vec![pop::AggFunc::Count]);
    b.order_by(0, false);
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    // The EXISTS form counts each qualifying ORDER once; the join form
    // (pop_tpch::q4) counts order×lineitem pairs, so only the grouping
    // keys must agree.
    let join_form = exec.run(&pop_tpch::q4(), &Params::none()).unwrap();
    let keys: Vec<&Value> = res.rows.iter().map(|r| &r[0]).collect();
    let join_keys: Vec<&Value> = join_form.rows.iter().map(|r| &r[0]).collect();
    assert_eq!(keys, join_keys);
    // And EXISTS counts are bounded by the join counts.
    for (e, j) in res.rows.iter().zip(join_form.rows.iter()) {
        assert!(e[1].as_i64().unwrap() <= j[1].as_i64().unwrap());
    }
}
