//! End-to-end property test: for random databases and random
//! select-project-join queries, the engine must return exactly the rows a
//! brute-force reference evaluator computes — with POP disabled, with the
//! default configuration, and with a deliberately trigger-happy
//! configuration (fixed ×1.2 thresholds) that forces re-optimizations
//! mid-query. Progressive re-optimization must never change results.

use pop::{PopConfig, PopExecutor, ValidityMode};
use pop_expr::{BoundExpr, Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{ColId, DataType, Schema, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Db {
    left: Vec<(i64, i64, i64)>, // (pk, fk-ish key, attr)
    right: Vec<(i64, i64)>,     // (key, attr)
}

fn arb_db() -> impl Strategy<Value = Db> {
    (
        prop::collection::vec((0i64..30, 0i64..8, -20i64..20), 1..60),
        prop::collection::vec((0i64..30, -20i64..20), 1..60),
    )
        .prop_map(|(l, r)| Db {
            left: l
                .into_iter()
                .enumerate()
                .map(|(i, (_, k, a))| (i as i64, k, a))
                .collect(),
            right: r,
        })
}

/// A small predicate grammar over (table 0: cols pk,key,attr).
#[derive(Debug, Clone)]
enum Pred {
    AttrLe(i64),
    AttrEq(i64),
    KeyIn(Vec<i64>),
    Conj(i64, i64), // attr <= a AND key >= b
    Disj(i64, i64), // attr = a OR key = b
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (-20i64..20).prop_map(Pred::AttrLe),
        (-20i64..20).prop_map(Pred::AttrEq),
        prop::collection::vec(0i64..8, 0..3).prop_map(Pred::KeyIn),
        ((-20i64..20), (0i64..8)).prop_map(|(a, b)| Pred::Conj(a, b)),
        ((-20i64..20), (0i64..8)).prop_map(|(a, b)| Pred::Disj(a, b)),
    ]
}

fn pred_expr(table: usize, p: &Pred) -> Expr {
    match p {
        Pred::AttrLe(a) => Expr::col(table, 2).le(Expr::lit(*a)),
        Pred::AttrEq(a) => Expr::col(table, 2).eq(Expr::lit(*a)),
        Pred::KeyIn(ks) => Expr::col(table, 1).in_list(ks.iter().map(|k| Value::Int(*k)).collect()),
        Pred::Conj(a, b) => Expr::col(table, 2)
            .le(Expr::lit(*a))
            .and(Expr::col(table, 1).ge(Expr::lit(*b))),
        Pred::Disj(a, b) => Expr::col(table, 2)
            .eq(Expr::lit(*a))
            .or(Expr::col(table, 1).eq(Expr::lit(*b))),
    }
}

fn build_catalog(db: &Db) -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "left",
        Schema::from_pairs(&[
            ("pk", DataType::Int),
            ("key", DataType::Int),
            ("attr", DataType::Int),
        ]),
        db.left
            .iter()
            .map(|(p, k, a)| vec![Value::Int(*p), Value::Int(*k), Value::Int(*a)]),
    )
    .unwrap();
    cat.create_table(
        "right",
        Schema::from_pairs(&[("key", DataType::Int), ("attr", DataType::Int)]),
        db.right
            .iter()
            .map(|(k, a)| vec![Value::Int(*k), Value::Int(*a)]),
    )
    .unwrap();
    cat.create_index("right", "key", IndexKind::Hash).unwrap();
    cat.create_index("left", "key", IndexKind::Hash).unwrap();
    cat
}

fn build_query(p: &Pred) -> pop::QuerySpec {
    let mut b = QueryBuilder::new();
    let l = b.table("left");
    let r = b.table("right");
    b.join(l, 1, r, 0);
    b.filter(l, pred_expr(l, p));
    b.project(&[(l, 0), (l, 2), (r, 1)]);
    b.build().unwrap()
}

/// Brute-force reference: filter with the same expression evaluator (so
/// predicate semantics are shared), then nested-loop join and project.
fn reference(db: &Db, p: &Pred) -> Vec<Vec<Value>> {
    let expr = pred_expr(0, &p.clone());
    let layout = [ColId::new(0, 0), ColId::new(0, 1), ColId::new(0, 2)];
    let bound = BoundExpr::bind(&expr, &layout).unwrap();
    let mut out = Vec::new();
    for (pk, k, a) in &db.left {
        let row = vec![Value::Int(*pk), Value::Int(*k), Value::Int(*a)];
        if !bound.passes(&row, &Params::none()).unwrap() {
            continue;
        }
        for (rk, ra) in &db.right {
            if rk == k {
                out.push(vec![Value::Int(*pk), Value::Int(*a), Value::Int(*ra)]);
            }
        }
    }
    out.sort();
    out
}

fn run_config(cat: Catalog, q: &pop::QuerySpec, cfg: PopConfig) -> Vec<Vec<Value>> {
    let exec = PopExecutor::new(cat, cfg).unwrap();
    let mut rows = exec.run(q, &Params::none()).unwrap().rows;
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_reference_under_all_configs(db in arb_db(), p in arb_pred()) {
        let expected = reference(&db, &p);
        let q = build_query(&p);

        // Static (no POP).
        let r1 = run_config(build_catalog(&db), &q, PopConfig::without_pop());
        prop_assert_eq!(&r1, &expected, "static run diverged");

        // Default POP.
        let mut cfg = PopConfig::default();
        cfg.optimizer.check_cost_threshold = 0.0;
        let r2 = run_config(build_catalog(&db), &q, cfg);
        prop_assert_eq!(&r2, &expected, "default POP run diverged");

        // Trigger-happy POP: tight fixed thresholds + all flavors, forcing
        // re-optimizations on ordinary estimation noise.
        let mut aggressive = PopConfig::default();
        aggressive.optimizer.check_cost_threshold = 0.0;
        aggressive.optimizer.validity_mode = ValidityMode::FixedFactor(1.2);
        aggressive.optimizer.flavors = pop::FlavorSet {
            lc: true,
            lcem: true,
            ecb: true,
            ecwc: true,
            ecdc: true,
        };
        let r3 = run_config(build_catalog(&db), &q, aggressive);
        prop_assert_eq!(&r3, &expected, "aggressive-reopt POP run diverged");
    }
}
