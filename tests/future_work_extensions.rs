//! Tests for the paper's §7 future-work directions implemented as
//! opt-in extensions: LEO-style cross-query learning and the
//! robustness-preferring optimizer mode.

use pop::{PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};

fn correlated_db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "customer",
        Schema::from_pairs(&[
            ("cid", DataType::Int),
            ("grp_a", DataType::Int),
            ("grp_b", DataType::Int),
            ("grp_c", DataType::Int),
        ]),
        (0..5000).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 4),
                Value::Int(i % 4),
                Value::Int(i % 4),
            ]
        }),
    )
    .unwrap();
    cat.create_table(
        "orders",
        Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
        (0..50_000).map(|i| vec![Value::Int(i), Value::Int(i % 1000)]),
    )
    .unwrap();
    cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
    cat.create_index("customer", "cid", IndexKind::Hash)
        .unwrap();
    cat
}

fn correlated_query() -> pop::QuerySpec {
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    let o = b.table("orders");
    b.join(c, 0, o, 1);
    b.filter(
        c,
        Expr::col(c, 1)
            .eq(Expr::lit(3i64))
            .and(Expr::col(c, 2).eq(Expr::lit(3i64)))
            .and(Expr::col(c, 3).eq(Expr::lit(3i64))),
    );
    b.build().unwrap()
}

#[test]
fn learning_avoids_repeating_the_mistake() {
    let cfg = PopConfig {
        learn_across_queries: true,
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
    let q = correlated_query();

    let first = exec.run(&q, &Params::none()).unwrap();
    assert!(
        first.report.reopt_count >= 1,
        "first execution should hit the misestimate"
    );
    assert!(!exec.learned_facts().is_empty(), "facts should be retained");

    let second = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(
        second.report.reopt_count, 0,
        "the learned cardinalities should yield the right plan immediately"
    );
    assert!(
        second.report.total_work < first.report.total_work,
        "second run ({}) should be cheaper than the first ({})",
        second.report.total_work,
        first.report.total_work
    );
    // Results identical.
    let mut a = first.rows.clone();
    let mut b = second.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn without_learning_every_run_repeats_the_reopt() {
    let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
    let q = correlated_query();
    for _ in 0..2 {
        let res = exec.run(&q, &Params::none()).unwrap();
        assert!(res.report.reopt_count >= 1);
    }
    assert!(exec.learned_facts().is_empty());
}

#[test]
fn learning_transfers_to_overlapping_queries() {
    let cfg = PopConfig {
        learn_across_queries: true,
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
    // Warm up with the plain SPJ query...
    exec.run(&correlated_query(), &Params::none()).unwrap();
    // ...then run an aggregate query over the same join: the filtered
    // customer subplan signature matches, so its fact transfers.
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    let o = b.table("orders");
    b.join(c, 0, o, 1);
    b.filter(
        c,
        Expr::col(c, 1)
            .eq(Expr::lit(3i64))
            .and(Expr::col(c, 2).eq(Expr::lit(3i64)))
            .and(Expr::col(c, 3).eq(Expr::lit(3i64))),
    );
    b.aggregate(&[(c, 0)], vec![pop::AggFunc::Count]);
    let agg_q = b.build().unwrap();
    let res = exec.run(&agg_q, &Params::none()).unwrap();
    assert_eq!(
        res.report.reopt_count, 0,
        "the shared subplan's learned cardinality should transfer"
    );
    assert_eq!(res.rows.len(), 250);
}

#[test]
fn robustness_penalty_prefers_merge_joins() {
    // §7 "Checking Opportunities": in volatile environments the optimizer
    // can favor operators with more re-optimization opportunities.
    let q = correlated_query();

    let normal = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
    let normal_plan = normal.explain(&q, &Params::none()).unwrap();

    let mut robust_cfg = PopConfig::default();
    robust_cfg.cost_model.robustness_penalty = 8.0;
    let robust = PopExecutor::new(correlated_db(), robust_cfg).unwrap();
    let robust_plan = robust.explain(&q, &Params::none()).unwrap();

    assert!(
        !normal_plan.contains("MGJN"),
        "baseline should not need merge join here:\n{normal_plan}"
    );
    assert!(
        robust_plan.contains("MGJN"),
        "robust mode should prefer the checkable merge join:\n{robust_plan}"
    );

    // And the robust plan still computes the right answer.
    let res = robust.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 12_500);
}

#[test]
fn runtime_never_charges_the_robustness_penalty() {
    // The penalty biases plan choice only; identical plans must measure
    // identical work regardless of the penalty setting.
    let q = correlated_query();
    let mut cfg_a = PopConfig::without_pop();
    cfg_a.optimizer.joins.nljn = false;
    cfg_a.optimizer.joins.hsjn = false; // force MGJN under both configs
    let mut cfg_b = cfg_a.clone();
    cfg_b.cost_model.robustness_penalty = 3.0;
    let a = PopExecutor::new(correlated_db(), cfg_a).unwrap();
    let b = PopExecutor::new(correlated_db(), cfg_b).unwrap();
    let ra = a.run(&q, &Params::none()).unwrap();
    let rb = b.run(&q, &Params::none()).unwrap();
    assert_eq!(ra.report.total_work, rb.report.total_work);
}

#[test]
fn learned_facts_do_not_leak_across_parameter_bindings() {
    // Regression test: a cardinality fact learned under one parameter
    // binding must not be applied under another — signatures incorporate
    // the bound values.
    let mut cfg = PopConfig {
        learn_across_queries: true,
        ..PopConfig::default()
    };
    cfg.optimizer.selectivity_defaults.range = 0.015; // NLJN under uncertainty
    let exec = PopExecutor::new(pop_tpch::tpch_catalog(0.001).unwrap(), cfg).unwrap();
    let q = pop_tpch::q10();
    use pop_types::Value;

    // Learn under a high-selectivity binding.
    let high = exec
        .run(&q, &pop_expr::Params::new(vec![Value::Int(50)]))
        .unwrap();
    assert!(high.report.reopt_count >= 1);

    // A near-zero binding must compute the correct (tiny) result even
    // though a "lineitem is huge" fact was just learned for binding 50.
    let low = exec
        .run(&q, &pop_expr::Params::new(vec![Value::Int(1)]))
        .unwrap();
    let expected = {
        let fresh = PopExecutor::new(
            pop_tpch::tpch_catalog(0.001).unwrap(),
            PopConfig::without_pop(),
        )
        .unwrap();
        fresh
            .run(
                &pop_tpch::q10_selectivity_literal(1),
                &pop_expr::Params::none(),
            )
            .unwrap()
    };
    let mut a = low.rows.clone();
    let mut b = expected.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a.len(), b.len(), "results diverged across bindings");
    // And re-running binding 50 reuses its own learned facts: no reopt.
    let again = exec
        .run(&q, &pop_expr::Params::new(vec![Value::Int(50)]))
        .unwrap();
    assert_eq!(again.report.reopt_count, 0);
}
