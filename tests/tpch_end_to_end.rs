//! End-to-end integration: the full TPC-H query suite through the POP
//! executor, with and without POP, checking result equivalence and
//! robustness behaviour.

mod common;

use common::assert_rows_equal;
use pop::{PopConfig, PopExecutor};
use pop_expr::Params;
use pop_tpch::{all_queries, extended_queries, q10, q10_selectivity_literal, tpch_catalog};
use pop_types::Value;

const SF: f64 = 0.0005; // 3000 lineitems: fast but structurally rich

fn executor(config: PopConfig) -> PopExecutor {
    PopExecutor::new(tpch_catalog(SF).unwrap(), config).unwrap()
}

#[test]
fn all_queries_run_with_and_without_pop_and_agree() {
    let with_pop = executor(PopConfig::default());
    let without = executor(PopConfig::without_pop());
    for (name, q) in extended_queries() {
        let a = with_pop
            .run(&q, &Params::none())
            .unwrap_or_else(|e| panic!("{name} with POP failed: {e}"));
        let b = without
            .run(&q, &Params::none())
            .unwrap_or_else(|e| panic!("{name} without POP failed: {e}"));
        assert_rows_equal(
            a.rows.clone(),
            b.rows.clone(),
            &format!("{name}: POP changed the result"),
        );
        assert_eq!(b.report.reopt_count, 0, "{name}: static run re-optimized");
    }
}

#[test]
fn q10_parameter_marker_binds_at_runtime() {
    let exec = executor(PopConfig::default());
    let q = q10();
    // quantity <= 0 selects nothing; <= 50 selects everything.
    let none = exec.run(&q, &Params::new(vec![Value::Int(0)])).unwrap();
    let all = exec.run(&q, &Params::new(vec![Value::Int(50)])).unwrap();
    assert!(none.rows.is_empty());
    assert!(!all.rows.is_empty());
}

#[test]
fn q10_large_actual_selectivity_triggers_reopt() {
    let exec = executor(PopConfig::default());
    let q = q10();
    // Default range selectivity is 1/3; binding 50 makes the predicate
    // pass everything (3x the estimate), stressing the NLJN outer.
    let res = exec.run(&q, &Params::new(vec![Value::Int(50)])).unwrap();
    // Results must match the literal-predicate run regardless of reopt.
    let lit = exec
        .run(&q10_selectivity_literal(50), &Params::none())
        .unwrap();
    assert_rows_equal(
        res.rows.clone(),
        lit.rows.clone(),
        "q10 at full selectivity",
    );
}

#[test]
fn q10_results_match_between_param_and_literal_at_midpoint() {
    let exec = executor(PopConfig::default());
    let res = exec
        .run(&q10(), &Params::new(vec![Value::Int(25)]))
        .unwrap();
    let lit = exec
        .run(&q10_selectivity_literal(25), &Params::none())
        .unwrap();
    assert_rows_equal(res.rows.clone(), lit.rows.clone(), "q10 at midpoint");
}

#[test]
fn pop_overhead_is_small_when_no_reopt_occurs() {
    let with_pop = executor(PopConfig::default());
    let without = executor(PopConfig::without_pop());
    // Aggregate over the suite: POP's checkpoint overhead should stay in
    // the few-percent band the paper reports (§5.2) for queries that do
    // not re-optimize.
    let mut pop_work = 0.0;
    let mut base_work = 0.0;
    for (_name, q) in all_queries() {
        let a = with_pop.run(&q, &Params::none()).unwrap();
        let b = without.run(&q, &Params::none()).unwrap();
        if a.report.reopt_count == 0 {
            pop_work += a.report.total_work;
            base_work += b.report.total_work;
        }
    }
    assert!(base_work > 0.0);
    let overhead = pop_work / base_work;
    assert!(
        (0.99..1.25).contains(&overhead),
        "checkpoint overhead out of band: {overhead}"
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let exec = executor(PopConfig::default());
    let (_, q) = &all_queries()[1]; // Q3
    let a = exec.run(q, &Params::none()).unwrap();
    let b = exec.run(q, &Params::none()).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.report.total_work, b.report.total_work);
}
