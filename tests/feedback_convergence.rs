//! Convergence of the fleet-wide feedback loop on the parameterized
//! TPC-H Q10 (the paper's §5.1 robustness query): with cross-query
//! learning, a repeated binding pays for its misestimate exactly once,
//! and from then on gets the same plan, doing the same work, every run.

use pop::{PopConfig, PopExecutor};
use pop_expr::Params;
use pop_tpch::{q10, tpch_catalog};
use pop_types::Value;

const SF: f64 = 0.002;

fn params(v: i64) -> Params {
    Params::new(vec![Value::Int(v)])
}

/// The Figure 11 environment: memory a fraction of the data and a highly
/// selective default for the parameter-marker predicate, so the
/// misestimate at large bindings is severe enough to re-optimize.
fn fig11_config() -> PopConfig {
    let mut cfg = PopConfig::default();
    cfg.cost_model.mem_rows = 4000.0;
    cfg.optimizer.selectivity_defaults.range = 0.015;
    cfg
}

#[test]
fn repeated_binding_reoptimizes_once_then_never_again() {
    let cfg = PopConfig {
        learn_across_queries: true,
        ..fig11_config()
    };
    let exec = PopExecutor::new(tpch_catalog(SF).unwrap(), cfg).unwrap();
    let q = q10();
    // Binding 50 selects every lineitem; the parameter-marker default
    // selectivity underestimates 3x, which triggers a re-optimization.
    let first = exec.run(&q, &params(50)).unwrap();
    assert!(
        first.report.reopt_count >= 1,
        "first run should hit the misestimate (steps: {:?})",
        first
            .report
            .steps
            .iter()
            .map(|s| &s.shape)
            .collect::<Vec<_>>()
    );
    assert!(
        !exec.learned_facts().is_empty(),
        "completed run should publish its facts"
    );

    // Same binding again: the published facts seed the estimator, so the
    // first plan is already right and no check fires.
    let second = exec.run(&q, &params(50)).unwrap();
    assert_eq!(
        second.report.reopt_count, 0,
        "learned facts should eliminate the repeat re-optimization"
    );
    assert!(
        second.report.feedback_base_hits > 0,
        "the estimator should have consulted cross-query facts"
    );
    let mut a = first.rows.clone();
    let mut b = second.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "learning must not change results");
}

#[test]
fn learning_converges_to_zero_overhead() {
    let cfg = PopConfig {
        learn_across_queries: true,
        ..fig11_config()
    };
    let exec = PopExecutor::new(tpch_catalog(SF).unwrap(), cfg).unwrap();
    let q = q10();

    // Run 1: misestimate, re-optimization, facts published.
    let r1 = exec.run(&q, &params(50)).unwrap();
    assert!(r1.report.reopt_count >= 1);

    // Run 2: feedback-seeded first plan, no re-optimization.
    let r2 = exec.run(&q, &params(50)).unwrap();
    assert_eq!(
        r2.report.reopt_count, 0,
        "feedback should pre-correct run 2"
    );

    // Run 3: the learned facts and the memo give back run 2's plan, and
    // it does run 2's work.
    let r3 = exec.run(&q, &params(50)).unwrap();
    assert_eq!(r3.report.reopt_count, 0);
    let final_plan = |r: &pop::QueryResult| r.report.steps.last().unwrap().plan.to_string();
    assert_eq!(
        final_plan(&r3),
        final_plan(&r2),
        "converged plan must be stable"
    );
    assert_eq!(
        r3.report.total_work.to_bits(),
        r2.report.total_work.to_bits(),
        "converged work must be stable"
    );
    let mut a = r1.rows.clone();
    let mut c = r3.rows.clone();
    a.sort();
    c.sort();
    assert_eq!(a, c, "convergence must not change results");
}
