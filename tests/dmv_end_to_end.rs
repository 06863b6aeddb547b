//! End-to-end integration: the 39-query DMV workload (§6 of the paper)
//! with and without POP.

use pop::{PopConfig, PopExecutor};
use pop_dmv::{
    correlated_marker_params, correlated_marker_query, dmv_catalog, dmv_queries,
    uncorrelated_marker_params,
};
use pop_expr::Params;
use pop_types::Value;

const SCALE: f64 = 0.0003; // 2400 cars / 1800 owners: fast CI scale

fn assert_rows_equal(mut a: Vec<Vec<Value>>, mut b: Vec<Vec<Value>>, what: &str) {
    a.sort();
    b.sort();
    assert_eq!(a.len(), b.len(), "{what}: row count differs");
    for (ra, rb) in a.iter().zip(b.iter()) {
        for (va, vb) in ra.iter().zip(rb.iter()) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    let tol = 1e-6 * (1.0 + x.abs().max(y.abs()));
                    assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "{what}: value differs"),
            }
        }
    }
}

#[test]
fn dmv_workload_runs_and_pop_preserves_semantics() {
    let with_pop = PopExecutor::new(dmv_catalog(SCALE).unwrap(), PopConfig::default()).unwrap();
    let without = PopExecutor::new(dmv_catalog(SCALE).unwrap(), PopConfig::without_pop()).unwrap();
    let mut total_reopts = 0usize;
    let mut improved = 0usize;
    let mut ran = 0usize;
    for q in dmv_queries() {
        let a = with_pop
            .run(&q.spec, &Params::none())
            .unwrap_or_else(|e| panic!("{} with POP failed: {e}", q.name));
        let b = without
            .run(&q.spec, &Params::none())
            .unwrap_or_else(|e| panic!("{} without POP failed: {e}", q.name));
        assert_rows_equal(a.rows.clone(), b.rows.clone(), &q.name);
        // No fault is injected, so every re-optimization must produce a
        // plan that passes the lint gate (a stale MVSCAN once did not).
        assert!(
            !a.report.degraded,
            "{}: re-optimization degraded: {:?}",
            q.name, a.report.warnings
        );
        total_reopts += a.report.reopt_count;
        if a.report.total_work < b.report.total_work {
            improved += 1;
        }
        ran += 1;
    }
    assert_eq!(ran, 39);
    // The correlated predicates must trigger at least some
    // re-optimizations across the workload.
    assert!(
        total_reopts >= 5,
        "expected re-optimizations across the DMV workload, got {total_reopts}"
    );
    // And POP should speed up a nontrivial share of the queries.
    assert!(improved >= 5, "only {improved} queries improved");
}

/// The adversarial correlated-parameter-markers scenario (§5.1): the
/// marker predicate is opaque at optimization time, so the plan is built
/// on default selectivities; the adversarial bindings make the actual
/// cardinality two orders larger. At the default flavors a CHECK observes
/// the escape: it must force a re-optimization, return the exact rows,
/// and recover a plan that does less work than the static one. The
/// control bindings hit the *same* plan with an empty actual: no
/// violation, no re-optimization.
#[test]
fn correlated_markers_pin_check_triggered_recovery() {
    let q = correlated_marker_query();
    let exec = PopExecutor::new(dmv_catalog(SCALE).unwrap(), PopConfig::default()).unwrap();
    let baseline = PopExecutor::new(dmv_catalog(SCALE).unwrap(), PopConfig::without_pop()).unwrap();

    // Adversarial bindings: CHECK-triggered recovery.
    let params = correlated_marker_params();
    let res = exec.run(&q.spec, &params).unwrap();
    let base = baseline.run(&q.spec, &params).unwrap();
    assert!(
        base.rows.len() > 100,
        "adversarial bindings should keep a whole make band: {}",
        base.rows.len()
    );
    assert_rows_equal(res.rows.clone(), base.rows.clone(), &q.name);
    assert!(
        res.report.reopt_count >= 1,
        "a CHECK should catch the marker-induced drift:\n{}",
        res.report.summary()
    );
    assert!(
        res.report.steps[0].violation.is_some(),
        "the first step must suspend on a CHECK:\n{}",
        res.report.summary()
    );
    assert!(
        res.report.total_work < base.report.total_work,
        "POP {:.0} work units vs static {:.0}:\n{}",
        res.report.total_work,
        base.report.total_work,
        res.report.summary()
    );

    // Control bindings: same plan, nothing to recover from.
    let control = uncorrelated_marker_params();
    let res = exec.run(&q.spec, &control).unwrap();
    assert!(
        res.rows.is_empty(),
        "MODEL determines MAKE: disjoint bands must select nothing"
    );
    assert_eq!(
        res.report.reopt_count,
        0,
        "no drift, no recovery:\n{}",
        res.report.summary()
    );
}

#[test]
fn dmv_reopt_count_is_bounded_by_config() {
    let exec = PopExecutor::new(dmv_catalog(SCALE).unwrap(), PopConfig::default()).unwrap();
    for q in dmv_queries().into_iter().take(10) {
        let res = exec.run(&q.spec, &Params::none()).unwrap();
        assert!(
            res.report.reopt_count <= exec.config().max_reopts + 1,
            "{}: {} reopts",
            q.name,
            res.report.reopt_count
        );
    }
}
