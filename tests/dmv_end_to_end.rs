//! End-to-end integration: the 39-query DMV workload (§6 of the paper)
//! with and without POP, on the in-memory and the paged backend.

mod common;

use common::assert_rows_equal;
use pop::{CostModel, PopConfig, PopExecutor};
use pop_dmv::{
    correlated_marker_params, correlated_marker_query, dmv_catalog_with, dmv_queries,
    uncorrelated_marker_params,
};
use pop_expr::Params;
use pop_storage::StorageConfig;

const SCALE: f64 = 0.0003; // 2400 cars / 1800 owners: fast CI scale

/// Every test runs on both backends: mem under the flat cost model, and
/// paged with 1 KiB pages and a 16 KiB pool (constant eviction) under the
/// page-aware model.
fn backends() -> [(&'static str, StorageConfig, CostModel); 2] {
    let paged = StorageConfig {
        page_size: 1024,
        buffer_pool_bytes: 16 << 10,
        ..StorageConfig::paged()
    };
    [
        ("mem", StorageConfig::default(), CostModel::default()),
        ("paged", paged, CostModel::paged()),
    ]
}

/// An executor over a fresh DMV catalog on `storage`, planning with
/// `cost_model`.
fn executor(storage: &StorageConfig, cost_model: &CostModel, config: PopConfig) -> PopExecutor {
    let catalog = dmv_catalog_with(SCALE, storage.clone()).unwrap();
    let config = PopConfig {
        cost_model: cost_model.clone(),
        ..config
    };
    PopExecutor::new(catalog, config).unwrap()
}

#[test]
fn dmv_workload_runs_and_pop_preserves_semantics() {
    for (backend, storage, cost_model) in backends() {
        let with_pop = executor(&storage, &cost_model, PopConfig::default());
        let without = executor(&storage, &cost_model, PopConfig::without_pop());
        let mut total_reopts = 0usize;
        let mut improved = 0usize;
        let mut ran = 0usize;
        for q in dmv_queries() {
            let what = format!("{} on {backend}", q.name);
            let a = with_pop
                .run(&q.spec, &Params::none())
                .unwrap_or_else(|e| panic!("{what} with POP failed: {e}"));
            let b = without
                .run(&q.spec, &Params::none())
                .unwrap_or_else(|e| panic!("{what} without POP failed: {e}"));
            assert_rows_equal(a.rows.clone(), b.rows.clone(), &what);
            // No fault is injected, so every re-optimization must produce a
            // plan that passes the lint gate (a stale MVSCAN once did not).
            assert!(
                !a.report.degraded,
                "{what}: re-optimization degraded: {:?}",
                a.report.warnings
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
            "expected re-optimizations across the DMV workload on {backend}, got {total_reopts}"
        );
        // And POP should speed up a nontrivial share of the queries.
        assert!(
            improved >= 5,
            "only {improved} queries improved on {backend}"
        );
    }
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
    for (backend, storage, cost_model) in backends() {
        let exec = executor(&storage, &cost_model, PopConfig::default());
        let baseline = executor(&storage, &cost_model, PopConfig::without_pop());

        // Adversarial bindings: CHECK-triggered recovery.
        let params = correlated_marker_params();
        let res = exec.run(&q.spec, &params).unwrap();
        let base = baseline.run(&q.spec, &params).unwrap();
        assert!(
            base.rows.len() > 100,
            "{backend}: adversarial bindings should keep a whole make band: {}",
            base.rows.len()
        );
        assert_rows_equal(
            res.rows.clone(),
            base.rows.clone(),
            &format!("{} on {backend}", q.name),
        );
        assert!(
            res.report.reopt_count >= 1,
            "{backend}: a CHECK should catch the marker-induced drift:\n{}",
            res.report.summary()
        );
        assert!(
            res.report.steps[0].violation.is_some(),
            "{backend}: the first step must suspend on a CHECK:\n{}",
            res.report.summary()
        );
        assert!(
            res.report.total_work < base.report.total_work,
            "{backend}: POP {:.0} work units vs static {:.0}:\n{}",
            res.report.total_work,
            base.report.total_work,
            res.report.summary()
        );

        // Control bindings: same plan, nothing to recover from.
        let control = uncorrelated_marker_params();
        let res = exec.run(&q.spec, &control).unwrap();
        assert!(
            res.rows.is_empty(),
            "{backend}: MODEL determines MAKE: disjoint bands must select nothing"
        );
        assert_eq!(
            res.report.reopt_count,
            0,
            "{backend}: no drift, no recovery:\n{}",
            res.report.summary()
        );
    }
}

#[test]
fn dmv_reopt_count_is_bounded_by_config() {
    for (backend, storage, cost_model) in backends() {
        let exec = executor(&storage, &cost_model, PopConfig::default());
        for q in dmv_queries().into_iter().take(10) {
            let res = exec.run(&q.spec, &Params::none()).unwrap();
            assert!(
                res.report.reopt_count <= exec.config().max_reopts,
                "{} on {backend}: {} reopts",
                q.name,
                res.report.reopt_count
            );
        }
    }
}
