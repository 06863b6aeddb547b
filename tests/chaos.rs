//! Chaos suite: deterministic fault injection, resource budgets and
//! cancellation across the DMV and TPC-H workloads.
//!
//! Every injected failure must leave the engine in a clean state:
//!
//! * errors surface as typed [`PopError`] values — never panics;
//! * no temporary MV leaks out of the catalog on any exit path;
//! * when the run completes despite the fault (spurious checks,
//!   corrupted statistics, graceful degradation), the rows are exactly
//!   the no-fault baseline — ECDC compensation must neither drop nor
//!   duplicate anything;
//! * a fixed fault seed reproduces the identical outcome, byte for byte.

mod common;

use common::assert_rows_equal;
use pop::{Budget, CancelToken, FaultKind, FaultPlan, FaultSpec, PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::QuerySpec;
use pop_storage::Catalog;
use pop_tpch::{all_queries, tpch_catalog};
use pop_types::{PopError, Value};

const DMV_SCALE: f64 = 0.0003;
const TPCH_SF: f64 = 0.0005;

/// How many occurrences of each hook site the sweep covers.
const SWEEP_DEPTH: u64 = 3;

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// The workload slice the sweep runs: a handful of DMV and TPC-H queries
/// (the full suites run in their own end-to-end tests).
fn workload() -> (Catalog, Vec<(String, QuerySpec)>) {
    let cat = dmv_catalog(DMV_SCALE).unwrap();
    let queries = dmv_queries()
        .into_iter()
        .take(6)
        .map(|q| (q.name, q.spec))
        .collect();
    (cat, queries)
}

fn tpch_workload() -> (Catalog, Vec<(String, QuerySpec)>) {
    let cat = tpch_catalog(TPCH_SF).unwrap();
    let queries = all_queries()
        .into_iter()
        .take(4)
        .map(|(name, q)| (name.to_string(), q))
        .collect();
    (cat, queries)
}

/// Baseline rows for each query, computed without POP and without faults.
fn baselines(cat: &Catalog, queries: &[(String, QuerySpec)]) -> Vec<Vec<Vec<Value>>> {
    let exec = PopExecutor::new(cat.clone(), PopConfig::without_pop()).unwrap();
    queries
        .iter()
        .map(|(name, q)| {
            sorted(
                exec.run(q, &Params::none())
                    .unwrap_or_else(|e| panic!("{name} baseline failed: {e}"))
                    .rows,
            )
        })
        .collect()
}

/// Run the sweep over one workload: every fault kind at occurrence
/// indices `0..SWEEP_DEPTH`, against every query.
fn sweep(cat: &Catalog, queries: &[(String, QuerySpec)]) {
    let base = baselines(cat, queries);
    for kind in FaultKind::ALL {
        for at in 0..SWEEP_DEPTH {
            let config = PopConfig {
                faults: Some(FaultPlan::single(kind, at)),
                ..PopConfig::default()
            };
            let exec = PopExecutor::new(cat.clone(), config).unwrap();
            for ((name, q), expected) in queries.iter().zip(&base) {
                let what = format!("{name} under {kind:?}@{at}");
                match exec.run(q, &Params::none()) {
                    // Completed despite the fault: the answer must be
                    // exactly the baseline (no drops, no duplicates).
                    Ok(res) => assert_rows_equal(res.rows, expected.clone(), &what),
                    // Failed: a typed error is acceptable; a panic would
                    // have aborted the test already.
                    Err(e) => assert!(
                        matches!(e, PopError::Execution(_) | PopError::Planning(_)),
                        "{what}: unexpected error kind: {e}"
                    ),
                }
                // Never a leaked temp MV, on any exit path.
                assert_eq!(exec.catalog().temp_mv_count(), 0, "{what}: leaked temp MV");
            }
        }
    }
}

#[test]
fn chaos_sweep_dmv() {
    let (cat, queries) = workload();
    sweep(&cat, &queries);
}

#[test]
fn chaos_sweep_tpch() {
    let (cat, queries) = tpch_workload();
    sweep(&cat, &queries);
}

/// A compact, fully deterministic description of one run's outcome.
fn fingerprint(exec: &PopExecutor, q: &QuerySpec) -> String {
    match exec.run(q, &Params::none()) {
        Ok(res) => format!(
            "ok rows={:?} reopts={} degraded={} shapes={:?} warnings={:?}",
            sorted(res.rows),
            res.report.reopt_count,
            res.report.degraded,
            res.report
                .steps
                .iter()
                .map(|s| s.shape.clone())
                .collect::<Vec<_>>(),
            res.report.warnings,
        ),
        Err(e) => format!("err {e}"),
    }
}

/// Seeded fault plans ([`FaultPlan::from_seed`]) at two fixed seeds: the
/// workload must uphold every invariant under each.
#[test]
fn fixed_seed_sweep_upholds_invariants() {
    let (cat, queries) = workload();
    let base = baselines(&cat, &queries);
    for seed in [7, 1337] {
        let plan = FaultPlan::from_seed(seed);
        let what = format!("seed {seed} ({:?})", plan.specs);
        let config = PopConfig {
            faults: Some(plan),
            ..PopConfig::default()
        };
        let exec = PopExecutor::new(cat.clone(), config).unwrap();
        for ((name, q), expected) in queries.iter().zip(&base) {
            let what = format!("{name} under {what}");
            match exec.run(q, &Params::none()) {
                Ok(res) => assert_rows_equal(res.rows, expected.clone(), &what),
                Err(e) => assert!(
                    matches!(e, PopError::Execution(_) | PopError::Planning(_)),
                    "{what}: unexpected error kind: {e}"
                ),
            }
            assert_eq!(exec.catalog().temp_mv_count(), 0, "{what}: leaked temp MV");
        }
    }
}

#[test]
fn chaos_is_deterministic_per_seed() {
    let (cat, queries) = workload();
    for seed in [7u64, 0xDEAD_BEEF] {
        let config = PopConfig {
            faults: Some(FaultPlan::from_seed(seed)),
            ..PopConfig::default()
        };
        for (name, q) in &queries {
            let a = fingerprint(&PopExecutor::new(cat.clone(), config.clone()).unwrap(), q);
            let b = fingerprint(&PopExecutor::new(cat.clone(), config.clone()).unwrap(), q);
            assert_eq!(a, b, "{name} under seed {seed} is not reproducible");
        }
    }
}

/// A two-table database with a correlation the optimizer cannot see, so
/// the default query reliably triggers a mid-query re-optimization (same
/// shape as the driver's own regression database).
fn correlated_db() -> Catalog {
    use pop_storage::IndexKind;
    use pop_types::{DataType, Schema};
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

fn correlated_query() -> QuerySpec {
    use pop_expr::Expr;
    use pop_plan::QueryBuilder;
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

const CORRELATED_ROWS: usize = 12_500;

/// Graceful degradation: when the *re*-optimization fails, the query
/// keeps its previous plan, completes correctly and reports the fallback.
#[test]
fn reopt_failure_degrades_gracefully() {
    // optfail@1: the second optimizer invocation — the first
    // re-optimization after the correlated misestimate — fails.
    let config = PopConfig {
        faults: Some(FaultPlan::single(FaultKind::OptimizerFail, 1)),
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let res = exec.run(&correlated_query(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), CORRELATED_ROWS);
    assert!(res.report.degraded, "expected a degradation fallback");
    assert!(
        res.report.warnings.iter().any(|w| w.contains("injected")),
        "degradation warning should name the cause: {:?}",
        res.report.warnings
    );
    assert_eq!(exec.catalog().temp_mv_count(), 0);
    // Degradation must not duplicate rows already returned.
    let mut rows = res.rows;
    rows.sort();
    let n = rows.len();
    rows.dedup();
    assert_eq!(rows.len(), n, "degraded run duplicated rows");
}

/// Regression (RAII cleanup): failing a query mid-reopt with degradation
/// disabled must surface the typed error AND leave zero temp MVs — the
/// harvested materializations of the suspended step are already in the
/// catalog when the failure hits.
#[test]
fn mid_reopt_failure_leaks_no_temp_mvs() {
    let config = PopConfig {
        faults: Some(FaultPlan::single(FaultKind::OptimizerFail, 1)),
        graceful_degradation: false,
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let err = exec
        .run(&correlated_query(), &Params::none())
        .expect_err("injected reopt failure must surface without degradation");
    assert!(matches!(err, PopError::Planning(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0, "temp MVs leaked");
}

/// The first optimization has no fallback: optfail@0 is always fatal.
#[test]
fn initial_optimizer_failure_is_fatal() {
    let config = PopConfig {
        faults: Some(FaultPlan::single(FaultKind::OptimizerFail, 0)),
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let err = exec
        .run(&correlated_query(), &Params::none())
        .expect_err("initial optimization failure cannot degrade");
    assert!(matches!(err, PopError::Planning(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

/// Corrupted statistics may yield a bad plan, never a wrong answer.
#[test]
fn corrupted_stats_keep_answers_correct() {
    let config = PopConfig {
        faults: Some(FaultPlan::single(FaultKind::CorruptStats, 0)),
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let res = exec.run(&correlated_query(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), CORRELATED_ROWS);
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

/// Spurious CHECK violations cost extra re-optimizations but results
/// stay exact through ECDC/rid compensation.
#[test]
fn spurious_check_violation_preserves_results() {
    let config = PopConfig {
        faults: Some(FaultPlan::single(FaultKind::SpuriousCheck, 0)),
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let res = exec.run(&correlated_query(), &Params::none()).unwrap();
    let mut rows = res.rows;
    rows.sort();
    let n = rows.len();
    rows.dedup();
    assert_eq!(rows.len(), n, "spurious reopt duplicated rows");
    assert_eq!(n, CORRELATED_ROWS);
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

/// Corrupted feedback on a re-plan: the injected check fault makes the
/// first CHECK report a spurious violation, and the stats fault records
/// an absurd cardinality for its subplan before the re-optimization. The
/// loop must plan on the lie, still converge to the exact answer, and
/// leave no temp MV behind.
#[test]
fn spurious_check_with_corrupt_feedback_converges() {
    let config = PopConfig {
        faults: Some(FaultPlan::new(vec![
            FaultSpec {
                kind: FaultKind::SpuriousCheck,
                at: 0,
            },
            FaultSpec {
                kind: FaultKind::CorruptStats,
                at: 0,
            },
        ])),
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let res = exec.run(&correlated_query(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), CORRELATED_ROWS);
    assert!(
        res.report.reopt_count >= 1,
        "the spurious violation must force a re-optimization:\n{}",
        res.report.summary()
    );
    assert!(
        res.report.steps[0].violation.is_some(),
        "first step must suspend:\n{}",
        res.report.summary()
    );
    assert_eq!(exec.catalog().temp_mv_count(), 0);
    // Corrupted feedback may cost extra iterations, never correctness.
    let mut rows = res.rows;
    rows.sort();
    let n = rows.len();
    rows.dedup();
    assert_eq!(
        rows.len(),
        n,
        "re-optimization on corrupt feedback duplicated rows"
    );
}

#[test]
fn work_budget_trips_with_typed_error() {
    let config = PopConfig {
        budget: Budget {
            max_work: Some(10.0),
            ..Budget::default()
        },
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let err = exec
        .run(&correlated_query(), &Params::none())
        .expect_err("a 10-unit work budget cannot cover a 50k-row join");
    assert!(matches!(err, PopError::BudgetExceeded(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

#[test]
fn row_budget_trips_with_typed_error() {
    let config = PopConfig {
        budget: Budget {
            max_rows: Some(100),
            ..Budget::default()
        },
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let err = exec
        .run(&correlated_query(), &Params::none())
        .expect_err("the query returns 12500 rows against a 100-row budget");
    assert!(matches!(err, PopError::BudgetExceeded(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

#[test]
fn resident_byte_budget_trips_with_typed_error() {
    let config = PopConfig {
        budget: Budget {
            max_resident_bytes: Some(64),
            ..Budget::default()
        },
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let err = exec
        .run(&correlated_query(), &Params::none())
        .expect_err("64 bytes cannot hold any materialized operator state");
    assert!(matches!(err, PopError::BudgetExceeded(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

/// The aggregate's group table is resident operator state like a hash
/// build: a GROUP BY with 50k groups over a bare scan (no join, SORT or
/// TEMP to trip first) exceeds a budget that a 1000-group one fits in.
#[test]
fn resident_byte_budget_covers_aggregate_groups() {
    use pop_plan::{AggFunc, QueryBuilder};
    let group_by = |col: usize| {
        let mut b = QueryBuilder::new();
        let o = b.table("orders");
        b.aggregate(&[(o, col)], vec![AggFunc::Count]);
        b.build().unwrap()
    };
    let config = PopConfig {
        budget: Budget {
            max_resident_bytes: Some(64 << 10),
            ..Budget::default()
        },
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(correlated_db(), config).unwrap();
    let err = exec
        .run(&group_by(0), &Params::none())
        .expect_err("50k groups cannot fit in 64 KiB");
    assert!(matches!(err, PopError::BudgetExceeded(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
    // The reservation was released with the failed run: a small group
    // table still fits afterwards.
    let few = exec.run(&group_by(1), &Params::none()).unwrap();
    assert_eq!(few.rows.len(), 1000);
}

/// `execute_plan` runs a caller's plan under the same query session as
/// `run`: buffer-pool frames count against the resident-byte budget, and
/// the storage layer fires from the configured fault plan.
#[test]
fn execute_plan_charges_pool_frames_to_the_byte_budget() {
    let storage = pop_storage::StorageConfig {
        buffer_pool_bytes: 1 << 20,
        ..pop_storage::StorageConfig::paged()
    };
    let cat = pop_tpch::tpch_catalog_with(0.01, storage).unwrap();
    let q6 = pop_tpch::q6();
    let executor = |budget, faults| {
        let config = PopConfig {
            budget,
            faults,
            ..PopConfig::default()
        };
        PopExecutor::new(cat.clone(), config).unwrap()
    };
    let tight = Budget {
        max_resident_bytes: Some(16 << 10),
        ..Budget::default()
    };
    let exec = executor(tight, None);
    let plan = exec.plan(&q6, &Params::none()).unwrap();
    for (entry, result) in [
        ("run", exec.run(&q6, &Params::none())),
        (
            "execute_plan",
            exec.execute_plan(&q6, &plan, &Params::none()),
        ),
    ] {
        let err = result.expect_err("LINEITEM's pages cannot fit in 16 KiB of frames");
        assert!(matches!(err, PopError::BudgetExceeded(_)), "{entry}: {err}");
        assert_eq!(exec.catalog().temp_mv_count(), 0, "{entry}");
    }
    // The session ended with the failed run: frames are no longer charged.
    let unlimited = executor(Budget::unlimited(), None);
    assert_eq!(
        unlimited
            .execute_plan(&q6, &plan, &Params::none())
            .unwrap()
            .rows
            .len(),
        1
    );

    let faulty = executor(
        Budget::unlimited(),
        Some(FaultPlan::single(FaultKind::StorageRead, 0)),
    );
    let err = faulty
        .execute_plan(&q6, &plan, &Params::none())
        .expect_err("the first storage read fails");
    assert!(matches!(err, PopError::Execution(_)), "{err}");
}

/// Q14 on paged TPC-H SF 0.01 behind a pool of eight 8 KiB frames: an
/// index nested-loop join whose one outer batch of 337 PART rows
/// prefetches about 10 000 LINEITEM rows (≈ 200 KB decoded). LINEITEM is
/// read through that prefetch only (its `l_partkey` index is in memory).
fn paged_q14(budget: Budget, faults: Option<FaultPlan>) -> (PopExecutor, QuerySpec) {
    let storage = pop_storage::StorageConfig {
        buffer_pool_bytes: 64 << 10,
        ..pop_storage::StorageConfig::paged()
    };
    let cat = pop_tpch::tpch_catalog_with(0.01, storage).unwrap();
    let config = PopConfig {
        budget,
        faults,
        ..PopConfig::default()
    };
    (PopExecutor::new(cat, config).unwrap(), pop_tpch::q14())
}

/// The NLJN's prefetched inner rows are resident operator state, like a
/// hash build's: a byte budget that holds the pool's frames and the rest
/// of the plan's state (a CHECK valve) but not the prefetch window fails
/// typed, and one that holds the window runs.
#[test]
fn nljn_prefetch_window_is_charged_to_the_byte_budget() {
    let limit = |kib: u64| Budget {
        max_resident_bytes: Some(kib << 10),
        ..Budget::default()
    };
    let (exec, q14) = paged_q14(limit(128), None);
    let err = exec
        .run(&q14, &Params::none())
        .expect_err("10 000 prefetched LINEITEM rows cannot fit in 128 KiB");
    assert!(matches!(err, PopError::BudgetExceeded(_)), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);

    let (exec, q14) = paged_q14(limit(384), None);
    let fits = exec.run(&q14, &Params::none()).unwrap();
    let summary = fits.report.summary();
    assert!(summary.contains("NLJN(->lineitem"), "{summary}");
    let (exec, q14) = paged_q14(Budget::unlimited(), None);
    assert_eq!(exec.run(&q14, &Params::none()).unwrap().rows, fits.rows);
}

/// A short read inside a prefetch surfaces as the pager's typed
/// short-read error. The fault lands on the run's last page read, which
/// the error names as a LINEITEM page: a prefetch read.
#[test]
fn short_read_inside_a_prefetch_is_a_typed_error() {
    let (exec, q14) = paged_q14(Budget::unlimited(), None);
    let reads = exec
        .run(&q14, &Params::none())
        .unwrap()
        .report
        .storage
        .expect("a paged run")
        .pages_read;
    let last = FaultPlan::single(FaultKind::ShortRead, reads - 1);
    let (exec, q14) = paged_q14(Budget::unlimited(), Some(last));
    let err = exec
        .run(&q14, &Params::none())
        .expect_err("the last page read comes back short");
    assert!(matches!(err, PopError::Execution(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("injected fault: short read of page"), "{msg}");
    assert!(msg.contains("lineitem.dat"), "{msg}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
}

#[test]
fn generous_budget_changes_nothing() {
    let config = PopConfig {
        budget: Budget {
            max_work: Some(1e15),
            max_rows: Some(u64::MAX),
            max_resident_bytes: Some(u64::MAX),
            ..Budget::default()
        },
        ..PopConfig::default()
    };
    let guarded = PopExecutor::new(correlated_db(), config).unwrap();
    let plain = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
    let a = sorted(
        guarded
            .run(&correlated_query(), &Params::none())
            .unwrap()
            .rows,
    );
    let b = sorted(
        plain
            .run(&correlated_query(), &Params::none())
            .unwrap()
            .rows,
    );
    assert_eq!(a, b, "an untripped budget must not change results");
}

#[test]
fn cancellation_aborts_with_typed_error() {
    let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let err = exec
        .run_with(&correlated_query(), &Params::none(), Some(token))
        .expect_err("a pre-cancelled token must abort at the first batch");
    assert!(matches!(err, PopError::Cancelled), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0);
    // An untripped token is inert.
    let live = CancelToken::new();
    let res = exec
        .run_with(&correlated_query(), &Params::none(), Some(live))
        .unwrap();
    assert_eq!(res.rows.len(), CORRELATED_ROWS);
}

/// Storage faults fire mid-stream — including after rows were returned —
/// and must still surface typed and leak-free.
#[test]
fn storage_fault_deep_in_the_stream() {
    for at in [0u64, 10, 100] {
        let config = PopConfig {
            faults: Some(FaultPlan::single(FaultKind::StorageRead, at)),
            ..PopConfig::default()
        };
        let exec = PopExecutor::new(correlated_db(), config).unwrap();
        match exec.run(&correlated_query(), &Params::none()) {
            Ok(res) => assert_eq!(res.rows.len(), CORRELATED_ROWS),
            Err(e) => assert!(matches!(e, PopError::Execution(_)), "{e}"),
        }
        assert_eq!(
            exec.catalog().temp_mv_count(),
            0,
            "storage@{at} leaked a temp MV"
        );
    }
}
