//! Chaos suite for morsel-parallel execution: the fault-site sweep of
//! `tests/chaos.rs` re-run with a 4-way worker pool, so every injected
//! failure also exercises region quiesce — the stop flag, bounded
//! exchange queues and the scoped worker join.
//!
//! Invariants, on every exit path:
//!
//! * errors surface as typed [`PopError`] values — never panics;
//! * no temporary MV leaks out of the catalog;
//! * when the run completes despite the fault, the rows are exactly the
//!   serial no-fault baseline — neither dropped nor duplicated;
//! * the suite *terminating* is itself the deadlock check: a worker
//!   blocked on a full/empty bounded queue would hang the sweep;
//! * a fixed fault seed reproduces the identical outcome.

use pop::{Budget, CancelToken, FaultKind, FaultPlan, PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::QuerySpec;
use pop_storage::Catalog;
use pop_tpch::{all_queries, tpch_catalog};
use pop_types::{PopError, Value};

const DMV_SCALE: f64 = 0.0003;
const TPCH_SF: f64 = 0.0005;
const THREADS: usize = 4;

/// How many occurrences of each hook site the sweep covers. Shallower
/// than the serial sweep: every configuration here runs the whole
/// region machinery, which is the expensive part under test.
const SWEEP_DEPTH: u64 = 2;

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// 4-way parallel POP configuration with the region size gate dropped,
/// so the tiny test catalogs actually form parallel regions.
fn parallel_config() -> PopConfig {
    let mut cfg = PopConfig::default();
    cfg.optimizer.threads = THREADS;
    cfg.optimizer.min_parallel_rows = 0.0;
    cfg
}

fn workload() -> (Catalog, Vec<(String, QuerySpec)>) {
    let cat = dmv_catalog(DMV_SCALE).unwrap();
    let queries = dmv_queries()
        .into_iter()
        .take(4)
        .map(|q| (q.name, q.spec))
        .collect();
    (cat, queries)
}

fn tpch_workload() -> (Catalog, Vec<(String, QuerySpec)>) {
    let cat = tpch_catalog(TPCH_SF).unwrap();
    let queries = all_queries()
        .into_iter()
        .take(3)
        .map(|(name, q)| (name.to_string(), q))
        .collect();
    (cat, queries)
}

/// Baseline rows per query: serial, no POP, faults/budget pinned off.
fn baselines(cat: &Catalog, queries: &[(String, QuerySpec)]) -> Vec<Vec<Vec<Value>>> {
    let config = PopConfig {
        faults: None,
        budget: Budget::unlimited(),
        ..PopConfig::without_pop()
    };
    let exec = PopExecutor::new(cat.clone(), config).unwrap();
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

/// Every fault kind at occurrence indices `0..SWEEP_DEPTH`, against every
/// query, at 4 worker threads.
fn sweep(cat: &Catalog, queries: &[(String, QuerySpec)]) {
    let base = baselines(cat, queries);
    for kind in FaultKind::ALL {
        for at in 0..SWEEP_DEPTH {
            let config = PopConfig {
                faults: Some(FaultPlan::single(kind, at)),
                ..parallel_config()
            };
            let exec = PopExecutor::new(cat.clone(), config).unwrap();
            for ((name, q), expected) in queries.iter().zip(&base) {
                let what = format!("{name} x{THREADS} under {}@{at}", kind.as_str());
                match exec.run(q, &Params::none()) {
                    Ok(res) => assert_eq!(sorted(res.rows), *expected, "{what}: wrong rows"),
                    Err(e) => assert!(
                        matches!(e, PopError::Execution(_) | PopError::Planning(_)),
                        "{what}: unexpected error kind: {e}"
                    ),
                }
                assert_eq!(exec.catalog().temp_mv_count(), 0, "{what}: leaked temp MV");
            }
        }
    }
}

#[test]
fn parallel_chaos_sweep_dmv() {
    let (cat, queries) = workload();
    sweep(&cat, &queries);
}

#[test]
fn parallel_chaos_sweep_tpch() {
    let (cat, queries) = tpch_workload();
    sweep(&cat, &queries);
}

#[test]
fn parallel_chaos_is_deterministic_per_seed() {
    let (cat, queries) = workload();
    let fingerprint = |exec: &PopExecutor, q: &QuerySpec| match exec.run(q, &Params::none()) {
        Ok(res) => format!(
            "ok rows={:?} reopts={} degraded={}",
            sorted(res.rows),
            res.report.reopt_count,
            res.report.degraded,
        ),
        Err(e) => format!("err {e}"),
    };
    for seed in [7u64, 0xC0FFEE] {
        let config = PopConfig {
            faults: Some(FaultPlan::from_seed(seed)),
            ..parallel_config()
        };
        for (name, q) in &queries {
            let a = fingerprint(&PopExecutor::new(cat.clone(), config.clone()).unwrap(), q);
            let b = fingerprint(&PopExecutor::new(cat.clone(), config.clone()).unwrap(), q);
            assert_eq!(a, b, "{name} x{THREADS} seed {seed} is not reproducible");
        }
    }
}

/// A two-table database with a correlation the optimizer cannot see —
/// large enough that partition chains actually stream batches (the
/// cancellation token is polled at batch boundaries).
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
        ]),
        (0..5000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 4), Value::Int(i % 4)])
            .collect(),
    )
    .unwrap();
    cat.create_table(
        "orders",
        Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
        (0..50_000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 1000)])
            .collect(),
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
            .and(Expr::col(c, 2).eq(Expr::lit(3i64))),
    );
    b.build().unwrap()
}

/// Cancellation must quiesce a running region: workers blocked on
/// exchange queues wake up, the scope joins, and nothing leaks.
#[test]
fn parallel_cancellation_quiesces_cleanly() {
    let exec = PopExecutor::new(correlated_db(), parallel_config()).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let err = exec
        .run_with(&correlated_query(), &Params::none(), Some(token))
        .expect_err("a pre-cancelled token must abort");
    assert!(matches!(err, PopError::Cancelled), "{err}");
    assert_eq!(exec.catalog().temp_mv_count(), 0, "cancel leaked a temp MV");
    // An untripped token is inert, and the parallel rows match serial.
    let serial = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
    let expected = sorted(
        serial
            .run(&correlated_query(), &Params::none())
            .unwrap()
            .rows,
    );
    let live = CancelToken::new();
    let res = exec
        .run_with(&correlated_query(), &Params::none(), Some(live))
        .unwrap();
    assert_eq!(sorted(res.rows), expected, "live-token rows diverge");
}

/// A storage fault mid-morsel, under a work-stealing pool: tiny morsels
/// force every region into a many-morsel schedule where workers race and
/// steal across home spans, and each task's cloned injector arms the
/// fault inside the morsel chain — so the raise happens mid-task,
/// between morsel boundaries, on whichever worker (owner or thief) runs
/// it. The quiesce and raiser-selection invariants must hold regardless:
/// typed errors or exact baseline rows, no temp-MV leaks, and a
/// schedule-independent outcome across repeated runs.
#[test]
fn parallel_chaos_fault_mid_morsel_under_stealing() {
    let (cat, queries) = tpch_workload();
    let base = baselines(&cat, &queries);
    // Preflight, no faults: this workload at this morsel size must run
    // morsel-driven regions with more morsels than workers — otherwise
    // the sweep below exercises nothing mid-morsel.
    let mut preflight = parallel_config();
    preflight.morsel_size = 16;
    let exec = PopExecutor::new(cat.clone(), preflight).unwrap();
    let morsel_regions: usize = queries
        .iter()
        .map(|(name, q)| {
            let res = exec
                .run(q, &Params::none())
                .unwrap_or_else(|e| panic!("{name} preflight failed: {e}"));
            res.report
                .steps
                .iter()
                .flat_map(|s| s.parallel.iter())
                .filter(|d| d.morsels > d.dop)
                .count()
        })
        .sum();
    assert!(morsel_regions > 0, "no query ran a morsel-driven region");
    for at in 0..SWEEP_DEPTH {
        let mut config = PopConfig {
            faults: Some(FaultPlan::single(FaultKind::StorageRead, at)),
            ..parallel_config()
        };
        config.morsel_size = 16; // many morsels per worker: steals happen
        let exec = PopExecutor::new(cat.clone(), config.clone()).unwrap();
        for ((name, q), expected) in queries.iter().zip(&base) {
            let what = format!("{name} x{THREADS} morsel16 storage-read@{at}");
            let fingerprint = |e: &PopExecutor| match e.run(q, &Params::none()) {
                Ok(res) => format!(
                    "ok rows={:?} reopts={}",
                    sorted(res.rows),
                    res.report.reopt_count
                ),
                Err(e) => format!("err {e}"),
            };
            let a = fingerprint(&exec);
            match exec.run(q, &Params::none()) {
                Ok(res) => assert_eq!(sorted(res.rows), *expected, "{what}: wrong rows"),
                Err(e) => assert!(
                    matches!(e, PopError::Execution(_) | PopError::Planning(_)),
                    "{what}: unexpected error kind: {e}"
                ),
            }
            assert_eq!(exec.catalog().temp_mv_count(), 0, "{what}: leaked temp MV");
            let b = fingerprint(&PopExecutor::new(cat.clone(), config.clone()).unwrap());
            assert_eq!(a, b, "{what}: outcome depends on the schedule");
        }
    }
}

/// A tight work budget trips mid-region (workers publish their work to
/// the shared governor ledger); the abort must be typed and leak-free.
#[test]
fn parallel_budget_exhaustion_is_clean() {
    let (cat, queries) = workload();
    for max_work in [50.0, 500.0, 5_000.0] {
        let config = PopConfig {
            budget: Budget {
                max_work: Some(max_work),
                ..Budget::unlimited()
            },
            ..parallel_config()
        };
        let exec = PopExecutor::new(cat.clone(), config).unwrap();
        for (name, q) in &queries {
            let what = format!("{name} x{THREADS} budget {max_work}");
            match exec.run(q, &Params::none()) {
                Ok(_) => {}
                Err(e) => assert!(
                    matches!(e, PopError::BudgetExceeded(_) | PopError::Execution(_)),
                    "{what}: unexpected error kind: {e}"
                ),
            }
            assert_eq!(exec.catalog().temp_mv_count(), 0, "{what}: leaked temp MV");
        }
    }
}
