//! Batch-size invariance of the vectorized engine.
//!
//! Batch boundaries must carry no semantics: running any query at any
//! batch size has to produce byte-identical rows *in the same order*, the
//! same optimize–execute step sequence, the same CHECK outcomes and
//! observed cardinalities, and the same re-optimization decisions as
//! `batch_size = 1` (which reproduces the classic row-at-a-time engine).
//! Work counters are deliberately **not** compared: per-batch charging
//! groups the same f64 terms differently, so totals agree only up to
//! floating-point associativity.

use pop::{CheckFlavor, FlavorSet, ObservedCard, PopConfig, PopExecutor, RunReport};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_tpch::{all_queries, tpch_catalog};
use pop_types::{DataType, Schema, Value};

const DMV_SCALE: f64 = 0.0003;
const TPCH_SF: f64 = 0.0005;
const BATCH_SIZES: [usize; 3] = [7, 64, 1024];

/// Compare everything discrete about two run reports: step sequence, plan
/// shapes, emitted rows, MV reuse, check events and violations.
fn assert_reports_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.steps.len(), b.steps.len(), "{what}: step count differs");
    assert_eq!(a.reopt_count, b.reopt_count, "{what}: reopt count differs");
    assert_eq!(
        a.budget_exhausted, b.budget_exhausted,
        "{what}: budget flag differs"
    );
    for (i, (sa, sb)) in a.steps.iter().zip(b.steps.iter()).enumerate() {
        assert_eq!(sa.plan, sb.plan, "{what} step {i}: plan differs");
        assert_eq!(sa.shape, sb.shape, "{what} step {i}: shape differs");
        assert_eq!(
            sa.rows_emitted, sb.rows_emitted,
            "{what} step {i}: rows_emitted differs"
        );
        assert_eq!(sa.mvs_used, sb.mvs_used, "{what} step {i}: mvs_used");
        assert_eq!(
            sa.check_events.len(),
            sb.check_events.len(),
            "{what} step {i}: event count differs"
        );
        for (ea, eb) in sa.check_events.iter().zip(sb.check_events.iter()) {
            assert_eq!(ea.check_id, eb.check_id, "{what} step {i}: check id");
            assert_eq!(ea.flavor, eb.flavor, "{what} step {i}: flavor");
            assert_eq!(
                format!("{:?}", ea.context),
                format!("{:?}", eb.context),
                "{what} step {i}: context"
            );
            assert_eq!(ea.outcome, eb.outcome, "{what} step {i}: outcome");
            assert_eq!(
                ea.observed, eb.observed,
                "{what} step {i}: observed cardinality differs at check #{}",
                ea.check_id
            );
            assert_eq!(ea.signature, eb.signature, "{what} step {i}: signature");
        }
        match (&sa.violation, &sb.violation) {
            (None, None) => {}
            (Some(va), Some(vb)) => {
                assert_eq!(va.check_id, vb.check_id, "{what} step {i}: viol check");
                assert_eq!(va.flavor, vb.flavor, "{what} step {i}: viol flavor");
                assert_eq!(va.observed, vb.observed, "{what} step {i}: viol observed");
                assert_eq!(va.forced, vb.forced, "{what} step {i}: viol forced");
                assert_eq!(
                    va.signature, vb.signature,
                    "{what} step {i}: viol signature"
                );
            }
            (x, y) => panic!("{what} step {i}: violation mismatch {x:?} vs {y:?}"),
        }
    }
}

fn config_with_batch(batch_size: usize) -> PopConfig {
    PopConfig {
        batch_size,
        ..PopConfig::default()
    }
}

/// Run a workload at the given batch size; rows are kept in emission
/// order (NOT sorted) so ordering differences fail the comparison.
fn run_workload(
    catalog: Catalog,
    queries: &[(String, pop::QuerySpec)],
    batch_size: usize,
) -> Vec<(Vec<Vec<Value>>, RunReport)> {
    let exec = PopExecutor::new(catalog, config_with_batch(batch_size)).unwrap();
    queries
        .iter()
        .map(|(name, q)| {
            let res = exec
                .run(q, &Params::none())
                .unwrap_or_else(|e| panic!("{name} @ batch {batch_size} failed: {e}"));
            (res.rows, res.report)
        })
        .collect()
}

fn assert_workload_invariant(
    make_catalog: impl Fn() -> Catalog,
    queries: &[(String, pop::QuerySpec)],
    label: &str,
) {
    let reference = run_workload(make_catalog(), queries, 1);
    for bs in BATCH_SIZES {
        let got = run_workload(make_catalog(), queries, bs);
        for (((rows_ref, rep_ref), (rows, rep)), (name, _)) in
            reference.iter().zip(got.iter()).zip(queries.iter())
        {
            let what = format!("{label}/{name} @ batch {bs}");
            assert_eq!(rows_ref, rows, "{what}: rows differ from row-at-a-time");
            assert_reports_equal(rep_ref, rep, &what);
        }
    }
}

#[test]
fn dmv_workload_is_batch_size_invariant() {
    let queries: Vec<(String, pop::QuerySpec)> = dmv_queries()
        .into_iter()
        .map(|q| (q.name.clone(), q.spec))
        .collect();
    assert_workload_invariant(|| dmv_catalog(DMV_SCALE).unwrap(), &queries, "dmv");
}

#[test]
fn tpch_suite_is_batch_size_invariant() {
    let queries: Vec<(String, pop::QuerySpec)> = all_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    assert_workload_invariant(|| tpch_catalog(TPCH_SF).unwrap(), &queries, "tpch");
}

// ---------------------------------------------------------------------
// ECDC under batching: a check that fires mid-batch must hand the app
// exactly the rows counted before the violation, and the deferred
// compensation of the next step must neither duplicate nor drop any row.
// ---------------------------------------------------------------------

/// Correlated data that breaks the independence assumption (16x
/// underestimate on the triple-equality filter), forcing a mid-pipeline
/// ECDC violation partway through a batch.
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
        (0..5000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Int(i % 4),
                    Value::Int(i % 4),
                ]
            })
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

fn spj_query() -> pop::QuerySpec {
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
    b.project(&[(c, 0), (o, 0)]);
    b.build().unwrap()
}

const EXPECTED_ROWS: usize = 12_500;

#[test]
fn ecdc_mid_batch_violation_neither_drops_nor_duplicates() {
    let mut reference: Option<(Vec<Vec<Value>>, RunReport)> = None;
    for bs in [1usize, 3, 64, 1024] {
        let mut cfg = config_with_batch(bs);
        cfg.optimizer.flavors = FlavorSet::only(CheckFlavor::Ecdc);
        let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
        let res = exec.run(&spj_query(), &Params::none()).unwrap();
        assert_eq!(
            res.rows.len(),
            EXPECTED_ROWS,
            "batch {bs}: dropped or duplicated rows"
        );
        let mut sorted = res.rows.clone();
        sorted.sort();
        let n = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "batch {bs}: duplicate rows returned");
        assert!(
            res.report.reopt_count >= 1,
            "batch {bs}: expected the ECDC check to fire"
        );
        match &reference {
            None => reference = Some((res.rows, res.report)),
            Some((rows_ref, rep_ref)) => {
                assert_eq!(rows_ref, &res.rows, "batch {bs}: rows differ");
                assert_reports_equal(rep_ref, &res.report, &format!("ecdc @ batch {bs}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Thread-count invariance of partition-parallel execution.
//
// Plans DIFFER between thread counts (a parallel plan carries GATHER /
// EXCHANGE nodes and fold-registered checks), so unlike the batch-size
// comparison above we do not compare plan strings or per-step row
// counts: a violated parallel region discards its buffered rows and
// re-emits nothing, whereas a violated serial pipeline hands back the
// rows counted before the violation (deferred compensation makes the
// final multiset identical either way). What must be invariant: the
// final row multiset, the re-optimization decisions, and every check
// event's stable fields (id, flavor, outcome, observed cardinality,
// signature).
// ---------------------------------------------------------------------

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn config_with_threads(batch_size: usize, threads: usize) -> PopConfig {
    let mut cfg = config_with_batch(batch_size);
    cfg.optimizer.threads = threads;
    // Test catalogs are tiny; drop the size gate so regions actually form.
    cfg.optimizer.min_parallel_rows = 0.0;
    cfg
}

/// The thread-count-invariant projection of a run report.
fn stable_summary(rep: &RunReport) -> Vec<(usize, String)> {
    let mut events: Vec<(usize, String)> = rep
        .steps
        .iter()
        .flat_map(|s| s.check_events.iter())
        .map(|e| {
            (
                e.check_id,
                format!(
                    "{:?}/{:?}/{:?}/{}",
                    e.flavor, e.outcome, e.observed, e.signature
                ),
            )
        })
        .collect();
    events.sort();
    events
}

fn run_workload_threads(
    catalog: Catalog,
    queries: &[(String, pop::QuerySpec)],
    batch_size: usize,
    threads: usize,
) -> Vec<(Vec<Vec<Value>>, RunReport)> {
    let exec = PopExecutor::new(catalog, config_with_threads(batch_size, threads)).unwrap();
    queries
        .iter()
        .map(|(name, q)| {
            let res = exec.run(q, &Params::none()).unwrap_or_else(|e| {
                panic!("{name} @ batch {batch_size} threads {threads} failed: {e}")
            });
            let mut rows = res.rows;
            rows.sort();
            (rows, res.report)
        })
        .collect()
}

fn assert_thread_invariant(
    make_catalog: impl Fn() -> Catalog,
    queries: &[(String, pop::QuerySpec)],
    label: &str,
) {
    for bs in [1usize, 1024] {
        let reference = run_workload_threads(make_catalog(), queries, bs, 1);
        for threads in THREAD_COUNTS {
            let got = run_workload_threads(make_catalog(), queries, bs, threads);
            // Guard against degrading to serial-vs-serial.
            let regions: usize = got
                .iter()
                .flat_map(|(_, rep)| rep.steps.iter())
                .map(|s| s.parallel.len())
                .sum();
            assert!(
                regions > 0,
                "{label} @ threads {threads}: no region executed"
            );
            for (((rows_ref, rep_ref), (rows, rep)), (name, _)) in
                reference.iter().zip(got.iter()).zip(queries.iter())
            {
                let what = format!("{label}/{name} @ batch {bs} threads {threads}");
                assert_eq!(rows_ref, rows, "{what}: row multiset differs from serial");
                assert_eq!(
                    rep_ref.reopt_count, rep.reopt_count,
                    "{what}: reopt count differs"
                );
                assert_eq!(
                    stable_summary(rep_ref),
                    stable_summary(rep),
                    "{what}: check events differ"
                );
            }
        }
    }
}

#[test]
fn dmv_workload_is_thread_count_invariant() {
    let queries: Vec<(String, pop::QuerySpec)> = dmv_queries()
        .into_iter()
        .map(|q| (q.name.clone(), q.spec))
        .collect();
    assert_thread_invariant(|| dmv_catalog(DMV_SCALE).unwrap(), &queries, "dmv");
}

#[test]
fn tpch_suite_is_thread_count_invariant() {
    let queries: Vec<(String, pop::QuerySpec)> = all_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    assert_thread_invariant(|| tpch_catalog(TPCH_SF).unwrap(), &queries, "tpch");
}

/// Morsel boundaries, like batch boundaries, must carry no semantics:
/// any morsel size at any thread count reproduces the serial run's rows,
/// step sequence and check events exactly. `1` degenerates to one chain
/// per input row — the worst case for scheduling-order bugs.
const MORSEL_SIZES: [usize; 4] = [1, 7, 64, 1024];

fn run_workload_morsels(
    catalog: Catalog,
    queries: &[(String, pop::QuerySpec)],
    morsel_size: usize,
    threads: usize,
) -> Vec<(Vec<Vec<Value>>, RunReport)> {
    let mut cfg = config_with_threads(1024, threads);
    cfg.morsel_size = morsel_size;
    let exec = PopExecutor::new(catalog, cfg).unwrap();
    queries
        .iter()
        .map(|(name, q)| {
            let res = exec.run(q, &Params::none()).unwrap_or_else(|e| {
                panic!("{name} @ morsel {morsel_size} threads {threads} failed: {e}")
            });
            let mut rows = res.rows;
            rows.sort();
            (rows, res.report)
        })
        .collect()
}

#[test]
fn tpch_suite_is_morsel_size_invariant() {
    let queries: Vec<(String, pop::QuerySpec)> = all_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    let reference = run_workload_morsels(tpch_catalog(TPCH_SF).unwrap(), &queries, 1024, 1);
    for ms in MORSEL_SIZES {
        for threads in [1usize, 2, 4, 8] {
            let got = run_workload_morsels(tpch_catalog(TPCH_SF).unwrap(), &queries, ms, threads);
            for (((rows_ref, rep_ref), (rows, rep)), (name, _)) in
                reference.iter().zip(got.iter()).zip(queries.iter())
            {
                let what = format!("tpch/{name} @ morsel {ms} threads {threads}");
                assert_eq!(rows_ref, rows, "{what}: row multiset differs from serial");
                assert_eq!(
                    rep_ref.steps.len(),
                    rep.steps.len(),
                    "{what}: step count differs"
                );
                assert_eq!(
                    rep_ref.reopt_count, rep.reopt_count,
                    "{what}: reopt count differs"
                );
                assert_eq!(
                    stable_summary(rep_ref),
                    stable_summary(rep),
                    "{what}: check events differ"
                );
            }
        }
    }
}

/// Parallel plans must actually form on this workload — otherwise the
/// invariance suite silently degenerates into serial-vs-serial.
#[test]
fn parallel_regions_actually_form() {
    let exec = PopExecutor::new(correlated_db(), config_with_threads(1024, 4)).unwrap();
    let plan = exec.plan(&spj_query(), &Params::none()).unwrap();
    assert!(
        plan.to_string().contains("GATHER"),
        "no parallel region in:\n{plan}"
    );
}

/// Every executed parallel region surfaces its scheduling diagnostics on
/// the step report: degree of parallelism, morsel count and per-worker
/// morsel/steal/wait/compute figures. At least one TPC-H region must
/// actually run a many-morsel, work-stealing schedule.
#[test]
fn parallel_regions_report_morsel_diagnostics() {
    let mut cfg = config_with_threads(1024, 4);
    cfg.morsel_size = 64; // small morsels: many per worker
    let exec = PopExecutor::new(tpch_catalog(TPCH_SF).unwrap(), cfg).unwrap();
    let mut morsel_regions = 0usize;
    let mut summary_seen = false;
    for (name, q) in all_queries() {
        let res = exec
            .run(&q, &Params::none())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        for d in res.report.steps.iter().flat_map(|s| s.parallel.iter()) {
            assert!(
                d.dop >= 2,
                "{name}: diag on a serial region: {}",
                d.summary()
            );
            assert!(!d.workers.is_empty(), "{name}: no worker diags");
            let claimed: u64 = d.workers.iter().map(|w| w.morsels).sum();
            assert!(
                claimed >= d.morsels as u64,
                "{name}: workers claimed {claimed} of {} morsels: {}",
                d.morsels,
                d.summary()
            );
            if d.morsels > d.dop {
                morsel_regions += 1;
            }
        }
        summary_seen |= res.report.summary().contains("parallel: dop=");
    }
    assert!(morsel_regions > 0, "no region ran morsel-driven");
    assert!(summary_seen, "region diagnostics missing from the summary");
}

/// The ECDC mid-batch violation scenario, under a parallel region: the
/// fold-registered check trips on the *global* count, the region
/// discards its buffered rows, and deferred compensation still yields
/// exactly the serial multiset at every thread count.
#[test]
fn ecdc_violation_is_thread_count_invariant() {
    let mut reference: Option<(Vec<Vec<Value>>, usize)> = None;
    for threads in [1usize, 2, 4, 8] {
        for bs in [1usize, 1024] {
            let mut cfg = config_with_threads(bs, threads);
            cfg.optimizer.flavors = FlavorSet::only(CheckFlavor::Ecdc);
            let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
            let res = exec.run(&spj_query(), &Params::none()).unwrap();
            assert_eq!(
                res.rows.len(),
                EXPECTED_ROWS,
                "threads {threads} batch {bs}: dropped or duplicated rows"
            );
            let mut sorted = res.rows.clone();
            sorted.sort();
            let n = sorted.len();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                n,
                "threads {threads} batch {bs}: duplicate rows returned"
            );
            assert!(
                res.report.reopt_count >= 1,
                "threads {threads} batch {bs}: expected the ECDC check to fire"
            );
            match &reference {
                None => reference = Some((sorted, res.report.reopt_count)),
                Some((rows_ref, reopt_ref)) => {
                    assert_eq!(
                        rows_ref, &sorted,
                        "threads {threads} batch {bs}: rows differ"
                    );
                    assert_eq!(
                        *reopt_ref, res.report.reopt_count,
                        "threads {threads} batch {bs}: reopt count differs"
                    );
                }
            }
        }
    }
}

/// Same scenario but with hash joins forced, so the violation happens
/// under a parallel probe of a shared (controller-built) hash table.
#[test]
fn ecdc_violation_under_parallel_hash_probe() {
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for threads in [1usize, 4] {
        let mut cfg = config_with_threads(1024, threads);
        cfg.optimizer.flavors = FlavorSet::only(CheckFlavor::Ecdc);
        cfg.optimizer.joins = pop::JoinMethods {
            nljn: false,
            hsjn: true,
            mgjn: false,
        };
        let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
        let res = exec.run(&spj_query(), &Params::none()).unwrap();
        let mut sorted = res.rows;
        sorted.sort();
        assert_eq!(
            sorted.len(),
            EXPECTED_ROWS,
            "threads {threads}: wrong row count"
        );
        match &reference {
            None => reference = Some(sorted),
            Some(r) => assert_eq!(r, &sorted, "threads {threads}: rows differ"),
        }
    }
}

/// The monitor/sampling layer must be deterministic across parallelism
/// shape: the fired suboptimality signals (signature, tripped bound,
/// observation) and the sampling vet's decision are identical across
/// threads 1/2/4/8 × morsel sizes 1/1024. In-region monitors fold their
/// counts into shared cells whose trip observation is derived from the
/// bound, not from scheduling order, so the signal content cannot depend
/// on which worker happened to cross the threshold.
#[test]
fn monitor_signals_and_vet_decisions_are_parallelism_invariant() {
    let no_check_cfg = |threads: usize, morsel: usize, monitor: bool, vet: bool| {
        let mut cfg = config_with_threads(1024, threads);
        cfg.morsel_size = morsel;
        cfg.optimizer.flavors = FlavorSet::none();
        cfg.monitor = monitor;
        // The correlated filter is a 16x underestimate; the default 32x
        // drift envelope would absorb it.
        cfg.monitor_drift = 4.0;
        cfg.sample_vet = vet;
        cfg
    };
    type MonitorSummary = (usize, Vec<(String, u64, u64)>);
    let mut monitor_ref: Option<MonitorSummary> = None;
    let mut vet_ref: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        for morsel in [1usize, 1024] {
            let what = format!("threads {threads} morsel {morsel}");

            // Monitor path: flavors off, vet off — only the continuous
            // monitors stand between the misestimate and the root.
            let cfg = no_check_cfg(threads, morsel, true, false);
            let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
            let res = exec.run(&spj_query(), &Params::none()).unwrap();
            assert_eq!(res.rows.len(), EXPECTED_ROWS, "{what}: wrong rows");
            let mut signals: Vec<(String, u64, u64)> = res
                .report
                .steps
                .iter()
                .flat_map(|s| s.monitors.iter())
                .map(|m| (m.signature.clone(), m.trip, m.observed))
                .collect();
            signals.sort();
            assert!(!signals.is_empty(), "{what}: no monitor fired");
            let summary = (res.report.reopt_count, signals);
            match &monitor_ref {
                None => monitor_ref = Some(summary),
                Some(r) => assert_eq!(r, &summary, "{what}: monitor signals differ"),
            }

            // Vet path: the pre-run sampling decision must not depend on
            // the parallel shape either (the vet always runs the serial
            // skeleton).
            let cfg = no_check_cfg(threads, morsel, false, true);
            let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
            let res = exec.run(&spj_query(), &Params::none()).unwrap();
            assert_eq!(res.rows.len(), EXPECTED_ROWS, "{what}: wrong rows");
            assert!(
                res.report.sample_vet.is_some(),
                "{what}: risky no-CHECK plan was not sample-vetted"
            );
            let sv = format!("{:?}", res.report.sample_vet);
            match &vet_ref {
                None => vet_ref = Some(sv),
                Some(r) => assert_eq!(r, &sv, "{what}: sample-vet decision differs"),
            }
        }
    }
}

/// Exact observations (checks that drained their producer, including
/// CHECKs above materializations) must report the same materialized
/// count at every batch size.
#[test]
fn materialized_counts_are_batch_size_invariant() {
    let mut reference: Option<Vec<(usize, ObservedCard)>> = None;
    for bs in [1usize, 5, 1024] {
        let exec = PopExecutor::new(correlated_db(), config_with_batch(bs)).unwrap();
        let res = exec.run(&spj_query(), &Params::none()).unwrap();
        let exact: Vec<(usize, ObservedCard)> = res
            .report
            .steps
            .iter()
            .flat_map(|s| s.check_events.iter())
            .filter(|e| e.observed.is_exact())
            .map(|e| (e.check_id, e.observed))
            .collect();
        match &reference {
            None => reference = Some(exact),
            Some(r) => assert_eq!(r, &exact, "batch {bs}: exact counts differ"),
        }
    }
}
