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

/// The ECDC scenario with hash joins forced: ECDC checks guard the
/// hash-join plan's pipeline and every row comes back exactly once,
/// identically at every batch size. (With one join method there is no
/// alternative plan, so the ranges are unbounded and no check fires here;
/// `checkpoint_flavors::ecdc_compensates_already_returned_rows` covers the
/// violation itself.)
#[test]
fn ecdc_checks_on_a_hash_probe_return_every_row_once() {
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for bs in [1usize, 1024] {
        let mut cfg = config_with_batch(bs);
        cfg.optimizer.flavors = FlavorSet::only(CheckFlavor::Ecdc);
        cfg.optimizer.joins = pop::JoinMethods {
            nljn: false,
            hsjn: true,
            mgjn: false,
        };
        let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
        let res = exec.run(&spj_query(), &Params::none()).unwrap();
        assert!(
            res.report.steps[0].shape.ends_with("HSJN"),
            "batch {bs}: {}",
            res.report.steps[0].shape
        );
        assert!(
            res.report.steps[0]
                .check_events
                .iter()
                .any(|e| e.flavor == CheckFlavor::Ecdc),
            "batch {bs}: no ECDC check on the hash-join plan"
        );
        let mut sorted = res.rows;
        sorted.sort();
        assert_eq!(sorted.len(), EXPECTED_ROWS, "batch {bs}: wrong row count");
        let mut distinct = sorted.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), EXPECTED_ROWS, "batch {bs}: duplicates");
        match &reference {
            None => reference = Some(sorted),
            Some(r) => assert_eq!(r, &sorted, "batch {bs}: rows differ"),
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
