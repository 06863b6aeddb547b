//! End-to-end behaviour of the five checkpoint flavors (§3 of the paper),
//! including ECDC's deferred compensation and exactly-once side effects.

use pop::{CheckFlavor, FlavorSet, PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::{AggFunc, PhysNode, QueryBuilder};
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};

/// Catalog with a correlation that breaks independence: grp_a == grp_b,
/// so `grp_a = k AND grp_b = k AND grp_c = k` is underestimated 16x.
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

/// SPJ query (pipelined — no aggregation) with the correlated filter.
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

fn config_with(flavors: FlavorSet) -> PopConfig {
    let mut cfg = PopConfig::default();
    cfg.optimizer.flavors = flavors;
    cfg
}

fn run_and_check(flavors: FlavorSet, expect_flavor: Option<CheckFlavor>) -> pop::RunReport {
    let exec = PopExecutor::new(correlated_db(), config_with(flavors)).unwrap();
    let q = spj_query();
    let res = exec.run(&q, &Params::none()).unwrap();
    // Correctness: right count, no duplicates.
    assert_eq!(res.rows.len(), EXPECTED_ROWS, "row count");
    let mut rows = res.rows.clone();
    rows.sort();
    rows.dedup();
    assert_eq!(rows.len(), EXPECTED_ROWS, "duplicates returned");
    if let Some(f) = expect_flavor {
        let fired = res
            .report
            .steps
            .iter()
            .filter_map(|s| s.violation.as_ref())
            .any(|v| v.flavor == f);
        assert!(
            fired,
            "expected a {f} violation; steps: {:#?}",
            res.report
                .steps
                .iter()
                .map(|s| (&s.shape, &s.violation))
                .collect::<Vec<_>>()
        );
    }
    res.report
}

#[test]
fn lcem_fires_and_recovers() {
    let report = run_and_check(
        FlavorSet {
            lc: true,
            lcem: true,
            ecb: false,
            ecwc: false,
            ecdc: false,
        },
        Some(CheckFlavor::Lcem),
    );
    assert!(report.reopt_count >= 1);
}

#[test]
fn ecb_fires_before_materialization_completes() {
    let report = run_and_check(
        FlavorSet {
            lc: false,
            lcem: false,
            ecb: true,
            ecwc: false,
            ecdc: false,
        },
        Some(CheckFlavor::Ecb),
    );
    assert!(report.reopt_count >= 1);
    // ECB aborts mid-stream: the observation is a lower bound, not exact.
    let v = report
        .steps
        .iter()
        .filter_map(|s| s.violation.as_ref())
        .find(|v| v.flavor == CheckFlavor::Ecb)
        .expect("ecb violation");
    assert!(
        matches!(v.observed, pop::ObservedCard::AtLeast(_)),
        "ECB must report a lower bound, got {:?}",
        v.observed
    );
}

#[test]
fn ecdc_compensates_already_returned_rows() {
    let report = run_and_check(
        FlavorSet {
            lc: false,
            lcem: false,
            ecb: false,
            ecwc: false,
            ecdc: true,
        },
        Some(CheckFlavor::Ecdc),
    );
    assert!(report.reopt_count >= 1);
    // The pipelined first step returned rows before the violation; the
    // re-optimized step must have compensated (no duplicates asserted in
    // run_and_check). Verify rows were indeed emitted early.
    let first = &report.steps[0];
    assert!(
        first.rows_emitted > 0,
        "ECDC test should emit rows before the violation"
    );
    assert!(first.rows_emitted < EXPECTED_ROWS);
}

#[test]
fn ecwc_checks_below_materializations() {
    // ECWC alone never fires here unless a materialization exists above;
    // enable LC too so sorts/temps appear, then verify ECWC checks are
    // placed and the query still returns correct results.
    let exec = PopExecutor::new(
        correlated_db(),
        config_with(FlavorSet {
            lc: true,
            lcem: true,
            ecb: false,
            ecwc: true,
            ecdc: false,
        }),
    )
    .unwrap();
    let q = spj_query();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), EXPECTED_ROWS);
}

#[test]
fn all_flavors_together_are_consistent() {
    let report = run_and_check(
        FlavorSet {
            lc: true,
            lcem: true,
            ecb: true,
            ecwc: true,
            ecdc: true,
        },
        None,
    );
    assert!(report.reopt_count >= 1);
}

#[test]
fn side_effects_apply_exactly_once_across_reopt() {
    let cat = correlated_db();
    cat.create_table(
        "sink",
        Schema::from_pairs(&[("cid", DataType::Int), ("oid", DataType::Int)]),
        vec![],
    )
    .unwrap();
    let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
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
    b.insert_into("sink");
    let q = b.build().unwrap();
    let res = exec.run(&q, &Params::none()).unwrap();
    let sink = exec.catalog().table("sink").unwrap();
    assert_eq!(
        sink.row_count(),
        EXPECTED_ROWS,
        "side effect applied wrong number of times (reopts={})",
        res.report.reopt_count
    );
}

#[test]
fn fixed_threshold_mode_fires_on_large_errors() {
    let mut cfg = PopConfig::default();
    cfg.optimizer.validity_mode = pop::ValidityMode::FixedFactor(4.0);
    let exec = PopExecutor::new(correlated_db(), cfg).unwrap();
    let q = spj_query();
    let res = exec.run(&q, &Params::none()).unwrap();
    // 16x misestimate > 4x threshold: must fire.
    assert!(res.report.reopt_count >= 1);
    assert_eq!(res.rows.len(), EXPECTED_ROWS);
}

/// Every CHECK id of the plan `exec` starts `q` with.
fn check_ids(exec: &PopExecutor, q: &pop::QuerySpec) -> Vec<usize> {
    let plan = exec.plan(q, &Params::none()).unwrap();
    let mut ids = Vec::new();
    plan.visit(&mut |n| match n {
        PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } => ids.push(spec.id),
        _ => {}
    });
    ids
}

/// An INSERT above an aggregate inserts each group exactly once. The
/// aggregate's rows carry no lineage; keyed by lineage, every row after
/// the first shared the empty key and was skipped.
#[test]
fn grouped_insert_applies_each_group_once() {
    // 30 rows in 3 groups.
    let cat = Catalog::new();
    cat.create_table(
        "t",
        Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]),
        (0..30).map(|i| vec![Value::Int(i % 3), Value::Int(i)]),
    )
    .unwrap();
    let sink = Schema::from_pairs(&[("g", DataType::Int), ("n", DataType::Int)]);
    cat.create_table("sink", sink.clone(), vec![]).unwrap();
    let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    let mut b = QueryBuilder::new();
    let t = b.table("t");
    b.aggregate(&[(t, 0)], vec![AggFunc::Count]);
    b.insert_into("sink");
    let res = exec.run(&b.build().unwrap(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 3);
    assert_eq!(exec.catalog().table("sink").unwrap().row_count(), 3);

    // The correlated join grouped by customer (250 groups of 50 orders),
    // as planned and with a forced re-optimization at each of its CHECKs.
    let grouped = || {
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
        b.aggregate(&[(c, 0)], vec![AggFunc::Count]);
        b.insert_into("sink");
        b.build().unwrap()
    };
    let want: Vec<Vec<Value>> = (3..1000)
        .step_by(4)
        .map(|c| vec![Value::Int(c), Value::Int(50)])
        .collect();
    let executor = |force: Option<usize>| {
        let cat = correlated_db();
        cat.create_table("sink", sink.clone(), vec![]).unwrap();
        let cfg = PopConfig {
            force_reopt_at: force,
            ..PopConfig::default()
        };
        PopExecutor::new(cat, cfg).unwrap()
    };
    let ids = check_ids(&executor(None), &grouped());
    assert!(!ids.is_empty(), "the grouped query places CHECKs");
    for force in std::iter::once(None).chain(ids.into_iter().map(Some)) {
        let exec = executor(force);
        let res = exec.run(&grouped(), &Params::none()).unwrap();
        let mut inserted = exec.catalog().table("sink").unwrap().snapshot();
        inserted.sort();
        assert_eq!(inserted, want, "force_reopt_at {force:?}");
        let mut rows = res.rows;
        rows.sort();
        assert_eq!(rows, want, "force_reopt_at {force:?}");
    }
}

/// Rows carry lineage only where something reads it: ECDC's deferred
/// compensation and INSERT's exactly-once dedup. Under the default flavors
/// a TPC-H query (Q3: hash joins, a sort) and a re-optimizing DMV query
/// return, harvest and so promote rows with no lineage; with ECDC in the
/// flavor set the same queries' harvests carry a rid per table, and so do
/// an INSERT's rows under the default flavors.
#[test]
fn lineage_is_carried_only_where_ecdc_or_insert_reads_it() {
    let storage = pop_storage::StorageConfig::default();
    let tpch = pop_tpch::tpch_catalog_with(0.0005, storage.clone()).unwrap();
    let dmv = pop_dmv::dmv_catalog_with(0.0003, storage).unwrap();
    let mut tpch = PopExecutor::new(tpch, PopConfig::default()).unwrap();
    let mut dmv = PopExecutor::new(dmv, PopConfig::default()).unwrap();
    let reopt = pop_dmv::dmv_queries()
        .into_iter()
        .find(|q| {
            let res = dmv.run(&q.spec, &Params::none()).unwrap();
            res.report.reopt_count > 0
        })
        .expect("a DMV query re-optimizes under the default flavors");
    let with_ecdc = FlavorSet {
        ecdc: true,
        ..FlavorSet::default()
    };
    let widths = |exec: &PopExecutor, q: &pop::QuerySpec| -> Vec<usize> {
        let res = exec.run(q, &Params::none()).unwrap();
        res.report.steps.iter().map(|s| s.lineage_width).collect()
    };
    for (name, exec, q) in [
        ("Q3", &mut tpch, pop_tpch::q3()),
        (reopt.name.as_str(), &mut dmv, reopt.spec.clone()),
    ] {
        exec.config_mut().optimizer.flavors = FlavorSet::default();
        assert!(!exec.carries_lineage(&q), "{name}");
        let off = widths(exec, &q);
        assert!(off.iter().all(|w| *w == 0), "{name} default: {off:?}");
        exec.config_mut().optimizer.flavors = with_ecdc;
        assert!(exec.carries_lineage(&q), "{name}");
        let on = widths(exec, &q);
        assert!(on.iter().any(|w| *w >= 1), "{name} with ECDC: {on:?}");
    }

    let cat = correlated_db();
    cat.create_table(
        "sink",
        Schema::from_pairs(&[("cid", DataType::Int), ("oid", DataType::Int)]),
        vec![],
    )
    .unwrap();
    let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    let mut q = spj_query();
    q.side_effect = Some("sink".into());
    assert!(exec.carries_lineage(&q));
    let insert = widths(&exec, &q);
    assert!(insert.iter().all(|w| *w >= 1), "INSERT: {insert:?}");
}
