//! End-to-end: the driver's static plan verification (`pop-planlint`)
//! gates the optimizer -> executor boundary. A Deny-severity finding
//! rejects the plan before a single row is read; `LintMode` controls
//! whether findings reject, warn, or are skipped.

use pop::{LintMode, PopConfig, PopExecutor, ValidityRange};
use pop_expr::{Expr, Params};
use pop_plan::{PhysNode, QueryBuilder, QuerySpec};
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, PopError, Schema, Value};

fn db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "customer",
        Schema::from_pairs(&[("cid", DataType::Int), ("grp", DataType::Int)]),
        (0..500).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )
    .unwrap();
    cat.create_table(
        "orders",
        Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
        (0..5000).map(|i| vec![Value::Int(i), Value::Int(i % 500)]),
    )
    .unwrap();
    cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
    cat
}

fn query() -> QuerySpec {
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    let o = b.table("orders");
    b.join(c, 0, o, 1);
    b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
    b.build().unwrap()
}

/// A structurally broken plan: the root's validity range is inverted
/// (lo > hi, `PL101`). The corruption is invisible to the executor —
/// edge ranges on plan props are optimizer metadata — so any difference
/// in behaviour below comes from the verification gate alone.
fn corrupted_plan(exec: &PopExecutor, q: &QuerySpec) -> PhysNode {
    let mut plan = exec.plan(q, &Params::none()).unwrap();
    plan.props_mut().edge_ranges = vec![ValidityRange::new(5.0, 1.0)];
    plan
}

#[test]
fn enforce_rejects_malformed_plan_before_execution() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let q = query();
    let plan = corrupted_plan(&exec, &q);
    let err = exec.execute_plan(&q, &plan, &Params::none()).unwrap_err();
    match err {
        PopError::InvalidPlan(msg) => assert!(msg.contains("PL101"), "{msg}"),
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
}

#[test]
fn lint_off_executes_the_same_plan() {
    let config = PopConfig {
        lint: LintMode::Off,
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(db(), config).unwrap();
    let q = query();
    let plan = corrupted_plan(&exec, &q);
    let res = exec.execute_plan(&q, &plan, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 500); // 50 matching customers x 10 orders
    assert!(res.report.steps[0].lint_warnings.is_empty());
}

#[test]
fn warn_mode_reports_but_executes() {
    let config = PopConfig {
        lint: LintMode::Warn,
        ..PopConfig::default()
    };
    let exec = PopExecutor::new(db(), config).unwrap();
    let q = query();
    let plan = corrupted_plan(&exec, &q);
    let res = exec.execute_plan(&q, &plan, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 500);
    let warnings = &res.report.steps[0].lint_warnings;
    assert!(warnings.iter().any(|w| w.contains("PL101")), "{warnings:?}");
}

#[test]
fn valid_plan_passes_the_gate() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let q = query();
    let plan = exec.plan(&q, &Params::none()).unwrap();
    let res = exec.execute_plan(&q, &plan, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 500);
    assert!(res.report.steps[0].lint_warnings.is_empty());
}

#[test]
fn full_pop_run_is_lint_clean_under_enforce() {
    // The normal POP loop (default config enforces) completes: every
    // plan the optimizer produces passes its own verification.
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let res = exec.run(&query(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 500);
    for s in &res.report.steps {
        assert!(s.lint_warnings.is_empty(), "{:?}", s.lint_warnings);
    }
}
