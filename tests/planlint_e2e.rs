//! End-to-end: static plan verification (`pop-planlint`) at the
//! optimizer -> executor boundary. `execute_plan` rejects a
//! caller-supplied plan with a Deny-severity finding before a single row
//! is read, in every build. The driver's own plans meet the same gate in
//! debug builds only, as an invariant check on the optimizer: the sweep
//! at the end runs every workload plan, first plans and re-plans, through
//! it.

use pop::{lint_plan, LintContext, PopConfig, PopExecutor, ValidityRange};
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
fn valid_plan_passes_the_gate() {
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let q = query();
    let plan = exec.plan(&q, &Params::none()).unwrap();
    let res = exec.execute_plan(&q, &plan, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 500); // 50 matching customers x 10 orders
}

#[test]
fn full_pop_run_is_lint_clean_under_enforce() {
    // The normal POP loop completes (in debug builds every plan it runs
    // passed the deny gate), and its first plan draws no finding at all.
    let exec = PopExecutor::new(db(), PopConfig::default()).unwrap();
    let q = query();
    let res = exec.run(&q, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 500);
    let plan = exec.plan(&q, &Params::none()).unwrap();
    let ctx = LintContext::full(exec.catalog(), &q)
        .expect_check_coverage(true)
        .with_stats(exec.stats());
    let diags = lint_plan(&plan, &ctx);
    assert!(diags.is_empty(), "{diags:?}");
}

/// Runs every DMV (scale 0.0003) and TPC-H (SF 0.0005) query on one
/// backend under the `planlint` sweep's 8 flavor configurations, each
/// without and with a forced re-optimization at the first checkpoint.
/// Returns `(runs, re-optimizations, steps that reused a temp MV)`.
#[cfg(debug_assertions)]
fn sweep(
    storage: pop_storage::StorageConfig,
    cost_model: &pop::CostModel,
) -> (usize, usize, usize) {
    let dmv: Vec<(String, QuerySpec)> = pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect();
    let tpch: Vec<(String, QuerySpec)> = pop_tpch::all_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    let kind = storage.kind;
    let workloads = [
        (
            pop_dmv::dmv_catalog_with(0.0003, storage.clone()).unwrap(),
            dmv,
        ),
        (pop_tpch::tpch_catalog_with(0.0005, storage).unwrap(), tpch),
    ];
    let (mut runs, mut reopts, mut mv_steps) = (0, 0, 0);
    for (catalog, queries) in workloads {
        let mut exec = PopExecutor::new(catalog, PopConfig::default()).unwrap();
        for (flavor, flavors) in pop_bench::flavor_configs() {
            for force_reopt_at in [None, Some(0)] {
                let config = exec.config_mut();
                config.optimizer.flavors = flavors;
                // The `planlint` bin's memory budget.
                config.cost_model = cost_model.clone();
                config.cost_model.mem_rows = 4000.0;
                config.force_reopt_at = force_reopt_at;
                config.learn_across_queries = false;
                config.faults = None;
                for (name, spec) in &queries {
                    let res = exec.run(spec, &Params::none()).unwrap_or_else(|e| {
                        panic!("{kind:?} {name} [{flavor}] forced {force_reopt_at:?}: {e}")
                    });
                    runs += 1;
                    reopts += res.report.reopt_count;
                    mv_steps += res.report.steps.iter().filter(|s| s.mvs_used > 0).count();
                }
            }
        }
    }
    (runs, reopts, mv_steps)
}

/// Every plan `PopExecutor::run` executes over the DMV and TPC-H
/// workloads ([`sweep`]), on the mem backend and on pages (1 KiB pages,
/// a 16-frame pool), one backend a thread. Debug builds pass each first
/// plan and each re-plan — MV-bearing ones included — through the deny
/// gate, which panics on a Deny finding: the runs completing is the
/// assertion.
#[cfg(debug_assertions)]
#[test]
fn every_plan_the_driver_runs_passes_the_deny_gate() {
    use pop::CostModel;
    use pop_storage::{StorageConfig, StorageKind};

    let paged = StorageConfig {
        kind: StorageKind::Paged,
        page_size: 1024,
        buffer_pool_bytes: 16 * 1024,
        ..StorageConfig::default()
    };
    let (mem, paged) = std::thread::scope(|s| {
        let mem = s.spawn(|| sweep(StorageConfig::default(), &CostModel::default()));
        let paged = sweep(paged, &CostModel::paged());
        (mem.join().expect("the mem sweep"), paged)
    });
    let queries = pop_dmv::dmv_queries().len() + pop_tpch::all_queries().len();
    for (kind, (runs, reopts, mv_steps)) in [("mem", mem), ("paged", paged)] {
        assert_eq!(runs, 8 * 2 * queries, "{kind}");
        assert!(
            reopts > 0 && mv_steps > 0,
            "{kind}: {reopts} re-opt(s), {mv_steps} MV-bearing step(s)"
        );
    }
}
