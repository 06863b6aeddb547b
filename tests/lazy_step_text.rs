//! A step report keeps the plan it executed and renders its text on first
//! read. For every TPC-H and DMV query, on the mem and the paged backend,
//! under the default flavors and with a re-optimization forced at the
//! first check: each step's text is `PhysNode::to_string()` of its tree,
//! and the tree is the plan the step ran — its join shape, cost and MV
//! scans are the step's, every check event and the violation name a guard
//! of the tree over the same tables, and the first step's
//! tree is the first plan `PopExecutor::plan` returns.
//!
//! Release builds run the scales the benchmark runs (TPC-H SF 0.02, DMV
//! 0.004); debug builds, where planning is ~50x slower, smaller ones.

use pop::{PopConfig, PopExecutor, StepReport};
use pop_expr::Params;
use pop_plan::{PhysNode, QuerySpec, TableSet};
use pop_storage::{Catalog, StorageConfig, StorageKind};

fn scales() -> (f64, f64) {
    if cfg!(debug_assertions) {
        (0.002, 0.0005)
    } else {
        (0.02, 0.004)
    }
}

fn storage(kind: StorageKind) -> StorageConfig {
    StorageConfig {
        kind,
        page_size: 1024,
        buffer_pool_bytes: 64 * 1024,
        ..StorageConfig::default()
    }
}

/// `(check id, tables)` of every guard in `plan`.
fn guards(plan: &PhysNode) -> Vec<(usize, TableSet)> {
    let mut out = Vec::new();
    plan.visit(&mut |n| {
        if let PhysNode::Check { input, spec, .. } | PhysNode::BufCheck { input, spec, .. } = n {
            out.push((spec.id, input.props().tables));
        }
    });
    out
}

fn check_step(what: &str, step: &StepReport) {
    let tree = step.plan.tree();
    let text = tree.to_string();
    assert_eq!(step.plan, text.as_str(), "{what}: text is not the tree's");
    assert_eq!(format!("{}", step.plan), text, "{what}: Display");
    assert_eq!(step.shape, tree.join_shape(), "{what}: shape");
    assert_eq!(
        step.est_cost.to_bits(),
        tree.props().cost.to_bits(),
        "{what}: cost"
    );
    let mut mv_scans = 0;
    tree.visit(&mut |n| mv_scans += usize::from(matches!(n, PhysNode::MvScan { .. })));
    assert_eq!(step.mvs_used, mv_scans, "{what}: MV scans");
    let guards = guards(tree);
    let names_a_guard = |id: usize, tables: TableSet| guards.contains(&(id, tables));
    for ev in &step.check_events {
        assert!(
            names_a_guard(ev.check_id, ev.tables),
            "{what}: event of check #{} is no guard of the plan:\n{text}",
            ev.check_id
        );
    }
    if let Some(v) = &step.violation {
        assert!(
            names_a_guard(v.check_id, v.tables),
            "{what}: violated check #{} is no guard of the plan:\n{text}",
            v.check_id
        );
    }
}

fn check_suite(suite: &str, catalog: &Catalog, queries: &[(String, QuerySpec)]) -> usize {
    let mut reopts = 0;
    for forced in [None, Some(0)] {
        let config = PopConfig {
            force_reopt_at: forced,
            faults: None,
            learn_across_queries: false,
            budget: pop::Budget::default(),
            ..PopConfig::default()
        };
        let exec = PopExecutor::new(catalog.clone(), config).unwrap();
        for (name, spec) in queries {
            let result = exec.run(spec, &Params::none()).unwrap();
            let first = exec.plan(spec, &Params::none()).unwrap();
            let steps = &result.report.steps;
            assert_eq!(
                steps[0].plan,
                first.to_string().as_str(),
                "{suite} {name} forced={forced:?}: the first step ran another plan"
            );
            for (i, step) in steps.iter().enumerate() {
                check_step(&format!("{suite} {name} forced={forced:?} step {i}"), step);
            }
            reopts += result.report.reopt_count;
        }
    }
    reopts
}

#[test]
fn each_step_renders_the_plan_it_executed() {
    let (sf, dmv_scale) = scales();
    for kind in [StorageKind::Mem, StorageKind::Paged] {
        let tpch = pop_tpch::tpch_catalog_with(sf, storage(kind)).unwrap();
        let queries: Vec<(String, QuerySpec)> = pop_tpch::extended_queries()
            .into_iter()
            .map(|(n, q)| (n.to_string(), q))
            .collect();
        let tpch_reopts = check_suite("tpch", &tpch, &queries);
        let dmv = pop_dmv::dmv_catalog_with(dmv_scale, storage(kind)).unwrap();
        let queries: Vec<(String, QuerySpec)> = pop_dmv::dmv_queries()
            .into_iter()
            .map(|q| (q.name, q.spec))
            .collect();
        let dmv_reopts = check_suite("dmv", &dmv, &queries);
        // Forced runs re-optimize every guarded query: the re-plans'
        // steps, MV scans and compensation wrappers are covered too.
        assert!(
            tpch_reopts > 0 && dmv_reopts > 0,
            "{kind:?}: {tpch_reopts} / {dmv_reopts} re-optimizations"
        );
    }
}
