//! Per-table-set layouts end to end: every node of every TPC-H and DMV
//! plan — first plans and every re-plan — carries exactly the columns the
//! query reads above its table set (`pop_plan::canonical_layout`, built on
//! `QuerySpec::read_above`), in some order; leaves emit them ascending;
//! layouts stay narrow; joins gather no column nothing reads; and pruning
//! did not cost the engine its temp-MV reuse (the MV contract moved with
//! the layouts).

use pop::{PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::{canonical_layout, LayoutCol, PhysNode, QuerySpec, TableSet};
use pop_tpch::{extended_queries, q7, tpch_catalog};

/// `promote_harvest` reports a harvest it refuses (layout not canonical) on
/// `RunReport::warnings`; nothing else in these runs may be refused.
fn refused_harvests(report: &pop::RunReport) -> Vec<&String> {
    report
        .warnings
        .iter()
        .filter(|w| w.contains("not promoted to a temp MV"))
        .collect()
}

/// The columns read above `set`, ascending: its canonical layout.
fn read_above(exec: &PopExecutor, spec: &QuerySpec, set: TableSet) -> Vec<LayoutCol> {
    let counts: Vec<usize> = (spec.tables.iter())
        .map(|t| exec.catalog().table(&t.table).unwrap().schema().len())
        .collect();
    canonical_layout(spec, set, &counts)
        .into_iter()
        .map(LayoutCol::Base)
        .collect()
}

/// Check every node of `plan` against the spec; returns the widest layout
/// of any node. Below the query's output operator (aggregate or
/// projection; with neither, everywhere), a node's layout is a
/// permutation of the columns read above its table set; a leaf's is that
/// list itself, and an NLJN's inner part is the inner leaf's columns that
/// are read above the join.
fn check_plan(exec: &PopExecutor, name: &str, spec: &QuerySpec, plan: &PhysNode) -> usize {
    let no_output = spec.aggregate.is_none() && spec.projection.is_empty();
    let mut widest = 0;
    check_node(exec, name, spec, plan, plan, no_output, &mut widest);
    widest
}

fn check_node(
    exec: &PopExecutor,
    name: &str,
    spec: &QuerySpec,
    plan: &PhysNode,
    n: &PhysNode,
    below_output: bool,
    widest: &mut usize,
) {
    let layout = &n.props().layout;
    *widest = (*widest).max(layout.len());
    let set = n.props().tables;
    if below_output {
        let mut sorted = layout.clone();
        sorted.sort_by_key(|c| c.as_base().map(|b| (b.table, b.col)));
        assert_eq!(
            sorted,
            read_above(exec, spec, set),
            "{name}: {} over {set:?}\n{plan}",
            n.name()
        );
    }
    match n {
        PhysNode::TableScan { qidx, .. } | PhysNode::IndexRangeScan { qidx, .. } => {
            let leaf = read_above(exec, spec, TableSet::single(*qidx));
            assert_eq!(*layout, leaf, "{name}: leaf over t{qidx}\n{plan}");
        }
        PhysNode::Nljn { inner, .. } if below_output => {
            let inner_part: Vec<LayoutCol> = (layout.iter())
                .filter(|c| c.as_base().is_some_and(|b| b.table == inner.qidx))
                .copied()
                .collect();
            let leaf = read_above(exec, spec, TableSet::single(inner.qidx));
            let kept: Vec<LayoutCol> = leaf
                .into_iter()
                .filter(|c| read_above(exec, spec, set).contains(c))
                .collect();
            assert_eq!(
                inner_part, kept,
                "{name}: NLJN inner t{}\n{plan}",
                inner.qidx
            );
            assert!(layout.ends_with(&inner_part), "{name}: NLJN suffix\n{plan}");
        }
        _ => {}
    }
    let below = below_output || matches!(n, PhysNode::HashAgg { .. } | PhysNode::Project { .. });
    for c in n.children() {
        check_node(exec, name, spec, plan, c, below, widest);
    }
}

/// Every plan a run executed: the first plan and each re-plan.
fn check_run(exec: &PopExecutor, name: &str, spec: &QuerySpec) {
    let report = exec.run(spec, &Params::none()).unwrap().report;
    for step in &report.steps {
        check_plan(exec, name, spec, step.plan.tree());
    }
}

#[test]
fn every_tpch_leaf_emits_exactly_the_required_columns() {
    let exec = PopExecutor::new(tpch_catalog(0.0005).unwrap(), PopConfig::default()).unwrap();
    let mut widest = 0;
    for (name, spec) in extended_queries() {
        let plan = exec.plan(&spec, &Params::none()).unwrap();
        widest = widest.max(check_plan(&exec, name, &spec, &plan));
    }
    // Full-width layouts reached 39 (Q8), leaf-pruned ones 16.
    assert!(
        widest <= WIDEST_TPCH,
        "widest TPC-H layout is {widest} columns"
    );
}

#[test]
fn every_dmv_leaf_emits_exactly_the_required_columns() {
    let exec = PopExecutor::new(dmv_catalog(0.0003).unwrap(), PopConfig::default()).unwrap();
    let mut widest = 0;
    for q in dmv_queries() {
        let plan = exec.plan(&q.spec, &Params::none()).unwrap();
        widest = widest.max(check_plan(&exec, &q.name, &q.spec, &plan));
    }
    // Full-width layouts reached 53, leaf-pruned ones 22.
    assert!(
        widest <= WIDEST_DMV,
        "widest DMV layout is {widest} columns"
    );
}

/// The widest layout of any plan node, with joins keeping only the
/// columns read above their table set.
const WIDEST_TPCH: usize = 7;
const WIDEST_DMV: usize = 8;

/// Every plan of every run — the first plan and each re-plan, under the
/// default configuration and with a re-optimization forced at the first
/// CHECK — keeps per-table-set layouts.
#[test]
fn every_replan_keeps_per_table_set_layouts() {
    let forced = PopConfig {
        force_reopt_at: Some(0),
        ..PopConfig::default()
    };
    for config in [PopConfig::default(), forced] {
        let exec = PopExecutor::new(tpch_catalog(0.002).unwrap(), config.clone()).unwrap();
        for (name, spec) in extended_queries() {
            check_run(&exec, name, &spec);
        }
        let exec = PopExecutor::new(dmv_catalog(0.001).unwrap(), config).unwrap();
        for q in dmv_queries() {
            check_run(&exec, &q.name, &q.spec);
        }
    }
}

/// Cells (rows × layout width) the joins of the static first plans return
/// in one pass, summed over each suite — the values every join gathers.
fn join_cells(exec: &PopExecutor, specs: &[QuerySpec]) -> u64 {
    let mut cells = 0;
    for spec in specs {
        let plan = exec.plan(spec, &Params::none()).unwrap();
        let mut ctx = pop_exec::ExecCtx::new(
            exec.catalog().clone(),
            Params::none(),
            exec.config().cost_model.clone(),
        );
        ctx.checks_enabled = false;
        ctx.lineage = exec.carries_lineage(spec);
        let (_, nodes) =
            pop_exec::execute_profiled(&plan, &mut ctx, &pop_exec::Subplans::new()).unwrap();
        cells += (nodes.iter())
            .filter(|n| matches!(n.name, "HSJN" | "NLJN" | "MGJN"))
            .map(pop_exec::OpTime::cells)
            .sum::<u64>();
    }
    cells
}

/// Joins gather only the columns read above them. With every column any
/// operator of the query reads carried up to the root, the joins of the
/// static first plans returned 2 705 145 cells per pass at DMV 0.004 and
/// 1 004 424 at TPC-H SF 0.02.
#[test]
fn join_outputs_carry_only_the_columns_read_above() {
    let exec = PopExecutor::new(dmv_catalog(0.004).unwrap(), PopConfig::without_pop()).unwrap();
    let dmv: Vec<QuerySpec> = dmv_queries().into_iter().map(|q| q.spec).collect();
    let cells = join_cells(&exec, &dmv);
    assert!(cells <= 680_000, "DMV join cells per pass: {cells}");
    let exec = PopExecutor::new(tpch_catalog(0.02).unwrap(), PopConfig::without_pop()).unwrap();
    let tpch: Vec<QuerySpec> = extended_queries().into_iter().map(|(_, q)| q).collect();
    let cells = join_cells(&exec, &tpch);
    assert!(cells <= 590_000, "TPC-H join cells per pass: {cells}");
}

/// Q7's re-optimized plan re-reads the hash-join build its first step
/// completed. A harvest narrower than the table set's full width used to
/// be dropped without a word, which would have turned this off.
#[test]
fn q7_still_reuses_its_mv_after_reoptimization() {
    let exec = PopExecutor::new(tpch_catalog(0.02).unwrap(), PopConfig::default()).unwrap();
    let report = exec.run(&q7(), &Params::none()).unwrap().report;
    assert!(
        refused_harvests(&report).is_empty(),
        "{:?}",
        report.warnings
    );
    assert_eq!(report.reopt_count, 1, "{}", report.summary());
    assert_eq!(report.steps[1].mvs_used, 1, "{}", report.summary());
}

/// Summed over the 39 DMV queries, re-optimized plans read as many temp
/// MVs as they did with full-width layouts, and no harvest was refused.
#[test]
fn dmv_suite_reuses_as_many_mvs_as_with_full_width_layouts() {
    // 37 with full-width layouts, plus the 5 MV scans of DMV38's third
    // re-optimized step, which then degraded to the previous plan instead.
    const MVS_REUSED_AT_FULL_WIDTH: usize = 42;
    let exec = PopExecutor::new(dmv_catalog(0.004).unwrap(), PopConfig::default()).unwrap();
    let mut reused = 0;
    for q in dmv_queries() {
        let report = exec.run(&q.spec, &Params::none()).unwrap().report;
        assert!(
            refused_harvests(&report).is_empty(),
            "{}: {:?}",
            q.name,
            report.warnings
        );
        reused += report.steps.iter().map(|s| s.mvs_used).sum::<usize>();
    }
    assert_eq!(reused, MVS_REUSED_AT_FULL_WIDTH);
}
