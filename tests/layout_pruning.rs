//! Required-column layouts end to end: every base leaf of every TPC-H and
//! DMV plan emits exactly `QuerySpec::required_columns`, layouts stay
//! narrow, and pruning did not cost the engine its temp-MV reuse (the MV
//! contract — `pop_plan::canonical_layout` — moved with the layouts).

use pop::{PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::{LayoutCol, PhysNode, QuerySpec};
use pop_tpch::{extended_queries, q7, tpch_catalog};
use pop_types::ColId;

/// `promote_harvest` reports a harvest it refuses (layout not canonical) on
/// `RunReport::warnings`; nothing else in these runs may be refused.
fn refused_harvests(report: &pop::RunReport) -> Vec<&String> {
    report
        .warnings
        .iter()
        .filter(|w| w.contains("not promoted to a temp MV"))
        .collect()
}

/// Check every base leaf of `plan` against the spec; returns the widest
/// layout of any node.
fn check_plan(exec: &PopExecutor, name: &str, spec: &QuerySpec, plan: &PhysNode) -> usize {
    let required = |qidx: usize| -> Vec<LayoutCol> {
        let table = exec.catalog().table(&spec.tables[qidx].table).unwrap();
        spec.required_columns(qidx, table.schema().len())
            .into_iter()
            .map(|c| LayoutCol::Base(ColId::new(qidx, c)))
            .collect()
    };
    let mut widest = 0;
    plan.visit(&mut |n| {
        let layout = &n.props().layout;
        widest = widest.max(layout.len());
        match n {
            PhysNode::TableScan { qidx, .. } | PhysNode::IndexRangeScan { qidx, .. } => {
                assert_eq!(
                    *layout,
                    required(*qidx),
                    "{name}: leaf over t{qidx}\n{plan}"
                );
            }
            PhysNode::Nljn { outer, inner, .. } => {
                let suffix = &layout[outer.props().layout.len()..];
                assert_eq!(
                    suffix,
                    required(inner.qidx),
                    "{name}: NLJN inner t{}\n{plan}",
                    inner.qidx
                );
            }
            _ => {}
        }
    });
    widest
}

#[test]
fn every_tpch_leaf_emits_exactly_the_required_columns() {
    let exec = PopExecutor::new(tpch_catalog(0.0005).unwrap(), PopConfig::default()).unwrap();
    let mut widest = 0;
    for (name, spec) in extended_queries() {
        let plan = exec.plan(&spec, &Params::none()).unwrap();
        widest = widest.max(check_plan(&exec, name, &spec, &plan));
    }
    // Full-width layouts reached 39 (Q8).
    assert!(widest <= 16, "widest TPC-H layout is {widest} columns");
}

#[test]
fn every_dmv_leaf_emits_exactly_the_required_columns() {
    let exec = PopExecutor::new(dmv_catalog(0.0003).unwrap(), PopConfig::default()).unwrap();
    let mut widest = 0;
    for q in dmv_queries() {
        let plan = exec.plan(&q.spec, &Params::none()).unwrap();
        widest = widest.max(check_plan(&exec, &q.name, &q.spec, &plan));
    }
    // Full-width layouts reached 53.
    assert!(widest <= 22, "widest DMV layout is {widest} columns");
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
