//! Per-table-set layouts end to end: every node over a table set of every
//! TPC-H and DMV plan — first plans and every re-plan — emits exactly the
//! columns the query reads above its table set, in one order
//! (`pop_plan::canonical_layout`, built on `QuerySpec::read_above`);
//! layouts stay narrow; joins gather no column nothing reads; pruning did
//! not cost the engine its temp-MV reuse (the MV contract moved with the
//! layouts); and a `SELECT *` returns its columns in query-table order,
//! whatever the plan or the re-plans.

use pop::{Catalog, FlavorSet, PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::{Expr, Params};
use pop_plan::{
    canonical_layout, CheckFlavor, LayoutCol, PhysNode, QueryBuilder, QuerySpec, TableSet,
};
use pop_tpch::{extended_queries, q7, tpch_catalog};
use pop_types::{DataType, Row, Schema, Value};

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
/// projection; with neither, everywhere), a node's layout is the list of
/// columns read above its table set, ascending.
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
        assert_eq!(
            *layout,
            read_above(exec, spec, set),
            "{name}: {} over {set:?}\n{plan}",
            n.name()
        );
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
        let (_, nodes) = pop_exec::execute_profiled(&plan, &mut ctx).unwrap();
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

/// `big(id, k, tb)`, 20 000 rows with `k = id % 500`, and `small(k, ts)`,
/// 500 rows with `ts = k + 7`; no index, so joins are HSJN or MGJN.
fn big_and_small() -> Catalog {
    let cat = Catalog::new();
    let int = |names: &[&'static str]| {
        Schema::from_pairs(
            &names
                .iter()
                .map(|n| (*n, DataType::Int))
                .collect::<Vec<_>>(),
        )
    };
    let big = (0..20_000).map(|i| vec![Value::Int(i), Value::Int(i % 500), Value::Int(-1)]);
    cat.create_table("big", int(&["id", "k", "tb"]), big)
        .unwrap();
    let small = (0..500).map(|k| vec![Value::Int(k), Value::Int(k + 7)]);
    cat.create_table("small", int(&["k", "ts"]), small).unwrap();
    cat
}

/// `SELECT * FROM <tables> ON big.k = small.k WHERE small.k < 3`, the
/// tables in the order given; returns the spec and `small`'s index.
fn select_star(tables: [&str; 2]) -> (QuerySpec, usize) {
    let mut b = QueryBuilder::new();
    let [t0, t1] = tables.map(|t| b.table(t));
    let (big, small) = if tables[0] == "big" {
        (t0, t1)
    } else {
        (t1, t0)
    };
    b.join(big, 1, small, 0);
    b.filter(small, Expr::col(small, 0).lt(Expr::lit(3i64)));
    (b.build().unwrap(), small)
}

/// A `SELECT *` returns every table's columns in query-table order — the
/// order of the FROM clause — though the plan builds its hash join on
/// `small`, whichever table is listed first.
#[test]
fn select_star_returns_columns_in_from_order() {
    let exec = PopExecutor::new(big_and_small(), PopConfig::default()).unwrap();
    for tables in [["big", "small"], ["small", "big"]] {
        let (q, small) = select_star(tables);
        let plan = exec.plan(&q, &Params::none()).unwrap();
        let mut build = None;
        plan.visit(&mut |n| {
            if let PhysNode::Hsjn { build: b, .. } = n {
                build = Some(b.props().tables);
            }
        });
        assert_eq!(build, Some(TableSet::single(small)), "{tables:?}\n{plan}");
        let res = exec.run(&q, &Params::none()).unwrap();
        assert_eq!(res.rows.len(), 120, "{tables:?}");
        for row in &res.rows {
            let id = row[if small == 0 { 2 } else { 0 }].as_i64().unwrap();
            let (b, s) = (&[id, id % 500, -1][..], &[id % 500, id % 500 + 7][..]);
            let want = if small == 0 { [s, b] } else { [b, s] }.concat();
            let want: Row = want.into_iter().map(Value::Int).collect();
            assert_eq!(*row, want, "{tables:?}");
        }
    }
}

/// `ORDER BY` position 0 of a `SELECT *` is the first column of the first
/// table: `big.id`, not the first column of the hash join's build.
#[test]
fn order_by_position_sorts_on_the_select_star_column() {
    let exec = PopExecutor::new(big_and_small(), PopConfig::default()).unwrap();
    let (mut q, _) = select_star(["big", "small"]);
    q.order_by = vec![pop_plan::OrderKey { pos: 0, desc: true }];
    q.limit = Some(2);
    let rows = exec.run(&q, &Params::none()).unwrap().rows;
    let want = [[19_502, 2, -1, 2, 9], [19_501, 1, -1, 1, 8]];
    assert_eq!(rows, want.map(|r| r.map(Value::Int).to_vec()).to_vec());
}

/// The TPC-H queries as `SELECT *` (no projection, aggregate, HAVING,
/// ORDER BY or LIMIT) return the same rows, column for column, under the
/// default POP configuration, ECDC alone (whose steps return rows before
/// a re-optimization), a re-optimization forced at the first CHECK (whose
/// re-plans read temp MVs) and without POP.
#[test]
fn select_star_rows_are_the_same_under_every_configuration() {
    let catalog = tpch_catalog(0.0005).unwrap();
    let mut ecdc = PopConfig::default();
    ecdc.optimizer.flavors = FlavorSet::only(CheckFlavor::Ecdc);
    let forced = PopConfig {
        force_reopt_at: Some(0),
        ..PopConfig::default()
    };
    let configs = [PopConfig::default(), ecdc, forced, PopConfig::without_pop()];
    let execs: Vec<PopExecutor> = (configs.into_iter())
        .map(|c| PopExecutor::new(catalog.clone(), c).unwrap())
        .collect();
    for (name, mut q) in extended_queries() {
        q.projection.clear();
        (q.aggregate, q.limit) = (None, None);
        q.having.clear();
        q.order_by.clear();
        let rows: Vec<Vec<Row>> = (execs.iter())
            .map(|e| {
                let mut rows = e.run(&q, &Params::none()).unwrap().rows;
                rows.sort();
                rows
            })
            .collect();
        let width: usize = (q.tables.iter())
            .map(|t| catalog.table(&t.table).unwrap().schema().len())
            .sum();
        assert!(rows[0].iter().all(|r| r.len() == width), "{name}");
        for (i, other) in rows.iter().enumerate().skip(1) {
            assert_eq!(&rows[0], other, "{name}: configuration {i}");
        }
    }
}
