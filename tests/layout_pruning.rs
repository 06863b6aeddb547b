//! Per-table-set layouts end to end: at every node of every TPC-H and DMV
//! plan — first plans and every re-plan — the batches the executor
//! returns are as wide as the layout `PhysNode::columns` derives from the
//! spec (for a node over a table set, `pop_plan::canonical_layout`, built
//! on `QuerySpec::read_above`); layouts stay narrow; joins gather no
//! column nothing reads; pruning did not cost the engine its temp-MV reuse
//! (the MV contract moved with the layouts); and a `SELECT *` returns its
//! columns in query-table order, whatever the plan or the re-plans.

use pop::{Catalog, FlavorSet, PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_exec::{execute_profiled, ExecCtx, Harvest, ObservedCard, OpTime, RunOutcome};
use pop_expr::{Expr, Params};
use pop_optimizer::{optimize, CardFact, FeedbackCache, Memo, OptimizerContext};
use pop_plan::{canonical_layout, CheckFlavor, PhysNode, QueryBuilder, QuerySpec, TableSet};
use pop_storage::TempMv;
use pop_tpch::{extended_queries, q7, tpch_catalog};
use pop_types::{ColumnDef, DataType, Row, Schema, Value};

/// `promote_harvest` reports a harvest it refuses (layout not canonical) on
/// `RunReport::warnings`; nothing else in these runs may be refused.
fn refused_harvests(report: &pop::RunReport) -> Vec<&String> {
    report
        .warnings
        .iter()
        .filter(|w| w.contains("not promoted to a temp MV"))
        .collect()
}

/// The nodes of `plan` children first, in the order the builder wraps
/// them (and so the order of `execute_profiled`'s entries).
fn post_order<'p>(plan: &'p PhysNode, out: &mut Vec<&'p PhysNode>) {
    for c in plan.children() {
        post_order(c, out);
    }
    out.push(plan);
}

/// Check one profiled step of `spec`'s plan `plan`: every node that
/// returned a batch returned batches as wide as its derived layout.
/// Returns the widest derived layout of any node.
fn check_widths(
    name: &str,
    spec: &QuerySpec,
    counts: &[usize],
    plan: &PhysNode,
    ops: &[OpTime],
) -> usize {
    let mut nodes = Vec::new();
    post_order(plan, &mut nodes);
    assert_eq!(nodes.len(), ops.len(), "{name}\n{plan}");
    let mut widest = 0;
    for (node, op) in nodes.iter().zip(ops) {
        assert_eq!(node.name(), op.name, "{name}\n{plan}");
        let derived = node.columns(spec, counts).len();
        widest = widest.max(derived);
        if op.rows > 0 {
            assert_eq!(
                op.width,
                derived,
                "{name}: {} over {}\n{plan}",
                node.name(),
                node.props().tables
            );
        }
    }
    widest
}

/// An execution context as `exec.run` sets one up for `spec`.
fn exec_ctx(exec: &PopExecutor, spec: &QuerySpec) -> ExecCtx {
    let config = exec.config();
    let mut ctx = ExecCtx::new(
        exec.catalog().clone(),
        Params::none(),
        config.cost_model.clone(),
    );
    ctx.batch_size = config.batch_size.max(1);
    ctx.lineage = exec.carries_lineage(spec);
    ctx
}

/// The widest derived layout of `spec`'s first plan, run to completion
/// with every node's output width checked.
fn check_first_plan(exec: &PopExecutor, name: &str, spec: &QuerySpec) -> usize {
    let plan = exec.plan(spec, &Params::none()).unwrap();
    let counts = exec.col_counts(spec);
    let mut ctx = exec_ctx(exec, spec);
    ctx.checks_enabled = false;
    let (_, ops) = execute_profiled(&plan, spec, &counts, &mut ctx).unwrap();
    check_widths(name, spec, &counts, &plan, &ops)
}

/// Promote a harvest to a temp MV as the driver does: its set's canonical
/// layout, base-table column types.
fn promote(exec: &PopExecutor, spec: &QuerySpec, counts: &[usize], h: Harvest, n: usize) {
    let cat = exec.catalog();
    let layout = canonical_layout(spec, h.tables, counts);
    assert!(
        h.row_count() == 0 || h.width() == layout.len(),
        "harvest over {}",
        h.tables
    );
    let cols = (layout.iter())
        .map(|c| {
            let base = cat.table(&spec.tables[c.table].table).unwrap();
            let def = base.schema().col(c.col);
            ColumnDef::new(format!("t{}_{}", c.table, def.name), def.dtype)
        })
        .collect();
    let (tables, rows) = (h.tables, h.row_count());
    let (data, lineage) = h.into_columns();
    let id = cat.allocate_temp_id();
    let table = (cat.create_temp_table(id, format!("__pop_mv_{n}"), Schema::new(cols), data, rows))
        .unwrap();
    cat.register_temp_mv(TempMv {
        table,
        tables: tables.mask(),
        layout,
        actual_card: rows as u64,
        lineage,
    });
}

/// Run `spec` step by step as `exec.run` does — the first plan, then after
/// each violation a re-plan under the facts it taught and the temp MVs
/// its harvests became — but each step through `execute_profiled`,
/// checking every node's output width. Returns the plans it ran.
fn check_run(exec: &PopExecutor, name: &str, spec: &QuerySpec) -> Vec<PhysNode> {
    let config = exec.config();
    let counts = exec.col_counts(spec);
    let params = Params::none();
    let mut ctx = exec_ctx(exec, spec);
    ctx.force_reopt_at = config.force_reopt_at;
    let (mut memo, mut feedback) = (Memo::new(), FeedbackCache::new());
    let (mut steps, mut mvs) = (Vec::new(), 0);
    loop {
        let octx = OptimizerContext::new(
            exec.catalog(),
            exec.stats(),
            &config.optimizer,
            &config.cost_model,
            Some(&params),
            &feedback,
        );
        let (plan, _) = optimize(spec, &octx, &mut memo).unwrap();
        let (outcome, ops) = execute_profiled(&plan, spec, &counts, &mut ctx).unwrap();
        let step = format!("{name} step {}", steps.len());
        check_widths(&step, spec, &counts, &plan, &ops);
        steps.push(plan);
        let RunOutcome::Suspended { violation, .. } = outcome else {
            break;
        };
        let exact = |n: u64| CardFact::Exact(n as f64);
        if !violation.forced {
            let fact = match violation.observed {
                ObservedCard::Exact(n) => exact(n),
                ObservedCard::AtLeast(n) => CardFact::AtLeast(n as f64),
            };
            feedback.record(violation.tables, fact);
            for ev in &ctx.check_events {
                if let ObservedCard::Exact(n) = ev.observed {
                    feedback.record(ev.tables, exact(n));
                }
            }
        }
        for h in std::mem::take(&mut ctx.harvests) {
            if memo.is_subplan(h.tables) {
                if !violation.forced {
                    feedback.record(h.tables, exact(h.row_count() as u64));
                }
                promote(exec, spec, &counts, h, mvs);
                mvs += 1;
            }
        }
        if steps.len() >= config.max_reopts {
            ctx.checks_enabled = false;
        }
    }
    exec.catalog().clear_temp_mvs();
    steps
}

#[test]
fn every_tpch_leaf_emits_exactly_the_required_columns() {
    let exec = PopExecutor::new(tpch_catalog(0.0005).unwrap(), PopConfig::default()).unwrap();
    let mut widest = 0;
    for (name, spec) in extended_queries() {
        widest = widest.max(check_first_plan(&exec, name, &spec));
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
        widest = widest.max(check_first_plan(&exec, &q.name, &q.spec));
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
/// CHECK — emits its derived layouts. The plans are the driver's.
#[test]
fn every_replan_keeps_per_table_set_layouts() {
    let forced = PopConfig {
        force_reopt_at: Some(0),
        ..PopConfig::default()
    };
    for config in [PopConfig::default(), forced] {
        let tpch = PopExecutor::new(tpch_catalog(0.002).unwrap(), config.clone()).unwrap();
        let dmv = PopExecutor::new(dmv_catalog(0.001).unwrap(), config).unwrap();
        let queries = (extended_queries().into_iter())
            .map(|(name, q)| (&tpch, name.to_string(), q))
            .chain(dmv_queries().into_iter().map(|q| (&dmv, q.name, q.spec)));
        let mut replans = 0;
        for (exec, name, spec) in queries {
            let steps = check_run(exec, &name, &spec);
            let report = exec.run(&spec, &Params::none()).unwrap().report;
            let driver: Vec<&PhysNode> = report.steps.iter().map(|s| s.plan.tree()).collect();
            assert_eq!(steps.iter().collect::<Vec<_>>(), driver, "{name}");
            replans += steps.len() - 1;
        }
        assert!(replans > 0);
    }
}

/// Cells (rows × width) the joins of the static first plans return
/// in one pass, summed over each suite — the values every join gathers.
fn join_cells(exec: &PopExecutor, specs: &[QuerySpec]) -> u64 {
    let mut cells = 0;
    for spec in specs {
        let plan = exec.plan(spec, &Params::none()).unwrap();
        let mut ctx = exec_ctx(exec, spec);
        ctx.checks_enabled = false;
        let counts = exec.col_counts(spec);
        let (_, nodes) = execute_profiled(&plan, spec, &counts, &mut ctx).unwrap();
        cells += (nodes.iter())
            .filter(|n| matches!(n.name, "HSJN" | "NLJN" | "MGJN"))
            .map(OpTime::cells)
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
