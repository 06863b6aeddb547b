//! Executor throughput: row-at-a-time vs vectorized batch execution, and
//! a per-operator profile.
//!
//! ```text
//! bench_exec [--quick] [--write]
//! bench_exec --profile [--passes N]
//! ```
//!
//! `--profile` plans every TPC-H query (`extended_queries()`, SF 0.02) and
//! every DMV query (scale 0.004) with `PopExecutor::plan` under
//! `PopConfig::without_pop()`, runs each plan through
//! `pop_exec::execute_profiled` (the same operator tree with a self-time
//! wrapper around every operator, carrying row lineage only where
//! `PopExecutor::carries_lineage` says a run would) once per pass, and
//! prints each query's
//! self milliseconds per operator kind — the minimum over `N` passes
//! (default 5), after one warm-up pass — and each suite's sums, then the
//! suite's live rows and cells (rows × layout width) per kind in one pass.
//! Nothing is written to `results/`.
//!
//! Runs five representative queries — a scan-heavy half-selectivity
//! selection over LINEITEM, a low-selectivity predicate scan (TPC-H Q6),
//! an aggregation pipeline (TPC-H Q1), a join (TPC-H Q3) and two hash
//! joins probed by all of LINEITEM feeding a one-group-per-order
//! aggregate (TPC-H Q18, the hash probe / group lookup hot path) — once with
//! `batch_size = 1` (which reproduces the classic Volcano row engine) and
//! once with the default batch size, and reports rows/second over the
//! query's dominant input table. POP checks are disabled so the numbers
//! isolate raw executor throughput from re-optimization policy.
//!
//! Text goes to stdout; with `--write`, the raw data also goes to
//! `results/BENCH_exec.json` (without it nothing is written).

use pop::{PopConfig, PopExecutor, QuerySpec};
use pop_exec::DEFAULT_BATCH_SIZE;
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_tpch::{cols::lineitem, q1, q18, q3, q6, tpch_catalog};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    batch_size: usize,
    elapsed_ms: f64,
    rows_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct QueryResultLine {
    name: String,
    kind: String,
    input_rows: usize,
    rows_returned: usize,
    row_mode: ModeResult,
    batch_mode: ModeResult,
    speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    scale_factor: f64,
    reps: usize,
    queries: Vec<QueryResultLine>,
}

/// Half-selectivity selection with a narrow projection: the scan-heavy
/// shape where per-row iterator overhead dominates, because roughly every
/// second row is materialized into the output stream.
fn scan_sel() -> QuerySpec {
    let mut b = QueryBuilder::new();
    let l = b.table("lineitem");
    b.filter(l, Expr::col(l, lineitem::QUANTITY).le(Expr::lit(25i64)));
    b.project(&[
        (l, lineitem::ORDERKEY),
        (l, lineitem::QUANTITY),
        (l, lineitem::EXTENDEDPRICE),
    ]);
    b.build().expect("scan_sel query")
}

fn executor_at(cat: &pop::Catalog, batch_size: usize) -> PopExecutor {
    let mut cfg = PopConfig::without_pop();
    cfg.batch_size = batch_size;
    PopExecutor::new(cat.clone(), cfg).expect("executor")
}

/// Best-of-`reps` wall-clock for both modes, interleaved rep by rep so
/// machine-load drift penalizes both modes equally.
fn time_both(cat: &pop::Catalog, q: &QuerySpec, reps: usize) -> (f64, f64, usize) {
    let params = Params::none();
    let row_exec = executor_at(cat, 1);
    let batch_exec = executor_at(cat, DEFAULT_BATCH_SIZE);
    let mut row_best = f64::INFINITY;
    let mut batch_best = f64::INFINITY;
    let mut rows = 0;
    // Untimed warm-up of both modes, then keep each mode's fastest run.
    // Each result is dropped before the other mode is timed so a large
    // result set does not sit on the heap distorting the other side.
    for i in 0..=reps {
        let t = Instant::now();
        let row_res = row_exec.run(q, &params).expect("query");
        let row_ms = t.elapsed().as_secs_f64() * 1e3;
        let row_rows = row_res.rows.len();
        drop(row_res);
        let t = Instant::now();
        let batch_res = batch_exec.run(q, &params).expect("query");
        let batch_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(row_rows, batch_res.rows.len(), "row/batch modes disagree");
        drop(batch_res);
        rows = row_rows;
        if i > 0 {
            row_best = row_best.min(row_ms);
            batch_best = batch_best.min(batch_ms);
        }
    }
    (row_best, batch_best, rows)
}

/// What one operator kind did in one profiled run: self ms, live rows
/// returned, and cells (rows × layout width).
#[derive(Debug, Clone, Copy, Default)]
struct KindProfile {
    ms: f64,
    rows: u64,
    cells: u64,
}

/// Self ms, rows and cells per operator kind (`PhysNode::name`) of one
/// profiled run of `plan`, carrying lineage only if `exec.run` would
/// (`lineage`).
fn profile_once(
    cat: &pop::Catalog,
    exec: &PopExecutor,
    plan: &pop_plan::PhysNode,
    lineage: bool,
) -> BTreeMap<&'static str, KindProfile> {
    let mut ctx = pop_exec::ExecCtx::new(
        cat.clone(),
        Params::none(),
        exec.config().cost_model.clone(),
    );
    ctx.checks_enabled = false;
    ctx.lineage = lineage;
    ctx.batch_size = exec.config().batch_size.max(1);
    let (_, nodes) = pop_exec::execute_profiled(plan, &mut ctx, &pop_exec::Subplans::new())
        .expect("profiled run");
    let mut kinds: BTreeMap<&'static str, KindProfile> = BTreeMap::new();
    for n in nodes {
        let k = kinds.entry(n.name).or_default();
        k.ms += n.self_time.as_secs_f64() * 1e3;
        k.rows += n.rows;
        k.cells += n.cells();
    }
    kinds
}

/// Profile one suite: per query, each kind's minimum over `passes`, after
/// one warm-up pass; then the suite's sums.
fn profile_suite(title: &str, cat: &pop::Catalog, queries: &[(String, QuerySpec)], passes: usize) {
    let exec = PopExecutor::new(cat.clone(), PopConfig::without_pop()).expect("executor");
    let plans: Vec<_> = queries
        .iter()
        .map(|(name, q)| {
            let plan = exec.plan(q, &Params::none()).expect("plan");
            (name, plan, exec.carries_lineage(q))
        })
        .collect();
    let mut best: Vec<BTreeMap<&'static str, KindProfile>> = vec![BTreeMap::new(); plans.len()];
    for pass in 0..=passes {
        for ((_, plan, lineage), best) in plans.iter().zip(&mut best) {
            let kinds = profile_once(cat, &exec, plan, *lineage);
            if pass > 0 {
                for (kind, k) in kinds {
                    let b = best.entry(kind).or_insert(KindProfile {
                        ms: f64::INFINITY,
                        ..k
                    });
                    b.ms = b.ms.min(k.ms);
                }
            }
        }
    }
    let mut suite: BTreeMap<&'static str, KindProfile> = BTreeMap::new();
    for (kind, k) in best.iter().flatten() {
        let s = suite.entry(kind).or_default();
        s.ms += k.ms;
        s.rows += k.rows;
        s.cells += k.cells;
    }
    suite.retain(|_, k| k.ms >= 0.005 || k.rows > 0);
    println!("{title}: self ms per operator (min of {passes} passes)");
    print!("  {:8}", "query");
    for kind in suite.keys() {
        print!("{kind:>10}");
    }
    println!("{:>10}", "total");
    let line = |label: &str, row: &BTreeMap<&'static str, KindProfile>| {
        print!("  {label:8}");
        for kind in suite.keys() {
            print!("{:>10.2}", row.get(kind).map_or(0.0, |k| k.ms));
        }
        println!("{:>10.2}", row.values().map(|k| k.ms).sum::<f64>());
    };
    for ((name, ..), row) in plans.iter().zip(&best) {
        line(name, row);
    }
    line("suite", &suite);
    // What each kind moved in one pass: live rows returned, and cells
    // (rows × layout width).
    let counts = |label: &str, count: fn(&KindProfile) -> u64| {
        print!("  {label:8}");
        for k in suite.values() {
            print!("{:>10}", count(k));
        }
        println!("{:>10}", suite.values().map(count).sum::<u64>());
    };
    counts("rows", |k| k.rows);
    counts("cells", |k| k.cells);
}

fn profile(passes: usize) {
    let tpch: Vec<(String, QuerySpec)> = pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, q)| (name.to_string(), q))
        .collect();
    let cat = tpch_catalog(0.02).expect("TPC-H catalog");
    profile_suite("TPC-H SF 0.02", &cat, &tpch, passes);
    let dmv: Vec<(String, QuerySpec)> = pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect();
    let cat = pop_dmv::dmv_catalog(0.004).expect("DMV catalog");
    profile_suite("DMV 0.004", &cat, &dmv, passes);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--profile") {
        let passes = args
            .iter()
            .position(|a| a == "--passes")
            .and_then(|i| args.get(i + 1))
            .map_or(Ok(5), |n| n.parse::<usize>())
            .unwrap_or_else(|_| {
                eprintln!("usage: bench_exec --profile [--passes N]");
                std::process::exit(2)
            });
        profile(passes.max(1));
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let write = args.iter().any(|a| a == "--write");
    let (sf, reps) = if quick { (0.002, 1) } else { (0.1, 7) };
    let cat = tpch_catalog(sf).expect("catalog");
    let lineitem_rows = cat.table("lineitem").expect("lineitem").row_count();
    let queries: Vec<(&str, &str, QuerySpec, usize)> = vec![
        ("lineitem_sel", "scan", scan_sel(), lineitem_rows),
        ("tpch_q6", "scan", q6(), lineitem_rows),
        ("tpch_q1", "agg", q1(), lineitem_rows),
        ("tpch_q3", "join", q3(), lineitem_rows),
        ("tpch_q18", "join+agg", q18(), lineitem_rows),
    ];
    let mut report = BenchReport {
        scale_factor: sf,
        reps,
        queries: Vec::new(),
    };
    println!("executor throughput, TPC-H SF {sf} (best of {reps}):");
    for (name, kind, q, input_rows) in queries {
        let (row_ms, batch_ms, rows_a) = time_both(&cat, &q, reps);
        let row_rps = input_rows as f64 / (row_ms / 1e3);
        let batch_rps = input_rows as f64 / (batch_ms / 1e3);
        let speedup = batch_rps / row_rps;
        println!(
            "  {name:12} [{kind:8}] row-mode {row_ms:8.2} ms ({row_rps:>12.0} rows/s)  \
             batch-mode {batch_ms:8.2} ms ({batch_rps:>12.0} rows/s)  speedup {speedup:.2}x"
        );
        report.queries.push(QueryResultLine {
            name: name.to_string(),
            kind: kind.to_string(),
            input_rows,
            rows_returned: rows_a,
            row_mode: ModeResult {
                batch_size: 1,
                elapsed_ms: row_ms,
                rows_per_sec: row_rps,
            },
            batch_mode: ModeResult {
                batch_size: DEFAULT_BATCH_SIZE,
                elapsed_ms: batch_ms,
                rows_per_sec: batch_rps,
            },
            speedup,
        });
    }
    if write {
        if let Some(path) = pop_bench::save_json("BENCH_exec", &report) {
            println!("wrote {path}");
        }
    }
}
