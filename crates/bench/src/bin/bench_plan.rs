//! Where planning time goes, per DMV query: the profile ROADMAP item 1
//! asks for before anything else in the optimizer is touched.
//!
//! ```text
//! bench_plan [--quick] [--assert] [--write] [scale]
//! ```
//!
//! `pop_optimizer::optimize` is the only way to get a plan, so the stages
//! are separated from outside, by timing calls that differ in exactly one
//! stage (each the minimum over the repetitions, differences clamped at 0):
//!
//! * `bind_us` — `CardEstimator::new`: join graph, table / statistics /
//!   index resolution, local selectivities;
//! * `enumerate_us` — a fresh memo minus a second call on the same memo,
//!   which finds every group clean and every extracted join's validity
//!   ranges solved: deriving the groups, and the root search that the
//!   fresh memo's extraction runs for the plan's joins;
//! * `root_search_us` — a fresh memo with the configured Newton-Raphson
//!   iterations minus one with none (pruning, and so the join order, does
//!   not depend on validity ranges);
//! * `extract_us` — the all-clean call minus `bind_us`: snapshot check per
//!   group, winner extraction (ranges read from the memo) and the non-join
//!   operators. The all-clean call re-binds through the table inputs the
//!   memo kept, which is cheaper than `CardEstimator::new`, so this reads
//!   low;
//! * `placement_us` — a fresh memo with CHECK flavors (default set) minus
//!   one without.
//!
//! Beside the times, the counts that explain them: connected groups,
//! two-sided splits the descending-submask loop visits, splits the join
//! graph admits, splits costed, candidates built and cost-difference
//! evaluations of the root search. `--assert` checks the identities that
//! hold on any box: every admitted split is costed (with hash join on,
//! every connected set has a plan), the memo holds exactly the connected
//! sets, and the root search stays within `validity::max_evals_per_join` (432 at three iterations) per join
//! of the plan — it runs for the extracted plan only, never per prune.
//!
//! With `--write`, the raw data goes to `results/BENCH_plan.json`; without
//! it nothing is written, so a `--quick --assert` check leaves the tree as
//! it was.

use pop::PopConfig;
use pop_optimizer::validity::max_evals_per_join;
use pop_optimizer::{
    optimize, CardEstimator, FeedbackCache, FlavorSet, Memo, MemoStats, OptimizerConfig,
    OptimizerContext,
};
use pop_plan::{JoinGraph, QuerySpec};
use pop_stats::StatsRegistry;
use pop_storage::Catalog;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct QueryProfile {
    name: String,
    tables: usize,
    /// One fresh-memo `optimize` under the default POP configuration.
    plan_us: f64,
    bind_us: f64,
    enumerate_us: f64,
    root_search_us: f64,
    extract_us: f64,
    placement_us: f64,
    groups: usize,
    splits_visited: usize,
    splits_admitted: usize,
    splits_costed: usize,
    candidates_built: usize,
    diff_evals: usize,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    scale: f64,
    repetitions: usize,
    assertion_ran: bool,
    /// Sum of `plan_us` over the queries.
    pass_plan_us: f64,
    queries: Vec<QueryProfile>,
}

struct Env {
    catalog: Catalog,
    stats: StatsRegistry,
    cost: pop_optimizer::CostModel,
    feedback: FeedbackCache,
}

impl Env {
    fn ctx<'a>(&'a self, config: &'a OptimizerConfig) -> OptimizerContext<'a> {
        OptimizerContext::new(
            &self.catalog,
            &self.stats,
            config,
            &self.cost,
            None,
            &self.feedback,
        )
    }
}

/// Minimum wall time of `f` over `reps` calls, in microseconds.
fn min_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Minimum time of one fresh-memo optimization under `config`, and its
/// pass statistics.
fn fresh(env: &Env, spec: &QuerySpec, config: &OptimizerConfig, reps: usize) -> (f64, MemoStats) {
    let ctx = env.ctx(config);
    let mut stats = MemoStats::default();
    let us = min_us(reps, || {
        let (plan, s) = optimize(spec, &ctx, &mut Memo::new()).expect("query plans");
        stats = s;
        plan
    });
    (us, stats)
}

fn profile(env: &Env, name: &str, spec: &QuerySpec, reps: usize) -> QueryProfile {
    let pop = PopConfig::default().optimizer;
    let bare = OptimizerConfig {
        flavors: FlavorSet::none(),
        ..pop.clone()
    };
    let (plan_us, _) = fresh(env, spec, &pop, reps);
    let (bare_us, stats) = fresh(env, spec, &bare, reps);
    let (flat_us, _) = fresh(
        env,
        spec,
        &OptimizerConfig {
            nr_iterations: 0,
            ..bare.clone()
        },
        reps,
    );
    let (placed_us, _) = fresh(
        env,
        spec,
        &OptimizerConfig {
            flavors: FlavorSet::default(),
            ..bare.clone()
        },
        reps,
    );

    let ctx = env.ctx(&bare);
    let bind_us = min_us(reps, || {
        CardEstimator::new(spec, &ctx).expect("tables resolve")
    });
    let mut memo = Memo::new();
    optimize(spec, &ctx, &mut memo).expect("query plans");
    let clean_us = min_us(reps, || {
        optimize(spec, &ctx, &mut memo).expect("query plans")
    });

    let graph = JoinGraph::new(spec, pop_optimizer::MAX_DP_TABLES).expect("within the horizon");
    let bushy = spec.tables.len() <= bare.bushy_limit;
    let splits_visited = graph
        .connected_sets()
        .map(|set| {
            if bushy {
                (1usize << (set.len() - 1)) - 1
            } else if set.len() > 1 {
                set.len()
            } else {
                0
            }
        })
        .sum();
    let splits_admitted = graph
        .connected_sets()
        .map(|set| graph.splits(set, bushy).count())
        .sum();

    QueryProfile {
        name: name.to_string(),
        tables: spec.tables.len(),
        plan_us,
        bind_us,
        enumerate_us: (bare_us - clean_us).max(0.0),
        root_search_us: (bare_us - flat_us).max(0.0),
        extract_us: (clean_us - bind_us).max(0.0),
        placement_us: (placed_us - bare_us).max(0.0),
        groups: stats.groups_total,
        splits_visited,
        splits_admitted,
        splits_costed: stats.splits_costed,
        candidates_built: stats.candidates_built,
        diff_evals: stats.diff_evals,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let assert_counts = args.iter().any(|a| a == "--assert");
    let write = args.iter().any(|a| a == "--write");
    let scale: f64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if quick { 0.001 } else { 0.004 });
    let reps = if quick { 3 } else { 15 };

    let catalog = pop_dmv::dmv_catalog(scale).expect("DMV data generates");
    let stats = StatsRegistry::new();
    stats.analyze_all(&catalog).expect("ANALYZE");
    let env = Env {
        catalog,
        stats,
        cost: PopConfig::default().cost_model,
        feedback: FeedbackCache::new(),
    };

    let queries: Vec<QueryProfile> = pop_dmv::dmv_queries()
        .iter()
        .map(|q| profile(&env, &q.name, &q.spec, reps))
        .collect();

    println!(
        "{:6} {:>2} {:>8} {:>7} {:>9} {:>8} {:>8} {:>8} | {:>6} {:>8} {:>8} {:>6} {:>6} {:>7}",
        "query",
        "n",
        "plan",
        "bind",
        "enumerate",
        "(root)",
        "extract",
        "place",
        "groups",
        "visited",
        "admitted",
        "costed",
        "cands",
        "diffs"
    );
    for q in &queries {
        println!(
            "{:6} {:>2} {:>8.0} {:>7.0} {:>9.0} {:>8.0} {:>8.0} {:>8.0} | {:>6} {:>8} {:>8} {:>6} {:>6} {:>7}",
            q.name,
            q.tables,
            q.plan_us,
            q.bind_us,
            q.enumerate_us,
            q.root_search_us,
            q.extract_us,
            q.placement_us,
            q.groups,
            q.splits_visited,
            q.splits_admitted,
            q.splits_costed,
            q.candidates_built,
            q.diff_evals
        );
    }
    let total = |f: fn(&QueryProfile) -> f64| queries.iter().map(f).sum::<f64>();
    let pass_plan_us = total(|q| q.plan_us);
    println!(
        "pass of {} queries (us, min of {reps}): plan {:.0} = bind {:.0} + enumerate {:.0} \
         (root search {:.0}) + extract {:.0} + placement {:.0}",
        queries.len(),
        pass_plan_us,
        total(|q| q.bind_us),
        total(|q| q.enumerate_us),
        total(|q| q.root_search_us),
        total(|q| q.extract_us),
        total(|q| q.placement_us),
    );

    let mut failures = Vec::new();
    if assert_counts {
        let iters = PopConfig::default().optimizer.nr_iterations;
        for q in &queries {
            if q.splits_admitted != q.splits_costed {
                failures.push(format!(
                    "{}: the join graph admits {} split(s), {} were costed",
                    q.name, q.splits_admitted, q.splits_costed
                ));
            }
            let cap = max_evals_per_join(iters) * (q.tables - 1);
            if q.diff_evals > cap {
                failures.push(format!(
                    "{}: {} cost difference(s) in the root search, over the {cap} \
                     its {} join(s) can take",
                    q.name,
                    q.diff_evals,
                    q.tables - 1
                ));
            }
            if q.splits_costed == 0 || q.candidates_built < 2 * q.splits_costed {
                failures.push(format!(
                    "{}: {} candidate(s) for {} costed split(s); hash join alone makes two each",
                    q.name, q.candidates_built, q.splits_costed
                ));
            }
        }
    }

    let report = BenchReport {
        scale,
        repetitions: reps,
        assertion_ran: assert_counts,
        pass_plan_us,
        queries,
    };
    if write {
        if let Some(path) = pop_bench::save_json("BENCH_plan", &report) {
            println!("wrote {path}");
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ASSERTION FAILED: {f}");
        }
        std::process::exit(1);
    }
}
