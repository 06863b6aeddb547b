//! Re-optimization latency: the persistent (incremental) memo vs a fresh
//! memo per re-optimization — from-scratch planning.
//!
//! ```text
//! bench_reopt [--quick] [--assert] [--write]
//! ```
//!
//! Three experiments:
//!
//! 1. **Re-opt latency on a 6-join chain** (7 tables, 28 join-order
//!    groups: the connected subsets of a chain are its intervals), in two
//!    scenarios that bracket where a CHECK can fire:
//!
//!    * `root_check` — the violated check sits above the final join
//!      (the LC check at the last materialization point, or the ECB
//!      buffer at the root). Its cardinality fact lands on the full
//!      table set, whose only superset is itself: dirty propagation
//!      re-derives exactly one group and reuses the other 27. This is
//!      the scenario the `--assert` flag holds to [`SPEEDUP_FLOOR`]x —
//!      and to exactly one re-derived group per round, a count no box
//!      can blur.
//!    * `deep_check` — the violated check covers a two-table leaf
//!      subplan. Every covering group's estimate genuinely changes
//!      (the intervals containing the pair: 6 to 12 of 28, 9.3 on
//!      average), so the win is bounded; the assertion only requires
//!      incremental to not be *slower*.
//!
//!    Each side runs alone in its own steady-state loop over the same
//!    injected-fact sequence (a deployed system keeps its memo or does
//!    not), every round's incremental plan must cost bit-identically to
//!    the fresh-memo plan of the same round, and latency is summarized
//!    by the per-round median. Besides the ratio floors, `--assert` holds
//!    each scenario's incremental median to an absolute ceiling, so the
//!    ratio cannot be kept by both sides getting slower.
//!
//! 2. **Repeated parameterized Q10.** Under cross-query learning the
//!    first run pays for its misestimate with a re-optimization; the
//!    facts it publishes seed the second run's first plan (zero reopts),
//!    and the third run plans from the same facts: zero reopts and the
//!    second run's work to the bit. `--assert` fails on any deviation.
//!
//! 3. **One re-optimization step of each re-optimizing DMV query** (scale
//!    0.004, the `dmv.pop` benchmark's queries). The first step's facts —
//!    the violation and every exactly resolved check, each with the table
//!    set it was observed on, as the driver records them — go into a
//!    `FeedbackCache`; the re-plan on the query's first-plan memo is timed
//!    against the first plan and against a fresh-memo plan with the same
//!    facts, each side in its own loop as above. Recorded per query: the
//!    re-plan / first-plan ratio and the groups re-derived. `--assert`
//!    checks counts, not times: the re-plan costs the fresh plan's bits,
//!    rebuilds nothing, and re-derives at least one group.
//!
//! With `--write`, the raw data goes to `results/BENCH_reopt.json`; without
//! it nothing is written, so a `--quick --assert` check leaves the tree as
//! it was.

use pop::{ObservedCard, PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_optimizer::{optimize, CardFact, FeedbackCache, Memo, OptimizerContext};
use pop_plan::{QueryBuilder, QuerySpec, TableSet};
use pop_stats::StatsRegistry;
use pop_storage::{Catalog, IndexKind, StorageConfig};
use pop_tpch::{q10, tpch_catalog};
use pop_types::{DataType, Schema, Value};
use serde::Serialize;
use std::time::Instant;

/// Seven tables make a 6-join chain.
const CHAIN_TABLES: usize = 7;
const SPEEDUP_FLOOR: f64 = 5.0;
/// Incremental medians recorded in `results/BENCH_reopt.json` before the
/// enumerator consulted the join graph (200 rounds, 2-vCPU sandbox; now
/// about 12 and 33 us). A ratio floor alone would let both sides get slower
/// together — and a from-scratch pass that sheds waste narrows the ratio
/// for the right reason — so `--assert` also holds each scenario's
/// incremental median to these, times [`NOISE_ALLOWANCE`].
const ROOT_CHECK_CEILING_US: f64 = 34.338;
const DEEP_CHECK_CEILING_US: f64 = 136.292;
/// Single runs of one binary on that sandbox spread up to ~1.9x around
/// their median; the ceilings are absolute microseconds, so slower CI
/// hardware needs room too.
const NOISE_ALLOWANCE: f64 = 1.5;
const TPCH_SF: f64 = 0.002;
const DMV_SCALE: f64 = 0.004;

#[derive(Debug, Clone, Serialize)]
struct ReoptScenario {
    name: String,
    /// Where the injected fact comes from, in CHECK terms.
    description: String,
    rounds: usize,
    scratch_median_us: f64,
    incremental_median_us: f64,
    speedup: f64,
    /// Mean groups re-derived per incremental re-optimization.
    mean_groups_rederived: f64,
    /// Floor `--assert` holds this scenario's speedup to.
    asserted_floor: f64,
    /// Ceiling `--assert` holds `incremental_median_us` to (before the
    /// noise allowance).
    incremental_ceiling_us: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ReoptLatency {
    chain_tables: usize,
    chain_joins: usize,
    /// Join-order groups in the memo (the n(n+1)/2 intervals of the
    /// n-table chain).
    groups_total: usize,
    scenarios: Vec<ReoptScenario>,
}

#[derive(Debug, Clone, Serialize)]
struct RepeatedQ10 {
    first_run_reopts: usize,
    second_run_reopts: usize,
    third_run_reopts: usize,
    second_run_feedback_base_hits: u64,
    second_run_work: f64,
    third_run_work: f64,
}

/// One re-optimization step of a DMV query, from its first step's facts.
#[derive(Debug, Clone, Serialize)]
struct DmvReplan {
    name: String,
    tables: usize,
    groups_total: usize,
    /// Facts fed back: the violation and every exactly resolved check.
    facts: usize,
    /// Median fresh-memo plan without facts (the query's first plan).
    first_plan_us: f64,
    /// Median re-plan on the first plan's memo, with the facts.
    replan_us: f64,
    /// Median fresh-memo plan with the facts.
    fresh_replan_us: f64,
    replan_over_first: f64,
    replan_over_fresh: f64,
    groups_rederived: usize,
    dirty_seeds: usize,
}

#[derive(Debug, Clone, Serialize)]
struct DmvReplans {
    scale: f64,
    rounds: usize,
    queries: Vec<DmvReplan>,
    /// Medians over the queries.
    median_replan_over_first: f64,
    median_replan_over_fresh: f64,
    /// Sums over the queries: groups re-derived of groups held, and the
    /// facts fed back.
    groups_rederived: usize,
    groups_total: usize,
    facts: usize,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    speedup_floor: f64,
    assertion_ran: bool,
    reopt_latency: ReoptLatency,
    repeated_q10: RepeatedQ10,
    dmv_replans: DmvReplans,
}

/// A 7-table chain with alternating sizes, so join-order choices are
/// real and the enumeration space (28 groups, 56 connected pairs) is
/// non-trivial.
fn chain_catalog() -> Catalog {
    let cat = Catalog::new();
    let sizes = [400usize, 2000, 120, 2600, 80, 1700, 900];
    for (i, rows) in sizes.iter().enumerate() {
        cat.create_table(
            format!("t{i}"),
            Schema::from_pairs(&[
                ("pk", DataType::Int),
                ("key", DataType::Int),
                ("attr", DataType::Int),
            ]),
            (0..*rows).map(|r| {
                vec![
                    Value::Int(r as i64),
                    Value::Int((r % 64) as i64),
                    Value::Int((r % 20) as i64),
                ]
            }),
        )
        .unwrap();
        cat.create_index(&format!("t{i}"), "key", IndexKind::Hash)
            .unwrap();
    }
    cat
}

fn chain_query() -> QuerySpec {
    let mut b = QueryBuilder::new();
    let ids: Vec<usize> = (0..CHAIN_TABLES)
        .map(|i| b.table(format!("t{i}")))
        .collect();
    for w in 1..CHAIN_TABLES {
        b.join(ids[w - 1], 1, ids[w], 1);
    }
    b.filter(ids[0], Expr::col(ids[0], 2).le(Expr::lit(7i64)));
    b.build().unwrap()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One timed scenario. Each side runs in its own steady-state loop over
/// the *same* fact sequence — a deployed system keeps its memo or does
/// not, so neither should pay the other's cache churn — and latency is
/// summarized by the per-round median. The incremental plan of every
/// round must cost bit-identically to the fresh-memo plan of that round.
fn run_scenario(
    name: &str,
    description: &str,
    rounds: usize,
    asserted_floor: f64,
    incremental_ceiling_us: f64,
    fact_set: impl Fn(usize, &QuerySpec) -> TableSet,
) -> (ReoptScenario, usize) {
    let cat = chain_catalog();
    let stats = StatsRegistry::new();
    stats.analyze_all(&cat).unwrap();
    let spec = chain_query();
    let opt_cfg = pop_optimizer::OptimizerConfig::default();
    let cost = PopConfig::default().cost_model;
    let inject = |feedback: &mut FeedbackCache, round: usize| {
        // A fresh value every round so each round really re-plans.
        let observed = (500 + 137 * round) as f64;
        feedback.record(fact_set(round, &spec), CardFact::Exact(observed));
    };

    // Phase 1: from scratch — a fresh memo per re-optimization.
    let mut feedback = FeedbackCache::new();
    let octx = OptimizerContext::new(&cat, &stats, &opt_cfg, &cost, None, &feedback);
    let (warm, _) = optimize(&spec, &octx, &mut Memo::new()).unwrap();
    assert!(warm.props().cost.is_finite());
    let mut scratch_us = Vec::with_capacity(rounds);
    let mut scratch_cost_bits = Vec::with_capacity(rounds);
    for round in 0..rounds {
        inject(&mut feedback, round);
        let octx = OptimizerContext::new(&cat, &stats, &opt_cfg, &cost, None, &feedback);
        let t0 = Instant::now();
        let (plan, _) = optimize(&spec, &octx, &mut Memo::new()).unwrap();
        scratch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        scratch_cost_bits.push(plan.props().cost.to_bits());
    }

    // Phase 2: one persistent memo, same fact sequence.
    let mut feedback = FeedbackCache::new();
    let octx = OptimizerContext::new(&cat, &stats, &opt_cfg, &cost, None, &feedback);
    let mut memo = Memo::new();
    // Warm: the first optimization builds every group (a query's initial
    // plan always pays full price; re-optimizations are what POP repeats).
    let (warm, _) = optimize(&spec, &octx, &mut memo).unwrap();
    assert!(warm.props().cost.is_finite());
    let mut inc_us = Vec::with_capacity(rounds);
    let mut rederived_total = 0usize;
    let mut groups_total = 0usize;
    for (round, scratch_bits) in scratch_cost_bits.iter().enumerate() {
        inject(&mut feedback, round);
        let octx = OptimizerContext::new(&cat, &stats, &opt_cfg, &cost, None, &feedback);
        let t1 = Instant::now();
        let (inc, stats_rep) = optimize(&spec, &octx, &mut memo).unwrap();
        inc_us.push(t1.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            *scratch_bits,
            inc.props().cost.to_bits(),
            "{name} round {round}: persistent and fresh memo diverged"
        );
        assert!(
            !stats_rep.rebuilt,
            "{name} round {round}: unexpected full rebuild"
        );
        assert!(
            stats_rep.groups_rederived >= 1,
            "{name} round {round}: fact did not dirty the memo"
        );
        rederived_total += stats_rep.groups_rederived;
        groups_total = stats_rep.groups_total;
    }

    let scratch_median_us = median(&mut scratch_us);
    let incremental_median_us = median(&mut inc_us);
    (
        ReoptScenario {
            name: name.into(),
            description: description.into(),
            rounds,
            scratch_median_us,
            incremental_median_us,
            speedup: scratch_median_us / incremental_median_us,
            mean_groups_rederived: rederived_total as f64 / rounds as f64,
            asserted_floor,
            incremental_ceiling_us,
        },
        groups_total,
    )
}

fn reopt_latency(rounds: usize) -> ReoptLatency {
    let (root, groups_total) = run_scenario(
        "root_check",
        "violated check above the final join (LC at the last \
         materialization point / ECB at the root): the fact covers the \
         full table set and dirties exactly one group",
        rounds,
        SPEEDUP_FLOOR,
        ROOT_CHECK_CEILING_US,
        |_, spec| spec.all_tables(),
    );
    let (deep, _) = run_scenario(
        "deep_check",
        "violated check over a rotating two-table leaf subplan: every \
         covering group re-derives, bounding the win",
        rounds,
        1.0,
        DEEP_CHECK_CEILING_US,
        |round, _| {
            let lo = round % (CHAIN_TABLES - 1);
            TableSet::from_iter(lo..lo + 2)
        },
    );
    ReoptLatency {
        chain_tables: CHAIN_TABLES,
        chain_joins: CHAIN_TABLES - 1,
        groups_total,
        scenarios: vec![root, deep],
    }
}

fn repeated_q10() -> RepeatedQ10 {
    // The Figure 11 environment: tight memory and a highly selective
    // parameter-marker default, so binding 50 misestimates 67x.
    let mut cfg = PopConfig {
        learn_across_queries: true,
        ..PopConfig::default()
    };
    cfg.cost_model.mem_rows = 4000.0;
    cfg.optimizer.selectivity_defaults.range = 0.015;
    let exec = PopExecutor::new(tpch_catalog(TPCH_SF).unwrap(), cfg).unwrap();
    let q = q10();
    let params = Params::new(vec![Value::Int(50)]);
    let first = exec.run(&q, &params).unwrap();
    let second = exec.run(&q, &params).unwrap();
    let third = exec.run(&q, &params).unwrap();
    RepeatedQ10 {
        first_run_reopts: first.report.reopt_count,
        second_run_reopts: second.report.reopt_count,
        third_run_reopts: third.report.reopt_count,
        second_run_feedback_base_hits: second.report.feedback_base_hits,
        second_run_work: second.report.total_work,
        third_run_work: third.report.total_work,
    }
}

/// The facts a query's first step feeds back when a CHECK suspends it:
/// the violation's observation and every exactly resolved check, each
/// with the table set it was observed on. `None` when the first step
/// completed.
fn first_step_facts(exec: &PopExecutor, spec: &QuerySpec) -> Option<Vec<(TableSet, CardFact)>> {
    let result = exec.run(spec, &Params::none()).expect("query runs");
    let step = result.report.steps.first()?;
    let violation = step.violation.as_ref()?;
    let fact = |observed: ObservedCard| match observed {
        ObservedCard::Exact(n) => CardFact::Exact(n as f64),
        ObservedCard::AtLeast(n) => CardFact::AtLeast(n as f64),
    };
    let mut facts = vec![(violation.tables, fact(violation.observed))];
    for ev in &step.check_events {
        if ev.observed.is_exact() {
            facts.push((ev.tables, fact(ev.observed)));
        }
    }
    Some(facts)
}

/// Experiment 3: one re-optimization step of every re-optimizing DMV
/// query, timed on its first-plan memo against its first plan and a
/// fresh-memo plan with the same facts.
fn dmv_replans(rounds: usize) -> DmvReplans {
    let config = PopConfig {
        faults: None,
        learn_across_queries: false,
        budget: pop::Budget::default(),
        force_reopt_at: None,
        ..PopConfig::default()
    };
    let catalog = pop_dmv::dmv_catalog_with(DMV_SCALE, StorageConfig::default()).unwrap();
    let exec = PopExecutor::new(catalog, config).unwrap();
    let opt_cfg = exec.config().optimizer.clone();
    let cost = exec.config().cost_model.clone();
    let params = Params::none();
    let mut queries = Vec::new();
    for q in pop_dmv::dmv_queries() {
        let Some(facts) = first_step_facts(&exec, &q.spec) else {
            continue;
        };
        let none = FeedbackCache::new();
        let mut fed = FeedbackCache::new();
        for (set, fact) in &facts {
            fed.record(*set, *fact);
        }
        let ctx = |fb| {
            OptimizerContext::new(
                exec.catalog(),
                exec.stats(),
                &opt_cfg,
                &cost,
                Some(&params),
                fb,
            )
        };
        let (first_ctx, fed_ctx) = (ctx(&none), ctx(&fed));
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        };
        let (mut first_us, mut replan_us, mut fresh_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut replan = None;
        for _ in 0..rounds {
            first_us.push(timed(&mut || {
                optimize(&q.spec, &first_ctx, &mut Memo::new()).unwrap();
            }));
        }
        for _ in 0..rounds {
            let mut memo = Memo::new();
            optimize(&q.spec, &first_ctx, &mut memo).unwrap();
            replan_us.push(timed(&mut || {
                replan = Some(optimize(&q.spec, &fed_ctx, &mut memo).unwrap());
            }));
        }
        let mut fresh = None;
        for _ in 0..rounds {
            fresh_us.push(timed(&mut || {
                fresh = Some(optimize(&q.spec, &fed_ctx, &mut Memo::new()).unwrap());
            }));
        }
        let ((inc, stats), (fresh, _)) = (replan.unwrap(), fresh.unwrap());
        assert_eq!(
            inc.props().cost.to_bits(),
            fresh.props().cost.to_bits(),
            "{}: re-plan and fresh-memo plan diverged",
            q.name
        );
        let (first, re, fr) = (
            median(&mut first_us),
            median(&mut replan_us),
            median(&mut fresh_us),
        );
        queries.push((
            DmvReplan {
                name: q.name.clone(),
                tables: q.spec.tables.len(),
                groups_total: stats.groups_total,
                facts: facts.len(),
                first_plan_us: first,
                replan_us: re,
                fresh_replan_us: fr,
                replan_over_first: re / first,
                replan_over_fresh: re / fr,
                groups_rederived: stats.groups_rederived,
                dirty_seeds: stats.dirty_seeds,
            },
            stats.rebuilt,
        ));
    }
    let mut over_first: Vec<f64> = queries.iter().map(|(q, _)| q.replan_over_first).collect();
    let mut over_fresh: Vec<f64> = queries.iter().map(|(q, _)| q.replan_over_fresh).collect();
    assert!(
        queries.iter().all(|(_, rebuilt)| !rebuilt),
        "a re-plan rebuilt its memo"
    );
    let queries: Vec<DmvReplan> = queries.into_iter().map(|(q, _)| q).collect();
    DmvReplans {
        scale: DMV_SCALE,
        rounds,
        median_replan_over_first: median(&mut over_first),
        median_replan_over_fresh: median(&mut over_fresh),
        groups_rederived: queries.iter().map(|q| q.groups_rederived).sum(),
        groups_total: queries.iter().map(|q| q.groups_total).sum(),
        facts: queries.iter().map(|q| q.facts).sum(),
        queries,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let assert_floor = std::env::args().any(|a| a == "--assert");
    let write = std::env::args().any(|a| a == "--write");
    let rounds = if quick { 40 } else { 200 };

    let latency = reopt_latency(rounds);
    println!(
        "re-opt latency, {}-join chain ({} tables, {} groups), {} round(s) each:",
        latency.chain_joins, latency.chain_tables, latency.groups_total, rounds
    );
    for s in &latency.scenarios {
        println!(
            "  {:10} from-scratch {:8.1} us   incremental {:8.1} us   \
             speedup {:5.2}x   (mean {:.1} of {} groups re-derived)",
            s.name,
            s.scratch_median_us,
            s.incremental_median_us,
            s.speedup,
            s.mean_groups_rederived,
            latency.groups_total
        );
    }

    let q10_line = repeated_q10();
    println!(
        "repeated Q10: reopts {} -> {} -> {}, second-run cross-query hits {}, \
         work second {:.0} / third {:.0}",
        q10_line.first_run_reopts,
        q10_line.second_run_reopts,
        q10_line.third_run_reopts,
        q10_line.second_run_feedback_base_hits,
        q10_line.second_run_work,
        q10_line.third_run_work
    );

    let dmv = dmv_replans(if quick { 15 } else { 61 });
    println!(
        "DMV re-plans ({} queries, scale {}): re-plan / first plan median {:.2}, \
         re-plan / fresh-memo plan median {:.2}; {} of {} groups re-derived \
         for {} fact(s)",
        dmv.queries.len(),
        dmv.scale,
        dmv.median_replan_over_first,
        dmv.median_replan_over_fresh,
        dmv.groups_rederived,
        dmv.groups_total,
        dmv.facts
    );
    for q in &dmv.queries {
        println!(
            "  {:6} {:2} tables  first {:7.1} us  re-plan {:7.1} us ({:.2}x)  fresh {:7.1} us  \
             {:3} of {:3} groups re-derived for {} fact(s)",
            q.name,
            q.tables,
            q.first_plan_us,
            q.replan_us,
            q.replan_over_first,
            q.fresh_replan_us,
            q.groups_rederived,
            q.groups_total,
            q.facts
        );
    }

    let mut failures = Vec::new();
    if assert_floor {
        if dmv.queries.is_empty() {
            failures.push("no DMV query re-optimized".into());
        }
        for q in &dmv.queries {
            if q.groups_rederived == 0 {
                failures.push(format!("{}: the facts re-derived no group", q.name));
            }
        }
        for s in &latency.scenarios {
            if s.speedup < s.asserted_floor {
                failures.push(format!(
                    "{}: incremental re-optimization only {:.2}x cheaper than \
                     from-scratch (floor {}x)",
                    s.name, s.speedup, s.asserted_floor
                ));
            }
            if s.name == "root_check" && s.mean_groups_rederived != 1.0 {
                failures.push(format!(
                    "root_check: a fact on the full table set re-derived {} group(s) per round, not 1",
                    s.mean_groups_rederived
                ));
            }
            if s.incremental_median_us > s.incremental_ceiling_us * NOISE_ALLOWANCE {
                failures.push(format!(
                    "{}: incremental re-optimization took {:.1} us, above the recorded \
                     {:.1} us x {NOISE_ALLOWANCE} allowance",
                    s.name, s.incremental_median_us, s.incremental_ceiling_us
                ));
            }
        }
        if q10_line.first_run_reopts == 0 {
            failures.push("first Q10 run did not re-optimize (misestimate not triggered)".into());
        }
        if q10_line.second_run_reopts != 0 {
            failures.push(format!(
                "second Q10 run re-optimized {} time(s) despite learned facts",
                q10_line.second_run_reopts
            ));
        }
        if q10_line.second_run_feedback_base_hits == 0 {
            failures.push("second Q10 run never consulted the cross-query store".into());
        }
        if q10_line.third_run_reopts != 0 {
            failures.push(format!(
                "third Q10 run re-optimized {} time(s) despite learned facts",
                q10_line.third_run_reopts
            ));
        }
        if q10_line.third_run_work.to_bits() != q10_line.second_run_work.to_bits() {
            failures.push(format!(
                "third Q10 run did {} work, the second {}",
                q10_line.third_run_work, q10_line.second_run_work
            ));
        }
    }

    let report = BenchReport {
        speedup_floor: SPEEDUP_FLOOR,
        assertion_ran: assert_floor,
        reopt_latency: latency,
        repeated_q10: q10_line,
        dmv_replans: dmv,
    };
    if write {
        if let Some(path) = pop_bench::save_json("BENCH_reopt", &report) {
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
