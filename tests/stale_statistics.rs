//! The paper's third estimation-error source (§1): **outdated
//! statistics**. The optimizer plans against statistics collected before
//! the data grew; POP's checkpoints catch the resulting misestimates at
//! runtime.

use pop::{FlavorSet, PopConfig, PopExecutor, StatsRegistry};
use pop_expr::Params;
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};

/// Build the catalog, analyze statistics, then grow the `events` table
/// 40x — without re-analyzing. The stats now say "500 events"; reality
/// says 20 500.
fn stale_setup() -> (Catalog, StatsRegistry) {
    let cat = Catalog::new();
    cat.create_table(
        "users",
        Schema::from_pairs(&[("uid", DataType::Int), ("segment", DataType::Int)]),
        (0..2000).map(|i| vec![Value::Int(i), Value::Int(i % 50)]),
    )
    .unwrap();
    cat.create_table(
        "events",
        Schema::from_pairs(&[("eid", DataType::Int), ("uid", DataType::Int)]),
        (0..500).map(|i| vec![Value::Int(i), Value::Int(i % 500)]),
    )
    .unwrap();
    cat.create_index("events", "uid", IndexKind::Hash).unwrap();
    cat.create_index("users", "uid", IndexKind::Hash).unwrap();

    // RUNSTATS at the original size...
    let stats = StatsRegistry::new();
    stats.analyze_all(&cat).unwrap();

    // ...then the workload keeps inserting events (40x growth).
    let events = cat.table("events").unwrap();
    events
        .insert(
            (500..20_500)
                .map(|i| vec![Value::Int(i), Value::Int(i % 2000)])
                .collect(),
        )
        .unwrap();
    cat.refresh_indexes("events").unwrap();
    (cat, stats)
}

fn query() -> pop::QuerySpec {
    // No filters: believing EVENTS is tiny (500 rows), the optimizer
    // hashes it as the build side. In reality it has 20 500 rows — past
    // the memory budget, so the stale plan spills; the build-edge LC
    // check fires and the re-optimization flips the build side.
    let mut b = QueryBuilder::new();
    let u = b.table("users");
    let e = b.table("events");
    b.join(u, 0, e, 1);
    b.project(&[(u, 0), (e, 0)]);
    b.build().unwrap()
}

#[test]
fn stale_statistics_trigger_reoptimization() {
    let (cat, stats) = stale_setup();
    let mut cfg = PopConfig::default();
    cfg.cost_model.mem_rows = 4000.0;
    let exec = PopExecutor::with_stats(cat, stats, cfg);
    let res = exec.run(&query(), &Params::none()).unwrap();
    // Every event joins exactly one user.
    assert_eq!(res.rows.len(), 20_500);
    assert!(
        res.report.reopt_count >= 1,
        "stale stats should trip a checkpoint; steps: {}",
        res.report.summary()
    );
}

#[test]
fn stale_and_fresh_stats_agree_on_results() {
    let (cat, stale) = stale_setup();
    let fresh = StatsRegistry::new();
    fresh.analyze_all(&cat).unwrap();
    let q = query();
    let stale_exec = PopExecutor::with_stats(cat.clone(), stale, PopConfig::default());
    let fresh_exec = PopExecutor::with_stats(cat, fresh, PopConfig::default());
    let mut a = stale_exec.run(&q, &Params::none()).unwrap().rows;
    let mut b = fresh_exec.run(&q, &Params::none()).unwrap().rows;
    a.sort();
    b.sort();
    assert_eq!(a, b, "statistics must never affect results");
}

/// The drift scenario with the paper's safety net absent: every CHECK
/// flavor is off, so no checkpoint can catch the 41x growth. The
/// continuous suboptimality monitor still counts the drifted stream
/// against its stale envelope, flags the drift mid-run and forces the
/// early re-optimization — and switching the monitor off too is the
/// counterfactual where the stale plan runs blind to the end.
#[test]
fn drifting_stats_without_checks_are_caught_by_the_monitor() {
    let run = |monitor: bool| {
        let (cat, stats) = stale_setup();
        let mut cfg = PopConfig::default();
        cfg.optimizer.flavors = FlavorSet::none();
        cfg.monitor = monitor;
        cfg.sample_vet = false;
        let exec = PopExecutor::with_stats(cat, stats, cfg);
        exec.run(&query(), &Params::none()).unwrap()
    };

    let res = run(true);
    assert_eq!(res.rows.len(), 20_500, "drift must never cost rows");
    assert!(
        res.report.reopt_count >= 1,
        "monitor should flag the drift and re-optimize early:\n{}",
        res.report.summary()
    );
    let first = &res.report.steps[0];
    assert!(
        !first.monitors.is_empty(),
        "no suboptimality signal recorded:\n{}",
        res.report.summary()
    );
    let v = first.violation.as_ref().expect("first step must suspend");
    assert!(v.monitor, "violation must be monitor-flagged: {v:?}");

    // Counterfactual: no checks, no monitor — the drift goes unnoticed.
    let blind = run(false);
    assert_eq!(blind.rows.len(), 20_500);
    assert_eq!(
        blind.report.reopt_count,
        0,
        "nothing should observe the drift with both nets off:\n{}",
        blind.report.summary()
    );
}

#[test]
fn fresh_statistics_avoid_the_reopt() {
    let (cat, _stale) = stale_setup();
    let fresh = StatsRegistry::new();
    fresh.analyze_all(&cat).unwrap();
    let mut cfg = PopConfig::default();
    cfg.cost_model.mem_rows = 4000.0;
    let exec = PopExecutor::with_stats(cat, fresh, cfg);
    let res = exec.run(&query(), &Params::none()).unwrap();
    assert_eq!(
        res.report.reopt_count,
        0,
        "accurate statistics should plan right the first time:\n{}",
        res.report.summary()
    );
}
