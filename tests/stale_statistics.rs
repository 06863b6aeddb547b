//! The paper's third estimation-error source (§1): **outdated
//! statistics**. The optimizer plans against statistics collected before
//! the data grew; POP's checkpoints catch the resulting misestimates at
//! runtime.

use pop::{PopConfig, PopExecutor, StatsRegistry};
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

/// The drift scenario at the default configuration: the build-edge CHECK
/// resolves the 41x growth with one re-optimization, and the recovered
/// plan does less than half the work of the stale static plan (about
/// 57 k against 135 k work units). A CHECK is the only runtime guard:
/// nothing may trip on the drifted stream before it resolves and turn
/// the one re-optimization into several.
#[test]
fn default_pop_does_less_work_than_static_on_stale_statistics() {
    let run = |cfg: PopConfig| {
        let (cat, stats) = stale_setup();
        let exec = PopExecutor::with_stats(cat, stats, cfg);
        exec.run(&query(), &Params::none()).unwrap()
    };
    let pop = run(PopConfig::default());
    let fixed = run(PopConfig::without_pop());
    assert_eq!(pop.rows.len(), 20_500, "drift must never cost rows");
    assert_eq!(fixed.rows.len(), 20_500);
    assert_eq!(fixed.report.reopt_count, 0);
    assert_eq!(
        pop.report.reopt_count,
        1,
        "one CHECK violation should recover the plan:\n{}",
        pop.report.summary()
    );
    let first = &pop.report.steps[0];
    assert!(
        first.violation.is_some(),
        "first step must suspend:\n{}",
        pop.report.summary()
    );
    assert!(
        pop.report.total_work < fixed.report.total_work,
        "POP {:.0} work units vs static {:.0}:\n{}",
        pop.report.total_work,
        fixed.report.total_work,
        pop.report.summary()
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
