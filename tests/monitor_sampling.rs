//! Acceptance scenario for the continuous suboptimality monitors and the
//! sampling pre-validation of risky plans.
//!
//! A DMV-style predicate over four perfectly correlated columns is
//! misestimated by **six orders of magnitude** (est `100 000 / 100⁴ =
//! 0.001`, actual ≈ 1000), and the checkpoint flavors are disabled so
//! there is **no CHECK between the bad edge and the root** — the planned
//! safety net of the paper is absent by construction. The misestimate
//! must still be caught:
//!
//! * by the **sampling pre-validation**, whose scaled-trip monitors fire
//!   a few rows into the sample and re-optimize before the full run, or
//! * by a **continuous suboptimality monitor** during the full run,
//!   escalated exactly like a CHECK violation.
//!
//! The final test pins the counterfactual: with `POP_MONITOR=off` and
//! `POP_SAMPLE_VET=off` (here via the config fields, to avoid env races)
//! the lie sails through undetected — every protective assertion of the
//! other tests fails in that configuration.

use pop::{FlavorSet, PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::{QueryBuilder, QuerySpec};
use pop_storage::Catalog;
use pop_types::{DataType, Schema, Value};

const VEHICLES: i64 = 100_000;
const OWNERS: i64 = 500;

/// splitmix64 finalizer: decorrelates row position from column value, so
/// the deterministic stride sample sees an unbiased slice of every group
/// (a group laid out periodically could alias with the sampling stride).
fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shared group of one vehicle: make, model, trim and body are all
/// this one value — perfect correlation, 100 distinct values per column.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn group(i: i64) -> i64 {
    (mix(i as u64) % 100) as i64
}

fn dmv_style_db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "vehicles",
        Schema::from_pairs(&[
            ("vid", DataType::Int),
            ("make", DataType::Int),
            ("model", DataType::Int),
            ("trim_level", DataType::Int),
            ("body", DataType::Int),
            ("owner", DataType::Int),
        ]),
        (0..VEHICLES).map(|i| {
            let g = group(i);
            vec![
                Value::Int(i),
                Value::Int(g),
                Value::Int(g),
                Value::Int(g),
                Value::Int(g),
                Value::Int(i % OWNERS),
            ]
        }),
    )
    .unwrap();
    cat.create_table(
        "owners",
        Schema::from_pairs(&[("oid", DataType::Int), ("region", DataType::Int)]),
        (0..OWNERS).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )
    .unwrap();
    cat
}

/// Every vehicle matches exactly one owner, so the join returns exactly
/// the vehicles of group 7.
fn expected_rows() -> usize {
    (0..VEHICLES).filter(|&i| group(i) == 7).count()
}

/// `vehicles ⋈ owners` with the four-way correlated predicate: the
/// independence assumption estimates `100 000 × (1/100)⁴ = 0.001` rows
/// where reality delivers about a thousand.
fn correlated_query() -> QuerySpec {
    let mut b = QueryBuilder::new();
    let v = b.table("vehicles");
    let o = b.table("owners");
    b.join(v, 5, o, 0);
    b.filter(
        v,
        Expr::col(v, 1)
            .eq(Expr::lit(7i64))
            .and(Expr::col(v, 2).eq(Expr::lit(7i64)))
            .and(Expr::col(v, 3).eq(Expr::lit(7i64)))
            .and(Expr::col(v, 4).eq(Expr::lit(7i64))),
    );
    b.build().unwrap()
}

/// POP enabled but with every checkpoint flavor off: no CHECK is placed
/// anywhere in the plan, so only monitors and the sampling vet stand
/// between the misestimate and the root.
fn no_check_config(monitor: bool, sample_vet: bool) -> PopConfig {
    let mut c = PopConfig::default();
    c.optimizer.flavors = FlavorSet::none();
    c.monitor = monitor;
    c.sample_vet = sample_vet;
    c
}

fn run(monitor: bool, sample_vet: bool) -> pop::QueryResult {
    let exec = PopExecutor::new(dmv_style_db(), no_check_config(monitor, sample_vet)).unwrap();
    let res = exec.run(&correlated_query(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), expected_rows(), "wrong answer");
    res
}

#[test]
fn sampling_vet_catches_the_misestimate_before_the_full_run() {
    let res = run(false, true);
    let sv = res
        .report
        .sample_vet
        .as_ref()
        .expect("risky no-CHECK plan must be sample-vetted");
    assert_eq!(sv.table, "vehicles");
    assert!(sv.scale >= 2, "sample must be a strict subset: {sv:?}");
    assert!(
        sv.replanned,
        "six-orders misestimate must fail the vet: {sv:?}"
    );
    assert!(
        sv.observations.iter().any(|(_, _, outside)| *outside),
        "no out-of-range observation recorded: {sv:?}"
    );
    // The vet replan happens *before* the full run: it consumes no
    // re-optimization budget and leaves a single executed step.
    assert_eq!(res.report.reopt_count, 0, "{:#?}", res.report.steps);
    assert_eq!(res.report.steps.len(), 1);
}

#[test]
fn monitor_catches_the_misestimate_during_the_full_run() {
    let res = run(true, false);
    assert!(res.report.sample_vet.is_none());
    assert!(
        res.report.steps[0].monitors_installed > 0,
        "no monitors installed on a no-CHECK plan"
    );
    assert!(
        res.report.reopt_count >= 1,
        "monitor must escalate like a CHECK violation: {:#?}",
        res.report.steps
    );
    let first = &res.report.steps[0];
    assert!(
        !first.monitors.is_empty(),
        "no suboptimality signal recorded"
    );
    let v = first.violation.as_ref().expect("step must suspend");
    assert!(v.monitor, "violation must be monitor-flagged: {v:?}");
    // Monitors may fire step by step as the misestimate is discovered
    // edge by edge (the join's estimate is derived independently of the
    // corrected scan), but never twice on the same subplan — the fed-back
    // fact and the fired-signature disarm both forbid it.
    let mut fired: Vec<&str> = Vec::new();
    for s in &res.report.steps {
        for m in &s.monitors {
            assert!(
                !fired.contains(&m.signature.as_str()),
                "monitor re-tripped on {}: {:#?}",
                m.signature,
                res.report.steps
            );
            fired.push(&m.signature);
        }
    }
    // And the loop converges: the last step runs to completion.
    assert!(res.report.steps.last().unwrap().violation.is_none());
}

#[test]
fn defaults_catch_it_one_way_or_the_other() {
    let res = run(true, true);
    let vetted = res
        .report
        .sample_vet
        .as_ref()
        .is_some_and(|sv| sv.replanned);
    let monitored = res.report.steps.iter().any(|s| !s.monitors.is_empty());
    assert!(
        vetted || monitored,
        "six-orders misestimate escaped both nets: {:#?}",
        res.report.summary()
    );
}

#[test]
fn with_both_nets_off_the_lie_sails_through() {
    // The counterfactual the other tests protect against: this is what
    // `POP_MONITOR=off POP_SAMPLE_VET=off` degrades to — no vet, no
    // signal, no re-optimization, the bad plan runs to the bitter end.
    let res = run(false, false);
    assert!(res.report.sample_vet.is_none());
    assert_eq!(res.report.reopt_count, 0);
    assert_eq!(res.report.steps.len(), 1);
    assert!(res.report.steps[0].monitors.is_empty());
    assert_eq!(res.report.steps[0].monitors_installed, 0);
}
