//! Regression guards for the paper-shape claims recorded in
//! EXPERIMENTS.md. These run the real experiment harness at experiment
//! scale (a few seconds in a debug build), as part of tier-1
//! `cargo test -q`.

use pop_bench::experiments::{fig11, fig13, fig15, validity};

#[test]
fn fig11_shape_holds() {
    let r = fig11::run().unwrap();
    // POP stays within a small constant of the correct-estimate optimum
    // (paper: <= ~2x).
    assert!(
        r.max_pop_vs_oracle <= 2.0,
        "POP/optimal = {:.2}",
        r.max_pop_vs_oracle
    );
    // The static misestimated plan degrades by a large factor (paper:
    // almost an order of magnitude).
    assert!(
        r.max_static_vs_pop >= 4.0,
        "static/POP = {:.2}",
        r.max_static_vs_pop
    );
    // The optimal plan changes across the sweep (paper: 5 plans).
    assert!(r.oracle_plan_count >= 2, "{} plans", r.oracle_plan_count);
    // Static work grows monotonically-ish with selectivity; POP flattens.
    let first = &r.points[1];
    let last = r.points.last().unwrap();
    assert!(last.static_work > 4.0 * first.static_work);
    assert!(last.pop_work < 4.0 * first.pop_work);
}

#[test]
fn fig13_lcem_overhead_is_small() {
    let r = fig13::run().unwrap();
    assert!(
        r.max_normalized <= 1.05,
        "LCEM overhead too high: {:.4}",
        r.max_normalized
    );
}

#[test]
fn fig15_dmv_asymmetry_holds() {
    let r = fig15::run().unwrap();
    // A healthy share of queries improves...
    assert!(r.improved >= 8, "only {} improved", r.improved);
    // ...the best win clearly beats the worst regression...
    assert!(
        r.max_speedup > 1.5 && r.max_speedup > 3.0 * (r.max_regression - 1.0) + 1.0,
        "speedup {:.2} vs regression {:.2}",
        r.max_speedup,
        r.max_regression
    );
    // ...and regressions stay mild.
    assert!(
        r.max_regression <= 1.5,
        "regression too large: {:.2}",
        r.max_regression
    );
    // Whole-workload win.
    let total_pop: f64 = r.points.iter().map(|p| p.pop_work).sum();
    let total_static: f64 = r.points.iter().map(|p| p.static_work).sum();
    assert!(total_pop < total_static);
}

#[test]
fn validity_ranges_show_the_paper_asymmetry() {
    let r = validity::run().unwrap();
    // Most checkpoints get finite upper bounds...
    assert!(r.bounded_fraction > 0.4, "{}", r.bounded_fraction);
    // ...and slack varies over orders of magnitude: tiny edges tolerate
    // huge errors, big edges near plan changes do not.
    let slacks: Vec<f64> = r.ranges.iter().filter_map(|g| g.upper_slack).collect();
    let min = slacks.iter().copied().fold(f64::INFINITY, f64::min);
    let max = slacks.iter().copied().fold(0.0, f64::max);
    assert!(
        max / min > 20.0,
        "slack spread too small: {min:.2}..{max:.2}"
    );
}
