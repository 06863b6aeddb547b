//! Validity-range computation through plan sensitivity analysis (§2.2).
//!
//! When dynamic programming prunes a structurally equivalent alternative
//! `Palt` in favour of `Popt`, we search for the input cardinality at which
//! their cost functions cross. Pruning only records *which* alternatives a
//! candidate beat ([`Candidate::pruned`]); the search runs in
//! `finalize::extract`, for the joins of the extracted plan alone — the
//! only candidates whose ranges anything reads. Child subtree costs are
//! identical constants on both sides (the plans share their input edges),
//! so the difference depends only on the root-operator local costs — see
//! [`crate::Candidate::cost_at`].
//!
//! The optimizer cost functions are not smooth (spill steps) and not
//! analytically invertible, so the paper uses a **modified Newton-Raphson**
//! (Figure 5) with a divergence-escape jump and a hard iteration cap. We
//! additionally bisect between the last-good and first-inverted points to
//! tighten the bound; the returned point is always a *verified* inversion
//! (the alternative really is no worse there), keeping the detection
//! conservative in the paper's sense.

use crate::candidate::SPLIT_SLOTS;
use crate::{Candidate, CostModel};
use pop_plan::ValidityRange;

/// Hard cap on how far the search may run away from the estimate.
const MAX_BLOWUP: f64 = 1e12;
/// Bisection refinement iterations after a crossing is found.
const BISECT_ITERS: usize = 20;

/// Find the smallest verified cardinality `c > est` at which `diff(c) <= 0`
/// (i.e. the alternative plan stops being worse), using the modified
/// Newton-Raphson of Figure 5. `diff(c) = cost_alt(c) - cost_opt(c)` must
/// be positive at `est` (the optimum really is cheaper). Returns `None` if
/// no crossing is found within `iters` Newton-Raphson steps.
pub fn find_upper_crossing(diff: impl Fn(f64) -> f64, est: f64, iters: usize) -> Option<f64> {
    if est <= 0.0 || !est.is_finite() || est.is_nan() {
        return None;
    }
    let mut card = est;
    let mut curr_diff = diff(card);
    if curr_diff <= 0.0 {
        // Tie (pruning keeps the first plan on equal cost): the alternative
        // is no worse right at the estimate; any growth is unproven, so
        // report no crossing rather than a zero-width range.
        return None;
    }
    for _ in 0..iters {
        let prev_card = card;
        let prev_diff = curr_diff;
        // (b) nudge to get a gradient
        card *= 1.1;
        let new_diff = diff(card);
        if new_diff <= 0.0 {
            // (d) inversion within the nudge
            return Some(bisect(&diff, prev_card, card));
        }
        if new_diff >= prev_diff {
            // (e) Newton-Raphson is diverging (or flat): jump
            card *= 10.0;
        } else {
            // (f) the Figure 5 Newton-Raphson step
            let denom = 11.0 * (prev_diff - new_diff);
            card *= 1.0 + new_diff / denom;
        }
        if !card.is_finite() || card > est * MAX_BLOWUP {
            return None;
        }
        curr_diff = diff(card);
        if curr_diff <= 0.0 {
            return Some(bisect(&diff, prev_card, card));
        }
    }
    None
}

/// Mirror of [`find_upper_crossing`] for shrinking cardinalities: the
/// largest verified `c < est` with `diff(c) <= 0`. Returns `None` if no
/// crossing exists down to (effectively) zero.
pub fn find_lower_crossing(diff: impl Fn(f64) -> f64, est: f64, iters: usize) -> Option<f64> {
    if est <= 0.0 || !est.is_finite() || est.is_nan() {
        return None;
    }
    let mut card = est;
    let mut curr_diff = diff(card);
    if curr_diff <= 0.0 {
        return None;
    }
    for _ in 0..iters {
        let prev_card = card;
        let prev_diff = curr_diff;
        card *= 0.9;
        let new_diff = diff(card);
        if new_diff <= 0.0 {
            return Some(bisect_down(&diff, prev_card, card));
        }
        if new_diff >= prev_diff {
            card /= 10.0;
        } else {
            // Newton-Raphson on the secant through (prev, prev_diff) and
            // (0.9·prev, new_diff): step down by nd·(0.1·prev)/(pd − nd).
            let step = new_diff * (0.1 * prev_card) / (prev_diff - new_diff);
            card = (card - step).max(prev_card * 1e-6);
        }
        if card < est / MAX_BLOWUP || card <= f64::MIN_POSITIVE {
            return None;
        }
        curr_diff = diff(card);
        if curr_diff <= 0.0 {
            return Some(bisect_down(&diff, prev_card, card));
        }
    }
    None
}

/// Tighten an upper crossing: `good` has `diff > 0`, `bad` has `diff <= 0`,
/// `good < bad`. Returns the smallest verified inversion point found.
fn bisect(diff: &impl Fn(f64) -> f64, mut good: f64, mut bad: f64) -> f64 {
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (good + bad);
        if !(mid > good && mid < bad) {
            break;
        }
        if diff(mid) <= 0.0 {
            bad = mid;
        } else {
            good = mid;
        }
    }
    bad
}

/// Tighten a lower crossing: `good > bad`, `diff(good) > 0 >= diff(bad)`.
fn bisect_down(diff: &impl Fn(f64) -> f64, mut good: f64, mut bad: f64) -> f64 {
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (good + bad);
        if !(mid < good && mid > bad) {
            break;
        }
        if diff(mid) <= 0.0 {
            bad = mid;
        } else {
            good = mid;
        }
    }
    bad
}

/// The most cost differences one crossing search evaluates: one at the
/// estimate, two per Newton-Raphson step, one per bisection step.
pub const fn max_evals_per_search(iters: usize) -> usize {
    1 + 2 * iters + BISECT_ITERS
}

/// The most cost differences the validity ranges of one extracted join
/// cost: a split builds at most five candidates, so a winner
/// pruned at most four siblings, each searched on both edges in both
/// directions.
pub const fn max_evals_per_join(iters: usize) -> usize {
    (SPLIT_SLOTS - 1) * 2 * 2 * max_evals_per_search(iters)
}

/// Narrow `ranges`, the validity ranges of `winner`'s canonical edges,
/// against `loser`, a structurally-equivalent alternative pruning dropped
/// in its favour. Called from extraction, once per recorded sibling;
/// repeated calls against different alternatives progressively tighten the
/// ranges (the iterative narrowing of §2.2). An edge without a planned
/// input (the NLJN inner, probed through its index) has no physical child
/// to carry a range and is not searched. Returns the number of cost
/// differences it evaluated.
pub fn narrow_on_prune(
    ranges: &mut [ValidityRange; 2],
    winner: &Candidate,
    loser: &Candidate,
    model: &CostModel,
    iters: usize,
    gain_margin: f64,
) -> usize {
    let n_edges = winner.root_spec.num_edges();
    if n_edges == 0 || loser.root_spec.num_edges() != n_edges {
        return 0;
    }
    debug_assert_eq!(winner.partition, loser.partition);
    let evals = std::cell::Cell::new(0);
    for edge in (0..n_edges).filter(|&e| winner.edge_children[e].is_some()) {
        let est = winner.edge_cards[edge];
        // The bound is declared where the alternative wins *by the gain
        // margin*, so a triggered check guarantees re-optimization is
        // worth its overhead, not merely that a tied plan exists.
        let diff = |c: f64| {
            evals.set(evals.get() + 1);
            let mut cards = winner.edge_cards;
            cards[edge] = c;
            loser.cost_at(model, &cards) + gain_margin - winner.cost_at(model, &cards)
        };
        let hi = find_upper_crossing(diff, est, iters).unwrap_or(f64::INFINITY);
        let lo = find_lower_crossing(diff, est, iters).unwrap_or(0.0);
        ranges[edge] = ranges[edge].intersect(&ValidityRange::new(lo, hi));
    }
    evals.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_crossing_found_exactly() {
        // diff(c) = 1000 - 2c: crossing at 500.
        let diff = |c: f64| 1000.0 - 2.0 * c;
        let hi = find_upper_crossing(diff, 100.0, 3).expect("crossing");
        assert!((hi - 500.0).abs() < 5.0, "got {hi}");
    }

    #[test]
    fn no_crossing_when_opt_always_wins() {
        // Alternative always 100 units worse, regardless of cardinality.
        let diff = |_c: f64| 100.0;
        assert_eq!(find_upper_crossing(diff, 100.0, 3), None);
        assert_eq!(find_lower_crossing(diff, 100.0, 3), None);
    }

    #[test]
    fn lower_crossing_found() {
        // Alternative becomes cheaper for small cardinalities:
        // diff(c) = 3c - 300 -> crossing at 100.
        let diff = |c: f64| 3.0 * c - 300.0;
        let lo = find_lower_crossing(diff, 1000.0, 5).expect("crossing");
        assert!((lo - 100.0).abs() < 5.0, "got {lo}");
    }

    #[test]
    fn conservative_result_is_verified_inversion() {
        // Steep nonlinear crossing.
        let diff = |c: f64| 1e6 - c * c;
        let hi = find_upper_crossing(diff, 10.0, 3).expect("crossing");
        assert!(diff(hi) <= 0.0, "returned point must be a real inversion");
        assert!((hi - 1000.0).abs() < 50.0, "got {hi}");
    }

    #[test]
    fn survives_step_discontinuity() {
        // Step function mimicking a spill boundary: constant advantage
        // until 5000, then the alternative wins outright.
        let diff = |c: f64| if c <= 5000.0 { 50.0 } else { -5000.0 };
        let hi = find_upper_crossing(diff, 100.0, 3);
        // Divergence jumps (x10) must escape the flat region within 3 iters.
        let hi = hi.expect("crossing past the step");
        assert!(diff(hi) <= 0.0);
        assert!(hi > 5000.0 && hi < 7000.0, "got {hi}");
    }

    #[test]
    fn tie_at_estimate_reports_none() {
        let diff = |_c: f64| 0.0;
        assert_eq!(find_upper_crossing(diff, 100.0, 3), None);
    }

    #[test]
    fn invalid_estimates_rejected() {
        let diff = |c: f64| 100.0 - c;
        assert_eq!(find_upper_crossing(diff, 0.0, 3), None);
        assert_eq!(find_upper_crossing(diff, f64::NAN, 3), None);
        assert_eq!(find_lower_crossing(diff, -5.0, 3), None);
    }

    #[test]
    fn the_eval_cap_counts_every_branch_of_the_search() {
        // A flat difference up to a step that only the last divergence
        // jump (121 -> 1331) crosses: every step evaluates twice, then
        // bisection runs to its cap.
        let evals = std::cell::Cell::new(0);
        let diff = |c: f64| {
            evals.set(evals.get() + 1);
            if c < 1000.0 {
                1.0
            } else {
                -1.0
            }
        };
        assert!(find_upper_crossing(diff, 1.0, 3).is_some());
        assert_eq!(evals.get(), max_evals_per_search(3));
        assert_eq!(max_evals_per_join(3), 432);
    }

    #[test]
    fn three_iterations_usually_suffice() {
        // The paper: "merely three iterations of Newton-Raphson results in
        // finding a good validity range". Mildly nonlinear diff.
        let diff = |c: f64| 2000.0 + 10.0 * c - 0.02 * c * c; // root ~ 653
        let hi = find_upper_crossing(diff, 50.0, 3).expect("crossing in 3 iters");
        assert!(diff(hi) <= 0.0);
        assert!((hi - 653.0).abs() < 30.0, "got {hi}");
    }
}
