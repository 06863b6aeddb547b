//! Property-style tests for the sensitivity analysis in
//! `pop_optimizer::validity`. The invariants under test are the ones the
//! POP loop depends on:
//!
//! * any crossing reported by `find_upper_crossing` / `find_lower_crossing`
//!   **brackets the estimation point** (upper > est, lower < est), so the
//!   validity range built from them always contains the estimate;
//! * a reported crossing is a **verified inversion** (`diff <= 0` there) —
//!   the detection stays conservative even on non-smooth cost functions;
//! * when the alternative is already no worse at the estimate there is no
//!   range to declare, and both searches report `None`;
//! * `narrow_on_prune` only ever **shrinks** the edge ranges it is handed
//!   (intersection semantics), and never narrows an edge past the winner's
//!   estimated cardinality.

use pop_optimizer::validity::{find_lower_crossing, find_upper_crossing, narrow_on_prune};
use pop_optimizer::{Candidate, CostModel, RootCostSpec};
use pop_plan::{TableSet, ValidityRange};
use proptest::prelude::*;

/// A two-edge join candidate whose root cost follows `root_spec` — a cost
/// record is all `narrow_on_prune` reads.
fn join_candidate(root_spec: RootCostSpec, fixed_cost: f64, edge_cards: [f64; 2]) -> Candidate {
    Candidate {
        cost: 0.0,
        card: edge_cards[0] * edge_cards[1],
        order: None,
        partition: Some((TableSet::single(0), TableSet::single(1))),
        root_spec,
        fixed_cost,
        edge_cards,
        edge_children: [Some(0), Some(0)],
        leaf: None,
        slot: 0,
        pruned: 0,
    }
}

proptest! {
    /// Linear difference `diff(c) = a - b*c`, estimate strictly inside the
    /// winning region: the reported upper crossing must lie strictly above
    /// the estimate and be a verified inversion, so `[0, hi]` contains est.
    #[test]
    fn upper_crossing_brackets_estimate_linear(
        a in 10.0..1e5_f64,
        b in 0.01..100.0_f64,
        frac in 0.01..0.95_f64,
    ) {
        let est = frac * a / b;
        let diff = |c: f64| a - b * c;
        prop_assert!(diff(est) > 0.0);
        let hi = find_upper_crossing(diff, est, 10);
        prop_assert!(hi.is_some(), "linear crossing must be found (a={a}, b={b}, est={est})");
        let hi = hi.unwrap();
        prop_assert!(hi > est, "upper crossing {hi} must exceed estimate {est}");
        prop_assert!(diff(hi) <= 0.0, "crossing {hi} must be a verified inversion");
    }

    /// Quadratic difference `diff(c) = a - b*c^2` (super-linear divergence,
    /// like a spill): same bracketing/verification invariants.
    #[test]
    fn upper_crossing_brackets_estimate_quadratic(
        a in 100.0..1e8_f64,
        b in 0.001..10.0_f64,
        frac in 0.01..0.95_f64,
    ) {
        let est = frac * (a / b).sqrt();
        let diff = |c: f64| a - b * c * c;
        prop_assert!(diff(est) > 0.0);
        if let Some(hi) = find_upper_crossing(diff, est, 10) {
            prop_assert!(hi > est, "upper crossing {hi} must exceed estimate {est}");
            prop_assert!(diff(hi) <= 0.0, "crossing {hi} must be a verified inversion");
        }
    }

    /// Mirror: `diff(c) = b*c - a` (alternative wins at small cardinality).
    /// The reported lower crossing must lie strictly below the estimate and
    /// be a verified inversion, so `[lo, inf)` contains est.
    #[test]
    fn lower_crossing_brackets_estimate(
        a in 10.0..1e5_f64,
        b in 0.01..100.0_f64,
        blowup in 1.1..50.0_f64,
    ) {
        let est = blowup * a / b;
        let diff = |c: f64| b * c - a;
        prop_assert!(diff(est) > 0.0);
        let lo = find_lower_crossing(diff, est, 10);
        prop_assert!(lo.is_some(), "linear crossing must be found (a={a}, b={b}, est={est})");
        let lo = lo.unwrap();
        prop_assert!(lo < est, "lower crossing {lo} must be below estimate {est}");
        prop_assert!(diff(lo) <= 0.0, "crossing {lo} must be a verified inversion");
    }

    /// If the alternative is already no worse at the estimate (tie or win),
    /// there is nothing to bound: both searches report `None`.
    #[test]
    fn no_crossing_when_alternative_already_wins(
        margin in 0.0..1e4_f64,
        est in 1.0..1e6_f64,
        slope in -10.0..10.0_f64,
    ) {
        // diff(est) = -margin <= 0 by construction, any slope elsewhere.
        let diff = move |c: f64| -margin + slope * (c - est);
        prop_assert_eq!(find_upper_crossing(diff, est, 10), None);
        prop_assert_eq!(find_lower_crossing(diff, est, 10), None);
    }

    /// Invalid estimation points (non-positive, non-finite) never yield a
    /// range, regardless of the difference function.
    #[test]
    fn invalid_estimates_always_rejected(a in 1.0..1e6_f64, est in -1e6..0.0_f64) {
        let diff = move |c: f64| a - c;
        prop_assert_eq!(find_upper_crossing(diff, est, 10), None);
        prop_assert_eq!(find_lower_crossing(diff, est, 10), None);
        prop_assert_eq!(find_upper_crossing(diff, f64::NAN, 10), None);
        prop_assert_eq!(find_lower_crossing(diff, f64::INFINITY, 10), None);
    }

    /// `narrow_on_prune` only shrinks: every edge range after the call is a
    /// subset of the range before, and the edge's own estimated cardinality
    /// stays inside the narrowed range (a check placed on that edge must
    /// not fire when the estimate is exact).
    #[test]
    fn narrow_on_prune_only_shrinks(
        build_cards in (10.0..1e4_f64, 10.0..1e4_f64),
        winner_fixed in 0.0..1e3_f64,
        loser_fixed in 0.0..1e3_f64,
        matches_per_probe in 0.1..50.0_f64,
        pre_lo in 0.0..5.0_f64,
        pre_hi in 1e5..1e9_f64,
    ) {
        let model = CostModel::default();
        let cards = [build_cards.0, build_cards.1];
        let winner = join_candidate(
            RootCostSpec::Hsjn { build_edge: 0, probe_edge: 1 },
            winner_fixed,
            cards,
        );
        // Start from pre-existing (already narrowed) ranges that still
        // contain the estimates.
        let mut ranges = [ValidityRange::new(pre_lo, pre_hi); 2];
        let loser = join_candidate(
            RootCostSpec::Nljn { outer_edge: 0, matches_per_probe },
            loser_fixed,
            cards,
        );

        let before = ranges;
        narrow_on_prune(&mut ranges, &winner, &loser, &model, 10, 0.0);
        let after = &ranges;

        for edge in 0..2 {
            prop_assert!(
                after[edge].lo >= before[edge].lo && after[edge].hi <= before[edge].hi,
                "edge {edge}: {:?} is not a subset of {:?}", after[edge], before[edge],
            );
            prop_assert!(
                after[edge].lo <= cards[edge] && cards[edge] <= after[edge].hi,
                "edge {edge}: estimate {} fell outside narrowed range {:?}",
                cards[edge], after[edge],
            );
        }
    }

    /// Narrowing against several alternatives in sequence is monotone: each
    /// successive call can only tighten the ranges further.
    #[test]
    fn repeated_narrowing_is_monotone(
        cards in (50.0..5e3_f64, 50.0..5e3_f64),
        fixed in 0.0..500.0_f64,
        probes in proptest::collection::vec(0.1..20.0_f64, 1..4),
    ) {
        let model = CostModel::default();
        let cards = [cards.0, cards.1];
        let winner = join_candidate(
            RootCostSpec::Hsjn { build_edge: 0, probe_edge: 1 },
            fixed,
            cards,
        );
        let mut ranges = [ValidityRange::unbounded(); 2];
        let mut prev = ranges;
        for mpp in probes {
            let loser = join_candidate(
                RootCostSpec::Nljn { outer_edge: 0, matches_per_probe: mpp },
                fixed,
                cards,
            );
            narrow_on_prune(&mut ranges, &winner, &loser, &model, 10, 0.0);
            let curr = ranges;
            for edge in 0..2 {
                prop_assert!(
                    curr[edge].lo >= prev[edge].lo && curr[edge].hi <= prev[edge].hi,
                    "edge {edge} widened: {:?} -> {:?}", prev[edge], curr[edge],
                );
            }
            prev = curr;
        }
    }
}
