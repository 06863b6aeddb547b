//! Property-based tests for histograms and selectivity estimation.

use pop_expr::Expr;
use pop_stats::{analyze_table, estimate_selectivity, EquiDepthHistogram, SelectivityDefaults};
use pop_storage::Table;
use pop_types::{DataType, Schema, Value};
use proptest::prelude::*;

proptest! {
    /// frac_le is a CDF: within [0,1], monotone, 0 below min, 1 at max.
    #[test]
    fn histogram_is_a_cdf(
        values in prop::collection::vec(-1e6f64..1e6, 1..300),
        buckets in 1usize..64,
        probes in prop::collection::vec(-2e6f64..2e6, 1..20),
    ) {
        let h = EquiDepthHistogram::build(values.clone(), buckets).unwrap();
        let mut sorted = probes.clone();
        sorted.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for v in sorted {
            let f = h.frac_le(v);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-12, "non-monotone at {v}");
            prev = f;
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.frac_le(min - 1.0), 0.0);
        prop_assert_eq!(h.frac_le(max), 1.0);
    }

    /// The CDF estimate is close to the empirical CDF (bounded by bucket
    /// granularity).
    #[test]
    fn histogram_tracks_empirical_cdf(
        values in prop::collection::vec(-1000i64..1000, 32..400),
        probe in -1000i64..1000,
    ) {
        let floats: Vec<f64> = values.iter().map(|v| *v as f64).collect();
        let buckets = 32;
        let h = EquiDepthHistogram::build(floats, buckets).unwrap();
        let est = h.frac_le(probe as f64);
        let actual = values.iter().filter(|v| **v <= probe).count() as f64
            / values.len() as f64;
        // One bucket of slack on either side, plus interpolation error.
        let tol = 2.0 / buckets as f64 + 0.02;
        prop_assert!((est - actual).abs() <= tol, "est {est} vs actual {actual}");
    }

    /// Selectivity estimates always land in [0,1], whatever the predicate.
    #[test]
    fn selectivities_stay_in_unit_interval(
        data in prop::collection::vec((-50i64..50, 0i64..10), 1..200),
        k in -60i64..60,
        k2 in -60i64..60,
    ) {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let rows = data.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]).collect();
        let stats = analyze_table(&Table::new(0, "t", schema, rows)).unwrap();
        let d = SelectivityDefaults::default();
        let exprs = vec![
            Expr::col(0, 0).eq(Expr::lit(k)),
            Expr::col(0, 0).le(Expr::lit(k)),
            Expr::col(0, 0).gt(Expr::lit(k)),
            Expr::col(0, 0).between(Expr::lit(k.min(k2)), Expr::lit(k.max(k2))),
            Expr::col(0, 0).eq(Expr::lit(k)).and(Expr::col(0, 1).eq(Expr::lit(k2))),
            Expr::col(0, 0).eq(Expr::lit(k)).or(Expr::col(0, 1).eq(Expr::lit(k2))),
            Expr::col(0, 0).eq(Expr::lit(k)).not(),
            Expr::col(0, 0).in_list(vec![Value::Int(k), Value::Int(k2)]),
        ];
        for e in exprs {
            let s = estimate_selectivity(&e, &stats, &d, None);
            prop_assert!((0.0..=1.0).contains(&s), "{e} -> {s}");
        }
    }

    /// Range estimates roughly track the truth on uniform-ish data.
    #[test]
    fn range_estimate_tracks_actual(
        n in 100usize..400,
        k in 0i64..100,
    ) {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int((i % 100) as i64)]).collect();
        let stats = analyze_table(&Table::new(0, "t", schema, rows)).unwrap();
        let d = SelectivityDefaults::default();
        let est = estimate_selectivity(&Expr::col(0, 0).le(Expr::lit(k)), &stats, &d, None);
        let actual = (0..n).filter(|i| ((i % 100) as i64) <= k).count() as f64 / n as f64;
        prop_assert!((est - actual).abs() < 0.15, "est {est} vs actual {actual}");
    }

    /// NOT(p) and p sum to 1 for non-null columns.
    #[test]
    fn complement_rule(data in prop::collection::vec(-20i64..20, 1..100), k in -25i64..25) {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows = data.iter().map(|v| vec![Value::Int(*v)]).collect();
        let stats = analyze_table(&Table::new(0, "t", schema, rows)).unwrap();
        let d = SelectivityDefaults::default();
        let p = estimate_selectivity(&Expr::col(0, 0).eq(Expr::lit(k)), &stats, &d, None);
        let np = estimate_selectivity(&Expr::col(0, 0).eq(Expr::lit(k)).not(), &stats, &d, None);
        prop_assert!((p + np - 1.0).abs() < 1e-9);
    }
}
