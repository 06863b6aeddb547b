//! Predicate selectivity estimation under the independence assumption.

use crate::TableStats;
use pop_expr::{CmpOp, Expr, Params};
use pop_types::Value;

/// Default selectivities used when a predicate cannot be estimated from
/// statistics — most importantly for **parameter markers**, whose values
/// are unknown at optimization time (§5.1 of the paper). The constants
/// mirror the classic System-R/DB2 defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityDefaults {
    /// `col = ?` with unknown comparand.
    pub eq: f64,
    /// `col < ?`, `col >= ?`, ... (open range).
    pub range: f64,
    /// `col BETWEEN ? AND ?` (closed range).
    pub between: f64,
    /// `col LIKE pattern`.
    pub like: f64,
    /// Anything else.
    pub other: f64,
}

impl Default for SelectivityDefaults {
    fn default() -> Self {
        SelectivityDefaults {
            eq: 0.04,
            range: 1.0 / 3.0,
            between: 0.10,
            like: 0.10,
            other: 0.25,
        }
    }
}

fn clamp01(s: f64) -> f64 {
    if s.is_nan() {
        return 0.0;
    }
    s.clamp(0.0, 1.0)
}

/// Resolve the comparand of a predicate: a literal is always known; a
/// parameter marker is known only when `params` carries its binding.
fn comparand<'a>(e: &'a Expr, params: Option<&'a Params>) -> Option<&'a Value> {
    match e {
        Expr::Lit(v) => Some(v),
        Expr::Param(i) => params.and_then(|p| p.get(*i).ok()),
        _ => None,
    }
}

/// Estimate the selectivity of `expr` against a single table's stats.
///
/// `params == None` models optimization-time estimation where parameter
/// markers are unknown (default selectivities); `params == Some(..)` models
/// the "correct estimate" reference the paper uses as its baseline curve in
/// Figure 11.
///
/// Conjunctions multiply factor selectivities — the independence
/// assumption, the dominant estimation-error source in the DMV case study
/// (§6).
pub fn estimate_selectivity(
    expr: &Expr,
    stats: &TableStats,
    defaults: &SelectivityDefaults,
    params: Option<&Params>,
) -> f64 {
    clamp01(estimate(expr, stats, defaults, params))
}

fn estimate(
    expr: &Expr,
    stats: &TableStats,
    defaults: &SelectivityDefaults,
    params: Option<&Params>,
) -> f64 {
    match expr {
        Expr::And(parts) => parts
            .iter()
            .map(|p| estimate(p, stats, defaults, params))
            .product(),
        Expr::Or(parts) => {
            // Independent union: 1 - prod(1 - s_i).
            let inv: f64 = parts
                .iter()
                .map(|p| 1.0 - clamp01(estimate(p, stats, defaults, params)))
                .product();
            1.0 - inv
        }
        Expr::Not(e) => 1.0 - clamp01(estimate(e, stats, defaults, params)),
        Expr::Cmp(op, a, b) => estimate_cmp(*op, a, b, stats, defaults, params),
        Expr::Like(e, pattern) => {
            // A leading literal prefix narrows the match; otherwise default.
            let _ = e;
            let prefix_len = pattern
                .chars()
                .take_while(|c| *c != '%' && *c != '_')
                .count();
            match prefix_len {
                0 => defaults.like,
                1 => defaults.like * 0.8,
                _ => defaults.like * 0.5f64.powi((prefix_len as i32 - 1).min(6)),
            }
        }
        Expr::InList(e, values) => {
            if let Expr::Col(c) = e.as_ref() {
                let d = stats.distinct(c.col);
                clamp01(values.len() as f64 / d)
            } else {
                clamp01(values.len() as f64 * defaults.eq)
            }
        }
        Expr::Between(e, lo, hi) => {
            if let Expr::Col(c) = e.as_ref() {
                let cs = stats.col(c.col);
                let lo_v = comparand(lo, params).and_then(pop_types::Value::as_f64);
                let hi_v = comparand(hi, params).and_then(pop_types::Value::as_f64);
                if let (Some(h), Some(lo_f), Some(hi_f)) = (&cs.histogram, lo_v, hi_v) {
                    return h.frac_range(Some(lo_f), Some(hi_f)) * (1.0 - cs.null_frac());
                }
            }
            defaults.between
        }
        Expr::IsNull(e) => {
            if let Expr::Col(c) = e.as_ref() {
                stats.col(c.col).null_frac()
            } else {
                defaults.other
            }
        }
        // A bare boolean column or other scalar used as predicate.
        _ => defaults.other,
    }
}

fn estimate_cmp(
    op: CmpOp,
    a: &Expr,
    b: &Expr,
    stats: &TableStats,
    defaults: &SelectivityDefaults,
    params: Option<&Params>,
) -> f64 {
    // Normalize to (col OP comparand).
    let (col, op, other) = match (a, b) {
        (Expr::Col(c), _) => (Some(c), op, b),
        (_, Expr::Col(c)) => (Some(c), op.flip(), a),
        _ => (None, op, b),
    };
    let Some(col) = col else {
        return defaults.other;
    };
    let cs = stats.col(col.col);
    let not_null = 1.0 - cs.null_frac();
    let known = comparand(other, params);

    match op {
        CmpOp::Eq => match known {
            Some(_) => not_null / stats.distinct(col.col),
            None => defaults.eq,
        },
        CmpOp::Ne => match known {
            Some(_) => not_null * (1.0 - 1.0 / stats.distinct(col.col)),
            None => 1.0 - defaults.eq,
        },
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let v = known.and_then(pop_types::Value::as_f64);
            match (v, &cs.histogram) {
                (Some(v), Some(h)) => {
                    let le = h.frac_le(v);
                    let frac = match op {
                        CmpOp::Le => le,
                        // Approximate strict vs non-strict by the equality mass.
                        CmpOp::Lt => (le - not_null / stats.distinct(col.col)).max(0.0),
                        CmpOp::Ge => 1.0 - (le - not_null / stats.distinct(col.col)).max(0.0),
                        CmpOp::Gt => 1.0 - le,
                        _ => unreachable!(),
                    };
                    frac * not_null
                }
                (Some(v), None) => {
                    // Interpolate on min/max when no histogram exists.
                    match (cs.min, cs.max) {
                        (Some(mn), Some(mx)) if mx > mn => {
                            let le = ((v - mn) / (mx - mn)).clamp(0.0, 1.0);
                            let frac = match op {
                                CmpOp::Le | CmpOp::Lt => le,
                                CmpOp::Ge | CmpOp::Gt => 1.0 - le,
                                _ => unreachable!(),
                            };
                            frac * not_null
                        }
                        _ => defaults.range,
                    }
                }
                (None, _) => defaults.range,
            }
        }
    }
}

/// Equi-join selectivity between two columns with distinct counts `d1` and
/// `d2`: the classic `1 / max(d1, d2)`.
pub fn join_selectivity(d1: f64, d2: f64) -> f64 {
    1.0 / d1.max(d2).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_storage::Table;
    use pop_types::{DataType, Schema};

    fn stats() -> TableStats {
        // 1000 rows; col0 uniform 0..99 (distinct 100); col1 uniform 0..9;
        // col2 strings with 4 distinct values.
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("s", DataType::Str),
        ]);
        let rows = (0..1000)
            .map(|i| {
                vec![
                    Value::Int(i % 100),
                    Value::Int(i % 10),
                    Value::str(format!("v{}", i % 4)),
                ]
            })
            .collect();
        crate::analyze_table(&Table::new(0, "t", schema, rows)).unwrap()
    }

    fn d() -> SelectivityDefaults {
        SelectivityDefaults::default()
    }

    #[test]
    fn eq_uses_distinct() {
        let st = stats();
        let s = estimate_selectivity(&Expr::col(0, 0).eq(Expr::lit(5i64)), &st, &d(), None);
        assert!((s - 0.01).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn eq_param_unknown_uses_default() {
        let st = stats();
        let s = estimate_selectivity(&Expr::col(0, 0).eq(Expr::Param(0)), &st, &d(), None);
        assert_eq!(s, d().eq);
    }

    #[test]
    fn eq_param_bound_uses_stats() {
        let st = stats();
        let p = Params::new(vec![Value::Int(5)]);
        let s = estimate_selectivity(&Expr::col(0, 0).eq(Expr::Param(0)), &st, &d(), Some(&p));
        assert!((s - 0.01).abs() < 1e-9);
    }

    #[test]
    fn range_via_histogram() {
        let st = stats();
        let s = estimate_selectivity(&Expr::col(0, 0).le(Expr::lit(49i64)), &st, &d(), None);
        assert!((s - 0.5).abs() < 0.06, "got {s}");
        let s = estimate_selectivity(&Expr::col(0, 0).gt(Expr::lit(49i64)), &st, &d(), None);
        assert!((s - 0.5).abs() < 0.06, "got {s}");
    }

    #[test]
    fn range_param_unknown_uses_default() {
        let st = stats();
        let s = estimate_selectivity(&Expr::col(0, 0).le(Expr::Param(0)), &st, &d(), None);
        assert_eq!(s, d().range);
    }

    #[test]
    fn flipped_comparison() {
        let st = stats();
        // 49 >= col  ==  col <= 49
        let s = estimate_selectivity(&Expr::lit(49i64).ge(Expr::col(0, 0)), &st, &d(), None);
        assert!((s - 0.5).abs() < 0.06, "got {s}");
    }

    #[test]
    fn and_multiplies_independence() {
        let st = stats();
        let e = Expr::col(0, 0)
            .eq(Expr::lit(5i64))
            .and(Expr::col(0, 1).eq(Expr::lit(3i64)));
        let s = estimate_selectivity(&e, &st, &d(), None);
        assert!((s - 0.001).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn or_union() {
        let st = stats();
        let e = Expr::col(0, 1)
            .eq(Expr::lit(3i64))
            .or(Expr::col(0, 1).eq(Expr::lit(4i64)));
        let s = estimate_selectivity(&e, &st, &d(), None);
        assert!((s - 0.19).abs() < 0.01, "got {s}");
    }

    #[test]
    fn not_complements() {
        let st = stats();
        let e = Expr::col(0, 0).eq(Expr::lit(5i64)).not();
        let s = estimate_selectivity(&e, &st, &d(), None);
        assert!((s - 0.99).abs() < 1e-9);
    }

    #[test]
    fn in_list_uses_distinct() {
        let st = stats();
        let e = Expr::col(0, 2).in_list(vec![Value::str("v0"), Value::str("v1")]);
        let s = estimate_selectivity(&e, &st, &d(), None);
        assert!((s - 0.5).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn between_via_histogram() {
        let st = stats();
        let e = Expr::col(0, 0).between(Expr::lit(10i64), Expr::lit(29i64));
        let s = estimate_selectivity(&e, &st, &d(), None);
        assert!((s - 0.2).abs() < 0.07, "got {s}");
    }

    #[test]
    fn like_prefix_narrows() {
        let st = stats();
        let s0 = estimate_selectivity(&Expr::col(0, 2).like("%x%"), &st, &d(), None);
        let s3 = estimate_selectivity(&Expr::col(0, 2).like("abc%"), &st, &d(), None);
        assert!(s3 < s0);
        assert_eq!(s0, d().like);
    }

    #[test]
    fn selectivity_always_in_unit_interval() {
        let st = stats();
        let exprs = vec![
            Expr::col(0, 0).eq(Expr::lit(5i64)),
            Expr::col(0, 0).le(Expr::lit(-100i64)),
            Expr::col(0, 0).ge(Expr::lit(10_000i64)),
            Expr::col(0, 1).in_list((0..50).map(Value::Int).collect()),
            Expr::col(0, 0)
                .eq(Expr::lit(1i64))
                .and(Expr::col(0, 1).eq(Expr::lit(1i64)))
                .and(Expr::col(0, 2).eq(Expr::lit("v1"))),
        ];
        for e in exprs {
            let s = estimate_selectivity(&e, &st, &d(), None);
            assert!((0.0..=1.0).contains(&s), "{e} -> {s}");
        }
    }

    #[test]
    fn join_selectivity_formula() {
        assert_eq!(join_selectivity(10.0, 100.0), 0.01);
        assert_eq!(join_selectivity(0.0, 0.0), 1.0);
    }

    #[test]
    fn is_null_frac() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows = (0..10)
            .map(|i| vec![if i < 3 { Value::Null } else { Value::Int(i) }])
            .collect();
        let st = crate::analyze_table(&Table::new(0, "t", schema, rows)).unwrap();
        let s = estimate_selectivity(&Expr::IsNull(Box::new(Expr::col(0, 0))), &st, &d(), None);
        assert!((s - 0.3).abs() < 1e-9);
    }
}
