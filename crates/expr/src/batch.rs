//! Batched predicate evaluation with selection vectors.
//!
//! A filtering operator hands [`BoundExpr::filter_batch`] a chunk of rows
//! and a selection vector of candidate row indices; the vector is refined
//! in place to the rows that pass. Semantics are identical to calling
//! [`BoundExpr::passes`] per row (SQL WHERE: NULL does not pass) — the
//! batch entry points exist so the common shapes avoid the per-row
//! recursive walk:
//!
//! * `AND` filters sequentially, one conjunct over the whole (shrinking)
//!   selection at a time, stopping when it empties;
//! * `OR` is the ordered union of its disjuncts' selections: each disjunct
//!   runs over the rows no earlier one passed, exactly the rows per-row
//!   evaluation would show it;
//! * comparisons and BETWEEN over column/literal/parameter operands, LIKE
//!   and IN over a column, compare in place without building a `Value`;
//! * everything else, `NOT` included, tests row by row through
//!   [`BoundExpr::passes`]' three-valued walk.

use crate::eval::{cmp_holds, like_type_error};
use crate::{BoundExpr, CmpOp, Params};
use pop_types::{PopError, PopResult, Row, Value};
use std::cmp::Ordering;

/// A comparison operand that needs no per-row evaluation.
enum Operand<'a> {
    Col(usize),
    Val(&'a Value),
}

impl<'a> Operand<'a> {
    fn of(e: &'a BoundExpr, params: &'a Params) -> Option<Operand<'a>> {
        match e {
            BoundExpr::Col(i) => Some(Operand::Col(*i)),
            BoundExpr::Lit(v) => Some(Operand::Val(v)),
            BoundExpr::Param(i) => params.get(*i).ok().map(Operand::Val),
            _ => None,
        }
    }

    fn value<'r>(&'r self, row: &'r [Value]) -> PopResult<&'r Value>
    where
        'a: 'r,
    {
        match self {
            Operand::Col(i) => row
                .get(*i)
                .ok_or_else(|| PopError::Execution(format!("row too short for column {i}"))),
            Operand::Val(v) => Ok(v),
        }
    }
}

impl BoundExpr {
    /// Refine `sel` (indices into `rows`) to the rows this predicate
    /// passes. Equivalent to per-row [`BoundExpr::passes`].
    pub fn filter_batch(&self, rows: &[Row], params: &Params, sel: &mut Vec<u32>) -> PopResult<()> {
        match self {
            BoundExpr::And(parts) => {
                // SQL WHERE keeps a row iff every conjunct is true, so
                // sequential refinement is exact (false and NULL both drop).
                for p in parts {
                    if sel.is_empty() {
                        break;
                    }
                    p.filter_batch(rows, params, sel)?;
                }
                Ok(())
            }
            BoundExpr::Or(parts) => filter_any(parts, rows, params, sel),
            BoundExpr::Cmp(op, a, b) => {
                match (Operand::of(a, params), Operand::of(b, params)) {
                    (Some(Operand::Col(c)), Some(Operand::Val(v))) => {
                        filter_col_vs_lit(rows, sel, c, *op, v)
                    }
                    (Some(Operand::Val(v)), Some(Operand::Col(c))) => {
                        // Flip `lit op col` into `col op' lit`.
                        filter_col_vs_lit(rows, sel, c, op.flip(), v)
                    }
                    (Some(lhs), Some(rhs)) => retain(rows, sel, |row| {
                        Ok(match lhs.value(row)?.sql_cmp(rhs.value(row)?) {
                            Some(ord) => cmp_holds(*op, ord),
                            None => false,
                        })
                    }),
                    _ => self.filter_fallback(rows, params, sel),
                }
            }
            BoundExpr::Between(e, lo, hi) => {
                match (
                    Operand::of(e, params),
                    Operand::of(lo, params),
                    Operand::of(hi, params),
                ) {
                    (Some(Operand::Col(c)), Some(Operand::Val(lo)), Some(Operand::Val(hi))) => {
                        filter_col_between_lits(rows, sel, c, lo, hi)
                    }
                    (Some(v), Some(lo), Some(hi)) => retain(rows, sel, |row| {
                        let x = v.value(row)?;
                        Ok(
                            match (x.sql_cmp(lo.value(row)?), x.sql_cmp(hi.value(row)?)) {
                                (Some(a), Some(b)) => a != Ordering::Less && b != Ordering::Greater,
                                _ => false,
                            },
                        )
                    }),
                    _ => self.filter_fallback(rows, params, sel),
                }
            }
            BoundExpr::Like(e, pattern) => match **e {
                BoundExpr::Col(c) => {
                    let mut mismatch = None;
                    filter_col(rows, sel, c, |v| match v {
                        Value::Str(s) => pattern.matches(s),
                        Value::Null => false,
                        other => {
                            mismatch.get_or_insert_with(|| other.clone());
                            false
                        }
                    })?;
                    mismatch.map_or(Ok(()), |v| Err(like_type_error(&v)))
                }
                _ => self.filter_fallback(rows, params, sel),
            },
            BoundExpr::InList(e, items) => match **e {
                BoundExpr::Col(c) => filter_col(rows, sel, c, |v| items.test(v) == Some(true)),
                _ => self.filter_fallback(rows, params, sel),
            },
            _ => self.filter_fallback(rows, params, sel),
        }
    }

    fn filter_fallback(&self, rows: &[Row], params: &Params, sel: &mut Vec<u32>) -> PopResult<()> {
        retain(rows, sel, |row| self.passes(row, params))
    }

    /// Evaluate the expression over every selected row, appending one
    /// value per selected row to `out`.
    pub fn eval_batch(
        &self,
        rows: &[Row],
        params: &Params,
        sel: &[u32],
        out: &mut Vec<Value>,
    ) -> PopResult<()> {
        out.reserve(sel.len());
        for &i in sel {
            out.push(self.eval(&rows[i as usize], params)?);
        }
        Ok(())
    }
}

/// Rows where some disjunct passes, in selection order. `open` holds the
/// rows no disjunct has passed yet; each disjunct runs over those only, as
/// per-row evaluation would stop at the first TRUE disjunct. Every
/// refinement keeps a subsequence of its input, so the passing rows are
/// `sel` minus what stays open.
fn filter_any(
    parts: &[BoundExpr],
    rows: &[Row],
    params: &Params,
    sel: &mut Vec<u32>,
) -> PopResult<()> {
    let mut open = sel.clone();
    let mut hit = Vec::with_capacity(open.len());
    for p in parts {
        if open.is_empty() {
            break;
        }
        hit.clear();
        hit.extend_from_slice(&open);
        p.filter_batch(rows, params, &mut hit)?;
        remove_subsequence(&mut open, &hit);
    }
    remove_subsequence(sel, &open);
    Ok(())
}

/// Remove from `from` the elements of `sub`, a subsequence of it.
fn remove_subsequence(from: &mut Vec<u32>, sub: &[u32]) {
    let mut next = sub.iter().peekable();
    from.retain(|i| next.next_if_eq(&i).is_none());
}

/// `column op literal`, the single most common predicate shape. The inner
/// loop carries no `Result` and no operand re-dispatch: the literal's
/// variant is matched once per chunk, and each same-variant row compares
/// with a primitive `cmp`. NULLs drop the row and a variant mismatch falls
/// back to the general `sql_cmp` — bit-for-bit the per-row semantics.
fn filter_col_vs_lit(
    rows: &[Row],
    sel: &mut Vec<u32>,
    col: usize,
    op: CmpOp,
    lit: &Value,
) -> PopResult<()> {
    macro_rules! typed {
        ($variant:ident, $b:expr) => {
            filter_col(rows, sel, col, |v| match v {
                Value::$variant(a) => cmp_holds(op, a.cmp($b)),
                other => match other.sql_cmp(lit) {
                    Some(ord) => cmp_holds(op, ord),
                    None => false,
                },
            })
        };
    }
    match lit {
        Value::Int(b) => typed!(Int, b),
        Value::Date(b) => typed!(Date, b),
        Value::Bool(b) => typed!(Bool, b),
        Value::Float(b) => filter_col(rows, sel, col, |v| match v {
            Value::Float(a) => cmp_holds(op, a.total_cmp(b)),
            other => match other.sql_cmp(lit) {
                Some(ord) => cmp_holds(op, ord),
                None => false,
            },
        }),
        Value::Str(b) => filter_col(rows, sel, col, |v| match v {
            Value::Str(a) => cmp_holds(op, a.as_ref().cmp(b.as_ref())),
            other => match other.sql_cmp(lit) {
                Some(ord) => cmp_holds(op, ord),
                None => false,
            },
        }),
        // A NULL literal passes nothing.
        Value::Null => {
            sel.clear();
            Ok(())
        }
    }
}

/// `column BETWEEN literal AND literal` with both bounds inclusive —
/// same-variant rows take a two-comparison primitive path.
fn filter_col_between_lits(
    rows: &[Row],
    sel: &mut Vec<u32>,
    col: usize,
    lo: &Value,
    hi: &Value,
) -> PopResult<()> {
    let generic = |v: &Value| match (v.sql_cmp(lo), v.sql_cmp(hi)) {
        (Some(a), Some(b)) => a != Ordering::Less && b != Ordering::Greater,
        _ => false,
    };
    match (lo, hi) {
        (Value::Int(lo), Value::Int(hi)) => filter_col(rows, sel, col, |v| match v {
            Value::Int(a) => lo <= a && a <= hi,
            other => generic(other),
        }),
        (Value::Date(lo), Value::Date(hi)) => filter_col(rows, sel, col, |v| match v {
            Value::Date(a) => lo <= a && a <= hi,
            other => generic(other),
        }),
        (Value::Float(lo), Value::Float(hi)) => filter_col(rows, sel, col, |v| match v {
            Value::Float(a) => {
                a.total_cmp(lo) != Ordering::Less && a.total_cmp(hi) != Ordering::Greater
            }
            other => generic(other),
        }),
        _ => filter_col(rows, sel, col, generic),
    }
}

/// Selection-vector refinement against a single column with an infallible
/// per-value test; the only error is a structurally short row.
fn filter_col<F: FnMut(&Value) -> bool>(
    rows: &[Row],
    sel: &mut Vec<u32>,
    col: usize,
    mut test: F,
) -> PopResult<()> {
    let mut kept = 0;
    for r in 0..sel.len() {
        let i = sel[r];
        let Some(v) = rows[i as usize].get(col) else {
            return Err(PopError::Execution(format!(
                "row too short for column {col}"
            )));
        };
        if test(v) {
            sel[kept] = i;
            kept += 1;
        }
    }
    sel.truncate(kept);
    Ok(())
}

/// Refine `sel` in place (stable compaction, no allocation): the hot loop
/// of every conjunct, so it must not churn the allocator per chunk.
fn retain<F: FnMut(&[Value]) -> PopResult<bool>>(
    rows: &[Row],
    sel: &mut Vec<u32>,
    mut keep: F,
) -> PopResult<()> {
    let mut kept = 0;
    for r in 0..sel.len() {
        let i = sel[r];
        if keep(&rows[i as usize])? {
            sel[kept] = i;
            kept += 1;
        }
    }
    sel.truncate(kept);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;
    use pop_types::ColId;

    fn layout() -> Vec<ColId> {
        vec![ColId::new(0, 0), ColId::new(0, 1)]
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(0), Value::str("honda")],
            vec![Value::Int(1), Value::Null],
            vec![Value::Null, Value::str("ford")],
            vec![Value::Int(3), Value::str("honda")],
            vec![Value::Int(4), Value::str("bmw")],
        ]
    }

    /// filter_batch must agree with per-row passes() on every expression.
    fn check_equiv(e: &Expr, params: &Params) {
        let b = BoundExpr::bind(e, &layout()).unwrap();
        let rows = rows();
        let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
        b.filter_batch(&rows, params, &mut sel).unwrap();
        let expect: Vec<u32> = (0..rows.len() as u32)
            .filter(|&i| b.passes(&rows[i as usize], params).unwrap())
            .collect();
        assert_eq!(sel, expect, "filter_batch disagrees with passes for {e:?}");
    }

    #[test]
    fn batch_matches_row_at_a_time() {
        let p = Params::new(vec![Value::Int(3)]);
        for e in [
            Expr::col(0, 0).lt(Expr::lit(3i64)),
            Expr::lit(3i64).le(Expr::col(0, 0)),
            Expr::col(0, 0).ge(Expr::Param(0)),
            Expr::col(0, 0).between(Expr::lit(1i64), Expr::lit(3i64)),
            Expr::col(0, 1).in_list(vec![Value::str("honda"), Value::Null]),
            Expr::col(0, 1).like("hon%"),
            Expr::col(0, 0)
                .gt(Expr::lit(0i64))
                .and(Expr::col(0, 1).eq(Expr::lit(Value::str("honda")))),
            Expr::col(0, 0)
                .lt(Expr::lit(1i64))
                .or(Expr::col(0, 0).gt(Expr::lit(3i64))),
            Expr::col(0, 0).eq(Expr::lit(9i64)).not(),
            Expr::IsNull(Box::new(Expr::col(0, 1))),
            Expr::col(0, 1).like("%o%"),
            Expr::col(0, 1).like("%da"),
            Expr::col(0, 1).like("h_n%").not(),
            Expr::col(0, 1).like("ford").not(),
            Expr::col(0, 0).in_list(vec![Value::Int(4), Value::Int(0)]),
            Expr::col(0, 0)
                .in_list(vec![Value::Int(4), Value::Null])
                .not(),
            Expr::col(0, 0).in_list(vec![Value::Float(3.0)]).not(),
            Expr::col(0, 1).in_list(vec![Value::str("bmw")]).not(),
            Expr::col(0, 0)
                .between(Expr::lit(1i64), Expr::lit(3i64))
                .not(),
            Expr::lit(3i64).le(Expr::col(0, 0)).not(),
            Expr::col(0, 1)
                .like("h%")
                .or(Expr::col(0, 0).in_list(vec![Value::Int(4)]))
                .not(),
            Expr::col(0, 0)
                .gt(Expr::lit(0i64))
                .and(Expr::col(0, 1).like("b%"))
                .not(),
            Expr::col(0, 1)
                .eq(Expr::lit(Value::str("ford")))
                .or(Expr::col(0, 0)
                    .eq(Expr::lit(3i64))
                    .and(Expr::col(0, 1).like("%a")))
                .or(Expr::col(0, 0).lt(Expr::lit(1i64))),
        ] {
            check_equiv(&e, &p);
        }
    }

    #[test]
    fn or_keeps_selection_order() {
        // Rows decided by a later disjunct come back in their input order.
        let e = Expr::col(0, 0)
            .eq(Expr::lit(4i64))
            .or(Expr::col(0, 1).like("hon%"));
        let b = BoundExpr::bind(&e, &layout()).unwrap();
        let rows = rows();
        let mut sel = vec![4, 3, 1, 0];
        b.filter_batch(&rows, &Params::none(), &mut sel).unwrap();
        assert_eq!(sel, vec![4, 3, 0]);
    }

    #[test]
    fn and_short_circuits_on_empty_selection() {
        let e = Expr::col(0, 0)
            .gt(Expr::lit(100i64))
            .and(Expr::col(0, 1).like("%"));
        let b = BoundExpr::bind(&e, &layout()).unwrap();
        let rows = rows();
        let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
        b.filter_batch(&rows, &Params::none(), &mut sel).unwrap();
        assert!(sel.is_empty());
    }

    #[test]
    fn missing_param_is_error() {
        let e = Expr::col(0, 0).lt(Expr::Param(0));
        let b = BoundExpr::bind(&e, &layout()).unwrap();
        let rows = rows();
        let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
        assert!(b.filter_batch(&rows, &Params::none(), &mut sel).is_err());
    }

    #[test]
    fn eval_batch_projects_selected_rows() {
        let e = Expr::col(0, 0);
        let b = BoundExpr::bind(&e, &layout()).unwrap();
        let rows = rows();
        let mut out = Vec::new();
        b.eval_batch(&rows, &Params::none(), &[0, 3], &mut out)
            .unwrap();
        assert_eq!(out, vec![Value::Int(0), Value::Int(3)]);
    }
}
