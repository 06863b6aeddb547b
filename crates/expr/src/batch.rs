//! Batched predicate evaluation over typed columns with selection vectors.
//!
//! A filtering operator hands [`BoundExpr::filter_batch`] the table-width
//! columns a storage chunk or fetch lives in and a selection vector of
//! candidate row indices into them; the vector is refined in place to the
//! rows that pass. Semantics are identical to calling
//! [`BoundExpr::passes`] on each row (SQL WHERE: NULL does not pass):
//!
//! * `AND` filters sequentially, one conjunct over the whole (shrinking)
//!   selection at a time, stopping when it empties;
//! * `OR` is the ordered union of its disjuncts' selections: each disjunct
//!   runs over the rows no earlier one passed, exactly the rows per-row
//!   evaluation would show it;
//! * `col op lit|param`, `col op col`, `col BETWEEN lit AND lit`, LIKE and
//!   IN over a column compare the column's typed vector in place: a row
//!   whose NULL bit is set drops, and a column (or literal) off the fast
//!   type compares through [`Cell::sql_cmp`], exactly like
//!   `Value::sql_cmp`;
//! * everything else — `NOT`, `IS NULL`, arithmetic — evaluates
//!   [`BoundExpr::passes`] over a scratch row holding the values of the
//!   columns the expression reads.

use crate::bound::Items;
use crate::eval::{cmp_holds, like_type_error, ColumnsRow};
use crate::{BoundExpr, CmpOp, InItems, LikePattern, Params};
use pop_types::column::{Cell, Column, Data};
use pop_types::{PopError, PopResult, Value};
use std::cmp::Ordering;

/// A comparison operand that needs no per-row evaluation.
enum Operand<'a> {
    Col(&'a Column),
    Val(&'a Value),
}

impl<'a> Operand<'a> {
    /// `None` for an operand that needs per-row evaluation; an unbound
    /// parameter is an error.
    fn of(e: &'a BoundExpr, cols: &'a [Column], params: &'a Params) -> PopResult<Option<Self>> {
        Ok(match e {
            BoundExpr::Col(i) => Some(Operand::Col(column(cols, *i)?)),
            BoundExpr::Lit(v) => Some(Operand::Val(v)),
            BoundExpr::Param(i) => Some(Operand::Val(params.get(*i)?)),
            _ => None,
        })
    }

    #[inline]
    fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            Operand::Col(c) => c.cell(i),
            Operand::Val(v) => Cell::of(v),
        }
    }
}

fn column(cols: &[Column], i: usize) -> PopResult<&Column> {
    cols.get(i)
        .ok_or_else(|| PopError::Execution(format!("row too short for column {i}")))
}

impl BoundExpr {
    /// Refine `sel` (row indices into `cols`) to the rows this predicate
    /// passes. Equivalent to [`BoundExpr::passes`] on each row.
    pub fn filter_batch(
        &self,
        cols: &[Column],
        params: &Params,
        sel: &mut Vec<u32>,
    ) -> PopResult<()> {
        match self {
            BoundExpr::And(parts) => {
                // SQL WHERE keeps a row iff every conjunct is true, so
                // sequential refinement is exact (false and NULL both drop).
                for p in parts {
                    if sel.is_empty() {
                        break;
                    }
                    p.filter_batch(cols, params, sel)?;
                }
                Ok(())
            }
            BoundExpr::Or(parts) => filter_any(parts, cols, params, sel),
            BoundExpr::Cmp(op, a, b) => {
                match (Operand::of(a, cols, params)?, Operand::of(b, cols, params)?) {
                    (Some(Operand::Col(c)), Some(Operand::Val(v))) => {
                        filter_col_vs_lit(c, *op, v, sel);
                    }
                    // Flip `lit op col` into `col op' lit`.
                    (Some(Operand::Val(v)), Some(Operand::Col(c))) => {
                        filter_col_vs_lit(c, op.flip(), v, sel);
                    }
                    (Some(Operand::Col(x)), Some(Operand::Col(y))) => {
                        filter_col_vs_col(x, *op, y, sel);
                    }
                    (Some(x), Some(y)) => keep(sel, |i| {
                        x.cell(i)
                            .sql_cmp(y.cell(i))
                            .is_some_and(|ord| cmp_holds(*op, ord))
                    }),
                    _ => return self.filter_rows(cols, params, sel),
                }
                Ok(())
            }
            BoundExpr::Between(e, lo, hi) => {
                match (
                    Operand::of(e, cols, params)?,
                    Operand::of(lo, cols, params)?,
                    Operand::of(hi, cols, params)?,
                ) {
                    (Some(Operand::Col(c)), Some(Operand::Val(lo)), Some(Operand::Val(hi))) => {
                        filter_col_between(c, lo, hi, sel);
                    }
                    (Some(v), Some(lo), Some(hi)) => {
                        keep(sel, |i| between(v.cell(i), lo.cell(i), hi.cell(i)));
                    }
                    _ => return self.filter_rows(cols, params, sel),
                }
                Ok(())
            }
            BoundExpr::Like(e, pattern) => match **e {
                BoundExpr::Col(c) => filter_like(column(cols, c)?, pattern, sel),
                _ => self.filter_rows(cols, params, sel),
            },
            BoundExpr::InList(e, items) => match **e {
                BoundExpr::Col(c) => {
                    filter_in(column(cols, c)?, items, sel);
                    Ok(())
                }
                _ => self.filter_rows(cols, params, sel),
            },
            _ => self.filter_rows(cols, params, sel),
        }
    }

    /// [`BoundExpr::passes`] on each selected row, reading its cells in
    /// place in the columns (no `Value` per cell).
    fn filter_rows(&self, cols: &[Column], params: &Params, sel: &mut Vec<u32>) -> PopResult<()> {
        if sel.is_empty() {
            return Ok(());
        }
        let mut width = 0;
        self.for_each_col(&mut |c| width = width.max(c + 1));
        if width > 0 {
            column(cols, width - 1)?;
        }
        try_keep(sel, |row| {
            Ok(self.test(&ColumnsRow { cols, row }, params)? == Some(true))
        })
    }
}

/// Rows where some disjunct passes, in selection order. `open` holds the
/// rows no disjunct has passed yet; each disjunct runs over those only, as
/// per-row evaluation would stop at the first TRUE disjunct. Every
/// refinement keeps a subsequence of its input, so the passing rows are
/// `sel` minus what stays open.
fn filter_any(
    parts: &[BoundExpr],
    cols: &[Column],
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
        p.filter_batch(cols, params, &mut hit)?;
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

/// `x BETWEEN lo AND hi`, both bounds inclusive; NULL anywhere fails.
fn between(x: Cell<'_>, lo: Cell<'_>, hi: Cell<'_>) -> bool {
    match (x.sql_cmp(lo), x.sql_cmp(hi)) {
        (Some(a), Some(b)) => a != Ordering::Less && b != Ordering::Greater,
        _ => false,
    }
}

/// `column op literal`, the single most common predicate shape: a
/// primitive compare per row of a vector of the literal's type, the
/// general `sql_cmp` on any other column.
fn filter_col_vs_lit(col: &Column, op: CmpOp, lit: &Value, sel: &mut Vec<u32>) {
    match (col.data(), lit) {
        // A NULL literal passes nothing.
        (_, Value::Null) => sel.clear(),
        (Data::Int(v), Value::Int(b)) => keep_ord(&[col], sel, op, |i| v[i].cmp(b)),
        (Data::Date(v), Value::Date(b)) => keep_ord(&[col], sel, op, |i| v[i].cmp(b)),
        (Data::Float(v), Value::Float(b)) => keep_ord(&[col], sel, op, |i| v[i].total_cmp(b)),
        (Data::Bool(v), Value::Bool(b)) => keep_ord(&[col], sel, op, |i| v[i].cmp(b)),
        (Data::Str(v), Value::Str(b)) => {
            keep_ord(&[col], sel, op, |i| v.bytes_at(i).cmp(b.as_bytes()));
        }
        _ => {
            let lit = Cell::of(lit);
            keep(sel, |i| {
                col.cell(i)
                    .sql_cmp(lit)
                    .is_some_and(|ord| cmp_holds(op, ord))
            });
        }
    }
}

/// `column op column` (Q12's date compares): typed when both vectors have
/// one type.
fn filter_col_vs_col(x: &Column, op: CmpOp, y: &Column, sel: &mut Vec<u32>) {
    match (x.data(), y.data()) {
        (Data::Int(a), Data::Int(b)) => keep_ord(&[x, y], sel, op, |i| a[i].cmp(&b[i])),
        (Data::Date(a), Data::Date(b)) => keep_ord(&[x, y], sel, op, |i| a[i].cmp(&b[i])),
        (Data::Float(a), Data::Float(b)) => keep_ord(&[x, y], sel, op, |i| a[i].total_cmp(&b[i])),
        (Data::Str(a), Data::Str(b)) => {
            keep_ord(&[x, y], sel, op, |i| a.bytes_at(i).cmp(b.bytes_at(i)));
        }
        _ => keep(sel, |i| {
            x.cell(i)
                .sql_cmp(y.cell(i))
                .is_some_and(|ord| cmp_holds(op, ord))
        }),
    }
}

/// `column BETWEEN literal AND literal`: two primitive compares per row
/// when the bounds have the column's type.
fn filter_col_between(col: &Column, lo: &Value, hi: &Value, sel: &mut Vec<u32>) {
    let cols = [col];
    match (col.data(), lo, hi) {
        (Data::Int(v), Value::Int(lo), Value::Int(hi)) => {
            keep_non_null(&cols, sel, |i| (*lo..=*hi).contains(&v[i]));
        }
        (Data::Date(v), Value::Date(lo), Value::Date(hi)) => {
            keep_non_null(&cols, sel, |i| (*lo..=*hi).contains(&v[i]));
        }
        (Data::Float(v), Value::Float(lo), Value::Float(hi)) => keep_non_null(&cols, sel, |i| {
            v[i].total_cmp(lo) != Ordering::Less && v[i].total_cmp(hi) != Ordering::Greater
        }),
        _ => {
            let (lo, hi) = (Cell::of(lo), Cell::of(hi));
            keep(sel, |i| between(col.cell(i), lo, hi));
        }
    }
}

/// `column LIKE pattern`. A non-string, non-NULL value is the same type
/// error `passes` raises (naming the first one in selection order).
fn filter_like(col: &Column, pattern: &LikePattern, sel: &mut Vec<u32>) -> PopResult<()> {
    if let Data::Str(v) = col.data() {
        keep_non_null(&[col], sel, |i| pattern.matches(v.get(i)));
        return Ok(());
    }
    let mut mismatch = None;
    keep(sel, |i| match col.cell(i) {
        Cell::Str(s) => pattern.matches(s),
        Cell::Null => false,
        _ => {
            mismatch.get_or_insert(i);
            false
        }
    });
    mismatch.map_or(Ok(()), |i| Err(like_type_error(&col.value(i))))
}

/// `column IN (items)`: a binary search of the typed vector in a typed
/// list, the list's three-valued test per value otherwise.
fn filter_in(col: &Column, items: &InItems, sel: &mut Vec<u32>) {
    match (col.data(), &items.0) {
        (Data::Int(v), Items::Ints(ints)) => {
            keep_non_null(&[col], sel, |i| ints.binary_search(&v[i]).is_ok());
        }
        (Data::Str(v), Items::Strs(strs)) => keep_non_null(&[col], sel, |i| {
            strs.binary_search_by(|s| s.as_bytes().cmp(v.bytes_at(i)))
                .is_ok()
        }),
        _ => keep(sel, |i| items.test(col.cell(i)) == Some(true)),
    }
}

/// Keep the rows where `ord(i)` satisfies `op` and no column of `cols` is
/// NULL, with the operator matched once per call.
#[inline]
fn keep_ord(cols: &[&Column], sel: &mut Vec<u32>, op: CmpOp, ord: impl Fn(usize) -> Ordering) {
    match op {
        CmpOp::Eq => keep_non_null(cols, sel, |i| ord(i) == Ordering::Equal),
        CmpOp::Ne => keep_non_null(cols, sel, |i| ord(i) != Ordering::Equal),
        CmpOp::Lt => keep_non_null(cols, sel, |i| ord(i) == Ordering::Less),
        CmpOp::Le => keep_non_null(cols, sel, |i| ord(i) != Ordering::Greater),
        CmpOp::Gt => keep_non_null(cols, sel, |i| ord(i) == Ordering::Greater),
        CmpOp::Ge => keep_non_null(cols, sel, |i| ord(i) != Ordering::Less),
    }
}

/// Keep the rows where no column of `cols` (typed vectors) is NULL and
/// `test` holds; the NULL bits are read only where a bitmap exists.
#[inline]
fn keep_non_null(cols: &[&Column], sel: &mut Vec<u32>, test: impl Fn(usize) -> bool) {
    if cols.iter().any(|c| c.has_null_bitmap()) {
        keep(sel, |i| !cols.iter().any(|c| c.is_null(i)) && test(i));
    } else {
        keep(sel, test);
    }
}

/// Refine `sel` in place (stable, branch-free compaction, no allocation):
/// the hot loop of every kernel.
#[inline]
fn keep(sel: &mut Vec<u32>, mut test: impl FnMut(usize) -> bool) {
    let mut kept = 0;
    for r in 0..sel.len() {
        let i = sel[r];
        sel[kept] = i;
        kept += usize::from(test(i as usize));
    }
    sel.truncate(kept);
}

/// [`keep`] with a fallible test: the first error aborts, leaving `sel`
/// partially refined (callers propagate the error).
fn try_keep(sel: &mut Vec<u32>, mut test: impl FnMut(usize) -> PopResult<bool>) -> PopResult<()> {
    let mut kept = 0;
    for r in 0..sel.len() {
        let i = sel[r];
        if test(i as usize)? {
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
    use pop_types::{ColId, Row};

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

    fn columns(rows: &[Row]) -> Vec<Column> {
        let mut cols = vec![Column::default(); layout().len()];
        for row in rows {
            for (c, v) in cols.iter_mut().zip(row) {
                c.push(v, rows.len());
            }
        }
        cols
    }

    /// filter_batch must agree with per-row passes() on every expression.
    fn check_equiv(e: &Expr, params: &Params) {
        let b = BoundExpr::bind(e, &layout()).unwrap();
        let rows = rows();
        let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
        b.filter_batch(&columns(&rows), params, &mut sel).unwrap();
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
            Expr::col(0, 0).lt(Expr::col(0, 0)),
            Expr::col(0, 0).ge(Expr::col(0, 1)),
            Expr::col(0, 0).lt(Expr::lit(2.5)),
            Expr::col(0, 0).between(Expr::lit(1i64), Expr::lit(3i64)),
            Expr::col(0, 0).between(Expr::lit(0.5), Expr::col(0, 0)),
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
        let mut sel = vec![4, 3, 1, 0];
        b.filter_batch(&columns(&rows()), &Params::none(), &mut sel)
            .unwrap();
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
        b.filter_batch(&columns(&rows), &Params::none(), &mut sel)
            .unwrap();
        assert!(sel.is_empty());
    }

    #[test]
    fn missing_param_is_error() {
        let e = Expr::col(0, 0).lt(Expr::Param(0));
        let b = BoundExpr::bind(&e, &layout()).unwrap();
        let rows = rows();
        let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
        assert!(b
            .filter_batch(&columns(&rows), &Params::none(), &mut sel)
            .is_err());
    }
}
