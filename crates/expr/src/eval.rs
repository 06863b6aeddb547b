//! Three-valued evaluation of bound expressions.
//!
//! Predicate nodes are tested by `BoundExpr::test`, which reads column,
//! literal and parameter operands by reference and answers
//! `Option<bool>` (`None` = unknown) without building a `Value`;
//! [`BoundExpr::eval`] computes values (columns, arithmetic, projections)
//! and wraps a predicate's answer in `Value::Bool` / `Value::Null` only
//! when a value is asked for.

use crate::{ArithOp, BoundExpr, CmpOp, Params};
use pop_types::column::{Cell, Column};
use pop_types::{PopError, PopResult, Value};
use std::cmp::Ordering;

/// Truth of a value under SQL three-valued logic: `Some(true)`,
/// `Some(false)`, or `None` for NULL/unknown.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        _ => None,
    }
}

/// A row an expression reads its columns from.
pub(crate) trait RowRef {
    /// Column `i`, or `None` past the row's end.
    fn get(&self, i: usize) -> Option<Scalar<'_>>;
}

impl RowRef for [Value] {
    fn get(&self, i: usize) -> Option<Scalar<'_>> {
        <[Value]>::get(self, i).map(|v| Scalar::Cell(Cell::of(v)))
    }
}

/// Row `row` of table-width columns, read in place: a string is a borrowed
/// slice of its column, never a `Value`.
pub(crate) struct ColumnsRow<'a> {
    pub(crate) cols: &'a [Column],
    pub(crate) row: usize,
}

impl RowRef for ColumnsRow<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<Scalar<'_>> {
        self.cols.get(i).map(|c| Scalar::Cell(c.cell(self.row)))
    }
}

/// An operand: borrowed from the row, a literal or a parameter, or a
/// computed value.
pub(crate) enum Scalar<'a> {
    Cell(Cell<'a>),
    Owned(Value),
}

impl Scalar<'_> {
    #[inline]
    fn cell(&self) -> Cell<'_> {
        match self {
            Scalar::Cell(c) => *c,
            Scalar::Owned(v) => Cell::of(v),
        }
    }

    fn into_value(self) -> Value {
        match self {
            Scalar::Cell(c) => c.to_value(),
            Scalar::Owned(v) => v,
        }
    }
}

impl BoundExpr {
    /// Evaluate against a row and parameter bindings.
    pub fn eval(&self, row: &[Value], params: &Params) -> PopResult<Value> {
        self.eval_in(row, params)
    }

    fn eval_in<R: RowRef + ?Sized>(&self, row: &R, params: &Params) -> PopResult<Value> {
        Ok(match self {
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Param(_) => {
                self.operand(row, params)?.into_value()
            }
            BoundExpr::Arith(op, a, b) => {
                let av = a.operand(row, params)?;
                let bv = b.operand(row, params)?;
                let (av, bv) = (av.cell(), bv.cell());
                if av.is_null() || bv.is_null() {
                    return Ok(Value::Null);
                }
                arith(*op, av, bv)?
            }
            BoundExpr::Cmp(..)
            | BoundExpr::And(_)
            | BoundExpr::Or(_)
            | BoundExpr::Not(_)
            | BoundExpr::Like(..)
            | BoundExpr::InList(..)
            | BoundExpr::Between(..)
            | BoundExpr::IsNull(_) => match self.test(row, params)? {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            },
        })
    }

    /// Evaluate as a predicate: does the row pass? NULL counts as *not
    /// passing* (SQL WHERE semantics).
    pub fn passes(&self, row: &[Value], params: &Params) -> PopResult<bool> {
        Ok(self.test(row, params)? == Some(true))
    }

    /// Truth of the expression over `row` in three-valued logic: `Some`
    /// true or false, `None` for unknown (NULL, or a non-boolean value).
    /// Operands are read in place; only arithmetic computes a value.
    pub(crate) fn test<R: RowRef + ?Sized>(
        &self,
        row: &R,
        params: &Params,
    ) -> PopResult<Option<bool>> {
        Ok(match self {
            BoundExpr::Cmp(op, a, b) => {
                let av = a.operand(row, params)?;
                let bv = b.operand(row, params)?;
                av.cell().sql_cmp(bv.cell()).map(|ord| cmp_holds(*op, ord))
            }
            BoundExpr::And(parts) => {
                // SQL AND: false dominates, then null, then true.
                let mut saw_null = false;
                for p in parts {
                    match p.test(row, params)? {
                        Some(false) => return Ok(Some(false)),
                        None => saw_null = true,
                        Some(true) => {}
                    }
                }
                (!saw_null).then_some(true)
            }
            BoundExpr::Or(parts) => {
                // SQL OR: true dominates, then null, then false.
                let mut saw_null = false;
                for p in parts {
                    match p.test(row, params)? {
                        Some(true) => return Ok(Some(true)),
                        None => saw_null = true,
                        Some(false) => {}
                    }
                }
                (!saw_null).then_some(false)
            }
            BoundExpr::Not(e) => e.test(row, params)?.map(|b| !b),
            BoundExpr::Like(e, pattern) => match e.operand(row, params)?.cell() {
                Cell::Null => None,
                Cell::Str(s) => Some(pattern.matches(s)),
                other => return Err(like_type_error(&other.to_value())),
            },
            BoundExpr::InList(e, items) => items.test(e.operand(row, params)?.cell()),
            BoundExpr::Between(e, lo, hi) => {
                let v = e.operand(row, params)?;
                let lov = lo.operand(row, params)?;
                let hiv = hi.operand(row, params)?;
                match (v.cell().sql_cmp(lov.cell()), v.cell().sql_cmp(hiv.cell())) {
                    (Some(a), Some(b)) => Some(a != Ordering::Less && b != Ordering::Greater),
                    _ => None,
                }
            }
            BoundExpr::IsNull(e) => Some(e.operand(row, params)?.cell().is_null()),
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Param(_) | BoundExpr::Arith(..) => {
                match self.operand(row, params)?.cell() {
                    Cell::Bool(b) => Some(b),
                    _ => None,
                }
            }
        })
    }

    /// The expression's value over `row`: borrowed for a column, literal or
    /// parameter, computed otherwise.
    fn operand<'a, R: RowRef + ?Sized>(
        &'a self,
        row: &'a R,
        params: &'a Params,
    ) -> PopResult<Scalar<'a>> {
        Ok(match self {
            BoundExpr::Col(i) => row
                .get(*i)
                .ok_or_else(|| PopError::Execution(format!("row too short for column {i}")))?,
            BoundExpr::Lit(v) => Scalar::Cell(Cell::of(v)),
            BoundExpr::Param(i) => Scalar::Cell(Cell::of(params.get(*i)?)),
            _ => Scalar::Owned(self.eval_in(row, params)?),
        })
    }
}

/// The error LIKE raises on a non-string, non-NULL operand.
pub(crate) fn like_type_error(v: &Value) -> PopError {
    PopError::TypeMismatch(format!("LIKE applied to non-string {v}"))
}

pub(crate) fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

fn arith(op: ArithOp, a: Cell<'_>, b: Cell<'_>) -> PopResult<Value> {
    // Integer arithmetic when both sides are ints (except division, which
    // promotes to float to avoid surprising truncation); float otherwise.
    if let (Cell::Int(x), Cell::Int(y)) = (a, b) {
        return Ok(match op {
            ArithOp::Add => Value::Int(x.wrapping_add(y)),
            ArithOp::Sub => Value::Int(x.wrapping_sub(y)),
            ArithOp::Mul => Value::Int(x.wrapping_mul(y)),
            ArithOp::Div => {
                if y == 0 {
                    Value::Null
                } else {
                    Value::Float(x as f64 / y as f64)
                }
            }
        });
    }
    let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
        return Err(PopError::TypeMismatch(format!(
            "arithmetic on non-numeric values {} {op} {}",
            a.to_value(),
            b.to_value()
        )));
    };
    Ok(match op {
        ArithOp::Add => Value::Float(x + y),
        ArithOp::Sub => Value::Float(x - y),
        ArithOp::Mul => Value::Float(x * y),
        ArithOp::Div => {
            if y == 0.0 {
                Value::Null
            } else {
                Value::Float(x / y)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;
    use pop_types::column::Column;
    use pop_types::ColId;

    fn bind1(e: &Expr) -> BoundExpr {
        BoundExpr::bind(e, &[ColId::new(0, 0), ColId::new(0, 1)]).unwrap()
    }

    fn ev(e: &Expr, row: &[Value]) -> Value {
        bind1(e).eval(row, &Params::none()).unwrap()
    }

    #[test]
    fn comparisons() {
        let row = vec![Value::Int(5), Value::str("x")];
        assert_eq!(
            ev(&Expr::col(0, 0).lt(Expr::lit(6i64)), &row),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&Expr::col(0, 0).ge(Expr::lit(6i64)), &row),
            Value::Bool(false)
        );
        assert_eq!(
            ev(&Expr::col(0, 0).eq(Expr::lit(5i64)), &row),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&Expr::col(0, 0).ne(Expr::lit(5i64)), &row),
            Value::Bool(false)
        );
    }

    #[test]
    fn null_propagates_through_cmp() {
        let row = vec![Value::Null, Value::Null];
        assert_eq!(ev(&Expr::col(0, 0).eq(Expr::lit(5i64)), &row), Value::Null);
    }

    #[test]
    fn three_valued_and_or() {
        let row = vec![Value::Null, Value::Int(1)];
        // NULL AND false = false
        let e = Expr::col(0, 0)
            .eq(Expr::lit(1i64))
            .and(Expr::col(0, 1).eq(Expr::lit(2i64)));
        assert_eq!(ev(&e, &row), Value::Bool(false));
        // NULL AND true = NULL
        let e = Expr::col(0, 0)
            .eq(Expr::lit(1i64))
            .and(Expr::col(0, 1).eq(Expr::lit(1i64)));
        assert_eq!(ev(&e, &row), Value::Null);
        // NULL OR true = true
        let e = Expr::col(0, 0)
            .eq(Expr::lit(1i64))
            .or(Expr::col(0, 1).eq(Expr::lit(1i64)));
        assert_eq!(ev(&e, &row), Value::Bool(true));
        // NULL OR false = NULL
        let e = Expr::col(0, 0)
            .eq(Expr::lit(1i64))
            .or(Expr::col(0, 1).eq(Expr::lit(9i64)));
        assert_eq!(ev(&e, &row), Value::Null);
    }

    #[test]
    fn not_semantics() {
        let row = vec![Value::Int(1), Value::Null];
        assert_eq!(
            ev(&Expr::col(0, 0).eq(Expr::lit(1i64)).not(), &row),
            Value::Bool(false)
        );
        assert_eq!(
            ev(&Expr::col(0, 1).eq(Expr::lit(1i64)).not(), &row),
            Value::Null
        );
    }

    #[test]
    fn like_eval() {
        let row = vec![Value::str("honda"), Value::Null];
        assert_eq!(ev(&Expr::col(0, 0).like("hon%"), &row), Value::Bool(true));
        assert_eq!(ev(&Expr::col(0, 1).like("hon%"), &row), Value::Null);
    }

    #[test]
    fn like_non_string_is_error() {
        let row = vec![Value::Int(1), Value::Int(2)];
        let expected = PopError::TypeMismatch("LIKE applied to non-string 1".into());
        // Every pattern class, and both evaluation paths, raise the same error.
        for pattern in ["1", "1%", "%1", "%1%", "1_%", "%"] {
            let b = bind1(&Expr::col(0, 0).like(pattern));
            assert_eq!(b.eval(&row, &Params::none()), Err(expected.clone()));
            assert_eq!(b.passes(&row, &Params::none()), Err(expected.clone()));
            let mut sel = vec![0];
            let cols: Vec<Column> = row
                .iter()
                .map(|v| {
                    let mut c = Column::default();
                    c.push(v, 1);
                    c
                })
                .collect();
            let batch = b.filter_batch(&cols, &Params::none(), &mut sel);
            assert_eq!(batch, Err(expected.clone()), "{pattern:?}");
        }
    }

    #[test]
    fn in_list_semantics() {
        let row = vec![Value::Int(5), Value::Null];
        let e = Expr::col(0, 0).in_list(vec![Value::Int(1), Value::Int(5)]);
        assert_eq!(ev(&e, &row), Value::Bool(true));
        let e = Expr::col(0, 0).in_list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(ev(&e, &row), Value::Bool(false));
        // 5 IN (1, NULL) = NULL
        let e = Expr::col(0, 0).in_list(vec![Value::Int(1), Value::Null]);
        assert_eq!(ev(&e, &row), Value::Null);
        // NULL IN (...) = NULL
        let e = Expr::col(0, 1).in_list(vec![Value::Int(1)]);
        assert_eq!(ev(&e, &row), Value::Null);
    }

    #[test]
    fn between_inclusive() {
        let row = vec![Value::Int(5), Value::Int(0)];
        let e = Expr::col(0, 0).between(Expr::lit(5i64), Expr::lit(10i64));
        assert_eq!(ev(&e, &row), Value::Bool(true));
        let e = Expr::col(0, 0).between(Expr::lit(6i64), Expr::lit(10i64));
        assert_eq!(ev(&e, &row), Value::Bool(false));
    }

    #[test]
    fn arithmetic() {
        let row = vec![Value::Int(6), Value::Float(1.5)];
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::col(0, 0)),
            Box::new(Expr::col(0, 1)),
        );
        assert_eq!(ev(&e, &row), Value::Float(9.0));
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(0, 0)),
            Box::new(Expr::lit(0i64)),
        );
        assert_eq!(ev(&e, &row), Value::Null);
        let e = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(0, 0)),
            Box::new(Expr::lit(4i64)),
        );
        assert_eq!(ev(&e, &row), Value::Int(10));
    }

    #[test]
    fn is_null_eval() {
        let row = vec![Value::Null, Value::Int(1)];
        assert_eq!(
            ev(&Expr::IsNull(Box::new(Expr::col(0, 0))), &row),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&Expr::IsNull(Box::new(Expr::col(0, 1))), &row),
            Value::Bool(false)
        );
    }

    #[test]
    fn params_in_eval() {
        let row = vec![Value::Int(5), Value::Int(0)];
        let b = bind1(&Expr::col(0, 0).le(Expr::Param(0)));
        let params = Params::new(vec![Value::Int(10)]);
        assert_eq!(b.eval(&row, &params).unwrap(), Value::Bool(true));
        assert!(b.eval(&row, &Params::none()).is_err());
    }

    #[test]
    fn passes_treats_null_as_false() {
        let row = vec![Value::Null, Value::Int(1)];
        let b = bind1(&Expr::col(0, 0).eq(Expr::lit(1i64)));
        assert!(!b.passes(&row, &Params::none()).unwrap());
    }
}
