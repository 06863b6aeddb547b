//! Bound expressions: column references resolved to flat row offsets (or
//! column indices), and LIKE patterns and IN-lists compiled into the typed
//! forms both evaluation paths ([`BoundExpr::passes`],
//! [`BoundExpr::filter_batch`]) test against.

use crate::{ArithOp, CmpOp, Expr, LikePattern};
use pop_types::column::Cell;
use pop_types::{ColId, PopError, PopResult, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// An IN-list classified at bind time. The typed forms are sorted, which
/// their binary searches rely on, so the representation is private.
#[derive(Debug, Clone, PartialEq)]
pub struct InItems(pub(crate) Items);

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Items {
    /// Every item an `Int`: sorted and deduplicated, one binary search per
    /// row.
    Ints(Box<[i64]>),
    /// Every item a `Str`: sorted and deduplicated.
    Strs(Box<[Arc<str>]>),
    /// Anything else (floats, dates, NULLs, mixed types): `sql_cmp` against
    /// each item, in list order.
    Values(Box<[Value]>),
}

impl InItems {
    /// Classify `items`.
    pub(crate) fn new(items: &[Value]) -> InItems {
        if let Some(mut ints) = items.iter().map(Value::as_i64).collect::<Option<Vec<_>>>() {
            ints.sort_unstable();
            ints.dedup();
            return InItems(Items::Ints(ints.into()));
        }
        let strs = items.iter().map(|v| match v {
            Value::Str(s) => Some(Arc::clone(s)),
            _ => None,
        });
        if let Some(mut strs) = strs.collect::<Option<Vec<_>>>() {
            strs.sort_unstable();
            strs.dedup();
            return InItems(Items::Strs(strs.into()));
        }
        InItems(Items::Values(items.into()))
    }

    /// `x IN (items)` under three-valued logic: `None` (unknown) when `x`
    /// is NULL, or when no item equals `x` and some item is NULL.
    pub(crate) fn test(&self, x: Cell<'_>) -> Option<bool> {
        if x.is_null() {
            return None;
        }
        match &self.0 {
            Items::Ints(ints) => Some(match x {
                Cell::Int(a) => ints.binary_search(&a).is_ok(),
                Cell::Date(d) => ints.binary_search(&i64::from(d)).is_ok(),
                // Floats compare numerically; other types never equal an int.
                other => ints
                    .iter()
                    .any(|&i| other.sql_cmp(Cell::Int(i)) == Some(Ordering::Equal)),
            }),
            // No other type ever equals a string.
            Items::Strs(strs) => {
                Some(matches!(x, Cell::Str(s) if strs.binary_search_by(|p| (**p).cmp(s)).is_ok()))
            }
            Items::Values(items) => {
                let mut saw_null = false;
                for item in items {
                    match x.sql_cmp(Cell::of(item)) {
                        Some(Ordering::Equal) => return Some(true),
                        None => saw_null = true,
                        _ => {}
                    }
                }
                (!saw_null).then_some(false)
            }
        }
    }
}

/// An expression whose column references have been resolved against the
/// column layout of a specific plan node, so evaluation is a direct index
/// into the row.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Flat offset into the input row.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Parameter marker.
    Param(usize),
    /// Comparison.
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Conjunction.
    And(Vec<BoundExpr>),
    /// Disjunction.
    Or(Vec<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// LIKE, its pattern compiled.
    Like(Box<BoundExpr>, LikePattern),
    /// IN list, its items classified.
    InList(Box<BoundExpr>, InItems),
    /// BETWEEN (inclusive).
    Between(Box<BoundExpr>, Box<BoundExpr>, Box<BoundExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
    /// IS NULL.
    IsNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// Resolve `expr` against `layout`: position `i` of the input row holds
    /// the column `layout[i]`.
    pub fn bind(expr: &Expr, layout: &[ColId]) -> PopResult<BoundExpr> {
        Ok(match expr {
            Expr::Col(c) => {
                let idx = layout
                    .iter()
                    .position(|l| l == c)
                    .ok_or_else(|| PopError::UnknownColumn(format!("{c} not in layout")))?;
                BoundExpr::Col(idx)
            }
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Param(i) => BoundExpr::Param(*i),
            Expr::Cmp(op, a, b) => BoundExpr::Cmp(
                *op,
                Box::new(Self::bind(a, layout)?),
                Box::new(Self::bind(b, layout)?),
            ),
            Expr::And(v) => BoundExpr::And(
                v.iter()
                    .map(|e| Self::bind(e, layout))
                    .collect::<PopResult<_>>()?,
            ),
            Expr::Or(v) => BoundExpr::Or(
                v.iter()
                    .map(|e| Self::bind(e, layout))
                    .collect::<PopResult<_>>()?,
            ),
            Expr::Not(e) => BoundExpr::Not(Box::new(Self::bind(e, layout)?)),
            Expr::Like(e, p) => {
                BoundExpr::Like(Box::new(Self::bind(e, layout)?), LikePattern::new(p))
            }
            Expr::InList(e, vs) => {
                BoundExpr::InList(Box::new(Self::bind(e, layout)?), InItems::new(vs))
            }
            Expr::Between(e, lo, hi) => BoundExpr::Between(
                Box::new(Self::bind(e, layout)?),
                Box::new(Self::bind(lo, layout)?),
                Box::new(Self::bind(hi, layout)?),
            ),
            Expr::Arith(op, a, b) => BoundExpr::Arith(
                *op,
                Box::new(Self::bind(a, layout)?),
                Box::new(Self::bind(b, layout)?),
            ),
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(Self::bind(e, layout)?)),
        })
    }

    /// Call `f` with the row offset of every column reference, in
    /// evaluation order (an offset referenced twice is reported twice).
    /// Storage leaves use it to name the columns a predicate reads.
    pub fn for_each_col(&self, f: &mut impl FnMut(usize)) {
        match self {
            BoundExpr::Col(i) => f(*i),
            BoundExpr::Lit(_) | BoundExpr::Param(_) => {}
            BoundExpr::Cmp(_, a, b) | BoundExpr::Arith(_, a, b) => {
                a.for_each_col(f);
                b.for_each_col(f);
            }
            BoundExpr::And(v) | BoundExpr::Or(v) => v.iter().for_each(|e| e.for_each_col(f)),
            BoundExpr::Not(e)
            | BoundExpr::Like(e, _)
            | BoundExpr::InList(e, _)
            | BoundExpr::IsNull(e) => e.for_each_col(f),
            BoundExpr::Between(e, lo, hi) => {
                e.for_each_col(f);
                lo.for_each_col(f);
                hi.for_each_col(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolves_offsets() {
        let layout = vec![ColId::new(1, 0), ColId::new(0, 2)];
        let e = Expr::col(0, 2).eq(Expr::col(1, 0));
        let b = BoundExpr::bind(&e, &layout).unwrap();
        match b {
            BoundExpr::Cmp(CmpOp::Eq, a, bb) => {
                assert_eq!(*a, BoundExpr::Col(1));
                assert_eq!(*bb, BoundExpr::Col(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_list_classification() {
        let ints = InItems::new(&[Value::Int(5), Value::Int(1), Value::Int(5)]);
        assert_eq!(ints.0, Items::Ints(vec![1, 5].into()));
        let strs = InItems::new(&[Value::str("b"), Value::str("a")]);
        assert_eq!(
            strs.0,
            Items::Strs(vec![Arc::from("a"), Arc::from("b")].into())
        );
        let mixed = [Value::Int(1), Value::Float(2.0)];
        assert_eq!(InItems::new(&mixed).0, Items::Values(mixed.to_vec().into()));
        let with_null = [Value::Int(1), Value::Null];
        assert_eq!(
            InItems::new(&with_null).0,
            Items::Values(with_null.to_vec().into())
        );
        // Typed lists answer cross-type probes as `sql_cmp` does.
        assert_eq!(ints.test(Cell::Float(5.0)), Some(true));
        assert_eq!(ints.test(Cell::Date(1)), Some(true));
        assert_eq!(ints.test(Cell::Str("5")), Some(false));
        assert_eq!(strs.test(Cell::Int(1)), Some(false));
        assert_eq!(strs.test(Cell::Null), None);
        assert_eq!(InItems::new(&with_null).test(Cell::Int(2)), None);
    }

    #[test]
    fn bind_missing_column_errors() {
        let layout = vec![ColId::new(0, 0)];
        let e = Expr::col(3, 3).eq(Expr::lit(1i64));
        assert!(BoundExpr::bind(&e, &layout).is_err());
    }

    #[test]
    fn for_each_col_reaches_every_variant() {
        let layout: Vec<ColId> = (0..8).map(|c| ColId::new(0, c)).collect();
        let e = Expr::col(0, 0)
            .eq(Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::col(0, 1)),
                Box::new(Expr::Param(0)),
            ))
            .and(Expr::col(0, 2).between(Expr::col(0, 3), Expr::lit(9i64)))
            .and(
                Expr::col(0, 4)
                    .like("a%")
                    .or(Expr::col(0, 5).in_list(vec![Value::Int(1)]))
                    .not(),
            )
            .and(Expr::IsNull(Box::new(Expr::col(0, 6))))
            .and(Expr::col(0, 0).lt(Expr::lit(3i64)));
        let mut seen = Vec::new();
        BoundExpr::bind(&e, &layout)
            .unwrap()
            .for_each_col(&mut |c| seen.push(c));
        assert_eq!(seen, [0, 1, 2, 3, 4, 5, 6, 0], "column 7 is never read");
    }

    #[test]
    fn bind_preserves_structure() {
        let layout = vec![ColId::new(0, 0)];
        let e = Expr::col(0, 0)
            .between(Expr::lit(1i64), Expr::lit(10i64))
            .and(Expr::col(0, 0).like("a%"));
        let b = BoundExpr::bind(&e, &layout).unwrap();
        match b {
            BoundExpr::And(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
