//! Expression trees for the POP engine.
//!
//! Expressions reference columns by [`pop_types::ColId`] (query-table index + column
//! index). Before execution an expression is *bound* against the column
//! layout of the plan node it runs on, turning column references into flat
//! row offsets ([`BoundExpr`]). Evaluation follows SQL three-valued logic.
//!
//! The module also provides:
//! * parameter markers (`Expr::Param`) — the mechanism behind the paper's
//!   TPC-H Q10 robustness experiment (§5.1), where the optimizer must fall
//!   back to a default selectivity at compile time, and
//! * canonical fingerprints used to match intermediate-result materialized
//!   views during re-optimization (§2.3).

mod batch;
mod bound;
mod eval;
mod expr;
mod like;
mod params;

pub use bound::{BoundExpr, InItems};
pub use eval::truth;
pub use expr::{ArithOp, CmpOp, Expr};
pub use like::LikePattern;
pub use params::Params;
