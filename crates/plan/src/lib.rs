//! Query and plan representation for the POP engine.
//!
//! * [`QuerySpec`] / [`QueryBuilder`] — the logical query: a join graph of
//!   table references with per-table local predicates, equi-join
//!   predicates, projection, optional aggregation / ordering, and an
//!   optional side effect. This is what the application hands to the POP
//!   driver (the engine has no SQL parser; the spec is what a parser +
//!   rewrite phase would produce).
//! * [`PhysNode`] — the physical Query Execution Plan (QEP): scans, the
//!   three join methods (NLJN / HSJN / MGJN), sorts, explicit
//!   materialization (TEMP), aggregation, and the POP-specific operators:
//!   CHECK, BUFCHECK, rid side-table insert and anti-join compensation.
//! * [`ValidityRange`] — per-edge cardinality bounds computed by the
//!   optimizer's sensitivity analysis (§2.2), consumed by CHECK.
//! * [`TableSet`] — the query tables a subplan joins. Within one query
//!   it names the subplan: CHECKs, cardinality facts and temp MVs are
//!   keyed by it.
//! * [`subplan_signature`] / [`Signer`] — the canonical identity of an
//!   intermediate result across queries (tables, predicates, parameter
//!   values): the key of the cross-query feedback store alone.

mod check;
mod cost;
mod display;
mod physical;
mod query;
mod signature;
mod table_set;

pub use check::{CheckContext, CheckFlavor, CheckSpec, ValidityRange};
pub use cost::CostModel;
pub use physical::{
    kept_positions, AggFunc, AggSpec, InnerProbe, LayoutCol, PhysNode, PlanProps, SortKeyRef,
};
pub use query::{
    node_count, Aggregate, ExistsClause, HavingPred, JoinGraph, JoinPred, OrderKey, QueryBuilder,
    QuerySpec, TableRef,
};
pub use signature::{canonical_layout, params_fingerprint, subplan_signature, Signer};
pub use table_set::TableSet;
