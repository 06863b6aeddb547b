//! The cost-based query optimizer with POP extensions.
//!
//! A System-R-style dynamic-programming optimizer over the query's join
//! graph, producing a [`pop_plan::PhysNode`] tree through one entry point,
//! [`optimize`], over one DP table, the [`Memo`] (incrementally maintained
//! across re-optimizations; a fresh one optimizes from scratch). The
//! POP-specific parts (paper §2):
//!
//! * **Validity ranges** ([`validity`]): while pruning a structurally
//!   equivalent alternative plan, a modified Newton-Raphson root search on
//!   the cost difference narrows per-edge cardinality bounds outside of
//!   which the surviving plan is provably suboptimal (Figure 5).
//! * **Cardinality feedback** ([`FeedbackCache`]): actual cardinalities
//!   observed during a previous execution step override estimates for
//!   matching subplans.
//! * **Temp-MV alternatives**: intermediate results materialized before a
//!   CHECK failure enter enumeration as [`pop_plan::PhysNode::MvScan`]
//!   candidates with exact cardinalities, competing on cost with
//!   recomputing the subplan from scratch (§2.3, Figure 6).
//! * **CHECK placement post-pass** (`placement`): inserts LC / LCEM /
//!   ECB / ECWC / ECDC checkpoints per the placement policies of Table 1.

mod candidate;
mod cardinality;
mod config;
mod context;
pub mod cost;
mod enumerate;
mod feedback;
mod finalize;
mod memo;
mod placement;
mod plan_cache;
mod provenance;
pub mod validity;

pub use candidate::{Candidate, RootCostSpec};
pub use cardinality::CardEstimator;
pub use config::{FlavorSet, JoinMethods, OptimizerConfig, ValidityMode};
pub use context::OptimizerContext;
pub use cost::CostModel;
pub use feedback::{CardFact, FeedbackCache, FeedbackStore, DEFAULT_FEEDBACK_CAPACITY};
pub use finalize::optimize;
pub use memo::{Memo, MemoStats, MAX_DP_TABLES};
pub use plan_cache::{PlanCache, PlanGuard, DEFAULT_PLAN_CACHE_CAPACITY};
pub use provenance::{plan_provenance, EstimateProvenance, EstimateSource};
