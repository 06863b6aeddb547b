//! # Progressive Query Optimization (POP)
//!
//! A from-scratch reproduction of *"Robust Query Processing through
//! Progressive Optimization"* (Markl, Raman, Simmen, Lohman, Pirahesh,
//! Cilimdzic — SIGMOD 2004) as a self-contained, in-memory relational
//! engine.
//!
//! The [`PopExecutor`] is the public entry point. It drives the loop of
//! §2.1 of the paper:
//!
//! 1. **Optimize** the query with a System-R-style dynamic-programming
//!    optimizer whose pruning step also computes per-edge **validity
//!    ranges** via sensitivity analysis (modified Newton-Raphson,
//!    Figure 5).
//! 2. A post-pass places **CHECK** operators (five flavors: LC, LCEM,
//!    ECB, ECWC, ECDC — Table 1) guarding the edges whose misestimation
//!    would make the plan suboptimal.
//! 3. **Execute**. If a CHECK's actual cardinality leaves its validity
//!    range, execution suspends; completed materializations are promoted
//!    to **temporary materialized views** with exact statistics, actual
//!    cardinalities are fed back, and the query is **re-optimized** — the
//!    optimizer chooses, on cost, between reusing the MVs and starting
//!    over (Figure 6). Rows already returned to the application are
//!    compensated with a rid anti-join so no duplicates escape
//!    (Figure 9).
//! 4. The loop runs at most [`PopConfig::max_reopts`] times (the paper's
//!    termination heuristic, §7), after which the current plan runs to
//!    completion with checks disabled.
//!
//! ## Quick start
//!
//! ```
//! use pop::{PopConfig, PopExecutor};
//! use pop_expr::{Expr, Params};
//! use pop_plan::QueryBuilder;
//! use pop_storage::{Catalog, IndexKind};
//! use pop_types::{DataType, Schema, Value};
//!
//! let catalog = Catalog::new();
//! catalog.create_table(
//!     "orders",
//!     Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
//!     (0..1000).map(|i| vec![Value::Int(i), Value::Int(i % 100)]),
//! ).unwrap();
//! catalog.create_table(
//!     "customer",
//!     Schema::from_pairs(&[("cid", DataType::Int), ("grp", DataType::Int)]),
//!     (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
//! ).unwrap();
//! catalog.create_index("orders", "cust", IndexKind::Hash).unwrap();
//!
//! let exec = PopExecutor::new(catalog, PopConfig::default()).unwrap();
//! let mut b = QueryBuilder::new();
//! let c = b.table("customer");
//! let o = b.table("orders");
//! b.join(c, 0, o, 1);
//! b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
//! let query = b.build().unwrap();
//!
//! let result = exec.run(&query, &Params::none()).unwrap();
//! assert_eq!(result.rows.len(), 100); // 10 customers x 10 orders each
//! ```

mod config;
mod driver;
mod report;

pub use config::PopConfig;
pub use driver::{PopExecutor, REOPT_WORK};
pub use report::{PlanText, QueryResult, RegionDiag, RunReport, StepReport, WorkerDiag};

// Re-export the crates a downstream user needs to drive the API.
pub use pop_exec::{CheckEvent, CheckOutcome, ObservedCard, Violation};
pub use pop_guard::{
    Budget, CancelToken, FaultInjector, FaultKind, FaultPlan, FaultSpec, Governor,
};
pub use pop_optimizer::{
    CardFact, FeedbackCache, FeedbackStore, FlavorSet, JoinMethods, Memo, MemoStats,
    OptimizerConfig, ValidityMode, DEFAULT_FEEDBACK_CAPACITY,
};
pub use pop_plan::{
    AggFunc, CheckContext, CheckFlavor, CostModel, PhysNode, QueryBuilder, QuerySpec, ValidityRange,
};
pub use pop_planlint::{certify, lint_plan, DiagCode, LintContext, PlanDiagnostic};
pub use pop_stats::StatsRegistry;
pub use pop_storage::{Catalog, IndexKind};
