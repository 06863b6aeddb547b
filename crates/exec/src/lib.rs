//! The Volcano-style execution engine with POP runtime support,
//! vectorized: operators implement `open`/`next_batch`/`close` and move
//! data in [`RowBatch`] chunks of up to [`ExecCtx::batch_size`] rows
//! (default [`DEFAULT_BATCH_SIZE`], `PopConfig::batch_size` at the
//! driver level). Batch boundaries carry no semantics — running with
//! `batch_size = 1` reproduces classic row-at-a-time Volcano behaviour
//! bit for bit, which the equivalence suite exploits.
//!
//! POP-specific runtime behaviour (paper §2.1, §3):
//!
//! * **Cardinality guards** — CHECK and BUFCHECK (Figure 10) are one
//!   operator ([`operators::GuardOp`]) over one counting core: it counts rows
//!   against a bound and raises an [`ExecSignal::Reopt`] control signal
//!   on violation — not an error: the POP driver catches it, harvests
//!   intermediate results and re-optimizes.
//! * **Materialization harvest**: every completed SORT/TEMP/hash-build
//!   materialization registers its buffer — shared, not copied — with the
//!   execution context, so a later CHECK failure can promote it (in
//!   canonical column order) to a temporary materialized view with exact
//!   cardinality (§2.3).
//! * **Work accounting**: operators charge the [`pop_plan::CostModel`]
//!   unit functions the optimizer estimates with, at the counts they
//!   observe (spill passes of oversized builds and sorts included): a
//!   deterministic, machine-independent "execution time".
//! * **Lineage**: rows carry the rids of the base rows that produced them,
//!   enabling ECDC's deferred compensation (anti-join against already
//!   returned rows, Figure 9) and exactly-once side effects.

mod batch;
mod build;
mod context;
mod executor;
pub mod operators;
mod profile;
mod signal;

pub use batch::{RowBatch, DEFAULT_BATCH_SIZE};
pub use build::{build_operator, Subplan, Subplans};
pub use context::{CheckEvent, CheckOutcome, EffectKey, ExecCtx, Harvest};
pub use executor::{execute, RunOutcome};
pub use operators::Operator;
pub use profile::{execute_profiled, OpTime};
pub use signal::{ExecSignal, ObservedCard, OpResult, Violation};
