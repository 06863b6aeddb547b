//! Execution guardrails for the POP engine.
//!
//! POP's pitch is *robust* query processing, but re-optimization machinery
//! is exactly where robustness is easiest to lose: a runaway plan has no
//! budget, a storage error mid-reopt can leak temporary materialized
//! views, and the only way to trust the recovery paths is to exercise
//! them. This crate provides the three pieces the driver and executor
//! plumb together:
//!
//! * **Resource governor** ([`Budget`], [`Governor`]) — per-query limits
//!   on work units, rows produced, wall-clock time and resident bytes for
//!   memory-hungry operator state (hash-join builds, sorts, temp MVs,
//!   check buffers). Breaches surface as the typed
//!   [`PopError::BudgetExceeded`]; the governor is checked at **batch
//!   boundaries** and costs a single branch when no limit is set.
//! * **Cooperative cancellation** ([`CancelToken`]) — a shareable flag a
//!   client thread can set; the executor observes it at the same batch
//!   boundaries and aborts with [`PopError::Cancelled`].
//! * **Deterministic fault injection** ([`FaultPlan`],
//!   [`FaultInjector`]) — seed-driven injection of storage read errors,
//!   optimizer failures, corrupted statistics and spurious CHECK
//!   violations at chosen occurrence indices, behind hooks that are a
//!   single `Option` test when disarmed. The same seed always yields the
//!   same injection sites, so chaos runs are byte-for-byte reproducible.
//!
//! [`PopError::BudgetExceeded`]: pop_types::PopError::BudgetExceeded
//! [`PopError::Cancelled`]: pop_types::PopError::Cancelled

#![forbid(unsafe_code)]

mod budget;
mod cancel;
mod fault;
mod governor;

pub use budget::{env_parsed, env_switch, Budget};
pub use cancel::CancelToken;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use governor::Governor;
