//! End-to-end wall-clock benchmark of the POP engine. See `README.md` for
//! the metrics, the workloads and the engine surface this crate may call.

pub mod clock;
pub mod json;
pub mod run;
pub mod suite;
pub mod trace;
pub mod verify;
pub mod workload;
