//! Fundamental types shared by every crate of the Progressive Optimization
//! (POP) engine: SQL-ish values, rows, typed columns, schemas, row
//! identifiers and the common error type.
//!
//! The engine is a single-node, in-memory relational system, so values are
//! kept simple: 64-bit integers and floats, interned-ish strings
//! (`Arc<str>`), dates as day numbers, and booleans. `Value` provides a
//! *total* order (`NULL` sorts first, floats via `total_cmp`) so it can be
//! used directly as a sort or join key.

pub mod column;
mod error;
pub mod hash;
mod row;
mod schema;
pub mod sort;
mod value;

pub use error::{PopError, PopResult};
pub use hash::{fnv1a, fnv1a_extend, FNV1A_OFFSET, FNV1A_PRIME};
pub use row::{Rid, Row};
pub use schema::{ColId, ColumnDef, Schema};
pub use value::{DataType, Value};
