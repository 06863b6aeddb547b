//! Statistics and selectivity estimation.
//!
//! This crate implements the estimation machinery a System-R-style
//! optimizer uses to derive cardinalities (§1 of the paper): per-table row
//! counts, per-column distinct counts and equi-depth histograms, and
//! predicate selectivity estimation under the **independence assumption**.
//!
//! The independence assumption is deliberately preserved even though the
//! workloads (notably the DMV case study, §6) contain strong correlations:
//! multiplying per-column selectivities of correlated predicates produces
//! the orders-of-magnitude cardinality *underestimates* that POP detects
//! and recovers from. Parameter markers fall back to fixed default
//! selectivities, reproducing the Q10 experiment of §5.1.

mod histogram;
mod registry;
mod selectivity;
mod table_stats;

pub use histogram::EquiDepthHistogram;
pub use registry::StatsRegistry;
pub use selectivity::{estimate_selectivity, join_selectivity, SelectivityDefaults};
pub use table_stats::{analyze_table, ColumnStats, TableStats, HISTOGRAM_BUCKETS};
