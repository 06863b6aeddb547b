//! Storage layer: tables behind pluggable backends, indexes, the catalog,
//! and temporary materialized views (temp MVs).
//!
//! Two backends implement [`StorageBackend`]: [`MemBackend`] (one typed
//! column per stored column behind an `Arc` snapshot, plus a *virtual*
//! page map) and [`PagedBackend`]
//! (column-major pages in a file, read through a clock-eviction [`BufferPool`],
//! fronted by a write-ahead log). Indexes are the same in-memory sorted
//! runs over either backend ([`Index`]).
//! Both pack rows into pages with the same rule, so page counts — and
//! everything derived from them: statistics, cost estimates, plan
//! choices, logical page-touch charges — are identical across backends
//! for identical contents. Physical I/O (pool hits and misses, evictions,
//! WAL activity) is reported separately in [`IoStats`].
//!
//! Readers go through [`TableCursor`] (chunks of a row range) and
//! [`RowFetcher`] (rows at positions), which both answer with one view:
//! table-width typed [`Column`]s and the indices of the rows read. They
//! name the columns they read with `.project(cols)` — a [`ColumnSet`];
//! *columns outside the projection are unspecified (empty on paged, the
//! stored values on mem) and must not be read*: the paged backend parses
//! each page once and decodes only the projected columns, each from its
//! own block, into scratch columns the reader reuses; the mem backend
//! hands out its stored columns, zero-copy, and ignores the set.
//!
//! [`Column`]: pop_types::column::Column
//!
//! Temp MVs are the mechanism POP uses to carry intermediate results across
//! a re-optimization (§2.3 of the paper): when a CHECK fails, completed
//! materializations are promoted to temp MVs whose catalog statistics hold
//! the *actual* cardinality, and the re-optimization is free to scan them
//! instead of recomputing the corresponding subplan. The runtime removes
//! them after the query completes. On the paged backend, temp MVs spill to
//! pages and their files are unlinked when the MV is dropped.

mod backend;
mod buffer;
mod catalog;
mod cursor;
mod index;
mod mem;
mod page;
mod paged;
mod pager;
mod table;
mod tempmv;
mod wal;

pub use backend::{
    StorageBackend, StorageConfig, StorageEnv, StorageKind, DEFAULT_BUFFER_POOL_BYTES,
};
pub use buffer::{BufferPool, IoStats};
pub use catalog::{Catalog, RowWriter, BULK_LOAD_CHUNK};
pub use cursor::{CursorChunk, FetchedRows, RowFetcher, TableCursor};
pub use index::{Index, IndexKind};
pub use mem::MemBackend;
pub use page::{ColumnSet, PageLayout, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE};
pub use paged::PagedBackend;
pub use table::{Table, TableId};
pub use tempmv::{Lineage, TempMv};
pub use wal::{Wal, WalRecord};

/// `rows`, all of one width, as columns through the row adapter's
/// converter: the unit tests' way into the column API.
#[cfg(test)]
pub(crate) fn columns_of(rows: &[pop_types::Row]) -> Vec<pop_types::column::Column> {
    let (width, mut cols) = (rows.first().map_or(0, Vec::len), Vec::new());
    table::rows_to_columns("t", width, rows.to_vec(), &mut cols, 0).expect("rows of one width");
    cols
}
