//! Tables: schema + a pluggable [`StorageBackend`].
//!
//! Rows are append-only and positions are stable, so scans opened over a
//! fixed row range see "repeatable read within a query" on either
//! backend: the mem backend hands out immutable `Arc` snapshots of its
//! columns, the paged backend reads pages whose committed prefix never
//! changes. This
//! is the behaviour the POP driver relies on when it re-runs parts of a
//! query after re-optimization.

use crate::backend::StorageBackend;
use crate::cursor::{RowFetcher, TableCursor};
use crate::mem::MemBackend;
use crate::page::PageLayout;
use pop_types::column::{Cell, Column};
use pop_types::hash::short_key;
use pop_types::{PopError, PopResult, Row, Schema, Value};
use std::sync::Arc;

/// Catalog-assigned table identifier (also the `table` part of a `Rid`).
pub type TableId = u32;

/// Rows per cursor chunk of [`Table::snapshot`].
const SNAPSHOT_CHUNK: usize = 4096;

/// Slots of [`SnapshotStrs`].
const SNAPSHOT_STRS: usize = 16;

/// The short strings a snapshot built last for one column, each in the
/// slot its [`short_key`] picks.
#[derive(Debug, Clone)]
struct SnapshotStrs([(u128, Value); SNAPSHOT_STRS]);

impl Default for SnapshotStrs {
    fn default() -> Self {
        // A length byte of 255 is no string's key.
        SnapshotStrs(std::array::from_fn(|_| (u128::MAX, Value::Null)))
    }
}

impl SnapshotStrs {
    /// `cell` as an owned value, sharing the string of an equal short
    /// value built before.
    fn value(&mut self, cell: Cell<'_>) -> Value {
        let Cell::Str(s) = cell else {
            return cell.to_value();
        };
        let Some((key, slot)) = short_key(s, SNAPSHOT_STRS) else {
            return Value::str(s);
        };
        let (kept, value) = &mut self.0[slot];
        if *kept != key {
            (*kept, *value) = (key, Value::str(s));
        }
        value.clone()
    }
}

/// Move `rows` into `width` columns `cols` of table `name`, refilling them
/// from empty (a column keeps its vector for values of its type); `cap`
/// sizes a vector the first value of its type creates. Returns the row
/// count, or an error at the first row of another width.
pub(crate) fn rows_to_columns(
    name: &str,
    width: usize,
    rows: impl IntoIterator<Item = Row>,
    cols: &mut Vec<Column>,
    cap: usize,
) -> PopResult<usize> {
    cols.resize_with(width, Column::default);
    cols.iter_mut().for_each(Column::clear);
    let mut n = 0;
    for row in rows {
        if row.len() != width {
            return Err(PopError::Execution(format!(
                "insert into {name}: row has {} values, schema has {width}",
                row.len(),
            )));
        }
        for (c, v) in cols.iter_mut().zip(row) {
            c.push_value(v, cap);
        }
        n += 1;
    }
    Ok(n)
}

/// A table: identity, schema, and the backend holding its rows.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    name: String,
    schema: Schema,
    backend: Arc<dyn StorageBackend>,
}

impl Table {
    /// Create an in-memory table with the given rows (the default page
    /// geometry provides the virtual page map).
    ///
    /// The rows need not match the schema's width (a test builds a temp
    /// MV of 7 rows without values), only each other's. Panics if they do
    /// not, or if a row exceeds the default page size — construct through
    /// a catalog with a larger [`PageLayout`] for such rows.
    pub fn new(id: TableId, name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> Self {
        let name = name.into();
        let backend = MemBackend::new(PageLayout::default());
        let (width, n, mut cols) = (rows.first().map_or(0, Vec::len), rows.len(), Vec::new());
        rows_to_columns(&name, width, rows, &mut cols, n)
            .and_then(|_| backend.append(&cols, n))
            .expect("rows of one width, each within the default page size");
        Table::with_backend(id, name, schema, Arc::new(backend))
    }

    /// Create a table over an existing backend.
    pub fn with_backend(
        id: TableId,
        name: impl Into<String>,
        schema: Schema,
        backend: Arc<dyn StorageBackend>,
    ) -> Self {
        Table {
            id,
            name: name.into(),
            schema,
            backend,
        }
    }

    /// Catalog id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The storage backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// True when rows live on pages (behind the buffer pool) rather than
    /// in memory.
    pub fn is_paged(&self) -> bool {
        self.backend.is_paged()
    }

    /// Data pages currently holding the table (virtual for the mem
    /// backend — same packing rule, same count).
    pub fn page_count(&self) -> u64 {
        self.backend.page_count()
    }

    /// Every row, every column, as owned rows built over a cursor — a
    /// convenience for tests and small reports: tables are stored as
    /// columns, and readers go through [`Table::cursor`] /
    /// [`Table::fetcher`].
    ///
    /// Panics if a page read fails — callers that can surface storage
    /// errors use the cursor instead.
    pub fn snapshot(&self) -> Vec<Row> {
        let mut cursor = self
            .cursor(0, u64::MAX)
            .expect("storage error while opening a table snapshot");
        let mut rows = Vec::with_capacity(self.row_count());
        // Per column, the short strings built last: a literal repeated down
        // a column shares one `Arc<str>` instead of taking one per row.
        let mut recent = Vec::new();
        while let Some(chunk) = cursor
            .next_chunk(SNAPSHOT_CHUNK)
            .expect("storage error while materializing a table snapshot")
        {
            recent.resize_with(chunk.cols.len(), SnapshotStrs::default);
            rows.extend(chunk.rows.map(|i| {
                let cells = chunk.cols.iter().zip(&mut recent);
                cells
                    .map(|(c, strs)| strs.value(c.cell(i)))
                    .collect::<Row>()
            }));
        }
        rows
    }

    /// A sequential cursor over rows `[lo, hi)` (clamped).
    pub fn cursor(&self, lo: u64, hi: u64) -> PopResult<TableCursor> {
        TableCursor::over(Arc::clone(&self.backend), lo, hi)
    }

    /// A positional row fetcher over the current rows.
    pub fn fetcher(&self) -> RowFetcher {
        RowFetcher::over(Arc::clone(&self.backend))
    }

    /// Current row count.
    pub fn row_count(&self) -> usize {
        self.backend.row_count() as usize
    }

    /// Append rows — the row adapter over [`Table::append`]. Returns the
    /// starting row position of the appended batch; a row that does not
    /// match the schema rejects the whole batch.
    pub fn insert(&self, new_rows: Vec<Row>) -> PopResult<u64> {
        let (n, mut cols) = (new_rows.len(), Vec::new());
        rows_to_columns(&self.name, self.schema.len(), new_rows, &mut cols, n)?;
        self.append(&cols, n)
    }

    /// Append the `rows` rows held in `cols`, one column per schema column
    /// — the one way into a table. Returns the starting row position of
    /// the appended batch. On the paged backend the batch is WAL-logged
    /// first.
    pub fn append(&self, cols: &[Column], rows: usize) -> PopResult<u64> {
        self.check_width(cols)?;
        self.backend.append(cols, rows)
    }

    /// [`Table::append`] of columns the caller gives up, which a backend
    /// that stores columns as they are keeps without a copy.
    pub fn append_owned(&self, cols: Vec<Column>, rows: usize) -> PopResult<u64> {
        self.check_width(&cols)?;
        self.backend.append_owned(cols, rows)
    }

    fn check_width(&self, cols: &[Column]) -> PopResult<()> {
        if cols.len() != self.schema.len() {
            return Err(PopError::Execution(format!(
                "insert into {}: batch has {} columns, schema has {}",
                self.name,
                cols.len(),
                self.schema.len()
            )));
        }
        Ok(())
    }

    /// Make the table durable (paged backend: sync + meta + WAL
    /// truncation; mem backend: no-op).
    pub fn checkpoint(&self) -> PopResult<()> {
        self.backend.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{DataType, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        Table::new(
            0,
            "t",
            schema,
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
            ],
        )
    }

    #[test]
    fn snapshot_isolated_from_insert() {
        let t = table();
        let snap = t.snapshot();
        t.insert(vec![vec![Value::Int(3), Value::str("z")]])
            .unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn insert_returns_start_position() {
        let t = table();
        let start = t
            .insert(vec![vec![Value::Int(3), Value::str("z")]])
            .unwrap();
        assert_eq!(start, 2);
    }

    #[test]
    fn insert_wrong_arity_rejected() {
        let t = table();
        assert!(t.insert(vec![vec![Value::Int(3)]]).is_err());
        let mut one = Column::default();
        one.push_value(Value::Int(3), 1);
        let err = t.append(&[one], 1).unwrap_err();
        assert!(err.to_string().contains("batch has 1 columns"), "{err}");
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn mem_table_reports_virtual_pages() {
        let t = table();
        assert!(!t.is_paged());
        assert_eq!(t.page_count(), 1);
        let mut c = t.cursor(0, u64::MAX).unwrap();
        let ch = c.next_chunk(10).unwrap().unwrap();
        assert_eq!(ch.rows.len(), 2);
        assert_eq!(ch.new_pages, 1);
    }

    #[test]
    fn snapshot_builds_the_rows() {
        let t = table();
        assert_eq!(
            t.snapshot(),
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
            ]
        );
    }
}
