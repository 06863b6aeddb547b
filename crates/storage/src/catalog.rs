//! The catalog: name → table resolution, index registry, temp MVs, and
//! the shared [`StorageEnv`] (backend choice, buffer pool, I/O counters).

use crate::backend::{StorageBackend, StorageConfig, StorageEnv, StorageKind};
use crate::buffer::IoStats;
use crate::mem::MemBackend;
use crate::paged::PagedBackend;
use crate::table::rows_to_columns;
use crate::{Index, IndexKind, Table, TableId, TempMv};
use parking_lot::{Mutex, RwLock};
use pop_guard::Governor;
use pop_types::column::Column;
use pop_types::{PopError, PopResult, Row, Schema};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

#[derive(Default)]
struct Inner {
    tables: HashMap<String, Arc<Table>>,
    by_id: HashMap<TableId, Arc<Table>>,
    indexes: HashMap<TableId, Vec<Arc<Index>>>,
    /// Temp MVs by the mask of the query tables they join.
    temp_mvs: BTreeMap<u64, TempMv>,
    /// Tables of temp MVs replaced under their table set since the last
    /// [`Catalog::clear_temp_mvs`]: a plan built before the replacement may
    /// still scan one by name, so they stay registered until then.
    superseded_mvs: Vec<Arc<Table>>,
    /// Names of base tables being created or opened: reserved under the
    /// same write lock that checks `tables`, so no second create or open
    /// of a name starts while the first is loading.
    loading: HashSet<String>,
    next_id: TableId,
}

/// A name in [`Inner::loading`]: released on drop, unless the table was
/// registered under it.
struct Reservation<'a> {
    catalog: &'a Catalog,
    name: String,
    id: TableId,
}

impl Reservation<'_> {
    /// Register `table` under the reserved name, ending the reservation.
    fn register(self, table: &Arc<Table>) {
        let mut inner = self.catalog.inner.write();
        inner.loading.remove(&self.name);
        inner.tables.insert(self.name.clone(), Arc::clone(table));
        inner.by_id.insert(self.id, Arc::clone(table));
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.catalog.inner.write().loading.remove(&self.name);
    }
}

/// Writes one generated row into the chunk columns of
/// [`Catalog::generate_table`]: one call per value, in schema order, each
/// a typed write into its column (no `Value`, no row).
#[derive(Debug)]
pub struct RowWriter<'a> {
    cols: &'a mut [Column],
    /// The row's index in the chunk.
    row: usize,
    /// Values written so far.
    col: usize,
    /// Capacity of a column vector the first chunk creates.
    cap: usize,
}

impl RowWriter<'_> {
    /// Write the next value with `put` (a value past the schema's width is
    /// counted and dropped; the load then fails).
    fn put(&mut self, put: impl FnOnce(&mut Column, usize, usize)) -> &mut Self {
        if let Some(c) = self.cols.get_mut(self.col) {
            put(c, self.row, self.cap);
        }
        self.col += 1;
        self
    }

    /// Write an `Int`.
    pub fn int(&mut self, x: i64) -> &mut Self {
        self.put(|c, i, cap| c.put_int(i, x, cap))
    }

    /// Write a `Float`.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.put(|c, i, cap| c.put_float(i, x, cap))
    }

    /// Write a `Date`.
    pub fn date(&mut self, x: i32) -> &mut Self {
        self.put(|c, i, cap| c.put_date(i, x, cap))
    }

    /// Write a `Bool`.
    pub fn bool(&mut self, x: bool) -> &mut Self {
        self.put(|c, i, cap| c.put_bool(i, x, cap))
    }

    /// Write a string: its bytes are copied onto the column's buffer.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.put(|c, i, cap| c.put_str(i, s, cap))
    }

    /// Write the string `args` formats, straight into the column's buffer.
    pub fn fmt(&mut self, args: std::fmt::Arguments<'_>) -> &mut Self {
        self.put(|c, i, cap| c.put_fmt(i, args, cap))
    }
}

/// Most rows in one chunk of [`Catalog::create_table_from_chunks`]: each
/// chunk is one WAL record and one append, so large loads stream to pages
/// with bounded WAL-record size instead of logging one giant batch.
pub const BULK_LOAD_CHUNK: usize = 4096;

/// The shared catalog.
///
/// Thread-safe (`parking_lot::RwLock`) so the runtime can register and
/// clean up temp MVs while the optimizer holds a reference. Cloning is
/// cheap (`Arc` inside). All tables created through one catalog share its
/// [`StorageEnv`] — one backend kind, one buffer pool, one I/O ledger.
#[derive(Clone)]
pub struct Catalog {
    inner: Arc<RwLock<Inner>>,
    /// Serializes [`Catalog::refresh_indexes`] calls, so a rebuild never
    /// replaces one built from more rows; readers never take it.
    refresh: Arc<Mutex<()>>,
    env: Arc<StorageEnv>,
}

impl Default for Catalog {
    /// An in-memory catalog ([`StorageConfig::default`]).
    fn default() -> Self {
        Catalog::with_storage(StorageConfig::default())
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("storage", &self.env.config().kind)
            .field("tables", &self.table_names())
            .field("temp_mvs", &self.temp_mv_count())
            .finish_non_exhaustive()
    }
}

impl Catalog {
    /// Empty in-memory catalog (see [`Catalog::default`]).
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Empty catalog over the given storage configuration. A page size
    /// outside [`crate::MIN_PAGE_SIZE`]..=[`crate::MAX_PAGE_SIZE`] is a
    /// typed error at the first table create or open.
    pub fn with_storage(config: StorageConfig) -> Self {
        Catalog {
            inner: Arc::new(RwLock::new(Inner::default())),
            refresh: Arc::default(),
            env: Arc::new(StorageEnv::new(config)),
        }
    }

    /// The storage environment shared by this catalog's tables.
    pub fn storage(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// Physical I/O counters since the catalog was created (pool hits and
    /// misses, evictions, WAL records). Backend-dependent by design —
    /// never part of result or plan equivalence.
    pub fn io_stats(&self) -> IoStats {
        self.env.io_stats()
    }

    /// Attach the running query's governor so buffer-pool frames draw
    /// from its resident-byte budget.
    pub fn attach_governor(&self, gov: Governor) -> PopResult<()> {
        self.env.attach_governor(gov)
    }

    /// Detach the governor, releasing all page reservations.
    pub fn detach_governor(&self) {
        self.env.detach_governor();
    }

    /// Build a backend of the configured kind for table `name`.
    fn new_backend(&self, name: &str, temporary: bool) -> PopResult<Arc<dyn StorageBackend>> {
        Ok(match self.env.config().kind {
            StorageKind::Mem => Arc::new(MemBackend::new(self.env.layout())),
            StorageKind::Paged => Arc::new(PagedBackend::create(
                Arc::clone(&self.env),
                name,
                temporary,
            )?),
        })
    }

    /// Hold `name` for a base table being created or opened, and pick its
    /// id; fails if the storage configuration is refused
    /// (`StorageConfig::check`), or a table of that name exists or is
    /// being loaded.
    fn reserve(&self, name: &str) -> PopResult<Reservation<'_>> {
        self.env.config().check()?;
        let mut inner = self.inner.write();
        if inner.tables.contains_key(name) || inner.loading.contains(name) {
            return Err(PopError::Catalog(format!("table {name} already exists")));
        }
        inner.loading.insert(name.to_string());
        let id = inner.next_id;
        inner.next_id += 1;
        Ok(Reservation {
            catalog: self,
            name: name.to_string(),
            id,
        })
    }

    /// Create a base table from typed column chunks and return it — the
    /// one load path under [`Catalog::create_table`] and
    /// [`Catalog::generate_table`]. `next_chunk` refills the columns it is
    /// handed (one per schema column, as the previous chunk left them)
    /// with the next rows, at most [`BULK_LOAD_CHUNK`] of them, and
    /// returns how many; 0 ends the load. Each chunk is one append
    /// (chunked appends produce the same page map as one append — packing
    /// is append-associative); on the paged backend each chunk is
    /// WAL-logged and the load ends with a checkpoint.
    ///
    /// The name is reserved before anything is written, so no other
    /// create or open of it runs meanwhile — not even one issued by
    /// `next_chunk`. If the load fails, the name is released and the
    /// table's files removed.
    pub fn create_table_from_chunks(
        &self,
        name: impl Into<String>,
        schema: Schema,
        mut next_chunk: impl FnMut(&mut Vec<Column>) -> PopResult<usize>,
    ) -> PopResult<Arc<Table>> {
        let name = name.into();
        let reservation = self.reserve(&name)?;
        let loaded = self.new_backend(&name, false).and_then(|backend| {
            let table = Arc::new(Table::with_backend(reservation.id, &name, schema, backend));
            let mut chunk = Vec::new();
            loop {
                let n = next_chunk(&mut chunk)?;
                if n == 0 {
                    break;
                }
                if n > BULK_LOAD_CHUNK {
                    return Err(PopError::Execution(format!(
                        "load of {name}: a chunk of {n} rows exceeds {BULK_LOAD_CHUNK}"
                    )));
                }
                table.append(&chunk, n)?;
            }
            table.checkpoint()?;
            Ok(table)
        });
        match loaded {
            Ok(table) => {
                reservation.register(&table);
                Ok(table)
            }
            Err(e) => {
                // Still reserved, so no new table of this name owns the
                // files yet.
                if self.env.config().kind == StorageKind::Paged {
                    PagedBackend::remove_files(&self.env, &name);
                }
                Err(e)
            }
        }
    }

    /// Create a base table from rows and return it — the row adapter over
    /// [`Catalog::create_table_from_chunks`]: the rows are moved into
    /// columns [`BULK_LOAD_CHUNK`] at a time, so no more than a chunk of
    /// them is held as rows.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = Row>,
    ) -> PopResult<Arc<Table>> {
        let name = name.into();
        let width = schema.len();
        let mut rows = rows.into_iter();
        let cap = rows.size_hint().0.clamp(1, BULK_LOAD_CHUNK);
        let table = name.clone();
        self.create_table_from_chunks(name, schema, |chunk| {
            rows_to_columns(
                &table,
                width,
                rows.by_ref().take(BULK_LOAD_CHUNK),
                chunk,
                cap,
            )
        })
    }

    /// Create a base table of `rows` generated rows and return it: `row(i,
    /// w)` writes row `i`'s values through `w`, straight into the typed
    /// columns of the chunk being filled. Rows are generated in order,
    /// [`BULK_LOAD_CHUNK`] at a time into the same columns, so a load
    /// allocates per column and per string, never per row.
    pub fn generate_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        rows: usize,
        mut row: impl FnMut(usize, &mut RowWriter<'_>),
    ) -> PopResult<Arc<Table>> {
        let name = name.into();
        let width = schema.len();
        let mut next = 0;
        let table = name.clone();
        self.create_table_from_chunks(name, schema, |cols| {
            let end = rows.min(next + BULK_LOAD_CHUNK);
            let n = end - next;
            cols.resize_with(width, Column::default);
            cols.iter_mut().for_each(Column::begin_refill);
            for (k, i) in (next..end).enumerate() {
                let mut w = RowWriter {
                    cols,
                    row: k,
                    col: 0,
                    cap: n,
                };
                row(i, &mut w);
                if w.col != width {
                    return Err(PopError::Execution(format!(
                        "generate {table}: row {i} has {} values, schema has {width}",
                        w.col
                    )));
                }
            }
            for c in cols.iter_mut() {
                c.truncate(n);
            }
            next = end;
            Ok(n)
        })
    }

    /// Create a *temporary* table (temp-MV spill target) holding the
    /// `rows` rows of `cols`, which it takes: the mem backend keeps them as
    /// its columns; on the paged backend they are written to pages without
    /// a WAL, and the files are unlinked when the table is dropped.
    pub fn create_temp_table(
        &self,
        id: TableId,
        name: impl Into<String>,
        schema: Schema,
        cols: Vec<Column>,
        rows: usize,
    ) -> PopResult<Arc<Table>> {
        self.env.config().check()?;
        let name = name.into();
        let backend = self.new_backend(&name, true)?;
        let table = Arc::new(Table::with_backend(id, name, schema, backend));
        if rows > 0 {
            table.append_owned(cols, rows)?;
        }
        Ok(table)
    }

    /// Reopen a table whose files already exist in the storage directory
    /// (paged backend only), running WAL redo recovery. The recovered
    /// table is registered under `name`. A name with no data file is
    /// [`PopError::UnknownTable`], and creates no file.
    pub fn open_table(&self, name: &str, schema: Schema) -> PopResult<Arc<Table>> {
        if self.env.config().kind != StorageKind::Paged {
            return Err(PopError::Catalog(
                "open_table requires the paged storage backend".into(),
            ));
        }
        let reservation = self.reserve(name)?;
        let backend = Arc::new(PagedBackend::open(&self.env, name)?);
        let table = Arc::new(Table::with_backend(reservation.id, name, schema, backend));
        reservation.register(&table);
        Ok(table)
    }

    /// Checkpoint every registered table (paged backend: sync + WAL
    /// truncation; mem backend: no-op).
    pub fn checkpoint(&self) -> PopResult<()> {
        let tables: Vec<Arc<Table>> = self.inner.read().tables.values().cloned().collect();
        for t in tables {
            t.checkpoint()?;
        }
        Ok(())
    }

    /// Drop a table (base or temp) by name.
    pub fn drop_table(&self, name: &str) -> PopResult<()> {
        let mut inner = self.inner.write();
        let t = inner
            .tables
            .remove(name)
            .ok_or_else(|| PopError::UnknownTable(name.to_string()))?;
        inner.by_id.remove(&t.id());
        inner.indexes.remove(&t.id());
        Ok(())
    }

    /// Resolve a table by name.
    pub fn table(&self, name: &str) -> PopResult<Arc<Table>> {
        self.inner
            .read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| PopError::UnknownTable(name.to_string()))
    }

    /// Call `f` with table `name` and its indexes, under one read lock of
    /// the catalog and without copying either (keep `f` short: writers
    /// wait for it).
    pub fn with_table<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Arc<Table>, &[Arc<Index>]) -> R,
    ) -> PopResult<R> {
        let inner = self.inner.read();
        let table = inner
            .tables
            .get(name)
            .ok_or_else(|| PopError::UnknownTable(name.to_string()))?;
        Ok(f(
            table,
            inner.indexes.get(&table.id()).map_or(&[], Vec::as_slice),
        ))
    }

    /// Resolve a table by id.
    pub fn table_by_id(&self, id: TableId) -> PopResult<Arc<Table>> {
        self.inner
            .read()
            .by_id
            .get(&id)
            .cloned()
            .ok_or_else(|| PopError::UnknownTable(format!("#{id}")))
    }

    /// Names of all tables (sorted, for determinism).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Build an index on `table.column`: on either backend, in-memory
    /// sorted runs over the rows the table holds at creation time (built
    /// by reading just the indexed column). After inserting rows, call
    /// [`Catalog::refresh_indexes`] so the index sees the new data. The
    /// runs hold `u32` row positions, so a table of more than `u32::MAX`
    /// rows is a typed error.
    pub fn create_index(&self, table: &str, column: &str, kind: IndexKind) -> PopResult<()> {
        let t = self.table(table)?;
        let col = t
            .schema()
            .index_of(column)
            .ok_or_else(|| PopError::UnknownColumn(format!("{table}.{column}")))?;
        let idx = Arc::new(Index::build(kind, col, &t)?);
        self.inner
            .write()
            .indexes
            .entry(t.id())
            .or_default()
            .push(idx);
        Ok(())
    }

    /// Rebuild every index of `table` against its current rows (after
    /// inserts made existing indexes stale).
    ///
    /// The new indexes are built outside the catalog lock, so readers
    /// (`table`, `find_index`) are not blocked by the rebuild; each is
    /// swapped in for the index it rebuilt, unless that one was removed
    /// meanwhile. Refreshes run one at a time: a later one reads the
    /// indexes an earlier one swapped in and rebuilds them from at least
    /// as many rows, so it never loses rows to a slower, staler build.
    pub fn refresh_indexes(&self, table: &str) -> PopResult<()> {
        let _one_at_a_time = self.refresh.lock();
        let t = self.table(table)?;
        let stale = self.indexes(t.id());
        let mut rebuilt = Vec::with_capacity(stale.len());
        for old in stale {
            let new = Index::build(old.kind(), old.column(), &t)?;
            rebuilt.push((old, Arc::new(new)));
        }
        let mut inner = self.inner.write();
        if let Some(list) = inner.indexes.get_mut(&t.id()) {
            for (old, new) in rebuilt {
                if let Some(slot) = list.iter_mut().find(|idx| Arc::ptr_eq(idx, &old)) {
                    *slot = new;
                }
            }
        }
        Ok(())
    }

    /// All indexes on a table.
    pub fn indexes(&self, table_id: TableId) -> Vec<Arc<Index>> {
        self.inner
            .read()
            .indexes
            .get(&table_id)
            .cloned()
            .unwrap_or_default()
    }

    /// Find an index on `column` of `table_id`, preferring `Sorted` when
    /// `need_range` is set.
    pub fn find_index(
        &self,
        table_id: TableId,
        column: usize,
        need_range: bool,
    ) -> Option<Arc<Index>> {
        let inner = self.inner.read();
        let list = inner.indexes.get(&table_id)?;
        let mut best: Option<Arc<Index>> = None;
        for idx in list {
            if idx.column() != column {
                continue;
            }
            if need_range && idx.kind() != IndexKind::Sorted {
                continue;
            }
            match (&best, idx.kind()) {
                (None, _) => best = Some(idx.clone()),
                // Prefer hash for pure equality probes.
                (Some(b), IndexKind::Hash) if !need_range && b.kind() == IndexKind::Sorted => {
                    best = Some(idx.clone());
                }
                _ => {}
            }
        }
        best
    }

    /// Register a temp MV (replacing any prior MV over the same table set —
    /// the newest materialization of a subplan wins).
    pub fn register_temp_mv(&self, mv: TempMv) {
        let mut inner = self.inner.write();
        let name = mv.table.name().to_string();
        let id = mv.table.id();
        inner.tables.insert(name, mv.table.clone());
        inner.by_id.insert(id, mv.table.clone());
        if let Some(old) = inner.temp_mvs.insert(mv.tables, mv) {
            inner.superseded_mvs.push(old.table);
        }
    }

    /// Allocate a fresh table id for a temp MV table.
    pub fn allocate_temp_id(&self) -> TableId {
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        id
    }

    /// Look up the temp MV over the query tables of mask `tables`.
    pub fn temp_mv(&self, tables: u64) -> Option<TempMv> {
        self.inner.read().temp_mvs.get(&tables).cloned()
    }

    /// All currently registered temp MVs, by ascending table-set mask.
    pub fn temp_mvs(&self) -> Vec<TempMv> {
        self.inner.read().temp_mvs.values().cloned().collect()
    }

    /// Remove every temp MV: the paper's post-query cleanup step ("the
    /// runtime system has to remember to remove any of these temporarily
    /// materialized views after completing query execution", §2.3). On
    /// the paged backend, dropping the last reference to an MV table also
    /// unlinks its backing files.
    pub fn clear_temp_mvs(&self) {
        let mut inner = self.inner.write();
        let mut tables = std::mem::take(&mut inner.superseded_mvs);
        tables.extend(
            std::mem::take(&mut inner.temp_mvs)
                .into_values()
                .map(|mv| mv.table),
        );
        for table in tables {
            inner.tables.remove(table.name());
            inner.by_id.remove(&table.id());
            inner.indexes.remove(&table.id());
        }
    }

    /// Number of registered temp MVs.
    pub fn temp_mv_count(&self) -> usize {
        self.inner.read().temp_mvs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use pop_types::{ColId, DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)])
    }

    #[test]
    fn create_and_resolve() {
        let cat = Catalog::new();
        cat.create_table("t", schema(), vec![vec![Value::Int(1), Value::str("x")]])
            .unwrap();
        let t = cat.table("t").unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(cat.table_by_id(t.id()).unwrap().name(), "t");
        assert!(cat.table("missing").is_err());
    }

    #[test]
    fn duplicate_name_rejected() {
        let cat = Catalog::new();
        cat.create_table("t", schema(), vec![]).unwrap();
        assert!(cat.create_table("t", schema(), vec![]).is_err());
    }

    #[test]
    fn drop_table() {
        let cat = Catalog::new();
        cat.create_table("t", schema(), vec![]).unwrap();
        cat.drop_table("t").unwrap();
        assert!(cat.table("t").is_err());
        assert!(cat.drop_table("t").is_err());
    }

    #[test]
    fn index_lifecycle() {
        let cat = Catalog::new();
        let t = cat
            .create_table("t", schema(), vec![vec![Value::Int(1), Value::str("x")]])
            .unwrap();
        cat.create_index("t", "a", IndexKind::Hash).unwrap();
        cat.create_index("t", "a", IndexKind::Sorted).unwrap();
        assert_eq!(cat.indexes(t.id()).len(), 2);
        let (id, cols) = cat
            .with_table("t", |t, idxs| {
                (t.id(), idxs.iter().map(|i| i.column()).collect::<Vec<_>>())
            })
            .unwrap();
        assert_eq!((id, cols), (t.id(), vec![0, 0]));
        assert!(cat.with_table("missing", |_, _| ()).is_err());
        // Equality lookup prefers hash.
        let idx = cat.find_index(t.id(), 0, false).unwrap();
        assert_eq!(idx.kind(), IndexKind::Hash);
        // Range lookup requires sorted.
        let idx = cat.find_index(t.id(), 0, true).unwrap();
        assert_eq!(idx.kind(), IndexKind::Sorted);
        // No index on column 1.
        assert!(cat.find_index(t.id(), 1, false).is_none());
        // Unknown column errors.
        assert!(cat.create_index("t", "zz", IndexKind::Hash).is_err());
    }

    /// One index contract on both backends: a `Hash` and a `Sorted`
    /// index see the rows of their build, not a later insert's, until
    /// `refresh_indexes` rebuilds them.
    #[test]
    fn refresh_indexes_sees_new_rows() {
        let paged = StorageConfig {
            page_size: 512,
            ..StorageConfig::paged()
        };
        for config in [StorageConfig::default(), paged] {
            let cat = Catalog::with_storage(config.clone());
            let t = cat
                .create_table("t", schema(), vec![vec![Value::Int(1), Value::str("x")]])
                .unwrap();
            cat.create_index("t", "a", IndexKind::Hash).unwrap();
            cat.create_index("t", "b", IndexKind::Sorted).unwrap();
            t.insert(vec![vec![Value::Int(2), Value::str("y")]])
                .unwrap();
            let (y, from_a) = (Value::str("y"), Some(&Value::str("a")));
            for current in [false, true] {
                if current {
                    cat.refresh_indexes("t").unwrap();
                }
                let hash = cat.find_index(t.id(), 0, false).unwrap();
                let sorted = cat.find_index(t.id(), 1, true).unwrap();
                let (probe, range) = if current {
                    (vec![1], vec![0, 1])
                } else {
                    (vec![], vec![0])
                };
                assert_eq!(hash.probe(&Value::Int(2)), probe, "{config:?}");
                assert_eq!(sorted.probe(&y), probe, "{config:?}");
                assert_eq!(sorted.range(from_a, None), Some(range), "{config:?}");
                assert_eq!(hash.range(from_a, None), None, "{config:?}");
            }
            assert!(cat.refresh_indexes("missing").is_err());
        }
    }

    #[test]
    fn concurrent_refreshes_keep_every_row() {
        // Two threads each append a row, refresh and probe for it, over and
        // over, so appends and refreshes interleave in every order: once a
        // refresh returns, its caller's row stays indexed.
        let cat = Catalog::new();
        let t = cat.create_table("t", schema(), vec![]).unwrap();
        cat.create_index("t", "a", IndexKind::Hash).unwrap();
        std::thread::scope(|s| {
            for thread in 0..2 {
                let (cat, t) = (&cat, &t);
                s.spawn(move || {
                    for i in 0..300 {
                        let key = Value::Int(2 * i + thread);
                        t.insert(vec![vec![key.clone(), Value::str("x")]]).unwrap();
                        cat.refresh_indexes("t").unwrap();
                        let idx = cat.find_index(t.id(), 0, false).unwrap();
                        assert_eq!(idx.probe(&key).len(), 1, "{key:?}");
                    }
                });
            }
        });
        let idx = cat.find_index(t.id(), 0, false).unwrap();
        assert_eq!(idx.entries(), 600);
    }

    #[test]
    fn temp_mv_registration_and_cleanup() {
        let cat = Catalog::new();
        let id = cat.allocate_temp_id();
        let table = Arc::new(Table::new(id, "__mv_0", schema(), vec![]));
        cat.register_temp_mv(TempMv {
            table,
            tables: 0b101,
            layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            actual_card: 0,
            lineage: None,
        });
        assert!(cat.temp_mv(0b101).is_some());
        assert!(cat.temp_mv(0b001).is_none());
        assert!(cat.table("__mv_0").is_ok());
        assert_eq!(cat.temp_mv_count(), 1);
        cat.clear_temp_mvs();
        assert_eq!(cat.temp_mv_count(), 0);
        assert!(cat.table("__mv_0").is_err());
    }

    #[test]
    fn temp_mv_over_the_same_tables_replaces() {
        let cat = Catalog::new();
        for n in 0..2 {
            let id = cat.allocate_temp_id();
            let table = Arc::new(Table::new(id, format!("__mv_{n}"), schema(), vec![]));
            cat.register_temp_mv(TempMv {
                table,
                tables: 1,
                layout: vec![],
                actual_card: n,
                lineage: None,
            });
        }
        assert_eq!(cat.temp_mv_count(), 1);
        assert_eq!(cat.temp_mv(1).unwrap().actual_card, 1);
        // The replaced MV's table serves plans built before the
        // replacement, and goes with the rest at cleanup instead of
        // staying registered by id for good.
        let ids: Vec<TableId> = ["__mv_0", "__mv_1"]
            .map(|name| cat.table(name).expect("both stay resolvable").id())
            .to_vec();
        cat.clear_temp_mvs();
        for (name, id) in ["__mv_0", "__mv_1"].iter().zip(ids) {
            assert!(cat.table(name).is_err(), "{name} still registered");
            assert!(
                cat.table_by_id(id).is_err(),
                "{name} still registered by id"
            );
        }
    }

    #[test]
    fn paged_catalog_persists_and_reopens_tables() {
        let dir = std::env::temp_dir().join(format!("pop-cat-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StorageConfig {
            page_size: 512,
            dir: Some(dir.clone()),
            ..StorageConfig::paged()
        };
        {
            let cat = Catalog::with_storage(config.clone());
            let t = cat
                .create_table(
                    "t",
                    schema(),
                    (0..100).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]),
                )
                .unwrap();
            assert!(t.is_paged());
            assert!(t.page_count() > 1, "100 rows exceed one 512-byte page");
        }
        let cat = Catalog::with_storage(config);
        let t = cat.open_table("t", schema()).unwrap();
        assert_eq!(t.row_count(), 100);
        assert_eq!(t.snapshot()[42][0], Value::Int(42));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_tables_spill_to_pages_and_unlink_on_drop() {
        let cat = Catalog::with_storage(StorageConfig {
            page_size: 512,
            ..StorageConfig::paged()
        });
        let id = cat.allocate_temp_id();
        let table = cat
            .create_temp_table(
                id,
                "__mv_spill",
                schema(),
                columns_of(&[vec![Value::Int(7), Value::str("m")]]),
                1,
            )
            .unwrap();
        assert!(table.is_paged());
        let dir = cat.storage().ensure_dir().unwrap();
        assert!(dir.join("__mv_spill.dat").exists());
        cat.register_temp_mv(TempMv {
            table,
            tables: 1,
            layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            actual_card: 1,
            lineage: None,
        });
        cat.clear_temp_mvs();
        assert!(
            !dir.join("__mv_spill.dat").exists(),
            "temp MV files unlink on drop"
        );
    }

    #[test]
    fn paged_temp_mv_writes_no_wal() {
        let cat = Catalog::with_storage(StorageConfig {
            page_size: 512,
            ..StorageConfig::paged()
        });
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int(i), Value::str(format!("mv row {i}"))])
            .collect();
        let before = cat.io_stats();
        let id = cat.allocate_temp_id();
        let table = cat
            .create_temp_table(id, "__mv_nowal", schema(), columns_of(&rows), rows.len())
            .unwrap();
        assert!(table.page_count() > 1, "200 rows span several pages");
        let dir = cat.storage().ensure_dir().unwrap();
        assert!(dir.join("__mv_nowal.dat").exists());
        assert!(
            !dir.join("__mv_nowal.wal").exists(),
            "no redo log for a temp MV"
        );
        let io = cat.io_stats();
        assert_eq!(io.wal_records, before.wal_records);
        assert_eq!(io.wal_bytes, before.wal_bytes);
        cat.register_temp_mv(TempMv {
            table,
            tables: 1,
            layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            actual_card: 200,
            lineage: None,
        });
        // The MV scans back exactly what was promoted.
        let scanned = cat.temp_mv(1).unwrap().table.snapshot();
        assert_eq!(*scanned, rows);
        cat.clear_temp_mvs();
        assert!(
            !dir.join("__mv_nowal.dat").exists(),
            "cleanup unlinks the pages"
        );
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("r{i}"))]
    }

    /// A mem catalog, and a paged one over its own directory (removed by
    /// the caller) with pages small enough for 10 rows to span several.
    fn both_backends(test: &str) -> [(StorageConfig, Option<std::path::PathBuf>); 2] {
        let dir = std::env::temp_dir().join(format!("pop-cat-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paged = StorageConfig {
            page_size: 512,
            dir: Some(dir.clone()),
            ..StorageConfig::paged()
        };
        [(StorageConfig::default(), None), (paged, Some(dir))]
    }

    /// After `cat` (dropped by the caller) loaded `t` with rows `0..10`:
    /// it holds them, and so does a paged directory reopened.
    fn assert_first_load_kept(cat: &Catalog, config: &StorageConfig) {
        let t = cat.table("t").unwrap();
        assert_eq!(*t.snapshot(), (0..10).map(row).collect::<Vec<_>>());
        if config.kind == StorageKind::Paged {
            let reopened = Catalog::with_storage(config.clone());
            let t = reopened.open_table("t", schema()).unwrap();
            assert_eq!(t.row_count(), 10, "the files are the registered table's");
        }
    }

    #[test]
    fn a_name_is_reserved_while_its_table_loads() {
        // A second create of `t` issued from inside the first one's row
        // iterator fails: registering the first would replace it, and on
        // pages it would have unlinked the first table's files.
        for (config, dir) in both_backends("reentrant") {
            let cat = Catalog::with_storage(config.clone());
            let mut second = None;
            let rows = (0..10).map(|i| {
                if i == 5 {
                    second = Some(cat.create_table("t", schema(), (0..3).map(row)));
                    assert!(cat.open_table("t", schema()).is_err());
                }
                row(i)
            });
            cat.create_table("t", schema(), rows).unwrap();
            let err = second.expect("the iterator ran").unwrap_err();
            assert!(err.to_string().contains("already exists"), "{err}");
            assert_first_load_kept(&cat, &config);
            drop(cat);
            dir.map(std::fs::remove_dir_all).transpose().unwrap();
        }
    }

    #[test]
    fn two_threads_cannot_create_one_name() {
        for (config, dir) in both_backends("threads") {
            let cat = Catalog::with_storage(config.clone());
            let (loading, loading_seen) = std::sync::mpsc::channel();
            let (resume, resumed) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                let cat = &cat;
                s.spawn(move || {
                    let rows = (0..10).map(|i| {
                        if i == 5 {
                            loading.send(()).unwrap();
                            resumed.recv().unwrap();
                        }
                        row(i)
                    });
                    cat.create_table("t", schema(), rows).unwrap();
                });
                loading_seen.recv().unwrap();
                let second = cat.create_table("t", schema(), (0..3).map(row));
                resume.send(()).unwrap();
                let err = second.unwrap_err();
                assert!(err.to_string().contains("already exists"), "{err}");
            });
            assert_first_load_kept(&cat, &config);
            drop(cat);
            dir.map(std::fs::remove_dir_all).transpose().unwrap();
        }
    }

    #[test]
    fn a_failed_load_releases_its_name_and_files() {
        for (config, dir) in both_backends("failed") {
            let cat = Catalog::with_storage(config);
            // A row of another width, in the second chunk.
            let rows = (0..5000).map(|i| {
                if i == 4500 {
                    vec![Value::Int(i)]
                } else {
                    row(i)
                }
            });
            assert!(cat.create_table("t", schema(), rows).is_err());
            // One value short of the schema's width.
            let short = cat.generate_table("t", schema(), 3, |i, w| {
                w.int(i as i64);
            });
            let err = short.unwrap_err();
            assert!(err.to_string().contains("row 0 has 1 values"), "{err}");
            if let Some(dir) = &dir {
                for ext in ["dat", "wal", "idx"] {
                    assert!(
                        !dir.join(format!("t.{ext}")).exists(),
                        "t.{ext} left behind"
                    );
                }
            }
            assert!(cat.table("t").is_err());
            let t = cat
                .generate_table("t", schema(), 10, |i, w| {
                    w.int(i as i64).fmt(format_args!("r{i}"));
                })
                .unwrap();
            assert_eq!(*t.snapshot(), (0..10).map(row).collect::<Vec<_>>());
            drop((t, cat));
            dir.map(std::fs::remove_dir_all).transpose().unwrap();
        }
    }

    #[test]
    fn chunks_hold_at_most_the_bulk_load_chunk() {
        let cat = Catalog::new();
        let mut cols = vec![Column::default(), Column::default()];
        for i in 0..=BULK_LOAD_CHUNK as i64 {
            cols[0].push_value(Value::Int(i), 0);
            cols[1].push_value(Value::str("x"), 0);
        }
        let mut once = Some(cols);
        let err = cat
            .create_table_from_chunks("t", schema(), |chunk| {
                Ok(once.take().map_or(0, |cols| {
                    *chunk = cols;
                    BULK_LOAD_CHUNK + 1
                }))
            })
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(cat.table("t").is_err());
    }

    #[test]
    fn a_page_size_outside_the_range_is_refused_at_create_and_open() {
        for page_size in [0, 511, 65_537] {
            for (config, dir) in both_backends(&format!("page-size-{page_size}")) {
                let config = StorageConfig {
                    page_size,
                    ..config
                };
                let cat = Catalog::with_storage(config.clone());
                let refused = |r: PopResult<Arc<Table>>| {
                    let err = r.unwrap_err();
                    assert!(
                        matches!(&err, PopError::Catalog(m) if m.contains("page size")),
                        "{page_size}: {err}"
                    );
                };
                refused(cat.create_table("t", schema(), (0..3).map(row)));
                refused(cat.create_temp_table(
                    cat.allocate_temp_id(),
                    "__mv",
                    schema(),
                    Vec::new(),
                    0,
                ));
                if config.kind == StorageKind::Paged {
                    refused(cat.open_table("t", schema()));
                }
                assert!(cat.table_names().is_empty());
                if let Some(dir) = dir {
                    assert!(!dir.exists(), "{page_size}: no file written");
                }
            }
        }
    }

    #[test]
    fn opening_a_name_with_no_files_is_an_unknown_table() {
        let [_, (config, dir)] = both_backends("open-missing");
        let dir = dir.unwrap();
        let cat = Catalog::with_storage(config);
        let err = cat.open_table("t", schema()).unwrap_err();
        assert_eq!(err, PopError::UnknownTable("t".into()));
        assert!(!dir.join("t.dat").exists(), "a failed open creates no file");
        // The name is free again.
        cat.create_table("t", schema(), (0..3).map(row)).unwrap();
        drop(cat);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
