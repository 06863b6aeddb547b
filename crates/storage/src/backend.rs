//! Storage backends: configuration knobs, the per-catalog storage
//! environment, and the [`StorageBackend`] trait both implementations
//! fulfil.
//!
//! The trait contract that keeps execution byte-identical across
//! backends: `append` assigns consecutive positions in arrival order,
//! `columns` / `read_range` / `read_row` / `read_rows` observe exactly
//! the appended rows (on the columns the reader names — its
//! [`ColumnSet`]), and `page_count`/`page_of_row` are computed with the
//! shared [`PageLayout`] packing rule — so page-aware cost estimates and
//! the runtime's logical page-touch charges depend only on table
//! contents, never on which backend holds them. Physical effects (pool hits,
//! evictions, WAL bytes) are visible only through [`IoStats`].

use crate::buffer::{BufferPool, IoCounters, IoStats};
use crate::page::{
    encoded_row_lens, ColumnSet, PageLayout, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE,
};
use parking_lot::Mutex;
use pop_guard::{env_parsed, env_switch, FaultInjector, Governor};
use pop_types::column::Column;
use pop_types::{PopError, PopResult};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default buffer-pool capacity in bytes (512 frames of 8 KiB).
pub const DEFAULT_BUFFER_POOL_BYTES: u64 = 4 << 20;

/// Which backend a catalog creates tables on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// In-memory typed columns (`Arc` snapshots) with a virtual page map.
    #[default]
    Mem,
    /// Column-major pages on disk behind the buffer pool, with a WAL.
    Paged,
}

/// Storage-layer configuration, normally read from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Backend for newly created tables. Env: `POP_STORAGE`
    /// (`mem`/`paged`).
    pub kind: StorageKind,
    /// Page size in bytes, [`MIN_PAGE_SIZE`]..=[`MAX_PAGE_SIZE`]. Env:
    /// `POP_PAGE_SIZE`. Shared by both backends (the mem backend's
    /// virtual page map uses it too), so changing it changes page-aware
    /// cost estimates — identically — everywhere.
    pub page_size: usize,
    /// Buffer-pool capacity in bytes. Env: `POP_BUFFER_POOL_BYTES`.
    pub buffer_pool_bytes: u64,
    /// Write-ahead logging for paged tables. Env: `POP_WAL`
    /// (`on`/`off`/`true`/`false`/`1`/`0`). With the WAL off, rows
    /// appended since the last checkpoint are lost on a crash.
    pub wal: bool,
    /// Directory for paged table files. `None` (the default) uses a
    /// process-unique temporary directory that is removed when the
    /// catalog's storage environment drops; set it explicitly to persist
    /// tables across catalog instances (and to test recovery).
    pub dir: Option<PathBuf>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            kind: StorageKind::Mem,
            page_size: DEFAULT_PAGE_SIZE,
            buffer_pool_bytes: DEFAULT_BUFFER_POOL_BYTES,
            wal: true,
            dir: None,
        }
    }
}

impl StorageConfig {
    /// The paged backend with default geometry.
    pub fn paged() -> Self {
        StorageConfig {
            kind: StorageKind::Paged,
            ..StorageConfig::default()
        }
    }

    /// Configuration from the `POP_STORAGE`, `POP_PAGE_SIZE`,
    /// `POP_BUFFER_POOL_BYTES` and `POP_WAL` environment variables.
    /// Invalid values fall back to the defaults and push a warning
    /// (surfaced on `RunReport`) — the same convention as every other
    /// `POP_*` knob.
    pub fn from_env(warnings: &mut Vec<String>) -> Self {
        let kind = match std::env::var("POP_STORAGE") {
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "mem" => StorageKind::Mem,
                "paged" => StorageKind::Paged,
                _ => {
                    warnings.push(format!(
                        "POP_STORAGE: invalid value {raw:?} (want \"mem\" or \"paged\"); keeping \"mem\""
                    ));
                    StorageKind::Mem
                }
            },
            Err(_) => StorageKind::Mem,
        };
        let page_size = env_parsed(
            "POP_PAGE_SIZE",
            |v: &usize| (MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(v),
            warnings,
        )
        .unwrap_or(DEFAULT_PAGE_SIZE);
        let buffer_pool_bytes = env_parsed("POP_BUFFER_POOL_BYTES", |v: &u64| *v > 0, warnings)
            .unwrap_or(DEFAULT_BUFFER_POOL_BYTES);
        let wal = env_switch("POP_WAL", true, warnings);
        StorageConfig {
            kind,
            page_size,
            buffer_pool_bytes,
            wal,
            dir: None,
        }
    }

    /// The page layout this configuration implies.
    pub fn layout(&self) -> PageLayout {
        PageLayout::new(self.page_size)
    }
}

/// Process-wide sequence for auto-created storage directories.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shared storage runtime of one catalog: the buffer pool, I/O counters,
/// file-id allocator, backing directory and the armed storage faults.
#[derive(Debug)]
pub struct StorageEnv {
    config: StorageConfig,
    io: Arc<IoCounters>,
    pool: Arc<BufferPool>,
    /// Storage-level fault injector (torn writes, short reads), armed by
    /// the driver for chaos runs. Separate from the executor's injector:
    /// storage hooks sit below the operator tree.
    faults: Mutex<Option<FaultInjector>>,
    /// Lazily created backing directory for paged files.
    dir: Mutex<Option<PathBuf>>,
    /// Whether we created (and therefore clean up) the directory.
    owns_dir: bool,
    next_file_id: AtomicU64,
}

impl StorageEnv {
    /// An environment for `config`.
    pub fn new(config: StorageConfig) -> Self {
        let io = Arc::new(IoCounters::default());
        let pool = Arc::new(BufferPool::new(
            config.buffer_pool_bytes,
            config.page_size,
            Arc::clone(&io),
        ));
        let owns_dir = config.dir.is_none();
        StorageEnv {
            config,
            io,
            pool,
            faults: Mutex::new(None),
            dir: Mutex::new(None),
            owns_dir,
            next_file_id: AtomicU64::new(1),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The shared page layout.
    pub fn layout(&self) -> PageLayout {
        self.config.layout()
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Shared I/O counters.
    pub(crate) fn io(&self) -> &Arc<IoCounters> {
        &self.io
    }

    /// Snapshot of the cumulative I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    /// Allocate a unique file id (buffer-pool key namespace).
    pub(crate) fn alloc_file_id(&self) -> u64 {
        self.next_file_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The backing directory, creating it on first use.
    pub(crate) fn ensure_dir(&self) -> PopResult<PathBuf> {
        let mut dir = self.dir.lock();
        if let Some(d) = dir.as_ref() {
            return Ok(d.clone());
        }
        let path = self.config.dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "pop-storage-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        std::fs::create_dir_all(&path).map_err(|e| {
            PopError::Execution(format!("storage io: mkdir {}: {e}", path.display()))
        })?;
        *dir = Some(path.clone());
        Ok(path)
    }

    /// Arm storage-level fault injection for the next operations.
    pub fn arm_faults(&self, injector: FaultInjector) {
        *self.faults.lock() = Some(injector);
    }

    /// Disarm storage faults, returning the injector (fired specs intact).
    pub fn disarm_faults(&self) -> Option<FaultInjector> {
        self.faults.lock().take()
    }

    /// Hook: should this WAL append be torn mid-frame?
    pub(crate) fn fault_torn_write(&self) -> bool {
        self.faults
            .lock()
            .as_mut()
            .is_some_and(FaultInjector::torn_write)
    }

    /// Hook: should this page read come back short? Returns the byte
    /// count to truncate the read to.
    pub(crate) fn fault_short_read(&self) -> Option<usize> {
        let mut faults = self.faults.lock();
        match faults.as_mut() {
            Some(inj) => inj.short_read().then_some(self.config.page_size / 2),
            None => None,
        }
    }

    /// Attach the running query's governor to the buffer pool so page
    /// frames draw from its resident-byte budget.
    pub fn attach_governor(&self, gov: Governor) -> PopResult<()> {
        self.pool.attach_governor(gov)
    }

    /// Detach the governor, releasing all page reservations.
    pub fn detach_governor(&self) {
        self.pool.detach_governor();
    }
}

impl Drop for StorageEnv {
    fn drop(&mut self) {
        // Auto-created directories are ours alone; user-specified ones
        // persist (that is how recovery tests reopen a catalog).
        if self.owns_dir {
            if let Some(dir) = self.dir.get_mut().take() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// The check in front of every append, shared by both backends so they
/// accept and reject the same batches, before either changes anything:
/// the batch has the table's width (`width`: `None` until the first rows
/// fix it); each of `cols` holds `rows` rows; every row fits a page; and
/// the table stays addressable by the `u32` positions selection vectors
/// and in-memory indexes use. `stored` is the table's row count. Returns
/// each row's encoded length.
pub(crate) fn check_append(
    layout: PageLayout,
    stored: u64,
    width: Option<usize>,
    cols: &[Column],
    rows: usize,
) -> PopResult<Vec<usize>> {
    if let Some(w) = width.filter(|w| *w != cols.len()) {
        return Err(PopError::Execution(format!(
            "batch has {} columns, the table {w}",
            cols.len()
        )));
    }
    if let Some(c) = cols.iter().position(|c| c.len() != rows) {
        return Err(PopError::Execution(format!(
            "batch column {c} holds {} rows, the batch {rows}",
            cols[c].len()
        )));
    }
    if stored + rows as u64 > u64::from(u32::MAX) {
        return Err(PopError::Execution(format!(
            "table full: {stored} + {rows} rows exceed {}",
            u32::MAX
        )));
    }
    let lens = encoded_row_lens(cols, rows);
    lens.iter().try_for_each(|len| layout.check_row(*len))?;
    Ok(lens)
}

/// The operations a table's storage must provide. Positions are dense
/// (`0..row_count`), assigned by `append` in arrival order.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Rows stored.
    fn row_count(&self) -> u64;

    /// Data pages occupied (virtual for the mem backend, real for the
    /// paged one — equal for equal contents, by the shared packing rule).
    fn page_count(&self) -> u64;

    /// The page layout in force.
    fn layout(&self) -> PageLayout;

    /// Append the `rows` rows held in `cols` (one column per stored
    /// column, each `rows` long; a table without columns still has rows)
    /// at the end; returns the position of the first. Every batch passes
    /// the shared `check_append` before anything changes, so a rejected
    /// batch leaves the table as it was on both backends. The first batch
    /// with rows fixes the table's width; a batch of another width is
    /// rejected ([`crate::Table::append`] also holds it to the schema).
    fn append(&self, cols: &[Column], rows: usize) -> PopResult<u64>;

    /// [`StorageBackend::append`] of columns the caller gives up: a
    /// backend that stores columns as they are may keep them instead of
    /// copying (a promoted temp MV's rows are moved into its table this
    /// way). The default appends a copy.
    fn append_owned(&self, cols: Vec<Column>, rows: usize) -> PopResult<u64> {
        self.append(&cols, rows)
    }

    /// The stored columns, zero-copy, when the backend keeps its rows as
    /// columns in memory (row `i` at index `i` of each); `None` for a
    /// backend whose readers decode ([`StorageBackend::read_range`] /
    /// [`StorageBackend::read_row`]). The snapshot never changes: later
    /// appends do not show in it.
    fn columns(&self) -> Option<Arc<Vec<Column>>>;

    /// Read the columns `cols` of the rows with positions in `[lo, hi)`
    /// (clamped) into `out`: each column in the set is refilled with those
    /// rows, reusing its vector; `out` grows to the table's width, and
    /// columns outside the set are left as they are (see [`ColumnSet`]).
    fn read_range(
        &self,
        lo: u64,
        hi: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()>;

    /// Write the columns `cols` of the row at `pos` as row `row` of a
    /// refill of `out` (see [`Column::begin_refill`]: rows `0..row` are
    /// kept, later ones are stale), growing `out` to the table's width;
    /// columns outside the set are left as they are.
    fn read_row(
        &self,
        pos: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
        row: usize,
    ) -> PopResult<()>;

    /// Write the columns `cols` of the rows at `positions` (ascending,
    /// distinct, each below the row count) as rows `0..positions.len()` of
    /// a refill of `out`, growing `out` to the table's width; columns
    /// outside the set are left as they are. The default reads row after
    /// row; the paged backend reads each page the positions fall on once.
    fn read_rows(
        &self,
        positions: &[u64],
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()> {
        cols.begin_refill_in(out);
        for (row, pos) in positions.iter().enumerate() {
            self.read_row(*pos, cols, out, row)?;
        }
        cols.end_refill_in(out, positions.len());
        Ok(())
    }

    /// Logical data-page index (0-based) holding row `pos`.
    fn page_of_row(&self, pos: u64) -> u64;

    /// Does this backend do real page I/O?
    fn is_paged(&self) -> bool;

    /// Make all appended rows durable (paged: flush tail page + meta,
    /// truncate the WAL). No-op for the mem backend.
    fn checkpoint(&self) -> PopResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_mem_with_default_geometry() {
        let c = StorageConfig::default();
        assert_eq!(c.kind, StorageKind::Mem);
        assert_eq!(c.page_size, DEFAULT_PAGE_SIZE);
        assert!(c.wal);
        assert_eq!(StorageConfig::paged().kind, StorageKind::Paged);
    }

    #[test]
    fn invalid_page_size_env_warns_and_falls_back() {
        // Unique variable names so parallel tests never race on the
        // shared process environment; exercised via the same parser
        // from_env uses.
        let mut w = Vec::new();
        std::env::set_var("POP_TEST_STORAGE_PAGE_SIZE", "64");
        let v = env_parsed(
            "POP_TEST_STORAGE_PAGE_SIZE",
            |v: &usize| (MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(v),
            &mut w,
        );
        assert_eq!(v, None);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("POP_TEST_STORAGE_PAGE_SIZE"), "{w:?}");
        assert!(w[0].ends_with("falling back to the default"), "{w:?}");
        std::env::remove_var("POP_TEST_STORAGE_PAGE_SIZE");
    }

    #[test]
    fn env_round_trip_all_knobs() {
        // One test touches all four POP storage variables (serially) so
        // parallel test threads never observe a half-set environment.
        let mut w = Vec::new();
        std::env::set_var("POP_STORAGE", "paged");
        std::env::set_var("POP_PAGE_SIZE", "1024");
        std::env::set_var("POP_BUFFER_POOL_BYTES", "65536");
        std::env::set_var("POP_WAL", "off");
        let c = StorageConfig::from_env(&mut w);
        assert_eq!(c.kind, StorageKind::Paged);
        assert_eq!(c.page_size, 1024);
        assert_eq!(c.buffer_pool_bytes, 65536);
        assert!(!c.wal);
        assert!(w.is_empty(), "{w:?}");

        std::env::set_var("POP_STORAGE", "flash");
        std::env::set_var("POP_WAL", "maybe");
        let c = StorageConfig::from_env(&mut w);
        assert_eq!(c.kind, StorageKind::Mem);
        assert!(c.wal);
        assert_eq!(w.len(), 2, "{w:?}");

        for v in [
            "POP_STORAGE",
            "POP_PAGE_SIZE",
            "POP_BUFFER_POOL_BYTES",
            "POP_WAL",
        ] {
            std::env::remove_var(v);
        }
        let c = StorageConfig::from_env(&mut Vec::new());
        assert_eq!(c, StorageConfig::default());
    }

    #[test]
    fn env_allocates_unique_file_ids_and_dir() {
        let env = StorageEnv::new(StorageConfig::paged());
        let a = env.alloc_file_id();
        let b = env.alloc_file_id();
        assert_ne!(a, b);
        let dir = env.ensure_dir().unwrap();
        assert!(dir.is_dir());
        assert_eq!(env.ensure_dir().unwrap(), dir);
        drop(env);
        // Auto-created directory is removed with the environment.
        assert!(!dir.exists());
    }
}
