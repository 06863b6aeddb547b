//! The paged backend: column-major data pages behind the buffer pool and
//! a WAL in front of every append. It stores rows only: a paged table's
//! indexes are the same in-memory sorted runs as a mem table's
//! ([`crate::Index`]).
//!
//! Files per table (in the environment's directory):
//!
//! * `<name>.dat` — page 0 is table meta (magic, format version, page
//!   size, checkpointed row count), data pages follow;
//! * `<name>.wal` — redo records for rows appended since the last
//!   checkpoint (absent for a temporary table).
//!
//! Append protocol: the shared pre-check (`check_append`) first, so a
//! rejected batch reaches neither log nor pages; then WAL (flushed, the
//! batch encoded in the row codec) and data pages, written from the
//! batch's columns: the packing rule cuts the batch into page runs, each
//! copied onto the tail page's columns, and a page is encoded into its
//! column blocks when it is written.
//! [`PagedBackend::open`] recovers: it trusts pages only up to the
//! checkpointed row count, replays intact WAL records past it, and
//! checkpoints — so a torn write anywhere past the checkpoint loses
//! nothing that reached the log. It builds no index: the caller creates
//! the indexes it needs over the recovered rows. Temporary backends
//! (spilled temp MVs) write no WAL and unlink their files on drop.

use crate::backend::{check_append, StorageBackend, StorageEnv};
use crate::page::{encode_rows, page_bytes, ColumnSet, DataPage, PageFill, PageLayout, PageView};
use crate::pager::PageFile;
use crate::wal::Wal;
use parking_lot::Mutex;
use pop_types::column::Column;
use pop_types::{PopError, PopResult};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Magic number of the table meta page (`"POPD"`).
const META_MAGIC: u32 = 0x504F_5044;
/// Meta-page format version: 3 since the meta page holds no key column
/// (version 2 named a B+tree primary index column; version 1 files hold
/// slotted row pages). This build reads no other version.
const META_VERSION: u16 = 3;

#[derive(Debug)]
struct PagedCore {
    data: PageFile,
    wal: Option<Wal>,
    /// The (possibly partial) page being filled; always also on disk.
    tail: DataPage,
    /// The tail page's fill under the packing rule.
    fill: PageFill,
    /// Pid the tail page occupies.
    tail_pid: u64,
    /// Position of the first row of each data page (mirrors the mem
    /// backend's virtual map — same packing rule, same counts).
    page_starts: Vec<u64>,
    n_rows: u64,
    /// Columns of every row, fixed by the first rows stored.
    width: Option<usize>,
    /// Rows covered by the last checkpoint (meta page).
    durable_rows: u64,
}

/// On-disk table storage.
#[derive(Debug)]
pub struct PagedBackend {
    env: Arc<StorageEnv>,
    name: String,
    file_id: u64,
    /// Temporary backends (temp-MV spill) unlink their files on drop.
    temporary: bool,
    inner: Mutex<PagedCore>,
}

impl PagedBackend {
    fn dat_path(env: &StorageEnv, name: &str) -> PopResult<PathBuf> {
        Ok(env.ensure_dir()?.join(format!("{name}.dat")))
    }

    fn wal_path(env: &StorageEnv, name: &str) -> PopResult<PathBuf> {
        Ok(env.ensure_dir()?.join(format!("{name}.wal")))
    }

    /// Create a fresh (empty) backend, truncating any prior files of the
    /// same name. A temporary backend opens no WAL: its files are unlinked
    /// on drop and never reopened, so a redo log could never be replayed.
    pub fn create(env: Arc<StorageEnv>, name: &str, temporary: bool) -> PopResult<Self> {
        Self::remove_files(&env, name);
        let layout = env.layout();
        let data = PageFile::open(Self::dat_path(&env, name)?, layout.page_size)?;
        let wal = if temporary {
            None
        } else {
            Some(Wal::open(Self::wal_path(&env, name)?)?)
        };
        let file_id = env.alloc_file_id();
        let backend = PagedBackend {
            env,
            name: name.to_string(),
            file_id,
            temporary,
            inner: Mutex::new(PagedCore {
                data,
                wal,
                tail: DataPage::new(0),
                fill: PageFill::default(),
                tail_pid: 1,
                page_starts: Vec::new(),
                n_rows: 0,
                width: None,
                durable_rows: 0,
            }),
        };
        backend.inner.lock().write_meta_page(&backend)?;
        Ok(backend)
    }

    /// Remove table `name`'s data and WAL files, those that exist.
    pub(crate) fn remove_files(env: &StorageEnv, name: &str) {
        let paths = [Self::dat_path, Self::wal_path].map(|path| path(env, name));
        for p in paths.into_iter().flatten() {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Reopen an existing table with redo recovery: trust pages up to the
    /// checkpointed row count, replay intact WAL records past it, then
    /// checkpoint. No index is built: the caller creates its indexes over
    /// the recovered rows.
    pub fn open(env: &Arc<StorageEnv>, name: &str) -> PopResult<Self> {
        let layout = env.layout();
        let path = Self::dat_path(env, name)?;
        if !path.is_file() {
            return Err(PopError::UnknownTable(name.to_string()));
        }
        let data = PageFile::open(path, layout.page_size)?;
        let meta = data.read_page(0, None)?;
        let magic = u32::from_le_bytes(meta[0..4].try_into().unwrap());
        let version = u16::from_le_bytes(meta[4..6].try_into().unwrap());
        let page_size = u32::from_le_bytes(meta[6..10].try_into().unwrap()) as usize;
        if magic != META_MAGIC {
            return Err(PopError::Execution(format!(
                "storage: {name}.dat is not a POP table file"
            )));
        }
        if version != META_VERSION {
            return Err(PopError::Execution(format!(
                "storage: {name}.dat has page format version {version}, this build reads {META_VERSION}"
            )));
        }
        if page_size != layout.page_size {
            return Err(PopError::Execution(format!(
                "storage: {name}.dat has page size {page_size}, configured {}",
                layout.page_size
            )));
        }
        let durable_rows = u64::from_le_bytes(meta[10..18].try_into().unwrap());

        // Rebuild the page map from page headers, up to the checkpoint.
        let mut page_starts = Vec::new();
        let mut rows_seen = 0u64;
        let mut tail = DataPage::new(0);
        let mut tail_pid = 1;
        let mut width = None;
        for pid in 1..data.page_count() {
            if rows_seen >= durable_rows {
                break;
            }
            let bytes = data.read_page(pid, None)?;
            // An unreadable page ends the trusted prefix; the check below
            // reports it if rows the meta page claims are missing.
            let Ok(page) = PageView::new(&bytes) else {
                break;
            };
            if page.first_row() != rows_seen
                || page.is_empty()
                || width.is_some_and(|w| w != page.width())
            {
                break;
            }
            // A checkpoint that landed mid-page keeps only its prefix.
            let keep = (durable_rows - rows_seen).min(page.len() as u64) as usize;
            let Ok(kept) = DataPage::from_page(&page, keep) else {
                break;
            };
            page_starts.push(rows_seen);
            width = Some(page.width());
            tail = kept;
            tail_pid = pid;
            rows_seen += keep as u64;
        }
        if rows_seen < durable_rows {
            return Err(PopError::Execution(format!(
                "storage: {name}.dat holds {rows_seen} durable rows, meta claims {durable_rows}"
            )));
        }
        if tail.is_empty() {
            tail_pid = 1;
        }

        let wal = Some(Wal::open(Self::wal_path(env, name)?)?);
        let file_id = env.alloc_file_id();
        let backend = PagedBackend {
            env: Arc::clone(env),
            name: name.to_string(),
            file_id,
            temporary: false,
            inner: Mutex::new(PagedCore {
                data,
                wal,
                fill: tail.fill(layout),
                tail,
                tail_pid,
                page_starts,
                n_rows: durable_rows,
                width,
                durable_rows,
            }),
        };

        // Redo: replay intact WAL records past the checkpoint, in order.
        let records = Wal::replay(&Self::wal_path(env, name)?)?;
        {
            let mut core = backend.inner.lock();
            for rec in records {
                if rec.start_row < core.n_rows {
                    continue; // already durable
                }
                if rec.start_row > core.n_rows {
                    break; // gap: everything after is unusable
                }
                env.io().wal_replayed.fetch_add(1, Ordering::Relaxed);
                let lens = check_append(layout, rec.start_row, core.width, &rec.cols, rec.rows)?;
                core.apply(&backend, &rec.cols, &lens, rec.start_row)?;
                if rec.rows > 0 {
                    core.write_tail(&backend)?;
                }
            }
            core.checkpoint(&backend)?;
        }
        Ok(backend)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl PagedCore {
    /// Write the meta page (checkpointed row count).
    fn write_meta_page(&mut self, b: &PagedBackend) -> PopResult<()> {
        let ps = b.env.config().page_size;
        let mut buf = vec![0u8; ps];
        buf[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        buf[4..6].copy_from_slice(&META_VERSION.to_le_bytes());
        buf[6..10].copy_from_slice(&(ps as u32).to_le_bytes());
        buf[10..18].copy_from_slice(&self.durable_rows.to_le_bytes());
        self.data.write_page(0, &buf)?;
        b.env.pool().invalidate((b.file_id, 0));
        Ok(())
    }

    /// Write one data page and drop any stale pool frame.
    fn write_data_page(&mut self, b: &PagedBackend, pid: u64, bytes: &[u8]) -> PopResult<()> {
        self.data.write_page(pid, bytes)?;
        b.env.io().pages_written.fetch_add(1, Ordering::Relaxed);
        b.env.pool().invalidate((b.file_id, pid));
        Ok(())
    }

    /// Read one data page through the buffer pool.
    fn read_data_page(&self, b: &PagedBackend, pid: u64) -> PopResult<Arc<Vec<u8>>> {
        let env = &b.env;
        env.pool().get((b.file_id, pid), |buf| {
            let trunc = env.fault_short_read();
            env.io().pages_read.fetch_add(1, Ordering::Relaxed);
            self.data.read_page_into(pid, trunc, buf)
        })
    }

    /// Pack the batch `cols` (starting at position `start`, its rows of
    /// the encoded lengths `check_append` returned as `lens`) into pages,
    /// persisting each page that fills — encoded straight from the batch
    /// when it began in the batch, from the tail page's rows otherwise.
    /// The rows of the last page are copied onto the tail page;
    /// [`PagedCore::write_tail`] persists it once the batch is in.
    fn apply(
        &mut self,
        b: &PagedBackend,
        cols: &[Column],
        lens: &[usize],
        start: u64,
    ) -> PopResult<()> {
        let layout = b.env.layout();
        let mut from = 0;
        for (i, &len) in lens.iter().enumerate() {
            if self.fill.push(layout, len) {
                if self.tail.is_empty() && from < i {
                    let first = start + from as u64;
                    let bytes = page_bytes(first, cols, from..i, layout.page_size)?;
                    self.write_data_page(b, self.tail_pid, &bytes)?;
                    self.tail_pid += 1;
                } else if !self.tail.is_empty() {
                    self.tail.extend(cols, from..i);
                    self.write_tail(b)?;
                    self.tail_pid += 1;
                }
                let pos = start + i as u64;
                self.tail = DataPage::new(pos);
                self.page_starts.push(pos);
                from = i;
            }
        }
        self.tail.extend(cols, from..lens.len());
        if !lens.is_empty() {
            self.width = Some(cols.len());
        }
        self.n_rows = start + lens.len() as u64;
        Ok(())
    }

    /// Persist the (partial) tail page.
    fn write_tail(&mut self, b: &PagedBackend) -> PopResult<()> {
        let bytes = self.tail.to_bytes(b.env.config().page_size)?;
        let pid = self.tail_pid;
        self.write_data_page(b, pid, &bytes)
    }

    /// Decode the columns `cols` of rows `[lo, hi)` into `out` from the
    /// covering pages, each parsed once and read one run per projected
    /// column: the columns in the set are refilled in place (see
    /// [`StorageBackend::read_range`]).
    fn read_range(
        &self,
        b: &PagedBackend,
        lo: u64,
        hi: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()> {
        cols.begin_refill_in(out);
        let n = self.n_rows;
        let (lo, hi) = (lo.min(n), hi.min(n));
        if lo >= hi {
            cols.end_refill_in(out, 0);
            return Ok(());
        }
        let cap = (hi - lo) as usize;
        let mut row = 0;
        for p in self.page_of(lo)..=self.page_of(hi - 1) {
            let bytes = self.read_data_page(b, p + 1)?;
            let (page, first, next) = self.view(b, p, &bytes)?;
            let lo_slot = lo.saturating_sub(first) as usize;
            let hi_slot = (hi.min(next) - first) as usize;
            page.decode_onto(lo_slot..hi_slot, cols, out, row, cap)?;
            row += hi_slot - lo_slot;
        }
        cols.end_refill_in(out, row);
        Ok(())
    }

    /// Decode the columns `cols` of the rows at `positions` (ascending,
    /// distinct) into `out` (see [`StorageBackend::read_rows`]): each page
    /// the positions fall on is read through the pool and parsed once, in
    /// page order, and each run of adjacent positions on it is decoded as
    /// one slot range.
    fn read_rows(
        &self,
        b: &PagedBackend,
        positions: &[u64],
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending");
        cols.begin_refill_in(out);
        let cap = positions.len();
        let mut row = 0;
        while let Some(&pos) = positions.get(row) {
            if pos >= self.n_rows {
                return Err(PopError::Execution(format!(
                    "row {pos} out of range ({} rows)",
                    self.n_rows
                )));
            }
            let p = self.page_of(pos);
            let bytes = self.read_data_page(b, p + 1)?;
            let (page, first, next) = self.view(b, p, &bytes)?;
            let on_page = row + positions[row..].partition_point(|&q| q < next);
            while row < on_page {
                let mut end = row + 1;
                while end < on_page && positions[end] == positions[end - 1] + 1 {
                    end += 1;
                }
                let slot = (positions[row] - first) as usize;
                page.decode_onto(slot..slot + (end - row), cols, out, row, cap)?;
                row = end;
            }
        }
        cols.end_refill_in(out, row);
        Ok(())
    }

    /// Parse data page `p` (logical index) from `bytes`, checked against
    /// the page map; returns it with the positions of its first row and of
    /// the first row past it.
    fn view<'a>(
        &self,
        b: &PagedBackend,
        p: u64,
        bytes: &'a [u8],
    ) -> PopResult<(PageView<'a>, u64, u64)> {
        let page = PageView::new(bytes)?;
        let first = self.page_starts[p as usize];
        let next = self
            .page_starts
            .get(p as usize + 1)
            .map_or(self.n_rows, |&s| s);
        if page.first_row() != first || (page.len() as u64) < next - first {
            return Err(PopError::Execution(format!(
                "storage: {}.dat page {} disagrees with the page map",
                b.name,
                p + 1
            )));
        }
        Ok((page, first, next))
    }

    /// Logical page index of row `pos`.
    fn page_of(&self, pos: u64) -> u64 {
        (self.page_starts.partition_point(|&s| s <= pos).max(1) - 1) as u64
    }

    /// Make everything durable: sync data, persist the meta page, and
    /// truncate the WAL.
    fn checkpoint(&mut self, b: &PagedBackend) -> PopResult<()> {
        self.data.sync()?;
        self.durable_rows = self.n_rows;
        self.write_meta_page(b)?;
        self.data.sync()?;
        if let Some(wal) = self.wal.as_mut() {
            wal.truncate()?;
        }
        Ok(())
    }
}

impl StorageBackend for PagedBackend {
    fn row_count(&self) -> u64 {
        self.inner.lock().n_rows
    }

    fn page_count(&self) -> u64 {
        self.inner.lock().page_starts.len() as u64
    }

    fn layout(&self) -> PageLayout {
        self.env.layout()
    }

    fn append(&self, cols: &[Column], rows: usize) -> PopResult<u64> {
        let mut core = self.inner.lock();
        let start = core.n_rows;
        let lens = check_append(self.env.layout(), start, core.width, cols, rows)?;
        if let Some(wal) = core.wal.as_mut() {
            let mut encoded = Vec::new();
            encode_rows(cols, 0..rows, &lens, &mut encoded);
            let torn = self.env.fault_torn_write();
            let bytes = wal.append(start, rows, &encoded, torn)?;
            let io = self.env.io();
            io.wal_records.fetch_add(1, Ordering::Relaxed);
            io.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        core.apply(self, cols, &lens, start)?;
        if rows > 0 {
            core.write_tail(self)?;
        }
        Ok(start)
    }

    fn columns(&self) -> Option<Arc<Vec<Column>>> {
        None
    }

    fn read_range(
        &self,
        lo: u64,
        hi: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()> {
        self.inner.lock().read_range(self, lo, hi, cols, out)
    }

    fn read_row(
        &self,
        pos: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
        row: usize,
    ) -> PopResult<()> {
        let core = self.inner.lock();
        if pos >= core.n_rows {
            return Err(PopError::Execution(format!(
                "row {pos} out of range ({} rows)",
                core.n_rows
            )));
        }
        let p = core.page_of(pos);
        let slot = (pos - core.page_starts[p as usize]) as usize;
        let bytes = core.read_data_page(self, p + 1)?;
        PageView::new(&bytes)?.decode_onto(slot..slot + 1, cols, out, row, 0)
    }

    fn read_rows(
        &self,
        positions: &[u64],
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()> {
        self.inner.lock().read_rows(self, positions, cols, out)
    }

    fn page_of_row(&self, pos: u64) -> u64 {
        self.inner.lock().page_of(pos)
    }

    fn is_paged(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> PopResult<()> {
        self.inner.lock().checkpoint(self)
    }
}

impl Drop for PagedBackend {
    fn drop(&mut self) {
        self.env.pool().invalidate_file(self.file_id);
        if self.temporary {
            let core = self.inner.get_mut();
            let _ = std::fs::remove_file(core.data.path());
            if let Some(wal) = &core.wal {
                let _ = std::fs::remove_file(wal.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageConfig;
    use crate::catalog::BULK_LOAD_CHUNK;
    use crate::mem::MemBackend;
    use pop_guard::{FaultInjector, FaultKind, FaultPlan};
    use pop_types::{Row, Value};

    fn env_with(page_size: usize, dir: Option<PathBuf>) -> Arc<StorageEnv> {
        Arc::new(StorageEnv::new(StorageConfig {
            page_size,
            dir,
            ..StorageConfig::paged()
        }))
    }

    fn rows(lo: i64, hi: i64) -> Vec<Row> {
        (lo..hi)
            .map(|i| vec![Value::Int(i), Value::str(format!("payload {i}"))])
            .collect()
    }

    /// Append [`rows`]`(lo, hi)` as columns.
    fn append(b: &dyn StorageBackend, lo: i64, hi: i64) -> PopResult<u64> {
        b.append(&crate::columns_of(&rows(lo, hi)), (hi - lo) as usize)
    }

    /// The row of seed `(kind, len)` at position `i`: its position, a
    /// string of `len` characters cycling through one- to four-byte ones
    /// (empty at 0), and the same string or, for kind 0, NULL.
    fn string_row(i: usize, (kind, len): (u8, usize)) -> Row {
        let s: String = (0..len)
            .map(|k| ['a', 'é', '€', '😀'][(usize::from(kind) + k) % 4])
            .collect();
        let nullable = if kind == 0 {
            Value::Null
        } else {
            Value::str(&s)
        };
        vec![Value::Int(i as i64), Value::str(s), nullable]
    }

    proptest::proptest! {
        /// String columns of multi-byte, empty and NULL cells on 512-byte
        /// pages: every range `read_range` cuts (two-row windows at every
        /// position, so every page boundary, and random ones) and every
        /// position set `read_rows` takes decodes to the stored rows.
        #[test]
        fn string_columns_read_back_through_ranges_and_positions(
            seeds in proptest::collection::vec((0u8..4, 0usize..7), 1..160),
            cuts in proptest::collection::vec((0usize..200, 0usize..200), 1..6),
            picks in proptest::collection::btree_set(0usize..200, 0..40),
        ) {
            let env = env_with(512, None);
            let b = PagedBackend::create(env, "t", false).unwrap();
            let rows: Vec<Row> = seeds.iter().enumerate().map(|(i, s)| string_row(i, *s)).collect();
            let n = rows.len();
            b.append(&crate::columns_of(&rows), n).unwrap();
            let windows = (0..n).map(|lo| (lo, lo + 2));
            let random = cuts.iter().map(|&(x, y)| (x.min(y) % (n + 1), x.max(y) % (n + 1)));
            let mut out = Vec::new();
            for (lo, hi) in windows.chain(random) {
                let hi = hi.clamp(lo, n);
                b.read_range(lo as u64, hi as u64, &ColumnSet::all(), &mut out).unwrap();
                proptest::prop_assert_eq!(to_rows(&out, hi - lo), rows[lo..hi].to_vec(), "{}..{}", lo, hi);
            }
            let positions: Vec<u64> = picks.iter().filter(|&&p| p < n).map(|&p| p as u64).collect();
            b.read_rows(&positions, &ColumnSet::of([1, 2]), &mut out).unwrap();
            for (k, p) in positions.iter().enumerate() {
                let row = &rows[*p as usize];
                proptest::prop_assert_eq!((out[1].value(k), out[2].value(k)), (row[1].clone(), row[2].clone()));
            }
        }
    }

    fn to_rows(cols: &[Column], n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| cols.iter().map(|c| c.value(i)).collect())
            .collect()
    }

    /// Every row of `b`, every column, through `read_range`.
    fn stored(b: &dyn StorageBackend) -> Vec<Row> {
        let mut cols = Vec::new();
        b.read_range(0, b.row_count(), &ColumnSet::all(), &mut cols)
            .unwrap();
        to_rows(&cols, b.row_count() as usize)
    }

    #[test]
    fn append_read_round_trip_and_page_parity_with_mem() {
        let env = env_with(512, None);
        let paged = PagedBackend::create(Arc::clone(&env), "t", false).unwrap();
        let mem = MemBackend::new(env.layout());
        for lo in (0..400).step_by(37) {
            let hi = (lo + 37).min(400);
            append(&paged, lo, hi).unwrap();
            append(&mem, lo, hi).unwrap();
        }
        assert_eq!(paged.row_count(), 400);
        // Page map identical to the mem backend's virtual map.
        assert_eq!(paged.page_count(), mem.page_count());
        for pos in 0..400u64 {
            assert_eq!(paged.page_of_row(pos), mem.page_of_row(pos), "row {pos}");
        }
        // Contents identical.
        assert_eq!(stored(&paged), stored(&mem));
        assert_eq!(stored(&paged), rows(0, 400));
        // The columns in the set are refilled with the range.
        let mut out = Vec::new();
        paged.read_range(0, 3, &ColumnSet::all(), &mut out).unwrap();
        paged
            .read_range(100, 140, &ColumnSet::all(), &mut out)
            .unwrap();
        assert_eq!(to_rows(&out, 40), rows(100, 140));
        paged
            .read_range(390, 500, &ColumnSet::of([0]), &mut out)
            .unwrap();
        assert_eq!(out[0].len(), 10, "clamped to the row count");
        assert_eq!(out[0].value(9), Value::Int(399));
        assert_eq!(out[1].len(), 40, "outside the set: untouched");
        paged.read_range(7, 7, &ColumnSet::all(), &mut out).unwrap();
        assert!(out.iter().all(Column::is_empty));
        paged.read_row(399, &ColumnSet::all(), &mut out, 0).unwrap();
        paged.read_row(5, &ColumnSet::all(), &mut out, 1).unwrap();
        assert_eq!(to_rows(&out, 2), [rows(399, 400), rows(5, 6)].concat());
        assert!(paged.read_row(400, &ColumnSet::all(), &mut out, 2).is_err());
    }

    #[test]
    fn reopen_after_checkpoint_sees_all_rows() {
        let dir = std::env::temp_dir().join(format!("pop-paged-test-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = env_with(512, Some(dir.clone()));
            let b = PagedBackend::create(Arc::clone(&env), "t", false).unwrap();
            append(&b, 0, 100).unwrap();
            b.checkpoint().unwrap();
        }
        let env = env_with(512, Some(dir.clone()));
        let b = PagedBackend::open(&env, "t").unwrap();
        assert_eq!(b.row_count(), 100);
        assert_eq!(stored(&b), rows(0, 100));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_recovers_uncheckpointed_rows() {
        let dir = std::env::temp_dir().join(format!("pop-paged-test-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = env_with(512, Some(dir.clone()));
            let b = PagedBackend::create(Arc::clone(&env), "t", false).unwrap();
            append(&b, 0, 60).unwrap();
            b.checkpoint().unwrap();
            // Two more batches reach WAL + pages but never a checkpoint.
            append(&b, 60, 90).unwrap();
            append(&b, 90, 120).unwrap();
        }
        let env = env_with(512, Some(dir.clone()));
        let b = PagedBackend::open(&env, "t").unwrap();
        assert_eq!(b.row_count(), 120, "WAL replay must restore all rows");
        assert_eq!(stored(&b), rows(0, 120));
        assert!(env.io_stats().wal_replayed >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_loses_batch_but_recovers_prefix() {
        let dir = std::env::temp_dir().join(format!("pop-paged-test-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = env_with(512, Some(dir.clone()));
            let b = PagedBackend::create(Arc::clone(&env), "t", false).unwrap();
            append(&b, 0, 50).unwrap();
            env.arm_faults(FaultInjector::new(FaultPlan::single(
                FaultKind::TornWrite,
                0,
            )));
            let err = append(&b, 50, 80).unwrap_err();
            assert!(err.to_string().contains("torn write"), "{err}");
            env.disarm_faults();
        }
        let env = env_with(512, Some(dir.clone()));
        let b = PagedBackend::open(&env, "t").unwrap();
        // The torn batch is gone; everything logged intact survives.
        assert_eq!(b.row_count(), 50);
        assert_eq!(stored(&b), rows(0, 50));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An unlogged batch is encoded a chunk at a time: across chunk
    /// boundaries it packs, stores and writes exactly what a logged one does.
    #[test]
    fn unlogged_batch_packs_like_a_logged_one() {
        let n = 2 * BULK_LOAD_CHUNK as i64 + 100;
        let (logged_env, temp_env) = (env_with(512, None), env_with(512, None));
        let logged = PagedBackend::create(Arc::clone(&logged_env), "t", false).unwrap();
        let temp = PagedBackend::create(Arc::clone(&temp_env), "mv", true).unwrap();
        append(&logged, 0, n).unwrap();
        append(&temp, 0, n).unwrap();
        assert_eq!(
            temp.inner.lock().page_starts,
            logged.inner.lock().page_starts
        );
        assert_eq!(stored(&temp), rows(0, n));
        let written = temp_env.io_stats().pages_written;
        assert_eq!(written, logged_env.io_stats().pages_written);
        assert_eq!(written, temp.page_count(), "each page written once");
    }

    #[test]
    fn temporary_backend_unlinks_files_on_drop() {
        let env = env_with(512, None);
        let b = PagedBackend::create(Arc::clone(&env), "mv", true).unwrap();
        append(&b, 0, 10).unwrap();
        let dir = env.ensure_dir().unwrap();
        assert!(dir.join("mv.dat").exists());
        assert!(
            !dir.join("mv.wal").exists(),
            "a temporary table logs nothing"
        );
        assert_eq!(env.io_stats().wal_records, 0);
        drop(b);
        assert!(!dir.join("mv.dat").exists());
        assert!(!dir.join("mv.wal").exists());
    }

    /// Both backends fix a table's width with its first rows and reject a
    /// batch of another width before anything changes; a reopened paged
    /// table recovers the width from its pages.
    #[test]
    fn a_batch_of_another_width_is_rejected_by_both_backends() {
        let dir = std::env::temp_dir().join(format!("pop-paged-test-width-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = env_with(512, Some(dir.clone()));
        let paged = PagedBackend::create(Arc::clone(&env), "t", false).unwrap();
        let (mem, zero) = (MemBackend::new(env.layout()), MemBackend::new(env.layout()));
        let one = crate::columns_of(&[vec![Value::Int(7)]]);
        for b in [&paged as &dyn StorageBackend, &mem] {
            append(b, 0, 3).unwrap();
            let err = b.append(&one, 1).unwrap_err();
            assert!(
                err.to_string().contains("batch has 1 columns, the table 2"),
                "{err}"
            );
            assert_eq!((b.row_count(), b.page_count()), (3, 1));
            assert_eq!(stored(b), rows(0, 3));
        }
        zero.append(&[], 4).unwrap();
        assert!(zero.append(&one, 1).is_err(), "a table without columns");
        paged.checkpoint().unwrap();
        drop(paged);
        let paged = PagedBackend::open(&env, "t").unwrap();
        assert!(
            paged.append(&one, 1).is_err(),
            "width recovered from the pages"
        );
        append(&paged, 3, 5).unwrap();
        assert_eq!(stored(&paged), rows(0, 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file of an older meta version is refused by name: version 1
    /// (slotted row pages) and version 2 (a key column for a B+tree).
    #[test]
    fn column_page_version_1_file_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("pop-paged-test-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = env_with(512, Some(dir.clone()));
        {
            let b = PagedBackend::create(Arc::clone(&env), "t", false).unwrap();
            append(&b, 0, 10).unwrap();
            b.checkpoint().unwrap();
        }
        let path = dir.join("t.dat");
        let current = std::fs::read(&path).unwrap();
        for version in [1u16, 2] {
            let mut bytes = current.clone();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = PagedBackend::open(&env, "t").unwrap_err();
            let want = format!("page format version {version}, this build reads 3");
            assert!(err.to_string().contains(&want), "{err}");
        }
        std::fs::write(&path, &current).unwrap();
        assert_eq!(stored(&PagedBackend::open(&env, "t").unwrap()), rows(0, 10));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
