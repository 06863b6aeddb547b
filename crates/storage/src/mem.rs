//! The in-memory backend: one typed [`Column`] per stored column behind an
//! `Arc` snapshot, plus a *virtual* page map.
//!
//! The map assigns every row to a page with the same greedy packing rule
//! the paged backend uses for real pages, so `page_count` and
//! `page_of_row` — and everything built on them: `TableStats::pages`,
//! page-aware cost estimates, the runtime's logical page-touch charges —
//! are identical across backends for identical contents. Only the bytes
//! are fictional.
//!
//! Readers take the columns as they are stored ([`StorageBackend::columns`]):
//! a scan filters and gathers from them in place, row `i` of the table at
//! index `i` of every column. An append extends each stored column with
//! the batch's column, one typed copy (a string's `Arc` is shared, not
//! copied); while a reader still holds the previous snapshot, the append
//! copies the columns first, so readers never see rows appear. The first
//! owned batch of an empty table ([`StorageBackend::append_owned`], a
//! promoted temp MV) is stored as it comes, without a copy.

use crate::backend::{check_append, StorageBackend};
use crate::page::{ColumnSet, PageFill, PageLayout};
use parking_lot::RwLock;
use pop_types::column::Column;
use pop_types::{PopError, PopResult};
use std::sync::Arc;

#[derive(Debug, Default)]
struct MemInner {
    /// One column per stored column, each `rows` long.
    cols: Arc<Vec<Column>>,
    /// Rows stored (the columns' length; also right for a table without
    /// columns).
    rows: usize,
    /// Position of the first row of each virtual page.
    page_starts: Vec<u64>,
    /// The (virtual) tail page's fill.
    fill: PageFill,
}

/// In-memory table storage.
#[derive(Debug)]
pub struct MemBackend {
    layout: PageLayout,
    inner: RwLock<MemInner>,
}

impl MemBackend {
    /// An empty backend with `layout`'s (virtual) page geometry.
    pub fn new(layout: PageLayout) -> Self {
        MemBackend {
            layout,
            inner: RwLock::new(MemInner::default()),
        }
    }
}

impl StorageBackend for MemBackend {
    fn row_count(&self) -> u64 {
        self.inner.read().rows as u64
    }

    fn page_count(&self) -> u64 {
        self.inner.read().page_starts.len() as u64
    }

    fn layout(&self) -> PageLayout {
        self.layout
    }

    fn append(&self, cols: &[Column], rows: usize) -> PopResult<u64> {
        let mut inner = self.inner.write();
        let start = inner.rows;
        let width = (start > 0).then_some(inner.cols.len());
        let lens = check_append(self.layout, start as u64, width, cols, rows)?;
        if rows == 0 {
            return Ok(start as u64);
        }
        // Extend the virtual page map by the paged backend's rule.
        for (i, len) in lens.into_iter().enumerate() {
            if inner.fill.push(self.layout, len) {
                inner.page_starts.push((start + i) as u64);
            }
        }
        let stored = Arc::make_mut(&mut inner.cols);
        if stored.len() < cols.len() {
            stored.resize_with(cols.len(), Column::default);
        }
        for (s, c) in stored.iter_mut().zip(cols) {
            s.extend_gather(c, 0..rows, rows);
        }
        inner.rows += rows;
        Ok(start as u64)
    }

    /// An empty table keeps the columns: the first batch becomes the
    /// stored columns, moved, not copied.
    fn append_owned(&self, cols: Vec<Column>, rows: usize) -> PopResult<u64> {
        {
            let mut inner = self.inner.write();
            if inner.rows == 0 && rows > 0 {
                let lens = check_append(self.layout, 0, None, &cols, rows)?;
                for (i, len) in lens.into_iter().enumerate() {
                    if inner.fill.push(self.layout, len) {
                        inner.page_starts.push(i as u64);
                    }
                }
                inner.cols = Arc::new(cols);
                inner.rows = rows;
                return Ok(0);
            }
        }
        self.append(&cols, rows)
    }

    fn columns(&self) -> Option<Arc<Vec<Column>>> {
        Some(Arc::clone(&self.inner.read().cols))
    }

    // The mem paths read the stored columns directly (`columns`); these
    // copies serve the trait's other readers.
    fn read_range(
        &self,
        lo: u64,
        hi: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
    ) -> PopResult<()> {
        let inner = self.inner.read();
        let hi = hi.min(inner.rows as u64);
        let (lo, hi) = (lo.min(hi) as usize, hi as usize);
        if out.len() < inner.cols.len() {
            out.resize_with(inner.cols.len(), Column::default);
        }
        for (c, (o, stored)) in out.iter_mut().zip(inner.cols.iter()).enumerate() {
            if cols.contains(c) {
                o.clear();
                o.extend_gather(stored, lo..hi, hi - lo);
            }
        }
        Ok(())
    }

    fn read_row(
        &self,
        pos: u64,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
        row: usize,
    ) -> PopResult<()> {
        let inner = self.inner.read();
        if pos >= inner.rows as u64 {
            return Err(PopError::Execution(format!(
                "row {pos} out of range ({} rows)",
                inner.rows
            )));
        }
        for (c, stored) in inner.cols.iter().enumerate() {
            if c == out.len() {
                out.push(Column::default());
                if cols.contains(c) {
                    (0..row).for_each(|i| out[c].put_null(i));
                }
            }
            if cols.contains(c) {
                out[c].truncate(row);
                out[c].push_from(stored, pos as usize, 0);
            }
        }
        Ok(())
    }

    fn page_of_row(&self, pos: u64) -> u64 {
        let inner = self.inner.read();
        // Last page whose first row is <= pos.
        (inner.page_starts.partition_point(|&s| s <= pos).max(1) - 1) as u64
    }

    fn is_paged(&self) -> bool {
        false
    }

    /// Nothing to make durable; a loaded table gives back the spare
    /// capacity its columns grew while it was appended to.
    fn checkpoint(&self) -> PopResult<()> {
        if let Some(cols) = Arc::get_mut(&mut self.inner.write().cols) {
            cols.iter_mut().for_each(Column::shrink_to_fit);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use crate::page::{encoded_row_lens, DataPage};
    use pop_types::{Row, Value};

    /// Rows `lo..hi` of the `(i, "payload i")` test table, as columns.
    fn batch(lo: i64, hi: i64) -> Vec<Column> {
        let rows: Vec<Row> = (lo..hi)
            .map(|i| vec![Value::Int(i), Value::str(format!("payload {i}"))])
            .collect();
        columns_of(&rows)
    }

    fn loaded(layout: PageLayout, n: i64) -> MemBackend {
        let mem = MemBackend::new(layout);
        mem.append(&batch(0, n), n as usize).unwrap();
        mem
    }

    fn values(cols: &[Column], i: usize) -> Row {
        cols.iter().map(|c| c.value(i)).collect()
    }

    #[test]
    fn virtual_map_matches_real_page_builder() {
        let layout = PageLayout::new(512);
        let mem = loaded(layout, 500);
        // The rule spelled out with `fits`; each page it packs is then
        // built for real and encodes within the page.
        let (cols, mut starts) = (batch(0, 500), Vec::new());
        let (mut slots, mut bytes) = (0, 0);
        for (i, len) in encoded_row_lens(&cols, 500).into_iter().enumerate() {
            if slots == 0 || !layout.fits(slots, bytes, len) {
                starts.push(i as u64);
                (slots, bytes) = (0, 0);
            }
            slots += 1;
            bytes += len;
        }
        let ends = starts.iter().skip(1).copied().chain([500]);
        for (lo, hi) in starts.iter().zip(ends) {
            let mut page = DataPage::new(*lo);
            page.extend(&cols, *lo as usize..hi as usize);
            page.to_bytes(layout.page_size).unwrap();
        }
        assert_eq!(mem.page_count(), starts.len() as u64);
        for (p, &s) in starts.iter().enumerate() {
            assert_eq!(mem.page_of_row(s), p as u64, "first row of page {p}");
            if p + 1 < starts.len() {
                assert_eq!(mem.page_of_row(starts[p + 1] - 1), p as u64);
            }
        }
    }

    #[test]
    fn incremental_append_equals_bulk_map() {
        let layout = PageLayout::new(512);
        let bulk = loaded(layout, 300);
        let inc = MemBackend::new(layout);
        for lo in (0..300).step_by(7) {
            let hi = (lo + 7).min(300);
            inc.append(&batch(lo, hi), (hi - lo) as usize).unwrap();
        }
        assert_eq!(bulk.page_count(), inc.page_count());
        for pos in 0..300u64 {
            assert_eq!(bulk.page_of_row(pos), inc.page_of_row(pos), "row {pos}");
        }
    }

    #[test]
    fn rows_are_stored_as_typed_columns() {
        let mem = loaded(PageLayout::default(), 20);
        let cols = mem.columns().unwrap();
        assert_eq!(cols.len(), 2);
        assert!(matches!(cols[0].data(), pop_types::column::Data::Int(v) if v.len() == 20));
        assert!(matches!(cols[1].data(), pop_types::column::Data::Str(v) if v.len() == 20));
        assert_eq!(values(&cols, 7), values(&batch(7, 8), 0));
        // An append after a reader took the columns leaves its snapshot
        // as it was.
        mem.append(&batch(0, 3), 3).unwrap();
        assert_eq!((cols[0].len(), mem.row_count()), (20, 23));
        assert_eq!(mem.columns().unwrap()[0].value(22), Value::Int(2));
    }

    #[test]
    fn read_range_and_row_at() {
        let mem = loaded(PageLayout::default(), 20);
        let mut out = Vec::new();
        mem.read_range(5, 9, &ColumnSet::all(), &mut out).unwrap();
        assert_eq!(out[0].len(), 4);
        assert_eq!(values(&out, 0), values(&batch(5, 6), 0));
        mem.read_range(18, 99, &ColumnSet::of([1]), &mut out)
            .unwrap();
        assert_eq!(
            (out[1].len(), out[1].value(1)),
            (2, Value::str("payload 19"))
        );
        let mut one = Vec::new();
        mem.read_row(19, &ColumnSet::all(), &mut one, 0).unwrap();
        mem.read_row(3, &ColumnSet::all(), &mut one, 1).unwrap();
        assert_eq!(
            (values(&one, 0), values(&one, 1)),
            (values(&batch(19, 20), 0), values(&batch(3, 4), 0))
        );
        assert!(mem.read_row(20, &ColumnSet::all(), &mut one, 2).is_err());
    }

    #[test]
    fn oversized_row_rejected() {
        let mem = MemBackend::new(PageLayout::new(512));
        let mut big = Column::default();
        big.push_value(Value::str("x".repeat(2000)), 0);
        let err = mem.append(&[big], 1).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert_eq!((mem.row_count(), mem.page_count()), (0, 0));
        mem.append(&batch(0, 2), 2).unwrap();
        let err = mem.append(&batch(0, 1), 2).unwrap_err();
        assert!(err.to_string().contains("holds 1 rows"), "{err}");
        assert_eq!((mem.row_count(), mem.page_count()), (2, 1));
        // A table without columns holds rows too.
        let zero = MemBackend::new(PageLayout::new(512));
        zero.append(&[], 7).unwrap();
        assert_eq!((zero.row_count(), zero.page_count()), (7, 1));
    }
}
