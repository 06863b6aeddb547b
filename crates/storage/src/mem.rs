//! The in-memory backend: `Arc<Vec<Row>>` snapshots plus a *virtual*
//! page map.
//!
//! The map assigns every row to a page with the same greedy packing rule
//! the paged backend uses for real pages, so `page_count` and
//! `page_of_row` — and everything built on them: `TableStats::pages`,
//! page-aware cost estimates, the runtime's logical page-touch charges —
//! are identical across backends for identical contents. Only the bytes
//! are fictional.

use crate::backend::StorageBackend;
use crate::page::{encoded_row_len, ColumnSet, PageLayout};
use parking_lot::RwLock;
use pop_types::{PopError, PopResult, Row};
use std::sync::Arc;

#[derive(Debug, Default)]
struct MemInner {
    rows: Arc<Vec<Row>>,
    /// Position of the first row of each virtual page.
    page_starts: Vec<u64>,
    /// Rows on the (virtual) tail page.
    tail_slots: usize,
    /// Encoded row bytes on the tail page.
    tail_bytes: usize,
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

    /// A backend holding `rows`. Errors if a single row exceeds the page
    /// size (the paged backend could not store it either).
    pub fn with_rows(layout: PageLayout, rows: Vec<Row>) -> PopResult<Self> {
        let b = MemBackend::new(layout);
        b.append(rows)?;
        Ok(b)
    }

    /// Zero-copy handle on the current rows (the mem fast path cursors
    /// slice into this without decoding anything).
    pub fn rows(&self) -> Arc<Vec<Row>> {
        Arc::clone(&self.inner.read().rows)
    }
}

impl StorageBackend for MemBackend {
    fn row_count(&self) -> u64 {
        self.inner.read().rows.len() as u64
    }

    fn page_count(&self) -> u64 {
        self.inner.read().page_starts.len() as u64
    }

    fn layout(&self) -> PageLayout {
        self.layout
    }

    fn append(&self, rows: Vec<Row>) -> PopResult<u64> {
        let mut inner = self.inner.write();
        let start = inner.rows.len() as u64;
        // Extend the virtual page map exactly as DataPage::push would.
        for (i, row) in rows.iter().enumerate() {
            let len = encoded_row_len(row);
            if !self.layout.row_fits_page(len) {
                return Err(PopError::Execution(format!(
                    "row of {len} encoded bytes exceeds the {}-byte page size",
                    self.layout.page_size
                )));
            }
            if inner.page_starts.is_empty()
                || !self.layout.fits(inner.tail_slots, inner.tail_bytes, len)
            {
                inner.page_starts.push(start + i as u64);
                inner.tail_slots = 0;
                inner.tail_bytes = 0;
            }
            inner.tail_slots += 1;
            inner.tail_bytes += len;
        }
        Arc::make_mut(&mut inner.rows).extend(rows);
        Ok(start)
    }

    fn snapshot(&self) -> PopResult<Arc<Vec<Row>>> {
        Ok(self.rows())
    }

    // The column set is ignored on both reads: whole rows are already in
    // memory (cursors and fetchers skip these copies and slice `rows()`).
    fn read_range(&self, lo: u64, hi: u64, _cols: &ColumnSet, out: &mut Vec<Row>) -> PopResult<()> {
        let inner = self.inner.read();
        let hi = hi.min(inner.rows.len() as u64);
        let (lo, hi) = (lo.min(hi) as usize, hi as usize);
        out.clear();
        out.extend_from_slice(&inner.rows[lo..hi]);
        Ok(())
    }

    fn row_at(&self, pos: u64, _cols: &ColumnSet, row: &mut Row) -> PopResult<()> {
        let inner = self.inner.read();
        let stored = inner.rows.get(pos as usize).ok_or_else(|| {
            PopError::Execution(format!(
                "row {pos} out of range ({} rows)",
                inner.rows.len()
            ))
        })?;
        row.clone_from(stored);
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

    fn checkpoint(&self) -> PopResult<()> {
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DataPage;
    use pop_types::Value;

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("payload {i}"))])
            .collect()
    }

    #[test]
    fn virtual_map_matches_real_page_builder() {
        let layout = PageLayout::new(512);
        let mem = MemBackend::with_rows(layout, rows(500)).unwrap();
        // Pack the same rows into real pages and compare the map.
        let mut starts = Vec::new();
        let mut page: Option<DataPage> = None;
        for (i, row) in rows(500).iter().enumerate() {
            let full = match page.as_mut() {
                None => true,
                Some(p) => !p.push(row).unwrap(),
            };
            if full {
                let mut p = DataPage::new(layout, i as u64);
                assert!(p.push(row).unwrap());
                page = Some(p);
                starts.push(i as u64);
            }
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
        let bulk = MemBackend::with_rows(layout, rows(300)).unwrap();
        let inc = MemBackend::new(layout);
        for chunk in rows(300).chunks(7) {
            inc.append(chunk.to_vec()).unwrap();
        }
        assert_eq!(bulk.page_count(), inc.page_count());
        for pos in 0..300u64 {
            assert_eq!(bulk.page_of_row(pos), inc.page_of_row(pos), "row {pos}");
        }
    }

    #[test]
    fn read_range_and_row_at() {
        let mem = MemBackend::with_rows(PageLayout::default(), rows(20)).unwrap();
        let mut out = Vec::new();
        mem.read_range(5, 9, &ColumnSet::all(), &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0][0], Value::Int(5));
        let mut row = Row::new();
        mem.row_at(19, &ColumnSet::all(), &mut row).unwrap();
        assert_eq!(row[0], Value::Int(19));
        assert!(mem.row_at(20, &ColumnSet::all(), &mut row).is_err());
    }

    #[test]
    fn oversized_row_rejected() {
        let mem = MemBackend::new(PageLayout::new(512));
        let err = mem
            .append(vec![vec![Value::str("x".repeat(2000))]])
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
