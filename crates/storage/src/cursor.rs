//! Backend-neutral access paths: sequential cursors and positional
//! fetchers.
//!
//! Both backends serve the same two shapes the executor needs — "next
//! chunk of at most N rows" for scans and "the row at position P" for
//! index fetches and join probes — with identical chunk boundaries and
//! identical *logical* page-touch counts (the mem backend counts virtual
//! pages with the same packing rule the paged backend uses for real
//! ones). Only the physical behaviour differs: the mem paths are
//! zero-copy slices, the paged paths read through the buffer pool and
//! decode, in place into rows they reuse, only the columns the reader
//! names with `.project(cols)`.
//!
//! The read-set contract: rows always have the table's full width, so
//! predicates and projections stay bound against the table schema, but
//! *columns outside the projection are unspecified (NULL on paged, the
//! stored value on mem) and must not be read*.

use crate::backend::StorageBackend;
use crate::mem::MemBackend;
use crate::page::ColumnSet;
use pop_types::{PopResult, Row};
use std::cell::RefCell;
use std::sync::Arc;

#[derive(Debug)]
enum CursorSrc {
    /// Zero-copy: chunks are sub-slices of the snapshot.
    Mem(Arc<Vec<Row>>),
    /// Chunks are decoded from data pages via the buffer pool.
    Paged(Arc<dyn StorageBackend>),
}

/// One chunk of a sequential scan.
#[derive(Debug)]
pub struct CursorChunk<'a> {
    /// Position of the first row of the chunk.
    pub start: u64,
    /// The rows (never empty).
    pub rows: &'a [Row],
    /// Pages this chunk touched that the cursor had not already counted
    /// — identical across backends for identical contents; multiply by
    /// the cost model's page-I/O weight to charge it.
    pub new_pages: u64,
}

/// Sequential cursor over a row range `[pos, end)` of one backend.
///
/// Each call yields `min(max, remaining)` rows, so batch traces are
/// byte-identical whether the table is in memory or on pages.
#[derive(Debug)]
pub struct TableCursor {
    src: CursorSrc,
    backend: Arc<dyn StorageBackend>,
    pos: u64,
    end: u64,
    /// Last page already counted into `new_pages` (watermark).
    counted: Option<u64>,
    /// Columns the paged path decodes (all of them until `project`).
    cols: ColumnSet,
    /// Decode scratch for the paged path: the rows are overwritten in
    /// place chunk after chunk.
    buf: Vec<Row>,
}

impl TableCursor {
    /// Cursor over rows `[lo, hi)` (clamped to the backend's row count)
    /// of `backend`.
    pub fn over(backend: Arc<dyn StorageBackend>, lo: u64, hi: u64) -> PopResult<Self> {
        let n = backend.row_count();
        let (lo, hi) = (lo.min(n), hi.min(n));
        let src = match backend.as_any().downcast_ref::<MemBackend>() {
            Some(mem) => CursorSrc::Mem(mem.rows()),
            None => CursorSrc::Paged(Arc::clone(&backend)),
        };
        Ok(TableCursor {
            src,
            backend,
            pos: lo,
            end: hi,
            counted: None,
            cols: ColumnSet::all(),
            buf: Vec::new(),
        })
    }

    /// Read only the table columns `cols`: every other column of a chunk's
    /// rows is unspecified and must not be read.
    pub fn project(mut self, cols: impl IntoIterator<Item = usize>) -> Self {
        self.cols = ColumnSet::of(cols);
        self
    }

    /// Next position the cursor will read (for stride/sample callers that
    /// steer the cursor themselves).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Move the cursor to `pos` (clamped to the range end).
    pub fn seek(&mut self, pos: u64) {
        self.pos = pos.min(self.end);
    }

    /// Rows remaining.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }

    /// The next chunk of at most `max` rows (`max` of 0 is treated as 1),
    /// or `None` at the end of the range.
    pub fn next_chunk(&mut self, max: usize) -> PopResult<Option<CursorChunk<'_>>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let start = self.pos;
        let take = (max.max(1) as u64).min(self.end - start);
        self.pos = start + take;

        // Logical page accounting (backend-invariant): pages covered by
        // [start, start+take), minus the watermarked page if this chunk
        // continues it.
        let first_page = self.backend.page_of_row(start);
        let last_page = self.backend.page_of_row(start + take - 1);
        let new_pages = match self.counted {
            Some(w) if w == first_page => last_page - first_page,
            _ => last_page - first_page + 1,
        };
        self.counted = Some(last_page);

        let rows: &[Row] = match &self.src {
            CursorSrc::Mem(snap) => &snap[start as usize..(start + take) as usize],
            CursorSrc::Paged(b) => {
                b.read_range(start, start + take, &self.cols, &mut self.buf)?;
                &self.buf
            }
        };
        Ok(Some(CursorChunk {
            start,
            rows,
            new_pages,
        }))
    }
}

#[derive(Debug)]
enum FetchSrc {
    Mem(Arc<Vec<Row>>),
    Paged(Arc<dyn StorageBackend>),
}

/// Positional row access for index fetches and join probes.
///
/// The mem path hands out `&Row` straight from the snapshot; the paged
/// path decodes the projected columns of the row from its page (through
/// the buffer pool) into one scratch row it reuses for every fetch. Both
/// skip positions past the end of the backend — an index can briefly
/// trail the snapshot it is paired with.
#[derive(Debug)]
pub struct RowFetcher {
    src: FetchSrc,
    len: u64,
    backend: Arc<dyn StorageBackend>,
    /// Columns the paged path decodes (all of them until `project`).
    cols: ColumnSet,
    /// The paged path's decode scratch, lent to the visitor.
    scratch: RefCell<Row>,
}

impl RowFetcher {
    /// A fetcher over the backend's current rows.
    pub fn over(backend: Arc<dyn StorageBackend>) -> Self {
        let len = backend.row_count();
        let src = match backend.as_any().downcast_ref::<MemBackend>() {
            Some(mem) => FetchSrc::Mem(mem.rows()),
            None => FetchSrc::Paged(Arc::clone(&backend)),
        };
        RowFetcher {
            src,
            len,
            backend,
            cols: ColumnSet::all(),
            scratch: RefCell::default(),
        }
    }

    /// Read only the table columns `cols`: every other column of a visited
    /// row is unspecified and must not be read.
    pub fn project(mut self, cols: impl IntoIterator<Item = usize>) -> Self {
        self.cols = ColumnSet::of(cols);
        self
    }

    /// Row count the fetcher was opened over.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the backend had no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical page of position `pos` (for random-I/O accounting).
    pub fn page_of(&self, pos: u64) -> u64 {
        self.backend.page_of_row(pos)
    }

    /// Visit the rows at `positions` in order, skipping positions past
    /// the end. The visitor returns `false` to stop early (semi-join
    /// probes stop at the first match).
    pub fn for_each(
        &self,
        positions: &[u64],
        mut visit: impl FnMut(u64, &Row) -> PopResult<bool>,
    ) -> PopResult<()> {
        match &self.src {
            FetchSrc::Mem(snap) => {
                for &p in positions {
                    if let Some(row) = snap.get(p as usize) {
                        if !visit(p, row)? {
                            return Ok(());
                        }
                    }
                }
            }
            FetchSrc::Paged(b) => {
                // A visitor that fetched through this fetcher again would
                // find the scratch row taken: that is a bug, and panics.
                let mut row = self.scratch.borrow_mut();
                for &p in positions {
                    if p >= self.len {
                        continue;
                    }
                    b.row_at(p, &self.cols, &mut row)?;
                    if !visit(p, &row)? {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{StorageConfig, StorageEnv};
    use crate::paged::PagedBackend;
    use pop_types::Value;

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("payload {i}"))])
            .collect()
    }

    fn both_backends(n: i64) -> (Arc<dyn StorageBackend>, Arc<dyn StorageBackend>) {
        let env = Arc::new(StorageEnv::new(StorageConfig {
            page_size: 512,
            ..StorageConfig::paged()
        }));
        let mem = MemBackend::with_rows(env.layout(), rows(n)).unwrap();
        let paged = PagedBackend::create(env, "t", true).unwrap();
        paged.append(rows(n)).unwrap();
        (Arc::new(mem), Arc::new(paged))
    }

    /// `rows` restricted to `cols`: what a projected reader may compare.
    fn on_cols(rows: &[Row], cols: &[usize]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
            .collect()
    }

    #[test]
    fn chunk_boundaries_and_page_touches_match_across_backends() {
        let (mem, paged) = both_backends(300);
        for cols in [vec![0, 1], vec![0], vec![1], vec![]] {
            for max in [1usize, 7, 64, 1024] {
                let mut a = TableCursor::over(Arc::clone(&mem), 0, u64::MAX)
                    .unwrap()
                    .project(cols.clone());
                let mut b = TableCursor::over(Arc::clone(&paged), 0, u64::MAX)
                    .unwrap()
                    .project(cols.clone());
                let mut total_pages = (0u64, 0u64);
                loop {
                    let (ca, cb) = (a.next_chunk(max).unwrap(), b.next_chunk(max).unwrap());
                    match (ca, cb) {
                        (None, None) => break,
                        (Some(ca), Some(cb)) => {
                            let at = format!("cols={cols:?} max={max} start={}", ca.start);
                            assert_eq!(ca.start, cb.start, "{at}");
                            assert_eq!(ca.rows.len(), cb.rows.len(), "{at}");
                            // Full-width rows on both; equal where projected.
                            assert!(cb.rows.iter().all(|r| r.len() == 2), "{at}");
                            assert_eq!(on_cols(ca.rows, &cols), on_cols(cb.rows, &cols), "{at}");
                            assert_eq!(ca.new_pages, cb.new_pages, "{at}");
                            total_pages.0 += ca.new_pages;
                            total_pages.1 += cb.new_pages;
                        }
                        _ => panic!("cursor lengths diverged at max={max}"),
                    }
                }
                // A full scan counts every page exactly once.
                assert_eq!(total_pages.0, mem.page_count(), "max={max}");
                assert_eq!(total_pages.1, paged.page_count(), "max={max}");
            }
        }
    }

    #[test]
    fn fetcher_parity_on_the_projected_columns() {
        let (mem, paged) = both_backends(300);
        let positions: Vec<u64> = (0..300).rev().step_by(7).chain([299, 0, 300, 12]).collect();
        for cols in [vec![0, 1], vec![0], vec![1], vec![]] {
            let visit = |b: &Arc<dyn StorageBackend>| {
                let f = RowFetcher::over(Arc::clone(b)).project(cols.clone());
                let mut seen = Vec::new();
                f.for_each(&positions, |p, row| {
                    assert_eq!(row.len(), 2, "full-width row");
                    seen.push((p, cols.iter().map(|&c| row[c].clone()).collect::<Vec<_>>()));
                    Ok(true)
                })
                .unwrap();
                seen
            };
            assert_eq!(visit(&mem), visit(&paged), "cols={cols:?}");
        }
    }

    #[test]
    fn partition_ranges_cover_without_double_counting_rows() {
        let (_, paged) = both_backends(100);
        let mut got = Vec::new();
        for part in 0..4u64 {
            let (lo, hi) = (part * 100 / 4, (part + 1) * 100 / 4);
            let mut c = TableCursor::over(Arc::clone(&paged), lo, hi).unwrap();
            while let Some(ch) = c.next_chunk(16).unwrap() {
                got.extend_from_slice(ch.rows);
            }
        }
        assert_eq!(got, rows(100));
    }

    #[test]
    fn fetcher_visits_and_stops_early() {
        let (mem, paged) = both_backends(50);
        for b in [mem, paged] {
            let f = RowFetcher::over(b);
            assert_eq!(f.len(), 50);
            let mut seen = Vec::new();
            f.for_each(&[3, 99, 7, 11], |p, row| {
                seen.push((p, row[0].clone()));
                Ok(seen.len() < 2) // stop after two visits
            })
            .unwrap();
            assert_eq!(
                seen,
                vec![(3, Value::Int(3)), (7, Value::Int(7))],
                "out-of-range skipped, early stop honoured"
            );
        }
    }
}
