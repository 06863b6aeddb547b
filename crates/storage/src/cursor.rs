//! Backend-neutral access paths: sequential cursors and positional
//! fetchers, both yielding typed columns.
//!
//! Both backends serve the same two shapes the executor needs — "next
//! chunk of at most N rows" for scans and "the rows at positions P…" for
//! index fetches and join probes — as one view: table-width
//! [`Column`]s plus the indices of the rows asked for. Chunk boundaries
//! and *logical* page-touch counts are identical across backends (the mem
//! backend counts virtual pages with the same packing rule the paged
//! backend uses for real ones). Only where the columns come from differs:
//! the mem paths hand out the stored columns themselves (a chunk's rows
//! sit at their table positions), the paged paths read through the buffer
//! pool and decode, into scratch columns they reuse, only the columns the
//! reader names with `.project(cols)` (a chunk's rows at `0..n`).
//!
//! The read-set contract: the columns always have the table's width, so
//! predicates and projections stay bound against the table schema, but
//! *columns outside the projection are unspecified (empty on paged, the
//! stored values on mem) and must not be read*.

use crate::backend::StorageBackend;
use crate::page::ColumnSet;
use pop_types::column::Column;
use pop_types::PopResult;
use std::ops::Range;
use std::sync::Arc;

/// One chunk of a sequential scan.
#[derive(Debug)]
pub struct CursorChunk<'a> {
    /// Position of the first row of the chunk.
    pub start: u64,
    /// Table-width columns holding the chunk.
    pub cols: &'a [Column],
    /// Indices of the chunk's rows in `cols` (never empty): row
    /// `rows.start + k` is table position `start + k`.
    pub rows: Range<usize>,
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
    backend: Arc<dyn StorageBackend>,
    /// The stored columns, when the backend keeps them in memory.
    stored: Option<Arc<Vec<Column>>>,
    pos: u64,
    end: u64,
    /// Last page already counted into `new_pages` (watermark).
    counted: Option<u64>,
    /// Columns decoded from pages (all of them until `project`).
    cols: ColumnSet,
    /// Decode scratch of the paged path, refilled chunk after chunk.
    scratch: Vec<Column>,
}

impl TableCursor {
    /// Cursor over rows `[lo, hi)` (clamped to the backend's row count)
    /// of `backend`.
    pub fn over(backend: Arc<dyn StorageBackend>, lo: u64, hi: u64) -> PopResult<Self> {
        // Count first: a snapshot taken after holds at least these rows.
        let n = backend.row_count();
        let stored = backend.columns();
        let (lo, hi) = (lo.min(n), hi.min(n));
        Ok(TableCursor {
            backend,
            stored,
            pos: lo,
            end: hi,
            counted: None,
            cols: ColumnSet::all(),
            scratch: Vec::new(),
        })
    }

    /// Read only the table columns `cols`: every other column of a chunk
    /// is unspecified and must not be read.
    pub fn project(mut self, cols: impl IntoIterator<Item = usize>) -> Self {
        self.cols = ColumnSet::of(cols);
        self
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

        let (cols, first): (&[Column], usize) = if let Some(stored) = &self.stored {
            (stored, start as usize)
        } else {
            self.backend
                .read_range(start, start + take, &self.cols, &mut self.scratch)?;
            (&self.scratch, 0)
        };
        Ok(Some(CursorChunk {
            start,
            cols,
            rows: first..first + take as usize,
            new_pages,
        }))
    }
}

/// The rows a [`RowFetcher::fetch`] found, in the order asked for.
#[derive(Debug)]
pub struct FetchedRows<'a> {
    /// Table-width columns holding the rows.
    pub cols: &'a [Column],
    /// Index in `cols` of each row fetched.
    pub rows: &'a [u32],
    /// Table position of each row fetched (`rows[k]` holds position
    /// `positions[k]`).
    pub positions: &'a [u64],
}

impl FetchedRows<'_> {
    /// Table positions of the rows `kept`, a subsequence of
    /// [`FetchedRows::rows`] (what a filter left of them), in order.
    pub fn positions_of<'s>(&'s self, kept: &'s [u32]) -> impl ExactSizeIterator<Item = u64> + 's {
        let mut k = 0;
        kept.iter().map(move |row| {
            while self.rows[k] != *row {
                k += 1;
            }
            k += 1;
            self.positions[k - 1]
        })
    }
}

/// Positional row access for index fetches and join probes.
///
/// The mem path answers with the stored columns and the positions as row
/// indices. The paged path decodes the projected columns of each row from
/// its page (through the buffer pool) into scratch columns it reuses for
/// every fetch — unless a [`RowFetcher::prefetch`] already decoded the
/// positions asked for: list prefetch, a page read once for all the rows
/// a batch of probes wants from it, in page order. Both skip positions
/// past the end of the backend — an index can briefly trail the snapshot
/// it is paired with.
#[derive(Debug)]
pub struct RowFetcher {
    backend: Arc<dyn StorageBackend>,
    /// The stored columns, when the backend keeps them in memory.
    stored: Option<Arc<Vec<Column>>>,
    len: u64,
    /// Columns decoded from pages (all of them until `project`).
    cols: ColumnSet,
    /// Decode scratch of the paged path.
    scratch: Vec<Column>,
    /// The last fetch's row indices and positions.
    rows: Vec<u32>,
    positions: Vec<u64>,
    /// The last prefetch's positions, ascending and distinct; row `k` of
    /// `window` holds `window_pos[k]`.
    window_pos: Vec<u64>,
    window: Vec<Column>,
}

impl RowFetcher {
    /// A fetcher over the backend's current rows.
    pub fn over(backend: Arc<dyn StorageBackend>) -> Self {
        // Count first: a snapshot taken after holds at least these rows.
        let len = backend.row_count();
        RowFetcher {
            stored: backend.columns(),
            len,
            backend,
            cols: ColumnSet::all(),
            scratch: Vec::new(),
            rows: Vec::new(),
            positions: Vec::new(),
            window_pos: Vec::new(),
            window: Vec::new(),
        }
    }

    /// Read only the table columns `cols`: every other column of a fetch
    /// is unspecified and must not be read.
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

    /// Decode the rows at `positions` (any order, duplicates allowed,
    /// positions past the end dropped) for the fetches that follow: the
    /// positions are sorted and each page they fall on is read once, in
    /// page order ([`StorageBackend::read_rows`]). The decoded rows stay
    /// until the next prefetch replaces them. A no-op on a backend that
    /// keeps its columns in memory.
    pub fn prefetch(&mut self, positions: &[u64]) -> PopResult<()> {
        if self.stored.is_some() {
            return Ok(());
        }
        let len = self.len;
        self.window_pos.clear();
        self.window_pos
            .extend(positions.iter().copied().filter(|p| *p < len));
        self.window_pos.sort_unstable();
        self.window_pos.dedup();
        let read = self
            .backend
            .read_rows(&self.window_pos, &self.cols, &mut self.window);
        if read.is_err() {
            // A failed prefetch serves nothing.
            self.window_pos.clear();
        }
        read
    }

    /// Bytes the prefetched rows' decoded columns hold: what a caller
    /// keeping them resident reserves against its memory budget.
    pub fn prefetched_bytes(&self) -> u64 {
        self.window.iter().map(|c| c.bytes() as u64).sum()
    }

    /// The rows at `positions`, in that order, skipping positions past the
    /// end. When the last [`RowFetcher::prefetch`] covered every one of
    /// them, they are served from its rows without I/O; otherwise a paged
    /// table decodes exactly these rows, so a caller that stops early (a
    /// semi-join probe at its first match) fetches one position at a time.
    pub fn fetch(&mut self, positions: &[u64]) -> PopResult<FetchedRows<'_>> {
        let len = self.len;
        self.positions.clear();
        self.positions
            .extend(positions.iter().copied().filter(|p| *p < len));
        self.rows.clear();
        let cols: &[Column] = if let Some(stored) = &self.stored {
            // Stored positions fit a `u32` (the mem backend's limit).
            self.rows.extend(self.positions.iter().map(|p| *p as u32));
            stored
        } else if window_rows(&self.window_pos, &self.positions, &mut self.rows) {
            &self.window
        } else {
            self.rows.clear();
            self.cols.begin_refill_in(&mut self.scratch);
            for (k, p) in self.positions.iter().enumerate() {
                self.backend
                    .read_row(*p, &self.cols, &mut self.scratch, k)?;
                self.rows.push(k as u32);
            }
            self.cols
                .end_refill_in(&mut self.scratch, self.positions.len());
            &self.scratch
        };
        Ok(FetchedRows {
            cols,
            rows: &self.rows,
            positions: &self.positions,
        })
    }
}

/// The rows of a prefetch window (`window`: its positions, ascending) that
/// hold `positions`, pushed onto `rows`; `false` as soon as a position is
/// not in the window.
fn window_rows(window: &[u64], positions: &[u64], rows: &mut Vec<u32>) -> bool {
    positions.iter().all(|p| match window.binary_search(p) {
        Ok(k) => {
            rows.push(k as u32);
            true
        }
        Err(_) => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{StorageConfig, StorageEnv};
    use crate::mem::MemBackend;
    use crate::paged::PagedBackend;
    use pop_types::{Row, Value};

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
        let mem = MemBackend::new(env.layout());
        let paged = PagedBackend::create(env, "t", true).unwrap();
        for b in [&mem as &dyn StorageBackend, &paged] {
            b.append(&crate::columns_of(&rows(n)), n as usize).unwrap();
        }
        (Arc::new(mem), Arc::new(paged))
    }

    /// The values of columns `cols` at row indices `at`: what a projected
    /// reader may compare.
    fn on_cols(
        table: &[Column],
        at: impl Iterator<Item = usize>,
        cols: &[usize],
    ) -> Vec<Vec<Value>> {
        at.map(|i| cols.iter().map(|&c| table[c].value(i)).collect())
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
                            // Stored columns hold the chunk at its table
                            // positions, scratch columns at 0..n.
                            assert_eq!(ca.rows.start as u64, ca.start, "{at}");
                            assert_eq!(cb.rows.start, 0, "{at}");
                            // Table-width columns on both; equal where
                            // projected.
                            assert_eq!((ca.cols.len(), cb.cols.len()), (2, 2), "{at}");
                            assert_eq!(
                                on_cols(ca.cols, ca.rows.clone(), &cols),
                                on_cols(cb.cols, cb.rows.clone(), &cols),
                                "{at}"
                            );
                            for c in 0..2 {
                                if !cols.contains(&c) {
                                    assert!(cb.cols[c].is_empty(), "{at}: column {c} decoded");
                                }
                            }
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
                let mut f = RowFetcher::over(Arc::clone(b)).project(cols.clone());
                // Two fetches through one fetcher: the second refills it.
                f.fetch(&positions[..5]).unwrap();
                let got = f.fetch(&positions).unwrap();
                assert_eq!(got.cols.len(), 2, "table-width columns");
                assert_eq!(got.rows.len(), got.positions.len());
                let rows = got.rows.iter().map(|r| *r as usize);
                got.positions
                    .iter()
                    .copied()
                    .zip(on_cols(got.cols, rows, &cols))
                    .collect::<Vec<_>>()
            };
            let seen = visit(&mem);
            assert_eq!(seen.len(), positions.len() - 1, "position 300 skipped");
            assert_eq!(seen, visit(&paged), "cols={cols:?}");
        }
    }

    #[test]
    fn sub_ranges_cover_the_table_once() {
        for backend in [both_backends(100).0, both_backends(100).1] {
            let mut got = Vec::new();
            for part in 0..4u64 {
                let (lo, hi) = (part * 100 / 4, (part + 1) * 100 / 4);
                let mut c = TableCursor::over(Arc::clone(&backend), lo, hi).unwrap();
                while let Some(ch) = c.next_chunk(16).unwrap() {
                    got.extend(on_cols(ch.cols, ch.rows.clone(), &[0, 1]));
                }
            }
            assert_eq!(got, rows(100));
        }
    }

    #[test]
    fn fetcher_visits_and_stops_early() {
        let (mem, paged) = both_backends(50);
        for b in [mem, paged] {
            let mut f = RowFetcher::over(b);
            assert_eq!(f.len(), 50);
            // A caller that stops at its second visit fetches one position
            // at a time: nothing past where it stopped is read.
            let mut seen = Vec::new();
            for p in [3, 99, 7, 11] {
                let got = f.fetch(&[p]).unwrap();
                for (r, p) in got.rows.iter().zip(got.positions) {
                    seen.push((*p, got.cols[0].value(*r as usize)));
                }
                if seen.len() == 2 {
                    break;
                }
            }
            assert_eq!(
                seen,
                vec![(3, Value::Int(3)), (7, Value::Int(7))],
                "out-of-range skipped, early stop honoured"
            );
            // The positions of the rows a filter keeps, duplicates included.
            let got = f.fetch(&[3, 99, 7, 11, 7]).unwrap();
            assert_eq!(got.positions, &[3, 7, 11, 7]);
            let kept: Vec<u32> = got
                .rows
                .iter()
                .copied()
                .filter(|r| matches!(got.cols[0].value(*r as usize), Value::Int(v) if v > 5))
                .collect();
            assert_eq!(got.positions_of(&kept).collect::<Vec<_>>(), [7, 11, 7]);
        }
    }
}
