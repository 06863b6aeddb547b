//! Batches of rows flowing between operators.
//!
//! The engine moves data in chunks of up to [`ExecCtx::batch_size`]
//! (default [`DEFAULT_BATCH_SIZE`]) rows instead of one row per `next()`
//! call. A [`RowBatch`] carries the column values and, when the run
//! carries lineage, the base-row rids of every row, plus an optional
//! **selection vector**: filtering
//! operators (predicates, HAVING, the ECDC anti-join) drop rows by
//! shrinking the selection instead of copying the survivors, so a batch
//! flows through a pipeline with zero per-row allocation until something
//! actually needs to restructure it.
//!
//! Storage is column-major and typed: one vector per layout position, typed
//! by the values it holds (`i64`, `f64`, `i32` dates, `bool`, strings as
//! offsets into one byte buffer, or `Value` for a column that really mixes
//! types), with a NULL bitmap allocated on the first NULL (see
//! [`pop_types::column`]). Lineage is one flat `Rid` vector with the same
//! number of rids for every row of a batch. A batch of 1024 rows costs one
//! allocation per column (two for a string column) plus one for lineage;
//! owned `Row`s exist only at the result boundary
//! ([`RowBatch::row_at`]).
//!
//! Lineage exists only where something reads it — ECDC's deferred
//! compensation and INSERT's exactly-once side effect. The driver decides
//! once per query ([`ExecCtx::lineage`]); without it the storage leaves
//! emit lineage width 0, and joins, appends, copies and harvests then
//! carry no rids and allocate no lineage vector.
//!
//! The same container, grown with [`RowBatch::append`], is the buffer
//! behind every materialization (hash-join build, SORT, TEMP): rows are
//! addressed by index and copied out, a column at a time, with
//! [`RowBatch::copy_rows`].
//!
//! Invariants relied on across the engine:
//! * a selection vector is strictly increasing (preserves row order);
//! * operators never emit an all-dead batch — `next_batch` returns `None`
//!   at end of stream instead;
//! * every row in a batch has the same number of values (`width`) and of
//!   lineage rids;
//! * batch boundaries are *not* semantically meaningful: any re-chunking
//!   of the same row stream is equivalent (checked by the equivalence
//!   suite, which runs every query at several batch sizes).
//!
//! [`ExecCtx::batch_size`]: crate::ExecCtx::batch_size
//! [`ExecCtx::lineage`]: crate::ExecCtx::lineage

use pop_types::column::{Cell, Column};
use pop_types::{Rid, Row, Value};

/// Default number of rows per batch ([`ExecCtx::batch_size`] overrides it
/// per run; the driver sets it from `PopConfig::batch_size`).
///
/// [`ExecCtx::batch_size`]: crate::ExecCtx::batch_size
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The input of a join an output column is gathered from: a join's
/// output column list pairs each column with its side and its position
/// in that input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// An HSJN's build, an NLJN's outer, an MGJN's left input.
    Left,
    /// An HSJN's probe, an NLJN's inner table, an MGJN's right input.
    Right,
}

/// One input of a join's output gather ([`RowBatch::extend_joined`]).
pub(crate) struct JoinInput<'a, I> {
    /// The input's columns: a batch's, or a table's as fetched.
    pub(crate) cols: &'a [Column],
    /// The input row each output row reads.
    pub(crate) rows: I,
}

/// A chunk of rows with lineage and an optional selection vector.
///
/// Rows at positions absent from the selection are *dead*: they are
/// skipped by every consumer and dropped on [`RowBatch::compact`]. When
/// `sel` is `None` every row is live.
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    /// One column per layout position, each `rows` long.
    cols: Vec<Column>,
    /// Physical row count (a batch may have no columns).
    rows: usize,
    /// Rids per row, the same for every row; set by the first push.
    lin_width: usize,
    /// Flat lineage: row `i` owns `lin[i*lin_width .. (i+1)*lin_width]`.
    lin: Vec<Rid>,
    sel: Option<Vec<u32>>,
    /// Rows a column vector is sized for when the batch creates it.
    cap: usize,
}

impl RowBatch {
    /// Empty batch.
    pub fn new() -> Self {
        RowBatch::default()
    }

    /// Empty batch with room for `n` rows (column vectors are sized when
    /// the first value of their type arrives).
    pub fn with_capacity(n: usize) -> Self {
        RowBatch {
            cap: n,
            ..RowBatch::default()
        }
    }

    /// The same batch, sizing column vectors it creates for `n` rows (a
    /// recycled batch: see [`crate::ExecCtx::recycle`]).
    pub(crate) fn with_cap(mut self, n: usize) -> Self {
        self.cap = n;
        self
    }

    /// Clear all contents while keeping the allocated capacity — the join
    /// operators' scratch batches.
    pub fn reset(&mut self) {
        self.cols.iter_mut().for_each(Column::clear);
        self.rows = 0;
        self.lin_width = 0;
        self.lin.clear();
        self.sel = None;
    }

    /// Shape the batch for rows of `width` values and `lin_width` rids:
    /// the first rows decide, later ones must agree.
    fn begin(&mut self, width: usize, lin_width: usize) {
        debug_assert!(self.sel.is_none(), "push into a filtered batch");
        if self.rows == 0 {
            self.cols.resize_with(width, Column::default);
            self.lin_width = lin_width;
            self.lin.reserve(self.cap * lin_width);
        } else {
            debug_assert_eq!(
                (width, lin_width),
                (self.cols.len(), self.lin_width),
                "row shape mismatch"
            );
        }
    }

    /// Append a live row. Must not be called once a selection exists
    /// (appended rows would be dead, which no producer intends).
    pub fn push_row(&mut self, values: &[Value], lineage: &[Rid]) {
        self.begin(values.len(), lineage.len());
        let cap = self.cap;
        for (c, v) in self.cols.iter_mut().zip(values) {
            c.push(v, cap);
        }
        self.lin.extend_from_slice(lineage);
        self.rows += 1;
    }

    /// Append the rows `rows` of the table-width columns `src` (a storage
    /// chunk or fetch), keeping the table columns `cols` in that order,
    /// with one `lineage` entry per row, in order, or none when the run
    /// carries no lineage — the storage leaves' copy-out, one typed gather
    /// per column: a column the plan's layout does not carry is never read.
    pub(crate) fn extend_columns<L: AsRef<[Rid]>>(
        &mut self,
        src: &[Column],
        cols: &[usize],
        rows: impl ExactSizeIterator<Item = usize> + Clone,
        lineage: Option<impl Iterator<Item = L>>,
    ) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        let mut lineage = lineage.map(Iterator::peekable);
        let lin_width = lineage
            .as_mut()
            .and_then(|l| l.peek().map(|l| l.as_ref().len()))
            .unwrap_or(0);
        self.begin(cols.len(), lin_width);
        let cap = self.cap.max(n);
        for (c, p) in self.cols.iter_mut().zip(cols) {
            c.extend_gather(&src[*p], rows.clone(), cap);
        }
        for (_, l) in rows.zip(lineage.into_iter().flatten()) {
            debug_assert_eq!(l.as_ref().len(), self.lin_width, "lineage width");
            self.lin.extend_from_slice(l.as_ref());
        }
        self.rows += n;
    }

    /// Append the rows `rows` of `src` (values and lineage), in that
    /// order, one typed copy per column.
    pub(crate) fn extend_from(
        &mut self,
        src: &RowBatch,
        rows: impl Iterator<Item = usize> + Clone,
    ) {
        let n = rows.clone().count();
        if n == 0 {
            return;
        }
        self.begin(src.cols.len(), src.lin_width);
        let cap = self.cap.max(n);
        for (c, s) in self.cols.iter_mut().zip(&src.cols) {
            c.extend_gather(s, rows.clone(), cap);
        }
        if src.lin_width > 0 {
            for i in rows {
                self.lin.extend_from_slice(src.lineage_at(i));
            }
        }
        self.rows += n;
    }

    /// Append row `i` of `src`.
    pub(crate) fn push_from(&mut self, src: &RowBatch, i: usize) {
        self.begin(src.cols.len(), src.lin_width);
        let cap = self.cap;
        for (c, s) in self.cols.iter_mut().zip(&src.cols) {
            c.push_from(s, i, cap);
        }
        self.lin.extend_from_slice(src.lineage_at(i));
        self.rows += 1;
    }

    /// Append the columns `cols` of row `i` of `src`, without lineage —
    /// the aggregate's key buffer.
    pub(crate) fn push_cols_from(&mut self, src: &RowBatch, i: usize, cols: &[usize]) {
        self.begin(cols.len(), 0);
        let cap = self.cap;
        for (c, p) in self.cols.iter_mut().zip(cols) {
            c.push_from(&src.cols[*p], i, cap);
        }
        self.rows += 1;
    }

    /// Append one joined row per pair of input rows: output column `k`
    /// gathered from the input and position `out[k]` names, at that
    /// input's rows, one typed gather per column, and — when `lineage` is
    /// given — each row's two lineage halves concatenated: the join
    /// operators' output. A join gathers only the columns read above it,
    /// so a column no one reads is never copied.
    pub(crate) fn extend_joined<'l, L, R>(
        &mut self,
        out: &[(JoinSide, usize)],
        left: JoinInput<'_, L>,
        right: JoinInput<'_, R>,
        lineage: Option<impl Iterator<Item = [&'l [Rid]; 2]>>,
    ) where
        L: ExactSizeIterator<Item = usize> + Clone,
        R: ExactSizeIterator<Item = usize> + Clone,
    {
        let (
            JoinInput {
                cols: lcols,
                rows: lrows,
            },
            JoinInput {
                cols: rcols,
                rows: rrows,
            },
        ) = (left, right);
        let n = lrows.len();
        debug_assert_eq!(n, rrows.len(), "one right row per left row");
        if n == 0 {
            return;
        }
        let mut lineage = lineage.map(Iterator::peekable);
        let lin_width = lineage
            .as_mut()
            .and_then(|l| l.peek().map(|[a, b]| a.len() + b.len()))
            .unwrap_or(0);
        self.begin(out.len(), lin_width);
        let cap = self.cap.max(n);
        for (c, &(side, p)) in self.cols.iter_mut().zip(out) {
            match side {
                JoinSide::Left => c.extend_gather(&lcols[p], lrows.clone(), cap),
                JoinSide::Right => c.extend_gather(&rcols[p], rrows.clone(), cap),
            }
        }
        for [a, b] in lineage.into_iter().flatten() {
            debug_assert_eq!(a.len() + b.len(), self.lin_width, "lineage width");
            self.lin.extend_from_slice(a);
            self.lin.extend_from_slice(b);
        }
        self.rows += n;
    }

    /// Add a column holding `values`, one per row — the aggregate's
    /// output beside the group keys.
    pub(crate) fn push_column(&mut self, values: impl Iterator<Item = Value>) {
        let mut col = Column::default();
        for v in values {
            col.push(&v, self.rows);
        }
        debug_assert_eq!(col.len(), self.rows, "column length");
        self.cols.push(col);
    }

    /// Move the live rows of `other` onto the end of this batch — how a
    /// materializing operator grows its one buffer from its input.
    pub fn append(&mut self, mut other: RowBatch) {
        if other.rows == 0 {
            return;
        }
        if let Some(sel) = other.sel.take() {
            return self.extend_from(&other, sel.iter().map(|i| *i as usize));
        }
        if self.rows == 0 {
            *self = RowBatch {
                cap: self.cap,
                ..other
            };
            return;
        }
        self.begin(other.cols.len(), other.lin_width);
        let cap = self.cap;
        for (c, o) in self.cols.iter_mut().zip(other.cols) {
            c.append(o, cap);
        }
        self.lin.append(&mut other.lin);
        self.rows += other.rows;
    }

    /// Copy the rows at the given physical indices, in that order, into a
    /// fresh batch (all live) — how a materializing operator re-emits its
    /// buffer in chunks.
    pub fn copy_rows(&self, rows: impl ExactSizeIterator<Item = usize> + Clone) -> RowBatch {
        let mut out = RowBatch::with_capacity(rows.len());
        out.extend_from(self, rows);
        out
    }

    /// Physical row count, dead rows included.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Is the batch physically empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Approximate resident size in bytes: the column vectors (8 B per
    /// `Int` / `Float`, 4 B per `Date`, 16 B per `Str`, 24 B per mixed
    /// value, plus NULL bitmaps) and the lineage rids. Used by
    /// materializing operators to charge the resource governor's
    /// resident-byte budget.
    pub fn approx_bytes(&self) -> u64 {
        (self.cols.iter().map(Column::bytes).sum::<usize>()
            + std::mem::size_of_val(self.lin.as_slice())) as u64
    }

    /// Number of live rows.
    pub fn live_count(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// The selection vector, if any row has been filtered out.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Physical indices of the live rows, in row order.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        let (sel, all) = match &self.sel {
            Some(s) => (Some(s.iter().map(|i| *i as usize)), None),
            None => (None, Some(0..self.rows)),
        };
        sel.into_iter().flatten().chain(all.into_iter().flatten())
    }

    /// Value of column `col` at physical row `i`.
    pub fn value(&self, col: usize, i: usize) -> Value {
        self.cols[col].value(i)
    }

    /// The row at physical index `i`, as owned values — the result
    /// boundary (rows handed to the application).
    pub fn row_at(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.value(i)).collect()
    }

    /// The columns `cols` at the physical rows `rows`, in those orders:
    /// one typed gather per column (an empty batch has no columns yet;
    /// its gathers are empty).
    pub(crate) fn gather_columns(
        &self,
        cols: impl Iterator<Item = usize>,
        rows: &(impl ExactSizeIterator<Item = usize> + Clone),
    ) -> Vec<Column> {
        cols.map(|c| {
            let mut col = Column::default();
            if let Some(src) = self.cols.get(c) {
                col.extend_gather(src, rows.clone(), rows.len());
            }
            col
        })
        .collect()
    }

    /// The batch's columns (one per layout position) and its flat lineage,
    /// moved out. The batch must have no selection.
    pub(crate) fn into_columns(self) -> (Vec<Column>, Vec<Rid>) {
        debug_assert!(self.sel.is_none(), "moving the columns of a filtered batch");
        (self.cols, self.lin)
    }

    /// Rids of lineage per row.
    pub fn lineage_width(&self) -> usize {
        self.lin_width
    }

    /// Lineage of the row at physical index `i`.
    pub fn lineage_at(&self, i: usize) -> &[Rid] {
        &self.lin[i * self.lin_width..(i + 1) * self.lin_width]
    }

    pub(crate) fn col(&self, col: usize) -> &Column {
        &self.cols[col]
    }

    /// Every column, in layout order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Column `col` at physical row `i`, borrowed.
    #[inline]
    pub(crate) fn cell(&self, col: usize, i: usize) -> Cell<'_> {
        self.cols[col].cell(i)
    }

    /// Keep only live rows for which `keep(self, physical index)` holds.
    pub fn retain_live<F: FnMut(&RowBatch, usize) -> bool>(&mut self, mut keep: F) {
        let old = self.sel.take();
        let mut new = Vec::with_capacity(old.as_ref().map_or(self.rows, Vec::len));
        match &old {
            Some(s) => new.extend(s.iter().filter(|i| keep(self, **i as usize))),
            None => new.extend((0..self.rows as u32).filter(|i| keep(self, *i as usize))),
        }
        self.sel = Some(new);
    }

    /// Fallible [`RowBatch::retain_live`]: the first error aborts and is
    /// returned with the selection left partially refined (callers treat
    /// the batch as poisoned and propagate the error).
    pub fn try_retain_live<E, F: FnMut(&RowBatch, usize) -> Result<bool, E>>(
        &mut self,
        mut keep: F,
    ) -> Result<(), E> {
        let old: Vec<u32> = match self.sel.take() {
            Some(s) => s,
            None => (0..self.rows as u32).collect(),
        };
        let mut new = Vec::with_capacity(old.len());
        let mut result = Ok(());
        for i in old {
            match keep(self, i as usize) {
                Ok(true) => new.push(i),
                Ok(false) => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.sel = Some(new);
        result
    }

    /// Keep only the first `n` live rows.
    pub fn truncate_live(&mut self, n: usize) {
        match &mut self.sel {
            Some(s) => s.truncate(n),
            None => {
                if n < self.rows {
                    for c in &mut self.cols {
                        c.truncate(n);
                    }
                    self.lin.truncate(n * self.lin_width);
                    self.rows = n;
                }
            }
        }
    }

    /// Drop dead rows, leaving a batch with no selection vector.
    pub fn compact(&mut self) {
        if let Some(sel) = self.sel.take() {
            let mut live = RowBatch::with_capacity(sel.len());
            live.extend_from(self, sel.iter().map(|i| *i as usize));
            *self = live;
        }
    }

    /// Split after the first `k` live rows: `(first k, rest)`. Both halves
    /// come out compacted. Used by CHECK to hand the rows counted before a
    /// violation downstream while stashing the tripping row and everything
    /// after it for replay.
    pub fn split_live(mut self, k: usize) -> (RowBatch, RowBatch) {
        self.compact();
        let k = k.min(self.rows);
        let rest = RowBatch {
            cols: self.cols.iter_mut().map(|c| c.split_off(k)).collect(),
            rows: self.rows - k,
            lin_width: self.lin_width,
            lin: self.lin.split_off(k * self.lin_width),
            sel: None,
            cap: 0,
        };
        self.rows = k;
        (self, rest)
    }

    /// Project to the given layout positions: a permutation of whole
    /// columns (a column is copied only where its position repeats later
    /// in the list), with lineage and selection kept as they are.
    pub fn project(mut self, positions: &[usize]) -> RowBatch {
        let mut cols = Vec::with_capacity(positions.len());
        for (k, p) in positions.iter().enumerate() {
            cols.push(if positions[k + 1..].contains(p) {
                self.cols[*p].clone()
            } else {
                std::mem::take(&mut self.cols[*p])
            });
        }
        RowBatch { cols, ..self }
    }

    /// Physical index of the `k`-th live row, if any.
    pub(crate) fn live_index(&self, k: usize) -> Option<usize> {
        match &self.sel {
            Some(s) => s.get(k).map(|i| *i as usize),
            None => (k < self.rows).then_some(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: i64) -> RowBatch {
        let mut b = RowBatch::new();
        for i in 0..n {
            b.push_row(&[Value::Int(i)], &[Rid::new(0, i as u64)]);
        }
        b
    }

    fn int_at(b: &RowBatch, i: usize) -> i64 {
        b.value(0, i).as_i64().expect("an int")
    }

    fn live_rows(b: &RowBatch) -> Vec<Row> {
        b.live_indices().map(|i| b.row_at(i)).collect()
    }

    #[test]
    fn retain_builds_and_refines_selection() {
        let mut b = batch(10);
        b.retain_live(|b, i| int_at(b, i) % 2 == 0); // 0 2 4 6 8
        assert_eq!(b.live_count(), 5);
        assert_eq!(b.len(), 10);
        b.retain_live(|b, i| int_at(b, i) > 3); // 4 6 8
        let live: Vec<usize> = b.live_indices().collect();
        assert_eq!(live, vec![4, 6, 8]);
    }

    #[test]
    fn compact_drops_dead_rows_in_order() {
        let mut b = batch(5);
        b.retain_live(|b, i| int_at(b, i) != 2);
        b.compact();
        assert_eq!(b.len(), 4);
        assert_eq!(b.sel(), None);
        let vals: Vec<i64> = b.live_indices().map(|i| int_at(&b, i)).collect();
        assert_eq!(vals, vec![0, 1, 3, 4]);
        assert_eq!(b.lineage_at(2), &[Rid::new(0, 3)]);
    }

    #[test]
    fn split_live_respects_selection() {
        let mut b = batch(6);
        b.retain_live(|b, i| int_at(b, i) % 2 == 1); // 1 3 5
        let (head, tail) = b.split_live(1);
        assert_eq!(head.live_count(), 1);
        assert_eq!(head.value(0, 0), Value::Int(1));
        assert_eq!(tail.live_count(), 2);
        assert_eq!(tail.value(0, 0), Value::Int(3));
        assert_eq!(tail.lineage_at(1), &[Rid::new(0, 5)]);
    }

    #[test]
    fn truncate_live_keeps_the_first_rows() {
        let mut b = batch(4);
        b.truncate_live(2);
        assert_eq!(
            live_rows(&b),
            vec![vec![Value::Int(0)], vec![Value::Int(1)]]
        );
        assert_eq!(b.lineage_at(1), &[Rid::new(0, 1)]);
        let mut filtered = batch(6);
        filtered.retain_live(|b, i| int_at(b, i) >= 2);
        filtered.truncate_live(1);
        assert_eq!(live_rows(&filtered), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn project_reorders_and_keeps_lineage() {
        let mut b = RowBatch::new();
        b.push_row(
            &[Value::Int(1), Value::Int(2)],
            &[Rid::new(0, 0), Rid::new(1, 7)],
        );
        let p = b.project(&[1]);
        assert_eq!(p.row_at(0), vec![Value::Int(2)]);
        assert_eq!(p.lineage_at(0), &[Rid::new(0, 0), Rid::new(1, 7)]);
    }

    #[test]
    fn project_repeated_position_keeps_both_copies() {
        let mut b = RowBatch::new();
        b.push_row(&[Value::str("a"), Value::Int(2)], &[]);
        b.push_row(&[Value::str("b"), Value::Int(3)], &[]);
        b.retain_live(|_, i| i == 1);
        let p = b.project(&[0, 1, 0]);
        assert_eq!(p.sel(), Some(&[1][..]), "the selection rides along");
        assert_eq!(
            live_rows(&p),
            vec![vec![Value::str("b"), Value::Int(3), Value::str("b")]]
        );
    }

    #[test]
    fn projected_pushes_copy_only_the_named_columns() {
        // The storage leaves' copy-out of picked rows of table-width
        // columns: the named columns, in the named order, typed.
        let mut table = vec![Column::default(); 4];
        for i in 0..4 {
            let row = [
                Value::Int(i),
                Value::str(format!("s{i}")),
                Value::Null,
                Value::Float(0.5),
            ];
            for (c, v) in table.iter_mut().zip(&row) {
                c.push(v, 4);
            }
        }
        let mut s = RowBatch::new();
        let pick = [3usize, 1];
        let rids = pick.map(|i| [Rid::new(7, i as u64)]);
        s.extend_columns(&table, &[1, 2, 0], pick.into_iter(), Some(rids.into_iter()));
        assert_eq!(
            live_rows(&s),
            vec![
                vec![Value::str("s3"), Value::Null, Value::Int(3)],
                vec![Value::str("s1"), Value::Null, Value::Int(1)],
            ]
        );
        assert_eq!(s.lineage_at(1), &[Rid::new(7, 1)]);
        // Two strings of 2 B and their three 4-byte offsets, nothing for
        // the all-NULL column, 8 B an int, one 16-byte rid a row; column 3
        // is never read.
        assert_eq!(s.approx_bytes(), (3 * 4 + 2 * 2) + 2 * 8 + 2 * 16);
        // An empty pick adds nothing, not even a shape.
        let mut e = RowBatch::new();
        e.extend_columns(&table, &[0], 0..0, Some(std::iter::empty::<[Rid; 1]>()));
        assert_eq!((e.len(), e.width()), (0, 0));
    }

    #[test]
    fn extend_joined_interleaves_the_sides() {
        let mut b = RowBatch::new();
        b.push_row(
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
            &[Rid::new(0, 4), Rid::new(1, 5)],
        );
        // The join operators' gathered form of rows of both sides.
        let mut j = RowBatch::new();
        let left = batch(3);
        let lineage = [(2, 0), (0, 0)].map(|(l, r)| [left.lineage_at(l), b.lineage_at(r)]);
        use JoinSide::{Left, Right};
        j.extend_joined(
            &[(Left, 0), (Right, 0), (Right, 1), (Right, 2)],
            JoinInput {
                cols: left.columns(),
                rows: [2, 0].into_iter(),
            },
            JoinInput {
                cols: b.columns(),
                rows: [0, 0].into_iter(),
            },
            Some(lineage.into_iter()),
        );
        // A join keeps some columns of each side, in any order, and
        // interleaves the sides as its output list says.
        let mut narrow = RowBatch::new();
        narrow.extend_joined(
            &[(Right, 2), (Left, 0), (Right, 0)],
            JoinInput {
                cols: left.columns(),
                rows: [2].into_iter(),
            },
            JoinInput {
                cols: b.columns(),
                rows: [0].into_iter(),
            },
            None::<std::iter::Empty<[&[Rid]; 2]>>,
        );
        assert_eq!(
            live_rows(&narrow),
            vec![vec![Value::Int(3), Value::Int(2), Value::Int(1)]]
        );
        assert_eq!(narrow.lineage_width(), 0);
        assert_eq!(
            live_rows(&j),
            vec![
                vec![Value::Int(2), Value::Int(1), Value::Int(2), Value::Int(3)],
                vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)],
            ]
        );
        assert_eq!(
            j.lineage_at(0),
            &[Rid::new(0, 2), Rid::new(0, 4), Rid::new(1, 5)]
        );
    }

    #[test]
    fn append_moves_live_rows_and_rebases_lineage() {
        let mut buf = RowBatch::new();
        buf.append(RowBatch::new()); // nothing to take a width from
        buf.append(batch(3));
        let mut filtered = batch(6);
        filtered.retain_live(|b, i| int_at(b, i) % 2 == 1); // 1 3 5
        buf.append(filtered);
        buf.append(batch(1));
        assert_eq!((buf.len(), buf.live_count(), buf.sel()), (7, 7, None));
        let ints: Vec<i64> = (0..7).map(|i| int_at(&buf, i)).collect();
        assert_eq!(ints, vec![0, 1, 2, 1, 3, 5, 0]);
        for (i, v) in ints.iter().enumerate() {
            assert_eq!(buf.lineage_at(i), &[Rid::new(0, *v as u64)]);
        }
    }

    #[test]
    fn copy_rows_picks_rows_by_index_in_the_given_order() {
        let buf = batch(5);
        let picked = buf.copy_rows([4usize, 0, 4].into_iter());
        assert_eq!(picked.len(), 3);
        assert_eq!(picked.row_at(0), vec![Value::Int(4)]);
        assert_eq!(picked.lineage_at(1), &[Rid::new(0, 0)]);
        assert_eq!(
            live_rows(&buf.copy_rows(1..3)),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        );
        assert!(buf.copy_rows(0..0).is_empty());
    }

    #[test]
    fn with_capacity_sizes_the_value_buffer_on_the_first_push() {
        let mut b = RowBatch::with_capacity(100);
        let row = [Value::Int(1), Value::Float(2.0), Value::str("3")];
        b.push_row(&row, &[]);
        let caps: Vec<usize> = b.cols.iter().map(Column::capacity).collect();
        assert!(caps.iter().all(|c| *c >= 100), "capacities {caps:?}");
        for _ in 1..100 {
            b.push_row(&row, &[]);
        }
        let grown: Vec<usize> = b.cols.iter().map(Column::capacity).collect();
        assert_eq!(grown, caps, "grew while filling");
        // 8 B per Int and Float, a string its byte and a 4-byte offset
        // (one more offset than strings): typed, not 24 B values.
        assert_eq!(b.approx_bytes(), 100 * (8 + 8 + 1 + 4) + 4);
        // `reset` keeps the vectors for the next fill of the same types.
        b.reset();
        b.push_row(&row, &[]);
        let kept: Vec<usize> = b.cols.iter().map(Column::capacity).collect();
        assert_eq!(kept, caps);
        assert_eq!(b.row_at(0), row.to_vec());
        assert!(b.lineage_at(0).is_empty());
    }

    #[test]
    fn try_retain_propagates_error() {
        let mut b = batch(3);
        let r: Result<(), &str> = b.try_retain_live(|b, i| {
            if int_at(b, i) == 1 {
                Err("boom")
            } else {
                Ok(true)
            }
        });
        assert_eq!(r, Err("boom"));
    }
}
