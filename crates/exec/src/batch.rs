//! Batches of rows flowing between operators.
//!
//! The engine moves data in chunks of up to [`ExecCtx::batch_size`]
//! (default [`DEFAULT_BATCH_SIZE`]) rows instead of one row per `next()`
//! call. A [`RowBatch`] carries the column values and the base-row lineage
//! of every row, plus an optional **selection vector**: filtering
//! operators (predicates, HAVING, the ECDC anti-join) drop rows by
//! shrinking the selection instead of copying the survivors, so a batch
//! flows through a pipeline with zero per-row allocation until something
//! actually needs to restructure it.
//!
//! Storage is flat: all values live in one buffer (`width` values per
//! row) and all lineage rids in another with per-row offsets. A batch of
//! 1024 rows costs a handful of allocations, not thousands — per-row
//! `Vec`s only reappear at the boundaries that need owned rows
//! ([`RowBatch::into_rows`], [`RowBatch::take_row_at`]).
//!
//! The same container, grown with [`RowBatch::append`], is the buffer
//! behind every materialization (hash-join build, SORT, TEMP): rows are
//! addressed by index and copied out with [`RowBatch::copy_rows`].
//!
//! Invariants relied on across the engine:
//! * a selection vector is strictly increasing (preserves row order);
//! * operators never emit an all-dead batch — `next_batch` returns `None`
//!   at end of stream instead;
//! * every row in a batch has the same number of values (`width`);
//! * batch boundaries are *not* semantically meaningful: any re-chunking
//!   of the same row stream is equivalent (checked by the equivalence
//!   suite, which runs every query at several batch sizes).
//!
//! [`ExecCtx::batch_size`]: crate::ExecCtx::batch_size

use crate::ExecRow;
use pop_types::{Rid, Row, Value};

/// Default number of rows per batch (the `POP_BATCH_SIZE` knob and
/// [`ExecCtx::batch_size`] override it per run).
///
/// [`ExecCtx::batch_size`]: crate::ExecCtx::batch_size
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A chunk of rows with lineage and an optional selection vector.
///
/// Rows at positions absent from the selection are *dead*: they are
/// skipped by every consumer and dropped on [`RowBatch::compact`]. When
/// `sel` is `None` every row is live.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBatch {
    /// Flat values: row `i` occupies `vals[i*width .. (i+1)*width]`.
    vals: Vec<Value>,
    /// Values per row; set by the first push.
    width: usize,
    /// Physical row count (needed because `width` may be zero).
    rows: usize,
    /// Flat lineage rids for all rows.
    lin: Vec<Rid>,
    /// `rows + 1` offsets into `lin`; row `i` owns `lin_off[i]..lin_off[i+1]`.
    lin_off: Vec<u32>,
    sel: Option<Vec<u32>>,
}

impl Default for RowBatch {
    fn default() -> Self {
        RowBatch::with_capacity(0)
    }
}

impl RowBatch {
    /// Empty batch.
    pub fn new() -> Self {
        RowBatch::with_capacity(0)
    }

    /// Empty batch with room for `n` rows (the value buffer is sized by
    /// the first push, which knows the row width).
    pub fn with_capacity(n: usize) -> Self {
        let mut lin_off = Vec::with_capacity(n + 1);
        lin_off.push(0);
        RowBatch {
            vals: Vec::new(),
            width: 0,
            rows: 0,
            lin: Vec::with_capacity(n),
            lin_off,
            sel: None,
        }
    }

    /// Clear all contents while keeping the allocated capacity — the
    /// free-list reuse hook of the exchange routing path.
    pub fn reset(&mut self) {
        self.vals.clear();
        self.width = 0;
        self.rows = 0;
        self.lin.clear();
        self.lin_off.clear();
        self.lin_off.push(0);
        self.sel = None;
    }

    #[inline]
    fn begin_push(&mut self, width: usize) {
        debug_assert!(self.sel.is_none(), "push into a filtered batch");
        if self.rows == 0 {
            self.width = width;
            // Room for as many rows as the offsets were sized for; free
            // once a `reset` batch has grown to its working size.
            self.vals.reserve((self.lin_off.capacity() - 1) * width);
        } else {
            debug_assert_eq!(width, self.width, "row width mismatch");
        }
    }

    #[inline]
    fn finish_push(&mut self) {
        self.rows += 1;
        self.lin_off.push(self.lin.len() as u32);
    }

    /// Append a live row from owned parts. Must not be called once a
    /// selection exists (appended rows would be dead, which no producer
    /// intends).
    pub fn push(&mut self, values: Row, lineage: Vec<Rid>) {
        self.begin_push(values.len());
        self.vals.extend(values);
        self.lin.extend(lineage);
        self.finish_push();
    }

    /// Append a live row by cloning from borrowed parts — the hot path
    /// for scans: no per-row `Vec` is ever allocated.
    pub fn push_row(&mut self, values: &[Value], lineage: &[Rid]) {
        self.begin_push(values.len());
        self.vals.extend_from_slice(values);
        self.lin.extend_from_slice(lineage);
        self.finish_push();
    }

    /// [`RowBatch::push_row`] keeping only the columns `cols` of a stored
    /// row, in that order — the leaf operators' copy-out: a column the
    /// plan's layout does not carry is never cloned.
    pub fn push_projected(&mut self, row: &[Value], cols: &[usize], lineage: &[Rid]) {
        self.begin_push(cols.len());
        self.vals.extend(cols.iter().map(|c| row[*c].clone()));
        self.lin.extend_from_slice(lineage);
        self.finish_push();
    }

    /// Append a live row that concatenates two halves — the hot path for
    /// join outputs (`left ++ right` values and lineage), allocation-free
    /// per row.
    pub fn push_concat(&mut self, a: &[Value], b: &[Value], la: &[Rid], lb: &[Rid]) {
        self.begin_push(a.len() + b.len());
        self.vals.extend_from_slice(a);
        self.vals.extend_from_slice(b);
        self.lin.extend_from_slice(la);
        self.lin.extend_from_slice(lb);
        self.finish_push();
    }

    /// [`RowBatch::push_concat`] whose right half is the columns `b_cols`
    /// of a stored row (the NLJN inner fetch).
    pub fn push_concat_projected(
        &mut self,
        a: &[Value],
        b_row: &[Value],
        b_cols: &[usize],
        la: &[Rid],
        lb: &[Rid],
    ) {
        self.begin_push(a.len() + b_cols.len());
        self.vals.extend_from_slice(a);
        self.vals.extend(b_cols.iter().map(|c| b_row[*c].clone()));
        self.lin.extend_from_slice(la);
        self.lin.extend_from_slice(lb);
        self.finish_push();
    }

    /// Append a derived row (no lineage) of `width` values — the
    /// aggregate's output path.
    pub fn push_derived(&mut self, width: usize, values: impl Iterator<Item = Value>) {
        self.begin_push(width);
        self.vals.extend(values);
        debug_assert_eq!(self.vals.len(), (self.rows + 1) * width);
        self.finish_push();
    }

    /// Move the live rows of `other` onto the end of this batch — how a
    /// materializing operator grows its one buffer from its input.
    pub fn append(&mut self, mut other: RowBatch) {
        if other.rows == 0 {
            return;
        }
        self.begin_push(other.width);
        let base = self.lin.len() as u32;
        match other.sel.take() {
            None => {
                self.vals.append(&mut other.vals);
                self.lin.append(&mut other.lin);
                self.lin_off
                    .extend(other.lin_off[1..].iter().map(|o| base + o));
                self.rows += other.rows;
            }
            Some(sel) => {
                let w = other.width;
                for i in sel {
                    let i = i as usize;
                    self.vals.extend(
                        other.vals[i * w..(i + 1) * w]
                            .iter_mut()
                            .map(|v| std::mem::replace(v, Value::Null)),
                    );
                    self.lin.extend_from_slice(other.lineage_at(i));
                    self.finish_push();
                }
            }
        }
    }

    /// Copy the rows at the given physical indices, in that order, into a
    /// fresh batch (all live) — how a materializing operator re-emits its
    /// buffer in chunks.
    pub fn copy_rows(&self, rows: impl ExactSizeIterator<Item = usize>) -> RowBatch {
        let mut out = RowBatch::with_capacity(rows.len());
        for i in rows {
            out.push_row(self.values_at(i), self.lineage_at(i));
        }
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

    /// Approximate resident size in bytes: the flat value and lineage
    /// buffers (offsets and selection are noise by comparison). Used by
    /// materializing operators to charge the resource governor's
    /// resident-byte budget.
    pub fn approx_bytes(&self) -> u64 {
        (self.vals.len() * std::mem::size_of::<Value>()
            + self.lin.len() * std::mem::size_of::<Rid>()) as u64
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
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let (sel, all) = match &self.sel {
            Some(s) => (Some(s.iter().map(|i| *i as usize)), None),
            None => (None, Some(0..self.rows)),
        };
        sel.into_iter().flatten().chain(all.into_iter().flatten())
    }

    /// Values of the row at physical index `i`.
    pub fn values_at(&self, i: usize) -> &[Value] {
        &self.vals[i * self.width..(i + 1) * self.width]
    }

    /// Lineage of the row at physical index `i`.
    pub fn lineage_at(&self, i: usize) -> &[Rid] {
        &self.lin[self.lin_off[i] as usize..self.lin_off[i + 1] as usize]
    }

    /// Keep only live rows for which `keep(values, lineage)` holds.
    pub fn retain_live<F: FnMut(&[Value], &[Rid]) -> bool>(&mut self, mut keep: F) {
        let old: Vec<u32> = match self.sel.take() {
            Some(s) => s,
            None => (0..self.rows as u32).collect(),
        };
        let mut new = Vec::with_capacity(old.len());
        for i in old {
            if keep(self.values_at(i as usize), self.lineage_at(i as usize)) {
                new.push(i);
            }
        }
        self.sel = Some(new);
    }

    /// Fallible [`RowBatch::retain_live`]: the first error aborts and is
    /// returned with the selection left partially refined (callers treat
    /// the batch as poisoned and propagate the error).
    pub fn try_retain_live<E, F: FnMut(&[Value], &[Rid]) -> Result<bool, E>>(
        &mut self,
        mut keep: F,
    ) -> Result<(), E> {
        let old: Vec<u32> = match self.sel.take() {
            Some(s) => s,
            None => (0..self.rows as u32).collect(),
        };
        let mut new = Vec::with_capacity(old.len());
        for i in old {
            if keep(self.values_at(i as usize), self.lineage_at(i as usize))? {
                new.push(i);
            }
        }
        self.sel = Some(new);
        Ok(())
    }

    /// Keep only the first `n` live rows.
    pub fn truncate_live(&mut self, n: usize) {
        match &mut self.sel {
            Some(s) => s.truncate(n),
            None => {
                if n < self.rows {
                    self.vals.truncate(n * self.width);
                    self.lin.truncate(self.lin_off[n] as usize);
                    self.lin_off.truncate(n + 1);
                    self.rows = n;
                }
            }
        }
    }

    /// Drop dead rows, leaving a batch with no selection vector.
    pub fn compact(&mut self) {
        if self.sel.is_some() {
            let live = RowBatch::with_capacity(self.live_count());
            let filtered = std::mem::replace(self, live);
            self.append(filtered);
        }
    }

    /// Split after the first `k` live rows: `(first k, rest)`. Both halves
    /// come out compacted. Used by CHECK to hand the rows counted before a
    /// violation downstream while stashing the tripping row and everything
    /// after it for replay.
    pub fn split_live(mut self, k: usize) -> (RowBatch, RowBatch) {
        self.compact();
        let k = k.min(self.rows);
        let rest_vals = self.vals.split_off(k * self.width);
        let cut = self.lin_off[k];
        let rest_lin = self.lin.split_off(cut as usize);
        let mut rest_off = Vec::with_capacity(self.rows - k + 1);
        rest_off.extend(self.lin_off[k..=self.rows].iter().map(|o| o - cut));
        let rest = RowBatch {
            vals: rest_vals,
            width: self.width,
            rows: self.rows - k,
            lin: rest_lin,
            lin_off: rest_off,
            sel: None,
        };
        self.lin_off.truncate(k + 1);
        self.rows = k;
        (self, rest)
    }

    /// Consume into owned rows (live rows only, in order).
    pub fn into_rows(mut self) -> Vec<ExecRow> {
        self.compact();
        let RowBatch {
            vals,
            width,
            rows,
            lin,
            lin_off,
            ..
        } = self;
        let mut out = Vec::with_capacity(rows);
        let mut vals = vals.into_iter();
        for i in 0..rows {
            out.push(ExecRow {
                values: vals.by_ref().take(width).collect(),
                lineage: lin[lin_off[i] as usize..lin_off[i + 1] as usize].to_vec(),
            });
        }
        out
    }

    /// Project each live row to the given layout positions (values are
    /// moved out of the consumed batch — cloned only where a position
    /// repeats later in the list — and lineage is kept as-is). The result
    /// has no selection vector and no per-row allocations.
    pub fn project(mut self, positions: &[usize]) -> RowBatch {
        self.compact();
        let w = self.width;
        let last_use: Vec<bool> = (0..positions.len())
            .map(|k| !positions[k + 1..].contains(&positions[k]))
            .collect();
        let mut vals = Vec::with_capacity(self.rows * positions.len());
        for i in 0..self.rows {
            let row = &mut self.vals[i * w..(i + 1) * w];
            for (p, last) in positions.iter().zip(&last_use) {
                vals.push(if *last {
                    std::mem::replace(&mut row[*p], Value::Null)
                } else {
                    row[*p].clone()
                });
            }
        }
        RowBatch {
            vals,
            width: positions.len(),
            rows: self.rows,
            lin: self.lin,
            lin_off: self.lin_off,
            sel: None,
        }
    }

    /// Move the row at physical index `i` out of the batch, leaving dead
    /// (`Null`) values behind. Only [`crate::operators::BatchCursor`] (the
    /// merge join's owned-row adapter) uses this, consuming each live slot
    /// exactly once.
    pub(crate) fn take_row_at(&mut self, i: usize) -> ExecRow {
        let w = self.width;
        let mut values = Vec::with_capacity(w);
        for j in i * w..(i + 1) * w {
            values.push(std::mem::replace(&mut self.vals[j], Value::Null));
        }
        ExecRow {
            values,
            lineage: self.lineage_at(i).to_vec(),
        }
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
            b.push(vec![Value::Int(i)], vec![Rid::new(0, i as u64)]);
        }
        b
    }

    fn int_at(v: &[Value]) -> i64 {
        match v[0] {
            Value::Int(i) => i,
            _ => panic!("not an int"),
        }
    }

    #[test]
    fn retain_builds_and_refines_selection() {
        let mut b = batch(10);
        b.retain_live(|v, _| int_at(v) % 2 == 0); // 0 2 4 6 8
        assert_eq!(b.live_count(), 5);
        assert_eq!(b.len(), 10);
        b.retain_live(|v, _| int_at(v) > 3); // 4 6 8
        let live: Vec<usize> = b.live_indices().collect();
        assert_eq!(live, vec![4, 6, 8]);
    }

    #[test]
    fn compact_drops_dead_rows_in_order() {
        let mut b = batch(5);
        b.retain_live(|v, _| int_at(v) != 2);
        b.compact();
        assert_eq!(b.len(), 4);
        assert_eq!(b.sel(), None);
        let vals: Vec<&Value> = b.live_indices().map(|i| &b.values_at(i)[0]).collect();
        assert_eq!(
            vals,
            vec![
                &Value::Int(0),
                &Value::Int(1),
                &Value::Int(3),
                &Value::Int(4)
            ]
        );
    }

    #[test]
    fn split_live_respects_selection() {
        let mut b = batch(6);
        b.retain_live(|v, _| int_at(v) % 2 == 1); // 1 3 5
        let (head, tail) = b.split_live(1);
        assert_eq!(head.live_count(), 1);
        assert_eq!(head.values_at(0)[0], Value::Int(1));
        assert_eq!(tail.live_count(), 2);
        assert_eq!(tail.values_at(0)[0], Value::Int(3));
        assert_eq!(tail.lineage_at(1), &[Rid::new(0, 5)]);
    }

    #[test]
    fn into_rows_applies_selection() {
        let mut b = batch(4);
        b.truncate_live(2);
        let rows = b.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].lineage, vec![Rid::new(0, 1)]);
    }

    #[test]
    fn project_reorders_and_keeps_lineage() {
        let mut b = RowBatch::new();
        b.push(
            vec![Value::Int(1), Value::Int(2)],
            vec![Rid::new(0, 0), Rid::new(1, 7)],
        );
        let p = b.project(&[1]);
        assert_eq!(p.values_at(0), &[Value::Int(2)][..]);
        assert_eq!(p.lineage_at(0), &[Rid::new(0, 0), Rid::new(1, 7)]);
    }

    #[test]
    fn project_repeated_position_keeps_both_copies() {
        let mut b = RowBatch::new();
        b.push(vec![Value::str("a"), Value::Int(2)], vec![]);
        let p = b.project(&[0, 1, 0]);
        assert_eq!(
            p.values_at(0),
            &[Value::str("a"), Value::Int(2), Value::str("a")][..]
        );
    }

    #[test]
    fn projected_pushes_copy_only_the_named_columns() {
        let stored = [Value::Int(1), Value::Int(2), Value::Int(3)];
        let mut b = RowBatch::new();
        b.push_projected(&stored, &[2, 0], &[Rid::new(0, 4)]);
        assert_eq!(b.values_at(0), &[Value::Int(3), Value::Int(1)][..]);
        assert_eq!(b.lineage_at(0), &[Rid::new(0, 4)]);
        let mut j = RowBatch::new();
        j.push_concat_projected(
            &[Value::Int(9)],
            &stored,
            &[1],
            &[Rid::new(0, 4)],
            &[Rid::new(1, 5)],
        );
        assert_eq!(j.values_at(0), &[Value::Int(9), Value::Int(2)][..]);
        assert_eq!(j.lineage_at(0), &[Rid::new(0, 4), Rid::new(1, 5)]);
    }

    #[test]
    fn push_concat_joins_values_and_lineage() {
        let mut b = RowBatch::new();
        b.push_concat(
            &[Value::Int(1)],
            &[Value::Int(2), Value::Int(3)],
            &[Rid::new(0, 4)],
            &[Rid::new(1, 5)],
        );
        assert_eq!(
            b.values_at(0),
            &[Value::Int(1), Value::Int(2), Value::Int(3)][..]
        );
        assert_eq!(b.lineage_at(0), &[Rid::new(0, 4), Rid::new(1, 5)]);
    }

    #[test]
    fn append_moves_live_rows_and_rebases_lineage() {
        let mut buf = RowBatch::new();
        buf.append(RowBatch::new()); // nothing to take a width from
        buf.append(batch(3));
        let mut filtered = batch(6);
        filtered.retain_live(|v, _| int_at(v) % 2 == 1); // 1 3 5
        buf.append(filtered);
        buf.append(batch(1));
        assert_eq!((buf.len(), buf.live_count(), buf.sel()), (7, 7, None));
        let ints: Vec<i64> = (0..7).map(|i| int_at(buf.values_at(i))).collect();
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
        assert_eq!(picked.values_at(0), &[Value::Int(4)][..]);
        assert_eq!(picked.lineage_at(1), &[Rid::new(0, 0)]);
        assert_eq!(buf.copy_rows(1..3), {
            let mut b = RowBatch::new();
            b.push_row(buf.values_at(1), buf.lineage_at(1));
            b.push_row(buf.values_at(2), buf.lineage_at(2));
            b
        });
        assert!(buf.copy_rows(0..0).is_empty());
    }

    #[test]
    fn with_capacity_sizes_the_value_buffer_on_the_first_push() {
        let mut b = RowBatch::with_capacity(100);
        let row = [Value::Int(1), Value::Int(2), Value::Int(3)];
        b.push_row(&row, &[]);
        let cap = b.vals.capacity();
        assert!(cap >= 300, "capacity {cap}");
        for _ in 1..100 {
            b.push_row(&row, &[]);
        }
        assert_eq!(b.vals.capacity(), cap, "grew while filling");
        // `reset` keeps the buffer for the next fill.
        b.reset();
        b.push_derived(3, row.iter().cloned());
        assert_eq!(b.vals.capacity(), cap);
        assert_eq!(b.values_at(0), &row[..]);
        assert!(b.lineage_at(0).is_empty());
    }

    #[test]
    fn try_retain_propagates_error() {
        let mut b = batch(3);
        let r: Result<(), &str> = b.try_retain_live(|v, _| {
            if int_at(v) == 1 {
                Err("boom")
            } else {
                Ok(true)
            }
        });
        assert_eq!(r, Err("boom"));
    }
}
