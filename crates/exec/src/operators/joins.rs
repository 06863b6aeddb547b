//! The three join methods: index nested-loop, hash, and merge join.
//!
//! Every join reads its streaming inputs in place through a [`RowCursor`]
//! — no input row is moved or allocated — and builds its output a column
//! at a time: matches are collected as row-index pairs and gathered into
//! a [`RowBatch`] of up to [`ExecCtx::batch_size`] rows per call.

use crate::column::Cell;
use crate::context::Harvest;
use crate::operators::key::{hash_keys, ChainIndex, NIL};
use crate::operators::materialize::{materialize, HarvestInfo};
use crate::operators::scan::read_set;
use crate::operators::{Operator, RowCursor};
use crate::{ExecCtx, OpResult, RowBatch};
use pop_expr::BoundExpr;
use pop_storage::{Index, RowFetcher, Table};
use pop_types::{Rid, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Index nested-loop join: for each outer row, probe the inner table's
/// index on the join column and fetch matching rows.
///
/// This is the operator whose misestimated outer cardinality causes the
/// order-of-magnitude blowups POP guards against (Figure 2): its cost is
/// `outer_card × (probe + matches × fetch)`, so an outer that is 100×
/// larger than estimated costs 100× more.
///
/// A fetched inner row is filtered where storage holds it and its output
/// columns are copied into a scratch batch; the outer half of each output
/// row is a gather of the outer row's index, done before the outer batch
/// is released.
pub struct NljnOp {
    outer: Box<dyn Operator>,
    outer_key_pos: usize,
    inner_table: Arc<Table>,
    inner_index: Arc<Index>,
    /// Filter on the fetched inner row, bound against the inner schema.
    inner_pred: Option<BoundExpr>,
    /// `(outer position, inner column)` residual equi-join conditions.
    residual: Vec<(usize, usize)>,
    /// Inner table columns appended to the outer row, in layout order.
    inner_cols: Vec<usize>,
    fetcher: Option<RowFetcher>,
    /// The outer stream; its current row is the one being probed.
    outer_rows: RowCursor,
    matches: Vec<u64>,
    match_pos: usize,
    /// Joined rows not yet copied out: the outer row index of each (into
    /// the cursor's batch) and its inner columns plus inner rid.
    pending: Vec<u32>,
    inner_rows: RowBatch,
    /// Last inner page fetched from, for random-I/O accounting.
    last_page: Option<u64>,
    pending_signal: Option<crate::ExecSignal>,
}

impl NljnOp {
    /// Create an index NLJN emitting the outer row followed by every
    /// inner column.
    pub fn new(
        outer: Box<dyn Operator>,
        outer_key_pos: usize,
        inner_table: Arc<Table>,
        inner_index: Arc<Index>,
        inner_pred: Option<BoundExpr>,
        residual: Vec<(usize, usize)>,
    ) -> Self {
        NljnOp {
            outer,
            outer_key_pos,
            inner_cols: (0..inner_table.schema().len()).collect(),
            inner_table,
            inner_index,
            inner_pred,
            residual,
            fetcher: None,
            outer_rows: RowCursor::default(),
            matches: Vec::new(),
            match_pos: 0,
            pending: Vec::new(),
            inner_rows: RowBatch::new(),
            last_page: None,
            pending_signal: None,
        }
    }

    /// Append only the inner table columns `cols` (each below the inner
    /// schema width), in that order.
    pub fn with_inner_columns(mut self, cols: Vec<usize>) -> Self {
        self.inner_cols = cols;
        self
    }
}

/// Copy out the NLJN rows joined against the cursor's batch: outer
/// columns gathered by row index, inner columns as fetched.
fn flush_joined(
    out: &mut RowBatch,
    outer: &RowCursor,
    pending: &mut Vec<u32>,
    inner: &mut RowBatch,
) {
    if let (false, Some((batch, _))) = (pending.is_empty(), outer.current()) {
        out.extend_joined(
            batch,
            pending.iter().map(|i| *i as usize),
            inner,
            0..pending.len(),
        );
    }
    pending.clear();
    inner.reset();
}

impl Operator for NljnOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.outer.open(ctx)?;
        // The inner row is read for its output columns, the predicate and
        // the residual join columns — nothing else is decoded.
        let inner_read = read_set(&self.inner_cols, self.inner_pred.as_ref())
            .into_iter()
            .chain(self.residual.iter().map(|&(_, inner_col)| inner_col));
        self.fetcher = Some(self.inner_table.fetcher().project(inner_read));
        self.outer_rows.reset();
        self.matches.clear();
        self.match_pos = 0;
        self.pending.clear();
        self.inner_rows = RowBatch::with_capacity(ctx.batch_size.max(1));
        self.last_page = None;
        self.pending_signal = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let Some(fetcher) = self.fetcher.as_ref() else {
            return Err(super::protocol_err("NLJN next_batch() before open()"));
        };
        if let Some(sig) = self.pending_signal.take() {
            return Err(sig);
        }
        let target = ctx.batch_size.max(1);
        let mut out = RowBatch::with_capacity(target);
        loop {
            // Drain pending matches of the current outer row: filter each
            // fetched inner row where it is stored, copy out its columns.
            while self.match_pos < self.matches.len() {
                let pos = self.matches[self.match_pos];
                self.match_pos += 1;
                let (outer, at) = self
                    .outer_rows
                    .current()
                    .ok_or_else(|| super::protocol_err("NLJN match without an outer row"))?;
                let rid = [Rid::new(self.inner_table.id(), pos)];
                let (pred, residual, params) = (&self.inner_pred, &self.residual, &ctx.params);
                let (pending, inner_rows, inner_cols) =
                    (&mut self.pending, &mut self.inner_rows, &self.inner_cols);
                // A position past the opened rows (index briefly ahead of
                // them) is skipped by the fetcher.
                fetcher.for_each(&[pos], |_, inner_row| {
                    let keep = match pred {
                        Some(p) => p.passes(inner_row, params)?,
                        None => true,
                    } && residual.iter().all(|(outer_pos, inner_col)| {
                        outer
                            .cell(*outer_pos, at)
                            .sql_cmp(Cell::of(&inner_row[*inner_col]))
                            == Some(Ordering::Equal)
                    });
                    if keep {
                        pending.push(at as u32);
                        inner_rows.push_projected(inner_row, inner_cols, &rid);
                    }
                    Ok(true)
                })?;
                if out.len() + self.pending.len() >= target {
                    flush_joined(
                        &mut out,
                        &self.outer_rows,
                        &mut self.pending,
                        &mut self.inner_rows,
                    );
                    return Ok(Some(out));
                }
            }
            // Advance the outer; fetch charges for the whole match list
            // (rows and page transitions) are taken up front at probe time.
            if self.outer_rows.step() {
                let (outer, at) = self.outer_rows.current().expect("stepped onto a row");
                let key = outer.value(self.outer_key_pos, at);
                self.inner_index.probe_into(&key, &mut self.matches)?;
                self.match_pos = 0;
                let mut new_pages = 0u64;
                for &p in &self.matches {
                    let pg = fetcher.page_of(p);
                    if self.last_page != Some(pg) {
                        self.last_page = Some(pg);
                        new_pages += 1;
                    }
                }
                ctx.charge(
                    ctx.model.index_probe
                        + self.matches.len() as f64 * ctx.model.index_fetch_row
                        + new_pages as f64 * ctx.model.page_io * ctx.model.seq_vs_random,
                );
                continue;
            }
            // The outer batch is done: copy out what joined against it
            // before it is released.
            flush_joined(
                &mut out,
                &self.outer_rows,
                &mut self.pending,
                &mut self.inner_rows,
            );
            match self.outer_rows.refill(self.outer.as_mut(), ctx) {
                Err(sig) => return super::stash_or_raise(sig, out, &mut self.pending_signal),
                Ok(false) => return Ok(if out.is_empty() { None } else { Some(out) }),
                Ok(true) => {}
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.outer.close(ctx);
        self.fetcher = None;
        self.outer_rows.reset();
        self.pending.clear();
        self.inner_rows = RowBatch::new();
    }
}

/// The completed build phase of a hash join: the build rows in one flat
/// buffer, the chained index over their keys, the simulated spill factor,
/// and the bytes reserved against the governor.
struct BuildState {
    /// Build rows, stored exactly once (shared with the build's harvest).
    rows: Arc<RowBatch>,
    /// Key positions in a build row.
    key_pos: Vec<usize>,
    /// Key hash → chain of `rows` indices, in build order.
    index: ChainIndex,
    spill_passes: f64,
    /// Resident bytes charged to the governor; released at `close`.
    reserved: u64,
}

/// Run the build phase: drain `build` into the row buffer and index it,
/// hashing the key columns a column at a time, charging `hash_build_row`
/// per row, reserving the buffer's bytes, and registering the harvest (if
/// any) with `ctx`. The caller owns the returned state's byte reservation.
fn run_hash_build(
    build: &mut dyn Operator,
    build_key_pos: &[usize],
    build_harvest: Option<&HarvestInfo>,
    ctx: &mut ExecCtx,
) -> OpResult<BuildState> {
    let mut reserved = 0;
    let row_charge = ctx.model.hash_build_row;
    let rows = materialize(build, row_charge, &mut reserved, ctx)?;
    let (mut hashes, mut nulls) = (Vec::new(), Vec::new());
    hash_keys(&rows, build_key_pos, &mut hashes, &mut nulls);
    // NULL keys never join: such rows stay out of the index.
    let index = ChainIndex::build(rows.len(), rows.len(), |r| (!nulls[r]).then_some(hashes[r]));
    if let Some(info) = build_harvest {
        ctx.harvests
            .push(Harvest::new(info, Arc::clone(&rows), None));
    }
    // Simulated grace-hash spill: the same step function the optimizer
    // models, so misestimated builds really do cost what the model says.
    let spill_passes = ctx.model.spill_passes(rows.len() as f64);
    if spill_passes > 0.0 {
        ctx.charge(spill_passes * rows.len() as f64 * ctx.model.spill_row);
    }
    Ok(BuildState {
        rows,
        key_pos: build_key_pos.to_vec(),
        index,
        spill_passes,
        reserved,
    })
}

/// Hash join: the build side is fully materialized into one flat row
/// buffer plus a chained index at `open`; the probe side streams and is
/// joined a batch at a time, in phases:
///
/// 1. hash the probe batch's key columns, a column at a time;
/// 2. look up every live row's chain head (NULL keys never join);
/// 3. walk the chains row by row, comparing typed keys against the build
///    buffer's key columns, and collect `(build, probe)` row-index pairs;
/// 4. gather the output columns from the pair list.
///
/// Pairs come out in probe order, each probe row's in chain (= build)
/// order, and step 3 stops as soon as the output batch is full — so the
/// output order, the batch boundaries and the per-probe-row work charges
/// (taken as the walk reaches each row) are the row-at-a-time join's.
/// Build overflow past the memory budget charges simulated spill passes,
/// mirroring the cost model's step function.
pub struct HsjnOp {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key_pos: Vec<usize>,
    probe_key_pos: Vec<usize>,
    /// When set, the completed build is snapshotted as a reusable
    /// intermediate result — the hash-join-build reuse the paper lists as
    /// a planned enhancement of its prototype (§4).
    build_harvest: Option<HarvestInfo>,
    /// The completed build, populated at `open`.
    state: Option<BuildState>,
    /// The probe stream; its current row is the one being matched.
    probe_rows: RowCursor,
    /// Chain head of each live row of the buffered probe batch, in order.
    heads: Vec<u32>,
    /// Next build row of the current probe row's chain ([`NIL`] = done).
    chain: u32,
    /// Matches not yet copied out: build rows and buffered probe rows.
    pair_build: Vec<u32>,
    pair_probe: Vec<u32>,
    /// Key-hash scratch for one probe batch.
    hashes: Vec<u64>,
    nulls: Vec<bool>,
    pending_signal: Option<crate::ExecSignal>,
}

impl HsjnOp {
    /// Create a hash join.
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key_pos: Vec<usize>,
        probe_key_pos: Vec<usize>,
    ) -> Self {
        HsjnOp {
            build,
            probe,
            build_key_pos,
            probe_key_pos,
            build_harvest: None,
            state: None,
            probe_rows: RowCursor::default(),
            heads: Vec::new(),
            chain: NIL,
            pair_build: Vec::new(),
            pair_probe: Vec::new(),
            hashes: Vec::new(),
            nulls: Vec::new(),
            pending_signal: None,
        }
    }

    /// Enable build-side harvesting.
    pub fn with_build_harvest(mut self, harvest: Option<HarvestInfo>) -> Self {
        self.build_harvest = harvest;
        self
    }
}

/// Gather the output rows of the collected pairs (phase 4).
fn flush_pairs(
    out: &mut RowBatch,
    build: &RowBatch,
    probe: &RowBatch,
    pair_build: &mut Vec<u32>,
    pair_probe: &mut Vec<u32>,
) {
    out.extend_joined(
        build,
        pair_build.iter().map(|r| *r as usize),
        probe,
        pair_probe.iter().map(|p| *p as usize),
    );
    pair_build.clear();
    pair_probe.clear();
}

impl Operator for HsjnOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.build.open(ctx)?;
        self.state = Some(run_hash_build(
            self.build.as_mut(),
            &self.build_key_pos,
            self.build_harvest.as_ref(),
            ctx,
        )?);
        self.probe.open(ctx)?;
        self.probe_rows.reset();
        self.heads.clear();
        self.chain = NIL;
        self.pair_build.clear();
        self.pair_probe.clear();
        self.pending_signal = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if let Some(sig) = self.pending_signal.take() {
            return Err(sig);
        }
        let state = self
            .state
            .as_ref()
            .ok_or_else(|| super::protocol_err("HSJN next_batch() before open()"))?;
        let target = ctx.batch_size.max(1);
        let row_charge = ctx.model.hash_probe_row + state.spill_passes * ctx.model.spill_row;
        let mut out = RowBatch::with_capacity(target);
        loop {
            // Phase 3: walk the current probe row's chain.
            if self.chain != NIL {
                let (probe, p) = self
                    .probe_rows
                    .current()
                    .ok_or_else(|| super::protocol_err("HSJN match without a probe row"))?;
                while self.chain != NIL {
                    let r = self.chain;
                    self.chain = state.index.next_of(r);
                    // The chain holds every build row of the bucket.
                    let hit = state
                        .key_pos
                        .iter()
                        .zip(&self.probe_key_pos)
                        .all(|(b, q)| state.rows.col(*b).key_eq(r as usize, probe.col(*q), p));
                    if hit {
                        self.pair_build.push(r);
                        self.pair_probe.push(p as u32);
                        if out.len() + self.pair_build.len() >= target {
                            flush_pairs(
                                &mut out,
                                &state.rows,
                                probe,
                                &mut self.pair_build,
                                &mut self.pair_probe,
                            );
                            return Ok(Some(out));
                        }
                    }
                }
            }
            if self.probe_rows.step() {
                ctx.charge(row_charge);
                self.chain = self.heads[self.probe_rows.ordinal()];
                continue;
            }
            // Phase 4 for the exhausted probe batch, then the next one.
            if let Some((probe, _)) = self.probe_rows.current() {
                flush_pairs(
                    &mut out,
                    &state.rows,
                    probe,
                    &mut self.pair_build,
                    &mut self.pair_probe,
                );
            }
            match self.probe_rows.refill(self.probe.as_mut(), ctx) {
                Err(sig) => return super::stash_or_raise(sig, out, &mut self.pending_signal),
                Ok(false) => return Ok(if out.is_empty() { None } else { Some(out) }),
                Ok(true) => {
                    // Phases 1 and 2 for the new probe batch.
                    let (probe, _) = self.probe_rows.current().expect("refilled");
                    hash_keys(
                        probe,
                        &self.probe_key_pos,
                        &mut self.hashes,
                        &mut self.nulls,
                    );
                    self.heads.clear();
                    self.heads
                        .extend(self.hashes.iter().zip(&self.nulls).map(|(h, null)| {
                            if *null {
                                NIL
                            } else {
                                state.index.first(*h)
                            }
                        }));
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.build.close(ctx);
        if let Some(state) = self.state.take() {
            ctx.guard_release(state.reserved);
        }
        self.probe.close(ctx);
        self.probe_rows.reset();
        self.pair_build.clear();
        self.pair_probe.clear();
    }
}

/// Semi/anti probe for a correlated EXISTS clause: for each input row,
/// probe the inner table's index on the link column and test whether any
/// matching inner row satisfies the clause predicate. Rows that fail the
/// existential test are dropped from the batch via its selection vector.
pub struct SemiProbeOp {
    input: Box<dyn Operator>,
    outer_pos: usize,
    inner_table: Arc<Table>,
    inner_index: Arc<Index>,
    pred: Option<BoundExpr>,
    negated: bool,
    fetcher: Option<RowFetcher>,
    /// Index positions of the current input row's key, refilled per probe.
    matches: Vec<u64>,
    /// Last inner page fetched from, for random-I/O accounting.
    last_page: Option<u64>,
}

impl SemiProbeOp {
    /// Create a semi/anti probe.
    pub fn new(
        input: Box<dyn Operator>,
        outer_pos: usize,
        inner_table: Arc<Table>,
        inner_index: Arc<Index>,
        pred: Option<BoundExpr>,
        negated: bool,
    ) -> Self {
        SemiProbeOp {
            input,
            outer_pos,
            inner_table,
            inner_index,
            pred,
            negated,
            fetcher: None,
            matches: Vec::new(),
            last_page: None,
        }
    }
}

impl Operator for SemiProbeOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.input.open(ctx)?;
        // Only the clause predicate looks at the inner row.
        let inner_read = read_set(&[], self.pred.as_ref());
        self.fetcher = Some(self.inner_table.fetcher().project(inner_read));
        self.last_page = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if self.fetcher.is_none() {
            return Err(super::protocol_err("semi probe next_batch() before open()"));
        }
        loop {
            let Some(mut b) = self.input.next_batch(ctx)? else {
                return Ok(None);
            };
            let mut charge = 0.0;
            let mut last_page = self.last_page;
            let result: OpResult<()> = b.try_retain_live(|b, i| {
                charge += ctx.model.index_probe;
                let key = b.value(self.outer_pos, i);
                self.inner_index.probe_into(&key, &mut self.matches)?;
                let fetcher = self.fetcher.as_ref().expect("checked above");
                let mut found = false;
                fetcher.for_each(&self.matches, |p, inner| {
                    charge += ctx.model.index_fetch_row;
                    let pg = fetcher.page_of(p);
                    if last_page != Some(pg) {
                        last_page = Some(pg);
                        charge += ctx.model.page_io * ctx.model.seq_vs_random;
                    }
                    let ok = match &self.pred {
                        Some(p) => p.passes(inner, &ctx.params)?,
                        None => true,
                    };
                    if ok {
                        found = true;
                    }
                    // Existential: first qualifying match decides.
                    Ok(!found)
                })?;
                Ok(found != self.negated)
            });
            self.last_page = last_page;
            ctx.charge(charge);
            result?;
            if b.live_count() > 0 {
                return Ok(Some(b));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.fetcher = None;
    }
}

/// Merge join over inputs sorted on the join key (single-column). Both
/// inputs are read in place through cursors; the group of right rows with
/// one key is copied into a buffer batch, so duplicate keys on both sides
/// produce the full cross product. The row-level merge state machine is
/// the row-at-a-time engine's; output accumulates into batches.
pub struct MgjnOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key_pos: usize,
    right_key_pos: usize,
    /// The left stream; its current row (while `left_live`) is merging.
    left_rows: RowCursor,
    left_live: bool,
    /// The right stream; with `right_pending` its current row was read
    /// but belongs to the next group.
    right_rows: RowCursor,
    right_pending: bool,
    right_eof: bool,
    /// The current group of equal-keyed right rows.
    group: RowBatch,
    group_key: Option<Value>,
    group_pos: usize,
    pending_signal: Option<crate::ExecSignal>,
}

impl MgjnOp {
    /// Create a merge join.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key_pos: usize,
        right_key_pos: usize,
    ) -> Self {
        MgjnOp {
            left,
            right,
            left_key_pos,
            right_key_pos,
            left_rows: RowCursor::default(),
            left_live: false,
            right_rows: RowCursor::default(),
            right_pending: false,
            right_eof: false,
            group: RowBatch::new(),
            group_key: None,
            group_pos: 0,
            pending_signal: None,
        }
    }

    /// Key of the cursor's current row.
    fn key(cursor: &RowCursor, pos: usize) -> Value {
        let (b, at) = cursor.current().expect("cursor on a row");
        b.value(pos, at)
    }

    fn advance_left(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        loop {
            self.left_live = self.left_rows.advance(self.left.as_mut(), ctx)?;
            if self.left_live {
                ctx.charge(ctx.model.merge_row);
                if Self::key(&self.left_rows, self.left_key_pos).is_null() {
                    continue; // NULL keys never join
                }
            }
            return Ok(());
        }
    }

    /// Move to the next right row with a non-NULL key (or re-deliver the
    /// pending one); `false` once the right input is exhausted.
    fn pull_right(&mut self, ctx: &mut ExecCtx) -> OpResult<bool> {
        if std::mem::take(&mut self.right_pending) {
            return Ok(true);
        }
        if self.right_eof {
            return Ok(false);
        }
        loop {
            if !self.right_rows.advance(self.right.as_mut(), ctx)? {
                self.right_eof = true;
                return Ok(false);
            }
            ctx.charge(ctx.model.merge_row);
            if !Self::key(&self.right_rows, self.right_key_pos).is_null() {
                return Ok(true);
            }
        }
    }

    /// Copy the right cursor's current row into the group buffer.
    fn take_right(&mut self) {
        let (b, at) = self.right_rows.current().expect("right cursor on a row");
        self.group.push_from(b, at);
    }

    /// Load the group of right rows with key >= left key; returns when the
    /// group matches the left key or is positioned beyond it.
    fn load_group(&mut self, ctx: &mut ExecCtx, left_key: &Value) -> OpResult<()> {
        // Skip right rows below the left key.
        loop {
            if !self.pull_right(ctx)? {
                self.group.reset();
                self.group_key = None;
                return Ok(());
            }
            let k = Self::key(&self.right_rows, self.right_key_pos);
            if k.cmp_total(left_key) == Ordering::Less {
                continue;
            }
            // Collect the full group of rows with key k.
            self.group.reset();
            self.take_right();
            while self.pull_right(ctx)? {
                if Self::key(&self.right_rows, self.right_key_pos).cmp_total(&k) == Ordering::Equal
                {
                    self.take_right();
                } else {
                    self.right_pending = true;
                    break;
                }
            }
            self.group_key = Some(k);
            return Ok(());
        }
    }

    /// One step of the merge state machine: the group row to join with
    /// the current left row next, if any.
    fn next_joined(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<usize>> {
        loop {
            if !self.left_live {
                return Ok(None);
            }
            let left_key = Self::key(&self.left_rows, self.left_key_pos);
            if let Some(gk) = self.group_key.clone() {
                match left_key.cmp_total(&gk) {
                    Ordering::Equal => {
                        if self.group_pos < self.group.len() {
                            self.group_pos += 1;
                            return Ok(Some(self.group_pos - 1));
                        }
                        // Group exhausted for this left row: advance left;
                        // an equal next left key replays the group.
                        self.advance_left(ctx)?;
                        self.group_pos = 0;
                        if self.left_live
                            && Self::key(&self.left_rows, self.left_key_pos).cmp_total(&gk)
                                != Ordering::Equal
                        {
                            self.group.reset();
                            self.group_key = None;
                        }
                    }
                    Ordering::Less => {
                        // Left key below the group: advance left.
                        self.advance_left(ctx)?;
                    }
                    Ordering::Greater => {
                        // Left moved past the group: reload.
                        self.group.reset();
                        self.group_key = None;
                        self.group_pos = 0;
                    }
                }
            } else {
                if self.right_eof && !self.right_pending {
                    return Ok(None);
                }
                self.load_group(ctx, &left_key)?;
                self.group_pos = 0;
                if self.group_key.is_none() {
                    return Ok(None); // right exhausted
                }
            }
        }
    }
}

impl Operator for MgjnOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        self.left_rows.reset();
        self.right_rows.reset();
        self.left_live = false;
        self.group.reset();
        self.group_key = None;
        self.group_pos = 0;
        self.right_pending = false;
        self.right_eof = false;
        self.pending_signal = None;
        self.advance_left(ctx)?;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if let Some(sig) = self.pending_signal.take() {
            return Err(sig);
        }
        let target = ctx.batch_size.max(1);
        let mut out = RowBatch::with_capacity(target);
        while out.len() < target {
            match self.next_joined(ctx) {
                Err(sig) => return super::stash_or_raise(sig, out, &mut self.pending_signal),
                Ok(None) => break,
                Ok(Some(g)) => {
                    let (left, at) = self.left_rows.current().expect("left cursor on a row");
                    out.extend_joined(left, std::iter::once(at), &self.group, std::iter::once(g));
                }
            }
        }
        Ok(if out.is_empty() { None } else { Some(out) })
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.left.close(ctx);
        self.right.close(ctx);
        self.left_rows.reset();
        self.right_rows.reset();
        self.group = RowBatch::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{drain, SortOp, TableScanOp};
    use pop_expr::Params;
    use pop_plan::CostModel;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{DataType, Row, Schema};

    fn setup() -> (ExecCtx, Arc<Table>, Arc<Table>) {
        let cat = Catalog::new();
        let left = cat
            .create_table(
                "l",
                Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Str)]),
                vec![
                    vec![Value::Int(1), Value::str("a")],
                    vec![Value::Int(2), Value::str("b")],
                    vec![Value::Int(2), Value::str("c")],
                    vec![Value::Null, Value::str("n")],
                ],
            )
            .unwrap();
        let right = cat
            .create_table(
                "r",
                Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Str)]),
                vec![
                    vec![Value::Int(2), Value::str("x")],
                    vec![Value::Int(2), Value::str("y")],
                    vec![Value::Int(3), Value::str("z")],
                    vec![Value::Null, Value::str("m")],
                ],
            )
            .unwrap();
        cat.create_index("r", "k", IndexKind::Hash).unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        (ctx, left, right)
    }

    /// The operator's rows, sorted.
    fn sorted_rows(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Row> {
        let mut out: Vec<Row> = drain(op, ctx).into_iter().map(|(r, _)| r).collect();
        out.sort();
        out
    }

    fn expected_join() -> Vec<Row> {
        // l.k = r.k: rows with k=2 on both sides -> 2x2 = 4 rows.
        let mut v = vec![
            vec![
                Value::Int(2),
                Value::str("b"),
                Value::Int(2),
                Value::str("x"),
            ],
            vec![
                Value::Int(2),
                Value::str("b"),
                Value::Int(2),
                Value::str("y"),
            ],
            vec![
                Value::Int(2),
                Value::str("c"),
                Value::Int(2),
                Value::str("x"),
            ],
            vec![
                Value::Int(2),
                Value::str("c"),
                Value::Int(2),
                Value::str("y"),
            ],
        ];
        v.sort();
        v
    }

    #[test]
    fn nljn_matches_expected() {
        let (mut ctx, left, right) = setup();
        let idx = ctx.catalog.find_index(right.id(), 0, false).unwrap();
        let outer = Box::new(TableScanOp::new(left, None));
        let mut op = NljnOp::new(outer, 0, right, idx, None, vec![]);
        assert_eq!(sorted_rows(&mut op, &mut ctx), expected_join());
    }

    #[test]
    fn hsjn_matches_expected() {
        let (mut ctx, left, right) = setup();
        let b = Box::new(TableScanOp::new(left, None));
        let p = Box::new(TableScanOp::new(right, None));
        let mut op = HsjnOp::new(b, p, vec![0], vec![0]);
        assert_eq!(sorted_rows(&mut op, &mut ctx), expected_join());
    }

    #[test]
    fn hsjn_single_batch_splits_at_batch_size() {
        let (mut ctx, left, right) = setup();
        ctx.batch_size = 3;
        let b = Box::new(TableScanOp::new(left, None));
        let p = Box::new(TableScanOp::new(right, None));
        let mut op = HsjnOp::new(b, p, vec![0], vec![0]);
        op.open(&mut ctx).unwrap();
        let first = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(first.live_count(), 3);
        let second = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(second.live_count(), 1);
        assert!(op.next_batch(&mut ctx).unwrap().is_none());
        op.close(&mut ctx);
    }

    #[test]
    fn mgjn_matches_expected() {
        let (mut ctx, left, right) = setup();
        // Sort both sides on the key first.
        let l = Box::new(SortOp::new(
            Box::new(TableScanOp::new(left, None)),
            0,
            false,
            None,
        ));
        let r = Box::new(SortOp::new(
            Box::new(TableScanOp::new(right, None)),
            0,
            false,
            None,
        ));
        let mut op = MgjnOp::new(l, r, 0, 0);
        assert_eq!(sorted_rows(&mut op, &mut ctx), expected_join());
    }

    #[test]
    fn hsjn_charges_spill_when_build_too_big() {
        let cat = Catalog::new();
        let n = 12_000u64; // beyond the 10k default budget
        let big = cat
            .create_table(
                "big",
                Schema::from_pairs(&[("k", DataType::Int)]),
                (0..n).map(|i| vec![Value::Int(i as i64)]).collect(),
            )
            .unwrap();
        let small = cat
            .create_table(
                "small",
                Schema::from_pairs(&[("k", DataType::Int)]),
                vec![vec![Value::Int(5)]],
            )
            .unwrap();
        let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        let b = Box::new(TableScanOp::new(big, None));
        let p = Box::new(TableScanOp::new(small, None));
        let mut op = HsjnOp::new(b, p, vec![0], vec![0]);
        op.open(&mut ctx).unwrap();
        // Work includes scan + build + one spill pass over 12k rows.
        let expected_spill = 1.0 * n as f64 * ctx.model.spill_row;
        assert!(
            ctx.work >= n as f64 * (ctx.model.seq_row + ctx.model.hash_build_row) + expected_spill,
            "work {} lacks spill charge",
            ctx.work
        );
        op.close(&mut ctx);
    }

    /// The build buffer is charged to the byte budget at its typed size:
    /// 10 000 rows of three `Int` columns and one rid hold 3 × 8 + 16 =
    /// 40 B a row (24 B per value plus the rid, 88 B, in a buffer of
    /// `Value`s).
    #[test]
    fn hash_build_is_charged_its_typed_bytes() {
        let cat = Catalog::new();
        let n = 10_000i64;
        let t = cat
            .create_table(
                "t",
                Schema::from_pairs(&[
                    ("a", DataType::Int),
                    ("b", DataType::Int),
                    ("c", DataType::Int),
                ]),
                (0..n)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(-i)])
                    .collect(),
            )
            .unwrap();
        let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        let mut scan = TableScanOp::new(t, None);
        scan.open(&mut ctx).unwrap();
        let state = run_hash_build(&mut scan, &[0], None, &mut ctx).unwrap();
        let per_row = state.reserved as f64 / n as f64;
        assert!(per_row <= 48.0, "{per_row} B per build row");
        assert_eq!(state.reserved, n as u64 * 40);
    }

    /// Hash-key semantics of the probe path, one table of cases × batch
    /// sizes 1 / 7 / 1024. Rows are
    /// `(key columns.., tag)`; a case expects the joined `(build tag,
    /// probe tag)` pairs in emission order.
    #[test]
    fn hash_key_table() {
        struct Case {
            name: &'static str,
            key_cols: usize,
            build: Vec<Vec<Value>>,
            probe: Vec<Vec<Value>>,
            expect: Vec<(&'static str, &'static str)>,
        }
        let row = |key: &[Value], tag: &str| -> Vec<Value> {
            key.iter().cloned().chain([Value::str(tag)]).collect()
        };
        let int = Value::Int;
        let float = Value::Float;
        let cases = vec![
            Case {
                name: "Int / Float / Date keys of equal value join as equal",
                key_cols: 1,
                build: vec![row(&[int(3)], "b3"), row(&[int(4)], "b4")],
                probe: vec![
                    row(&[float(3.0)], "pf"),
                    row(&[Value::Date(3)], "pd"),
                    row(&[float(3.5)], "px"),
                    row(&[int(4)], "pi"),
                ],
                expect: vec![("b3", "pf"), ("b3", "pd"), ("b4", "pi")],
            },
            Case {
                name: "-0.0 and 0.0 are different keys, NaN joins NaN, Int 0 joins 0.0",
                key_cols: 1,
                build: vec![
                    row(&[float(-0.0)], "bneg"),
                    row(&[float(0.0)], "bpos"),
                    row(&[float(f64::NAN)], "bnan"),
                    row(&[int(0)], "bint"),
                ],
                probe: vec![
                    row(&[float(0.0)], "p0"),
                    row(&[float(-0.0)], "pn"),
                    row(&[float(f64::NAN)], "pnan"),
                    row(&[int(0)], "pi"),
                ],
                expect: vec![
                    ("bpos", "p0"),
                    ("bint", "p0"),
                    ("bneg", "pn"),
                    ("bnan", "pnan"),
                    ("bpos", "pi"),
                    ("bint", "pi"),
                ],
            },
            Case {
                name: "strings sharing a prefix are different keys",
                key_cols: 1,
                build: vec![
                    row(&[Value::str("abcdefgh")], "b8"),
                    row(&[Value::str("abcdefghi")], "b9"),
                    row(&[Value::str("abc")], "b3"),
                    row(&[Value::str("")], "be"),
                ],
                probe: vec![
                    row(&[Value::str("abcdefghi")], "p9"),
                    row(&[Value::str("abcdefgh")], "p8"),
                    row(&[Value::str("abcd")], "px"),
                    row(&[Value::str("")], "pe"),
                ],
                expect: vec![("b9", "p9"), ("b8", "p8"), ("be", "pe")],
            },
            Case {
                name: "NULL keys never join, not even each other",
                key_cols: 1,
                build: vec![row(&[Value::Null], "bn"), row(&[int(1)], "b1")],
                probe: vec![row(&[Value::Null], "pn"), row(&[int(1)], "p1")],
                expect: vec![("b1", "p1")],
            },
            Case {
                name: "a NULL in either position of a two-column key never joins",
                key_cols: 2,
                build: vec![
                    row(&[Value::Null, Value::str("x")], "bn1"),
                    row(&[int(1), Value::Null], "bn2"),
                    row(&[int(1), Value::str("x")], "b1x"),
                ],
                probe: vec![
                    row(&[Value::Null, Value::str("x")], "pn1"),
                    row(&[int(1), Value::Null], "pn2"),
                    row(&[Value::Null, Value::Null], "pnn"),
                    row(&[int(1), Value::str("x")], "p1x"),
                ],
                expect: vec![("b1x", "p1x")],
            },
            Case {
                name: "multi-column keys match on every column",
                key_cols: 2,
                build: vec![
                    row(&[int(1), Value::str("x")], "b1x"),
                    row(&[int(1), Value::str("y")], "b1y"),
                    row(&[int(2), Value::Null], "b2n"),
                ],
                probe: vec![
                    row(&[int(1), Value::str("y")], "p1y"),
                    row(&[int(2), Value::str("x")], "p2x"),
                    row(&[int(2), Value::Null], "p2n"),
                    row(&[float(1.0), Value::str("x")], "p1x"),
                ],
                expect: vec![("b1y", "p1y"), ("b1x", "p1x")],
            },
            Case {
                name: "a key column that turns mixed mid-stream joins by value",
                key_cols: 1,
                build: vec![
                    row(&[int(1)], "b1"),
                    row(&[int(2)], "b2"),
                    row(&[Value::str("2")], "bs"),
                    row(&[float(1.0)], "bf"),
                ],
                probe: vec![
                    row(&[int(2)], "p2"),
                    row(&[float(1.0)], "pf"),
                    row(&[Value::str("2")], "ps"),
                    row(&[Value::Date(1)], "pd"),
                ],
                expect: vec![
                    ("b2", "p2"),
                    ("b1", "pf"),
                    ("bf", "pf"),
                    ("bs", "ps"),
                    ("b1", "pd"),
                    ("bf", "pd"),
                ],
            },
            Case {
                name: "duplicate build keys emit in build order, per probe row",
                key_cols: 1,
                build: (0..9)
                    .map(|i| {
                        row(
                            &[int(i % 2)],
                            ["a", "b", "c", "d", "e", "f", "g", "h", "i"][i as usize],
                        )
                    })
                    .collect(),
                probe: vec![
                    row(&[int(0)], "p"),
                    row(&[int(1)], "q"),
                    row(&[int(0)], "r"),
                ],
                expect: vec![
                    ("a", "p"),
                    ("c", "p"),
                    ("e", "p"),
                    ("g", "p"),
                    ("i", "p"),
                    ("b", "q"),
                    ("d", "q"),
                    ("f", "q"),
                    ("h", "q"),
                    ("a", "r"),
                    ("c", "r"),
                    ("e", "r"),
                    ("g", "r"),
                    ("i", "r"),
                ],
            },
            Case {
                name: "a zero-column key matches every pair, NULL columns or not",
                key_cols: 0,
                build: vec![row(&[], "a"), row(&[], "b")],
                probe: vec![row(&[], "p"), row(&[], "q")],
                expect: vec![("a", "p"), ("b", "p"), ("a", "q"), ("b", "q")],
            },
            Case {
                name: "an empty build joins nothing",
                key_cols: 1,
                build: vec![],
                probe: vec![row(&[int(1)], "p"), row(&[Value::Null], "q")],
                expect: vec![],
            },
        ];
        for case in &cases {
            let cat = Catalog::new();
            let schema = |prefix: &str| {
                let cols: Vec<(String, DataType)> = (0..=case.key_cols)
                    .map(|i| (format!("{prefix}{i}"), DataType::Int))
                    .collect();
                let pairs: Vec<(&str, DataType)> =
                    cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                Schema::from_pairs(&pairs)
            };
            let build = cat
                .create_table("b", schema("b"), case.build.clone())
                .unwrap();
            let probe = cat
                .create_table("p", schema("p"), case.probe.clone())
                .unwrap();
            let keys: Vec<usize> = (0..case.key_cols).collect();
            let tags = |rows: &[(Row, Vec<Rid>)]| -> Vec<(String, String)> {
                let tag = |v: &Value| v.as_str().unwrap().to_string();
                rows.iter()
                    .map(|(r, _)| (tag(&r[case.key_cols]), tag(r.last().unwrap())))
                    .collect()
            };
            let expect: Vec<(String, String)> = case
                .expect
                .iter()
                .map(|(b, p)| ((*b).to_string(), (*p).to_string()))
                .collect();
            for batch_size in [1, 7, 1024] {
                let mut ctx = ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
                ctx.batch_size = batch_size;
                let scan = |t: &Arc<Table>| -> Box<dyn Operator> {
                    Box::new(TableScanOp::new(t.clone(), None))
                };
                let mut op = HsjnOp::new(scan(&build), scan(&probe), keys.clone(), keys.clone());
                let rows = drain(&mut op, &mut ctx);
                assert_eq!(tags(&rows), expect, "{} @ {batch_size}", case.name);
            }
        }
    }

    #[test]
    fn nljn_residual_join_filters() {
        let (mut ctx, left, right) = setup();
        let idx = ctx.catalog.find_index(right.id(), 0, false).unwrap();
        let outer = Box::new(TableScanOp::new(left, None));
        // Residual: l.v (pos 1) must equal r.w (col 1) — never true here.
        let mut op = NljnOp::new(outer, 0, right, idx, None, vec![(1, 1)]);
        assert!(drain(&mut op, &mut ctx).is_empty());
    }

    #[test]
    fn semi_probe_keeps_matching_rows_only() {
        let (mut ctx, left, right) = setup();
        let idx = ctx.catalog.find_index(right.id(), 0, false).unwrap();
        let input = Box::new(TableScanOp::new(left.clone(), None));
        // EXISTS (right.k = left.k): keeps the two k=2 rows.
        let mut op = SemiProbeOp::new(input, 0, right.clone(), idx.clone(), None, false);
        let out = drain(&mut op, &mut ctx);
        assert_eq!(out.len(), 2);
        // NOT EXISTS keeps the rest (NULL key probes find nothing).
        let input = Box::new(TableScanOp::new(left, None));
        let mut op = SemiProbeOp::new(input, 0, right, idx, None, true);
        assert_eq!(drain(&mut op, &mut ctx).len(), 2);
    }
}

crate::operators::opaque_debug!(NljnOp, HsjnOp, SemiProbeOp, MgjnOp);
