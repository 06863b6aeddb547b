//! The three join methods: index nested-loop, hash, and merge join.
//!
//! Every join reads its streaming inputs in place through a [`RowCursor`]
//! — no input row is moved or allocated — and builds its output a column
//! at a time: matches are collected as row-index pairs and the columns
//! of its output layout (those read above the join, in its table set's
//! canonical order) gathered from either input into a
//! [`RowBatch`] of up to [`ExecCtx::batch_size`] rows per call. Index
//! fetches (NLJN inners, EXISTS probes) read the inner table as typed
//! columns, filtered and gathered like a scan's.

use crate::batch::{JoinInput, JoinSide};
use crate::context::Harvest;
use crate::operators::key::{hash_keys, ChainIndex, NIL};
use crate::operators::materialize::materialize;
use crate::operators::scan::{page_transitions, read_set};
use crate::operators::{Operator, RowCursor};
use crate::{ExecCtx, OpResult, RowBatch};
use pop_expr::BoundExpr;
use pop_plan::{CostModel, TableSet};
use pop_storage::{Index, RowFetcher, Table};
use pop_types::column::Cell;
use pop_types::Rid;
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
/// The join works a whole outer batch per call into the storage layer:
/// every live row is probed at once ([`Index::probe_batch`]) into one
/// match list with per-row bounds; the list is prefetched (list prefetch:
/// each inner page the batch needs is read once, in page order) and then
/// fetched in one call, filtered in one pass of the inner predicate, and
/// checked in one pass of the residual join conditions. What survives is
/// a list of joined rows — outer row, fetched inner row and inner rid —
/// in output order. The fetched rows and the lists are reserved against
/// the byte budget until the next batch's replace them.
///
/// Emission walks the outer rows: the work charge stays per outer row
/// (its probe, its matches and their page transitions), taken as the
/// walk steps onto it, and an output batch closes after exactly
/// `batch_size` joined rows — so rows, batch boundaries and the work at
/// each boundary are those of a join that fetched each outer row's
/// matches on its own. Each output batch is gathered straight from the
/// outer batch and the fetched columns, keeping only the columns read
/// above the join.
pub struct NljnOp {
    outer: Box<dyn Operator>,
    outer_key_pos: usize,
    inner_table: Arc<Table>,
    inner_index: Arc<Index>,
    /// Filter on the fetched inner row, bound against the inner schema.
    inner_pred: Option<BoundExpr>,
    /// `(outer position, inner column)` residual equi-join conditions.
    residual: Vec<(usize, usize)>,
    /// Each output column: an outer position or an inner table column.
    cols: Vec<(JoinSide, usize)>,
    fetcher: Option<RowFetcher>,
    /// The outer stream; its current row is the one being emitted.
    outer_rows: RowCursor,
    /// The matches of every live row of the outer batch, in row order:
    /// live row `k`'s are `matches[bounds[k]..bounds[k + 1]]`.
    matches: Vec<u64>,
    bounds: Vec<usize>,
    /// The outer batch's joined rows, in output order.
    joined: Joined,
    /// The current outer row's joined rows not yet emitted: `next..end`.
    next: usize,
    end: usize,
    /// First joined row not yet copied into an output batch.
    flushed: usize,
    /// Bytes of fetched inner rows and lists reserved against the
    /// governor.
    reserved: u64,
    /// Selection-vector scratch over a fetch.
    sel: Vec<u32>,
    /// Last inner page fetched from, for random-I/O accounting.
    last_page: Option<u64>,
    pending_signal: Option<crate::ExecSignal>,
}

/// The joined rows of one outer batch: row `j` joins the outer batch's
/// physical row `outer[j]` with the fetched row `inner[j]` (an index
/// into the fetch's columns), whose rid is `rid[j]` when the run carries
/// `lineage`. Live outer row `k` owns `bounds[k]..bounds[k + 1]`.
#[derive(Debug, Default)]
struct Joined {
    outer: Vec<u32>,
    inner: Vec<u32>,
    rid: Vec<Rid>,
    bounds: Vec<usize>,
    lineage: bool,
}

impl Joined {
    /// Bytes the lists hold.
    fn bytes(&self) -> u64 {
        (std::mem::size_of_val(self.outer.as_slice())
            + std::mem::size_of_val(self.inner.as_slice())
            + std::mem::size_of_val(self.rid.as_slice())
            + std::mem::size_of_val(self.bounds.as_slice())) as u64
    }
}

impl NljnOp {
    /// Create an index NLJN emitting `cols`: [`JoinSide::Left`] outer
    /// positions and [`JoinSide::Right`] inner table columns (each below
    /// the inner schema width), in output order.
    pub fn new(
        outer: Box<dyn Operator>,
        outer_key_pos: usize,
        inner_table: Arc<Table>,
        inner_index: Arc<Index>,
        inner_pred: Option<BoundExpr>,
        residual: Vec<(usize, usize)>,
        cols: Vec<(JoinSide, usize)>,
    ) -> Self {
        NljnOp {
            outer,
            outer_key_pos,
            inner_table,
            inner_index,
            inner_pred,
            residual,
            cols,
            fetcher: None,
            outer_rows: RowCursor::default(),
            matches: Vec::new(),
            bounds: Vec::new(),
            joined: Joined::default(),
            next: 0,
            end: 0,
            flushed: 0,
            reserved: 0,
            sel: Vec::new(),
            last_page: None,
            pending_signal: None,
        }
    }

    /// Probe, fetch, filter and residual-check the live rows of the outer
    /// batch just refilled, into `self.joined`.
    fn join_batch(&mut self, ctx: &ExecCtx) -> OpResult<()> {
        let fetcher = self.fetcher.as_mut().expect("opened");
        let (outer, _) = self.outer_rows.current().expect("refilled");
        self.inner_index.probe_batch(
            outer.col(self.outer_key_pos),
            outer.live_indices(),
            &mut self.matches,
            &mut self.bounds,
        );
        fetcher.prefetch(&self.matches)?;
        let len = fetcher.len();
        let got = fetcher.fetch(&self.matches)?;
        self.sel.clear();
        self.sel.extend_from_slice(got.rows);
        // An empty fetch (no matches, or an empty inner table) has no
        // columns to evaluate against.
        if let (Some(p), false) = (&self.inner_pred, self.sel.is_empty()) {
            p.filter_batch(got.cols, &ctx.params, &mut self.sel)?;
        }
        let j = &mut self.joined;
        j.outer.clear();
        j.inner.clear();
        j.rid.clear();
        j.bounds.clear();
        j.bounds.push(0);
        j.lineage = ctx.lineage;
        let inner_table = self.inner_table.id();
        // `sel` is the subsequence of the fetched rows the predicate
        // passed; the fetch skipped matches past the end of the table.
        let mut passed = self.sel.iter().copied().peekable();
        let mut fetched = got.rows.iter().zip(got.positions);
        for (k, at) in outer.live_indices().enumerate() {
            for _ in self.matches[self.bounds[k]..self.bounds[k + 1]]
                .iter()
                .filter(|p| **p < len)
            {
                let (&row, &pos) = fetched.next().expect("one fetched row per match");
                if passed.next_if_eq(&row).is_none() {
                    continue;
                }
                let r = row as usize;
                let joins = self.residual.iter().all(|&(outer_pos, inner_col)| {
                    outer
                        .cell(outer_pos, at)
                        .sql_cmp(got.cols[inner_col].cell(r))
                        == Some(Ordering::Equal)
                });
                if joins {
                    j.outer.push(at as u32);
                    j.inner.push(row);
                    if ctx.lineage {
                        j.rid.push(Rid::new(inner_table, pos));
                    }
                }
            }
            j.bounds.push(j.outer.len());
        }
        (self.next, self.end, self.flushed) = (0, 0, 0);
        Ok(())
    }

    /// Copy the joined rows `flushed..next` into `out`: the output's outer
    /// columns gathered from the outer batch, its inner columns straight
    /// from the fetched ones.
    fn flush(&mut self, out: &mut RowBatch) {
        let (Some(fetcher), Some((outer, _))) = (&self.fetcher, self.outer_rows.current()) else {
            return;
        };
        let range = self.flushed..self.next;
        self.flushed = self.next;
        if range.is_empty() {
            return;
        }
        let got = fetcher.fetched();
        let j = &self.joined;
        let inner_rid = |i: usize| {
            if j.lineage {
                std::slice::from_ref(&j.rid[i])
            } else {
                &[]
            }
        };
        let lineage = (outer.lineage_width() > 0 || j.lineage).then(|| {
            range
                .clone()
                .map(|i| [outer.lineage_at(j.outer[i] as usize), inner_rid(i)])
        });
        out.extend_joined(
            &self.cols,
            JoinInput {
                cols: outer.columns(),
                rows: j.outer[range.clone()].iter().map(|o| *o as usize),
            },
            JoinInput {
                cols: got.cols,
                rows: j.inner[range].iter().map(|r| *r as usize),
            },
            lineage,
        );
    }
}

impl Operator for NljnOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.outer.open(ctx)?;
        // The inner row is read for its output columns, the predicate and
        // the residual join columns — nothing else is decoded.
        let inner_cols: Vec<usize> = (self.cols.iter())
            .filter(|(side, _)| *side == JoinSide::Right)
            .map(|(_, c)| *c)
            .collect();
        let inner_read = read_set(&inner_cols, self.inner_pred.as_ref())
            .into_iter()
            .chain(self.residual.iter().map(|&(_, inner_col)| inner_col));
        self.fetcher = Some(self.inner_table.fetcher().project(inner_read));
        self.outer_rows.reset();
        self.matches.clear();
        self.bounds.clear();
        self.joined = Joined::default();
        (self.next, self.end, self.flushed) = (0, 0, 0);
        self.last_page = None;
        self.pending_signal = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if self.fetcher.is_none() {
            return Err(super::protocol_err("NLJN next_batch() before open()"));
        }
        if let Some(sig) = self.pending_signal.take() {
            return Err(sig);
        }
        let target = ctx.batch_size.max(1);
        let mut out = RowBatch::with_capacity(target);
        loop {
            // Emit the current outer row's joined rows, as many as the
            // output batch has room for.
            if self.next < self.end {
                let room = target - (out.len() + self.next - self.flushed);
                self.next = (self.next + room).min(self.end);
                if out.len() + self.next - self.flushed == target {
                    self.flush(&mut out);
                    return Ok(Some(out));
                }
            }
            // Step onto the next outer row; its probe and fetch charges
            // (its matches and their page transitions) are taken here.
            if self.outer_rows.step() {
                let k = self.outer_rows.ordinal();
                let matches = &self.matches[self.bounds[k]..self.bounds[k + 1]];
                let fetcher = self.fetcher.as_ref().expect("opened");
                let new_pages =
                    page_transitions(fetcher, &mut self.last_page, matches.iter().copied());
                ctx.charge(ctx.model.index_access(1.0, matches.len() as f64, new_pages));
                (self.next, self.end) = (self.joined.bounds[k], self.joined.bounds[k + 1]);
                continue;
            }
            // The outer batch is done: copy out what joined against it
            // before it is released.
            self.flush(&mut out);
            match self.outer_rows.refill(self.outer.as_mut(), ctx) {
                Err(sig) => return super::stash_or_raise(sig, out, &mut self.pending_signal),
                Ok(false) => return Ok(if out.is_empty() { None } else { Some(out) }),
                Ok(true) => {}
            }
            self.join_batch(ctx)?;
            // The previous batch's fetched rows and lists give their
            // reservation back.
            ctx.guard_release(self.reserved);
            let fetched = self.fetcher.as_ref().expect("opened").prefetched_bytes();
            let lists = std::mem::size_of_val(self.matches.as_slice())
                + std::mem::size_of_val(self.bounds.as_slice());
            self.reserved = fetched + lists as u64 + self.joined.bytes();
            ctx.guard_reserve(self.reserved)?;
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.outer.close(ctx);
        ctx.guard_release(std::mem::take(&mut self.reserved));
        self.fetcher = None;
        self.outer_rows.reset();
        self.joined = Joined::default();
        (self.next, self.end, self.flushed) = (0, 0, 0);
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
/// hashing the key columns a column at a time, charging the hash build
/// per batch and its spill step at the end, reserving the buffer's bytes,
/// and registering the harvest (if any) with `ctx`. The caller owns the returned state's byte reservation.
fn run_hash_build(
    build: &mut dyn Operator,
    build_key_pos: &[usize],
    build_harvest: Option<TableSet>,
    ctx: &mut ExecCtx,
) -> OpResult<BuildState> {
    let mut reserved = 0;
    let rows = materialize(build, CostModel::hash_build, &mut reserved, ctx)?;
    let (mut hashes, mut nulls) = (Vec::new(), Vec::new());
    hash_keys(&rows, build_key_pos, &mut hashes, &mut nulls);
    // NULL keys never join: such rows stay out of the index.
    let index = ChainIndex::build(rows.len(), rows.len(), |r| (!nulls[r]).then_some(hashes[r]));
    if let Some(tables) = build_harvest {
        ctx.harvests
            .push(Harvest::new(tables, Arc::clone(&rows), None));
    }
    // Simulated grace-hash spill: misestimated builds really do cost what
    // the model says.
    let spill_passes = ctx.model.spill_passes(rows.len() as f64);
    ctx.charge(ctx.model.hash_build_spill(rows.len() as f64));
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
/// Build overflow past the memory budget charges simulated spill passes.
pub struct HsjnOp {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key_pos: Vec<usize>,
    probe_key_pos: Vec<usize>,
    /// Each output column: a build or a probe position.
    cols: Vec<(JoinSide, usize)>,
    /// When set, the completed build is snapshotted as a reusable
    /// intermediate result over this table set — the hash-join-build
    /// reuse the paper lists as a planned enhancement of its prototype
    /// (§4).
    build_harvest: Option<TableSet>,
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
    /// Create a hash join emitting `cols`: [`JoinSide::Left`] build
    /// positions and [`JoinSide::Right`] probe positions, in output order.
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key_pos: Vec<usize>,
        probe_key_pos: Vec<usize>,
        cols: Vec<(JoinSide, usize)>,
    ) -> Self {
        HsjnOp {
            build,
            probe,
            build_key_pos,
            probe_key_pos,
            cols,
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

    /// Harvest the completed build as the materialization of `harvest`.
    pub fn with_build_harvest(mut self, harvest: Option<TableSet>) -> Self {
        self.build_harvest = harvest;
        self
    }
}

/// Gather the output columns of the collected pairs (phase 4).
fn flush_pairs(
    out: &mut RowBatch,
    cols: &[(JoinSide, usize)],
    build: &RowBatch,
    probe: &RowBatch,
    pair_build: &mut Vec<u32>,
    pair_probe: &mut Vec<u32>,
) {
    out.extend_joined(
        cols,
        joined_input(build, pair_build),
        joined_input(probe, pair_probe),
        (build.lineage_width() + probe.lineage_width() > 0).then(|| {
            (pair_build.iter().zip(pair_probe.iter()))
                .map(|(b, p)| [build.lineage_at(*b as usize), probe.lineage_at(*p as usize)])
        }),
    );
    pair_build.clear();
    pair_probe.clear();
}

/// The rows `rows` of a batch input.
fn joined_input<'a>(
    batch: &'a RowBatch,
    rows: &'a [u32],
) -> JoinInput<'a, impl ExactSizeIterator<Item = usize> + Clone + 'a> {
    JoinInput {
        cols: batch.columns(),
        rows: rows.iter().map(|r| *r as usize),
    }
}

impl Operator for HsjnOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.build.open(ctx)?;
        self.state = Some(run_hash_build(
            self.build.as_mut(),
            &self.build_key_pos,
            self.build_harvest,
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
        let row_charge = ctx.model.hash_probe(1.0, state.spill_passes);
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
                                &self.cols,
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
                    &self.cols,
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
/// Each input batch is probed once ([`Index::probe_batch`]); the matches
/// are fetched row by row.
pub struct SemiProbeOp {
    input: Box<dyn Operator>,
    outer_pos: usize,
    inner_table: Arc<Table>,
    inner_index: Arc<Index>,
    pred: Option<BoundExpr>,
    negated: bool,
    fetcher: Option<RowFetcher>,
    /// The matches of every live row of the input batch, in row order:
    /// live row `k`'s are `matches[bounds[k]..bounds[k + 1]]`.
    matches: Vec<u64>,
    bounds: Vec<usize>,
    /// Selection-vector scratch over a fetch.
    sel: Vec<u32>,
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
            bounds: Vec::new(),
            sel: Vec::new(),
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
            self.inner_index.probe_batch(
                b.col(self.outer_pos),
                b.live_indices(),
                &mut self.matches,
                &mut self.bounds,
            );
            let mut charge = 0.0;
            let mut last_page = self.last_page;
            let mut k = 0;
            let result: OpResult<()> = b.try_retain_live(|_, _| {
                let matches = &self.matches[self.bounds[k]..self.bounds[k + 1]];
                k += 1;
                let fetcher = self.fetcher.as_mut().expect("checked above");
                let (mut found, mut fetched, mut new_pages) = (false, 0.0, 0.0);
                // Existential: the first qualifying match decides, so the
                // matches are fetched one at a time and nothing past it is
                // read.
                let len = fetcher.len();
                for &p in matches.iter().filter(|p| **p < len) {
                    fetched += 1.0;
                    new_pages += page_transitions(fetcher, &mut last_page, [p]);
                    let got = fetcher.fetch(&[p])?;
                    self.sel.clear();
                    self.sel.extend_from_slice(got.rows);
                    if let Some(pred) = &self.pred {
                        pred.filter_batch(got.cols, &ctx.params, &mut self.sel)?;
                    }
                    if !self.sel.is_empty() {
                        found = true;
                        break;
                    }
                }
                charge += ctx.model.index_access(1.0, fetched, new_pages);
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
    /// Each output column: a left or a right position.
    cols: Vec<(JoinSide, usize)>,
    /// The left stream; its current row (while `left_live`) is merging.
    left_rows: RowCursor,
    left_live: bool,
    /// The right stream; with `right_pending` its current row was read
    /// but belongs to the next group.
    right_rows: RowCursor,
    right_pending: bool,
    right_eof: bool,
    /// The current group of equal-keyed right rows (empty: none loaded).
    group: RowBatch,
    group_pos: usize,
    pending_signal: Option<crate::ExecSignal>,
}

impl MgjnOp {
    /// Create a merge join emitting `cols`: [`JoinSide::Left`] and
    /// [`JoinSide::Right`] positions, in output order.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key_pos: usize,
        right_key_pos: usize,
        cols: Vec<(JoinSide, usize)>,
    ) -> Self {
        MgjnOp {
            left,
            right,
            left_key_pos,
            right_key_pos,
            cols,
            left_rows: RowCursor::default(),
            left_live: false,
            right_rows: RowCursor::default(),
            right_pending: false,
            right_eof: false,
            group: RowBatch::new(),
            group_pos: 0,
            pending_signal: None,
        }
    }

    /// Key of the cursor's current row, borrowed.
    fn key(cursor: &RowCursor, pos: usize) -> Cell<'_> {
        let (b, at) = cursor.current().expect("cursor on a row");
        b.cell(pos, at)
    }

    /// Key of the current group (its first row's; the group is not empty).
    fn group_key(&self) -> Cell<'_> {
        self.group.cell(self.right_key_pos, 0)
    }

    fn advance_left(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        loop {
            self.left_live = self.left_rows.advance(self.left.as_mut(), ctx)?;
            if self.left_live {
                ctx.charge(ctx.model.merge(1.0));
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
            ctx.charge(ctx.model.merge(1.0));
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

    /// Load the group of right rows with key >= the left key; returns when
    /// the group matches the left key or is positioned beyond it, or with
    /// an empty group once the right input is exhausted.
    fn load_group(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        // Skip right rows below the left key.
        loop {
            if !self.pull_right(ctx)? {
                self.group.reset();
                return Ok(());
            }
            let right = Self::key(&self.right_rows, self.right_key_pos);
            if right.cmp_total(Self::key(&self.left_rows, self.left_key_pos)) == Ordering::Less {
                continue;
            }
            // Collect the full group of rows with the right row's key.
            self.group.reset();
            self.take_right();
            while self.pull_right(ctx)? {
                let next = Self::key(&self.right_rows, self.right_key_pos);
                if next.cmp_total(self.group_key()) == Ordering::Equal {
                    self.take_right();
                } else {
                    self.right_pending = true;
                    break;
                }
            }
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
            if self.group.is_empty() {
                if self.right_eof && !self.right_pending {
                    return Ok(None);
                }
                self.load_group(ctx)?;
                self.group_pos = 0;
                if self.group.is_empty() {
                    return Ok(None); // right exhausted
                }
                continue;
            }
            let left_key = Self::key(&self.left_rows, self.left_key_pos);
            match left_key.cmp_total(self.group_key()) {
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
                        && Self::key(&self.left_rows, self.left_key_pos).cmp_total(self.group_key())
                            != Ordering::Equal
                    {
                        self.group.reset();
                    }
                }
                Ordering::Less => {
                    // Left key below the group: advance left.
                    self.advance_left(ctx)?;
                }
                Ordering::Greater => {
                    // Left moved past the group: reload.
                    self.group.reset();
                    self.group_pos = 0;
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
                    let lineage = [left.lineage_at(at), self.group.lineage_at(g)];
                    out.extend_joined(
                        &self.cols,
                        JoinInput {
                            cols: left.columns(),
                            rows: std::iter::once(at),
                        },
                        JoinInput {
                            cols: self.group.columns(),
                            rows: std::iter::once(g),
                        },
                        (lineage[0].len() + lineage[1].len() > 0)
                            .then_some(std::iter::once(lineage)),
                    );
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
    use pop_types::{DataType, Row, Schema, Value};

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

    /// Output columns: the left positions `left`, then the right's.
    fn side_by_side(left: &[usize], right: &[usize]) -> Vec<(JoinSide, usize)> {
        (left.iter().map(|p| (JoinSide::Left, *p)))
            .chain(right.iter().map(|p| (JoinSide::Right, *p)))
            .collect()
    }

    /// Both columns of each `setup` table, the full width of a join of two.
    fn both_columns() -> Vec<(JoinSide, usize)> {
        side_by_side(&[0, 1], &[0, 1])
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
        let mut op = NljnOp::new(outer, 0, right, idx, None, vec![], both_columns());
        assert_eq!(sorted_rows(&mut op, &mut ctx), expected_join());
    }

    #[test]
    fn hsjn_matches_expected() {
        let (mut ctx, left, right) = setup();
        let b = Box::new(TableScanOp::new(left, None));
        let p = Box::new(TableScanOp::new(right, None));
        let mut op = HsjnOp::new(b, p, vec![0], vec![0], both_columns());
        assert_eq!(sorted_rows(&mut op, &mut ctx), expected_join());
    }

    #[test]
    fn hsjn_single_batch_splits_at_batch_size() {
        let (mut ctx, left, right) = setup();
        ctx.batch_size = 3;
        let b = Box::new(TableScanOp::new(left, None));
        let p = Box::new(TableScanOp::new(right, None));
        let mut op = HsjnOp::new(b, p, vec![0], vec![0], both_columns());
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
        let mut op = MgjnOp::new(l, r, 0, 0, both_columns());
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
                (0..n).map(|i| vec![Value::Int(i as i64)]),
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
        let pages = big.page_count() as f64;
        let b = Box::new(TableScanOp::new(big, None));
        let p = Box::new(TableScanOp::new(small, None));
        let mut op = HsjnOp::new(b, p, vec![0], vec![0], side_by_side(&[0], &[0]));
        op.open(&mut ctx).unwrap();
        // Work after the build is exactly scan + build + one spill pass
        // over the 12k rows.
        let (m, n) = (&ctx.model, n as f64);
        assert_eq!(m.spill_passes(n), 1.0);
        assert_eq!(
            ctx.work,
            m.scan_cost(n, pages) + m.hash_build(n) + m.hash_build_spill(n)
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
                (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(-i)]),
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
                let all: Vec<usize> = (0..=case.key_cols).collect();
                let cols = side_by_side(&all, &all);
                let mut op =
                    HsjnOp::new(scan(&build), scan(&probe), keys.clone(), keys.clone(), cols);
                let rows = drain(&mut op, &mut ctx);
                assert_eq!(tags(&rows), expect, "{} @ {batch_size}", case.name);
            }
        }
    }

    /// The NLJN's per-batch lists are charged to the byte budget while the
    /// batch is joined. `l`'s keys 1, 2, 2, NULL find 0 + 2 + 2 + 0 rows of
    /// `r`: 4 matches (8 B each) and 5 bounds (8 B each); 4 joined rows
    /// (an outer row, a fetched row, a 16 B rid) and their 5 bounds. The
    /// mem backend prefetches nothing.
    #[test]
    fn nljn_match_lists_are_charged_to_the_byte_budget() {
        use pop_guard::{Budget, Governor};
        let lists = 4 * 8 + 5 * 8 + 4 * (4 + 4 + 16) + 5 * 8;
        let budget = |max| Budget {
            max_resident_bytes: Some(max),
            ..Budget::unlimited()
        };
        let nljn = |ctx: &ExecCtx, left: Arc<Table>, right: Arc<Table>| {
            let idx = ctx.catalog.find_index(right.id(), 0, false).unwrap();
            let outer = Box::new(TableScanOp::new(left, None));
            NljnOp::new(outer, 0, right, idx, None, vec![], both_columns())
        };
        let (mut ctx, left, right) = setup();
        ctx.guard = Governor::new(budget(lists), None);
        let mut op = nljn(&ctx, left, right);
        assert_eq!(drain(&mut op, &mut ctx).len(), 4);
        assert_eq!(ctx.guard.peak_resident_bytes(), lists);

        let (mut ctx, left, right) = setup();
        ctx.guard = Governor::new(budget(lists - 1), None);
        let mut op = nljn(&ctx, left, right);
        op.open(&mut ctx).unwrap();
        match op.next_batch(&mut ctx) {
            Err(crate::ExecSignal::Error(pop_types::PopError::BudgetExceeded(msg))) => {
                assert!(msg.contains("resident"), "{msg}");
            }
            other => panic!(
                "expected a byte-budget error, got {:?}",
                other.map(|b| b.map(|b| b.len()))
            ),
        }
    }

    #[test]
    fn nljn_residual_join_filters() {
        let (mut ctx, left, right) = setup();
        let idx = ctx.catalog.find_index(right.id(), 0, false).unwrap();
        let outer = Box::new(TableScanOp::new(left, None));
        // Residual: l.v (pos 1) must equal r.w (col 1) — never true here.
        let mut op = NljnOp::new(outer, 0, right, idx, None, vec![(1, 1)], both_columns());
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
    /// An index NLJN over the inner table `inner` (keyed on column 0)
    /// emitting every outer and inner column.
    fn full_width_nljn(
        outer: Box<dyn Operator>,
        inner: &Arc<Table>,
        ctx: &ExecCtx,
        pred: Option<BoundExpr>,
        residual: Vec<(usize, usize)>,
    ) -> NljnOp {
        let idx = ctx.catalog.find_index(inner.id(), 0, false).unwrap();
        let all = vec![0, 1, 2];
        NljnOp::new(
            outer,
            0,
            inner.clone(),
            idx,
            pred,
            residual,
            side_by_side(&all, &all),
        )
    }

    /// Everything one NLJN run shows its consumer, as text: each output
    /// batch's rows (with lineage) and the work counter when it was
    /// returned, the signal that ended the run, and the CHECK events.
    fn nljn_trace(op: &mut dyn Operator, ctx: &mut ExecCtx) -> String {
        let mut trace = String::new();
        op.open(ctx).expect("open");
        loop {
            match op.next_batch(ctx) {
                Ok(Some(b)) => {
                    trace.push_str(&format!("batch @{:x}:", ctx.work.to_bits()));
                    for i in b.live_indices() {
                        trace.push_str(&format!(" {:?}{:?}", b.row_at(i), b.lineage_at(i)));
                    }
                    trace.push('\n');
                }
                Ok(None) => break,
                Err(sig) => {
                    trace.push_str(&format!("signal @{:x}: {sig:?}\n", ctx.work.to_bits()));
                    break;
                }
            }
        }
        op.close(ctx);
        for e in &ctx.check_events {
            trace.push_str(&format!(
                "event {:?} {:?} {:x} {:x}\n",
                e.outcome,
                e.observed,
                e.started_at.to_bits(),
                e.at_work.to_bits()
            ));
        }
        trace
    }

    /// FNV-1a, for pinning a long trace by one number.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The index NLJN's output, work charges at every batch boundary and
    /// CHECK events, against the trace of the per-row NLJN (each outer
    /// row's matches fetched, filtered and copied in calls of their own),
    /// recorded before the join went batch-at-a-time: a fan-out inner with
    /// duplicate keys, a residual join, an inner predicate, an empty inner
    /// table and NULL outer keys, each at batch sizes 1 / 7 / 1024, with
    /// and without lineage, bare, under a pipelined CHECK that trips on
    /// the join's output and over one that trips on its outer.
    #[test]
    fn nljn_equals_the_per_row_nljn() {
        let cat = Catalog::new();
        let schema = |p: &str| {
            Schema::from_pairs(&[
                (&format!("{p}k"), DataType::Int),
                (&format!("{p}v"), DataType::Int),
                (&format!("{p}tag"), DataType::Str),
            ])
        };
        let key = |i: i64, null_every: i64, modulo: i64| {
            if i % null_every == 0 {
                Value::Null
            } else {
                Value::Int(i % modulo)
            }
        };
        let outer = cat
            .create_table(
                "o",
                schema("o"),
                (0..40i64)
                    .map(|i| vec![key(i, 7, 9), Value::Int(i % 4), Value::str(format!("o{i}"))]),
            )
            .unwrap();
        let null_outer = cat
            .create_table(
                "n",
                schema("n"),
                (0..10i64).map(|i| vec![Value::Null, Value::Int(i), Value::str(format!("n{i}"))]),
            )
            .unwrap();
        // Key j (0..7) has j % 4 rows, duplicates spread over the table;
        // keys 7 and 8 have none; a few rows have a NULL key.
        let inner_data: Vec<Row> = (0..4i64)
            .flat_map(|copy| {
                (0..7i64).filter(move |j| j % 4 > copy).map(move |j| {
                    vec![
                        Value::Int(j),
                        Value::Int((j + copy) % 4),
                        Value::str(format!("i{j}.{copy}")),
                    ]
                })
            })
            .chain(
                (0..3i64)
                    .map(|i| vec![Value::Null, Value::Int(i), Value::str(format!("i-null{i}"))]),
            )
            .collect();
        let inner = cat.create_table("i", schema("i"), inner_data).unwrap();
        let empty = cat
            .create_table("e", schema("e"), Vec::<Row>::new())
            .unwrap();
        for t in ["i", "e"] {
            cat.create_index(t, &format!("{t}k"), IndexKind::Hash)
                .unwrap();
        }
        let inner_schema: Vec<pop_types::ColId> =
            (0..3).map(|c| pop_types::ColId::new(1, c)).collect();
        let w_at_least_2 = || {
            BoundExpr::bind(
                &pop_expr::Expr::col(1, 1).ge(pop_expr::Expr::lit(2i64)),
                &inner_schema,
            )
            .unwrap()
        };
        let outer_schema: Vec<pop_types::ColId> =
            (0..3).map(|c| pop_types::ColId::new(0, c)).collect();
        let v_not_1 = || {
            BoundExpr::bind(
                &pop_expr::Expr::col(0, 1).ne(pop_expr::Expr::lit(1i64)),
                &outer_schema,
            )
            .unwrap()
        };
        type Case<'a> = (
            &'a str,
            &'a Arc<Table>,
            Option<BoundExpr>,
            &'a Arc<Table>,
            Option<BoundExpr>,
            Vec<(usize, usize)>,
        );
        let cases: Vec<Case<'_>> = vec![
            ("fan-out", &outer, None, &inner, None, vec![]),
            (
                "filtered outer",
                &outer,
                Some(v_not_1()),
                &inner,
                None,
                vec![],
            ),
            ("residual", &outer, None, &inner, None, vec![(1, 1)]),
            (
                "inner predicate",
                &outer,
                None,
                &inner,
                Some(w_at_least_2()),
                vec![],
            ),
            (
                "empty inner",
                &outer,
                None,
                &empty,
                Some(w_at_least_2()),
                vec![],
            ),
            ("NULL outer keys", &null_outer, None, &inner, None, vec![]),
        ];
        let check = |hi: f64, context: pop_plan::CheckContext| pop_plan::CheckSpec {
            id: 0,
            flavor: pop_plan::CheckFlavor::Ecwc,
            range: pop_plan::ValidityRange::new(0.0, hi),
            est_card: 1.0,
            context,
        };
        let mut traces = String::new();
        for &(name, o, ref opred, i, ref ipred, ref residual) in &cases {
            for batch_size in [1, 7, 1024] {
                for lineage in [true, false] {
                    for shape in ["bare", "check above", "check on outer"] {
                        let mut ctx =
                            ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
                        ctx.batch_size = batch_size;
                        ctx.lineage = lineage;
                        let mut scan: Box<dyn Operator> =
                            Box::new(TableScanOp::new(Arc::clone(o), opred.clone()));
                        if shape == "check on outer" {
                            let spec = check(9.0, pop_plan::CheckContext::NljnOuter);
                            scan = Box::new(crate::operators::GuardOp::check(
                                scan,
                                spec,
                                pop_plan::TableSet::single(0),
                                false,
                            ));
                        }
                        let join = full_width_nljn(scan, i, &ctx, ipred.clone(), residual.clone());
                        let mut op: Box<dyn Operator> = Box::new(join);
                        if shape == "check above" {
                            let spec = check(11.0, pop_plan::CheckContext::Pipeline);
                            let tables = pop_plan::TableSet::from_iter([0, 1]);
                            op =
                                Box::new(crate::operators::GuardOp::check(op, spec, tables, false));
                        }
                        let trace = nljn_trace(op.as_mut(), &mut ctx);
                        traces.push_str(&format!(
                            "== {name} @ {batch_size} lineage {lineage} {shape}\n{trace}"
                        ));
                    }
                }
            }
        }
        assert_eq!(fnv(&traces), 1_177_361_136_308_050_911, "{traces}");
    }
}

crate::operators::opaque_debug!(NljnOp, HsjnOp, SemiProbeOp, MgjnOp);
