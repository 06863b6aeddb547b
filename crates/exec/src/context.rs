//! The execution context: catalog handle, parameters, instrumentation,
//! harvested materializations, and cross-run compensation state.

use crate::signal::ObservedCard;
use crate::RowBatch;
use pop_expr::Params;
use pop_guard::{FaultInjector, Governor};
use pop_plan::{CheckContext, CheckFlavor, CostModel, TableSet, ValidityRange};
use pop_storage::{Catalog, Lineage};
use pop_types::column::Column;
use pop_types::{PopError, Rid, Row};
use std::collections::HashSet;
use std::sync::Arc;

/// A completed materialization, kept for potential promotion to a
/// temporary materialized view if a CHECK fails later in this run (§2.3).
/// It shares the operator's own buffer and costs nothing until promoted:
/// [`Harvest::into_columns`] then hands over the rows as the node's own
/// columns, which are its table set's **canonical column order** (so any
/// re-optimized plan can consume them regardless of the join order that
/// produced them) — by moving the buffer's columns when the rows are in
/// buffer order, by a gather only when a SORT reordered them.
#[derive(Debug, Clone)]
pub struct Harvest {
    /// The query tables the materialized subplan joins: the key the
    /// driver promotes the harvest under.
    pub tables: TableSet,
    /// The materializing operator's buffer (all rows live).
    buffer: Arc<RowBatch>,
    /// Buffer indices in output order (SORT); `None` = buffer order.
    order: Option<Arc<[u32]>>,
}

impl Harvest {
    /// Harvest of `buffer`, the materialization of `tables`, read in
    /// `order` if given.
    pub fn new(tables: TableSet, buffer: Arc<RowBatch>, order: Option<Arc<[u32]>>) -> Self {
        debug_assert!(buffer.sel().is_none(), "harvest of a filtered batch");
        Harvest {
            tables,
            buffer,
            order,
        }
    }

    /// Exact cardinality of the materialization.
    pub fn row_count(&self) -> usize {
        self.buffer.len()
    }

    /// Columns per harvested row.
    pub fn width(&self) -> usize {
        self.buffer.columns().len()
    }

    /// Rids of lineage per harvested row (0 in a run without lineage).
    pub fn lineage_width(&self) -> usize {
        self.buffer.lineage_width()
    }

    /// The rows in the operator's output order, as its columns, and their
    /// lineage (`None` when the run carried none): what a temp MV is
    /// loaded from. In buffer order the buffer's columns and lineage are
    /// taken as they are — no value is copied, unless the buffer is still
    /// shared (then it is cloned once). A SORT's rows are gathered in
    /// sorted order, as [`Harvest::columns`] gathers them.
    pub fn into_columns(self) -> (Vec<Column>, Option<Lineage>) {
        if self.order.is_some() {
            return self.columns();
        }
        let width = self.buffer.lineage_width();
        let (mut cols, mut rids) = Arc::unwrap_or_clone(self.buffer).into_columns();
        // A buffer grew by doubling; the MV keeps its rows, not that slack.
        cols.iter_mut().for_each(Column::shrink_to_fit);
        rids.shrink_to_fit();
        (cols, lineage(rids, width))
    }

    /// The rows in the operator's output order, gathered — one typed copy
    /// per column — into its columns, with their lineage. [`Harvest::into_columns`] moves instead wherever the order
    /// allows; this is the reference it is tested against.
    pub fn columns(&self) -> (Vec<Column>, Option<Lineage>) {
        match &self.order {
            Some(order) => self.gather(order.iter().map(|i| *i as usize)),
            None => self.gather(0..self.row_count()),
        }
    }

    fn gather(
        &self,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
    ) -> (Vec<Column>, Option<Lineage>) {
        let cols = self.buffer.gather_columns(0..self.width(), &rows);
        let rids = rows.flat_map(|i| self.buffer.lineage_at(i).iter().copied());
        (cols, lineage(rids.collect(), self.buffer.lineage_width()))
    }
}

/// A harvest's lineage: `width` rids a row, or none for rows without any.
fn lineage(rids: Vec<Rid>, width: usize) -> Option<Lineage> {
    (width > 0).then(|| Lineage::new(rids, width))
}

/// Outcome of one CHECK evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The count stayed within the range.
    Passed,
    /// The range was violated.
    Violated,
    /// A forced (dummy) re-optimization fired here (Figure 12 experiments).
    Forced,
}

/// Instrumentation record for one checkpoint encounter — the raw data for
/// the opportunity analysis of Figure 14.
#[derive(Debug, Clone)]
pub struct CheckEvent {
    /// Check id within the plan.
    pub check_id: usize,
    /// Flavor.
    pub flavor: CheckFlavor,
    /// Placement context.
    pub context: CheckContext,
    /// Outcome.
    pub outcome: CheckOutcome,
    /// Work units consumed by the whole query when the check resolved —
    /// divided by the total, this is the "fraction of query execution
    /// completed" axis of Figure 14.
    pub at_work: f64,
    /// Work counter when the check started observing rows (ECB intervals
    /// in Figure 14 span `started_at..at_work`).
    pub started_at: f64,
    /// Observed cardinality.
    pub observed: ObservedCard,
    /// Estimated cardinality.
    pub est_card: f64,
    /// The check range in force.
    pub range: ValidityRange,
    /// The query tables the checked subplan joins.
    pub tables: TableSet,
}

/// The identity of a row whose side effect (INSERT) was applied: its
/// canonical lineage, or — for a row that carries none, an aggregate's
/// output — its values (an aggregate emits one row per group, so its rows
/// are distinct by value).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EffectKey {
    /// The sorted rids of the base rows the row came from.
    Lineage(Vec<Rid>),
    /// The row's values.
    Values(Row),
}

/// Mutable execution state threaded through every operator call.
#[derive(Debug)]
pub struct ExecCtx {
    /// Catalog for scans, index probes and side-effect targets.
    pub catalog: Catalog,
    /// Parameter-marker bindings.
    pub params: Params,
    /// The optimizer's cost model: operators charge its unit functions at
    /// the counts they observe (the cost identity of `pop_plan::cost`).
    pub model: CostModel,
    /// Work units consumed so far in this run.
    pub work: f64,
    /// When false, CHECK operators count but never raise (used after the
    /// re-optimization budget is exhausted, and by the opportunity
    /// instrumentation runs of Figure 14).
    pub checks_enabled: bool,
    /// Force a dummy re-optimization at the check with this id (Figure 12
    /// overhead experiments).
    pub force_reopt_at: Option<usize>,
    /// Do rows carry lineage (one base-table [`Rid`] per joined table)?
    /// Only ECDC compensation and INSERT's exactly-once dedup read it, so
    /// the driver turns it off, once per query before the first plan, when
    /// neither can run; the storage leaves then emit none, and nothing
    /// above them copies any. On by default, for direct executor users.
    pub lineage: bool,
    /// Set once the forced re-optimization fired (it fires only once).
    pub forced_fired: bool,
    /// Completed materializations of this run.
    pub harvests: Vec<Harvest>,
    /// Every check resolution of this run.
    pub check_events: Vec<CheckEvent>,
    /// Lineage of rows returned to the application in *previous* execution
    /// steps — the rid side table `S` of Figure 9. The driver inserts an
    /// anti-join against this set into re-optimized plans.
    pub prev_returned: HashSet<Vec<Rid>>,
    /// Source rows whose side effect (INSERT) was already applied in a
    /// previous step; guarantees exactly-once application.
    pub side_effects_applied: HashSet<EffectKey>,
    /// Rows fetched from base tables (diagnostics).
    pub rows_scanned: u64,
    /// Target rows per batch for every operator in this run. `1` degrades
    /// the engine to row-at-a-time (the reference mode of the equivalence
    /// suite); results are independent of the value.
    pub batch_size: usize,
    /// Batches handed to the application by the executor loop, cumulative
    /// across execution steps (the driver reports per-step deltas).
    pub batches_emitted: u64,
    /// Resource governor: per-query budgets plus cooperative cancellation,
    /// checked at batch boundaries. Disabled (one branch per check) unless
    /// a budget limit or a cancel token was supplied.
    pub guard: Governor,
    /// Deterministic fault injector for chaos runs; `None` (one branch per
    /// hook site) in normal operation.
    pub faults: Option<FaultInjector>,
    /// A batch its consumer is done with, emptied, for the next storage
    /// leaf batch to fill ([`ExecCtx::recycle`]).
    spare: Option<RowBatch>,
}

impl ExecCtx {
    /// Fresh context for a query.
    pub fn new(catalog: Catalog, params: Params, model: CostModel) -> Self {
        ExecCtx {
            catalog,
            params,
            model,
            work: 0.0,
            checks_enabled: true,
            force_reopt_at: None,
            lineage: true,
            forced_fired: false,
            harvests: Vec::new(),
            check_events: Vec::new(),
            prev_returned: HashSet::new(),
            side_effects_applied: HashSet::new(),
            rows_scanned: 0,
            batch_size: crate::batch::DEFAULT_BATCH_SIZE,
            batches_emitted: 0,
            guard: Governor::disabled(),
            faults: None,
            spare: None,
        }
    }

    /// Hand back a batch its consumer has finished with (an aggregate,
    /// once the batch is folded): the next storage leaf batch refills its
    /// column vectors, so a scan feeding an aggregate allocates them once,
    /// not once a batch.
    pub(crate) fn recycle(&mut self, mut batch: RowBatch) {
        batch.reset();
        self.spare = Some(batch);
    }

    /// An empty batch with room for `n` rows: the recycled one when there
    /// is one.
    pub(crate) fn batch_with_capacity(&mut self, n: usize) -> RowBatch {
        match self.spare.take() {
            Some(b) => b.with_cap(n),
            None => RowBatch::with_capacity(n),
        }
    }

    /// Reset per-run state while keeping cross-run compensation state
    /// (returned rids, applied side effects) and
    /// accumulated work.
    pub fn begin_run(&mut self) {
        self.harvests.clear();
        self.check_events.clear();
    }

    /// Charge work units.
    #[inline]
    pub fn charge(&mut self, units: f64) {
        self.work += units;
    }

    /// Batch-boundary guardrail check: cancellation, work, row and
    /// wall-clock budgets. One predictable branch when the governor is
    /// disabled.
    #[inline]
    pub fn guard_tick(&self) -> Result<(), PopError> {
        self.guard.tick(self.work)
    }

    /// Reserve resident operator memory (hash builds, aggregate groups,
    /// sort/TEMP buffers, check valves, promoted temp MVs) against the
    /// byte budget.
    #[inline]
    pub fn guard_reserve(&mut self, bytes: u64) -> Result<(), PopError> {
        self.guard.reserve(bytes)
    }

    /// Release a previous reservation.
    #[inline]
    pub fn guard_release(&mut self, bytes: u64) {
        self.guard.release(bytes);
    }

    /// Fault hook: a scan is about to read from `table`. One branch when
    /// no injector is armed.
    #[inline]
    pub fn fault_storage_read(&mut self, table: &str) -> Result<(), PopError> {
        match &mut self.faults {
            None => Ok(()),
            Some(inj) => match inj.storage_read(table) {
                Some(err) => Err(err),
                None => Ok(()),
            },
        }
    }

    /// Fault hook: should this in-range CHECK observation report a
    /// spurious violation?
    #[inline]
    pub fn fault_spurious_check(&mut self) -> bool {
        match &mut self.faults {
            None => false,
            Some(inj) => inj.spurious_check(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_run_keeps_cross_run_state() {
        let mut ctx = ExecCtx::new(Catalog::new(), Params::none(), CostModel::default());
        ctx.work = 10.0;
        ctx.prev_returned.insert(vec![Rid::new(0, 1)]);
        ctx.harvests.push(Harvest::new(
            TableSet::EMPTY,
            Arc::new(RowBatch::new()),
            None,
        ));
        ctx.begin_run();
        assert_eq!(ctx.work, 10.0);
        assert_eq!(ctx.prev_returned.len(), 1);
        assert!(ctx.harvests.is_empty());
    }
}
