//! The execution context: catalog handle, parameters, instrumentation,
//! harvested materializations, and cross-run compensation state.

use crate::operators::HarvestInfo;
use crate::signal::ObservedCard;
use crate::RowBatch;
use pop_expr::Params;
use pop_guard::{FaultInjector, Governor};
use pop_plan::{CheckContext, CheckFlavor, CostModel, ValidityRange};
use pop_storage::{Catalog, Lineage};
use pop_types::column::Column;
use pop_types::{ColId, PopError, Rid};
use std::collections::HashSet;
use std::sync::Arc;

/// A completed materialization, kept for potential promotion to a
/// temporary materialized view if a CHECK fails later in this run (§2.3).
/// It shares the operator's own buffer; rows in **canonical column order**
/// (so any re-optimized plan can consume them regardless of the join
/// order that produced them) are only gathered by [`Harvest::columns`],
/// at promotion — a run that never re-optimizes copies nothing.
#[derive(Debug, Clone)]
pub struct Harvest {
    /// Subplan signature (tables + applied predicates).
    pub signature: String,
    /// Canonical column layout of the harvested rows.
    pub layout: Vec<ColId>,
    /// `perm[i]` = position in a buffer row of canonical column `i`.
    perm: Vec<usize>,
    /// The materializing operator's buffer (all rows live).
    buffer: Arc<RowBatch>,
    /// Buffer indices in output order (SORT); `None` = buffer order.
    order: Option<Arc<[u32]>>,
}

impl Harvest {
    /// Harvest of `buffer`, read in `order` if given.
    pub fn new(info: &HarvestInfo, buffer: Arc<RowBatch>, order: Option<Arc<[u32]>>) -> Self {
        debug_assert!(buffer.sel().is_none(), "harvest of a filtered batch");
        Harvest {
            signature: info.signature.clone(),
            layout: info.canonical_layout.clone(),
            perm: info.perm.clone(),
            buffer,
            order,
        }
    }

    /// Exact cardinality of the materialization.
    pub fn row_count(&self) -> usize {
        self.buffer.len()
    }

    /// The rows in the operator's output order, as columns in canonical
    /// column order — one typed gather per column — and their lineage:
    /// what a temp MV is loaded from.
    pub fn columns(&self) -> (Vec<Column>, Lineage) {
        match &self.order {
            Some(order) => self.gather(order.iter().map(|i| *i as usize)),
            None => self.gather(0..self.row_count()),
        }
    }

    fn gather(&self, rows: impl ExactSizeIterator<Item = usize> + Clone) -> (Vec<Column>, Lineage) {
        let cols = self.buffer.gather_columns(self.perm.iter().copied(), &rows);
        let rids = rows.flat_map(|i| self.buffer.lineage_at(i).iter().copied());
        (
            cols,
            Lineage::new(rids.collect(), self.buffer.lineage_width()),
        )
    }
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
    /// Signature of the checked subplan.
    pub signature: String,
}

/// Mutable execution state threaded through every operator call.
#[derive(Debug)]
pub struct ExecCtx {
    /// Catalog for scans, index probes and side-effect targets.
    pub catalog: Catalog,
    /// Parameter-marker bindings.
    pub params: Params,
    /// Work-unit coefficients (mirrors the optimizer's cost model).
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
    /// Lineage of source rows whose side effect (INSERT) was already
    /// applied in a previous step; guarantees exactly-once application.
    pub side_effects_applied: HashSet<Vec<Rid>>,
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
        let info = HarvestInfo {
            signature: "s".into(),
            canonical_layout: vec![],
            perm: vec![],
        };
        ctx.harvests
            .push(Harvest::new(&info, Arc::new(RowBatch::new()), None));
        ctx.begin_run();
        assert_eq!(ctx.work, 10.0);
        assert_eq!(ctx.prev_returned.len(), 1);
        assert!(ctx.harvests.is_empty());
    }
}
