//! The operator trait and the physical operator implementations.

use crate::{ExecCtx, ExecRow, OpResult, RowBatch};

pub(crate) mod agg;
pub(crate) mod guard;
pub(crate) mod joins;
pub(crate) mod materialize;
pub(crate) mod monitor;
pub(crate) mod parallel;
mod scan;
mod side;

pub use agg::{HashAggOp, HavingOp, LimitOp, ProjectOp};
pub use guard::GuardOp;
pub use joins::{HsjnOp, MgjnOp, NljnOp, SemiProbeOp};
pub use materialize::{SortOp, TempOp};
pub use monitor::{MonitorSet, MonitorSpec, SuboptimalitySignal, MONITOR_TRIP_FLOOR};
pub use parallel::GatherOp;
pub use scan::{IndexRangeScanOp, MvScanOp, TableScanOp};
pub use side::{AntiJoinRidsOp, InsertOp, RidSinkOp};

/// Operators hold `Box<dyn Operator>` children and table handles with no
/// useful `Debug` rendering; show them opaquely by type name.
macro_rules! opaque_debug {
    ($($t:ident),* $(,)?) => {$(
        impl std::fmt::Debug for $t {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($t)).finish_non_exhaustive()
            }
        }
    )*};
}
pub(crate) use opaque_debug;

/// The batched iterator contract (Volcano open/next/close, one
/// [`RowBatch`] per call instead of one row).
///
/// `open` prepares the operator (materializing operators consume their
/// entire input here); `next_batch` produces a batch with **at least one
/// live row**, or `None` at end of stream; `close` releases resources.
/// Batch boundaries carry no meaning — any re-chunking of the stream is
/// equivalent, and [`crate::ExecCtx::batch_size`] of 1 reproduces classic
/// row-at-a-time execution exactly. All three calls may raise an
/// [`crate::ExecSignal`] — either a genuine error or a re-optimization
/// request from a cardinality guard ([`guard`]: CHECK, BUFCHECK, monitor);
/// a guard that fires mid-batch first emits the rows counted before the
/// violation as a short batch, then raises.
pub trait Operator {
    /// Prepare for iteration.
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()>;
    /// Produce the next batch (≥ 1 live row), or `None` at end of stream.
    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>>;
    /// Release resources.
    fn close(&mut self, ctx: &mut ExecCtx);
    /// For materializing operators: the exact row count of the completed
    /// materialization, available after `open`. Checks placed above
    /// materialization points read this so the check executes exactly once
    /// (the optimization noted under Figure 10).
    fn materialized_count(&self) -> Option<u64> {
        None
    }
}

/// Row-at-a-time adapter over a batched child, for operators whose logic
/// is inherently per-row (join probes, merge state machines). Rows are
/// moved out of the buffered batch, not cloned.
#[derive(Debug, Default)]
pub(crate) struct BatchCursor {
    batch: Option<RowBatch>,
    pos: usize,
}

impl BatchCursor {
    pub(crate) fn new() -> Self {
        BatchCursor::default()
    }

    /// Drop any buffered batch (on open/close).
    pub(crate) fn reset(&mut self) {
        self.batch = None;
        self.pos = 0;
    }

    /// Pull the next live row from `input`, refilling from `next_batch`
    /// as needed.
    pub(crate) fn next_row(
        &mut self,
        input: &mut dyn Operator,
        ctx: &mut ExecCtx,
    ) -> OpResult<Option<ExecRow>> {
        loop {
            if let Some(b) = &mut self.batch {
                if let Some(i) = b.live_index(self.pos) {
                    self.pos += 1;
                    return Ok(Some(b.take_row_at(i)));
                }
                self.batch = None;
            }
            match input.next_batch(ctx)? {
                None => return Ok(None),
                Some(b) => {
                    self.batch = Some(b);
                    self.pos = 0;
                }
            }
        }
    }
}

/// Emit the next chunk of an already-materialized result, cloning up to
/// `ctx.batch_size` rows per call. Shared by SORT/TEMP/aggregation output.
pub(crate) fn emit_chunk(rows: &[ExecRow], pos: &mut usize, ctx: &ExecCtx) -> Option<RowBatch> {
    if *pos >= rows.len() {
        return None;
    }
    let end = (*pos + ctx.batch_size.max(1)).min(rows.len());
    let mut out = RowBatch::with_capacity(end - *pos);
    for r in &rows[*pos..end] {
        out.push_row(&r.values, &r.lineage);
    }
    *pos = end;
    Some(out)
}

/// Resolve a signal a child raised while this operator holds buffered
/// output. A re-optimization signal must not discard rows that already
/// cleared every CHECK below — in the row engine they reached the
/// application one at a time before the violating pull — so the buffered
/// batch is returned first and the signal stashed for the next call.
/// Hard errors (and signals with nothing buffered) propagate at once.
pub(crate) fn stash_or_raise(
    sig: crate::ExecSignal,
    out: RowBatch,
    pending: &mut Option<crate::ExecSignal>,
) -> OpResult<Option<RowBatch>> {
    if out.is_empty() || matches!(sig, crate::ExecSignal::Error(_)) {
        Err(sig)
    } else {
        *pending = Some(sig);
        Ok(Some(out))
    }
}

/// Typed error for an operator-protocol violation (e.g. `next_batch()`
/// before `open()`): a harness bug, surfaced as an error instead of a
/// panic so a malformed driver cannot take the process down.
pub(crate) fn protocol_err(msg: &str) -> crate::ExecSignal {
    crate::ExecSignal::Error(pop_types::PopError::Execution(format!(
        "operator protocol violation: {msg}"
    )))
}

/// Canonical key for a row's lineage, independent of the join order that
/// produced the row (different plans concatenate lineage in different
/// orders). Used for the ECDC rid side table and side-effect dedup.
pub(crate) fn lineage_key(lineage: &[pop_types::Rid]) -> Vec<pop_types::Rid> {
    let mut k = lineage.to_vec();
    k.sort_unstable();
    k
}
