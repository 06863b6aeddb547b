//! The operator trait and the physical operator implementations.

use crate::{ExecCtx, ExecRow, OpResult, RowBatch};
use pop_types::{Rid, Value};

pub(crate) mod agg;
pub(crate) mod guard;
pub(crate) mod joins;
mod key;
pub(crate) mod materialize;
pub(crate) mod monitor;
pub(crate) mod parallel;
mod scan;
mod side;

pub use agg::{AggKind, HashAggOp, HavingOp, LimitOp, ProjectOp};
pub use guard::GuardOp;
pub use joins::{HsjnOp, MgjnOp, NljnOp, SemiProbeOp};
pub use materialize::{HarvestInfo, SortOp, TempOp};
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

/// In-place row cursor over a batched child, for the per-row join probes
/// (hash-join probe side, NLJN outer): the current row is read where it
/// sits in the buffered batch, so advancing allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RowCursor {
    batch: Option<RowBatch>,
    /// Ordinal (among live rows) of the row the next `advance` moves to.
    next: usize,
    /// Physical index of the current row.
    at: usize,
}

impl RowCursor {
    /// Drop any buffered batch (on open/close).
    pub(crate) fn reset(&mut self) {
        *self = RowCursor::default();
    }

    /// Move to the next live row of `input`, refilling from `next_batch`
    /// as needed; `false` at end of stream.
    pub(crate) fn advance(
        &mut self,
        input: &mut dyn Operator,
        ctx: &mut ExecCtx,
    ) -> OpResult<bool> {
        loop {
            if let Some(i) = self.batch.as_ref().and_then(|b| b.live_index(self.next)) {
                self.next += 1;
                self.at = i;
                return Ok(true);
            }
            // Release the consumed batch before pulling its successor.
            self.batch = None;
            self.batch = input.next_batch(ctx)?;
            self.next = 0;
            if self.batch.is_none() {
                return Ok(false);
            }
        }
    }

    /// The current row (values, lineage), once `advance` returned `true`.
    pub(crate) fn row(&self) -> Option<(&[Value], &[Rid])> {
        let b = self.batch.as_ref()?;
        Some((b.values_at(self.at), b.lineage_at(self.at)))
    }
}

/// Owned-row adapter over a batched child, for the merge join (which
/// buffers groups of right-side rows across batches): a [`RowCursor`]
/// whose current row is moved out of the buffered batch, not cloned.
#[derive(Debug, Default)]
pub(crate) struct BatchCursor(RowCursor);

impl BatchCursor {
    pub(crate) fn new() -> Self {
        BatchCursor::default()
    }

    /// Drop any buffered batch (on open/close).
    pub(crate) fn reset(&mut self) {
        self.0.reset();
    }

    /// Pull the next live row from `input`, refilling from `next_batch`
    /// as needed.
    pub(crate) fn next_row(
        &mut self,
        input: &mut dyn Operator,
        ctx: &mut ExecCtx,
    ) -> OpResult<Option<ExecRow>> {
        if !self.0.advance(input, ctx)? {
            return Ok(None);
        }
        let at = self.0.at;
        Ok(self.0.batch.as_mut().map(|b| b.take_row_at(at)))
    }
}

/// The next chunk of an already-materialized result of `len` rows: up to
/// `ctx.batch_size` positions from `*pos` on, or `None` once exhausted.
/// Shared by SORT/TEMP/aggregation output.
pub(crate) fn next_chunk(
    pos: &mut usize,
    len: usize,
    ctx: &ExecCtx,
) -> Option<std::ops::Range<usize>> {
    if *pos >= len {
        return None;
    }
    let start = *pos;
    *pos = (start + ctx.batch_size.max(1)).min(len);
    Some(start..*pos)
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
