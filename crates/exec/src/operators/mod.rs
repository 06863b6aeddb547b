//! The operator trait and the physical operator implementations.

use crate::{ExecCtx, OpResult, RowBatch};
use pop_plan::CostModel;

pub(crate) mod agg;
pub(crate) mod guard;
pub(crate) mod joins;
mod key;
pub(crate) mod materialize;
mod scan;
mod side;

pub use agg::{AggKind, HashAggOp, HavingOp, LimitOp, ProjectOp};
pub use guard::GuardOp;
pub use joins::{HsjnOp, MgjnOp, NljnOp, SemiProbeOp};
pub use materialize::{HarvestInfo, SortOp, TempOp};
pub use scan::{IndexRangeScanOp, MvScanOp, TableScanOp};
pub use side::{AntiJoinRidsOp, InsertOp, RidSinkOp};

/// A [`CostModel`] unit function of a row count, charged per batch.
pub(crate) type CostUnit = fn(&CostModel, f64) -> f64;

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
/// request from a cardinality guard ([`GuardOp`]: CHECK, BUFCHECK);
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
/// (hash-join probe side, NLJN outer, both merge-join inputs): the
/// current row is read where it sits in the buffered batch, so advancing
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RowCursor {
    batch: Option<RowBatch>,
    /// Ordinal (among live rows) of the row the next `step` moves to.
    next: usize,
    /// Physical index of the current row.
    at: usize,
}

impl RowCursor {
    /// Drop any buffered batch (on open/close).
    pub(crate) fn reset(&mut self) {
        *self = RowCursor::default();
    }

    /// Move to the next live row of the buffered batch; `false` once it
    /// has none left (the batch stays readable until [`RowCursor::refill`]).
    pub(crate) fn step(&mut self) -> bool {
        match self.batch.as_ref().and_then(|b| b.live_index(self.next)) {
            Some(i) => {
                self.next += 1;
                self.at = i;
                true
            }
            None => false,
        }
    }

    /// Replace the buffered batch with the next one from `input`,
    /// positioned before its first row; `false` at end of stream.
    pub(crate) fn refill(&mut self, input: &mut dyn Operator, ctx: &mut ExecCtx) -> OpResult<bool> {
        // Release the consumed batch before pulling its successor.
        self.batch = None;
        self.batch = input.next_batch(ctx)?;
        self.next = 0;
        Ok(self.batch.is_some())
    }

    /// Move to the next live row of `input`, refilling as needed; `false`
    /// at end of stream.
    pub(crate) fn advance(
        &mut self,
        input: &mut dyn Operator,
        ctx: &mut ExecCtx,
    ) -> OpResult<bool> {
        loop {
            if self.step() {
                return Ok(true);
            }
            if !self.refill(input, ctx)? {
                return Ok(false);
            }
        }
    }

    /// The buffered batch and the current row's physical index in it.
    pub(crate) fn current(&self) -> Option<(&RowBatch, usize)> {
        self.batch.as_ref().map(|b| (b, self.at))
    }

    /// Ordinal of the current row among the buffered batch's live rows.
    pub(crate) fn ordinal(&self) -> usize {
        self.next - 1
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

/// Open `op`, drain it and close it: every live row with its lineage, in
/// stream order — how the operator tests read results.
#[cfg(test)]
pub(crate) fn drain(
    op: &mut dyn Operator,
    ctx: &mut ExecCtx,
) -> Vec<(pop_types::Row, Vec<pop_types::Rid>)> {
    op.open(ctx).expect("open");
    let mut out = Vec::new();
    while let Some(b) = op.next_batch(ctx).expect("next_batch") {
        assert!(b.live_count() <= ctx.batch_size.max(1), "oversized batch");
        out.extend(
            b.live_indices()
                .map(|i| (b.row_at(i), b.lineage_at(i).to_vec())),
        );
    }
    op.close(ctx);
    out
}
