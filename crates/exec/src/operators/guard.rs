//! The runtime cardinality guard: one counting core behind every CHECK and
//! BUFCHECK (Figure 10).
//!
//! A [`GuardOp`] enforces one [`CheckSpec`] — identity, `[lo, hi]` bound,
//! what a verdict records — with a plain `u64` running count.
//!
//! Counting is per batch: a batch of `n` rows that cannot cross `hi` is
//! admitted with one add, one compare and one work charge. When a batch
//! *would* cross, [`GuardOp::admit`] names the exact tripping row — the
//! row on which row-at-a-time counting would have fired — and
//! [`GuardOp`] returns the rows before it as a short batch, raises on the
//! following call, and keeps the suffix (tripping row included) for
//! replay, so a run resumed without re-optimizing loses nothing.
//! Observations and event order are therefore identical at every batch
//! size. The lower bound is decided on the exact count
//! ([`GuardOp::decide_exact`]): at end of stream, or once at `open` above a
//! materialization point.

use crate::context::{CheckEvent, CheckOutcome};
use crate::operators::Operator;
use crate::signal::{ExecSignal, ObservedCard, Violation};
use crate::{ExecCtx, OpResult, RowBatch};
use pop_plan::CheckSpec;
use std::collections::VecDeque;

/// Index of the first live row of an `n`-row batch that pushes a count of
/// `before` past `hi` — the row row-at-a-time counting fires on — or
/// `None` when the whole batch fits under the bound.
fn tripping_row(before: u64, n: u64, hi: f64) -> Option<u64> {
    ((before + n) as f64 > hi).then(|| (hi.floor() as u64).saturating_sub(before))
}

/// An upper-bound crossing found by [`GuardOp::admit`].
struct Trip {
    /// Live rows of the batch admitted before the tripping row.
    row: usize,
    observed: ObservedCard,
}

/// The guard operator: a transparent pass-through that counts its input
/// against a [`CheckSpec`].
///
/// * In a **pipeline** the upper bound fires as soon as it is crossed
///   (observation "at least count"); a CHECK's lower bound is evaluated at
///   end of stream (exact).
/// * Above a **materialization point** a CHECK executes once, right after
///   `open`, against the materialized row count (exact observation), and
///   the stream passes through uncounted.
/// * As a **BUFCHECK valve** (§3.3, ECB) it first buffers up to
///   `capacity` rows until either the count exceeds `hi` (fail
///   immediately — *before* any materialization below completes) or the
///   producer is exhausted (then `lo` is verified); once the capacity is
///   reached without a decision it opens the valve and streams, still
///   counting against `hi`. A batch straddling the capacity boundary is
///   split there: the head is buffered (and counted at the buffering
///   rate), the tail is held as overflow and counted in the streaming
///   phase — so the valve's decision points are identical at every batch
///   size.
///
/// A guard raises at most once; after raising (or when disarmed) it
/// degrades to a pass-through counter, which lets the driver resume
/// execution after deciding not to re-optimize (e.g. when the
/// re-optimization budget is exhausted).
pub struct GuardOp {
    input: Box<dyn Operator>,
    spec: CheckSpec,
    /// Rows counted so far in this run.
    count: u64,
    above_materialization: bool,
    /// BUFCHECK valve capacity in rows; 0 for a plain streaming guard.
    capacity: usize,
    /// Decided at `open` against the materialized count: batches stream
    /// through uncounted.
    decided_at_open: bool,
    /// No further verdict from this instance (it raised, or decided).
    resolved: bool,
    /// Rows delivered before new input: the filled valve, and the rows
    /// from a tripping row onward.
    replay: VecDeque<RowBatch>,
    /// Tail of the batch that straddled the valve capacity, not yet
    /// counted; processed by the streaming phase before new input.
    overflow: Option<RowBatch>,
    eof: bool,
    /// A violation held back while the pre-violation prefix of its batch
    /// is delivered; raised on the following call.
    pending_signal: Option<ExecSignal>,
    started_at: f64,
    /// Resident bytes charged to the governor for the valve buffer.
    reserved: u64,
}

impl GuardOp {
    fn new(input: Box<dyn Operator>, spec: CheckSpec, materialized: bool, capacity: usize) -> Self {
        GuardOp {
            input,
            spec,
            count: 0,
            above_materialization: materialized,
            capacity,
            decided_at_open: false,
            resolved: false,
            replay: VecDeque::new(),
            overflow: None,
            eof: false,
            pending_signal: None,
            started_at: 0.0,
            reserved: 0,
        }
    }

    /// A CHECK. `materialized_child` marks checks placed directly above
    /// SORT/TEMP/MV operators.
    pub fn check(input: Box<dyn Operator>, spec: CheckSpec, materialized_child: bool) -> Self {
        Self::new(input, spec, materialized_child, 0)
    }

    /// A BUFCHECK with the given valve capacity.
    pub fn bufcheck(input: Box<dyn Operator>, spec: CheckSpec, capacity: usize) -> Self {
        Self::new(input, spec, false, capacity.max(1))
    }

    /// May this guard raise right now? When a dummy re-optimization is
    /// forced at one checkpoint, every *other* guard observes without
    /// raising, so the measured cost is pure re-optimization overhead
    /// (Figure 12).
    fn armed(&self, ctx: &ExecCtx) -> bool {
        ctx.checks_enabled && ctx.force_reopt_at.is_none_or(|id| id == self.spec.id)
    }

    /// Record a verdict on `ctx` as a [`CheckEvent`].
    fn record(&self, ctx: &mut ExecCtx, outcome: CheckOutcome, observed: ObservedCard) {
        let s = &self.spec;
        ctx.check_events.push(CheckEvent {
            check_id: s.id,
            flavor: s.flavor,
            context: s.context,
            outcome,
            at_work: ctx.work,
            started_at: self.started_at,
            observed,
            est_card: s.est_card,
            range: s.range,
            signature: s.signature.clone(),
        });
    }

    /// Record the verdict and build the re-optimization signal for it.
    fn raise(
        &self,
        ctx: &mut ExecCtx,
        outcome: CheckOutcome,
        observed: ObservedCard,
    ) -> ExecSignal {
        self.record(ctx, outcome, observed);
        let s = &self.spec;
        ExecSignal::Reopt(Box::new(Violation {
            check_id: s.id,
            flavor: s.flavor,
            signature: s.signature.clone(),
            observed,
            est_card: s.est_card,
            range: s.range,
            forced: outcome == CheckOutcome::Forced,
        }))
    }

    /// Decide a completed (exact) count against both bounds, recording the
    /// one event of this check.
    fn decide_exact(&self, total: u64, ctx: &mut ExecCtx) -> OpResult<()> {
        let observed = ObservedCard::Exact(total);
        let in_range = self.spec.range.contains(total as f64);
        let forced = ctx.force_reopt_at == Some(self.spec.id) && !ctx.forced_fired;
        let may_raise = self.armed(ctx);
        // Fault hook: an armed, in-range check may be ordered to report a
        // spurious violation. The observation it carries stays truthful,
        // so the driver's feedback/re-optimization path runs with correct
        // cardinalities and must converge.
        let spurious = may_raise && in_range && !forced && ctx.fault_spurious_check();
        if may_raise && (!in_range || forced || spurious) {
            let outcome = if in_range && !spurious {
                ctx.forced_fired = true;
                CheckOutcome::Forced
            } else {
                CheckOutcome::Violated
            };
            return Err(self.raise(ctx, outcome, observed));
        }
        self.record(ctx, CheckOutcome::Passed, observed);
        Ok(())
    }

    /// Count `n` live rows against the upper bound, charging the check's
    /// row charge plus `surcharge` work units per counted row, up to and
    /// including the tripping row. `None` admits the whole batch.
    fn admit(&mut self, n: u64, surcharge: f64, ctx: &mut ExecCtx) -> Option<Trip> {
        let per_row = ctx.model.check_row + surcharge;
        let row = tripping_row(self.count, n, self.spec.range.hi)
            .filter(|_| !self.resolved && self.armed(ctx));
        let counted = row.map_or(n, |j| j + 1);
        self.count += counted;
        ctx.charge(counted as f64 * per_row);
        row.map(|j| Trip {
            row: j as usize,
            observed: ObservedCard::AtLeast(self.count),
        })
    }

    /// Count one streamed batch; on a crossing, deliver the pre-violation
    /// prefix and stash the rest.
    fn stream_batch(&mut self, ctx: &mut ExecCtx, b: RowBatch) -> OpResult<Option<RowBatch>> {
        if self.decided_at_open {
            return Ok(Some(b));
        }
        let n = b.live_count() as u64;
        let Some(trip) = self.admit(n, 0.0, ctx) else {
            return Ok(Some(b));
        };
        let sig = self.raise_upper(ctx, trip.observed);
        let (prefix, suffix) = b.split_live(trip.row);
        self.replay.push_back(suffix);
        if prefix.live_count() == 0 {
            return Err(sig);
        }
        self.pending_signal = Some(sig);
        Ok(Some(prefix))
    }

    fn raise_upper(&mut self, ctx: &mut ExecCtx, observed: ObservedCard) -> ExecSignal {
        self.resolved = true;
        self.raise(ctx, CheckOutcome::Violated, observed)
    }

    /// The producer is exhausted: the CHECK verifies its exact count (lower
    /// bound included).
    fn finish(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.eof = true;
        if self.resolved {
            return Ok(());
        }
        self.resolved = true;
        self.decide_exact(self.count, ctx)
    }

    /// Decide once against the exact materialized count `n` (the Figure 10
    /// optimization for materialization points) — before anything above
    /// materializes or streams.
    fn decide_materialized(&mut self, n: u64, ctx: &mut ExecCtx) -> OpResult<()> {
        self.decided_at_open = true;
        self.resolved = true;
        ctx.charge(ctx.model.check_row);
        self.decide_exact(n, ctx)
    }

    /// Fill the valve, charging the buffering surcharge per row.
    fn fill_valve(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        let surcharge = ctx.model.temp_write_row * 0.5;
        let mut buffered = 0usize;
        while buffered < self.capacity {
            let Some(b) = self.input.next_batch(ctx)? else {
                return self.finish(ctx);
            };
            let room = self.capacity - buffered;
            let (head, tail) = if b.live_count() > room {
                let (head, tail) = b.split_live(room);
                (head, Some(tail))
            } else {
                (b, None)
            };
            let n = head.live_count();
            let trip = self.admit(n as u64, surcharge, ctx);
            // The head stays buffered either way, so a resumed
            // (checks-disabled) run replays every row.
            let bytes = head.approx_bytes();
            self.reserved += bytes;
            ctx.guard_reserve(bytes)?;
            ctx.guard_tick()?;
            self.replay.push_back(head);
            buffered += n;
            self.overflow = tail;
            if let Some(trip) = trip {
                return Err(self.raise_upper(ctx, trip.observed));
            }
        }
        Ok(())
    }
}

impl Operator for GuardOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.decided_at_open = false;
        self.resolved = false;
        self.replay.clear();
        self.overflow = None;
        self.eof = false;
        self.pending_signal = None;
        self.started_at = ctx.work;
        self.count = 0;
        self.input.open(ctx)?;
        if self.above_materialization {
            if let Some(n) = self.input.materialized_count() {
                self.decide_materialized(n, ctx)?;
            }
        }
        if self.capacity > 0 {
            self.fill_valve(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if let Some(sig) = self.pending_signal.take() {
            return Err(sig);
        }
        if let Some(b) = self.replay.pop_front() {
            return Ok(Some(b));
        }
        if let Some(b) = self.overflow.take() {
            return self.stream_batch(ctx, b);
        }
        if self.eof {
            return Ok(None);
        }
        match self.input.next_batch(ctx)? {
            Some(b) => self.stream_batch(ctx, b),
            None => self.finish(ctx).map(|()| None),
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.input.close(ctx);
        self.replay.clear();
        self.overflow = None;
        ctx.guard_release(self.reserved);
        self.reserved = 0;
    }

    fn materialized_count(&self) -> Option<u64> {
        self.input.materialized_count()
    }
}

crate::operators::opaque_debug!(GuardOp);

/// One table drives every guard through the same protocol: each case runs
/// at chunk sizes 1, 7, 64 and 1024 and must produce the same signal,
/// observation and event — and, drained past the signal, every input row
/// exactly once.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::TempOp;
    use pop_plan::{CheckContext, CheckFlavor, CostModel, ValidityRange};
    use pop_storage::Catalog;
    use pop_types::{Rid, Value};

    const TOTAL: usize = 100;

    /// Source emitting `TOTAL` rows `0, 1, 2, …` in chunks of `chunk`.
    struct Rows {
        chunk: usize,
        emitted: usize,
    }

    impl Operator for Rows {
        fn open(&mut self, _ctx: &mut ExecCtx) -> OpResult<()> {
            self.emitted = 0;
            Ok(())
        }

        fn next_batch(&mut self, _ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
            if self.emitted >= TOTAL {
                return Ok(None);
            }
            let n = self.chunk.min(TOTAL - self.emitted);
            let mut b = RowBatch::new();
            for i in 0..n {
                let v = (self.emitted + i) as i64;
                b.push_row(&[Value::Int(v)], &[Rid::new(0, v as u64)]);
            }
            self.emitted += n;
            Ok(Some(b))
        }

        fn close(&mut self, _ctx: &mut ExecCtx) {}
    }

    crate::operators::opaque_debug!(Rows);

    /// A CHECK's `[lo, hi]` range.
    #[derive(Clone, Copy)]
    struct Check {
        lo: f64,
        hi: f64,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Shape {
        /// Pipelined: counts the stream.
        Stream,
        /// Directly above a TEMP: decided once at open.
        AboveTemp,
        /// BUFCHECK valve of this capacity.
        Valve(usize),
    }
    use Shape::{AboveTemp, Stream, Valve};

    struct Case {
        name: &'static str,
        bound: Check,
        shape: Shape,
        arrange: fn(&mut ExecCtx),
        /// The one signal expected: observation and `forced` flag.
        signal: Option<(ObservedCard, bool)>,
        /// Rows a local guard delivers before raising it.
        before: usize,
        /// Rows a local guard has charged at the signal: `(streaming
        /// rate, valve-filling rate)`.
        charged: Option<(f64, f64)>,
    }

    fn case(name: &'static str, bound: Check, shape: Shape) -> Case {
        Case {
            name,
            bound,
            shape,
            arrange: |_| {},
            signal: None,
            before: 0,
            charged: None,
        }
    }

    impl Case {
        fn arrange(mut self, f: fn(&mut ExecCtx)) -> Self {
            self.arrange = f;
            self
        }
        fn raises(mut self, observed: ObservedCard, before: usize) -> Self {
            self.signal = Some((observed, false));
            self.before = before;
            self
        }
        fn forced(mut self) -> Self {
            self.signal = self.signal.map(|(o, _)| (o, true));
            self
        }
        fn charged(mut self, streaming: f64, filling: f64) -> Self {
            self.charged = Some((streaming, filling));
            self
        }
    }

    fn table() -> Vec<Case> {
        use ObservedCard::{AtLeast, Exact};
        let all = TOTAL as u64;
        vec![
            case(
                "check passes within range",
                Check { lo: 5.0, hi: 200.0 },
                Stream,
            ),
            case(
                "upper bound fires mid-stream",
                Check { lo: 0.0, hi: 5.0 },
                Stream,
            )
            .raises(AtLeast(6), 5)
            .charged(6.0, 0.0),
            case("fractional upper bound", Check { lo: 0.0, hi: 7.5 }, Stream)
                .raises(AtLeast(8), 7)
                .charged(8.0, 0.0),
            case(
                "lower bound fires at EOF",
                Check { lo: 150.0, hi: 1e3 },
                Stream,
            )
            .raises(Exact(all), TOTAL)
            .charged(100.0, 0.0),
            case(
                "forced reopt fires in range",
                Check { lo: 0.0, hi: 1e3 },
                Stream,
            )
            .arrange(|c| c.force_reopt_at = Some(0))
            .raises(Exact(all), TOTAL)
            .forced(),
            case(
                "forced elsewhere: observe only",
                Check { lo: 0.0, hi: 5.0 },
                Stream,
            )
            .arrange(|c| c.force_reopt_at = Some(9)),
            case(
                "disabled checks never fire",
                Check { lo: 0.0, hi: 5.0 },
                Stream,
            )
            .arrange(|c| c.checks_enabled = false),
            case(
                "materialized: decided at open",
                Check { lo: 0.0, hi: 10.0 },
                AboveTemp,
            )
            .raises(Exact(all), 0),
            case(
                "materialized: passes at open",
                Check { lo: 0.0, hi: 1e3 },
                AboveTemp,
            ),
            case(
                "valve fails before capacity",
                Check { lo: 0.0, hi: 7.0 },
                Valve(1000),
            )
            .raises(AtLeast(8), 0)
            .charged(0.0, 8.0),
            case(
                "valve splits, trips streaming",
                Check { lo: 0.0, hi: 5.0 },
                Valve(2),
            )
            .raises(AtLeast(6), 5)
            .charged(4.0, 2.0),
            case(
                "valve passes and streams",
                Check { lo: 2.0, hi: 500.0 },
                Valve(4),
            ),
            case(
                "valve lower bound at EOF",
                Check {
                    lo: 150.0,
                    hi: 500.0,
                },
                Valve(1000),
            )
            .raises(Exact(all), 0)
            .charged(0.0, 100.0),
        ]
    }

    fn spec_of(Check { lo, hi }: Check) -> CheckSpec {
        CheckSpec {
            id: 0,
            flavor: CheckFlavor::Lc,
            range: ValidityRange::new(lo, hi),
            est_card: 1.0,
            signature: "sig".into(),
            context: CheckContext::AboveTemp,
        }
    }

    /// What one run produced.
    struct Run {
        values: Vec<i64>,
        /// Rows delivered before the first signal.
        before: usize,
        /// `ctx.work` when the first signal was raised.
        work_at_signal: f64,
        signals: Vec<Violation>,
    }

    /// Build the case's guard over a fresh source and drain it *past* any
    /// signal (the resume path).
    fn drive(case: &Case, ctx: &mut ExecCtx) -> Run {
        let mut src: Box<dyn Operator> = Box::new(Rows {
            chunk: ctx.batch_size,
            emitted: 0,
        });
        if case.shape == AboveTemp {
            src = Box::new(TempOp::new(src, None));
        }
        let capacity = match case.shape {
            Valve(c) => c,
            _ => 0,
        };
        let mut op = GuardOp::new(src, spec_of(case.bound), case.shape == AboveTemp, capacity);
        let mut run = Run {
            values: Vec::new(),
            before: 0,
            work_at_signal: 0.0,
            signals: Vec::new(),
        };
        let step = |r: OpResult<Option<RowBatch>>, run: &mut Run, ctx: &ExecCtx| match r {
            Ok(Some(b)) => {
                run.values
                    .extend(b.live_indices().map(|i| match b.value(0, i) {
                        Value::Int(i) => i,
                        other => panic!("unexpected {other:?}"),
                    }));
                true
            }
            Ok(None) => false,
            Err(ExecSignal::Reopt(v)) => {
                if run.signals.is_empty() {
                    run.before = run.values.len();
                    run.work_at_signal = ctx.work;
                }
                run.signals.push(*v);
                true
            }
            Err(ExecSignal::Error(e)) => panic!("{}: {e}", case.name),
        };
        let opened = op.open(ctx).map(|()| None);
        step(opened, &mut run, ctx);
        loop {
            let r = op.next_batch(ctx);
            if !step(r, &mut run, ctx) {
                break;
            }
        }
        op.close(ctx);
        run
    }

    #[test]
    fn every_guard_follows_one_protocol() {
        for case in table() {
            for chunk in [1usize, 7, 64, 1024] {
                let at = format!("{} (chunk={chunk})", case.name);
                let mut ctx = ExecCtx::new(
                    Catalog::new(),
                    pop_expr::Params::none(),
                    CostModel::default(),
                );
                ctx.batch_size = chunk;
                (case.arrange)(&mut ctx);
                let run = drive(&case, &mut ctx);

                // Nothing dropped, nothing duplicated, order kept —
                // including the rows held back around the signal.
                assert_eq!(run.values, (0..TOTAL as i64).collect::<Vec<_>>(), "{at}");

                // At most one signal, with the expected observation.
                let got: Vec<_> = run.signals.iter().map(|v| (v.observed, v.forced)).collect();
                assert_eq!(got, case.signal.into_iter().collect::<Vec<_>>(), "{at}");
                assert_eq!(run.before, case.before, "{at}");
                assert_eq!(
                    ctx.forced_fired,
                    case.signal.is_some_and(|(_, f)| f),
                    "{at}"
                );

                // Exactly one event: the signal's, or Passed on the exact
                // count.
                assert_eq!(ctx.check_events.len(), 1, "{at}");
                let e = &ctx.check_events[0];
                let (observed, outcome) = match case.signal {
                    Some((o, true)) => (o, CheckOutcome::Forced),
                    Some((o, false)) => (o, CheckOutcome::Violated),
                    None => (ObservedCard::Exact(TOTAL as u64), CheckOutcome::Passed),
                };
                assert_eq!((e.observed, e.outcome), (observed, outcome), "{at}");
                let Check { lo, hi } = case.bound;
                for v in &run.signals {
                    assert_eq!((v.check_id, v.flavor), (0, CheckFlavor::Lc), "{at}");
                    assert_eq!(v.range, ValidityRange::new(lo, hi), "{at}");
                }
                if let Some((s, f)) = case.charged {
                    let m = &ctx.model;
                    let want = s * m.check_row + f * (m.check_row + 0.5 * m.temp_write_row);
                    assert!((run.work_at_signal - want).abs() < 1e-9, "{at}");
                }
            }
        }
    }
}
