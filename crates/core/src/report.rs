//! Query results and execution reports.

use pop_exec::{CheckEvent, Violation};
use pop_optimizer::MemoStats;
use pop_planlint::RobustnessCertificate;
use pop_types::Row;

/// One optimize-execute step of the POP loop.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Rendered plan (EXPLAIN-style).
    pub plan: String,
    /// Compact bottom-up join shape, for detecting plan changes.
    pub shape: String,
    /// Optimizer's estimated cost of the plan.
    pub est_cost: f64,
    /// Work counter at the start of the step.
    pub work_start: f64,
    /// Work counter at the end of the step.
    pub work_end: f64,
    /// Every check resolution during the step.
    pub check_events: Vec<CheckEvent>,
    /// The violation that ended the step, if it did not complete.
    pub violation: Option<Violation>,
    /// Number of temp MVs the plan reuses (MVSCAN nodes).
    pub mvs_used: usize,
    /// Rows returned to the application during this step.
    pub rows_emitted: usize,
    /// Batches the root operator produced during this step (the rows
    /// above arrived in this many `next_batch` calls).
    pub batches_emitted: usize,
    /// Always empty: the engine executes every plan serially (see
    /// [`RegionDiag`]).
    pub parallel: Vec<RegionDiag>,
    /// Warn-severity findings from static plan verification of this
    /// step's plan (empty when the lint mode is `Off` or the plan is
    /// clean; Deny-severity findings abort the query instead).
    pub lint_warnings: Vec<String>,
    /// Robustness certificate of this step's plan: what the planlint
    /// dataflow analyzer can prove about its safety net (guarded edges,
    /// uncovered residual risk, worst-case re-optimization depth).
    /// `None` when the lint mode is `Off`.
    pub certificate: Option<RobustnessCertificate>,
    /// Always 0: a CHECK is the only runtime guard, there is no monitor
    /// layer to install. The field exists only so the end-to-end
    /// benchmark harness, which still reads it, keeps compiling.
    pub monitors_installed: usize,
    /// Memo maintenance statistics for this step's optimization: how many
    /// join-order groups were reused versus re-derived. `None` when the
    /// step's plan did not come out of the optimizer (degraded fallback,
    /// plan-cache hit, or `execute_plan`).
    pub memo: Option<MemoStats>,
}

/// A parallel region's diagnostics. The engine executes every plan
/// serially, so [`StepReport::parallel`] is always empty; this type and
/// [`WorkerDiag`] exist only so the end-to-end benchmark harness, which
/// still reads them, keeps compiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionDiag {
    /// One entry per worker.
    pub workers: Vec<WorkerDiag>,
}

/// One worker of a [`RegionDiag`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerDiag {
    /// Tasks claimed outside the worker's own share.
    pub steals: u64,
    /// Nanoseconds spent waiting on a queue.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent computing.
    pub compute_ns: u64,
}

impl StepReport {
    /// Work consumed by this step alone.
    pub fn work(&self) -> f64 {
        self.work_end - self.work_start
    }
}

/// Full report of a POP query execution.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// One entry per optimize-execute step (the initial run plus each
    /// re-optimization run).
    pub steps: Vec<StepReport>,
    /// Total work units consumed, including re-optimization overhead.
    pub total_work: f64,
    /// Number of re-optimizations performed.
    pub reopt_count: usize,
    /// True if the re-optimization budget was exhausted and the final plan
    /// ran with checks disabled.
    pub budget_exhausted: bool,
    /// True if a re-optimization failed and the driver fell back to the
    /// previous plan (graceful degradation) instead of aborting.
    pub degraded: bool,
    /// Non-fatal warnings: invalid `POP_*` environment values that fell
    /// back to defaults, degradation notices, and similar conditions the
    /// caller should see but that do not fail the query.
    pub warnings: Vec<String>,
    /// Plan-cache decision for this query, with its reason (e.g.
    /// `hit: all 3 validity guards admit the binding` or `miss: estimate
    /// outside vetted range`). `None` when the plan cache is disabled or
    /// was not consulted (faults, forced re-optimization, observe-only).
    pub plan_cache: Option<String>,
    /// Always `None`: the driver pre-validates no plan over a sample, so
    /// the type admits no other value. The field exists only so the
    /// end-to-end benchmark harness, which still reads it, keeps
    /// compiling.
    pub sample_vet: Option<std::convert::Infallible>,
    /// Feedback lookups answered by this query's own overlay (facts
    /// recorded by checks during this very run).
    pub feedback_overlay_hits: u64,
    /// Feedback lookups answered by the cross-query store (facts earlier
    /// queries paid for) — nonzero only with `learn_across_queries`.
    pub feedback_base_hits: u64,
    /// Physical storage I/O this query performed (buffer-pool hits and
    /// misses, evictions, WAL activity). `None` on the in-memory backend,
    /// which performs none. Backend-dependent by design — rows, steps,
    /// check events and certificates stay identical across backends, this
    /// field alone differs, so equivalence comparisons must exclude it.
    pub storage: Option<pop_storage::IoStats>,
}

impl RunReport {
    /// Did any re-optimization change the join shape?
    pub fn plan_changed(&self) -> bool {
        self.steps.windows(2).any(|w| w[0].shape != w[1].shape)
    }

    /// The final plan's shape.
    pub fn final_shape(&self) -> &str {
        self.steps.last().map_or("", |s| s.shape.as_str())
    }
}

impl RunReport {
    /// A human-readable multi-line summary of the whole execution: one
    /// paragraph per optimize–execute step with its plan shape, work,
    /// checkpoint outcomes and the violation (if any) that ended it.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} step(s), {} re-optimization(s), total work {:.0}{}",
            self.steps.len(),
            self.reopt_count,
            self.total_work,
            if self.budget_exhausted {
                " (re-optimization budget exhausted)"
            } else if self.degraded {
                " (degraded: re-optimization failed, previous plan kept)"
            } else {
                ""
            }
        );
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        if let Some(pc) = &self.plan_cache {
            let _ = writeln!(out, "plan cache: {pc}");
        }
        if self.feedback_overlay_hits + self.feedback_base_hits > 0 {
            let _ = writeln!(
                out,
                "feedback hits: {} overlay, {} cross-query",
                self.feedback_overlay_hits, self.feedback_base_hits
            );
        }
        if let Some(io) = &self.storage {
            let _ = writeln!(
                out,
                "storage io: {} read / {} written page(s), pool {} hit(s) / {} miss(es), {} eviction(s), {} WAL record(s)",
                io.pages_read,
                io.pages_written,
                io.pool_hits,
                io.pool_misses,
                io.evictions,
                io.wal_records
            );
        }
        for (i, s) in self.steps.iter().enumerate() {
            let _ = writeln!(
                out,
                "step {}: work {:.0}, emitted {} row(s) in {} batch(es), {} MV(s) reused",
                i,
                s.work(),
                s.rows_emitted,
                s.batches_emitted,
                s.mvs_used
            );
            let _ = writeln!(out, "  shape: {}", s.shape);
            if let Some(m) = &s.memo {
                let _ = writeln!(
                    out,
                    "  memo: {} group(s), {} reused, {} re-derived ({} dirty seed(s)){}",
                    m.groups_total,
                    m.groups_reused,
                    m.groups_rederived,
                    m.dirty_seeds,
                    if m.rebuilt { ", full rebuild" } else { "" }
                );
            }
            for w in &s.lint_warnings {
                let _ = writeln!(out, "  lint: {w}");
            }
            if let Some(c) = &s.certificate {
                let _ = writeln!(out, "  {c}");
            }
            for ev in &s.check_events {
                let _ = writeln!(
                    out,
                    "  check #{} {} [{}] est {:.0} range {} -> {:?} ({:?})",
                    ev.check_id,
                    ev.flavor,
                    ev.context,
                    ev.est_card,
                    ev.range,
                    ev.outcome,
                    ev.observed
                );
            }
            if let Some(v) = &s.violation {
                let _ = writeln!(
                    out,
                    "  suspended by check #{} ({}): observed {:?}, est {:.0}, range {}",
                    v.check_id, v.flavor, v.observed, v.est_card, v.range
                );
            }
        }
        out
    }
}

/// Rows plus the execution report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result rows (values only; layout per the query's projection or
    /// aggregation).
    pub rows: Vec<Row>,
    /// How the query was executed.
    pub report: RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(shape: &str) -> StepReport {
        StepReport {
            plan: String::new(),
            shape: shape.to_string(),
            est_cost: 0.0,
            work_start: 10.0,
            work_end: 25.0,
            check_events: vec![],
            violation: None,
            mvs_used: 0,
            rows_emitted: 0,
            batches_emitted: 0,
            parallel: vec![],
            lint_warnings: vec![],
            certificate: None,
            monitors_installed: 0,
            memo: None,
        }
    }

    #[test]
    fn step_work() {
        assert_eq!(step("x").work(), 15.0);
    }

    #[test]
    fn summary_renders() {
        let mut r = RunReport::default();
        r.steps.push(step("a b HSJN"));
        r.total_work = 25.0;
        let s = r.summary();
        assert!(s.contains("1 step(s)"));
        assert!(s.contains("a b HSJN"));
    }

    #[test]
    fn plan_changed_detection() {
        let mut r = RunReport::default();
        r.steps.push(step("a b HSJN"));
        assert!(!r.plan_changed());
        r.steps.push(step("a b HSJN"));
        assert!(!r.plan_changed());
        r.steps.push(step("b a NLJN"));
        assert!(r.plan_changed());
        assert_eq!(r.final_shape(), "b a NLJN");
    }
}
