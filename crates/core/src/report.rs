//! Query results and execution reports.

use pop_exec::{CheckEvent, Violation};
use pop_optimizer::MemoStats;
use pop_plan::PhysNode;
use pop_types::Row;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// The plan a step executed, rendered (EXPLAIN-style) on first read: it
/// reads as the `&str` of [`PhysNode`]'s `Display` (`contains`, `lines`,
/// `==`, formatting), and a step whose text nobody reads never renders it.
#[derive(Clone)]
pub struct PlanText {
    tree: PhysNode,
    text: OnceLock<String>,
}

impl PlanText {
    /// The text of `tree`, rendered when first read.
    pub fn new(tree: PhysNode) -> Self {
        PlanText {
            tree,
            text: OnceLock::new(),
        }
    }

    /// The executed plan itself.
    pub fn tree(&self) -> &PhysNode {
        &self.tree
    }

    /// The rendered plan.
    pub fn as_str(&self) -> &str {
        self.text.get_or_init(|| self.tree.to_string())
    }
}

impl Deref for PlanText {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for PlanText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Formats as the rendered text's `Debug`, as the plan's `String` did.
impl fmt::Debug for PlanText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for PlanText {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<&str> for PlanText {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// One optimize-execute step of the POP loop.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The executed plan, rendered (EXPLAIN-style) when first read.
    pub plan: PlanText,
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
    /// Rids of lineage per row in the widest of the step's returned
    /// batches and harvested materializations: 0 when the query carries
    /// no lineage ([`crate::PopExecutor::carries_lineage`]).
    pub lineage_width: usize,
    /// Always empty: the engine executes every plan serially (see
    /// [`RegionDiag`]).
    pub parallel: Vec<RegionDiag>,
    /// Always 0: a CHECK is the only runtime guard, there is no monitor
    /// layer to install. The field exists only so the end-to-end
    /// benchmark harness, which still reads it, keeps compiling.
    pub monitors_installed: usize,
    /// Memo maintenance statistics for this step's optimization: how many
    /// join-order groups were reused versus re-derived. `None` when the
    /// step's plan did not come out of the optimizer (degraded fallback
    /// or `execute_plan`).
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
    /// Non-fatal warnings: degradation notices, harvests not promoted to
    /// a temp MV, and similar conditions the caller should see but that
    /// do not fail the query.
    pub warnings: Vec<String>,
    /// Always `None`: the driver pre-validates no plan over a sample, so
    /// the type admits no other value. The field exists only so the
    /// end-to-end benchmark harness, which still reads it, keeps
    /// compiling.
    pub sample_vet: Option<std::convert::Infallible>,
    /// Feedback lookups answered by facts this query recorded (checks and
    /// materializations during this very run).
    pub feedback_overlay_hits: u64,
    /// Feedback lookups answered by facts seeded from the cross-query
    /// store (facts earlier queries paid for) that this query has not
    /// recorded on since — nonzero only with `learn_across_queries`.
    pub feedback_base_hits: u64,
    /// Physical storage I/O this query performed (buffer-pool hits and
    /// misses, evictions, WAL activity). `None` on the in-memory backend,
    /// which performs none. Backend-dependent by design — rows, steps,
    /// plans and check events stay identical across backends, this field
    /// alone differs, so equivalence comparisons must exclude it.
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
            plan: PlanText::new(PhysNode::TableScan {
                qidx: 0,
                table: "t".into(),
                pred: None,
                props: pop_plan::PlanProps::leaf(pop_plan::TableSet::single(0), 1.0, 1.0, vec![]),
            }),
            shape: shape.to_string(),
            est_cost: 0.0,
            work_start: 10.0,
            work_end: 25.0,
            check_events: vec![],
            violation: None,
            mvs_used: 0,
            rows_emitted: 0,
            batches_emitted: 0,
            lineage_width: 0,
            parallel: vec![],
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

    /// The text renders once, on first read, as the tree's `Display`.
    #[test]
    fn plan_text_renders_the_tree_on_first_read() {
        let s = step("x");
        assert!(s.plan.text.get().is_none());
        let expected = s.plan.tree().to_string();
        assert!(s.plan.contains("SCAN"), "{expected}");
        assert!(s.plan.text.get().is_some());
        assert_eq!(s.plan, expected.as_str());
        assert_eq!(format!("{}", s.plan), expected);
        assert_eq!(format!("{:?}", s.plan), format!("{expected:?}"));
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
