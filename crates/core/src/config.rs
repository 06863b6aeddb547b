//! POP driver configuration.

use pop_guard::{Budget, FaultPlan};
use pop_optimizer::OptimizerConfig;
use pop_plan::CostModel;
use pop_storage::StorageConfig;

/// Configuration of the full POP loop.
#[derive(Debug, Clone, PartialEq)]
pub struct PopConfig {
    /// Master switch: with POP disabled, no checkpoints are placed and the
    /// initial plan always runs to completion (classic static
    /// optimization — the "without POP" baselines in §5/§6).
    pub enabled: bool,
    /// Optimizer configuration (join methods, checkpoint flavors,
    /// validity mode, ...).
    pub optimizer: OptimizerConfig,
    /// Cost-model coefficients, shared by estimation and work accounting.
    pub cost_model: CostModel,
    /// Maximum number of re-optimizations before the current plan is
    /// forced to run to completion (the paper's termination heuristic
    /// limits this to 3, §7). `0` is the observe-only run of §5.2: the
    /// first plan runs with its checkpoints placed, counting rows and
    /// recording events, but disarmed — "the actual re-optimization
    /// disabled so that the entire query is executed and all checkpoints
    /// are encountered" (the overhead and opportunity instrumentation of
    /// Figures 13 and 14).
    pub max_reopts: usize,
    /// Force a dummy re-optimization at the n-th checkpoint encountered
    /// (by check id), even if its range holds. Used by the overhead
    /// experiments of Figure 12; the fed-back cardinalities are exact, so
    /// the re-optimized plan is normally identical.
    pub force_reopt_at: Option<usize>,
    /// LEO-style learning (the paper's §7 "Learning for the Future",
    /// citing [SLM+01]): retain cardinality feedback across queries, so a
    /// repeated (or overlapping) query is planned with the actual
    /// cardinalities learned from earlier executions and usually needs no
    /// re-optimization at all. Off by default.
    pub learn_across_queries: bool,
    /// Differential self-check of the incremental memo: re-plan every
    /// step on a fresh memo (which re-derives every group) and fail the
    /// step on any divergence in plan shape or cost from the persistent
    /// memo's answer. Expensive (defeats the point of the memo) — meant
    /// for tests and debugging; off by default.
    pub verify_memo: bool,
    /// Rows per execution batch. Batch boundaries carry no semantics —
    /// `1` reproduces classic row-at-a-time Volcano execution — so this
    /// only trades per-call overhead against read-ahead granularity.
    /// Defaults to [`pop_exec::DEFAULT_BATCH_SIZE`].
    pub batch_size: usize,
    /// Per-query resource budget (work units, rows, wall-clock time,
    /// resident operator bytes), enforced at batch boundaries by the
    /// execution governor. Unlimited by default.
    pub budget: Budget,
    /// Deterministic fault-injection plan for chaos runs; `None` (the
    /// default) leaves every hook disarmed.
    pub faults: Option<FaultPlan>,
    /// Accepted and ignored: the executor runs on the catalog it is
    /// given, whose storage is fixed when the catalog is built. Kept
    /// because the frozen benchmark harness still sets it.
    pub storage: StorageConfig,
    /// Graceful degradation: when *re*-optimization fails (optimizer
    /// error, injected fault), fall back to the last plan the optimizer
    /// produced and run it to completion with checks disabled, instead of
    /// aborting a query that already has a working plan. A failure of the
    /// *initial* optimization is always an error.
    pub graceful_degradation: bool,
}

impl Default for PopConfig {
    /// POP on with the paper's defaults, over the mem backend's flat cost
    /// model ([`CostModel::default`]); a paged catalog plans best with
    /// [`CostModel::paged`], which the caller sets.
    fn default() -> Self {
        PopConfig {
            enabled: true,
            optimizer: OptimizerConfig::default(),
            cost_model: CostModel::default(),
            max_reopts: 3,
            force_reopt_at: None,
            learn_across_queries: false,
            verify_memo: false,
            batch_size: pop_exec::DEFAULT_BATCH_SIZE,
            budget: Budget::unlimited(),
            faults: None,
            storage: StorageConfig::default(),
            graceful_degradation: true,
        }
    }
}

impl PopConfig {
    /// Classic static optimization: no checkpoints, no re-optimization.
    pub fn without_pop() -> Self {
        PopConfig {
            enabled: false,
            ..PopConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = PopConfig::default();
        assert!(c.enabled);
        assert_eq!(c.max_reopts, 3);
        assert!(!PopConfig::without_pop().enabled);
        assert!(c.batch_size >= 1);
        assert!(c.graceful_degradation);
        // Guardrails are off unless configured: zero-cost default path.
        assert!(!c.budget.is_limited());
        assert!(c.faults.is_none());
        assert_eq!(c.cost_model, CostModel::default());
    }
}
