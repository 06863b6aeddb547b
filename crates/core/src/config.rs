//! POP driver configuration.

use pop_guard::{env_switch, Budget, FaultPlan};
use pop_optimizer::OptimizerConfig;
use pop_plan::CostModel;
use pop_storage::{StorageConfig, StorageKind};

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
    /// limits this to 3, §7).
    pub max_reopts: usize,
    /// Work units charged per re-optimization (context switch plus
    /// optimizer invocation — the small gap in Figure 12).
    pub reopt_work: f64,
    /// Force a dummy re-optimization at the n-th checkpoint encountered
    /// (by check id), even if its range holds. Used by the overhead
    /// experiments of Figure 12; the fed-back cardinalities are exact, so
    /// the re-optimized plan is normally identical.
    pub force_reopt_at: Option<usize>,
    /// Observe-only mode: checkpoints count rows and record events but
    /// never trigger re-optimization. Used by the overhead and
    /// opportunity instrumentation (Figures 13 and 14), which measure
    /// checkpoint behaviour with "the actual re-optimization disabled so
    /// that the entire query is executed and all checkpoints are
    /// encountered" (§5.2).
    pub observe_only: bool,
    /// LEO-style learning (the paper's §7 "Learning for the Future",
    /// citing [SLM+01]): retain cardinality feedback across queries, so a
    /// repeated (or overlapping) query is planned with the actual
    /// cardinalities learned from earlier executions and usually needs no
    /// re-optimization at all. Off by default; the `POP_FEEDBACK_LEARN`
    /// switch (`on`/`off`/`true`/`false`/`1`/`0`) overrides.
    pub learn_across_queries: bool,
    /// Differential self-check of the incremental memo: re-plan every
    /// step on a fresh memo (which re-derives every group) and fail the
    /// step on any divergence in plan shape or cost from the persistent
    /// memo's answer. Expensive (defeats the point of the memo) — meant
    /// for tests and debugging; off by default, no environment variable.
    pub verify_memo: bool,
    /// Rows per execution batch. Batch boundaries carry no semantics —
    /// `1` reproduces classic row-at-a-time Volcano execution — so this
    /// only trades per-call overhead against read-ahead granularity.
    /// Defaults to [`pop_exec::DEFAULT_BATCH_SIZE`], overridable with the
    /// `POP_BATCH_SIZE` environment variable.
    pub batch_size: usize,
    /// Per-query resource budget (work units, rows, wall-clock time,
    /// resident operator bytes), enforced at batch boundaries by the
    /// execution governor. Unlimited by default; the `POP_MAX_WORK`,
    /// `POP_MAX_ROWS`, `POP_MAX_WALL_MS` and `POP_MAX_BYTES` environment
    /// variables set individual limits.
    pub budget: Budget,
    /// Deterministic fault-injection plan for chaos runs; `None` (the
    /// default) leaves every hook disarmed. The `POP_FAULT_PLAN` /
    /// `POP_FAULT_SEED` environment variables set it.
    pub faults: Option<FaultPlan>,
    /// Read from `POP_STORAGE`, `POP_PAGE_SIZE`, `POP_BUFFER_POOL_BYTES`
    /// and `POP_WAL`; [`PopConfig::default`] picks
    /// [`PopConfig::cost_model`] from its backend kind. Otherwise accepted
    /// and ignored: the executor runs on the catalog it is given, whose
    /// storage is fixed when the catalog is built. Kept so configurations
    /// that still set it compile.
    pub storage: StorageConfig,
    /// Graceful degradation: when *re*-optimization fails (optimizer
    /// error, injected fault), fall back to the last plan the optimizer
    /// produced and run it to completion with checks disabled, instead of
    /// aborting a query that already has a working plan. A failure of the
    /// *initial* optimization is always an error.
    pub graceful_degradation: bool,
    /// Warnings produced while reading `POP_*` environment variables
    /// (invalid values fall back to defaults but are never silently
    /// swallowed); surfaced on every `RunReport`.
    pub env_warnings: Vec<String>,
}

/// Batch size from environment variable `name` (`POP_BATCH_SIZE`),
/// falling back to the engine default. Unparsable or zero values fall
/// back — recording a warning — rather than erroring.
fn batch_size_from_env(name: &str, warnings: &mut Vec<String>) -> usize {
    pop_guard::env_parsed(name, |n: &usize| *n > 0, warnings)
        .unwrap_or(pop_exec::DEFAULT_BATCH_SIZE)
}

impl Default for PopConfig {
    fn default() -> Self {
        let mut env_warnings = Vec::new();
        let batch_size = batch_size_from_env("POP_BATCH_SIZE", &mut env_warnings);
        let budget = Budget::from_env(&mut env_warnings);
        let faults = FaultPlan::from_env(&mut env_warnings);
        let storage = StorageConfig::from_env(&mut env_warnings);
        // The paged backend plans with the page-aware model; the mem
        // backend keeps the flat model (page terms zeroed). Page counts
        // are identical across backends, so this is a modeling choice,
        // not a correctness one.
        let cost_model = match storage.kind {
            StorageKind::Paged => CostModel::paged(),
            StorageKind::Mem => CostModel::default(),
        };
        PopConfig {
            enabled: true,
            optimizer: OptimizerConfig::default(),
            cost_model,
            max_reopts: 3,
            reopt_work: 200.0,
            force_reopt_at: None,
            observe_only: false,
            learn_across_queries: env_switch("POP_FEEDBACK_LEARN", false, &mut env_warnings),
            verify_memo: false,
            batch_size,
            budget,
            faults,
            storage,
            graceful_degradation: true,
            env_warnings,
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
        let fault_env = ["POP_FAULT_PLAN", "POP_FAULT_SEED"]
            .iter()
            .any(|v| std::env::var_os(v).is_some());
        assert!(c.faults.is_none() || fault_env);
    }

    #[test]
    fn switch_parser_accepts_natural_spellings() {
        // The one parser behind every boolean `POP_*` switch, on unique
        // variable names, so parallel tests reading the environment never
        // race with these writes.
        let mut w = Vec::new();
        for (name, raw, default, want) in [
            ("POP_TEST_SWITCH_OFF", "off", true, false),
            ("POP_TEST_SWITCH_ON", "ON", false, true),
            ("POP_TEST_SWITCH_ONE", "1", false, true),
            ("POP_TEST_SWITCH_ZERO", " 0 ", true, false),
            ("POP_TEST_SWITCH_TRUE", "True", false, true),
            ("POP_TEST_SWITCH_FALSE", "false", true, false),
        ] {
            std::env::set_var(name, raw);
            assert_eq!(env_switch(name, default, &mut w), want, "{name}={raw:?}");
            std::env::remove_var(name);
        }
        assert!(env_switch("POP_TEST_SWITCH_UNSET", true, &mut w));
        assert!(w.is_empty(), "{w:?}");
        std::env::set_var("POP_TEST_SWITCH_BAD", "maybe");
        assert!(env_switch("POP_TEST_SWITCH_BAD", true, &mut w));
        assert!(!env_switch("POP_TEST_SWITCH_BAD", false, &mut w));
        std::env::remove_var("POP_TEST_SWITCH_BAD");
        assert_eq!(
            w,
            [
                r#"POP_TEST_SWITCH_BAD: invalid value "maybe"; falling back to the default (true)"#,
                r#"POP_TEST_SWITCH_BAD: invalid value "maybe"; falling back to the default (false)"#,
            ]
        );
    }

    #[test]
    fn invalid_batch_size_env_is_warned_not_swallowed() {
        // On a variable of its own, not `POP_BATCH_SIZE`: parallel tests
        // read that one through `PopConfig::default`.
        const NAME: &str = "POP_TEST_BATCH_SIZE_INVALID";
        for raw in ["0", "banana"] {
            let mut w = Vec::new();
            std::env::set_var(NAME, raw);
            let n = batch_size_from_env(NAME, &mut w);
            std::env::remove_var(NAME);
            assert_eq!(n, pop_exec::DEFAULT_BATCH_SIZE, "{NAME}={raw:?}");
            assert_eq!(
                w,
                [format!(
                    "{NAME}: invalid value {raw:?}; falling back to the default"
                )]
            );
        }
        let mut w = Vec::new();
        std::env::set_var(NAME, "64");
        assert_eq!(batch_size_from_env(NAME, &mut w), 64);
        std::env::remove_var(NAME);
        assert!(w.is_empty(), "{w:?}");
    }
}
