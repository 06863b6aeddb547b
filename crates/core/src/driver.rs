//! The POP driver: alternate optimization and execution steps until the
//! query completes (§2.1, Figure 3 of the paper).

use crate::report::PlanText;
use crate::{PopConfig, QueryResult, RunReport, StepReport};
use parking_lot::Mutex;
use pop_exec::{execute, ExecCtx, RunOutcome, Subplan, Subplans};
use pop_guard::{CancelToken, FaultInjector, Governor};
use pop_optimizer::{
    optimize, CardFact, FeedbackCache, FeedbackStore, FlavorSet, Memo, MemoStats, OptimizerContext,
};
use pop_plan::{canonical_layout, PhysNode, QuerySpec, ValidityRange};
use pop_stats::StatsRegistry;
use pop_storage::{Catalog, TempMv};
use pop_types::{ColumnDef, PopError, PopResult, Row, Schema};

/// Work units charged per re-optimization (context switch plus optimizer
/// invocation — the small gap in Figure 12).
pub const REOPT_WORK: f64 = 200.0;

/// One query's execution context, with the storage environment held to
/// the query: buffer-pool frames draw from its resident-byte budget and
/// the storage layer fires from its fault plan. Built by
/// [`PopExecutor::session`] for every entry point that executes a plan.
/// Dropping it — on completion, typed error, injected fault, even a panic
/// unwinding through the driver — clears the query-scoped temporary MVs
/// (§2.3), so no `__pop_mv_*` table is left behind, then detaches the
/// governor (releasing page reservations) and disarms storage faults.
struct QuerySession<'a> {
    catalog: &'a Catalog,
    ctx: ExecCtx,
}

impl Drop for QuerySession<'_> {
    fn drop(&mut self) {
        self.catalog.clear_temp_mvs();
        self.catalog.detach_governor();
        let _ = self.catalog.storage().disarm_faults();
    }
}

/// The public entry point: owns a catalog, its statistics, and a
/// [`PopConfig`], and executes queries with progressive re-optimization.
///
/// One executor runs one query at a time (temporary materialized views are
/// scoped to the running query and cleaned up when it finishes, §2.3).
#[derive(Debug)]
pub struct PopExecutor {
    catalog: Catalog,
    stats: StatsRegistry,
    config: PopConfig,
    /// Cross-query feedback store: cardinality facts published here when
    /// a query completes under [`PopConfig::learn_across_queries`]
    /// (§7, LEO-style). Per-query overlays seed their lookups from it.
    learned: FeedbackStore,
    /// Persistent join-order memo, maintained incrementally across the
    /// re-optimization steps of one query and across queries (it clears
    /// itself whenever the bound query changes).
    memo: Mutex<Memo>,
}

impl PopExecutor {
    /// Create an executor, analyzing statistics for every catalog table
    /// (the RUNSTATS step a DBA would run).
    pub fn new(catalog: Catalog, config: PopConfig) -> PopResult<Self> {
        let stats = StatsRegistry::new();
        stats.analyze_all(&catalog)?;
        Ok(PopExecutor::with_stats(catalog, stats, config))
    }

    /// Create an executor with pre-collected statistics (e.g. deliberately
    /// stale ones, for experiments).
    pub fn with_stats(catalog: Catalog, stats: StatsRegistry, config: PopConfig) -> Self {
        PopExecutor {
            catalog,
            stats,
            config,
            learned: FeedbackStore::default(),
            memo: Mutex::new(Memo::new()),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The statistics registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &PopConfig {
        &self.config
    }

    /// Mutable configuration access (between queries).
    pub fn config_mut(&mut self) -> &mut PopConfig {
        &mut self.config
    }

    /// Optimize without executing; returns the rendered plan.
    pub fn explain(&self, spec: &QuerySpec, params: &pop_expr::Params) -> PopResult<String> {
        Ok(self.plan(spec, params)?.to_string())
    }

    /// The cross-query feedback store (populated only when
    /// [`PopConfig::learn_across_queries`] is enabled: completed queries
    /// publish their per-query overlays here).
    pub fn learned_facts(&self) -> &FeedbackStore {
        &self.learned
    }

    /// Execute a query under POP.
    pub fn run(&self, spec: &QuerySpec, params: &pop_expr::Params) -> PopResult<QueryResult> {
        self.run_with(spec, params, None)
    }

    /// Execute a query under POP, observing `cancel` (when supplied) at
    /// every batch boundary: a client thread holding a clone of the token
    /// can abort the query with [`pop_types::PopError::Cancelled`].
    pub fn run_with(
        &self,
        spec: &QuerySpec,
        params: &pop_expr::Params,
        cancel: Option<CancelToken>,
    ) -> PopResult<QueryResult> {
        spec.validate()?;
        // With learning enabled the query's facts are seeded from the
        // shared store (subplan signatures include tables, predicates and
        // parameter values, so facts transfer exactly to repeated or
        // overlapping subplans). Facts observed by this run stay with the
        // query until it *completes*, then publish — a failed or poisoned
        // run never contaminates the store other queries plan against.
        let mut feedback = if self.config.learn_across_queries {
            FeedbackCache::seeded(&self.learned, spec, Some(params))
        } else {
            FeedbackCache::new()
        };
        let mut session = self.session(params, cancel)?;
        let ctx = &mut session.ctx;
        if self.config.enabled {
            ctx.force_reopt_at = self.config.force_reopt_at;
        }
        if self.config.observe_only {
            ctx.checks_enabled = false;
        }
        // A cap of zero re-optimizations leaves no budget for the first
        // violation: the query runs its first plan with CHECKs disabled.
        if self.config.max_reopts == 0 {
            ctx.checks_enabled = false;
        }
        let mut report = RunReport {
            budget_exhausted: self.config.max_reopts == 0,
            ..Default::default()
        };
        let mut collected: Vec<Row> = Vec::new();
        let io_before = self.catalog.io_stats();
        self.run_loop(
            spec,
            params,
            &mut feedback,
            ctx,
            &mut report,
            &mut collected,
        )?;
        // Physical I/O is backend-dependent by design (the mem backend
        // reports all zeros) and never part of result equivalence.
        let io = self.catalog.io_stats().since(&io_before);
        if io != pop_storage::IoStats::default() {
            report.storage = Some(io);
        }
        let (overlay_hits, base_hits) = feedback.hit_counts();
        report.feedback_overlay_hits = overlay_hits;
        report.feedback_base_hits = base_hits;
        if self.config.learn_across_queries {
            feedback.publish(&self.learned, spec, Some(params));
        }
        report.total_work = ctx.work;
        Ok(QueryResult {
            rows: collected,
            report,
        })
    }

    /// Set up one query's session: an [`ExecCtx`] under this executor's
    /// batch size, budget, `cancel` token and fault plan, the governor
    /// attached to the buffer pool and storage faults armed from the same
    /// plan.
    fn session(
        &self,
        params: &pop_expr::Params,
        cancel: Option<CancelToken>,
    ) -> PopResult<QuerySession<'_>> {
        let mut ctx = ExecCtx::new(
            self.catalog.clone(),
            params.clone(),
            self.config.cost_model.clone(),
        );
        ctx.batch_size = self.config.batch_size.max(1);
        ctx.guard = Governor::new(self.config.budget, cancel);
        ctx.faults = self.config.faults.clone().map(FaultInjector::new);
        self.catalog.attach_governor(ctx.guard.clone_shared())?;
        if let Some(plan) = &self.config.faults {
            self.catalog
                .storage()
                .arm_faults(FaultInjector::new(plan.clone()));
        }
        Ok(QuerySession {
            catalog: &self.catalog,
            ctx,
        })
    }

    fn effective_optimizer_config(&self) -> pop_optimizer::OptimizerConfig {
        let mut cfg = self.config.optimizer.clone();
        if !self.config.enabled {
            cfg.flavors = FlavorSet::none();
        }
        cfg
    }

    /// Do `spec`'s rows carry lineage (base-table rids) under this
    /// executor's configuration? Lineage has two readers: ECDC's deferred
    /// compensation, the only flavor that lets a step return rows before
    /// it re-optimizes, and INSERT's exactly-once application of its side
    /// effect. Neither can run without ECDC in the flavor set or a side
    /// effect in the spec; the flavor set does not change between steps,
    /// so an MV promoted without lineage is never scanned by a step that
    /// needs it. [`ExecCtx::lineage`] takes the answer once per query,
    /// before the first plan.
    pub fn carries_lineage(&self, spec: &QuerySpec) -> bool {
        self.effective_optimizer_config().flavors.ecdc || spec.side_effect.is_some()
    }

    fn run_loop(
        &self,
        spec: &QuerySpec,
        params: &pop_expr::Params,
        feedback: &mut FeedbackCache,
        ctx: &mut ExecCtx,
        report: &mut RunReport,
        collected: &mut Vec<Row>,
    ) -> PopResult<()> {
        let opt_config = self.effective_optimizer_config();
        ctx.lineage = self.carries_lineage(spec);
        let mut mv_counter = 0usize;
        // The persistent memo is held for the whole loop: each
        // re-optimization step re-derives only the groups its new facts
        // dirtied.
        let mut memo = self.memo.lock();
        loop {
            // (Re-)optimize with everything learned so far: feedback facts
            // and temp MVs both enter through the optimizer context.
            let octx = OptimizerContext::new(
                &self.catalog,
                &self.stats,
                &opt_config,
                &self.config.cost_model,
                Some(params),
                feedback,
            );
            let (plan, memo_stats) = match self.plan_step(spec, &octx, ctx, &mut memo) {
                Ok((plan, stats)) => (plan, Some(stats)),
                // Graceful degradation: a query that already has a working
                // plan should not abort because *re*-planning failed
                // (optimizer error, injected fault). Keep the previous
                // plan and run it to completion with checks disabled. A
                // first-optimization failure stays fatal — there is
                // nothing to fall back to.
                Err(e) => match report.steps.last() {
                    Some(prev) if self.config.graceful_degradation => {
                        let prev = bare_plan(prev.plan.tree()).clone();
                        report.degraded = true;
                        report.warnings.push(format!(
                            "re-optimization failed ({e}); continuing with the previous plan, checks disabled"
                        ));
                        ctx.checks_enabled = false;
                        (wrap_compensation(prev, ctx), None)
                    }
                    _ => return Err(e),
                },
            };
            let subplans = self.subplans(spec, &plan);
            let mut mvs_used = 0usize;
            plan.visit(&mut |n| {
                if matches!(n, PhysNode::MvScan { .. }) {
                    mvs_used += 1;
                }
            });
            let work_start = ctx.work;
            let batches_start = ctx.batches_emitted;
            let outcome = execute(&plan, ctx, &subplans)?;
            let mut step = StepReport {
                shape: plan.join_shape(),
                est_cost: plan.props().cost,
                plan: PlanText::new(plan),
                work_start,
                work_end: ctx.work,
                check_events: std::mem::take(&mut ctx.check_events),
                violation: None,
                mvs_used,
                rows_emitted: outcome.row_count(),
                batches_emitted: (ctx.batches_emitted - batches_start) as usize,
                lineage_width: lineage_width(&outcome, &ctx.harvests),
                parallel: Vec::new(),
                monitors_installed: 0,
                memo: memo_stats,
            };
            collect_rows(collected, ctx, &outcome)?;
            match outcome {
                RunOutcome::Complete { .. } => {
                    report.steps.push(step);
                    return Ok(());
                }
                RunOutcome::Suspended { violation, .. } => {
                    // A *forced* (dummy) re-optimization measures pure POP
                    // overhead (Figure 12): no cardinality feedback, so
                    // the optimizer re-plans under the same estimates and
                    // can only substitute materialized results.
                    if !violation.forced {
                        // Feed the violated check's observation back.
                        let fact = match violation.observed {
                            pop_exec::ObservedCard::Exact(n) => CardFact::Exact(n as f64),
                            pop_exec::ObservedCard::AtLeast(n) => CardFact::AtLeast(n as f64),
                        };
                        feedback.record(violation.tables, fact);
                        // Every exactly-resolved check is a free exact fact.
                        for ev in &step.check_events {
                            if let pop_exec::ObservedCard::Exact(n) = ev.observed {
                                feedback.record(ev.tables, CardFact::Exact(n as f64));
                            }
                        }
                    }
                    // Promote completed materializations to temp MVs with
                    // exact statistics (§2.3).
                    let harvests = std::mem::take(&mut ctx.harvests);
                    for h in harvests {
                        if !memo.is_subplan(h.tables) {
                            report.warnings.push(format!(
                                "harvest over {} not promoted: no subplan of the planned query",
                                h.tables
                            ));
                            continue;
                        }
                        if !violation.forced {
                            let card = CardFact::Exact(h.row_count() as f64);
                            feedback.record(h.tables, card);
                        }
                        self.promote_harvest(spec, h, &mut mv_counter, &mut report.warnings)?;
                    }
                    // Injected corrupted statistics: poison the violated
                    // subplan's fed-back cardinality with an absurd
                    // value, after all truthful facts, so the poison wins.
                    // The re-optimizer may now pick a bad plan; the chaos
                    // suite asserts the *answer* stays correct regardless.
                    // Never applied to the cross-query learning cache.
                    if !self.config.learn_across_queries {
                        if let Some(inj) = ctx.faults.as_mut() {
                            if inj.corrupt_stats() {
                                feedback.record(violation.tables, CardFact::Exact(1e12));
                            }
                        }
                    }
                    step.work_end = ctx.work;
                    step.violation = Some(violation);
                    report.steps.push(step);
                    report.reopt_count += 1;
                    ctx.charge(REOPT_WORK);
                    if report.reopt_count >= self.config.max_reopts {
                        // Termination heuristic (§7): the next plan runs to
                        // completion with checks disabled.
                        ctx.checks_enabled = false;
                        report.budget_exhausted = true;
                    }
                }
            }
        }
    }

    /// One planning step of the loop: the optimizer-failure fault hook,
    /// optimization through the persistent memo and compensation
    /// wrapping; debug builds also pass the plan through the deny gate.
    /// Returns the executable plan and the pass's memo statistics.
    fn plan_step(
        &self,
        spec: &QuerySpec,
        octx: &OptimizerContext<'_>,
        ctx: &mut ExecCtx,
        memo: &mut Memo,
    ) -> PopResult<(PhysNode, MemoStats)> {
        if let Some(inj) = ctx.faults.as_mut() {
            if let Some(err) = inj.optimizer_fail() {
                return Err(err);
            }
        }
        let (bare, stats) = optimize(spec, octx, memo)?;
        // Differential oracle: under `verify_memo` every incremental
        // answer is checked against a fresh memo, which re-derives every
        // group. Any divergence is a memo-maintenance bug (dirty seeding
        // or propagation), surfaced loudly.
        if self.config.verify_memo {
            let (fresh, _) = optimize(spec, octx, &mut Memo::new())?;
            if fresh.props().cost.to_bits() != bare.props().cost.to_bits()
                || fresh.to_string() != bare.to_string()
            {
                return Err(PopError::Planning(format!(
                    "memo divergence: incremental plan (cost {}) differs from the \
                     fresh-memo plan (cost {})",
                    bare.props().cost,
                    fresh.props().cost
                )));
            }
        }
        let plan = wrap_compensation(bare, ctx);
        debug_assert_eq!(self.deny_gate(&plan, spec), Ok(()), "optimizer plan");
        Ok((plan, stats))
    }

    /// Static plan verification (`pop-planlint`): rejects a plan with any
    /// finding with [`PopError::InvalidPlan`]. A caller-supplied plan
    /// meets it in every build ([`PopExecutor::execute_plan`]); the
    /// driver's own plans — first plans and re-plans — only in debug
    /// builds, as an invariant check on the optimizer.
    fn deny_gate(&self, plan: &PhysNode, spec: &QuerySpec) -> PopResult<()> {
        let lctx = pop_planlint::LintContext::full(&self.catalog, spec);
        let diags = pop_planlint::lint_plan(plan, &lctx);
        if !diags.is_empty() {
            return Err(PopError::InvalidPlan(pop_planlint::deny_summary(&diags)));
        }
        Ok(())
    }

    /// Optimize without executing; returns the physical plan the driver
    /// would start the POP loop with. Pairs with [`execute_plan`] and
    /// external analysis via `pop-planlint`.
    ///
    /// [`execute_plan`]: PopExecutor::execute_plan
    pub fn plan(&self, spec: &QuerySpec, params: &pop_expr::Params) -> PopResult<PhysNode> {
        spec.validate()?;
        let opt_config = self.effective_optimizer_config();
        let feedback = FeedbackCache::new();
        let octx = OptimizerContext::new(
            &self.catalog,
            &self.stats,
            &opt_config,
            &self.config.cost_model,
            Some(params),
            &feedback,
        );
        optimize(spec, &octx, &mut Memo::new()).map(|(plan, _)| plan)
    }

    /// Execute a caller-supplied plan for `spec` after passing it through
    /// the static verification gate: a plan with any planlint
    /// finding is rejected with [`PopError::InvalidPlan`] before a row is
    /// read, in every build. The plan runs exactly once with checkpoints
    /// disabled — no re-optimization loop — so the result reflects that
    /// plan alone.
    pub fn execute_plan(
        &self,
        spec: &QuerySpec,
        plan: &PhysNode,
        params: &pop_expr::Params,
    ) -> PopResult<QueryResult> {
        spec.validate()?;
        self.deny_gate(plan, spec)?;
        let mut session = self.session(params, None)?;
        let ctx = &mut session.ctx;
        ctx.checks_enabled = false;
        ctx.lineage = self.carries_lineage(spec);
        // Nothing is promoted without a re-optimization: harvest nothing.
        let outcome = execute(plan, ctx, &Subplans::new())?;
        if !outcome.is_complete() {
            return Err(PopError::Execution(
                "plan suspended although checkpoints were disabled".into(),
            ));
        }
        let mut collected: Vec<Row> = Vec::new();
        collect_rows(&mut collected, ctx, &outcome)?;
        let mut report = RunReport::default();
        report.steps.push(StepReport {
            plan: PlanText::new(plan.clone()),
            shape: plan.join_shape(),
            est_cost: plan.props().cost,
            work_start: 0.0,
            work_end: ctx.work,
            check_events: std::mem::take(&mut ctx.check_events),
            violation: None,
            mvs_used: 0,
            rows_emitted: collected.len(),
            batches_emitted: ctx.batches_emitted as usize,
            lineage_width: lineage_width(&outcome, &[]),
            parallel: Vec::new(),
            monitors_installed: 0,
            memo: None,
        });
        report.total_work = ctx.work;
        Ok(QueryResult {
            rows: collected,
            report,
        })
    }

    /// Column count of every query table (`0` for a table the catalog
    /// does not know; planning has already rejected such a spec).
    fn col_counts(&self, spec: &QuerySpec) -> Vec<usize> {
        spec.tables
            .iter()
            .map(|t| {
                self.catalog
                    .table(&t.table)
                    .map_or(0, |tb| tb.schema().len())
            })
            .collect()
    }

    /// The canonical layout of every table set appearing in the plan,
    /// for the executor to harvest their materializations in — when the
    /// plan can suspend at all: a plan without a CHECK runs to completion,
    /// so nothing it materializes is ever promoted.
    fn subplans(&self, spec: &QuerySpec, plan: &PhysNode) -> Subplans {
        let mut guarded = false;
        plan.visit(&mut |n| {
            guarded |= matches!(n, PhysNode::Check { .. } | PhysNode::BufCheck { .. });
        });
        let mut map = Subplans::new();
        if !guarded {
            return map;
        }
        let col_counts = self.col_counts(spec);
        plan.visit(&mut |n| {
            let set = n.props().tables;
            if !set.is_empty() {
                map.entry(set.mask()).or_insert_with(|| Subplan {
                    layout: canonical_layout(spec, set, &col_counts),
                });
            }
        });
        map
    }

    /// Promote one harvested materialization to a temp MV over its table
    /// set. The operator builder only harvests nodes whose output is
    /// the canonical layout of their table set — the contract MV matching
    /// relies on — so a harvest that disagrees with it is a bug: it is
    /// dropped and reported on `warnings` instead of silently turning MV
    /// reuse off.
    fn promote_harvest(
        &self,
        spec: &QuerySpec,
        mut h: pop_exec::Harvest,
        mv_counter: &mut usize,
        warnings: &mut Vec<String>,
    ) -> PopResult<()> {
        let canonical = canonical_layout(spec, h.tables, &self.col_counts(spec));
        if h.layout != canonical {
            warnings.push(format!(
                "harvest over {} not promoted to a temp MV: its layout {:?} is not the canonical layout {canonical:?}",
                h.tables, h.layout
            ));
            return Ok(());
        }
        // Build the MV schema from the base tables' column definitions.
        let mut cols = Vec::with_capacity(h.layout.len());
        for c in &h.layout {
            let base = self.catalog.table(&spec.tables[c.table].table)?;
            let def = base.schema().col(c.col);
            cols.push(ColumnDef::new(
                format!("t{}_{}", c.table, def.name),
                def.dtype,
            ));
        }
        let name = format!("__pop_mv_{}", *mv_counter);
        *mv_counter += 1;
        let id = self.catalog.allocate_temp_id();
        let (tables, layout, rows) = (h.tables, std::mem::take(&mut h.layout), h.row_count());
        // The operator's buffer, its columns moved into canonical order
        // (gathered only when a SORT reordered the rows), handed to storage
        // to keep. The MV's exact cardinality (the paper: "having the
        // cardinality of the intermediate result in its catalog
        // statistics") is `actual_card`, which MV-scan costing reads.
        let (data, lineage) = h.into_columns();
        // Under the paged backend the MV spills to temporary pages whose
        // files the catalog's cleanup (table drop) unlinks.
        let table = self
            .catalog
            .create_temp_table(id, name, Schema::new(cols), data, rows)?;
        self.catalog.register_temp_mv(TempMv {
            table,
            tables: tables.mask(),
            layout,
            actual_card: rows as u64,
            lineage,
        });
        Ok(())
    }
}

/// The plan the optimizer produced for a step: its executed plan without
/// the compensation wrapper the driver may have put around it.
fn bare_plan(plan: &PhysNode) -> &PhysNode {
    match plan {
        PhysNode::AntiJoinRids { input, .. } => input,
        plan => plan,
    }
}

/// Deferred compensation (Figure 9): if any rows were already returned to
/// the application, anti-join the plan's output against the rid side
/// table so no duplicates escape.
fn wrap_compensation(plan: PhysNode, ctx: &ExecCtx) -> PhysNode {
    if ctx.prev_returned.is_empty() {
        return plan;
    }
    let mut props = plan.props().clone();
    // The wrapper has a single pass-through input: the cloned child props
    // may carry per-join edge ranges that describe no edge of this node.
    props.edge_ranges = vec![ValidityRange::unbounded()];
    PhysNode::AntiJoinRids {
        input: Box::new(plan),
        props,
    }
}

/// The result boundary: a step's output rows, read straight from its
/// batches, go to the application buffer. A step cut short by a violation
/// also records each row's lineage in the rid side table, which the next
/// plan's anti-join compensates against (deferred compensation); a
/// completed step is the query's last, so nothing would read it. A
/// suspended step's returned row without lineage could not be compensated
/// — the next plan would return it again — so it is a typed error, never
/// a silent duplicate.
fn collect_rows(
    collected: &mut Vec<Row>,
    ctx: &mut ExecCtx,
    outcome: &RunOutcome,
) -> PopResult<()> {
    let record = !outcome.is_complete();
    for b in outcome.batches() {
        for i in b.live_indices() {
            if record {
                let lineage = b.lineage_at(i);
                if lineage.is_empty() {
                    return Err(PopError::Execution(format!(
                        "a step suspended after returning {} row(s) without lineage: \
                         the next plan cannot compensate for them",
                        outcome.row_count()
                    )));
                }
                let mut key = lineage.to_vec();
                key.sort_unstable();
                ctx.prev_returned.insert(key);
            }
            collected.push(b.row_at(i));
        }
    }
    Ok(())
}

/// The widest lineage a step's returned batches and harvests carry.
fn lineage_width(outcome: &RunOutcome, harvests: &[pop_exec::Harvest]) -> usize {
    let batches = outcome
        .batches()
        .iter()
        .map(pop_exec::RowBatch::lineage_width);
    let harvests = harvests.iter().map(pop_exec::Harvest::lineage_width);
    batches.chain(harvests).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_expr::{Expr, Params};
    use pop_plan::{QueryBuilder, TableSet};
    use pop_storage::IndexKind;
    use pop_types::{DataType, Value};

    /// A database with a strong correlation that breaks the independence
    /// assumption: customer.grp_a == grp_b == grp_c always, so the
    /// optimizer underestimates `grp_a = k AND grp_b = k AND grp_c = k`
    /// by 16x (estimate 1/64 of 5000 = 78 rows; actual 1/4 = 1250) —
    /// enough to cross the NLJN outer's validity range, whose upper bound
    /// sits near 500 given the 50-row index fan-out on orders.cust.
    fn correlated_db() -> Catalog {
        let cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::from_pairs(&[
                ("cid", DataType::Int),
                ("grp_a", DataType::Int),
                ("grp_b", DataType::Int),
                ("grp_c", DataType::Int),
            ]),
            (0..5000).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Int(i % 4),
                    Value::Int(i % 4),
                ]
            }),
        )
        .unwrap();
        // Only customers 0..1000 have orders, 50 each.
        cat.create_table(
            "orders",
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..50_000).map(|i| vec![Value::Int(i), Value::Int(i % 1000)]),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        cat.create_index("customer", "cid", IndexKind::Hash)
            .unwrap();
        cat
    }

    /// Joined rows: customers 0..1000 with cid % 4 == 3 (250 of them),
    /// each matching 50 orders = 12_500 rows.
    const CORRELATED_ROWS: usize = 12_500;

    fn correlated_query() -> pop_plan::QuerySpec {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(
            c,
            Expr::col(c, 1)
                .eq(Expr::lit(3i64))
                .and(Expr::col(c, 2).eq(Expr::lit(3i64)))
                .and(Expr::col(c, 3).eq(Expr::lit(3i64))),
        );
        b.build().unwrap()
    }

    #[test]
    fn pop_reoptimizes_on_correlation_misestimate() {
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let q = correlated_query();
        let res = exec.run(&q, &Params::none()).unwrap();
        assert_eq!(res.rows.len(), CORRELATED_ROWS);
        assert!(
            res.report.reopt_count >= 1,
            "expected a re-optimization; report: {:#?}",
            res.report
                .steps
                .iter()
                .map(|s| &s.shape)
                .collect::<Vec<_>>()
        );
        // Temp MVs are cleaned up afterwards.
        assert_eq!(exec.catalog().temp_mv_count(), 0);
    }

    #[test]
    fn pop_and_static_agree_on_results() {
        let q = correlated_query();
        let with_pop = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let without = PopExecutor::new(correlated_db(), PopConfig::without_pop()).unwrap();
        let mut a = with_pop.run(&q, &Params::none()).unwrap().rows;
        let mut b = without.run(&q, &Params::none()).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "POP must not change query semantics");
        assert_eq!(
            without.run(&q, &Params::none()).unwrap().report.reopt_count,
            0
        );
    }

    #[test]
    fn no_duplicates_across_reoptimization() {
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let q = correlated_query();
        let res = exec.run(&q, &Params::none()).unwrap();
        let mut rows = res.rows.clone();
        rows.sort();
        let before = rows.len();
        rows.dedup();
        assert_eq!(rows.len(), before, "duplicate rows returned");
    }

    #[test]
    fn accurate_estimates_no_reopt() {
        // Without the correlated predicate the estimate is right and no
        // check should fire.
        let cat = correlated_db();
        let exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        let q = b.build().unwrap();
        let res = exec.run(&q, &Params::none()).unwrap();
        assert_eq!(res.report.reopt_count, 0, "{:#?}", res.report.steps[0].plan);
        assert_eq!(res.rows.len(), CORRELATED_ROWS);
    }

    #[test]
    fn forced_reopt_is_plan_stable() {
        let config = PopConfig {
            force_reopt_at: Some(0),
            ..PopConfig::default()
        };
        let exec = PopExecutor::new(correlated_db(), config).unwrap();
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        let q = b.build().unwrap();
        let res = exec.run(&q, &Params::none()).unwrap();
        assert_eq!(res.report.reopt_count, 1);
        assert_eq!(res.rows.len(), CORRELATED_ROWS);
        // The dummy re-optimization fed back exact (matching) cardinalities,
        // so the plan should not change shape.
        let shapes: Vec<&String> = res.report.steps.iter().map(|s| &s.shape).collect();
        assert_eq!(shapes.len(), 2);
    }

    #[test]
    fn max_reopts_bounds_the_loop() {
        // max_reopts = 0: the query starts with checks disabled.
        let config = PopConfig {
            max_reopts: 0,
            ..PopConfig::default()
        };
        let exec = PopExecutor::new(correlated_db(), config).unwrap();
        let q = correlated_query();
        let res = exec.run(&q, &Params::none()).unwrap();
        assert_eq!(res.rows.len(), CORRELATED_ROWS);
        assert_eq!(res.report.reopt_count, 0);
        // The last step runs with checks disabled and completes.
        assert!(res.report.budget_exhausted);
        let last = res.report.steps.last().unwrap();
        assert!(last.violation.is_none());
    }

    #[test]
    fn plans_pass_static_verification_cleanly() {
        // Debug builds pass every plan the driver runs through the deny
        // gate — the initial plan AND every re-optimized plan (which
        // carry MVSCAN and ANTIJOIN-RIDS wrappers) — so the run
        // completing is the assertion. The first plan is also linted
        // here, so a release build checks it too.
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let q = correlated_query();
        let res = exec.run(&q, &Params::none()).unwrap();
        assert!(res.report.reopt_count >= 1);
        let plan = exec.plan(&q, &Params::none()).unwrap();
        let lctx = pop_planlint::LintContext::full(exec.catalog(), &q);
        let diags = pop_planlint::lint_plan(&plan, &lctx);
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// Only a suspended step feeds the rid side table: its rows were
    /// returned before a re-optimization the next plan must compensate
    /// for. A completed step's lineage would never be read.
    #[test]
    fn only_a_suspended_step_records_returned_lineage() {
        use pop_plan::{CheckFlavor, CheckSpec, LayoutCol, PlanProps};
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::from_pairs(&[("a", DataType::Int)]),
            (0..20).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        let scan = PhysNode::TableScan {
            qidx: 0,
            table: "t".into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(0),
                20.0,
                20.0,
                vec![LayoutCol::Base(pop_types::ColId::new(0, 0))],
            ),
        };
        let checked = PhysNode::Check {
            props: scan.props().clone(),
            input: Box::new(scan.clone()),
            spec: CheckSpec {
                id: 0,
                flavor: CheckFlavor::Ecdc,
                range: ValidityRange::new(0.0, 7.0),
                est_card: 5.0,
                context: pop_plan::CheckContext::Pipeline,
            },
        };
        let mut ctx = ExecCtx::new(cat, Params::none(), pop_plan::CostModel::default());
        let subplans = Subplans::new();
        let mut collected = Vec::new();

        let suspended = execute(&checked, &mut ctx, &subplans).unwrap();
        assert!(!suspended.is_complete());
        collect_rows(&mut collected, &mut ctx, &suspended).unwrap();
        assert_eq!(collected.len(), 7);
        assert_eq!(ctx.prev_returned.len(), 7);

        let complete = execute(&scan, &mut ctx, &subplans).unwrap();
        assert!(complete.is_complete());
        collect_rows(&mut collected, &mut ctx, &complete).unwrap();
        assert_eq!(collected.len(), 27);
        assert_eq!(
            ctx.prev_returned.len(),
            7,
            "a completed step records nothing"
        );

        // Without lineage the same returned rows could not be compensated:
        // a typed error, not seven duplicates in the next step.
        ctx.lineage = false;
        ctx.prev_returned.clear();
        let suspended = execute(&checked, &mut ctx, &subplans).unwrap();
        assert_eq!(suspended.batches()[0].lineage_width(), 0);
        match collect_rows(&mut collected, &mut ctx, &suspended) {
            Err(PopError::Execution(msg)) => assert!(msg.contains("7 row(s)"), "{msg}"),
            other => panic!("expected a typed execution error, got {other:?}"),
        }
        assert!(ctx.prev_returned.is_empty());
    }

    /// An ECDC step that returned rows before its violation is followed by
    /// a plan that anti-joins them away: every row exactly once.
    #[test]
    fn suspended_ecdc_run_compensates_its_returned_rows() {
        let mut config = PopConfig::default();
        config.optimizer.flavors = FlavorSet::only(pop_plan::CheckFlavor::Ecdc);
        let exec = PopExecutor::new(correlated_db(), config).unwrap();
        let mut q = correlated_query();
        q.projection = vec![pop_types::ColId::new(0, 0), pop_types::ColId::new(1, 0)];
        let res = exec.run(&q, &Params::none()).unwrap();
        let first = &res.report.steps[0];
        assert!(first.violation.is_some(), "{:#?}", res.report.steps);
        assert!(first.rows_emitted > 0 && first.rows_emitted < CORRELATED_ROWS);
        assert!(
            res.report.steps[1..]
                .iter()
                .all(|s| s.plan.contains("ANTIJOIN")),
            "{:#?}",
            res.report.steps
        );
        let mut rows = res.rows.clone();
        rows.sort();
        rows.dedup();
        assert_eq!(
            (res.rows.len(), rows.len()),
            (CORRELATED_ROWS, CORRELATED_ROWS)
        );
    }

    #[test]
    fn explain_renders_plan() {
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let q = correlated_query();
        let s = exec.explain(&q, &Params::none()).unwrap();
        assert!(s.contains("SCAN"), "{s}");
    }

    #[test]
    fn reopt_uses_materialized_intermediate_results() {
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let q = correlated_query();
        let res = exec.run(&q, &Params::none()).unwrap();
        if res.report.reopt_count >= 1 {
            // At least one re-optimized step should reuse an MV (the LCEM
            // temp of the NLJN outer was complete when the check fired).
            let reused: usize = res.report.steps.iter().skip(1).map(|s| s.mvs_used).sum();
            assert!(
                reused >= 1,
                "no MV reuse after reopt: {:#?}",
                res.report
                    .steps
                    .iter()
                    .map(|s| s.plan.clone())
                    .collect::<Vec<_>>()
            );
        }
    }

    /// A promoted MV lives in the catalog alone: MV-scan costing reads its
    /// `TempMv`, so promotion writes no `__pop_mv_*` statistics — which
    /// nothing would remove once the query's MVs are cleared.
    #[test]
    fn promotion_leaves_no_mv_statistics() {
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let res = exec.run(&correlated_query(), &Params::none()).unwrap();
        let reused: usize = res.report.steps.iter().map(|s| s.mvs_used).sum();
        assert!(
            res.report.reopt_count >= 1 && reused >= 1,
            "{}",
            res.report.summary()
        );
        assert_eq!(exec.catalog().temp_mv_count(), 0);
        for i in 0..16 {
            let name = format!("__pop_mv_{i}");
            assert!(exec.stats().get(&name).is_err(), "{name} has statistics");
        }
    }

    #[test]
    fn non_canonical_harvest_is_reported_not_silently_dropped() {
        let exec = PopExecutor::new(correlated_db(), PopConfig::default()).unwrap();
        let mut q = correlated_query();
        // With a projection the canonical layout of {customer} is its join
        // key plus the projected column — not the table's full width.
        q.projection = vec![pop_types::ColId::new(0, 1)];
        let canonical = canonical_layout(&q, TableSet::single(0), &exec.col_counts(&q));
        assert_eq!(
            canonical,
            vec![pop_types::ColId::new(0, 0), pop_types::ColId::new(0, 1)]
        );
        let harvest = |layout: Vec<pop_types::ColId>| {
            let mut buffer = pop_exec::RowBatch::new();
            buffer.push_row(&vec![Value::Int(1); layout.len()], &[]);
            let info = pop_exec::operators::HarvestInfo {
                tables: TableSet::single(0),
                perm: (0..layout.len()).collect(),
                canonical_layout: layout,
            };
            pop_exec::Harvest::new(&info, std::sync::Arc::new(buffer), None)
        };
        let (mut n, mut warnings) = (0, Vec::new());
        exec.promote_harvest(&q, harvest(canonical), &mut n, &mut warnings)
            .unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(exec.catalog().temp_mv_count(), 1);
        let mv = exec.catalog().temp_mv(TableSet::single(0).mask());
        assert!(
            mv.expect("promoted").lineage.is_none(),
            "rows without lineage promote to an MV without lineage"
        );
        // The same table set at another width breaks the MV contract.
        let narrow = vec![pop_types::ColId::new(0, 0)];
        exec.promote_harvest(&q, harvest(narrow), &mut n, &mut warnings)
            .unwrap();
        assert_eq!(exec.catalog().temp_mv_count(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("not promoted to a temp MV"),
            "{warnings:?}"
        );
    }
}
