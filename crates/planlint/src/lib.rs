//! Static plan-invariant analyzer ("planlint") for POP physical plans.
//!
//! POP's correctness rests on invariants that are produced in one layer and
//! consumed in another: validity ranges computed by the optimizer's
//! sensitivity analysis (§2.2) must bracket the optimizer's own estimate,
//! CHECK operators must be placed according to the Table 1 flavor rules
//! (§3), operator layouts must compose so the executor's column binding
//! cannot miss, and re-optimized plans may only reuse temporary MVs whose
//! recorded schema matches the subplan they replace (§2.3). This crate
//! checks all of them *statically*, between optimization and execution, so
//! a malformed plan is rejected up front instead of surfacing as a wrong
//! answer or a panic mid-query.
//!
//! The analyzer is a **dataflow framework**: a bottom-up abstract
//! interpreter ([`dataflow`]) computes, per node, a cardinality interval
//! (`[lo, hi]` bounds on the *actual* output cardinality, seeded from
//! live statistics — [`CardInterval`]) together with the
//! materialization property lattice, via a generic
//! `transfer(op, inputs) -> AbstractState` function. Every lint pass
//! runs against those states in one shared pre-order walk; there are no
//! per-pass traversals.
//!
//! Seven passes run over the [`PhysNode`] tree:
//!
//! 1. **Schema/layout** (`PL0xx`) — every column reference in filters,
//!    join keys, aggregates, projections and sort keys resolves against
//!    the child's [`LayoutCol`] layout; every node's own output layout is
//!    consistent with its children; types agree where they are knowable.
//! 2. **Validity ranges** (`PL1xx`) — every [`CheckSpec`] and edge range
//!    is non-empty, well-formed, and brackets the estimate at that edge.
//! 3. **CHECK placement** (`PL2xx`) — the structural encoding of Table 1:
//!    LC only above materialized inputs, LCEM as a CHECK-above-TEMP pair,
//!    ECB only as BUFCHECK, ECWC only below a materialization point, ECDC
//!    only under a rid side-table sink; checkpoint ids unique.
//! 4. **Cost/cardinality sanity** (`PL3xx`) — cumulative cost is monotone
//!    up the tree; estimates are finite and non-negative.
//! 5. **MV reuse** (`PL4xx`) — every MVSCAN names a registered temp MV
//!    whose recorded layout matches the scan's output layout.
//! 6. **Interval analyses** (`PL41x`) — the CHECK-coverage proof (a
//!    risky edge must meet a CHECK or materialization point before the
//!    next pipeline breaker, else `PL411`) and validity-range
//!    reachability (`PL412` dead checks that can never fire, `PL413`
//!    vacuous checks that always fire). These require a
//!    [`pop_stats::StatsRegistry`] in the context; without one the
//!    intervals are unknown and the pass is silent.
//! 7. **Monitor coverage** (`PL42x`) — the runtime complement of the
//!    CHECK-coverage proof: every risky edge must be either
//!    CHECK-dominated or observed by a continuous suboptimality monitor
//!    (`PL421` when neither holds). Gated on
//!    `LintOptions::expect_monitor_coverage`.
//!
//! [`certify`] distils the same interpretation into a per-plan
//! [`RobustnessCertificate`] — guarded edges, uncovered residual risk,
//! worst-case re-optimization depth — that the driver attaches to its
//! run report.
//!
//! The analyzer is advisory: it returns a flat [`Vec<PlanDiagnostic>`]
//! and never mutates the plan. The POP driver decides what to do with
//! `Deny` findings (see `pop::LintMode`).
//!
//! The analyzer is independent of the executor's data-flow granularity:
//! the runtime moves rows in batches (`pop_exec::RowBatch`, selection
//! vectors and all), but batch boundaries carry no plan-level semantics —
//! every invariant checked here constrains the *row stream* an operator
//! produces, which is identical at any batch size. Nothing in this crate
//! may ever key off `PopConfig::batch_size`.

#![forbid(unsafe_code)]

mod certificate;
mod cost;
mod dataflow;
mod diag;
mod domain;
mod layout;
mod mv;
mod placement;
mod validity;

pub use certificate::{certify, RobustnessCertificate};
pub use diag::{DiagCode, PlanDiagnostic, Severity};
pub use domain::CardInterval;

use pop_guard::CleanupRegistry;
use pop_plan::{PhysNode, QuerySpec};
use pop_stats::StatsRegistry;
use pop_storage::Catalog;

/// Default [`LintOptions::risk_threshold`]: report an edge as risky as
/// soon as its cardinality can leave the validity range at all.
pub const DEFAULT_RISK_THRESHOLD: f64 = 1.0;

/// Tunable behaviour of the analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LintOptions {
    /// Expect every materialization point (SORT/TEMP) to be guarded by a
    /// checkpoint (`PL104`), and every risky edge to be dominated by a
    /// CHECK or materialization point before the next pipeline breaker
    /// (`PL411`). Only meaningful when POP placed checkpoints at all, so
    /// the rules stay quiet on plans with no checks (e.g. below the cost
    /// threshold). The driver enables this when the LC flavor is on.
    pub expect_check_coverage: bool,
    /// How far a cardinality interval must escape an edge's validity
    /// range (max of `interval.hi / range.hi` and `range.lo /
    /// interval.lo`) before the edge counts as *risky* for `PL411` and
    /// the robustness certificate. `1.0` means any provable escape;
    /// larger values tolerate proportionally wider excursions.
    pub risk_threshold: f64,
    /// Expect every risky edge to be either CHECK-dominated or observed
    /// by a continuous suboptimality monitor (`PL421`). The driver
    /// enables this when the monitor layer is on.
    pub expect_monitor_coverage: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            expect_check_coverage: false,
            risk_threshold: DEFAULT_RISK_THRESHOLD,
            expect_monitor_coverage: false,
        }
    }
}

/// What the analyzer may consult besides the plan itself. Both references
/// are optional: without a catalog the MV pass and type checks are
/// skipped; without a query spec only layout-internal checks run.
#[derive(Clone, Copy)]
pub struct LintContext<'a> {
    /// Catalog, for temp-MV lookups, inner-table schemas and column types.
    pub catalog: Option<&'a Catalog>,
    /// The query spec the plan was compiled from, for type resolution.
    pub spec: Option<&'a QuerySpec>,
    /// Per-query cleanup registry: which side tables (ECDC rid side
    /// tables) have cleanup registered. When supplied, every ECDC
    /// checkpoint's side table must be covered (`PL208`); `None` skips
    /// the rule (external analysis without a running query).
    pub cleanups: Option<&'a CleanupRegistry>,
    /// Live table statistics, seeding the leaf cardinality intervals of
    /// the abstract interpreter. Without them every interval is unknown
    /// (`[0, inf)`) and the interval analyses (`PL41x`) stay silent.
    pub stats: Option<&'a StatsRegistry>,
    /// Options.
    pub options: LintOptions,
}

impl std::fmt::Debug for LintContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LintContext")
            .field("catalog", &self.catalog.is_some())
            .field("spec", &self.spec.is_some())
            .field("cleanups", &self.cleanups.is_some())
            .field("stats", &self.stats.is_some())
            .field("options", &self.options)
            .finish()
    }
}

impl<'a> LintContext<'a> {
    /// Context with no external information: structural checks only.
    pub fn bare() -> Self {
        LintContext {
            catalog: None,
            spec: None,
            cleanups: None,
            stats: None,
            options: LintOptions::default(),
        }
    }

    /// Full context: catalog and query spec available.
    pub fn full(catalog: &'a Catalog, spec: &'a QuerySpec) -> Self {
        LintContext {
            catalog: Some(catalog),
            spec: Some(spec),
            cleanups: None,
            stats: None,
            options: LintOptions::default(),
        }
    }

    /// Set [`LintOptions::expect_check_coverage`].
    pub fn expect_check_coverage(mut self, on: bool) -> Self {
        self.options.expect_check_coverage = on;
        self
    }

    /// Set [`LintOptions::expect_monitor_coverage`].
    pub fn expect_monitor_coverage(mut self, on: bool) -> Self {
        self.options.expect_monitor_coverage = on;
        self
    }

    /// Supply live table statistics, seeding the leaf intervals of the
    /// abstract interpreter and enabling the `PL41x` analyses.
    pub fn with_stats(mut self, stats: &'a StatsRegistry) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Set [`LintOptions::risk_threshold`]. Non-finite or sub-1.0 values
    /// are clamped to the default.
    pub fn risk_threshold(mut self, threshold: f64) -> Self {
        self.options.risk_threshold = if threshold.is_finite() && threshold >= 1.0 {
            threshold
        } else {
            DEFAULT_RISK_THRESHOLD
        };
        self
    }

    /// Supply the per-query [`CleanupRegistry`], enabling the `PL208`
    /// rule: every ECDC checkpoint's rid side table must have its
    /// cleanup registered before the plan may execute.
    pub fn with_cleanups(mut self, cleanups: &'a CleanupRegistry) -> Self {
        self.cleanups = Some(cleanups);
        self
    }
}

/// One ancestor step of the walk: the ancestor node and which child edge
/// the walk descended through.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) node: &'a PhysNode,
    pub(crate) child_idx: usize,
}

/// Collects diagnostics during the walk.
pub(crate) struct Sink {
    diags: Vec<PlanDiagnostic>,
}

impl Sink {
    pub(crate) fn emit(
        &mut self,
        code: DiagCode,
        node: &PhysNode,
        path: &[usize],
        message: String,
    ) {
        self.diags.push(PlanDiagnostic {
            code,
            severity: code.severity(),
            node: node.name(),
            path: render_path(path),
            message,
        });
    }
}

/// Render a child-index path as `$`, `$.0`, `$.0.1`, ...
fn render_path(path: &[usize]) -> String {
    let mut s = String::from("$");
    for i in path {
        s.push('.');
        s.push_str(&i.to_string());
    }
    s
}

/// Look through CHECK/BUFCHECK wrappers to the node they guard.
pub(crate) fn through_checks(mut node: &PhysNode) -> &PhysNode {
    while let PhysNode::Check { input, .. } | PhysNode::BufCheck { input, .. } = node {
        node = input;
    }
    node
}

/// Run all seven passes over `plan` and return every finding, in tree
/// pre-order (whole-plan rules like duplicate-id detection come last).
///
/// Phase 1 abstract-interprets the plan bottom-up ([`dataflow`]); phase 2
/// walks the tree pre-order handing every pass the node together with its
/// computed [`dataflow`] states.
pub fn lint_plan(plan: &PhysNode, ctx: &LintContext<'_>) -> Vec<PlanDiagnostic> {
    let mut sink = Sink { diags: Vec::new() };
    let states = dataflow::interpret(plan, ctx);
    let mut layout = layout::LayoutPass;
    let mut validity = validity::ValidityPass;
    let mut placement = placement::PlacementPass::new();
    let mut cost = cost::CostPass;
    let mut mv = mv::MvPass;
    let mut risk = dataflow::RiskPass::new();
    let mut monitor = dataflow::MonitorPass;
    let mut passes: [&mut dyn dataflow::Pass; 7] = [
        &mut layout,
        &mut validity,
        &mut placement,
        &mut cost,
        &mut mv,
        &mut risk,
        &mut monitor,
    ];
    dataflow::drive(plan, ctx, &states, &mut passes, &mut sink);
    sink.diags
}

/// The abstract interpretation itself, exposed for cross-validation: the
/// path, optimizer estimate and computed cardinality interval of every
/// node, in pre-order.
pub fn plan_intervals(plan: &PhysNode, ctx: &LintContext<'_>) -> Vec<(String, f64, CardInterval)> {
    let states = dataflow::interpret(plan, ctx);
    let mut meta: Vec<(String, f64)> = Vec::new();
    let mut path = Vec::new();
    collect_meta(plan, &mut path, &mut meta);
    meta.into_iter()
        .zip(states.states())
        .map(|((p, est), st)| (p, est, st.interval))
        .collect()
}

fn collect_meta(node: &PhysNode, path: &mut Vec<usize>, out: &mut Vec<(String, f64)>) {
    out.push((render_path(path), node.props().card));
    for (i, child) in node.children().into_iter().enumerate() {
        path.push(i);
        collect_meta(child, path, out);
        path.pop();
    }
}

/// True iff any finding is `Deny`-severity.
pub fn has_deny(diags: &[PlanDiagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

/// The `Deny`-severity findings, rendered one per line (for error
/// messages).
pub fn deny_summary(diags: &[PlanDiagnostic]) -> String {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Builders for small (and deliberately broken) plans used across the
    //! pass tests.

    use pop_plan::{
        CheckContext, CheckFlavor, CheckSpec, LayoutCol, PhysNode, PlanProps, TableSet,
        ValidityRange,
    };
    use pop_types::ColId;

    /// A scan of query table `qidx` with `ncols` columns.
    pub fn leaf(qidx: usize, table: &str, ncols: usize, card: f64) -> PhysNode {
        PhysNode::TableScan {
            qidx,
            table: table.into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(qidx),
                card,
                card,
                (0..ncols)
                    .map(|c| LayoutCol::Base(ColId::new(qidx, c)))
                    .collect(),
            ),
        }
    }

    /// Hash join of two subplans on `(0,0) = (1,0)` with a correctly
    /// composed layout.
    pub fn hsjn(build: PhysNode, probe: PhysNode, card: f64) -> PhysNode {
        let props = PlanProps {
            tables: build.props().tables.union(probe.props().tables),
            card,
            cost: build.props().cost + probe.props().cost + card,
            layout: build
                .props()
                .layout
                .iter()
                .chain(probe.props().layout.iter())
                .copied()
                .collect(),
            sorted_by: None,
            edge_ranges: vec![ValidityRange::unbounded(), ValidityRange::unbounded()],
        };
        PhysNode::Hsjn {
            build: Box::new(build),
            probe: Box::new(probe),
            build_keys: vec![ColId::new(0, 0)],
            probe_keys: vec![ColId::new(1, 0)],
            props,
        }
    }

    /// A TEMP wrapper (pass-through layout, cost bumped).
    pub fn temp(input: PhysNode) -> PhysNode {
        let mut props = input.props().clone();
        props.cost += props.card;
        props.edge_ranges = vec![ValidityRange::unbounded()];
        PhysNode::Temp {
            input: Box::new(input),
            props,
        }
    }

    /// A CHECK wrapper with the given flavor/context and a range
    /// bracketing the input's estimate.
    pub fn check(input: PhysNode, flavor: CheckFlavor, context: CheckContext) -> PhysNode {
        let est = input.props().card;
        check_with_range(
            input,
            flavor,
            context,
            ValidityRange::new(0.0, est * 10.0 + 10.0),
        )
    }

    /// A CHECK wrapper with an explicit range.
    pub fn check_with_range(
        input: PhysNode,
        flavor: CheckFlavor,
        context: CheckContext,
        range: ValidityRange,
    ) -> PhysNode {
        let mut props = input.props().clone();
        props.cost += props.card;
        props.edge_ranges = vec![range];
        PhysNode::Check {
            spec: CheckSpec {
                id: 0,
                flavor,
                range,
                est_card: input.props().card,
                signature: "sig".into(),
                context,
            },
            input: Box::new(input),
            props,
        }
    }

    /// Diagnostics of a given code within a finding list.
    pub fn codes(diags: &[crate::PlanDiagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use pop_expr::{Expr, Params};
    use pop_optimizer::{
        optimize, FeedbackCache, FlavorSet, Memo, OptimizerConfig, OptimizerContext,
    };
    use pop_plan::{CostModel, QueryBuilder};
    use pop_stats::StatsRegistry;
    use pop_storage::IndexKind;
    use pop_types::{DataType, Schema, Value};

    fn setup() -> (Catalog, StatsRegistry) {
        let cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
            (0..200)
                .map(|i| vec![Value::Int(i), Value::Int(i % 20)])
                .collect(),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..20_000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 200)])
                .collect(),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn optimize_with(flavors: FlavorSet) -> (Catalog, pop_plan::QuerySpec, PhysNode) {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig {
            flavors,
            ..OptimizerConfig::default()
        };
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        let q = b.build().unwrap();
        let params = Params::none();
        let plan = {
            let octx = OptimizerContext::new(&cat, &stats, &cfg, &cost, Some(&params), &fb);
            optimize(&q, &octx, &mut Memo::new()).unwrap().0
        };
        (cat, q, plan)
    }

    #[test]
    fn real_plan_lints_clean() {
        let (cat, q, plan) = optimize_with(FlavorSet::default());
        let ctx = LintContext::full(&cat, &q).expect_check_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert!(diags.is_empty(), "expected no findings, got: {diags:?}");
    }

    #[test]
    fn real_plan_lints_clean_with_all_flavors() {
        let (cat, q, plan) = optimize_with(FlavorSet {
            lc: true,
            lcem: true,
            ecb: true,
            ecwc: true,
            ecdc: true,
        });
        let ctx = LintContext::full(&cat, &q).expect_check_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert!(diags.is_empty(), "expected no findings, got: {diags:?}");
    }

    #[test]
    fn well_formed_handbuilt_plan_is_clean() {
        let plan = hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 500.0);
        assert!(lint_plan(&plan, &LintContext::bare()).is_empty());
    }

    #[test]
    fn deny_helpers() {
        let mut bad = hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 500.0);
        bad.props_mut().card = f64::NAN;
        let diags = lint_plan(&bad, &LintContext::bare());
        assert!(has_deny(&diags));
        assert!(deny_summary(&diags).contains("PL302"));
        let good = hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 500.0);
        assert!(!has_deny(&lint_plan(&good, &LintContext::bare())));
    }

    #[test]
    fn path_rendering() {
        assert_eq!(render_path(&[]), "$");
        assert_eq!(render_path(&[0, 1]), "$.0.1");
    }

    // ---- PL421: monitor-coverage proof ------------------------------

    use pop_plan::{TableSet, ValidityRange};

    /// `customer ⋈ orders` where the optimizer lies small about one side:
    /// the edge's validity range brackets the (bad) estimate, but the
    /// stats-seeded interval proves the actual cardinality escapes it.
    /// `risky_build` puts the lie on the hash-join build side (consumed
    /// unguarded at the breaker), otherwise on the probe side (the risk
    /// survives to the root).
    fn risky_hsjn(risky_build: bool) -> PhysNode {
        let (build_est, probe_est) = if risky_build {
            (5.0, 20_000.0)
        } else {
            (200.0, 5.0)
        };
        let build = leaf(0, "customer", 2, build_est);
        let probe = leaf(1, "orders", 2, probe_est);
        let mut join = hsjn(build, probe, 20_000.0);
        join.props_mut().edge_ranges = if risky_build {
            vec![ValidityRange::new(0.0, 10.0), ValidityRange::unbounded()]
        } else {
            vec![ValidityRange::unbounded(), ValidityRange::new(0.0, 10.0)]
        };
        join
    }

    #[test]
    fn pl421_serial_risky_edges_are_monitor_covered() {
        let (_, stats) = setup();
        for risky_build in [true, false] {
            let plan = risky_hsjn(risky_build);
            let ctx = LintContext::bare()
                .with_stats(&stats)
                .expect_monitor_coverage(true);
            let diags = lint_plan(&plan, &ctx);
            assert!(diags.is_empty(), "risky_build={risky_build}: {diags:?}");
            // Without the option the pass is silent.
            let off = LintContext::bare().with_stats(&stats);
            assert!(lint_plan(&plan, &off).is_empty());
            // Without stats nothing is provable.
            let blind = LintContext::bare().expect_monitor_coverage(true);
            assert!(lint_plan(&plan, &blind).is_empty());
        }
    }

    #[test]
    fn pl421_reports_edge_with_no_feedback_signature() {
        let (_, stats) = setup();
        // A build side with an empty table set has no feedback signature,
        // so the driver cannot install a monitor on it: the risky edge is
        // neither CHECK-dominated nor monitor-covered.
        let mut plan = risky_hsjn(true);
        let PhysNode::Hsjn { build, .. } = &mut plan else {
            unreachable!()
        };
        build.props_mut().tables = TableSet::EMPTY;
        let ctx = LintContext::bare()
            .with_stats(&stats)
            .expect_monitor_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert_eq!(codes(&diags), vec!["PL421"], "{diags:?}");
        assert!(diags[0].message.contains("monitor"), "{}", diags[0].message);
    }

    #[test]
    fn pl421_checked_build_edge_is_dominated() {
        let (_, stats) = setup();
        // The build side feeds through TEMP+CHECK: the checkpoint
        // observes the cardinality, so the edge is CHECK-dominated and
        // needs no monitor.
        let build = check_with_range(
            temp(leaf(0, "customer", 2, 5.0)),
            pop_plan::CheckFlavor::Lc,
            pop_plan::CheckContext::AboveTemp,
            ValidityRange::unbounded(),
        );
        let probe = leaf(1, "orders", 2, 20_000.0);
        let mut plan = hsjn(build, probe, 20_000.0);
        plan.props_mut().edge_ranges =
            vec![ValidityRange::new(0.0, 10.0), ValidityRange::unbounded()];
        let ctx = LintContext::bare()
            .with_stats(&stats)
            .expect_monitor_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
