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
//! `transfer(op, inputs) -> AbstractState` function. Every pass runs
//! against those states in one shared pre-order walk; there are no
//! per-pass traversals.
//!
//! Six passes run over the [`PhysNode`] tree:
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
//! 6. **Coverage** (`PL41x`) — the interval analyses: the
//!    CHECK-coverage proof (a risky edge must meet a CHECK or
//!    materialization point before the next pipeline breaker, else
//!    `PL411`) and validity-range reachability (`PL412` dead checks that can never
//!    fire, `PL413` vacuous checks that always fire). These require a
//!    [`pop_stats::StatsRegistry`] in the context; without one the
//!    intervals are unknown and the pass is silent.
//!
//! The coverage pass also builds the per-plan [`RobustnessCertificate`] —
//! guarded edges, uncovered residual risk, dead and vacuous checks,
//! worst-case re-optimization depth — from the very decisions behind its
//! findings, so the certificate and the lint cannot disagree.
//!
//! [`analyze`] is the entry point: one interpretation, one walk, and all
//! three outputs — findings, certificate and the per-node cardinality
//! intervals. [`lint_plan`] and
//! [`certify`] are projections of it that run only the passes they
//! return.
//!
//! The analyzer is advisory: it returns a flat [`Vec<PlanDiagnostic>`]
//! and never mutates the plan. `pop::PopExecutor::execute_plan` rejects
//! a caller-supplied plan with a `Deny` finding; debug builds hold the
//! driver's own plans to the same gate.
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

pub use certificate::RobustnessCertificate;
pub use diag::{DiagCode, PlanDiagnostic, Severity};
pub use domain::CardInterval;

use pop_plan::{PhysNode, QuerySpec};
use pop_stats::StatsRegistry;
use pop_storage::Catalog;
use std::fmt::Write as _;

/// How far a cardinality interval must escape an edge's validity range
/// (max of `interval.hi / range.hi` and `range.lo / interval.lo`) before
/// the edge counts as *risky* for `PL411` and the robustness certificate:
/// `1.0` reports any provable escape.
pub const RISK_THRESHOLD: f64 = 1.0;

/// Tunable behaviour of the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LintOptions {
    /// Expect every materialization point (SORT/TEMP) to be guarded by a
    /// checkpoint (`PL104`), and every risky edge to be dominated by a
    /// CHECK or materialization point before the next pipeline breaker
    /// (`PL411`). Only meaningful when POP placed checkpoints at all, so
    /// the rules stay quiet on plans with no checks (e.g. below the cost
    /// threshold). The driver enables this when the LC flavor is on.
    pub expect_check_coverage: bool,
}

/// What the analyzer may consult besides the plan itself. Every reference
/// is optional: without a catalog the MV pass and type checks are
/// skipped; without a query spec only layout-internal checks run.
#[derive(Clone, Copy)]
pub struct LintContext<'a> {
    /// Catalog, for temp-MV lookups, inner-table schemas and column types.
    pub catalog: Option<&'a Catalog>,
    /// The query spec the plan was compiled from, for type resolution.
    pub spec: Option<&'a QuerySpec>,
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
            stats: None,
            options: LintOptions::default(),
        }
    }

    /// Full context: catalog and query spec available.
    pub fn full(catalog: &'a Catalog, spec: &'a QuerySpec) -> Self {
        LintContext {
            catalog: Some(catalog),
            spec: Some(spec),
            stats: None,
            options: LintOptions::default(),
        }
    }

    /// Set [`LintOptions::expect_check_coverage`].
    pub fn expect_check_coverage(mut self, on: bool) -> Self {
        self.options.expect_check_coverage = on;
        self
    }

    /// Supply live table statistics, seeding the leaf intervals of the
    /// abstract interpreter and enabling the `PL41x` analyses.
    pub fn with_stats(mut self, stats: &'a StatsRegistry) -> Self {
        self.stats = Some(stats);
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
            path: render_path(path.iter().copied()),
            message,
        });
    }
}

/// Render a child-index path from the root as `$`, `$.0`, `$.0.1`, ...:
/// the one spelling of a plan position in diagnostics and certificates.
pub fn render_path(path: impl IntoIterator<Item = usize>) -> String {
    let mut s = String::from("$");
    for i in path {
        let _ = write!(s, ".{i}");
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

/// Everything the analyzer knows about one plan, from one interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// Every finding, in tree pre-order (whole-plan rules like
    /// duplicate-id detection come last).
    pub diagnostics: Vec<PlanDiagnostic>,
    /// What the analysis proves about the plan's safety net.
    pub certificate: RobustnessCertificate,
    /// Every node's cardinality interval, in pre-order
    /// ([`PhysNode::visit`] order).
    pub intervals: Vec<CardInterval>,
}

/// Analyze `plan`: all six passes and the robustness certificate.
///
/// Phase 1 abstract-interprets the plan bottom-up ([`dataflow`]); phase 2
/// walks the tree pre-order handing every pass the node together with its
/// computed [`dataflow`] states.
pub fn analyze(plan: &PhysNode, ctx: &LintContext<'_>) -> PlanAnalysis {
    let states = dataflow::interpret(plan, ctx);
    let (diagnostics, certificate) = run_passes(plan, ctx, &states, true);
    PlanAnalysis {
        diagnostics,
        certificate,
        intervals: states.intervals(),
    }
}

/// The findings of [`analyze`] alone.
pub fn lint_plan(plan: &PhysNode, ctx: &LintContext<'_>) -> Vec<PlanDiagnostic> {
    let states = dataflow::interpret(plan, ctx);
    run_passes(plan, ctx, &states, true).0
}

/// The certificate of [`analyze`] alone: the coverage pass, silent.
pub fn certify(plan: &PhysNode, ctx: &LintContext<'_>) -> RobustnessCertificate {
    let states = dataflow::interpret(plan, ctx);
    run_passes(plan, ctx, &states, false).1
}

/// Phase 2 over `states`: every pass when `lint`, else the coverage pass
/// alone, reporting nothing.
fn run_passes(
    plan: &PhysNode,
    ctx: &LintContext<'_>,
    states: &dataflow::StateTable,
    lint: bool,
) -> (Vec<PlanDiagnostic>, RobustnessCertificate) {
    let mut sink = Sink { diags: Vec::new() };
    let mut coverage = dataflow::CoveragePass::new(lint);
    if lint {
        let mut passes: [&mut dyn dataflow::Pass; 6] = [
            &mut layout::LayoutPass,
            &mut validity::ValidityPass,
            &mut placement::PlacementPass,
            &mut cost::CostPass,
            &mut mv::MvPass,
            &mut coverage,
        ];
        dataflow::drive(plan, ctx, states, &mut passes, &mut sink);
    } else {
        dataflow::drive(plan, ctx, states, &mut [&mut coverage], &mut sink);
    }
    (sink.diags, coverage.certificate())
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
            (0..200).map(|i| vec![Value::Int(i), Value::Int(i % 20)]),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..20_000).map(|i| vec![Value::Int(i), Value::Int(i % 200)]),
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
        assert_eq!(render_path([]), "$");
        assert_eq!(render_path([0, 1]), "$.0.1");
    }

    // ---- PL411: CHECK-coverage proof --------------------------------

    use pop_plan::{CheckContext, CheckFlavor, ValidityRange};

    /// `customer ⋈ orders` where the optimizer lies small about the
    /// hash-join build side: the edge's validity range brackets the (bad)
    /// estimate, but the stats-seeded interval proves the actual
    /// cardinality escapes it, and the breaker consumes the risk.
    /// `probe_check` puts an always-passing CHECK on the probe side, so
    /// the plan is one POP chose to guard.
    fn risky_build_hsjn(probe_check: bool) -> PhysNode {
        let build = leaf(0, "customer", 2, 5.0);
        let mut probe = leaf(1, "orders", 2, 20_000.0);
        if probe_check {
            probe = check_with_range(
                temp(probe),
                CheckFlavor::Lc,
                CheckContext::AboveTemp,
                ValidityRange::unbounded(),
            );
        }
        let mut join = hsjn(build, probe, 20_000.0);
        join.props_mut().edge_ranges =
            vec![ValidityRange::new(0.0, 10.0), ValidityRange::unbounded()];
        join
    }

    #[test]
    fn pl411_reports_an_unguarded_risky_build_edge() {
        let (_, stats) = setup();
        let plan = risky_build_hsjn(true);
        let ctx = LintContext::bare()
            .with_stats(&stats)
            .expect_check_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert_eq!(codes(&diags), vec!["PL411"], "{diags:?}");
        assert_eq!(diags[0].path, "$", "{diags:?}");
        // Without the option the pass is silent.
        let off = LintContext::bare().with_stats(&stats);
        assert!(lint_plan(&plan, &off).is_empty());
        // Without stats nothing is provable.
        let blind = LintContext::bare().expect_check_coverage(true);
        assert!(lint_plan(&plan, &blind).is_empty());
    }

    #[test]
    fn pl411_is_quiet_on_a_plan_without_checks() {
        let (_, stats) = setup();
        // POP placed no checkpoint (below the cost threshold, flavors
        // off): an unguarded plan is not a coverage hole.
        let plan = risky_build_hsjn(false);
        let ctx = LintContext::bare()
            .with_stats(&stats)
            .expect_check_coverage(true);
        assert!(lint_plan(&plan, &ctx).is_empty());
        // The certificate still records the residual risk.
        assert_eq!(certify(&plan, &ctx).uncovered.len(), 1);
    }

    #[test]
    fn pl411_checked_build_edge_is_dominated() {
        let (_, stats) = setup();
        // The build side feeds through TEMP+CHECK: the checkpoint
        // observes the cardinality, so the edge is CHECK-dominated.
        let build = check_with_range(
            temp(leaf(0, "customer", 2, 5.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
            ValidityRange::unbounded(),
        );
        let probe = leaf(1, "orders", 2, 20_000.0);
        let mut plan = hsjn(build, probe, 20_000.0);
        plan.props_mut().edge_ranges =
            vec![ValidityRange::new(0.0, 10.0), ValidityRange::unbounded()];
        let ctx = LintContext::bare()
            .with_stats(&stats)
            .expect_check_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
