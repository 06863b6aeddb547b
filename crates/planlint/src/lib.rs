//! Static plan verification ("planlint") for POP physical plans: the
//! deny gate in front of the executor.
//!
//! POP's correctness rests on invariants that are produced in one layer and
//! consumed in another: validity ranges computed by the optimizer's
//! sensitivity analysis (§2.2) must bracket the optimizer's own estimate,
//! CHECK operators must be placed according to the Table 1 flavor rules
//! (§3), every column an operator reads must be in what its input emits,
//! so the executor's column binding cannot miss, and re-optimized plans
//! may only reuse temporary MVs whose recorded schema matches the subplan
//! they replace (§2.3). This crate checks them *statically*, between
//! optimization and execution, so a malformed plan is rejected up front
//! instead of surfacing as a wrong answer or a panic mid-query. Every
//! finding denies.
//!
//! [`lint_plan`] walks the [`PhysNode`] tree once, pre-order, with the
//! stack of ancestors, and runs five passes at every node:
//!
//! 1. **Schema/layout** (`PL0xx`) — every column reference in filters,
//!    join keys, aggregates, projections and sort keys resolves against
//!    the columns its input emits, which the pass derives from the query
//!    ([`PhysNode::columns`]; a plan stores no layout), and operator
//!    arguments are well-formed.
//! 2. **Validity ranges** (`PL1xx`) — every [`pop_plan::CheckSpec`] and
//!    edge range is non-empty, well-formed, and brackets the estimate at
//!    that edge.
//! 3. **CHECK placement** (`PL2xx`) — the structural encoding of Table 1:
//!    LC only above materialized inputs, LCEM as a CHECK-above-TEMP pair,
//!    ECB only as BUFCHECK, ECWC only below a materialization point, ECDC
//!    only under a rid side-table sink; checkpoint ids unique.
//! 4. **Cost/cardinality sanity** (`PL3xx`) — cumulative cost is monotone
//!    up the tree; estimates are finite and non-negative.
//! 5. **MV reuse** (`PL40x`) — every MVSCAN names a registered temp MV
//!    whose recorded layout is its table set's canonical layout.
//!
//! The analyzer never mutates the plan. `pop::PopExecutor::execute_plan`
//! rejects a caller-supplied plan with any finding; debug builds hold the
//! driver's own plans to the same gate. A release `run` never calls it.
//!
//! The analyzer is independent of the executor's data-flow granularity:
//! every invariant checked here constrains the *row stream* an operator
//! produces, which is identical at any batch size. Nothing in this crate
//! may ever key off `PopConfig::batch_size`.

#![forbid(unsafe_code)]

mod cost;
mod diag;
mod layout;
mod mv;
mod placement;
mod validity;

pub use diag::{DiagCode, PlanDiagnostic};

use pop_plan::{Columns, PhysNode, QuerySpec};
use pop_stats::StatsRegistry;
use pop_storage::Catalog;
use std::fmt::Write as _;

/// What the analyzer consults besides the plan itself: the catalog (temp
/// MVs, table schemas) and the query the plan was compiled from, from
/// which it derives what every node emits.
#[derive(Debug)]
pub struct LintContext<'a> {
    catalog: &'a Catalog,
    spec: &'a QuerySpec,
    /// Column count of every query table (0 for a table the catalog does
    /// not know).
    col_counts: Vec<usize>,
}

impl<'a> LintContext<'a> {
    /// The context of a plan compiled from `spec` against `catalog`.
    pub fn full(catalog: &'a Catalog, spec: &'a QuerySpec) -> Self {
        let col_counts = (spec.tables.iter())
            .map(|t| catalog.table(&t.table).map_or(0, |tb| tb.schema().len()))
            .collect();
        LintContext {
            catalog,
            spec,
            col_counts,
        }
    }

    /// The columns `node` emits ([`PhysNode::columns`]).
    pub(crate) fn columns(&self, node: &PhysNode) -> Columns {
        node.columns(self.spec, &self.col_counts)
    }

    /// The width of `table`, if the catalog knows it.
    pub(crate) fn schema_len(&self, table: &str) -> Option<usize> {
        Some(self.catalog.table(table).ok()?.schema().len())
    }

    /// No-op, kept for the `bench_e2e` trace, which is frozen: the
    /// analyzer reads no statistics.
    pub fn with_stats(self, _stats: &'a StatsRegistry) -> Self {
        self
    }
}

/// No-op, kept for the `bench_e2e` trace, which is frozen: there is no
/// robustness certificate any more.
pub fn certify(_plan: &PhysNode, _ctx: &LintContext<'_>) {}

/// One ancestor step of the walk: the ancestor node and which child edge
/// the walk descended through.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) node: &'a PhysNode,
    pub(crate) child_idx: usize,
}

/// Everything a pass sees at one node.
pub(crate) struct NodeCx<'a, 'p> {
    /// The node under analysis.
    pub node: &'p PhysNode,
    /// Ancestor stack, outermost first.
    pub frames: &'a [Frame<'p>],
    /// Child-index path from the root.
    pub path: &'a [usize],
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
            node: node.name(),
            path: render_path(path.iter().copied()),
            message,
        });
    }
}

/// Render a child-index path from the root as `$`, `$.0`, `$.0.1`, ...:
/// the one spelling of a plan position in diagnostics.
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

/// Every finding of the five passes over `plan`, in tree pre-order
/// (duplicate checkpoint ids, a whole-plan rule, come last). Empty means
/// the plan may run.
pub fn lint_plan(plan: &PhysNode, ctx: &LintContext<'_>) -> Vec<PlanDiagnostic> {
    let mut sink = Sink { diags: Vec::new() };
    walk(plan, ctx, &mut Vec::new(), &mut Vec::new(), &mut sink);
    placement::check_unique_ids(plan, &mut sink);
    sink.diags
}

fn walk<'p>(
    node: &'p PhysNode,
    ctx: &LintContext<'_>,
    path: &mut Vec<usize>,
    frames: &mut Vec<Frame<'p>>,
    sink: &mut Sink,
) {
    let cx = NodeCx { node, frames, path };
    layout::check(&cx, ctx, sink);
    validity::check(&cx, sink);
    placement::check(&cx, sink);
    cost::check(&cx, sink);
    mv::check(&cx, ctx, sink);
    for (i, child) in node.children().into_iter().enumerate() {
        path.push(i);
        frames.push(Frame { node, child_idx: i });
        walk(child, ctx, path, frames, sink);
        frames.pop();
        path.pop();
    }
}

/// The findings rendered one after another, `; `-separated (for error
/// messages).
pub fn deny_summary(diags: &[PlanDiagnostic]) -> String {
    diags
        .iter()
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
pub(crate) mod testutil {
    //! The catalog and query the pass tests lint against, and builders for
    //! small (and deliberately broken) plans over them.

    use crate::{lint_plan, LintContext, PlanDiagnostic};
    use pop_plan::{
        CheckContext, CheckFlavor, CheckSpec, PhysNode, PlanProps, QueryBuilder, QuerySpec,
        TableSet, ValidityRange,
    };
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{ColId, DataType, Schema};

    /// `a(id INT, name STR, grp INT)` and `b(id INT, v INT)`, both empty,
    /// `b.id` hash-indexed.
    pub fn catalog() -> Catalog {
        let cat = Catalog::new();
        let a = [
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("grp", DataType::Int),
        ];
        cat.create_table("a", Schema::from_pairs(&a), vec![])
            .unwrap();
        let b = [("id", DataType::Int), ("v", DataType::Int)];
        cat.create_table("b", Schema::from_pairs(&b), vec![])
            .unwrap();
        cat.create_index("b", "id", IndexKind::Hash).unwrap();
        cat
    }

    /// `SELECT * FROM a JOIN b ON a.id = b.id`: every column of both
    /// tables is read above every node.
    pub fn select_star() -> QuerySpec {
        let mut q = QueryBuilder::new();
        let (a, b) = (q.table("a"), q.table("b"));
        q.join(a, 0, b, 0);
        q.build().unwrap()
    }

    /// The findings on `plan`, compiled from [`select_star`] against
    /// [`catalog`].
    pub fn lint(plan: &PhysNode) -> Vec<PlanDiagnostic> {
        let (cat, q) = (catalog(), select_star());
        lint_plan(plan, &LintContext::full(&cat, &q))
    }

    /// A scan of query table `qidx`.
    pub fn leaf(qidx: usize, table: &str, card: f64) -> PhysNode {
        PhysNode::TableScan {
            qidx,
            table: table.into(),
            pred: None,
            props: PlanProps::leaf(TableSet::single(qidx), card, card),
        }
    }

    /// Hash join of two subplans on `(0,0) = (1,0)`.
    pub fn hsjn(build: PhysNode, probe: PhysNode, card: f64) -> PhysNode {
        let props = PlanProps {
            tables: build.props().tables.union(probe.props().tables),
            card,
            cost: build.props().cost + probe.props().cost + card,
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

    /// A TEMP wrapper (cost bumped).
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
        let ctx = LintContext::full(&cat, &q);
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
        let ctx = LintContext::full(&cat, &q);
        let diags = lint_plan(&plan, &ctx);
        assert!(diags.is_empty(), "expected no findings, got: {diags:?}");
    }

    #[test]
    fn well_formed_handbuilt_plan_is_clean() {
        let plan = hsjn(leaf(0, "a", 100.0), leaf(1, "b", 1000.0), 500.0);
        assert!(lint(&plan).is_empty());
    }

    #[test]
    fn deny_helpers() {
        let mut bad = hsjn(leaf(0, "a", 100.0), leaf(1, "b", 1000.0), 500.0);
        bad.props_mut().card = f64::NAN;
        bad.props_mut().cost = -1.0;
        let summary = deny_summary(&lint(&bad));
        assert!(
            summary.contains("PL302") && summary.contains("; PL303"),
            "{summary}"
        );
        let good = hsjn(leaf(0, "a", 100.0), leaf(1, "b", 1000.0), 500.0);
        assert!(lint(&good).is_empty());
    }

    #[test]
    fn path_rendering() {
        assert_eq!(render_path([]), "$");
        assert_eq!(render_path([0, 1]), "$.0.1");
    }
}
