//! The dataflow engine: a bottom-up abstract interpreter over the
//! physical plan plus the driver that runs every lint pass against the
//! computed states in one pre-order walk.
//!
//! Phase 1 ([`interpret`]) computes one [`AbstractState`] per node via
//! [`domain::transfer`], bottom-up, into a table indexed by pre-order
//! position. Phase 2 ([`drive`]) walks the tree pre-order (so
//! diagnostics keep the historical parent-before-children order), hands
//! every [`Pass`] the node *and* its abstract states, then calls each
//! pass's whole-plan `finish` hook. All six structural passes and the
//! interval analyses run on this engine; there are no per-pass
//! traversals.

use crate::domain::{self, AbstractState};
use crate::{DiagCode, Frame, LintContext, Sink};
use pop_plan::PhysNode;

/// Everything a pass sees at one node.
pub(crate) struct NodeCx<'a, 'p> {
    /// The node under analysis.
    pub node: &'p PhysNode,
    /// The node's own abstract state.
    pub state: &'a AbstractState,
    /// Abstract states of the node's inputs, aligned with
    /// [`PhysNode::children`].
    pub children: &'a [&'a AbstractState],
    /// Ancestor stack, outermost first.
    pub frames: &'a [Frame<'p>],
    /// Child-index path from the root.
    pub path: &'a [usize],
}

/// One lint pass, ported onto the dataflow framework: `check` runs per
/// node against the abstract states, `finish` once per plan for
/// whole-plan rules.
pub(crate) trait Pass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink);
    fn finish(&mut self, _plan: &PhysNode, _ctx: &LintContext<'_>, _sink: &mut Sink) {}
}

/// Per-node abstract states, indexed by pre-order position.
pub(crate) struct StateTable {
    states: Vec<AbstractState>,
    /// Pre-order indexes of each node's children, aligned with `states`.
    child_idx: Vec<Vec<usize>>,
}

impl StateTable {
    pub(crate) fn state(&self, pre_order: usize) -> &AbstractState {
        &self.states[pre_order]
    }

    /// All states, in pre-order.
    pub(crate) fn states(&self) -> &[AbstractState] {
        &self.states
    }
}

/// Phase 1: abstract-interpret the plan bottom-up.
pub(crate) fn interpret(plan: &PhysNode, ctx: &LintContext<'_>) -> StateTable {
    let mut table = StateTable {
        states: Vec::with_capacity(plan.node_count()),
        child_idx: Vec::with_capacity(plan.node_count()),
    };
    let mut path = Vec::new();
    fill(plan, ctx, &mut path, &mut table);
    table
}

fn fill(
    node: &PhysNode,
    ctx: &LintContext<'_>,
    path: &mut Vec<usize>,
    table: &mut StateTable,
) -> usize {
    let my = table.states.len();
    // Reserve the pre-order slot with a placeholder, recurse, then
    // transfer from the children's states.
    table.states.push(AbstractState {
        interval: domain::CardInterval::top(),
        materialized: false,
        open_risks: Vec::new(),
    });
    table.child_idx.push(Vec::new());
    let mut kids = Vec::new();
    for (i, child) in node.children().into_iter().enumerate() {
        path.push(i);
        kids.push(fill(child, ctx, path, table));
        path.pop();
    }
    let inputs: Vec<&AbstractState> = kids.iter().map(|&k| &table.states[k]).collect();
    let st = domain::transfer(node, &inputs, ctx, path);
    table.states[my] = st;
    table.child_idx[my] = kids;
    my
}

/// Phase 2: pre-order walk handing every pass the node plus its states.
pub(crate) fn drive(
    plan: &PhysNode,
    ctx: &LintContext<'_>,
    table: &StateTable,
    passes: &mut [&mut dyn Pass],
    sink: &mut Sink,
) {
    let mut path = Vec::new();
    let mut frames = Vec::new();
    walk(plan, 0, ctx, table, passes, &mut path, &mut frames, sink);
    for pass in passes.iter_mut() {
        pass.finish(plan, ctx, sink);
    }
}

#[allow(clippy::too_many_arguments)] // internal recursion carrying walk state
fn walk<'p>(
    node: &'p PhysNode,
    pre_order: usize,
    ctx: &LintContext<'_>,
    table: &StateTable,
    passes: &mut [&mut dyn Pass],
    path: &mut Vec<usize>,
    frames: &mut Vec<Frame<'p>>,
    sink: &mut Sink,
) {
    let children: Vec<&AbstractState> = table.child_idx[pre_order]
        .iter()
        .map(|&k| table.state(k))
        .collect();
    let cx = NodeCx {
        node,
        state: table.state(pre_order),
        children: &children,
        frames,
        path,
    };
    for pass in passes.iter_mut() {
        pass.check(&cx, ctx, sink);
    }
    let kids = table.child_idx[pre_order].clone();
    for (i, (child, k)) in node.children().into_iter().zip(kids).enumerate() {
        path.push(i);
        frames.push(Frame { node, child_idx: i });
        walk(child, k, ctx, table, passes, path, frames, sink);
        frames.pop();
        path.pop();
    }
}

/// Pass 6: the interval analyses of the dataflow framework —
/// CHECK-coverage proof (`PL411`) and validity-range reachability
/// (`PL412` dead checks, `PL413` vacuous checks).
///
/// All three rules consume the cardinality intervals of [`domain`]; with
/// no stats registry in the context every interval is unknown and the
/// pass is silent. `PL411` additionally requires
/// [`crate::LintOptions::expect_check_coverage`] and a plan that has
/// checkpoints at all, mirroring `PL104`'s gating: a plan POP chose not
/// to guard (below the cost threshold, flavors off) is not a coverage
/// hole.
pub(crate) struct RiskPass {
    /// Does the plan contain any checkpoints? (Computed lazily at the
    /// root, which phase 2 visits first.)
    has_checks: Option<bool>,
}

impl RiskPass {
    pub(crate) fn new() -> Self {
        RiskPass { has_checks: None }
    }
}

impl Pass for RiskPass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink) {
        let has_checks = *self
            .has_checks
            .get_or_insert_with(|| !root_of(cx).checks().is_empty());

        // PL412/PL413: a CHECK whose trigger range cannot/must fire given
        // the reachable cardinalities of its input. An *unbounded* range
        // is exempt: a `[0, ∞)` check is a deliberate observation point
        // (its exactly-resolved count feeds the cardinality feedback
        // cache), not a misconfigured trigger.
        if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = cx.node {
            let input = cx.children[0].interval;
            if input.is_known() && !spec.range.is_unbounded() {
                if input.inside(&spec.range) {
                    sink.emit(
                        DiagCode::Pl412,
                        cx.node,
                        cx.path,
                        format!(
                            "dead CHECK #{}: reachable cardinalities {} lie inside its \
                             trigger range {} — it can never fire",
                            spec.id, input, spec.range
                        ),
                    );
                } else if input.disjoint(&spec.range) {
                    sink.emit(
                        DiagCode::Pl413,
                        cx.node,
                        cx.path,
                        format!(
                            "vacuous CHECK #{}: reachable cardinalities {} are disjoint \
                             from its trigger range {} — it always fires",
                            spec.id, input, spec.range
                        ),
                    );
                }
            }
        }

        // PL411: risky edges consumed by a pipeline breaker that offers
        // no re-optimization opportunity, with no dominating CHECK or
        // materialization point in between.
        if !ctx.options.expect_check_coverage || !has_checks {
            return;
        }
        for (i, (child, cst)) in cx
            .node
            .children()
            .into_iter()
            .zip(cx.children.iter().copied())
            .enumerate()
        {
            if !domain::consumed_unguarded(cx.node, i) {
                continue;
            }
            let mut risks = cst.open_risks.clone();
            if let Some(r) = domain::edge_risk(cx.node, i, child, cst, cx.path) {
                risks.push(r);
            }
            for r in risks {
                sink.emit(
                    DiagCode::Pl411,
                    cx.node,
                    cx.path,
                    format!(
                        "risky edge at {} ({}, cardinality can leave its validity range \
                         by {:.1}x) reaches this {} with no CHECK or materialization \
                         point in between",
                        r.path,
                        r.node,
                        r.escape,
                        cx.node.name()
                    ),
                );
            }
        }
    }
}

/// The plan root: the bottom frame's node, or the current node when the
/// walk is at the root itself.
pub(crate) fn root_of<'p>(cx: &NodeCx<'_, 'p>) -> &'p PhysNode {
    cx.frames.first().map_or(cx.node, |f| f.node)
}

/// Pass 7: the monitor-coverage proof (`PL421`), the runtime complement
/// of the CHECK-coverage proof.
///
/// The driver installs a continuous suboptimality monitor on every node
/// whose row stream no CHECK already counts, and a risky edge that reaches an unguarded pipeline
/// breaker or the plan root without a dominator is therefore still
/// *observed*: the monitor below it trips when the actual cardinality
/// escapes the interval envelope, and the signal is escalated like a
/// CHECK violation. `PL421` reports the edges where even that last line
/// fails: risks whose node cannot carry a monitor at all (no table set,
/// so no feedback signature to report under). Together, a clean
/// `PL411` and `PL421` sweep proves every risky edge is either
/// CHECK-dominated or monitor-covered.
///
/// Gated on [`crate::LintOptions::expect_monitor_coverage`]: with the
/// monitor layer disabled there is nothing to prove. Like every
/// interval rule, the pass is silent without a stats registry.
pub(crate) struct MonitorPass;

impl Pass for MonitorPass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink) {
        if !ctx.options.expect_monitor_coverage {
            return;
        }
        let report = |risks: Vec<domain::OpenRisk>, sink: &mut Sink| {
            for r in risks {
                // Covered: the node below the edge carries a monitor.
                if r.monitorable {
                    continue;
                }
                sink.emit(
                    DiagCode::Pl421,
                    cx.node,
                    cx.path,
                    format!(
                        "risky edge at {} ({}, cardinality can leave its validity range \
                         by {:.1}x) is neither CHECK-dominated nor monitor-covered — \
                         the node below it runs unmonitored",
                        r.path, r.node, r.escape
                    ),
                );
            }
        };
        // Breaker-consumed risks: same report points as `PL411` and the
        // certificate's uncovered set.
        for (i, (child, cst)) in cx
            .node
            .children()
            .into_iter()
            .zip(cx.children.iter().copied())
            .enumerate()
        {
            if !domain::consumed_unguarded(cx.node, i) {
                continue;
            }
            let mut risks = cst.open_risks.clone();
            risks.extend(domain::edge_risk(cx.node, i, child, cst, cx.path));
            report(risks, sink);
        }
        // Root-surviving risks stream to the application with no further
        // observation opportunity.
        if cx.frames.is_empty() {
            report(cx.state.open_risks.clone(), sink);
        }
    }
}
