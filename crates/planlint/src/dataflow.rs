//! The dataflow engine: a bottom-up abstract interpreter over the
//! physical plan plus the driver that runs every lint pass against the
//! computed states in one pre-order walk.
//!
//! Phase 1 ([`interpret`]) computes one [`AbstractState`] per node via
//! [`domain::transfer`], bottom-up, into a table indexed by pre-order
//! position. It is the only tree walk that calls the transfer function.
//! Phase 2 ([`drive`]) walks the tree pre-order (so diagnostics keep the
//! historical parent-before-children order), hands every [`Pass`] the
//! node *and* its abstract states, then calls each pass's whole-plan
//! `finish` hook. The five structural passes, the coverage pass and the
//! robustness certificate all run on this engine; there are no per-pass
//! traversals.

use crate::certificate::{RobustnessCertificate, Tally};
use crate::domain::{self, AbstractState, CardInterval, OpenRisk};
use crate::{DiagCode, Frame, LintContext, Sink};
use pop_plan::{CheckSpec, PhysNode};
use std::borrow::Cow;

/// Everything a pass sees at one node.
pub(crate) struct NodeCx<'a, 'p> {
    /// The node under analysis.
    pub node: &'p PhysNode,
    /// The node's own abstract state.
    pub state: &'a AbstractState,
    /// Ancestor stack, outermost first.
    pub frames: &'a [Frame<'p>],
    /// Child-index path from the root.
    pub path: &'a [usize],
    /// The node's position in a post-order (children-first) walk.
    pub post_order: usize,
    /// Does the plan contain any checkpoint at all?
    pub plan_has_checks: bool,
    /// Pre-order indexes of the node's inputs, aligned with
    /// [`PhysNode::children`].
    kids: &'a [usize],
    table: &'a StateTable<'p>,
}

impl<'a, 'p> NodeCx<'a, 'p> {
    /// The node's inputs and their abstract states, aligned with
    /// [`PhysNode::children`].
    pub fn inputs(&self) -> impl Iterator<Item = (&'p PhysNode, &'a AbstractState)> + '_ {
        self.kids
            .iter()
            .map(|&k| (self.table.nodes[k], &self.table.states[k]))
    }

    /// Input `i`'s abstract state.
    pub fn input_state(&self, i: usize) -> &'a AbstractState {
        &self.table.states[self.kids[i]]
    }
}

/// One lint pass, ported onto the dataflow framework: `check` runs per
/// node against the abstract states, `finish` once per plan for
/// whole-plan rules.
pub(crate) trait Pass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink);
    fn finish(&mut self, _plan: &PhysNode, _ctx: &LintContext<'_>, _sink: &mut Sink) {}
}

/// Per-node abstract states, indexed by pre-order position.
pub(crate) struct StateTable<'p> {
    /// The plan's nodes, in pre-order.
    nodes: Vec<&'p PhysNode>,
    states: Vec<AbstractState>,
    /// Pre-order indexes of each node's children, aligned with `states`.
    child_idx: Vec<Vec<usize>>,
    /// CHECK / BUFCHECK nodes in the plan.
    checks: usize,
}

impl StateTable<'_> {
    /// Every node's cardinality interval, in pre-order.
    pub(crate) fn intervals(&self) -> Vec<CardInterval> {
        self.states.iter().map(|s| s.interval).collect()
    }

    /// Pre-order index of the last node in the subtree rooted at
    /// `pre_order`: its rightmost descendant.
    fn subtree_end(&self, mut pre_order: usize) -> usize {
        while let Some(&last) = self.child_idx[pre_order].last() {
            pre_order = last;
        }
        pre_order
    }
}

/// Phase 1: abstract-interpret the plan bottom-up.
pub(crate) fn interpret<'p>(plan: &'p PhysNode, ctx: &LintContext<'_>) -> StateTable<'p> {
    let n = plan.node_count();
    let mut table = StateTable {
        nodes: Vec::with_capacity(n),
        states: Vec::with_capacity(n),
        child_idx: Vec::with_capacity(n),
        checks: 0,
    };
    let mut path = Vec::new();
    fill(plan, ctx, &mut path, &mut table);
    table
}

fn fill<'p>(
    node: &'p PhysNode,
    ctx: &LintContext<'_>,
    path: &mut Vec<usize>,
    table: &mut StateTable<'p>,
) -> usize {
    let my = table.states.len();
    // Reserve the pre-order slot with a placeholder, recurse, then
    // transfer from the children's states.
    table.nodes.push(node);
    table.states.push(AbstractState {
        interval: CardInterval::top(),
        materialized: false,
        open_risks: Vec::new(),
    });
    table.child_idx.push(Vec::new());
    table.checks += usize::from(is_check(node));
    let children = node.children();
    let mut kids = Vec::with_capacity(children.len());
    for (i, child) in children.iter().enumerate() {
        path.push(i);
        kids.push(fill(child, ctx, path, table));
        path.pop();
    }
    let inputs: Vec<&AbstractState> = kids.iter().map(|&k| &table.states[k]).collect();
    let st = domain::transfer(node, &children, &inputs, ctx, path);
    table.states[my] = st;
    table.child_idx[my] = kids;
    my
}

/// Phase 2: pre-order walk handing every pass the node plus its states.
pub(crate) fn drive(
    plan: &PhysNode,
    ctx: &LintContext<'_>,
    table: &StateTable<'_>,
    passes: &mut [&mut dyn Pass],
    sink: &mut Sink,
) {
    let mut path = Vec::new();
    let mut frames = Vec::new();
    walk(0, ctx, table, passes, &mut path, &mut frames, sink);
    for pass in passes.iter_mut() {
        pass.finish(plan, ctx, sink);
    }
}

fn walk<'p>(
    pre_order: usize,
    ctx: &LintContext<'_>,
    table: &StateTable<'p>,
    passes: &mut [&mut dyn Pass],
    path: &mut Vec<usize>,
    frames: &mut Vec<Frame<'p>>,
    sink: &mut Sink,
) {
    let node = table.nodes[pre_order];
    let kids = &table.child_idx[pre_order];
    let cx = NodeCx {
        node,
        state: &table.states[pre_order],
        frames,
        path,
        // Everything before the node in pre-order except its ancestors,
        // plus its own descendants, comes before it in post-order.
        post_order: table.subtree_end(pre_order) - frames.len(),
        plan_has_checks: table.checks > 0,
        kids,
        table,
    };
    for pass in passes.iter_mut() {
        pass.check(&cx, ctx, sink);
    }
    for (i, &k) in kids.iter().enumerate() {
        path.push(i);
        frames.push(Frame { node, child_idx: i });
        walk(k, ctx, table, passes, path, frames, sink);
        frames.pop();
        path.pop();
    }
}

fn is_check(node: &PhysNode) -> bool {
    matches!(node, PhysNode::Check { .. } | PhysNode::BufCheck { .. })
}

/// What the reachable input cardinalities say about a CHECK's trigger
/// range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Reach {
    /// Every reachable cardinality lies inside the range: it never fires.
    Dead,
    /// No reachable cardinality lies inside the range: it always fires.
    Vacuous,
}

/// Decide a CHECK's reachability from its input's interval. An unknown
/// interval decides nothing, and an *unbounded* range is exempt: a
/// `[0, ∞)` check is a deliberate observation point (its exactly-resolved
/// count feeds the cardinality feedback cache), not a misconfigured
/// trigger.
fn reach(spec: &CheckSpec, input: CardInterval) -> Option<Reach> {
    if !input.is_known() || spec.range.is_unbounded() {
        None
    } else if input.inside(&spec.range) {
        Some(Reach::Dead)
    } else if input.disjoint(&spec.range) {
        Some(Reach::Vacuous)
    } else {
        None
    }
}

/// Pass 6: the coverage pass — every rule over the interval states
/// (`PL411`–`PL413`) and the [`RobustnessCertificate`], from one
/// decision per node.
///
/// * **Check reachability**, once per CHECK: `PL412` dead checks that can
///   never fire, `PL413` vacuous checks that always fire, and the
///   certificate's `dead_checks` / `vacuous_checks`.
/// * **Breaker-consumed risks**, once per node: risky edges that reach a
///   pipeline breaker offering no re-optimization opportunity (hash
///   aggregation, a hash-join build) with no dominating CHECK or
///   materialization point in between. They are the `PL411` findings
///   and the certificate's `uncovered` paths. Risks still open at the
///   root stream to the application unobserved by any CHECK; they are
///   `uncovered` too.
/// * **Dominated risks**: a CHECK, BUFCHECK, SORT or TEMP clears the open
///   set below it; those risks are the certificate's `guarded_edges`.
///
/// Gating: every rule consumes the cardinality intervals of [`domain`],
/// so without a stats registry the pass is silent. `PL411` additionally
/// requires [`crate::LintOptions::expect_check_coverage`] and a plan that
/// has checkpoints at all, mirroring `PL104`'s gating: a plan POP chose
/// not to guard (below the cost threshold, flavors off) is not a coverage
/// hole. The certificate ignores the option.
pub(crate) struct CoveragePass {
    /// Report the findings (off when only the certificate is wanted).
    diagnose: bool,
    /// The certificate under construction.
    tally: Tally,
}

impl CoveragePass {
    pub(crate) fn new(diagnose: bool) -> Self {
        CoveragePass {
            diagnose,
            tally: Tally::new(),
        }
    }

    pub(crate) fn certificate(self) -> RobustnessCertificate {
        self.tally.finish()
    }
}

impl Pass for CoveragePass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink) {
        self.tally.node(cx.node, cx.kids.len());

        if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = cx.node {
            let input = cx.input_state(0).interval;
            if let Some(r) = reach(spec, input) {
                self.tally.reach(r);
                if self.diagnose {
                    emit_reach(cx, spec, input, r, sink);
                }
            }
        }

        let consumed = consumed_risks(cx);
        if self.diagnose && ctx.options.expect_check_coverage && cx.plan_has_checks {
            for r in &consumed {
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

        for r in &consumed {
            self.tally.uncovered(cx.post_order, r);
        }
        if domain::dominates(cx.node) {
            let guarded: usize = cx
                .inputs()
                .enumerate()
                .map(|(i, (child, cst))| {
                    cst.open_risks.len()
                        + usize::from(domain::edge_escape(cx.node, i, child, cst).is_some())
                })
                .sum();
            self.tally.guarded(guarded);
        }
        if cx.frames.is_empty() {
            for r in &cx.state.open_risks {
                self.tally.uncovered(usize::MAX, r);
            }
        }
    }
}

/// `PL412` / `PL413` for one CHECK whose reachability was decided.
fn emit_reach(
    cx: &NodeCx<'_, '_>,
    spec: &CheckSpec,
    input: CardInterval,
    r: Reach,
    sink: &mut Sink,
) {
    let (code, message) = match r {
        Reach::Dead => (
            DiagCode::Pl412,
            format!(
                "dead CHECK #{}: reachable cardinalities {} lie inside its \
                 trigger range {} — it can never fire",
                spec.id, input, spec.range
            ),
        ),
        Reach::Vacuous => (
            DiagCode::Pl413,
            format!(
                "vacuous CHECK #{}: reachable cardinalities {} are disjoint \
                 from its trigger range {} — it always fires",
                spec.id, input, spec.range
            ),
        ),
    };
    sink.emit(code, cx.node, cx.path, message);
}

/// The risky edges this node consumes unguarded: for each input edge a
/// breaker consumes, everything still open below it, then the edge's
/// own risk.
fn consumed_risks<'a>(cx: &NodeCx<'a, '_>) -> Vec<Cow<'a, OpenRisk>> {
    let mut out = Vec::new();
    for (i, (child, cst)) in cx.inputs().enumerate() {
        if !domain::consumed_unguarded(cx.node, i) {
            continue;
        }
        out.extend(cst.open_risks.iter().map(Cow::Borrowed));
        out.extend(domain::edge_risk(cx.node, i, child, cst, cx.path).map(Cow::Owned));
    }
    out
}
