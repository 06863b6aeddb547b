//! Pass 3: CHECK-placement rules (`PL201`–`PL208`, plus `PL104`).
//!
//! Structural encoding of Table 1 of the paper:
//!
//! * **LC** is lazy — it may only sit where its input is already
//!   materialized: directly above SORT/TEMP (or an MV scan), or on the
//!   build edge of a hash join (the build is an internal
//!   materialization).
//! * **LCEM** is the CHECK of a CHECK-above-TEMP pair: its input, looking
//!   through other checks, must be a TEMP.
//! * **ECB** buffers, so it must be the BUFCHECK operator (and only ECB
//!   may be).
//! * **ECWC** forgoes compensation, which is only sound when an ancestor
//!   blocks output: a materialization point or a hash-join build edge.
//! * **ECDC** may sit anywhere in a pipelined region, but only if a
//!   RIDSINK ancestor records returned rows for later compensation —
//!   and, when the caller supplies a cleanup registry, only if the rid
//!   side table it feeds has its cleanup registered (`PL208`), so a
//!   suspended query can never leak side-table state.
//!
//! Each flavor also carries the [`CheckContext`] it was placed under;
//! a flavor/context disagreement (`PL205`) means the placement pass and
//! the opportunity analysis would report different things.

use crate::dataflow::{NodeCx, Pass};
use crate::{through_checks, DiagCode, Frame, LintContext, Sink};
use pop_plan::{CheckContext, CheckFlavor, CheckSpec, PhysNode};
use std::collections::HashMap;

pub(crate) struct PlacementPass {
    /// Does the plan contain any checkpoints? (Computed lazily at the
    /// root, which the driver visits first; gates `PL104`.)
    has_checks: Option<bool>,
}

impl PlacementPass {
    pub(crate) fn new() -> Self {
        PlacementPass { has_checks: None }
    }
}

impl Pass for PlacementPass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink) {
        match cx.node {
            PhysNode::Check { input, spec, .. } => {
                check_flavor(cx, input, spec, false, ctx, sink);
            }
            PhysNode::BufCheck { input, spec, .. } => {
                check_flavor(cx, input, spec, true, ctx, sink);
            }
            _ => {}
        }
        // `PL104`: when POP placed checkpoints and the caller expects
        // coverage, every materialization point should be guarded by a
        // checkpoint directly above it (the LC rule of Table 1 —
        // materializations are free check opportunities).
        if ctx.options.expect_check_coverage
            && cx.node.is_materialization_point()
            && !matches!(
                cx.frames.last().map(|f| f.node),
                Some(PhysNode::Check { .. } | PhysNode::BufCheck { .. })
            )
        {
            let has_checks = *self
                .has_checks
                .get_or_insert_with(|| !crate::dataflow::root_of(cx).checks().is_empty());
            if has_checks {
                sink.emit(
                    DiagCode::Pl104,
                    cx.node,
                    cx.path,
                    format!(
                        "{} materialization point has no checkpoint above it",
                        cx.node.name()
                    ),
                );
            }
        }
    }

    fn finish(&mut self, plan: &PhysNode, _ctx: &LintContext<'_>, sink: &mut Sink) {
        check_unique_ids(plan, sink);
    }
}

fn check_flavor(
    cx: &NodeCx<'_, '_>,
    input: &PhysNode,
    spec: &CheckSpec,
    buffered: bool,
    ctx: &LintContext<'_>,
    sink: &mut Sink,
) {
    let (node, frames, path) = (cx.node, cx.frames, cx.path);
    if buffered != (spec.flavor == CheckFlavor::Ecb) {
        sink.emit(
            DiagCode::Pl205,
            node,
            path,
            format!(
                "{} checkpoint #{} on a {} operator (ECB and only ECB buffers)",
                spec.flavor,
                spec.id,
                node.name()
            ),
        );
        return;
    }
    let context_ok = matches!(
        (spec.flavor, spec.context),
        (
            CheckFlavor::Lc,
            CheckContext::AboveSort
                | CheckContext::AboveTemp
                | CheckContext::HashBuild
                | CheckContext::AggBuild
        ) | (
            CheckFlavor::Lcem | CheckFlavor::Ecb,
            CheckContext::NljnOuter
        ) | (CheckFlavor::Ecwc, CheckContext::BelowMaterialization)
            | (CheckFlavor::Ecdc, CheckContext::Pipeline)
    );
    if !context_ok {
        sink.emit(
            DiagCode::Pl205,
            node,
            path,
            format!(
                "{} checkpoint #{} recorded under context '{}'",
                spec.flavor, spec.id, spec.context
            ),
        );
    }
    match spec.flavor {
        CheckFlavor::Lc => {
            // The abstract domain already folds "materialization point or
            // MV scan, looking through check wrappers" into the input's
            // `materialized` bit.
            let guarded = cx.children[0].materialized || on_build_edge(frames);
            if !guarded {
                sink.emit(
                    DiagCode::Pl201,
                    node,
                    path,
                    format!(
                        "LC checkpoint #{} guards unmaterialized input {}",
                        spec.id,
                        through_checks(input).name()
                    ),
                );
            }
        }
        CheckFlavor::Lcem => {
            if !matches!(through_checks(input), PhysNode::Temp { .. }) {
                sink.emit(
                    DiagCode::Pl202,
                    node,
                    path,
                    format!(
                        "LCEM checkpoint #{} is not above a TEMP (input is {})",
                        spec.id,
                        through_checks(input).name()
                    ),
                );
            }
        }
        CheckFlavor::Ecb => {
            if let PhysNode::BufCheck { buffer, .. } = node {
                // The first violating row count is floor(hi)+1; the buffer
                // must hold that many rows to observe the crossing.
                let needed = spec.range.hi.floor() + 1.0;
                if spec.range.hi.is_finite() && (*buffer as f64) < needed {
                    sink.emit(
                        DiagCode::Pl207,
                        node,
                        path,
                        format!(
                            "BUFCHECK #{} buffer {} cannot hold {needed:.0} rows (range bound {:.1})",
                            spec.id, buffer, spec.range.hi
                        ),
                    );
                }
            }
        }
        CheckFlavor::Ecwc => {
            let blocked = frames.iter().any(|f| {
                f.node.is_materialization_point()
                    || (matches!(f.node, PhysNode::Hsjn { .. }) && f.child_idx == 0)
            });
            if !blocked {
                sink.emit(
                    DiagCode::Pl204,
                    node,
                    path,
                    format!(
                        "ECWC checkpoint #{} has no materializing ancestor to block output",
                        spec.id
                    ),
                );
            }
        }
        CheckFlavor::Ecdc => {
            if !frames
                .iter()
                .any(|f| matches!(f.node, PhysNode::RidSink { .. }))
            {
                sink.emit(
                    DiagCode::Pl203,
                    node,
                    path,
                    format!(
                        "ECDC checkpoint #{} has no rid side-table sink above it",
                        spec.id
                    ),
                );
            }
            // PL208: deferred compensation accumulates rid side-table
            // state; when the caller supplies the per-query cleanup
            // registry, the side table (keyed by the check's subplan
            // signature) must have its cleanup registered.
            if let Some(reg) = ctx.cleanups {
                if !reg.covers_side_table(&spec.signature) {
                    sink.emit(
                        DiagCode::Pl208,
                        node,
                        path,
                        format!(
                            "ECDC checkpoint #{} side table {:?} has no registered cleanup",
                            spec.id, spec.signature
                        ),
                    );
                }
            }
        }
    }
}

/// Is the current node (whose ancestor stack is `frames`) on a *build*
/// edge — the build side of a hash join or the input of a hash aggregate
/// — looking through any checkpoint wrappers between? Both consume the
/// edge into a materialized hash table, so a lazy check there resolves
/// when the build completes.
fn on_build_edge(frames: &[Frame<'_>]) -> bool {
    for f in frames.iter().rev() {
        match f.node {
            // Checkpoint wrappers are transparent: the rows crossing them
            // are the same rows the build consumes.
            PhysNode::Check { .. } | PhysNode::BufCheck { .. } => {}
            PhysNode::Hsjn { .. } => return f.child_idx == 0,
            PhysNode::HashAgg { .. } => return true,
            _ => return false,
        }
    }
    false
}

/// `PL206`: checkpoint ids must be unique within a plan — the executor
/// keys observed cardinalities and re-optimization events by id.
fn check_unique_ids(plan: &PhysNode, sink: &mut Sink) {
    let mut seen: HashMap<usize, usize> = HashMap::new();
    for spec in plan.checks() {
        *seen.entry(spec.id).or_insert(0) += 1;
    }
    let mut dups: Vec<(usize, usize)> = seen.into_iter().filter(|(_, n)| *n > 1).collect();
    dups.sort_unstable();
    for (id, n) in dups {
        sink.emit(
            DiagCode::Pl206,
            plan,
            &[],
            format!("checkpoint id {id} appears {n} times"),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use crate::{lint_plan, LintContext};
    use pop_plan::{CheckContext, CheckFlavor, PhysNode, ValidityRange};

    fn diags_of(plan: &PhysNode) -> Vec<&'static str> {
        codes(&lint_plan(plan, &LintContext::bare()))
    }

    #[test]
    fn pl201_lc_over_pipelined_scan() {
        // LC directly above a table scan: nothing is materialized there.
        let plan = check(
            leaf(0, "a", 2, 100.0),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        assert!(diags_of(&plan).contains(&"PL201"), "{:?}", diags_of(&plan));
    }

    #[test]
    fn lc_above_temp_and_on_build_edge_are_legal() {
        let guarded = check(
            temp(leaf(0, "a", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        assert!(diags_of(&guarded).is_empty(), "{:?}", diags_of(&guarded));
        // LC on the hash build edge guards an unmaterialized input legally.
        let build = check(
            leaf(0, "a", 2, 100.0),
            CheckFlavor::Lc,
            CheckContext::HashBuild,
        );
        let plan = hsjn(build, leaf(1, "b", 2, 1000.0), 500.0);
        assert!(diags_of(&plan).is_empty(), "{:?}", diags_of(&plan));
    }

    #[test]
    fn pl202_lcem_without_temp() {
        let plan = check(
            leaf(0, "a", 2, 100.0),
            CheckFlavor::Lcem,
            CheckContext::NljnOuter,
        );
        assert!(diags_of(&plan).contains(&"PL202"));
    }

    #[test]
    fn pl203_ecdc_without_ridsink() {
        let plan = check(
            hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 500.0),
            CheckFlavor::Ecdc,
            CheckContext::Pipeline,
        );
        assert!(diags_of(&plan).contains(&"PL203"));
    }

    #[test]
    fn ecdc_under_ridsink_is_legal() {
        let checked = check(
            hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 500.0),
            CheckFlavor::Ecdc,
            CheckContext::Pipeline,
        );
        let props = checked.props().clone();
        let plan = PhysNode::RidSink {
            input: Box::new(checked),
            props,
        };
        assert!(diags_of(&plan).is_empty(), "{:?}", diags_of(&plan));
    }

    #[test]
    fn pl208_ecdc_side_table_without_cleanup() {
        let checked = check(
            hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 500.0),
            CheckFlavor::Ecdc,
            CheckContext::Pipeline,
        );
        let props = checked.props().clone();
        let plan = PhysNode::RidSink {
            input: Box::new(checked),
            props,
        };
        // An empty registry covers nothing: PL208 (the testutil check
        // signature is "sig").
        let empty = pop_guard::CleanupRegistry::new();
        let ctx = LintContext::bare().with_cleanups(&empty);
        let diags = lint_plan(&plan, &ctx);
        assert!(codes(&diags).contains(&"PL208"), "{diags:?}");
        // Registering the side table silences the rule.
        let mut reg = pop_guard::CleanupRegistry::new();
        reg.register_side_table("sig");
        let ctx = LintContext::bare().with_cleanups(&reg);
        assert!(lint_plan(&plan, &ctx).is_empty());
        // And without a registry the rule does not apply at all.
        assert!(lint_plan(&plan, &LintContext::bare()).is_empty());
    }

    #[test]
    fn pl204_ecwc_without_blocking_ancestor() {
        let plan = check(
            leaf(0, "a", 2, 100.0),
            CheckFlavor::Ecwc,
            CheckContext::BelowMaterialization,
        );
        assert!(diags_of(&plan).contains(&"PL204"));
    }

    #[test]
    fn ecwc_below_sort_is_legal() {
        let checked = check(
            leaf(0, "a", 2, 100.0),
            CheckFlavor::Ecwc,
            CheckContext::BelowMaterialization,
        );
        let plan = temp(checked);
        assert!(diags_of(&plan).is_empty(), "{:?}", diags_of(&plan));
    }

    #[test]
    fn pl205_ecb_on_plain_check() {
        let plan = check(
            leaf(0, "a", 2, 100.0),
            CheckFlavor::Ecb,
            CheckContext::NljnOuter,
        );
        assert!(diags_of(&plan).contains(&"PL205"));
    }

    #[test]
    fn pl205_flavor_context_mismatch() {
        // LC recorded under the pipeline context.
        let plan = check(
            temp(leaf(0, "a", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::Pipeline,
        );
        assert!(diags_of(&plan).contains(&"PL205"));
    }

    #[test]
    fn pl206_duplicate_check_ids() {
        // Two checks both with id 0 (the testutil default).
        let inner = check(
            temp(leaf(0, "a", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        let plan = check(temp(inner), CheckFlavor::Lc, CheckContext::AboveTemp);
        assert!(diags_of(&plan).contains(&"PL206"));
    }

    #[test]
    fn pl207_bufcheck_buffer_too_small() {
        let input = leaf(0, "a", 2, 100.0);
        let range = ValidityRange::new(0.0, 500.0);
        let mut props = input.props().clone();
        props.edge_ranges = vec![range];
        let plan = PhysNode::BufCheck {
            spec: pop_plan::CheckSpec {
                id: 0,
                flavor: CheckFlavor::Ecb,
                range,
                est_card: 100.0,
                signature: "sig".into(),
                context: CheckContext::NljnOuter,
            },
            input: Box::new(input),
            buffer: 10, // needs 501
            props,
        };
        assert!(diags_of(&plan).contains(&"PL207"));
    }

    #[test]
    fn pl104_unguarded_materialization() {
        // Plan HAS a checkpoint, but a second TEMP is unguarded.
        let guarded = check(
            temp(leaf(0, "a", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        let plan = temp(guarded); // outer TEMP has no check above it
        let ctx = LintContext::bare().expect_check_coverage(true);
        let diags = lint_plan(&plan, &ctx);
        assert!(codes(&diags).contains(&"PL104"), "{diags:?}");
        // Without the option, silence.
        assert!(lint_plan(&plan, &LintContext::bare()).is_empty());
    }
}
