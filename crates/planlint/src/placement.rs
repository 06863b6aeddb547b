//! Pass 3: CHECK-placement rules (`PL201`–`PL206`).
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
//!   RIDSINK ancestor records returned rows for later compensation.
//!
//! Each flavor also carries the [`CheckContext`] it was placed under;
//! a flavor/context disagreement (`PL205`) means the placement pass and
//! the opportunity analysis would report different things.

use crate::{through_checks, DiagCode, Frame, NodeCx, Sink};
use pop_plan::{CheckContext, CheckFlavor, CheckSpec, PhysNode};
use std::collections::HashMap;

pub(crate) fn check(cx: &NodeCx<'_, '_>, sink: &mut Sink) {
    match cx.node {
        PhysNode::Check { input, spec, .. } => check_flavor(cx, input, spec, false, sink),
        PhysNode::BufCheck { input, spec, .. } => check_flavor(cx, input, spec, true, sink),
        _ => {}
    }
}

fn check_flavor(
    cx: &NodeCx<'_, '_>,
    input: &PhysNode,
    spec: &CheckSpec,
    buffered: bool,
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
            // Materialized: a SORT, TEMP or MV scan, looking through
            // other checkpoint wrappers.
            let guarded = through_checks(input).counted_at_open() || on_build_edge(frames);
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
        // BUFCHECK and only BUFCHECK is ECB: checked above.
        CheckFlavor::Ecb => {}
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
pub(crate) fn check_unique_ids(plan: &PhysNode, sink: &mut Sink) {
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
    use pop_plan::{CheckContext, CheckFlavor, PhysNode};

    fn diags_of(plan: &PhysNode) -> Vec<&'static str> {
        codes(&lint(plan))
    }

    #[test]
    fn pl201_lc_over_pipelined_scan() {
        // LC directly above a table scan: nothing is materialized there.
        let plan = check(
            leaf(0, "a", 100.0),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        assert!(diags_of(&plan).contains(&"PL201"), "{:?}", diags_of(&plan));
    }

    #[test]
    fn lc_above_temp_and_on_build_edge_are_legal() {
        let guarded = check(
            temp(leaf(0, "a", 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        assert!(diags_of(&guarded).is_empty(), "{:?}", diags_of(&guarded));
        // LC on the hash build edge guards an unmaterialized input legally.
        let build = check(
            leaf(0, "a", 100.0),
            CheckFlavor::Lc,
            CheckContext::HashBuild,
        );
        let plan = hsjn(build, leaf(1, "b", 1000.0), 500.0);
        assert!(diags_of(&plan).is_empty(), "{:?}", diags_of(&plan));
    }

    #[test]
    fn pl202_lcem_without_temp() {
        let plan = check(
            leaf(0, "a", 100.0),
            CheckFlavor::Lcem,
            CheckContext::NljnOuter,
        );
        assert!(diags_of(&plan).contains(&"PL202"));
    }

    #[test]
    fn pl203_ecdc_without_ridsink() {
        let plan = check(
            hsjn(leaf(0, "a", 100.0), leaf(1, "b", 1000.0), 500.0),
            CheckFlavor::Ecdc,
            CheckContext::Pipeline,
        );
        assert!(diags_of(&plan).contains(&"PL203"));
    }

    #[test]
    fn ecdc_under_ridsink_is_legal() {
        let checked = check(
            hsjn(leaf(0, "a", 100.0), leaf(1, "b", 1000.0), 500.0),
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
    fn pl204_ecwc_without_blocking_ancestor() {
        let plan = check(
            leaf(0, "a", 100.0),
            CheckFlavor::Ecwc,
            CheckContext::BelowMaterialization,
        );
        assert!(diags_of(&plan).contains(&"PL204"));
    }

    #[test]
    fn ecwc_below_sort_is_legal() {
        let checked = check(
            leaf(0, "a", 100.0),
            CheckFlavor::Ecwc,
            CheckContext::BelowMaterialization,
        );
        let plan = temp(checked);
        assert!(diags_of(&plan).is_empty(), "{:?}", diags_of(&plan));
    }

    #[test]
    fn pl205_ecb_on_plain_check() {
        let plan = check(
            leaf(0, "a", 100.0),
            CheckFlavor::Ecb,
            CheckContext::NljnOuter,
        );
        assert!(diags_of(&plan).contains(&"PL205"));
    }

    #[test]
    fn pl205_flavor_context_mismatch() {
        // LC recorded under the pipeline context.
        let plan = check(
            temp(leaf(0, "a", 100.0)),
            CheckFlavor::Lc,
            CheckContext::Pipeline,
        );
        assert!(diags_of(&plan).contains(&"PL205"));
    }

    #[test]
    fn pl206_duplicate_check_ids() {
        // Two checks both with id 0 (the testutil default).
        let inner = check(
            temp(leaf(0, "a", 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        let plan = check(temp(inner), CheckFlavor::Lc, CheckContext::AboveTemp);
        assert!(diags_of(&plan).contains(&"PL206"));
    }
}
