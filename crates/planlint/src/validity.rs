//! Pass 2: validity-range consistency (`PL101`–`PL103`).
//!
//! The sensitivity analysis of §2.2 guarantees that every validity range
//! brackets the optimizer's own estimate at that edge — the modified
//! Newton-Raphson search starts from the estimation point and walks
//! outward, and intersections only combine ranges around the *same*
//! estimate. A range that excludes its estimate (or is outright empty)
//! means a CHECK would fire unconditionally on a plan the optimizer just
//! chose: a contradiction worth rejecting before execution.
//!
//! A node records either no edge ranges or one per child, in
//! [`PhysNode::children`] order.

use crate::{DiagCode, NodeCx, Sink};
use pop_plan::{PhysNode, ValidityRange};

pub(crate) fn check(cx: &NodeCx<'_, '_>, sink: &mut Sink) {
    let (node, path) = (cx.node, cx.path);
    let children = node.children();
    for (i, (child, r)) in children.iter().zip(&node.props().edge_ranges).enumerate() {
        check_range_shape(node, r, &format!("edge {i} range"), path, sink);
        if range_well_formed(r) {
            let child_card = child.props().card;
            if child_card.is_finite() && !r.contains(child_card) {
                sink.emit(
                    DiagCode::Pl102,
                    node,
                    path,
                    format!("edge {i} estimate {child_card:.0} outside validity range {r}"),
                );
            }
        }
    }
    if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = node {
        check_range_shape(
            node,
            &spec.range,
            &format!("CHECK #{} range", spec.id),
            path,
            sink,
        );
        if range_well_formed(&spec.range)
            && spec.est_card.is_finite()
            && !spec.range.contains(spec.est_card)
        {
            sink.emit(
                DiagCode::Pl102,
                node,
                path,
                format!(
                    "CHECK #{} estimate {:.0} outside its range {} (would fire unconditionally)",
                    spec.id, spec.est_card, spec.range
                ),
            );
        }
    }
}

fn range_well_formed(r: &ValidityRange) -> bool {
    !r.lo.is_nan() && !r.hi.is_nan() && r.lo >= 0.0 && r.lo <= r.hi
}

fn check_range_shape(
    node: &PhysNode,
    r: &ValidityRange,
    what: &str,
    path: &[usize],
    sink: &mut Sink,
) {
    if r.lo.is_nan() || r.hi.is_nan() || r.lo < 0.0 {
        sink.emit(
            DiagCode::Pl103,
            node,
            path,
            format!("{what} has a malformed bound: lo={}, hi={}", r.lo, r.hi),
        );
    } else if r.lo > r.hi {
        sink.emit(
            DiagCode::Pl101,
            node,
            path,
            format!("{what} {r} is empty (lo > hi)"),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use crate::{lint_plan, LintContext};
    use pop_plan::{CheckContext, CheckFlavor, PhysNode, ValidityRange};

    fn lcem_pair(range: ValidityRange) -> PhysNode {
        // Well-placed LCEM (CHECK above TEMP) so only range findings fire.
        let t = temp(leaf(0, "a", 2, 100.0));
        check_with_range(t, CheckFlavor::Lcem, CheckContext::NljnOuter, range)
    }

    #[test]
    fn pl101_inverted_range() {
        let plan = lcem_pair(ValidityRange::new(500.0, 20.0));
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(codes(&diags).contains(&"PL101"), "{diags:?}");
    }

    #[test]
    fn pl102_estimate_outside_range() {
        // est_card is 100 (the TEMP's card); range excludes it.
        let plan = lcem_pair(ValidityRange::new(500.0, 900.0));
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(codes(&diags).contains(&"PL102"), "{diags:?}");
    }

    #[test]
    fn pl103_nan_bound() {
        let plan = lcem_pair(ValidityRange::new(f64::NAN, 100.0));
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(codes(&diags).contains(&"PL103"), "{diags:?}");
    }

    #[test]
    fn pl103_negative_bound() {
        let plan = lcem_pair(ValidityRange::new(-5.0, 100.0));
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(codes(&diags).contains(&"PL103"), "{diags:?}");
    }

    #[test]
    fn pl102_edge_range_excludes_child_estimate() {
        let mut plan = hsjn(leaf(0, "a", 2, 100.0), leaf(1, "b", 2, 1000.0), 50.0);
        plan.props_mut().edge_ranges[0] = ValidityRange::new(0.0, 10.0); // build est is 100
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(codes(&diags).contains(&"PL102"), "{diags:?}");
    }

    #[test]
    fn bracketing_range_is_clean() {
        let plan = lcem_pair(ValidityRange::new(20.0, 500.0));
        assert!(lint_plan(&plan, &LintContext::bare()).is_empty());
    }
}
