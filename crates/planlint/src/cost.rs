//! Pass 4: cost/cardinality sanity (`PL301`–`PL303`).
//!
//! `PlanProps::cost` is *cumulative* (subtree total), so it must be
//! monotone up the tree; cardinalities and costs must be finite and
//! non-negative, or every downstream consumer — validity ranges, the
//! work accounting of the driver, plan comparison during pruning — is
//! reasoning over garbage.

use crate::{DiagCode, NodeCx, Sink};

/// Relative + absolute slack for the monotonicity comparison: cumulative
/// costs are sums of floats accumulated in different orders.
const REL_EPS: f64 = 1e-9;
const ABS_EPS: f64 = 1e-6;

pub(crate) fn check(cx: &NodeCx<'_, '_>, sink: &mut Sink) {
    let (node, path) = (cx.node, cx.path);
    let props = node.props();
    if props.card.is_nan() || props.card.is_infinite() || props.card < 0.0 {
        sink.emit(
            DiagCode::Pl302,
            node,
            path,
            format!(
                "cardinality estimate {} is not a finite non-negative number",
                props.card
            ),
        );
    }
    if props.cost.is_nan() || props.cost.is_infinite() || props.cost < 0.0 {
        sink.emit(
            DiagCode::Pl303,
            node,
            path,
            format!(
                "cost estimate {} is not a finite non-negative number",
                props.cost
            ),
        );
    }
    // LIMIT stops its child early, so the cost model legitimately
    // discounts its cumulative cost below the child's full-run cost.
    if matches!(node, pop_plan::PhysNode::Limit { .. }) {
        return;
    }
    for (i, child) in node.children().into_iter().enumerate() {
        let cc = child.props().cost;
        if cc.is_finite() && props.cost.is_finite() && props.cost < cc * (1.0 - REL_EPS) - ABS_EPS {
            sink.emit(
                DiagCode::Pl301,
                node,
                path,
                format!(
                    "cumulative cost {:.3} below child {i} cost {cc:.3}",
                    props.cost
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;

    #[test]
    fn pl301_non_monotone_cost() {
        let mut plan = hsjn(leaf(0, "a", 100.0), leaf(1, "b", 1000.0), 500.0);
        plan.props_mut().cost = 1.0; // children cost 100 and 1000
        let diags = lint(&plan);
        assert!(codes(&diags).contains(&"PL301"), "{diags:?}");
    }

    #[test]
    fn pl302_nan_cardinality() {
        let mut plan = leaf(0, "a", 100.0);
        plan.props_mut().card = f64::NAN;
        assert!(codes(&lint(&plan)).contains(&"PL302"));
    }

    #[test]
    fn pl302_negative_cardinality() {
        let mut plan = leaf(0, "a", 100.0);
        plan.props_mut().card = -4.0;
        assert!(codes(&lint(&plan)).contains(&"PL302"));
    }

    #[test]
    fn pl303_infinite_cost() {
        let mut plan = leaf(0, "a", 100.0);
        plan.props_mut().cost = f64::INFINITY;
        assert!(codes(&lint(&plan)).contains(&"PL303"));
    }

    #[test]
    fn equal_costs_are_monotone() {
        // Pass-through wrappers legitimately keep the child's cost.
        let inner = leaf(0, "a", 100.0);
        let props = inner.props().clone();
        let plan = pop_plan::PhysNode::Limit {
            input: Box::new(inner),
            n: 5,
            props,
        };
        assert!(lint(&plan).is_empty());
    }
}
