//! Estimate provenance: where each plan node's cardinality estimate came
//! from.
//!
//! Re-optimization makes "the estimate" a layered thing: a node's
//! `props.card` may be a pure statistics-based derivation, may have been
//! overridden by an exact count observed when a CHECK fired and its
//! subplan was materialized, may only be clamped from below by an eager
//! check that aborted early (§3.4), or may be the exact row count of a
//! temp MV the plan reuses. Downstream consumers — the planlint interval
//! analyzer cross-validating its bounds, report rendering, tests pinning
//! re-optimization behaviour — need to know which, per node.

use crate::feedback::{CardFact, FeedbackCache};
use pop_expr::Params;
use pop_plan::{PhysNode, QuerySpec, Signer};

/// Where one node's cardinality estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// Statistics-based derivation: no feedback fact covers the node's
    /// table set.
    Stats,
    /// An exact cardinality observed in an earlier execution step
    /// overrides the estimate ([`CardFact::Exact`]).
    FeedbackExact,
    /// An eager check aborted early: the estimate is clamped from below
    /// ([`CardFact::AtLeast`]).
    FeedbackAtLeast,
    /// The node scans a temp MV whose row count is known exactly.
    TempMv,
}

impl std::fmt::Display for EstimateSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EstimateSource::Stats => "stats",
            EstimateSource::FeedbackExact => "feedback-exact",
            EstimateSource::FeedbackAtLeast => "feedback-at-least",
            EstimateSource::TempMv => "temp-mv",
        })
    }
}

/// One node's provenance record.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateProvenance {
    /// `$`-rooted child-index path of the node (`$` is the root, `$.0.1`
    /// the second child of the first child — the same convention planlint
    /// diagnostics use).
    pub path: String,
    /// The node's cardinality estimate (`props.card`).
    pub estimate: f64,
    /// Where the estimate came from.
    pub source: EstimateSource,
}

/// Provenance of every node's estimate, in pre-order.
///
/// A node is feedback-sourced when the feedback cache holds a fact for
/// its subplan signature — the same signature probe the estimator runs
/// during (re-)optimization, so the answer reflects what the optimizer
/// actually consulted.
pub fn plan_provenance(
    plan: &PhysNode,
    spec: &QuerySpec,
    params: Option<&Params>,
    feedback: &FeedbackCache,
) -> Vec<EstimateProvenance> {
    let mut out = Vec::with_capacity(plan.node_count());
    let mut path = Vec::new();
    let signer = Signer::new(spec, params);
    visit(plan, &signer, feedback, &mut path, &mut out);
    out
}

fn visit(
    node: &PhysNode,
    signer: &Signer,
    feedback: &FeedbackCache,
    path: &mut Vec<usize>,
    out: &mut Vec<EstimateProvenance>,
) {
    let source = if matches!(node, PhysNode::MvScan { .. }) {
        EstimateSource::TempMv
    } else {
        match feedback.get(&signer.sign(node.props().tables)) {
            Some(CardFact::Exact(_)) => EstimateSource::FeedbackExact,
            Some(CardFact::AtLeast(_)) => EstimateSource::FeedbackAtLeast,
            None => EstimateSource::Stats,
        }
    };
    let mut p = String::from("$");
    for seg in path.iter() {
        p.push('.');
        p.push_str(&seg.to_string());
    }
    out.push(EstimateProvenance {
        path: p,
        estimate: node.props().card,
        source,
    });
    for (i, child) in node.children().into_iter().enumerate() {
        path.push(i);
        visit(child, signer, feedback, path, out);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_plan::{subplan_signature, QueryBuilder, TableSet};

    fn spec_and_plan() -> (QuerySpec, PhysNode) {
        use pop_plan::{LayoutCol, PlanProps};
        use pop_types::ColId;
        let mut b = QueryBuilder::new();
        b.table("t");
        let spec = b.build().unwrap();
        let plan = PhysNode::TableScan {
            qidx: 0,
            table: "t".into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(0),
                100.0,
                100.0,
                vec![LayoutCol::Base(ColId::new(0, 0))],
            ),
        };
        (spec, plan)
    }

    #[test]
    fn stats_without_feedback_exact_with() {
        let (spec, plan) = spec_and_plan();
        let fb = FeedbackCache::new();
        let prov = plan_provenance(&plan, &spec, None, &fb);
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].source, EstimateSource::Stats);
        assert_eq!(prov[0].path, "$");

        let sig = subplan_signature(&spec, TableSet::single(0));
        fb.record(sig.clone(), CardFact::AtLeast(500.0));
        let prov = plan_provenance(&plan, &spec, None, &fb);
        assert_eq!(prov[0].source, EstimateSource::FeedbackAtLeast);
        fb.record(sig, CardFact::Exact(700.0));
        let prov = plan_provenance(&plan, &spec, None, &fb);
        assert_eq!(prov[0].source, EstimateSource::FeedbackExact);
    }
}
