//! Per-plan robustness certificates.
//!
//! A [`RobustnessCertificate`] summarizes what the dataflow analyzer can
//! *prove* about a plan's safety net: how many edges are guarded by
//! checkpoints, how much estimation risk is left uncovered, and how many
//! re-optimizations the plan could trigger in the worst case. The driver
//! attaches one per execution step to the run report.

use crate::domain::{self, AbstractState};
use crate::LintContext;
use pop_plan::PhysNode;

/// What the analyzer can prove about one plan's robustness.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessCertificate {
    /// Hash of the plan's shape (operator names, tables, check ids).
    pub plan_hash: u64,
    /// Input edges in the plan.
    pub edges: usize,
    /// Checkpoints in the plan.
    pub checks: usize,
    /// Edges whose cardinality interval escapes their validity range by
    /// more than the risk threshold.
    pub risky_edges: usize,
    /// Risky edges dominated by a CHECK or materialization point before
    /// the next pipeline breaker.
    pub guarded_edges: usize,
    /// Paths of risky edges with no such dominator (residual
    /// holes in the safety net).
    pub uncovered: Vec<String>,
    /// Worst escape factor among uncovered risky edges (`1.0` when fully
    /// covered): by how much the actual cardinality could leave a
    /// validity range with no checkpoint noticing.
    pub residual_risk: f64,
    /// Checks that can never fire given the reachable cardinality
    /// intervals of their inputs.
    pub dead_checks: usize,
    /// Checks that always fire.
    pub vacuous_checks: usize,
    /// Upper bound on re-optimizations this plan can trigger over the
    /// whole query (one per distinct checkpoint; the driver additionally
    /// caps it at `max_reopts`).
    pub worst_case_reopts: usize,
}

impl RobustnessCertificate {
    /// One-line rendering for report summaries.
    pub fn render(&self) -> String {
        format!(
            "cert {:016x}: edges={} checks={} risky={} guarded={} uncovered={} \
             residual={:.1}x dead={} vacuous={} max-reopts={}",
            self.plan_hash,
            self.edges,
            self.checks,
            self.risky_edges,
            self.guarded_edges,
            self.uncovered.len(),
            self.residual_risk,
            self.dead_checks,
            self.vacuous_checks,
            self.worst_case_reopts,
        )
    }

    /// JSON rendering (hand-built; the certificate is flat).
    pub fn to_json(&self) -> String {
        let uncovered: Vec<String> = self
            .uncovered
            .iter()
            .map(|p| format!("\"{}\"", p.replace('"', "\\\"")))
            .collect();
        format!(
            "{{\"plan_hash\":\"{:016x}\",\"edges\":{},\"checks\":{},\"risky_edges\":{},\
             \"guarded_edges\":{},\"uncovered\":[{}],\"residual_risk\":{:.3},\
             \"dead_checks\":{},\"vacuous_checks\":{},\"worst_case_reopts\":{}}}",
            self.plan_hash,
            self.edges,
            self.checks,
            self.risky_edges,
            self.guarded_edges,
            uncovered.join(","),
            self.residual_risk,
            self.dead_checks,
            self.vacuous_checks,
            self.worst_case_reopts,
        )
    }
}

impl std::fmt::Display for RobustnessCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Certify `plan` against the abstract domain: the same interpretation
/// [`crate::lint_plan`] runs.
pub fn certify(plan: &PhysNode, ctx: &LintContext<'_>) -> RobustnessCertificate {
    let mut cert = RobustnessCertificate {
        plan_hash: 0,
        edges: 0,
        checks: plan.checks().len(),
        risky_edges: 0,
        guarded_edges: 0,
        uncovered: Vec::new(),
        residual_risk: 1.0,
        dead_checks: 0,
        vacuous_checks: 0,
        worst_case_reopts: plan.checks().len(),
    };
    let mut hash: u64 = pop_types::FNV1A_OFFSET;
    let mut path = Vec::new();
    let st = visit(plan, ctx, &mut path, &mut cert, &mut hash);
    // Risky edges still open at the root stream to the application: they
    // are uncovered residual risk exactly like breaker-consumed ones.
    for r in &st.open_risks {
        cert.uncovered.push(r.path.clone());
        cert.residual_risk = cert.residual_risk.max(r.escape);
    }
    cert.risky_edges = cert.guarded_edges + cert.uncovered.len();
    cert.plan_hash = hash;
    cert
}

use pop_types::fnv1a_extend as fnv;

fn visit(
    node: &PhysNode,
    ctx: &LintContext<'_>,
    path: &mut Vec<usize>,
    cert: &mut RobustnessCertificate,
    hash: &mut u64,
) -> AbstractState {
    fnv(hash, node.name().as_bytes());
    if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = node {
        fnv(hash, &spec.id.to_le_bytes());
        fnv(hash, spec.signature.as_bytes());
    }
    if let PhysNode::TableScan { table, .. } | PhysNode::IndexRangeScan { table, .. } = node {
        fnv(hash, table.as_bytes());
    }

    let kids = node.children();
    let mut states = Vec::with_capacity(kids.len());
    for (i, child) in kids.iter().enumerate() {
        path.push(i);
        states.push(visit(child, ctx, path, cert, hash));
        path.pop();
    }
    cert.edges += kids.len();

    let inputs: Vec<&AbstractState> = states.iter().collect();
    let st = domain::transfer(node, &inputs, ctx, path);

    // Risky edges consumed unguarded by this node are uncovered; risky
    // edges cleared by a dominator are guarded.
    for (i, (child, cst)) in kids.iter().copied().zip(&states).enumerate() {
        if domain::consumed_unguarded(node, i) {
            for r in cst
                .open_risks
                .iter()
                .cloned()
                .chain(domain::edge_risk(node, i, child, cst, path))
            {
                cert.uncovered.push(r.path);
                cert.residual_risk = cert.residual_risk.max(r.escape);
            }
        } else if matches!(
            node,
            PhysNode::Check { .. }
                | PhysNode::BufCheck { .. }
                | PhysNode::Sort { .. }
                | PhysNode::Temp { .. }
        ) {
            // This node is a dominator (its transfer clears the open
            // set): everything open below edge `i` is guarded here.
            cert.guarded_edges += cst.open_risks.len()
                + usize::from(domain::edge_risk(node, i, child, cst, path).is_some());
        }
    }

    if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = node {
        let input = states[0].interval;
        if input.is_known() {
            if input.inside(&spec.range) {
                cert.dead_checks += 1;
            } else if input.disjoint(&spec.range) {
                cert.vacuous_checks += 1;
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use pop_plan::{CheckContext, CheckFlavor};

    #[test]
    fn render_and_json_are_stable() {
        let plan = check(
            temp(leaf(0, "t", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        let cert = certify(&plan, &LintContext::bare());
        assert_eq!(cert.worst_case_reopts, 1);
        let line = cert.render();
        assert!(line.contains("checks=1"), "{line}");
        let json = cert.to_json();
        assert!(json.contains("\"checks\":1"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
