//! Per-plan robustness certificates.
//!
//! A [`RobustnessCertificate`] summarizes what the dataflow analyzer can
//! *prove* about a plan's safety net: how many edges are guarded by
//! checkpoints, how much estimation risk is left uncovered, and how many
//! re-optimizations the plan could trigger in the worst case.
//!
//! The certificate is not a separate analysis: the coverage pass
//! ([`crate::dataflow::CoveragePass`]) feeds a [`Tally`] from the same
//! per-node decisions its `PL41x` findings come from.

use crate::dataflow::Reach;
use crate::domain::OpenRisk;
use pop_plan::PhysNode;
use pop_types::fnv1a_extend as fnv;

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
    /// intervals of their inputs: exactly the checks `PL412` reports, so
    /// an unbounded `[0, ∞)` observation check is never dead.
    pub dead_checks: usize,
    /// Checks that always fire: exactly the checks `PL413` reports.
    pub vacuous_checks: usize,
    /// Upper bound on re-optimizations this plan can trigger over the
    /// whole query (one per distinct checkpoint; the driver additionally
    /// caps it at `max_reopts`).
    pub worst_case_reopts: usize,
}

impl RobustnessCertificate {
    /// One-line rendering (also its `Display`).
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
}

impl std::fmt::Display for RobustnessCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// The certificate under construction, fed node by node by the coverage
/// pass's pre-order walk ([`crate::dataflow::CoveragePass`]).
pub(crate) struct Tally {
    cert: RobustnessCertificate,
    /// FNV-1a over the pre-order node sequence.
    hash: u64,
    /// Uncovered risk paths, keyed by the post-order position of the
    /// node that consumed them (`usize::MAX`: still open at the root), so
    /// [`Tally::finish`] lists them bottom-up.
    uncovered: Vec<(usize, String)>,
}

impl Tally {
    pub(crate) fn new() -> Self {
        Tally {
            cert: RobustnessCertificate {
                plan_hash: 0,
                edges: 0,
                checks: 0,
                risky_edges: 0,
                guarded_edges: 0,
                uncovered: Vec::new(),
                residual_risk: 1.0,
                dead_checks: 0,
                vacuous_checks: 0,
                worst_case_reopts: 0,
            },
            hash: pop_types::FNV1A_OFFSET,
            uncovered: Vec::new(),
        }
    }

    /// Fold the next node of the pre-order walk, which has `inputs`
    /// input edges, into the shape hash and the edge and check counts.
    pub(crate) fn node(&mut self, node: &PhysNode, inputs: usize) {
        fnv(&mut self.hash, node.name().as_bytes());
        if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = node {
            fnv(&mut self.hash, &spec.id.to_le_bytes());
            fnv(&mut self.hash, spec.signature.as_bytes());
            self.cert.checks += 1;
        }
        if let PhysNode::TableScan { table, .. } | PhysNode::IndexRangeScan { table, .. } = node {
            fnv(&mut self.hash, table.as_bytes());
        }
        self.cert.edges += inputs;
    }

    /// A CHECK whose reachability the coverage pass decided.
    pub(crate) fn reach(&mut self, reach: Reach) {
        match reach {
            Reach::Dead => self.cert.dead_checks += 1,
            Reach::Vacuous => self.cert.vacuous_checks += 1,
        }
    }

    /// Risky edges cleared by a dominator.
    pub(crate) fn guarded(&mut self, n: usize) {
        self.cert.guarded_edges += n;
    }

    /// A risky edge no dominator covers, consumed at post-order position
    /// `post_order`.
    pub(crate) fn uncovered(&mut self, post_order: usize, risk: &OpenRisk) {
        self.uncovered.push((post_order, risk.path.clone()));
        self.cert.residual_risk = self.cert.residual_risk.max(risk.escape);
    }

    pub(crate) fn finish(mut self) -> RobustnessCertificate {
        // Stable: one node's risks keep their edge order.
        self.uncovered.sort_by_key(|(post_order, _)| *post_order);
        let mut cert = self.cert;
        cert.uncovered = self.uncovered.into_iter().map(|(_, p)| p).collect();
        cert.risky_edges = cert.guarded_edges + cert.uncovered.len();
        cert.worst_case_reopts = cert.checks;
        cert.plan_hash = self.hash;
        cert
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use crate::{certify, lint_plan, LintContext};
    use pop_plan::{CheckContext, CheckFlavor, ValidityRange};
    use pop_stats::StatsRegistry;
    use pop_storage::Catalog;
    use pop_types::{DataType, Schema, Value};

    #[test]
    fn render_is_stable() {
        let plan = check(
            temp(leaf(0, "t", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
        );
        let cert = certify(&plan, &LintContext::bare());
        assert_eq!(cert.worst_case_reopts, 1);
        let line = cert.render();
        assert!(line.contains("checks=1"), "{line}");
    }

    /// A CHECK over a TEMP of a 100-row analyzed table, with trigger range
    /// `range`: `(PL412 findings, certificate dead_checks)`.
    fn dead_counts(range: ValidityRange) -> (usize, usize) {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
        )
        .unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        let plan = check_with_range(
            temp(leaf(0, "t", 2, 100.0)),
            CheckFlavor::Lc,
            CheckContext::AboveTemp,
            range,
        );
        let ctx = LintContext::bare().with_stats(&stats);
        let pl412 = lint_plan(&plan, &ctx)
            .iter()
            .filter(|d| d.code.as_str() == "PL412")
            .count();
        (pl412, certify(&plan, &ctx).dead_checks)
    }

    #[test]
    fn an_unbounded_check_is_dead_in_neither_lint_nor_certificate() {
        // `[0, inf)` is an observation point, exempt from PL412; the
        // certificate counts the same checks.
        assert_eq!(dead_counts(ValidityRange::unbounded()), (0, 0));
        // A bounded range around all 100 reachable rows is dead in both.
        assert_eq!(dead_counts(ValidityRange::new(0.0, 1000.0)), (1, 1));
    }
}
