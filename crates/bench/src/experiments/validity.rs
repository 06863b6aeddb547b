//! **§2.2 validation** — validity ranges from sensitivity analysis.
//!
//! Reports every checkpoint's validity range for representative TPC-H
//! queries, and demonstrates the paper's motivating asymmetry: "A 100x
//! error in cardinality of the NATION table may make no difference to
//! plan optimality, whereas a 10 percent increase in ORDERS may turn a
//! two-stage hash join into a three-stage hash join": small edges get
//! wide (often unbounded) ranges; large edges near a plan-change point
//! get tight ones.

use crate::experiments::tpch_config;
use pop::PopExecutor;
use pop_expr::Params;
use pop_tpch::tpch_catalog;
use pop_types::PopResult;
use serde::Serialize;

/// One checkpoint's range.
#[derive(Debug, Clone, Serialize)]
pub struct RangeReport {
    /// Query name.
    pub query: String,
    /// Check id.
    pub check_id: usize,
    /// Flavor.
    pub flavor: String,
    /// Placement context.
    pub context: String,
    /// Estimated cardinality at the edge.
    pub est: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound (`None` = unbounded).
    pub hi: Option<f64>,
    /// Upper slack `hi/est` (how much the cardinality may grow before the
    /// plan is provably suboptimal).
    pub upper_slack: Option<f64>,
}

/// Validity report.
#[derive(Debug, Clone, Serialize)]
pub struct ValidityReport {
    /// Per-checkpoint ranges.
    pub ranges: Vec<RangeReport>,
    /// Fraction of checkpoints with a finite upper bound.
    pub bounded_fraction: f64,
    /// Median upper slack among bounded checkpoints.
    pub median_upper_slack: Option<f64>,
}

/// Extract the checkpoint ranges of a query's plan.
fn ranges_of(exec: &PopExecutor, name: &str, q: &pop::QuerySpec) -> PopResult<Vec<RangeReport>> {
    // Plan once (observe-only config) and read the plan's check specs via
    // a run's first step events.
    let res = exec.run(q, &Params::none())?;
    Ok(res.report.steps[0]
        .check_events
        .iter()
        .map(|ev| RangeReport {
            query: name.to_string(),
            check_id: ev.check_id,
            flavor: format!("{}", ev.flavor),
            context: format!("{}", ev.context),
            est: ev.est_card,
            lo: ev.range.lo,
            hi: if ev.range.hi.is_finite() {
                Some(ev.range.hi)
            } else {
                None
            },
            upper_slack: if ev.range.hi.is_finite() && ev.est_card > 0.0 {
                Some(ev.range.hi / ev.est_card)
            } else {
                None
            },
        })
        .collect())
}

/// Run the validity-range report.
pub fn run() -> PopResult<ValidityReport> {
    let mut cfg = tpch_config(true);
    cfg.max_reopts = 0;
    let exec = PopExecutor::new(tpch_catalog(crate::experiments::TPCH_SF)?, cfg)?;
    let mut ranges = Vec::new();
    for (name, q) in [
        ("Q3", pop_tpch::q3()),
        ("Q5", pop_tpch::q5()),
        ("Q9", pop_tpch::q9()),
        ("Q10", pop_tpch::q10_selectivity_literal(10)),
    ] {
        ranges.extend(ranges_of(&exec, name, &q)?);
    }
    let bounded: Vec<f64> = ranges.iter().filter_map(|r| r.upper_slack).collect();
    let bounded_fraction = bounded.len() as f64 / ranges.len().max(1) as f64;
    let median_upper_slack = if bounded.is_empty() {
        None
    } else {
        let mut b = bounded.clone();
        b.sort_by(f64::total_cmp);
        Some(b[b.len() / 2])
    };
    Ok(ValidityReport {
        ranges,
        bounded_fraction,
        median_upper_slack,
    })
}

/// Render as a text table.
pub fn render(r: &ValidityReport) -> String {
    let mut out = String::new();
    out.push_str("Validity ranges (sensitivity analysis, §2.2)\n");
    out.push_str(&format!(
        "{:>4} {:>4} {:>6} {:>14} {:>10} {:>10} {:>10} {:>8}\n",
        "qry", "id", "flavor", "context", "est", "lo", "hi", "slack"
    ));
    for g in &r.ranges {
        out.push_str(&format!(
            "{:>4} {:>4} {:>6} {:>14} {:>10.1} {:>10.1} {:>10} {:>8}\n",
            g.query,
            g.check_id,
            g.flavor,
            g.context,
            g.est,
            g.lo,
            g.hi.map_or("inf".to_string(), |h| format!("{h:.1}")),
            g.upper_slack
                .map_or("-".to_string(), |s| format!("{s:.2}x")),
        ));
    }
    out.push_str(&format!(
        "bounded fraction: {:.2}   median upper slack: {}\n",
        r.bounded_fraction,
        r.median_upper_slack
            .map_or("-".to_string(), |s| format!("{s:.2}x"))
    ));
    out
}
