//! **Figure 13** — Cost of Lazy Checking with Eager Materialization.
//!
//! All join methods enabled; LCEM check/materialization pairs are added
//! on the outer of every NLJN; queries run **without** any
//! re-optimization. The figure plots the work increase caused purely by
//! the added materializations, normalized by the plain execution time —
//! the paper reports ≤ ~3%, validating the heuristic that NLJN outers
//! are small enough to materialize aggressively.

use crate::experiments::tpch_config;
use pop_expr::Params;
use pop_types::PopResult;
use serde::Serialize;

/// One bar.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Bar {
    /// Query name.
    pub query: String,
    /// Work with LCEM materializations, normalized (1.0 = no checks).
    pub normalized: f64,
    /// Number of LCEM checkpoints placed.
    pub lcem_count: usize,
}

/// Figure 13 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// Bars.
    pub bars: Vec<Fig13Bar>,
    /// Maximum normalized cost (paper: ~1.03).
    pub max_normalized: f64,
}

/// Run the Figure 13 experiment.
pub fn run() -> PopResult<Fig13> {
    let queries = [
        ("Q3", pop_tpch::q3()),
        ("Q4", pop_tpch::q4()),
        ("Q5", pop_tpch::q5()),
        ("Q7", pop_tpch::q7()),
        ("Q9", pop_tpch::q9()),
    ];
    let mut lcem_cfg = tpch_config(true);
    lcem_cfg.max_reopts = 0;
    lcem_cfg.optimizer.flavors = pop::FlavorSet {
        lc: false,
        lcem: true,
        ecb: false,
        ecwc: false,
        ecdc: false,
    };
    let lcem_exec = crate::experiments::tpch_executor(lcem_cfg)?;
    let plain_exec = crate::experiments::tpch_executor(tpch_config(false))?;
    let mut bars = Vec::new();
    for (name, q) in &queries {
        let with = lcem_exec.run(q, &Params::none())?;
        let without = plain_exec.run(q, &Params::none())?;
        let lcem_count = with.report.steps[0]
            .check_events
            .iter()
            .filter(|e| e.flavor == pop::CheckFlavor::Lcem)
            .count();
        bars.push(Fig13Bar {
            query: name.to_string(),
            normalized: with.report.total_work / without.report.total_work,
            lcem_count,
        });
    }
    let max_normalized = bars.iter().map(|b| b.normalized).fold(0.0, f64::max);
    Ok(Fig13 {
        bars,
        max_normalized,
    })
}

/// Render as a text table.
pub fn render(r: &Fig13) -> String {
    let mut out = String::new();
    out.push_str("Figure 13 — Cost of LCEM (no re-optimization), normalized\n");
    out.push_str(&format!(
        "{:>4} {:>10} {:>8}\n",
        "qry", "normalized", "#LCEM"
    ));
    for b in &r.bars {
        out.push_str(&format!(
            "{:>4} {:>10.4} {:>8}\n",
            b.query, b.normalized, b.lcem_count
        ));
    }
    out.push_str(&format!("max: {:.4}\n", r.max_normalized));
    out
}
