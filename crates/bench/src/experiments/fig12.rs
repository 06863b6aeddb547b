//! **Figure 12** — Overhead of LC re-optimization.
//!
//! The paper disables hash join (so plans are full of SORT
//! materialization points guarded by LC checks), then *forces* a dummy
//! re-optimization at individual checkpoints of Q3, Q4, Q5, Q7 and Q9.
//! Because the fed-back cardinalities are exact, the re-optimized plan is
//! normally identical; the measured slowdown is pure POP overhead:
//! context switching plus the optimizer invocation (paper: ~2–3%).

use crate::experiments::tpch_config;
use pop_expr::Params;
use pop_types::PopResult;
use serde::Serialize;

/// One bar of the figure: a query re-optimized at one checkpoint.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Bar {
    /// Query name.
    pub query: String,
    /// Which checkpoint (a, b, ...) was forced.
    pub checkpoint: String,
    /// Check id forced.
    pub check_id: usize,
    /// Fraction of baseline execution spent before the re-optimization.
    pub before_frac: f64,
    /// Fraction spent in the optimizer call itself.
    pub opt_frac: f64,
    /// Fraction spent after the re-optimization.
    pub after_frac: f64,
    /// Total normalized execution time (1.0 = no re-optimization).
    pub total: f64,
    /// Did the dummy re-optimization change the plan shape?
    pub plan_changed: bool,
}

/// Figure 12 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// Bars, grouped by query.
    pub bars: Vec<Fig12Bar>,
    /// Mean overhead across bars (total - 1.0).
    pub mean_overhead: f64,
}

fn lc_only_config(enabled: bool) -> pop::PopConfig {
    let mut cfg = tpch_config(enabled);
    cfg.optimizer.joins.hsjn = false; // the paper's setup for this figure
    cfg.optimizer.flavors = pop::FlavorSet {
        lc: true,
        lcem: false,
        ecb: false,
        ecwc: false,
        ecdc: false,
    };
    cfg
}

/// Run the Figure 12 experiment.
pub fn run() -> PopResult<Fig12> {
    let queries = [
        ("Q3", pop_tpch::q3()),
        ("Q4", pop_tpch::q4()),
        ("Q5", pop_tpch::q5()),
        ("Q7", pop_tpch::q7()),
        ("Q9", pop_tpch::q9()),
    ];
    let mut bars = Vec::new();
    for (name, q) in &queries {
        // Baseline: observe-only, to measure W0 and enumerate checkpoints.
        let mut base_cfg = lc_only_config(true);
        base_cfg.max_reopts = 0;
        let base_exec = crate::experiments::tpch_executor(base_cfg)?;
        let base = base_exec.run(q, &Params::none())?;
        let w0 = base.report.total_work;
        // Candidate checkpoints in execution order, excluding those that
        // resolve at the very end of the query (a re-optimization there
        // can reuse nothing — the paper's bars are taken from genuine
        // mid-execution checkpoints).
        let mut events: Vec<(f64, usize)> = base.report.steps[0]
            .check_events
            .iter()
            .map(|e| (e.at_work / w0, e.check_id))
            .filter(|(frac, _)| *frac < 0.9)
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut ids: Vec<usize> = events.iter().map(|(_, id)| *id).collect();
        ids.dedup();
        // Force a reopt at up to two distinct checkpoints (the paper's
        // bars a and b): the earliest and the latest eligible one.
        if ids.len() > 2 {
            ids = vec![ids[0], *ids.last().expect("nonempty")];
        }
        for (k, id) in ids.iter().take(2).enumerate() {
            let mut cfg = lc_only_config(true);
            cfg.force_reopt_at = Some(*id);
            let exec = crate::experiments::tpch_executor(cfg.clone())?;
            let res = exec.run(q, &Params::none())?;
            let before = res.report.steps.first().map_or(0.0, pop::StepReport::work);
            let after: f64 = res
                .report
                .steps
                .iter()
                .skip(1)
                .map(pop::StepReport::work)
                .sum();
            bars.push(Fig12Bar {
                query: name.to_string(),
                checkpoint: ["a", "b"][k].to_string(),
                check_id: *id,
                before_frac: before / w0,
                opt_frac: pop::REOPT_WORK / w0,
                after_frac: after / w0,
                total: res.report.total_work / w0,
                plan_changed: res.report.plan_changed(),
            });
        }
    }
    let mean_overhead = if bars.is_empty() {
        0.0
    } else {
        bars.iter().map(|b| b.total - 1.0).sum::<f64>() / bars.len() as f64
    };
    Ok(Fig12 {
        bars,
        mean_overhead,
    })
}

/// Render as a text table.
pub fn render(r: &Fig12) -> String {
    let mut out = String::new();
    out.push_str("Figure 12 — Normalized execution time with forced LC re-optimization\n");
    out.push_str(&format!(
        "{:>4} {:>3} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "qry", "cp", "before", "opt", "after", "total", "plan"
    ));
    for b in &r.bars {
        out.push_str(&format!(
            "{:>4} {:>3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8}\n",
            b.query,
            b.checkpoint,
            b.before_frac,
            b.opt_frac,
            b.after_frac,
            b.total,
            if b.plan_changed { "changed" } else { "same" }
        ));
    }
    out.push_str(&format!(
        "mean overhead vs no re-optimization: {:+.1}%\n",
        r.mean_overhead * 100.0
    ));
    out
}
