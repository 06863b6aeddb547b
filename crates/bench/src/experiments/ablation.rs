//! Ablation studies for the design choices highlighted in DESIGN.md.
//!
//! 1. **Validity ranges vs. fixed error thresholds** — the paper's key
//!    claim over KD98: ad-hoc thresholds either miss genuine disasters or
//!    fire when no better plan exists.
//! 2. **Intermediate-result reuse** — cost-based MV reuse vs. never
//!    reusing (§2.3: reuse is usually, but not always, right).
//! 3. **Re-optimization budget** — the termination heuristic (§7).
//! 4. **Checkpoint flavor mix** — LC-only vs. the default LC+LCEM vs.
//!    adding ECB, and ECB or ECDC alone (ECDC places checks in the SPJ
//!    queries only, and is the one flavor whose rows carry lineage).

use crate::experiments::{dmv_config, dmv_executor};
use pop::{PopConfig, ValidityMode};
use pop_expr::Params;
use pop_types::PopResult;
use serde::Serialize;

/// Aggregate outcome of one workload configuration.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Total work across the workload.
    pub total_work: f64,
    /// Total work normalized by the static (no-POP) baseline.
    pub vs_static: f64,
    /// Total re-optimizations.
    pub reopts: usize,
    /// Queries improved vs. static.
    pub improved: usize,
    /// Queries regressed vs. static.
    pub regressed: usize,
    /// Worst single-query work.
    pub max_query_work: f64,
}

/// An ablation result set.
#[derive(Debug, Clone, Serialize)]
pub struct Ablation {
    /// Which ablation this is.
    pub name: String,
    /// One row per configuration.
    pub rows: Vec<AblationRow>,
}

/// Number of DMV queries used (first N keeps runtime reasonable).
const N_QUERIES: usize = 39;

fn measure(label: &str, cfg: PopConfig, static_work: &[f64]) -> PopResult<AblationRow> {
    let exec = dmv_executor(cfg)?;
    let mut total = 0.0;
    let mut reopts = 0;
    let mut improved = 0;
    let mut regressed = 0;
    let mut max_q: f64 = 0.0;
    for (q, w0) in pop_dmv::dmv_queries()
        .into_iter()
        .take(N_QUERIES)
        .zip(static_work.iter())
    {
        let res = exec.run(&q.spec, &Params::none())?;
        let w = res.report.total_work;
        total += w;
        reopts += res.report.reopt_count;
        if w < w0 * 0.995 {
            improved += 1;
        } else if w > w0 * 1.005 {
            regressed += 1;
        }
        max_q = max_q.max(w);
    }
    Ok(AblationRow {
        config: label.to_string(),
        total_work: total,
        vs_static: total / static_work.iter().sum::<f64>(),
        reopts,
        improved,
        regressed,
        max_query_work: max_q,
    })
}

fn static_baseline() -> PopResult<Vec<f64>> {
    let exec = dmv_executor(dmv_config(false))?;
    let mut out = Vec::new();
    for q in pop_dmv::dmv_queries().into_iter().take(N_QUERIES) {
        out.push(exec.run(&q.spec, &Params::none())?.report.total_work);
    }
    Ok(out)
}

/// Validity ranges vs. KD98-style fixed thresholds.
pub fn thresholds() -> PopResult<Ablation> {
    let base = static_baseline()?;
    let mut rows = Vec::new();
    rows.push(measure("validity-ranges (POP)", dmv_config(true), &base)?);
    for k in [2.0, 5.0, 10.0] {
        let mut cfg = dmv_config(true);
        cfg.optimizer.validity_mode = ValidityMode::FixedFactor(k);
        rows.push(measure(&format!("fixed-threshold x{k}"), cfg, &base)?);
    }
    Ok(Ablation {
        name: "thresholds".into(),
        rows,
    })
}

/// Cost-based MV reuse vs. never reusing intermediate results.
pub fn mv_reuse() -> PopResult<Ablation> {
    let base = static_baseline()?;
    let mut rows = Vec::new();
    rows.push(measure(
        "mv-reuse: cost-based (POP)",
        dmv_config(true),
        &base,
    )?);
    let mut cfg = dmv_config(true);
    cfg.optimizer.use_temp_mvs = false;
    rows.push(measure("mv-reuse: never", cfg, &base)?);
    Ok(Ablation {
        name: "mv-reuse".into(),
        rows,
    })
}

/// The re-optimization budget (§7 termination heuristic).
pub fn max_reopts() -> PopResult<Ablation> {
    let base = static_baseline()?;
    let mut rows = Vec::new();
    for n in [0usize, 1, 3, 8] {
        let mut cfg = dmv_config(true);
        cfg.max_reopts = n;
        rows.push(measure(&format!("max_reopts={n}"), cfg, &base)?);
    }
    Ok(Ablation {
        name: "max-reopts".into(),
        rows,
    })
}

/// Checkpoint flavor mixes.
pub fn flavors() -> PopResult<Ablation> {
    let base = static_baseline()?;
    let mut rows = Vec::new();
    let mk = |lc: bool, lcem: bool, ecb: bool, ecdc: bool| {
        let mut cfg = dmv_config(true);
        cfg.optimizer.flavors = pop::FlavorSet {
            lc,
            lcem,
            ecb,
            ecwc: false,
            ecdc,
        };
        cfg
    };
    rows.push(measure("lc only", mk(true, false, false, false), &base)?);
    rows.push(measure(
        "lc+lcem (default)",
        mk(true, true, false, false),
        &base,
    )?);
    rows.push(measure("lc+lcem+ecb", mk(true, true, true, false), &base)?);
    rows.push(measure("ecb only", mk(false, false, true, false), &base)?);
    rows.push(measure("ecdc only", mk(false, false, false, true), &base)?);
    Ok(Ablation {
        name: "flavors".into(),
        rows,
    })
}

/// Render an ablation as a text table.
pub fn render(a: &Ablation) -> String {
    let mut out = String::new();
    out.push_str(&format!("Ablation: {}\n", a.name));
    out.push_str(&format!(
        "{:<28} {:>12} {:>9} {:>7} {:>9} {:>10} {:>12}\n",
        "config", "total_work", "vs_static", "reopts", "improved", "regressed", "max_query"
    ));
    for r in &a.rows {
        out.push_str(&format!(
            "{:<28} {:>12.0} {:>9.3} {:>7} {:>9} {:>10} {:>12.0}\n",
            r.config,
            r.total_work,
            r.vs_static,
            r.reopts,
            r.improved,
            r.regressed,
            r.max_query_work
        ));
    }
    out
}
