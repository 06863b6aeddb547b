//! **Figure 14** — Opportunities for the various checkpoint flavors.
//!
//! Checkpoints are placed (LC above TEMP/SORT, LC above hash-join builds,
//! LCEM on NLJN outers; ECB in a second configuration) but
//! re-optimization is disabled, so every checkpoint is encountered. The
//! figure plots *when* during query execution each checkpoint resolves,
//! as a fraction of total work — ECB checkpoints span an interval (they
//! begin observing before the materialization completes).

use crate::experiments::tpch_config;
use pop::CheckContext;
use pop_expr::Params;
use pop_types::PopResult;
use serde::Serialize;

/// One plotted checkpoint occurrence.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14Point {
    /// Query name.
    pub query: String,
    /// Checkpoint kind, as plotted by the paper: `lc-sort-temp`,
    /// `lc-hash-build`, `lcem`, `ecb`.
    pub kind: String,
    /// Fraction of query execution when the checkpoint began observing.
    pub start_frac: f64,
    /// Fraction of query execution when the checkpoint resolved.
    pub end_frac: f64,
}

/// Figure 14 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14 {
    /// All checkpoint occurrences.
    pub points: Vec<Fig14Point>,
    /// Mean resolution position of the lazy checkpoints.
    pub mean_lazy_position: f64,
}

fn classify(context: CheckContext, flavor: pop::CheckFlavor) -> Option<&'static str> {
    match (flavor, context) {
        (pop::CheckFlavor::Lcem, _) => Some("lcem"),
        (pop::CheckFlavor::Ecb, _) => Some("ecb"),
        (pop::CheckFlavor::Lc, CheckContext::HashBuild) => Some("lc-hash-build"),
        (pop::CheckFlavor::Lc, CheckContext::AboveSort | CheckContext::AboveTemp) => {
            Some("lc-sort-temp")
        }
        _ => None,
    }
}

/// Run the Figure 14 experiment.
pub fn run() -> PopResult<Fig14> {
    let queries = pop_tpch::all_queries();
    let wanted = ["Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q11", "Q18"];
    let mut points = Vec::new();
    for ecb in [false, true] {
        let mut cfg = tpch_config(true);
        cfg.max_reopts = 0;
        cfg.optimizer.flavors = pop::FlavorSet {
            lc: !ecb,
            lcem: !ecb,
            ecb,
            ecwc: false,
            ecdc: false,
        };
        let exec = crate::experiments::tpch_executor(cfg)?;
        for (name, q) in &queries {
            if !wanted.contains(name) {
                continue;
            }
            let res = exec.run(q, &Params::none())?;
            let total = res.report.total_work.max(1.0);
            for ev in &res.report.steps[0].check_events {
                if let Some(kind) = classify(ev.context, ev.flavor) {
                    points.push(Fig14Point {
                        query: name.to_string(),
                        kind: kind.to_string(),
                        start_frac: (ev.started_at / total).clamp(0.0, 1.0),
                        end_frac: (ev.at_work / total).clamp(0.0, 1.0),
                    });
                }
            }
        }
    }
    let lazy: Vec<f64> = points
        .iter()
        .filter(|p| p.kind != "ecb")
        .map(|p| p.end_frac)
        .collect();
    let mean_lazy_position = if lazy.is_empty() {
        0.0
    } else {
        lazy.iter().sum::<f64>() / lazy.len() as f64
    };
    Ok(Fig14 {
        points,
        mean_lazy_position,
    })
}

/// Render as a text scatter.
pub fn render(r: &Fig14) -> String {
    let mut out = String::new();
    out.push_str("Figure 14 — Checkpoint opportunities (fraction of execution completed)\n");
    out.push_str(&format!(
        "{:>4} {:>14} {:>8} {:>8}\n",
        "qry", "kind", "start", "end"
    ));
    let mut sorted = r.points.clone();
    sorted.sort_by(|a, b| {
        (a.query.clone(), a.end_frac.total_cmp(&b.end_frac) as i32)
            .partial_cmp(&(b.query.clone(), 0))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for p in &r.points {
        if p.kind == "ecb" {
            out.push_str(&format!(
                "{:>4} {:>14} {:>8.3} {:>8.3}  [interval]\n",
                p.query, p.kind, p.start_frac, p.end_frac
            ));
        } else {
            out.push_str(&format!(
                "{:>4} {:>14} {:>8} {:>8.3}\n",
                p.query, p.kind, "-", p.end_frac
            ));
        }
    }
    out.push_str(&format!(
        "mean lazy checkpoint position: {:.3}\n",
        r.mean_lazy_position
    ));
    out
}
