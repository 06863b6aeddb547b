//! **Table 1** — Placement, risk and opportunity per checkpoint flavor.
//!
//! The paper's Table 1 is qualitative; this experiment grounds it in
//! measurements: for each flavor alone, the TPC-H suite runs observe-only
//! and we report the placement overhead (risk proxy: normalized work with
//! checks but no re-optimization) and the opportunity (checkpoints per
//! query and their mean position in execution). TPC-H is all-aggregate and
//! ECDC goes only into SPJ plans, so the ECDC row adds the DMV queries
//! that have no aggregate.

use crate::experiments::{dmv_executor, tpch_config, tpch_executor};
use pop::{CheckFlavor, PopConfig, PopExecutor, QuerySpec};
use pop_expr::Params;
use pop_types::PopResult;
use serde::Serialize;

/// One row of the measured Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Flavor name.
    pub flavor: String,
    /// The queries the row is measured over.
    pub workload: String,
    /// Paper's placement rule (qualitative).
    pub placement: &'static str,
    /// Paper's risk assessment (qualitative).
    pub paper_risk: &'static str,
    /// Measured: work with checkpoints / work without (no reopt).
    pub overhead: f64,
    /// Measured: checkpoints encountered per query (mean).
    pub opportunities_per_query: f64,
    /// Measured: mean position in execution when the check resolves.
    pub mean_position: f64,
}

/// Measured Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Rows, one per flavor.
    pub rows: Vec<Table1Row>,
}

/// Queries of one suite with their work without checkpoints.
struct Workload {
    name: String,
    executor: fn(PopConfig) -> PopResult<PopExecutor>,
    queries: Vec<QuerySpec>,
    base_work: Vec<f64>,
}

impl Workload {
    fn new(
        name: &str,
        executor: fn(PopConfig) -> PopResult<PopExecutor>,
        queries: Vec<QuerySpec>,
    ) -> PopResult<Self> {
        let plain = executor(tpch_config(false))?;
        let base_work = queries
            .iter()
            .map(|q| Ok(plain.run(q, &Params::none())?.report.total_work))
            .collect::<PopResult<_>>()?;
        Ok(Workload {
            name: format!("{name} ({})", queries.len()),
            executor,
            queries,
            base_work,
        })
    }
}

/// Sums over the queries a row is measured on.
#[derive(Default)]
struct Tally {
    queries: usize,
    ratio: f64,
    checks: usize,
    position: f64,
}

/// Run `w` observe-only with `flavor` alone, adding to `t`.
fn observe(w: &Workload, flavor: CheckFlavor, t: &mut Tally) -> PopResult<()> {
    let mut cfg = tpch_config(true);
    cfg.max_reopts = 0;
    cfg.optimizer.flavors = pop::FlavorSet::only(flavor);
    let exec = (w.executor)(cfg)?;
    for (q, w0) in w.queries.iter().zip(&w.base_work) {
        let res = exec.run(q, &Params::none())?;
        t.queries += 1;
        t.ratio += res.report.total_work / w0;
        let total = res.report.total_work.max(1.0);
        for ev in &res.report.steps[0].check_events {
            t.checks += 1;
            t.position += ev.at_work / total;
        }
    }
    Ok(())
}

/// Run the Table 1 measurement.
pub fn run() -> PopResult<Table1> {
    let tpch_queries = pop_tpch::all_queries().into_iter().map(|(_, q)| q);
    let tpch = Workload::new("TPC-H", tpch_executor, tpch_queries.collect())?;
    let spj = pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| q.spec)
        .filter(|q| q.aggregate.is_none());
    let dmv_spj = Workload::new("DMV SPJ", dmv_executor, spj.collect())?;
    let flavors = [
        (
            CheckFlavor::Lc,
            "above materialization points (SORT/TEMP/HJ build)",
            "very low: counting only",
        ),
        (
            CheckFlavor::Lcem,
            "TEMP+CHECK pairs on NLJN outers",
            "low: extra materialization",
        ),
        (
            CheckFlavor::Ecb,
            "BUFCHECK on NLJN outers",
            "high: exact card unavailable on failure",
        ),
        (
            CheckFlavor::Ecwc,
            "below materialization points",
            "high: may discard arbitrary work",
        ),
        (
            CheckFlavor::Ecdc,
            "anywhere in SPJ plans (rid side table)",
            "high: may discard arbitrary work",
        ),
    ];
    let mut rows = Vec::new();
    for (flavor, placement, paper_risk) in flavors {
        let workloads: &[&Workload] = if flavor == CheckFlavor::Ecdc {
            &[&tpch, &dmv_spj]
        } else {
            &[&tpch]
        };
        let mut t = Tally::default();
        for w in workloads {
            observe(w, flavor, &mut t)?;
        }
        let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
        rows.push(Table1Row {
            flavor: format!("{flavor}"),
            workload: names.join(" + "),
            placement,
            paper_risk,
            overhead: t.ratio / t.queries as f64,
            opportunities_per_query: t.checks as f64 / t.queries as f64,
            mean_position: if t.checks == 0 {
                0.0
            } else {
                t.position / t.checks as f64
            },
        });
    }
    Ok(Table1 { rows })
}

/// Render as a text table.
pub fn render(r: &Table1) -> String {
    let mut out = String::new();
    out.push_str("Table 1 — Placement, measured risk (overhead) and opportunity per flavor\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>8} {:>9}  {:<22} {}\n",
        "flavor", "overhead", "opps/q", "mean-pos", "workload", "placement"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:>6} {:>10.4} {:>8.1} {:>9.3}  {:<22} {}  (paper risk: {})\n",
            row.flavor,
            row.overhead,
            row.opportunities_per_query,
            row.mean_position,
            row.workload,
            row.placement,
            row.paper_risk
        ));
    }
    out
}
