//! `planlint`: run static plan verification over the DMV and TPC-H
//! workloads and pretty-print every diagnostic.
//!
//! For each query the optimizer plans under several checkpoint-flavor
//! configurations (none, each single flavor, all five) and the resulting
//! physical plan is linted with full catalog/query/statistics context —
//! the same context the driver uses, so the interval analyses (PL41x)
//! are active. Exits non-zero if any Deny-severity finding is produced —
//! wired into CI as a smoke test that the optimizer only emits
//! invariant-clean plans.
//!
//! Usage: `planlint [dmv|tpch|all] [--verbose] [--fail-on-new]`
//!
//! * `--fail-on-new` additionally exits non-zero when the sweep emits a
//!   diagnostic code outside the pinned baseline below — CI uses this to
//!   catch regressions that introduce *new* classes of findings even at
//!   Warn severity.
//! * `planlint --codes` prints the table of every diagnostic code
//!   (generated from [`pop_planlint::DiagCode::ALL`]; the README's PL
//!   code table is produced by this subcommand).

use pop::DiagCode;
use pop::{lint_plan, FlavorSet, LintContext, PopConfig, PopExecutor, Severity};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::QuerySpec;
use pop_storage::Catalog;
use pop_tpch::{all_queries, tpch_catalog};
use std::collections::BTreeMap;

/// Diagnostic codes the sweep is allowed to emit today. Anything outside
/// this set fails a `--fail-on-new` run: a change that makes the
/// workloads trip a new lint class must either fix the plans or
/// consciously extend this baseline.
///
/// `PL412` is baselined deliberately: the remaining dead-check findings
/// are checks on edges bounded by tiny dimension tables (region/nation),
/// dead only *if the statistics hold* — and distrusting exactly that
/// assumption is why POP places them. Removing them would blind the
/// engine to stale-stats growth on those edges, so the Warn-severity
/// advisory is accepted. Genuinely dead checks (temp-MV edges whose
/// counts are runtime facts) are no longer placed at all.
const BASELINE_CODES: &[&str] = &["PL412"];

struct Totals {
    plans: usize,
    warns: usize,
    denies: usize,
    /// Findings per diagnostic code.
    codes: BTreeMap<&'static str, usize>,
}

fn flavor_configs() -> Vec<(&'static str, FlavorSet)> {
    let all = FlavorSet {
        lc: true,
        lcem: true,
        ecb: true,
        ecwc: true,
        ecdc: true,
    };
    vec![
        ("default", FlavorSet::default()),
        ("none", FlavorSet::none()),
        ("lc", FlavorSet::only(pop::CheckFlavor::Lc)),
        ("lcem", FlavorSet::only(pop::CheckFlavor::Lcem)),
        ("ecb", FlavorSet::only(pop::CheckFlavor::Ecb)),
        ("ecwc", FlavorSet::only(pop::CheckFlavor::Ecwc)),
        ("ecdc", FlavorSet::only(pop::CheckFlavor::Ecdc)),
        ("all", all),
    ]
}

fn lint_workload(
    label: &str,
    catalog: &Catalog,
    queries: &[(String, QuerySpec)],
    verbose: bool,
    totals: &mut Totals,
) {
    println!(
        "== {label}: {} queries x {} flavor configs",
        queries.len(),
        flavor_configs().len()
    );
    for (flavor_name, flavors) in flavor_configs() {
        let mut config = PopConfig::default();
        config.optimizer.flavors = flavors;
        config.cost_model.mem_rows = 4000.0;
        let expect_coverage = flavors.lc;
        let exec = PopExecutor::new(catalog.clone(), config).expect("analyze");
        for (name, spec) in queries {
            let plan = match exec.plan(spec, &Params::none()) {
                Ok(p) => p,
                Err(e) => {
                    println!("{label}/{name} [{flavor_name}]: PLANNING FAILED: {e}");
                    totals.denies += 1;
                    continue;
                }
            };
            totals.plans += 1;
            let ctx = LintContext::full(exec.catalog(), spec)
                .expect_check_coverage(expect_coverage)
                .with_stats(exec.stats());
            let diags = lint_plan(&plan, &ctx);
            if diags.is_empty() {
                if verbose {
                    println!("{label}/{name} [{flavor_name}]: ok");
                }
                continue;
            }
            println!("{label}/{name} [{flavor_name}]: {} finding(s)", diags.len());
            for d in &diags {
                println!("  {d}");
                *totals.codes.entry(d.code.as_str()).or_default() += 1;
                match d.severity {
                    Severity::Deny => totals.denies += 1,
                    Severity::Warn => totals.warns += 1,
                }
            }
        }
    }
}

/// Print the diagnostic-code table (markdown) from the single source of
/// truth, [`DiagCode::ALL`].
fn print_codes() {
    println!("| Code | Severity | Description |");
    println!("|------|----------|-------------|");
    for code in DiagCode::ALL {
        let sev = match code.severity() {
            Severity::Deny => "Deny",
            Severity::Warn => "Warn",
        };
        println!("| {} | {} | {} |", code.as_str(), sev, code.title());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--codes") {
        print_codes();
        return;
    }
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let fail_on_new = args.iter().any(|a| a == "--fail-on-new");
    let workload = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map_or("all", String::as_str);

    let mut totals = Totals {
        plans: 0,
        warns: 0,
        denies: 0,
        codes: BTreeMap::new(),
    };
    if workload == "dmv" || workload == "all" {
        let queries: Vec<(String, QuerySpec)> = dmv_queries()
            .into_iter()
            .map(|q| (q.name, q.spec))
            .collect();
        lint_workload(
            "dmv",
            &dmv_catalog(0.0003).expect("dmv catalog"),
            &queries,
            verbose,
            &mut totals,
        );
    }
    if workload == "tpch" || workload == "all" {
        let queries: Vec<(String, QuerySpec)> = all_queries()
            .into_iter()
            .map(|(n, spec)| (n.to_string(), spec))
            .collect();
        lint_workload(
            "tpch",
            &tpch_catalog(0.005).expect("tpch catalog"),
            &queries,
            verbose,
            &mut totals,
        );
    }
    let by_code: Vec<String> = totals
        .codes
        .iter()
        .map(|(code, n)| format!("{code} x{n}"))
        .collect();
    println!(
        "{} plan(s) linted: {} warning(s), {} denial(s) [{}]",
        totals.plans,
        totals.warns,
        totals.denies,
        by_code.join(", ")
    );
    let new_codes: Vec<&&str> = totals
        .codes
        .keys()
        .filter(|c| !BASELINE_CODES.contains(*c))
        .collect();
    if fail_on_new && !new_codes.is_empty() {
        println!("new diagnostic code(s) outside the baseline: {new_codes:?}");
        std::process::exit(1);
    }
    if totals.denies > 0 {
        std::process::exit(1);
    }
}
