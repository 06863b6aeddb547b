//! `planlint`: run static plan verification over the DMV and TPC-H
//! workloads and pretty-print every diagnostic.
//!
//! For each query the optimizer plans under several checkpoint-flavor
//! configurations (none, each single flavor, all five) and the resulting
//! physical plan is linted in the context the driver's deny gate uses.
//! Every finding denies, so the bin exits non-zero on any finding or
//! planning failure — wired into CI as a smoke test that the optimizer
//! only emits invariant-clean plans.
//!
//! Usage: `planlint [dmv|tpch|all] [--verbose]`
//!
//! `planlint --codes` prints the table of every diagnostic code
//! (generated from [`pop::DiagCode::ALL`]; the README's PL code
//! table is produced by this subcommand).

use pop::DiagCode;
use pop::{lint_plan, LintContext, PopConfig, PopExecutor};
use pop_bench::flavor_configs;
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::QuerySpec;
use pop_storage::Catalog;
use pop_tpch::{all_queries, tpch_catalog};
use std::collections::BTreeMap;

struct Totals {
    plans: usize,
    /// Plans that failed to plan.
    failures: usize,
    /// Findings per diagnostic code.
    codes: BTreeMap<&'static str, usize>,
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
        let exec = PopExecutor::new(catalog.clone(), config).expect("analyze");
        for (name, spec) in queries {
            let plan = match exec.plan(spec, &Params::none()) {
                Ok(p) => p,
                Err(e) => {
                    println!("{label}/{name} [{flavor_name}]: PLANNING FAILED: {e}");
                    totals.failures += 1;
                    continue;
                }
            };
            totals.plans += 1;
            let diags = lint_plan(&plan, &LintContext::full(exec.catalog(), spec));
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
            }
        }
    }
}

/// Print the diagnostic-code table (markdown) from the single source of
/// truth, [`DiagCode::ALL`].
fn print_codes() {
    println!("| Code | Description |");
    println!("|------|-------------|");
    for code in DiagCode::ALL {
        println!("| {} | {} |", code.as_str(), code.title());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--codes") {
        print_codes();
        return;
    }
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let workload = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map_or("all", String::as_str);

    let mut totals = Totals {
        plans: 0,
        failures: 0,
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
    let findings: usize = totals.codes.values().sum();
    println!(
        "{} plan(s) linted: {findings} finding(s) [{}], {} planning failure(s)",
        totals.plans,
        by_code.join(", "),
        totals.failures
    );
    if findings + totals.failures > 0 {
        std::process::exit(1);
    }
}
