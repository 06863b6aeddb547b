//! Re-opt-point sweep: the result multiset does not depend on where a
//! re-optimization happens. Every query of the TPC-H and DMV suites (the
//! `plan_goldens.rs` scales, mem backend) runs once as it is and once with
//! a forced re-optimization (`force_reopt_at`) at each CHECK of its first
//! plan in turn, under the default flavors, ECB, ECWC and ECDC alone, and
//! all five together. Each run must complete
//! — a step that returned rows it cannot compensate for is a typed error —
//! and return the rows of the `without_pop()` run, floats to a relative
//! tolerance (a plan may add a `SUM` in another order).
//!
//! Rows carry lineage only under ECDC or an INSERT
//! (`PopExecutor::carries_lineage`): the sweep is what shows that no other
//! flavor returns a row before it re-optimizes.

mod common;

use pop::{PopConfig, PopExecutor};
use pop_expr::Params;
use pop_guard::Budget;
use pop_optimizer::{CostModel, FlavorSet, OptimizerConfig};
use pop_plan::{CheckFlavor, QuerySpec};
use pop_storage::{Catalog, StorageConfig};

const TPCH_SF: f64 = 0.0005;
const DMV_SCALE: f64 = 0.0003;

fn flavor_sets() -> [(&'static str, FlavorSet); 5] {
    let all = FlavorSet {
        lc: true,
        lcem: true,
        ecb: true,
        ecwc: true,
        ecdc: true,
    };
    [
        ("default", FlavorSet::default()),
        ("ECB", FlavorSet::only(CheckFlavor::Ecb)),
        ("ECWC", FlavorSet::only(CheckFlavor::Ecwc)),
        ("ECDC", FlavorSet::only(CheckFlavor::Ecdc)),
        ("all", all),
    ]
}

/// Independent of the `POP_*` environment: flat cost model, default batch
/// size, no budget, faults or cross-query learning.
fn config(flavors: FlavorSet, force_reopt_at: Option<usize>) -> PopConfig {
    PopConfig {
        optimizer: OptimizerConfig {
            flavors,
            ..OptimizerConfig::default()
        },
        cost_model: CostModel::default(),
        force_reopt_at,
        batch_size: pop_exec::DEFAULT_BATCH_SIZE,
        budget: Budget::default(),
        faults: None,
        learn_across_queries: false,
        ..PopConfig::default()
    }
}

/// What one suite's sweep did.
#[derive(Debug, Default)]
struct Tally {
    /// Runs, forced or not.
    runs: usize,
    /// Runs with a step that returned rows before it re-optimized, by
    /// flavor set.
    compensated: Vec<(&'static str, usize)>,
}

fn sweep(suite: &str, catalog: &Catalog, queries: &[(String, QuerySpec)]) -> Tally {
    let baseline = PopExecutor::new(catalog.clone(), PopConfig::without_pop()).unwrap();
    let expected: Vec<_> = queries
        .iter()
        .map(|(name, spec)| {
            baseline
                .run(spec, &Params::none())
                .unwrap_or_else(|e| panic!("{suite} {name} without POP: {e}"))
                .rows
        })
        .collect();
    let mut exec = PopExecutor::with_stats(
        catalog.clone(),
        baseline.stats().clone(),
        config(FlavorSet::none(), None),
    );
    let mut tally = Tally::default();
    for (label, flavors) in flavor_sets() {
        let mut compensated = 0;
        for ((name, spec), want) in queries.iter().zip(&expected) {
            *exec.config_mut() = config(flavors, None);
            let plan = exec
                .plan(spec, &Params::none())
                .unwrap_or_else(|e| panic!("{suite} {name} [{label}]: {e}"));
            let forced: Vec<_> = plan.checks().iter().map(|c| Some(c.id)).collect();
            for k in std::iter::once(None).chain(forced) {
                *exec.config_mut() = config(flavors, k);
                let what = format!("{suite} {name} [{label}] forced at check {k:?}");
                let res = exec
                    .run(spec, &Params::none())
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                tally.runs += 1;
                let early = res
                    .report
                    .steps
                    .iter()
                    .any(|s| s.violation.is_some() && s.rows_emitted > 0);
                compensated += usize::from(early);
                assert!(
                    !early || exec.carries_lineage(spec),
                    "{what}: a step returned rows before re-optimizing without lineage"
                );
                common::assert_rows_equal(res.rows, want.clone(), &what);
            }
        }
        tally.compensated.push((label, compensated));
    }
    tally
}

fn tpch() -> (Catalog, Vec<(String, QuerySpec)>) {
    let cat = pop_tpch::tpch_catalog_with(TPCH_SF, StorageConfig::default()).unwrap();
    let queries = pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    (cat, queries)
}

fn dmv() -> (Catalog, Vec<(String, QuerySpec)>) {
    let cat = pop_dmv::dmv_catalog_with(DMV_SCALE, StorageConfig::default()).unwrap();
    let queries = pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect();
    (cat, queries)
}

/// Every run and forced re-optimization point of both suites, one suite a
/// thread.
/// Only ECDC ever returns rows before a re-optimization (then lineage
/// compensates them), and the DMV suite's SPJ queries make it do so.
#[test]
fn every_reopt_point_returns_the_static_rows() {
    let tpch = std::thread::spawn(|| {
        let (cat, queries) = tpch();
        sweep("TPC-H", &cat, &queries)
    });
    let (cat, queries) = dmv();
    let dmv = sweep("DMV", &cat, &queries);
    let tpch = tpch.join().expect("the TPC-H sweep");
    println!("TPC-H: {tpch:?}\nDMV: {dmv:?}");
    for tally in [&tpch, &dmv] {
        for &(label, n) in &tally.compensated {
            assert!(
                n == 0 || label == "ECDC" || label == "all",
                "{label} returned rows before re-optimizing in {n} run(s)"
            );
        }
    }
    let ecdc = dmv.compensated.iter().find(|(l, _)| *l == "ECDC");
    assert!(
        ecdc.is_some_and(|(_, n)| *n > 0),
        "no DMV run under ECDC compensated returned rows: {dmv:?}"
    );
}
