//! Plan goldens: one FNV-1a hash per (suite × flavor set) over the rendered
//! plans of every TPC-H and DMV query. The end-to-end suites compare result
//! rows, which a changed plan usually leaves alone; this pins the plans
//! themselves — join order, operators, costs, CHECK ids, flavors and ranges
//! — so a refactor of how plans are *built* cannot silently change *which*
//! plans are built. Each `FlavorSet::only(..)` runs beside the default set
//! so every arm of CHECK placement is exercised.
//!
//! A legitimate plan change re-records the constants from the failure
//! message (which prints the new hash).

use pop::{PopConfig, PopExecutor};
use pop_expr::Params;
use pop_optimizer::{CostModel, FlavorSet, OptimizerConfig};
use pop_plan::{CheckFlavor, QuerySpec};
use pop_storage::StorageConfig;

const TPCH_SF: f64 = 0.0005;
const DMV_SCALE: f64 = 0.0003;

/// The default flavor set, then each flavor alone.
fn flavor_sets() -> [(&'static str, FlavorSet); 6] {
    [
        ("default", OptimizerConfig::default().flavors),
        ("LC", FlavorSet::only(CheckFlavor::Lc)),
        ("LCEM", FlavorSet::only(CheckFlavor::Lcem)),
        ("ECB", FlavorSet::only(CheckFlavor::Ecb)),
        ("ECWC", FlavorSet::only(CheckFlavor::Ecwc)),
        ("ECDC", FlavorSet::only(CheckFlavor::Ecdc)),
    ]
}

/// Mem backend, flat cost model, one thread — independent of the `POP_*`
/// environment, so the hashes mean the same thing in every CI job.
fn config(flavors: FlavorSet) -> PopConfig {
    PopConfig {
        optimizer: OptimizerConfig {
            flavors,
            ..OptimizerConfig::default()
        },
        cost_model: CostModel::default(),
        ..PopConfig::default()
    }
}

fn check_suite(
    suite: &str,
    mut exec: PopExecutor,
    queries: &[(String, QuerySpec)],
    expected: [u64; 6],
) {
    let mut failures = Vec::new();
    for ((label, flavors), want) in flavor_sets().into_iter().zip(expected) {
        *exec.config_mut() = config(flavors);
        let mut h = pop_types::FNV1A_OFFSET;
        for (name, spec) in queries {
            let plan = exec
                .plan(spec, &Params::none())
                .unwrap_or_else(|e| panic!("{suite} {name} [{label}]: {e}"));
            pop_types::fnv1a_extend(&mut h, plan.to_string().as_bytes());
        }
        if h != want {
            failures.push(format!(
                "{suite} [{label}]: plans changed — new hash {h:#018x}, recorded {want:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn tpch_plans_are_pinned() {
    let cat = pop_tpch::tpch_catalog_with(TPCH_SF, StorageConfig::default()).unwrap();
    let queries: Vec<_> = pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    assert_eq!(queries.len(), 17);
    check_suite(
        "TPC-H",
        PopExecutor::new(cat, config(FlavorSet::none())).unwrap(),
        &queries,
        [
            0x967d_ce20_a135_db5f,
            0x61d1_3260_f8ae_752b,
            0xd861_6dda_a56c_03b5,
            0x12ab_aac4_acb4_f632,
            0xe98e_a572_eeee_8c1c,
            0x52be_0f8d_1816_6f20,
        ],
    );
}

#[test]
fn dmv_plans_are_pinned() {
    let cat = pop_dmv::dmv_catalog_with(DMV_SCALE, StorageConfig::default()).unwrap();
    let queries: Vec<_> = pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect();
    assert_eq!(queries.len(), 39);
    check_suite(
        "DMV",
        PopExecutor::new(cat, config(FlavorSet::none())).unwrap(),
        &queries,
        [
            0xc7a0_dd49_a42e_e375,
            0x8aa3_a791_6adf_75ce,
            0x03bd_4c00_0649_bc0d,
            0x5e7b_10b4_c5a9_009d,
            0x40f5_6f62_bfc5_79e9,
            0xf66a_d3b1_3475_afba,
        ],
    );
}

/// The validity-range root search (§2.2's Newton-Raphson) runs for the
/// joins of the extracted plan only, not at every prune in the memo: on a
/// fresh memo each, no DMV query evaluates more cost differences than
/// `max_evals_per_join` (≤ 4 pruned siblings × 2 edges × 2 searches × 27
/// evaluations = 432) per join. Solving at every prune, as the engine once
/// did, evaluated 445,846 differences over this suite at this scale, and
/// 29 of the 39 queries broke their cap (DMV11: 42,175 against 4,320), so
/// the total is also held to a twentieth of that.
#[test]
fn root_search_runs_only_on_the_extracted_plan() {
    const SOLVED_AT_EVERY_PRUNE: usize = 445_846;
    let cat = pop_dmv::dmv_catalog_with(DMV_SCALE, StorageConfig::default()).unwrap();
    let stats = pop_stats::StatsRegistry::new();
    stats.analyze_all(&cat).unwrap();
    let cfg = OptimizerConfig::default();
    let cost = CostModel::default();
    let feedback = pop_optimizer::FeedbackCache::new();
    let ctx = pop_optimizer::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &feedback);
    let cap = pop_optimizer::validity::max_evals_per_join(cfg.nr_iterations);
    assert_eq!(cap, 432);
    let mut total = 0;
    let mut failures = Vec::new();
    for q in pop_dmv::dmv_queries() {
        let (_, memo) = pop_optimizer::optimize(&q.spec, &ctx, &mut pop_optimizer::Memo::new())
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let joins = q.spec.tables.len() - 1;
        if memo.diff_evals > cap * joins {
            failures.push(format!(
                "{}: {} cost differences for {joins} join(s), cap {}",
                q.name,
                memo.diff_evals,
                cap * joins
            ));
        }
        total += memo.diff_evals;
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
    assert!(
        total * 20 <= SOLVED_AT_EVERY_PRUNE,
        "{total} cost differences over the suite, more than a twentieth of {SOLVED_AT_EVERY_PRUNE}"
    );
}
