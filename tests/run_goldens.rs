//! Run goldens: one FNV-1a hash per (suite × configuration) over what the
//! whole POP loop does — not just the first plan (`plan_goldens.rs` pins
//! those), but what happens after a CHECK fires: which checks resolve how,
//! which one ends a step and what it observed, the work each step ends at,
//! how many temp MVs each re-plan reuses, and the rows the query returns.
//!
//! Each hash covers, per query: the re-optimization count and the bits of
//! the total work; per step, `(check id, flavor, table set, observed,
//! outcome)` of every CHECK event, the violation (check id, flavor, table
//! set, observed, estimate bits, range, forced), the bits of the step's
//! end work and its MV count; then a digest of the sorted rows. Plan text
//! is left out, so a change to how plans render does not move these.
//!
//! The configurations are independent of the `POP_*` environment (fixed
//! batch size, no budget, no faults, no cross-query learning). A
//! legitimate behaviour change re-records the constants from the failure
//! message, which prints the new hash and each suite's re-optimization
//! count.

use pop::{PopConfig, PopExecutor, RunReport};
use pop_expr::Params;
use pop_guard::Budget;
use pop_plan::{CostModel, QuerySpec};
use pop_storage::{Catalog, StorageConfig, StorageKind};
use pop_types::{fnv1a_extend, FNV1A_OFFSET};

/// The smallest scales the plan goldens use; the suites still re-optimize
/// there: TPC-H 1 time by default and 14 forced, DMV 11 and 40, DMV on
/// the paged backend 10.
const TPCH_SF: f64 = 0.0005;
const DMV_SCALE: f64 = 0.0003;

fn config(cost_model: CostModel, force_reopt_at: Option<usize>) -> PopConfig {
    PopConfig {
        cost_model,
        force_reopt_at,
        batch_size: pop_exec::DEFAULT_BATCH_SIZE,
        budget: Budget::default(),
        faults: None,
        learn_across_queries: false,
        ..PopConfig::default()
    }
}

fn mix(h: &mut u64, v: u64) {
    fnv1a_extend(h, &v.to_le_bytes());
}

fn mix_str(h: &mut u64, s: &str) {
    mix(h, s.len() as u64);
    fnv1a_extend(h, s.as_bytes());
}

/// Fold one query's run into `h`.
fn hash_run(h: &mut u64, report: &RunReport, rows: &[pop_types::Row]) {
    mix(h, report.reopt_count as u64);
    mix(h, report.total_work.to_bits());
    mix(h, report.steps.len() as u64);
    for step in &report.steps {
        mix(h, step.check_events.len() as u64);
        for ev in &step.check_events {
            mix(h, ev.check_id as u64);
            mix_str(h, &format!("{:?}", ev.flavor));
            mix(h, ev.tables.mask());
            mix_str(h, &format!("{:?}", ev.observed));
            mix_str(h, &format!("{:?}", ev.outcome));
        }
        match &step.violation {
            None => mix(h, 0),
            Some(v) => {
                mix(h, 1);
                mix(h, v.check_id as u64);
                mix_str(h, &format!("{:?}", v.flavor));
                mix(h, v.tables.mask());
                mix_str(h, &format!("{:?}", v.observed));
                mix(h, v.est_card.to_bits());
                mix(h, v.range.lo.to_bits());
                mix(h, v.range.hi.to_bits());
                mix(h, u64::from(v.forced));
            }
        }
        mix(h, step.work_end.to_bits());
        mix(h, step.mvs_used as u64);
    }
    let mut rendered: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rendered.sort_unstable();
    mix(h, rendered.len() as u64);
    for r in &rendered {
        mix_str(h, r);
    }
}

/// Run every query under `config`; returns the hash and the total number
/// of re-optimizations.
fn run_suite(
    catalog: &Catalog,
    config: PopConfig,
    queries: &[(String, QuerySpec)],
) -> (u64, usize) {
    let exec = PopExecutor::new(catalog.clone(), config).unwrap();
    let mut h = FNV1A_OFFSET;
    let mut reopts = 0;
    for (name, spec) in queries {
        let res = exec
            .run(spec, &Params::none())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!res.report.degraded, "{name}: degraded");
        reopts += res.report.reopt_count;
        mix_str(&mut h, name);
        hash_run(&mut h, &res.report, &res.rows);
    }
    (h, reopts)
}

fn check(
    suite: &str,
    catalog: &Catalog,
    queries: &[(String, QuerySpec)],
    runs: &[(&str, PopConfig, u64)],
) {
    let mut failures = Vec::new();
    for (label, config, want) in runs {
        let (h, reopts) = run_suite(catalog, config.clone(), queries);
        if h != *want {
            failures.push(format!(
                "{suite} [{label}]: runs changed ({reopts} re-optimization(s)) — new hash {h:#018x}, recorded {want:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

fn tpch_queries() -> Vec<(String, QuerySpec)> {
    pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect()
}

fn dmv_queries() -> Vec<(String, QuerySpec)> {
    pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect()
}

#[test]
fn tpch_runs_are_pinned() {
    let cat = pop_tpch::tpch_catalog_with(TPCH_SF, StorageConfig::default()).unwrap();
    check(
        "TPC-H",
        &cat,
        &tpch_queries(),
        &[
            (
                "default",
                config(CostModel::default(), None),
                0x1f9a_9c4b_76c2_e7bd,
            ),
            (
                "forced",
                config(CostModel::default(), Some(0)),
                0x0732_f208_0146_cfed,
            ),
        ],
    );
}

#[test]
fn dmv_runs_are_pinned() {
    let cat = pop_dmv::dmv_catalog_with(DMV_SCALE, StorageConfig::default()).unwrap();
    check(
        "DMV",
        &cat,
        &dmv_queries(),
        &[
            (
                "default",
                config(CostModel::default(), None),
                0xf28a_fe45_b7b7_f640,
            ),
            (
                "forced",
                config(CostModel::default(), Some(0)),
                0xfb9f_95a3_b0ba_13ac,
            ),
        ],
    );
}

#[test]
fn dmv_paged_runs_are_pinned() {
    let storage = StorageConfig {
        kind: StorageKind::Paged,
        page_size: 1024,
        buffer_pool_bytes: 64 * 1024,
        ..StorageConfig::default()
    };
    let cat = pop_dmv::dmv_catalog_with(DMV_SCALE, storage).unwrap();
    check(
        "DMV paged",
        &cat,
        &dmv_queries(),
        &[(
            "default",
            config(CostModel::paged(), None),
            0xf373_efee_59d8_c8c8,
        )],
    );
}
