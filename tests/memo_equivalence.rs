//! Differential equivalence of the incremental memo across the full
//! TPC-H and DMV suites: every optimization step runs with `verify_memo`,
//! which re-plans on a fresh memo (every group re-derived) and fails the
//! step on any divergence (cost bits or rendered plan) from the
//! persistent memo's incremental answer.

use pop::{PopConfig, PopExecutor};
use pop_expr::Params;

const TPCH_SF: f64 = 0.0005;
const DMV_SCALE: f64 = 0.0003;

fn verifying_config() -> PopConfig {
    PopConfig {
        verify_memo: true,
        ..PopConfig::default()
    }
}

#[test]
fn tpch_suite_incremental_matches_fresh_memo() {
    let exec =
        PopExecutor::new(pop_tpch::tpch_catalog(TPCH_SF).unwrap(), verifying_config()).unwrap();
    let mut reused_total = 0usize;
    for (name, q) in pop_tpch::extended_queries() {
        let res = exec
            .run(&q, &Params::none())
            .unwrap_or_else(|e| panic!("{name}: fresh-memo verification failed: {e}"));
        for (i, s) in res.report.steps.iter().enumerate() {
            let m = s
                .memo
                .unwrap_or_else(|| panic!("{name} step {i}: no memo stats"));
            assert!(m.groups_total > 0, "{name} step {i}: empty memo");
            // The first step of a new query rebuilds; re-optimization
            // steps of the *same* query must not (only feedback facts and
            // temp MVs changed, both handled by dirty propagation).
            if i == 0 {
                assert!(m.rebuilt, "{name}: first step should rebuild");
            } else {
                assert!(
                    !m.rebuilt,
                    "{name} step {i}: re-optimization forced a full rebuild"
                );
                reused_total += m.groups_reused;
            }
        }
    }
    assert!(
        reused_total > 0,
        "no memo group was ever reused across a re-optimization"
    );
}

#[test]
fn dmv_suite_incremental_matches_fresh_memo() {
    let exec =
        PopExecutor::new(pop_dmv::dmv_catalog(DMV_SCALE).unwrap(), verifying_config()).unwrap();
    let mut ran = 0usize;
    for q in pop_dmv::dmv_queries() {
        let res = exec
            .run(&q.spec, &Params::none())
            .unwrap_or_else(|e| panic!("{}: fresh-memo verification failed: {e}", q.name));
        for (i, s) in res.report.steps.iter().enumerate() {
            assert!(
                s.memo.is_some(),
                "{} step {i}: no memo stats on a planned step",
                q.name
            );
        }
        ran += 1;
    }
    assert_eq!(ran, 39);
}
