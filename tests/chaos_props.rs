//! Property-based chaos: random fault seeds against the DMV workload at
//! batch sizes 1 and 1024 (the exec-equivalence extremes).
//!
//! For every seed-derived [`FaultPlan`] the engine must uphold the same
//! invariants the directed chaos sweep checks: a run either completes
//! with exactly the no-fault baseline rows (no drops, no duplicates
//! through compensation) or fails with a typed error — and either way
//! the catalog holds zero temporary MVs afterwards.
//!
//! Fault occurrence indices count *hook-site hits*, which depend on the
//! batch size (a scan at batch 1 reaches its read hook far more often),
//! so outcomes are not compared across batch sizes — each size is held
//! to the invariants independently.

use pop::{FaultPlan, PopConfig, PopExecutor};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::Params;
use pop_plan::QuerySpec;
use pop_types::{PopError, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

const DMV_SCALE: f64 = 0.0003;

struct Fixture {
    queries: Vec<(String, QuerySpec)>,
    baselines: Vec<Vec<Vec<Value>>>,
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Workload slice and its no-fault baselines, computed once.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let queries: Vec<(String, QuerySpec)> = dmv_queries()
            .into_iter()
            .take(4)
            .map(|q| (q.name, q.spec))
            .collect();
        let exec =
            PopExecutor::new(dmv_catalog(DMV_SCALE).unwrap(), PopConfig::without_pop()).unwrap();
        let baselines = queries
            .iter()
            .map(|(name, q)| {
                sorted(
                    exec.run(q, &Params::none())
                        .unwrap_or_else(|e| panic!("{name} baseline failed: {e}"))
                        .rows,
                )
            })
            .collect();
        Fixture { queries, baselines }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn seeded_faults_never_leak_or_corrupt(seed in 0u64..u64::MAX) {
        let fx = fixture();
        for batch_size in [1usize, 1024] {
            let config = PopConfig {
                faults: Some(FaultPlan::from_seed(seed)),
                batch_size,
                ..PopConfig::default()
            };
            let exec = PopExecutor::new(dmv_catalog(DMV_SCALE).unwrap(), config).unwrap();
            for ((name, q), expected) in fx.queries.iter().zip(&fx.baselines) {
                let what = format!("{name}, seed {seed}, batch {batch_size}");
                match exec.run(q, &Params::none()) {
                    Ok(res) => prop_assert_eq!(
                        sorted(res.rows),
                        expected.clone(),
                        "{}: wrong rows",
                        what
                    ),
                    Err(e) => prop_assert!(
                        matches!(e, PopError::Execution(_) | PopError::Planning(_)),
                        "{}: unexpected error kind: {}",
                        what,
                        e
                    ),
                }
                prop_assert_eq!(
                    exec.catalog().temp_mv_count(),
                    0,
                    "{}: leaked temp MV",
                    what
                );
            }
        }
    }
}
