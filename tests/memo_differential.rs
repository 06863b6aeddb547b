//! Property-based differential test of the incremental memo: for random
//! join specs and random sequences of the events a re-optimization can
//! see — injected cardinality facts, temp MVs registered, replaced under
//! the same signature, and dropped — optimizing through one persistent
//! [`pop_optimizer::Memo`] must produce exactly the plan a fresh memo
//! produces after every event: same cost (bit-identical) and same
//! rendered plan.

use pop::PopConfig;
use pop_expr::Expr;
use pop_optimizer::{optimize, CardFact, FeedbackCache, Memo, OptimizerContext};
use pop_plan::{canonical_layout, subplan_signature, QueryBuilder, QuerySpec, TableSet};
use pop_stats::StatsRegistry;
use pop_storage::{Catalog, IndexKind, Table, TempMv};
use pop_types::{ColumnDef, DataType, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Columns of every base table.
const COLS: usize = 3;

/// Four chain-joinable tables of different sizes, so join-order choices
/// are real and feedback can flip them.
fn catalog() -> Catalog {
    let cat = Catalog::new();
    for (i, rows) in [200usize, 1000, 60, 1500].iter().enumerate() {
        cat.create_table(
            format!("t{i}"),
            Schema::from_pairs(&[
                ("pk", DataType::Int),
                ("key", DataType::Int),
                ("attr", DataType::Int),
            ]),
            (0..*rows).map(|r| {
                vec![
                    Value::Int(r as i64),
                    Value::Int((r % 50) as i64),
                    Value::Int((r % 20) as i64),
                ]
            }),
        )
        .unwrap();
        cat.create_index(&format!("t{i}"), "key", IndexKind::Hash)
            .unwrap();
    }
    cat
}

/// What can change between two optimizations of one query.
#[derive(Debug, Clone)]
enum Event {
    /// A CHECK observation for the subset picked by the raw mask.
    Fact {
        raw_mask: u64,
        exact: bool,
        val: u64,
    },
    /// A harvest promoted to a temp MV over the subset picked by the raw
    /// mask (superseding the subset's MV, if it has one).
    Mv { raw_mask: u64, rows: u64 },
    /// A later harvest supersedes an existing MV — picked by index — with
    /// the same signature and row count but a new table. Nothing happens
    /// while no MV exists.
    SupersedeMv { pick: usize },
    /// Cleanup drops every temp MV.
    DropMvs,
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (1u64..64, any::<bool>(), 1u64..200_000).prop_map(|(raw_mask, exact, val)| Event::Fact {
            raw_mask,
            exact,
            val
        }),
        (1u64..64, 1u64..400).prop_map(|(raw_mask, rows)| Event::Mv { raw_mask, rows }),
        (0usize..8).prop_map(|pick| Event::SupersedeMv { pick }),
        Just(Event::DropMvs),
    ]
}

/// Register a temp MV of `rows` rows for `set` in its canonical layout,
/// backed by a new table — superseding any MV of the same signature, the
/// way `PopExecutor::promote_harvest` does.
fn register_mv(cat: &Catalog, spec: &QuerySpec, set: TableSet, rows: u64, serial: usize) {
    let layout = canonical_layout(spec, set, &vec![COLS; spec.tables.len()]);
    let schema = Schema::new(
        layout
            .iter()
            .map(|c| ColumnDef::new(format!("t{}_c{}", c.table, c.col), DataType::Int))
            .collect(),
    );
    let data = vec![vec![Value::Int(0); layout.len()]; rows as usize];
    cat.register_temp_mv(TempMv {
        table: Arc::new(Table::new(
            cat.allocate_temp_id(),
            format!("__pop_mv_{serial}"),
            schema,
            data,
        )),
        signature: subplan_signature(spec, set),
        tables: set.mask(),
        layout,
        actual_card: rows,
        lineage: None,
    });
}

fn build_spec(n: usize, filters: &[(usize, i64)]) -> QuerySpec {
    let mut b = QueryBuilder::new();
    let ids: Vec<usize> = (0..n).map(|i| b.table(format!("t{i}"))).collect();
    for w in 1..n {
        b.join(ids[w - 1], 1, ids[w], 1);
    }
    for (t, lit) in filters {
        if *t < n {
            b.filter(ids[*t], Expr::col(ids[*t], 2).le(Expr::lit(*lit)));
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn persistent_memo_matches_fresh_memo_under_random_events(
        n in 2usize..5,
        filters in prop::collection::vec((0usize..4, -2i64..25), 0..3),
        events in prop::collection::vec(event(), 0..8),
    ) {
        let cat = catalog();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        let spec = build_spec(n, &filters);
        let opt_cfg = pop_optimizer::OptimizerConfig::default();
        let cost = PopConfig::default().cost_model;
        let feedback = FeedbackCache::new();
        let octx = OptimizerContext::new(&cat, &stats, &opt_cfg, &cost, None, &feedback);
        let mut memo = Memo::new();

        // Step 0 (nothing happened yet), then one step after every event:
        // the persistent memo's answer must be indistinguishable from a
        // fresh memo's each time.
        let full_mask = (1u64 << n) - 1;
        let subset = |raw_mask: u64| {
            let mask = (raw_mask % full_mask) + 1; // any non-empty subset
            TableSet::from_iter((0..n).filter(|t| mask & (1 << t) != 0))
        };
        for step in 0..=events.len() {
            let (fresh, _) = optimize(&spec, &octx, &mut Memo::new()).unwrap();
            let (inc, stats_rep) = optimize(&spec, &octx, &mut memo).unwrap();
            prop_assert_eq!(
                fresh.props().cost.to_bits(),
                inc.props().cost.to_bits(),
                "step {}: cost diverged (fresh {} vs persistent {})",
                step, fresh.props().cost, inc.props().cost
            );
            prop_assert_eq!(
                fresh.to_string(), inc.to_string(),
                "step {}: rendered plan diverged", step
            );
            prop_assert_eq!(stats_rep.rebuilt, step == 0, "step {}: unexpected rebuild", step);

            match events.get(step) {
                Some(Event::Fact { raw_mask, exact, val }) => {
                    let fact = if *exact {
                        CardFact::Exact(*val as f64)
                    } else {
                        CardFact::AtLeast(*val as f64)
                    };
                    feedback.record(subplan_signature(&spec, subset(*raw_mask)), fact);
                }
                Some(Event::Mv { raw_mask, rows }) => {
                    register_mv(&cat, &spec, subset(*raw_mask), *rows, step);
                }
                Some(Event::SupersedeMv { pick }) => {
                    let mvs = cat.temp_mvs();
                    if !mvs.is_empty() {
                        let old = &mvs[pick % mvs.len()];
                        let set = TableSet::from_iter(old.layout.iter().map(|c| c.table));
                        register_mv(&cat, &spec, set, old.actual_card, step);
                    }
                }
                Some(Event::DropMvs) => cat.clear_temp_mvs(),
                None => {}
            }
        }
    }
}
