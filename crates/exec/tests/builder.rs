//! Tests for the plan→operator builder: happy paths and error paths.

use pop_exec::{build_operator, execute, ExecCtx, RunOutcome};
use pop_expr::{Expr, Params};
use pop_plan::{
    CostModel, InnerProbe, LayoutCol, PhysNode, PlanProps, SortKeyRef, TableSet, ValidityRange,
};
use pop_storage::{Catalog, IndexKind};
use pop_types::{ColId, DataType, Schema, Value};

fn catalog() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "t",
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
        (0..50).map(|i| vec![Value::Int(i), Value::Int(i % 5)]),
    )
    .unwrap();
    cat.create_table(
        "u",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        (0..25).map(|i| vec![Value::Int(i % 5), Value::Int(i)]),
    )
    .unwrap();
    cat.create_index("u", "k", IndexKind::Hash).unwrap();
    cat
}

fn scan(qidx: usize, table: &str, ncols: usize, card: f64) -> PhysNode {
    PhysNode::TableScan {
        qidx,
        table: table.into(),
        pred: None,
        props: PlanProps::leaf(
            TableSet::single(qidx),
            card,
            card,
            (0..ncols)
                .map(|c| LayoutCol::Base(ColId::new(qidx, c)))
                .collect(),
        ),
    }
}

#[test]
fn nljn_without_index_is_a_planning_error() {
    let cat = catalog();
    let plan = PhysNode::Nljn {
        outer: Box::new(scan(0, "t", 2, 50.0)),
        outer_key: ColId::new(0, 1),
        inner: InnerProbe {
            qidx: 1,
            table: "u".into(),
            join_col: 1, // no index on u.v
            pred: None,
            residual_joins: vec![],
            inner_card: 25.0,
        },
        props: PlanProps::leaf(TableSet::from_iter([0, 1]), 10.0, 10.0, vec![]),
    };
    assert!(build_operator(&plan, &cat, false).is_err());
}

#[test]
fn join_key_not_in_layout_is_a_planning_error() {
    let cat = catalog();
    let plan = PhysNode::Hsjn {
        build: Box::new(scan(0, "t", 2, 50.0)),
        probe: Box::new(scan(1, "u", 2, 25.0)),
        build_keys: vec![ColId::new(0, 9)], // no such column
        probe_keys: vec![ColId::new(1, 0)],
        props: PlanProps::leaf(TableSet::from_iter([0, 1]), 10.0, 10.0, vec![]),
    };
    assert!(build_operator(&plan, &cat, false).is_err());
}

#[test]
fn unknown_mv_is_an_error() {
    let cat = catalog();
    let plan = PhysNode::MvScan {
        mv_name: "__missing".into(),
        props: PlanProps::leaf(TableSet::single(0), 0.0, 0.0, vec![]),
    };
    assert!(build_operator(&plan, &cat, false).is_err());
}

#[test]
fn sort_by_position_works_end_to_end() {
    let cat = catalog();
    let inner = scan(0, "t", 2, 50.0);
    let props = inner.props().clone();
    let plan = PhysNode::Sort {
        input: Box::new(inner),
        key: SortKeyRef::Pos(1),
        desc: true,
        props,
    };
    let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
    let out = execute(&plan, &mut ctx).unwrap();
    match out {
        RunOutcome::Complete { batches } => {
            let keys: Vec<Value> = batches
                .iter()
                .flat_map(|b| b.live_indices().map(|i| b.value(1, i)))
                .collect();
            assert_eq!(keys.len(), 50);
            for w in keys.windows(2) {
                assert!(w[0] >= w[1], "descending order broken");
            }
        }
        other @ RunOutcome::Suspended { .. } => panic!("unexpected {other:?}"),
    }
}

#[test]
fn project_with_aggregate_outputs() {
    let cat = catalog();
    let inner = scan(0, "t", 2, 50.0);
    let agg_props = PlanProps {
        tables: TableSet::single(0),
        card: 5.0,
        cost: 60.0,
        layout: vec![LayoutCol::Base(ColId::new(0, 1)), LayoutCol::Agg(0)],
        sorted_by: None,
        edge_ranges: vec![ValidityRange::unbounded()],
    };
    let agg = PhysNode::HashAgg {
        input: Box::new(inner),
        group_by: vec![ColId::new(0, 1)],
        aggs: vec![pop_plan::AggFunc::Count],
        props: agg_props.clone(),
    };
    // Project only the aggregate output, dropping the key.
    let plan = PhysNode::Project {
        input: Box::new(agg),
        cols: vec![LayoutCol::Agg(0)],
        props: PlanProps {
            layout: vec![LayoutCol::Agg(0)],
            ..agg_props
        },
    };
    let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
    let out = execute(&plan, &mut ctx).unwrap();
    assert_eq!(out.row_count(), 5);
    for b in out.batches() {
        assert!(b
            .live_indices()
            .all(|i| b.row_at(i) == vec![Value::Int(10)]));
    }
}

#[test]
fn filter_predicate_binds_against_scan_layout() {
    let cat = catalog();
    let plan = PhysNode::TableScan {
        qidx: 0,
        table: "t".into(),
        pred: Some(Expr::col(0, 1).eq(Expr::lit(3i64))),
        props: PlanProps::leaf(
            TableSet::single(0),
            10.0,
            50.0,
            vec![
                LayoutCol::Base(ColId::new(0, 0)),
                LayoutCol::Base(ColId::new(0, 1)),
            ],
        ),
    };
    let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
    let out = execute(&plan, &mut ctx).unwrap();
    assert_eq!(out.row_count(), 10);
}
