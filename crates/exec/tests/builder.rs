//! Tests for the plan→operator builder: happy paths and error paths.

use pop_exec::{build_operator, execute, ExecCtx, RunOutcome};
use pop_expr::{Expr, Params};
use pop_plan::{
    CostModel, InnerProbe, PhysNode, PlanProps, QueryBuilder, QuerySpec, SortKeyRef, TableSet,
    ValidityRange,
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

/// `SELECT * FROM <tables>` joined on `first.b = second.k` when there are
/// two (every column is read above every node).
fn select_star(tables: &[&str]) -> QuerySpec {
    let mut q = QueryBuilder::new();
    let t: Vec<usize> = tables.iter().map(|name| q.table(*name)).collect();
    if let [a, b] = t[..] {
        let (t, u) = if tables[0] == "t" { (a, b) } else { (b, a) };
        q.join(t, 1, u, 0);
    }
    q.build().unwrap()
}

fn build(plan: &PhysNode, spec: &QuerySpec, cat: &Catalog) -> pop_types::PopResult<()> {
    build_operator(plan, spec, &[2, 2], cat, false).map(|_| ())
}

fn scan(qidx: usize, table: &str, card: f64) -> PhysNode {
    PhysNode::TableScan {
        qidx,
        table: table.into(),
        pred: None,
        props: PlanProps::leaf(TableSet::single(qidx), card, card),
    }
}

fn join_props(card: f64) -> PlanProps {
    PlanProps {
        edge_ranges: vec![ValidityRange::unbounded(); 2],
        ..PlanProps::leaf(TableSet::from_iter([0, 1]), card, card)
    }
}

/// The rows of a completed run.
fn rows(plan: &PhysNode, spec: &QuerySpec, cat: Catalog) -> Vec<Vec<Value>> {
    let mut ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
    match execute(plan, spec, &[2, 2], &mut ctx).unwrap() {
        RunOutcome::Complete { batches } => (batches.iter())
            .flat_map(|b| b.live_indices().map(|i| b.row_at(i)))
            .collect(),
        other @ RunOutcome::Suspended { .. } => panic!("unexpected {other:?}"),
    }
}

#[test]
fn nljn_without_index_is_a_planning_error() {
    let cat = catalog();
    let plan = PhysNode::Nljn {
        outer: Box::new(scan(0, "t", 50.0)),
        outer_key: ColId::new(0, 1),
        inner: InnerProbe {
            qidx: 1,
            table: "u".into(),
            join_col: 1, // no index on u.v
            pred: None,
            residual_joins: vec![],
            inner_card: 25.0,
        },
        props: join_props(10.0),
    };
    assert!(build(&plan, &select_star(&["t", "u"]), &cat).is_err());
}

#[test]
fn join_key_not_in_layout_is_a_planning_error() {
    let cat = catalog();
    let plan = PhysNode::Hsjn {
        build: Box::new(scan(0, "t", 50.0)),
        probe: Box::new(scan(1, "u", 25.0)),
        build_keys: vec![ColId::new(0, 9)], // no such column
        probe_keys: vec![ColId::new(1, 0)],
        props: join_props(10.0),
    };
    assert!(build(&plan, &select_star(&["t", "u"]), &cat).is_err());
}

#[test]
fn unknown_mv_is_an_error() {
    let cat = catalog();
    let plan = PhysNode::MvScan {
        mv_name: "__missing".into(),
        props: PlanProps::leaf(TableSet::single(0), 0.0, 0.0),
    };
    assert!(build(&plan, &select_star(&["t"]), &cat).is_err());
}

#[test]
fn sort_by_position_works_end_to_end() {
    let inner = scan(0, "t", 50.0);
    let props = inner.props().clone();
    let plan = PhysNode::Sort {
        input: Box::new(inner),
        key: SortKeyRef::Pos(1),
        desc: true,
        props,
    };
    let keys: Vec<Value> = (rows(&plan, &select_star(&["t"]), catalog()).into_iter())
        .map(|r| r[1].clone())
        .collect();
    assert_eq!(keys.len(), 50);
    for w in keys.windows(2) {
        assert!(w[0] >= w[1], "descending order broken");
    }
}

/// A join emits its table set's layout, ascending by query table, so its
/// columns interleave by table whichever input leads: an NLJN's inner
/// and an HSJN's build may be the lower table.
#[test]
fn joins_emit_columns_in_query_table_order_whichever_input_leads() {
    for tables in [["t", "u"], ["u", "t"]] {
        let spec = select_star(&tables);
        let (t, u) = if tables[0] == "t" { (0, 1) } else { (1, 0) };
        let nljn = PhysNode::Nljn {
            outer: Box::new(scan(t, "t", 50.0)),
            outer_key: ColId::new(t, 1),
            inner: InnerProbe {
                qidx: u,
                table: "u".into(),
                join_col: 0,
                pred: None,
                residual_joins: vec![],
                inner_card: 25.0,
            },
            props: join_props(250.0),
        };
        let hsjn = PhysNode::Hsjn {
            build: Box::new(scan(u, "u", 25.0)),
            probe: Box::new(scan(t, "t", 50.0)),
            build_keys: vec![ColId::new(u, 0)],
            probe_keys: vec![ColId::new(t, 1)],
            props: join_props(250.0),
        };
        for plan in [nljn, hsjn] {
            let rows = rows(&plan, &spec, catalog());
            assert_eq!(rows.len(), 250, "{tables:?}\n{plan}");
            for row in rows {
                // t.b = u.k, t.b = t.a % 5, u.v % 5 = u.k.
                let (tr, ur) = (&row[2 * t..2 * t + 2], &row[2 * u..2 * u + 2]);
                assert_eq!(tr[1], ur[0], "{tables:?} {row:?}\n{plan}");
                assert_eq!(tr[0].as_i64().unwrap() % 5, tr[1].as_i64().unwrap());
                assert_eq!(ur[1].as_i64().unwrap() % 5, ur[0].as_i64().unwrap());
            }
        }
    }
}

#[test]
fn filter_predicate_binds_against_scan_layout() {
    let mut plan = scan(0, "t", 50.0);
    if let PhysNode::TableScan { pred, .. } = &mut plan {
        *pred = Some(Expr::col(0, 1).eq(Expr::lit(3i64)));
    }
    assert_eq!(rows(&plan, &select_star(&["t"]), catalog()).len(), 10);
}
