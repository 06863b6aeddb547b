//! Pass 1: schema/layout checking (`PL001`–`PL003`).
//!
//! The executor's `build_operator` binds every expression positionally:
//! leaf-level predicates (scan filters, index residuals, NLJN inner
//! filters) against the stored row's table schema, everything above
//! against the child's layout. A reference that does not resolve there is
//! either a runtime error or — worse — a silent bind to the wrong column.
//! Leaves and joins emit only the columns the query reads above their
//! table set, so a column used higher up but pruned below shows here as
//! `PL001` at its first consumer. This pass proves, per node, that (a)
//! every column reference resolves in what it will be bound against and
//! (b) the node's own output layout is one its operator can produce — for
//! a leaf, a strictly ascending subset of its table's columns; for a join,
//! an ordered subsequence of its inputs' concatenated layouts (an NLJN's
//! inner part a leaf layout of its inner table); for the rest, a function
//! of the children.

use crate::{DiagCode, LintContext, NodeCx, Sink};
use pop_expr::Expr;
use pop_plan::{kept_positions, AggFunc, LayoutCol, PhysNode, PlanProps, SortKeyRef};
use pop_types::ColId;

pub(crate) fn check(cx: &NodeCx<'_, '_>, ctx: LintContext<'_>, sink: &mut Sink) {
    let (node, path) = (cx.node, cx.path);
    // A table's width, when the catalog is known.
    let schema_len = |table: &str| Some(ctx.catalog?.table(table).ok()?.schema().len());
    match node {
        PhysNode::TableScan {
            qidx,
            table,
            pred,
            props,
        } => {
            let ncols = schema_len(table);
            check_leaf_layout(node, &props.layout, *qidx, ncols, path, sink);
            if let Some(p) = pred {
                check_expr_in_schema(node, p, *qidx, ncols, "scan predicate", path, sink);
            }
        }
        PhysNode::IndexRangeScan {
            qidx,
            table,
            column,
            residual,
            props,
            ..
        } => {
            let ncols = schema_len(table);
            check_leaf_layout(node, &props.layout, *qidx, ncols, path, sink);
            if let Some(n) = ncols {
                if *column >= n {
                    sink.emit(
                        DiagCode::Pl001,
                        node,
                        path,
                        format!("index column {column} out of range for {table} ({n} columns)"),
                    );
                }
            }
            if let Some(r) = residual {
                check_expr_in_schema(node, r, *qidx, ncols, "index residual", path, sink);
            }
        }
        PhysNode::MvScan { props, .. } => {
            if props.layout.iter().any(|c| c.as_base().is_none()) {
                sink.emit(
                    DiagCode::Pl002,
                    node,
                    path,
                    "MV scan layout contains aggregate columns".into(),
                );
            }
        }
        PhysNode::Nljn {
            outer,
            outer_key,
            inner,
            props,
        } => {
            let ol = &outer.props().layout;
            let ncols = schema_len(&inner.table);
            check_col_resolves(node, *outer_key, ol, "NLJN outer key", path, sink);
            for (ocol, icol) in &inner.residual_joins {
                check_col_resolves(node, *ocol, ol, "NLJN residual join", path, sink);
                if let Some(n) = ncols {
                    if *icol >= n {
                        sink.emit(
                            DiagCode::Pl001,
                            node,
                            path,
                            format!(
                                "NLJN residual inner column {icol} out of range for {} ({n} columns)",
                                inner.table
                            ),
                        );
                    }
                }
            }
            if let Some(n) = ncols {
                if inner.join_col >= n {
                    sink.emit(
                        DiagCode::Pl001,
                        node,
                        path,
                        format!(
                            "NLJN join column {} out of range for {} ({n} columns)",
                            inner.join_col, inner.table
                        ),
                    );
                }
            }
            if let Some(p) = &inner.pred {
                check_expr_in_schema(
                    node,
                    p,
                    inner.qidx,
                    ncols,
                    "NLJN inner predicate",
                    path,
                    sink,
                );
            }
            // The outer columns the join keeps, in order, then the inner
            // leaf's: whatever does not continue the outer part must be a
            // leaf layout of the inner table.
            let kept = kept_positions(&props.layout, ol).len();
            check_leaf_layout(node, &props.layout[kept..], inner.qidx, ncols, path, sink);
        }
        PhysNode::Hsjn {
            build,
            probe,
            build_keys,
            probe_keys,
            props,
        } => {
            check_join_keys(node, build_keys, probe_keys, "HSJN", path, sink);
            for k in build_keys {
                check_col_resolves(
                    node,
                    *k,
                    &build.props().layout,
                    "HSJN build key",
                    path,
                    sink,
                );
            }
            for k in probe_keys {
                check_col_resolves(
                    node,
                    *k,
                    &probe.props().layout,
                    "HSJN probe key",
                    path,
                    sink,
                );
            }
            check_concat_layout(node, build.props(), probe.props(), props, path, sink);
        }
        PhysNode::Mgjn {
            left,
            right,
            left_keys,
            right_keys,
            props,
        } => {
            check_join_keys(node, left_keys, right_keys, "MGJN", path, sink);
            for k in left_keys {
                check_col_resolves(node, *k, &left.props().layout, "MGJN left key", path, sink);
            }
            for k in right_keys {
                check_col_resolves(
                    node,
                    *k,
                    &right.props().layout,
                    "MGJN right key",
                    path,
                    sink,
                );
            }
            check_concat_layout(node, left.props(), right.props(), props, path, sink);
        }
        PhysNode::Sort {
            input, key, props, ..
        } => {
            match key {
                SortKeyRef::Col(c) => {
                    check_col_resolves(node, *c, &input.props().layout, "sort key", path, sink);
                }
                SortKeyRef::Pos(p) => {
                    if *p >= input.props().layout.len() {
                        sink.emit(
                            DiagCode::Pl003,
                            node,
                            path,
                            format!(
                                "sort position {p} out of range (layout has {} columns)",
                                input.props().layout.len()
                            ),
                        );
                    }
                }
            }
            check_passthrough_layout(node, input.props(), props, path, sink);
        }
        PhysNode::Project { input, cols, props } => {
            for c in cols {
                if !input.props().layout.contains(c) {
                    sink.emit(
                        DiagCode::Pl001,
                        node,
                        path,
                        format!("projected column {c:?} not in input layout"),
                    );
                }
            }
            if props.layout != *cols {
                sink.emit(
                    DiagCode::Pl002,
                    node,
                    path,
                    "projection output layout differs from its column list".into(),
                );
            }
        }
        PhysNode::HashAgg {
            input,
            group_by,
            aggs,
            props,
        } => {
            for c in group_by {
                check_col_resolves(node, *c, &input.props().layout, "group-by key", path, sink);
            }
            for a in aggs {
                if let AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) | AggFunc::Avg(c) = a {
                    check_col_resolves(
                        node,
                        *c,
                        &input.props().layout,
                        "aggregate argument",
                        path,
                        sink,
                    );
                }
            }
            let expected: Vec<LayoutCol> = group_by
                .iter()
                .map(|c| LayoutCol::Base(*c))
                .chain((0..aggs.len()).map(LayoutCol::Agg))
                .collect();
            if props.layout != expected {
                sink.emit(
                    DiagCode::Pl002,
                    node,
                    path,
                    format!(
                        "aggregate layout must be group keys then {} aggregate slots",
                        aggs.len()
                    ),
                );
            }
        }
        PhysNode::Having {
            input,
            preds,
            props,
        } => {
            for p in preds {
                if p.pos >= props.layout.len() {
                    sink.emit(
                        DiagCode::Pl003,
                        node,
                        path,
                        format!(
                            "HAVING position {} out of range (layout has {} columns)",
                            p.pos,
                            props.layout.len()
                        ),
                    );
                }
            }
            check_passthrough_layout(node, input.props(), props, path, sink);
        }
        PhysNode::SemiProbe {
            input,
            clause,
            props,
        } => {
            check_col_resolves(
                node,
                clause.outer_col,
                &input.props().layout,
                "semi-probe outer column",
                path,
                sink,
            );
            check_passthrough_layout(node, input.props(), props, path, sink);
        }
        PhysNode::Check { input, props, .. }
        | PhysNode::BufCheck { input, props, .. }
        | PhysNode::Temp { input, props }
        | PhysNode::RidSink { input, props }
        | PhysNode::AntiJoinRids { input, props }
        | PhysNode::Limit { input, props, .. }
        | PhysNode::Insert { input, props, .. } => {
            check_passthrough_layout(node, input.props(), props, path, sink);
        }
    }
}

/// A leaf's output (a scan's layout, an NLJN's suffix after the outer
/// layout) must be a strictly ascending subset of its own table's columns:
/// that is what the leaf operators copy out of the stored row, and the
/// order every canonical layout is built from.
fn check_leaf_layout(
    node: &PhysNode,
    layout: &[LayoutCol],
    qidx: usize,
    ncols: Option<usize>,
    path: &[usize],
    sink: &mut Sink,
) {
    let mut prev: Option<usize> = None;
    for c in layout {
        let problem = match c {
            LayoutCol::Base(b) if b.table == qidx => {
                if ncols.is_some_and(|n| b.col >= n) {
                    Some("a column beyond the table schema")
                } else if prev.is_some_and(|p| b.col <= p) {
                    Some("columns out of ascending order or repeated")
                } else {
                    prev = Some(b.col);
                    None
                }
            }
            _ => Some("a foreign layout column"),
        };
        if let Some(what) = problem {
            sink.emit(
                DiagCode::Pl002,
                node,
                path,
                format!("leaf over t{qidx} emits {what}: {c:?}"),
            );
            return;
        }
    }
}

fn check_join_keys(
    node: &PhysNode,
    a: &[ColId],
    b: &[ColId],
    what: &str,
    path: &[usize],
    sink: &mut Sink,
) {
    if a.is_empty() || b.is_empty() {
        sink.emit(
            DiagCode::Pl003,
            node,
            path,
            format!("{what} has an empty join-key list"),
        );
    } else if a.len() != b.len() {
        sink.emit(
            DiagCode::Pl003,
            node,
            path,
            format!(
                "{what} key lists differ in length ({} vs {})",
                a.len(),
                b.len()
            ),
        );
    }
}

/// A join keeps the columns read above it: its layout must be an ordered
/// subsequence of its inputs' concatenated layouts. Whether it dropped a
/// column something above still reads is not this node's to say: that
/// shows as `PL001` where the column is read.
fn check_concat_layout(
    node: &PhysNode,
    a: &PlanProps,
    b: &PlanProps,
    props: &PlanProps,
    path: &[usize],
    sink: &mut Sink,
) {
    let left = kept_positions(&props.layout, &a.layout).len();
    let right = kept_positions(&props.layout[left..], &b.layout).len();
    if left + right != props.layout.len() {
        sink.emit(
            DiagCode::Pl002,
            node,
            path,
            "join output layout is not an ordered subsequence of its inputs' layouts".into(),
        );
    }
}

fn check_passthrough_layout(
    node: &PhysNode,
    input: &PlanProps,
    props: &PlanProps,
    path: &[usize],
    sink: &mut Sink,
) {
    if props.layout != input.layout {
        sink.emit(
            DiagCode::Pl002,
            node,
            path,
            format!(
                "{} must pass its input layout through unchanged",
                node.name()
            ),
        );
    }
}

fn check_col_resolves(
    node: &PhysNode,
    col: ColId,
    layout: &[LayoutCol],
    what: &str,
    path: &[usize],
    sink: &mut Sink,
) {
    if !layout.contains(&LayoutCol::Base(col)) {
        sink.emit(
            DiagCode::Pl001,
            node,
            path,
            format!("{what} {col} not in input layout"),
        );
    }
}

/// A leaf-level predicate is bound against the stored row: every column
/// must belong to the leaf's own table and, when the catalog is known,
/// exist in its schema.
fn check_expr_in_schema(
    node: &PhysNode,
    expr: &Expr,
    qidx: usize,
    ncols: Option<usize>,
    what: &str,
    path: &[usize],
    sink: &mut Sink,
) {
    for c in expr.columns_used() {
        if c.table != qidx || ncols.is_some_and(|n| c.col >= n) {
            sink.emit(
                DiagCode::Pl001,
                node,
                path,
                format!("{what} {c} not in the schema of t{qidx}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use crate::{lint_plan, LintContext};
    use pop_expr::Expr;
    use pop_plan::{LayoutCol, PhysNode, QueryBuilder, SortKeyRef};
    use pop_storage::Catalog;
    use pop_types::{ColId, DataType, Schema, Value};

    fn diag_codes(plan: &PhysNode) -> Vec<&'static str> {
        codes(&lint_plan(plan, &LintContext::bare()))
    }

    #[test]
    fn pl001_unresolved_join_key() {
        // Build key t7.c0 resolves in neither child layout.
        let mut plan = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
        if let PhysNode::Hsjn { build_keys, .. } = &mut plan {
            build_keys[0] = ColId::new(7, 0);
        }
        assert!(
            diag_codes(&plan).contains(&"PL001"),
            "{:?}",
            diag_codes(&plan)
        );
    }

    /// Catalog with `a(id INT, name STR, grp INT)` and `b(id INT, v INT)`
    /// (`b.id` hash-indexed), plus `a ⋈ b ON a.id = b.id` filtered on
    /// `a.grp`, projecting `b.v` — so `a` needs only `id`, `b` needs `id, v`.
    fn pruned_setup() -> (Catalog, pop_plan::QuerySpec) {
        let cat = Catalog::new();
        cat.create_table(
            "a",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("grp", DataType::Int),
            ]),
            vec![],
        )
        .unwrap();
        cat.create_table(
            "b",
            Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]),
            vec![],
        )
        .unwrap();
        cat.create_index("b", "id", pop_storage::IndexKind::Hash)
            .unwrap();
        let mut q = QueryBuilder::new();
        let a = q.table("a");
        let b = q.table("b");
        q.join(a, 0, b, 0);
        q.filter(a, Expr::col(a, 2).eq(Expr::lit(1i64)));
        q.project(&[(b, 1)]);
        (cat, q.build().unwrap())
    }

    fn base(cols: &[(usize, usize)]) -> Vec<LayoutCol> {
        cols.iter()
            .map(|(t, c)| LayoutCol::Base(ColId::new(*t, *c)))
            .collect()
    }

    /// `PROJECT[b.v](NLJN(SCAN a [id] WHERE grp = 1, b [suffix]))`.
    fn pruned_plan(suffix: &[(usize, usize)]) -> PhysNode {
        let mut scan = leaf(0, "a", 1, 10.0);
        if let PhysNode::TableScan { pred, .. } = &mut scan {
            *pred = Some(Expr::col(0, 2).eq(Expr::lit(1i64)));
        }
        let mut props = scan.props().clone();
        props.tables = pop_plan::TableSet::from_iter([0, 1]);
        props.layout.extend(base(suffix));
        props.edge_ranges = vec![pop_plan::ValidityRange::unbounded()];
        let nljn = PhysNode::Nljn {
            outer: Box::new(scan),
            outer_key: ColId::new(0, 0),
            inner: pop_plan::InnerProbe {
                qidx: 1,
                table: "b".into(),
                join_col: 0,
                pred: None,
                residual_joins: vec![],
                inner_card: 10.0,
            },
            props: props.clone(),
        };
        props.layout = base(&[(1, 1)]);
        PhysNode::Project {
            input: Box::new(nljn),
            cols: base(&[(1, 1)]),
            props,
        }
    }

    fn layout_codes(plan: &PhysNode, cat: &Catalog, q: &pop_plan::QuerySpec) -> Vec<&'static str> {
        codes(&lint_plan(plan, &LintContext::full(cat, q)))
            .into_iter()
            .filter(|c| c.starts_with("PL00"))
            .collect()
    }

    #[test]
    fn pruned_leaf_layouts_lint_clean() {
        // The scan filters on a.grp, which its one-column layout does not
        // carry: leaf predicates resolve against the schema, not the layout.
        let (cat, q) = pruned_setup();
        let plan = pruned_plan(&[(1, 0), (1, 1)]);
        assert!(layout_codes(&plan, &cat, &q).is_empty(), "{plan}");
    }

    #[test]
    fn pl001_leaf_missing_a_column_used_above() {
        // b's suffix drops b.v, which the projection reads.
        let (cat, q) = pruned_setup();
        let plan = pruned_plan(&[(1, 0)]);
        assert_eq!(layout_codes(&plan, &cat, &q), vec!["PL001"]);
    }

    #[test]
    fn pl002_nljn_suffix_not_ascending_or_repeated() {
        let (cat, q) = pruned_setup();
        for suffix in [
            &[(1, 1), (1, 0)][..],
            &[(1, 0), (1, 1), (1, 1)][..],
            &[(1, 0), (1, 1), (0, 1)][..], // foreign table
            &[(1, 0), (1, 1), (1, 2)][..], // beyond b's schema
        ] {
            let plan = pruned_plan(suffix);
            assert_eq!(layout_codes(&plan, &cat, &q), vec!["PL002"], "{suffix:?}");
        }
    }

    #[test]
    fn pl001_unresolved_filter_column() {
        // The filter names a.c9; `a` has three columns. (Without a catalog
        // only the table index can be checked.)
        let (cat, q) = pruned_setup();
        let mut plan = leaf(0, "a", 2, 10.0);
        if let PhysNode::TableScan { pred, .. } = &mut plan {
            *pred = Some(Expr::col(0, 9).eq(Expr::lit(1i64)));
        }
        assert_eq!(layout_codes(&plan, &cat, &q), vec!["PL001"]);
        assert!(diag_codes(&plan).is_empty());
        if let PhysNode::TableScan { pred, .. } = &mut plan {
            *pred = Some(Expr::col(1, 0).eq(Expr::lit(1i64)));
        }
        assert!(diag_codes(&plan).contains(&"PL001"));
    }

    #[test]
    fn pl001_unresolved_sort_key() {
        let input = leaf(0, "a", 2, 10.0);
        let props = input.props().clone();
        let sort = PhysNode::Sort {
            input: Box::new(input),
            key: SortKeyRef::Col(ColId::new(3, 3)),
            desc: false,
            props,
        };
        assert!(diag_codes(&sort).contains(&"PL001"));
    }

    #[test]
    fn pl002_join_layout_not_concatenation() {
        // A reordered column (probe before build, or within one input) and
        // a column of neither input: not an ordered subsequence of
        // build ++ probe.
        for layout in [
            base(&[(1, 0), (0, 0)]),
            base(&[(0, 1), (0, 0), (1, 0)]),
            base(&[(0, 0), (2, 0), (1, 1)]),
        ] {
            let mut plan = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
            plan.props_mut().layout = layout.clone();
            assert_eq!(diag_codes(&plan), vec!["PL002"], "{layout:?}");
        }
        // Dropping columns in order is how a join keeps only what is read
        // above it.
        let mut plan = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
        plan.props_mut().layout = base(&[(0, 1), (1, 1)]);
        assert!(diag_codes(&plan).is_empty(), "{:?}", diag_codes(&plan));
    }

    #[test]
    fn pl001_join_dropped_a_column_read_above() {
        // The join keeps b.1 only; a projection above reads a.1.
        let mut join = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
        join.props_mut().layout = base(&[(1, 1)]);
        let mut props = join.props().clone();
        props.layout = base(&[(0, 1)]);
        props.edge_ranges = vec![pop_plan::ValidityRange::unbounded()];
        let plan = PhysNode::Project {
            input: Box::new(join),
            cols: base(&[(0, 1)]),
            props,
        };
        assert_eq!(diag_codes(&plan), vec!["PL001"]);
    }

    #[test]
    fn pl002_nljn_outer_part_not_a_subsequence() {
        // Outer a(id, name); the NLJN keeps outer columns, then b's.
        let nljn = |layout: &[(usize, usize)]| {
            let outer = leaf(0, "a", 2, 10.0);
            let mut props = outer.props().clone();
            props.tables = pop_plan::TableSet::from_iter([0, 1]);
            props.layout = base(layout);
            props.edge_ranges = vec![pop_plan::ValidityRange::unbounded()];
            PhysNode::Nljn {
                outer: Box::new(outer),
                outer_key: ColId::new(0, 0),
                inner: pop_plan::InnerProbe {
                    qidx: 1,
                    table: "b".into(),
                    join_col: 0,
                    pred: None,
                    residual_joins: vec![],
                    inner_card: 10.0,
                },
                props,
            }
        };
        for clean in [&[(0, 1), (1, 1)][..], &[(1, 0)][..], &[(0, 0), (0, 1)][..]] {
            assert!(diag_codes(&nljn(clean)).is_empty(), "{clean:?}");
        }
        for broken in [
            &[(0, 1), (0, 0), (1, 1)][..], // reordered outer columns
            &[(0, 0), (2, 0), (1, 1)][..], // a foreign column
            &[(1, 1), (0, 0)][..],         // an outer column after the inner's
        ] {
            assert_eq!(diag_codes(&nljn(broken)), vec!["PL002"], "{broken:?}");
        }
    }

    #[test]
    fn pl002_passthrough_violation() {
        let input = leaf(0, "a", 2, 10.0);
        let mut t = temp(input);
        t.props_mut().layout = vec![LayoutCol::Base(ColId::new(0, 0))];
        assert!(diag_codes(&t).contains(&"PL002"));
    }

    #[test]
    fn pl003_empty_join_keys() {
        let mut plan = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
        if let PhysNode::Hsjn { build_keys, .. } = &mut plan {
            build_keys.clear();
        }
        assert!(diag_codes(&plan).contains(&"PL003"));
    }

    #[test]
    fn pl003_having_position_out_of_range() {
        let input = leaf(0, "a", 2, 10.0);
        let props = input.props().clone();
        let h = PhysNode::Having {
            input: Box::new(input),
            preds: vec![pop_plan::HavingPred {
                pos: 9,
                op: pop_expr::CmpOp::Gt,
                value: Value::Int(1),
            }],
            props,
        };
        assert!(diag_codes(&h).contains(&"PL003"));
    }

    #[test]
    fn clean_aggregate_and_projection() {
        let input = leaf(0, "a", 3, 10.0);
        let mut props = input.props().clone();
        props.layout = vec![
            LayoutCol::Base(ColId::new(0, 1)),
            LayoutCol::Agg(0),
            LayoutCol::Agg(1),
        ];
        props.card = 3.0;
        props.cost += 10.0;
        let agg = PhysNode::HashAgg {
            input: Box::new(input),
            group_by: vec![ColId::new(0, 1)],
            aggs: vec![
                pop_plan::AggFunc::Count,
                pop_plan::AggFunc::Sum(ColId::new(0, 2)),
            ],
            props,
        };
        assert!(diag_codes(&agg).is_empty(), "{:?}", diag_codes(&agg));
    }

    #[test]
    fn pl002_wrong_aggregate_layout() {
        let input = leaf(0, "a", 3, 10.0);
        let mut props = input.props().clone();
        props.layout = vec![LayoutCol::Agg(0), LayoutCol::Base(ColId::new(0, 1))]; // wrong order
        let agg = PhysNode::HashAgg {
            input: Box::new(input),
            group_by: vec![ColId::new(0, 1)],
            aggs: vec![pop_plan::AggFunc::Count],
            props,
        };
        assert!(diag_codes(&agg).contains(&"PL002"));
    }
}
