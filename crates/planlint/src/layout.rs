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
//! a node over a table set (leaf, MV scan, join), its set's canonical
//! order: a strictly ascending list of `(table, column)`, each column
//! from an input (for a leaf, from its table; for an NLJN's inner, from
//! the inner table); for the rest, a function of the children.

use crate::{DiagCode, LintContext, NodeCx, Sink};
use pop_expr::Expr;
use pop_plan::{AggFunc, LayoutCol, PhysNode, PlanProps, SortKeyRef};
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
            check_set_layout(node, &props.layout, of_table(*qidx, ncols), path, sink);
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
            check_set_layout(node, &props.layout, of_table(*qidx, ncols), path, sink);
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
            let set = props.tables;
            check_set_layout(node, &props.layout, |c| set.contains(c.table), path, sink);
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
            let inner_col = of_table(inner.qidx, ncols);
            let from = |c: ColId| ol.contains(&LayoutCol::Base(c)) || inner_col(c);
            check_set_layout(node, &props.layout, from, path, sink);
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
            check_join_layout(node, build.props(), probe.props(), props, path, sink);
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
            check_join_layout(node, left.props(), right.props(), props, path, sink);
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

/// The columns of query table `qidx`, within its schema when known: what
/// a leaf can copy out of the stored row.
fn of_table(qidx: usize, ncols: Option<usize>) -> impl Fn(ColId) -> bool {
    move |c| c.table == qidx && ncols.is_none_or(|n| c.col < n)
}

/// A node over a table set emits its set's canonical layout: a strictly
/// ascending list of `(table, column)`, each column one `from` supplies —
/// an input's, or for a leaf its table's. Whether it dropped a column
/// something above still reads is not this node's to say: that shows as
/// `PL001` where the column is read.
fn check_set_layout(
    node: &PhysNode,
    layout: &[LayoutCol],
    from: impl Fn(ColId) -> bool,
    path: &[usize],
    sink: &mut Sink,
) {
    let mut prev: Option<ColId> = None;
    for c in layout {
        let problem = match c.as_base() {
            None => "an aggregate column",
            Some(b) if !from(b) => "a column none of its inputs supplies",
            Some(b) if prev.is_some_and(|p| b <= p) => "columns out of ascending order or repeated",
            Some(b) => {
                prev = Some(b);
                continue;
            }
        };
        sink.emit(
            DiagCode::Pl002,
            node,
            path,
            format!(
                "{} over {} emits {problem}: {c:?}",
                node.name(),
                node.props().tables
            ),
        );
        return;
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

/// A hash or merge join's layout: its set's, gathered from its inputs.
fn check_join_layout(
    node: &PhysNode,
    a: &PlanProps,
    b: &PlanProps,
    props: &PlanProps,
    path: &[usize],
    sink: &mut Sink,
) {
    let from = |c: ColId| {
        [a, b]
            .iter()
            .any(|i| i.layout.contains(&LayoutCol::Base(c)))
    };
    check_set_layout(node, &props.layout, from, path, sink);
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
        // The inner table b is t1, so its columns end the layout.
        let (cat, q) = pruned_setup();
        for suffix in [
            &[(1, 1), (1, 0)][..],
            &[(1, 0), (1, 1), (1, 1)][..],
            &[(1, 0), (1, 1), (0, 1)][..], // an outer column out of order
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
    fn pl002_join_layout_not_ascending_or_not_from_its_inputs() {
        // Columns out of (table, column) order, across or within a table,
        // a repeated one, a column of neither input, an aggregate slot.
        for layout in [
            base(&[(1, 0), (0, 0)]),
            base(&[(0, 1), (0, 0), (1, 0)]),
            base(&[(0, 0), (0, 0), (1, 0)]),
            base(&[(0, 0), (1, 1), (2, 0)]),
            vec![LayoutCol::Base(ColId::new(0, 0)), LayoutCol::Agg(0)],
        ] {
            let mut plan = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
            plan.props_mut().layout = layout.clone();
            assert_eq!(diag_codes(&plan), vec!["PL002"], "{layout:?}");
        }
        // Dropping columns is how a join keeps only what is read above it;
        // the order is its set's whichever input is the build.
        let mut plan = hsjn(leaf(0, "a", 2, 10.0), leaf(1, "b", 2, 10.0), 5.0);
        plan.props_mut().layout = base(&[(0, 1), (1, 1)]);
        assert!(diag_codes(&plan).is_empty(), "{:?}", diag_codes(&plan));
        let mut swapped = hsjn(leaf(1, "b", 2, 10.0), leaf(0, "a", 2, 10.0), 5.0);
        if let PhysNode::Hsjn {
            build_keys,
            probe_keys,
            ..
        } = &mut swapped
        {
            std::mem::swap(build_keys, probe_keys);
        }
        assert_eq!(
            swapped.props().layout,
            base(&[(0, 0), (0, 1), (1, 0), (1, 1)])
        );
        assert!(
            diag_codes(&swapped).is_empty(),
            "{:?}",
            diag_codes(&swapped)
        );
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
    fn pl002_nljn_layout_interleaves_outer_and_inner_by_table() {
        // Outer a(id, name) or c(id) as t2; the NLJN's inner is b, t1: its
        // columns go between a's and c's.
        let nljn = |outer_table: usize, layout: &[(usize, usize)]| {
            let outer = leaf(outer_table, "a", 2, 10.0);
            let mut props = outer.props().clone();
            props.tables = pop_plan::TableSet::from_iter([outer_table, 1]);
            props.layout = base(layout);
            props.edge_ranges = vec![pop_plan::ValidityRange::unbounded()];
            PhysNode::Nljn {
                outer: Box::new(outer),
                outer_key: ColId::new(outer_table, 0),
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
            assert!(diag_codes(&nljn(0, clean)).is_empty(), "{clean:?}");
        }
        let clean = &[(1, 0), (1, 1), (2, 0), (2, 1)][..];
        assert!(diag_codes(&nljn(2, clean)).is_empty(), "{clean:?}");
        for broken in [
            &[(0, 1), (0, 0), (1, 1)][..], // reordered outer columns
            &[(0, 0), (1, 1), (2, 0)][..], // a foreign column
            &[(1, 1), (0, 0)][..],         // an outer column after the inner's
        ] {
            assert_eq!(diag_codes(&nljn(0, broken)), vec!["PL002"], "{broken:?}");
        }
        // The outer's columns first, as a concatenation puts them.
        let broken = &[(2, 0), (2, 1), (1, 0)][..];
        assert_eq!(diag_codes(&nljn(2, broken)), vec!["PL002"], "{broken:?}");
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
