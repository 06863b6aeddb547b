//! Pass 1: schema/layout checking (`PL001`, `PL003`).
//!
//! The executor's `build_operator` binds every expression positionally:
//! leaf-level predicates (scan filters, index residuals, NLJN inner
//! filters) against the stored row's table schema, everything above
//! against the columns its input emits. A reference that does not resolve
//! there is either a runtime error or — worse — a silent bind to the
//! wrong column. What a node emits is derived from the query, as the
//! executor derives it ([`PhysNode::columns`]): a node over a table set
//! emits only the columns the query reads above its set, so a column used
//! higher up but not read above a set shows here as `PL001` at its
//! reader. Operator arguments (join-key lists, sort and HAVING positions)
//! must be well-formed (`PL003`).

use crate::{DiagCode, LintContext, NodeCx, Sink};
use pop_expr::Expr;
use pop_plan::{AggFunc, Columns, PhysNode, SortKeyRef};
use pop_types::ColId;

pub(crate) fn check(cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink) {
    let (node, path) = (cx.node, cx.path);
    let resolves = |col: ColId, input: &Columns, what: &str, sink: &mut Sink| {
        if input.position(col).is_none() {
            sink.emit(
                DiagCode::Pl001,
                node,
                path,
                format!("{what} {col} not in input layout"),
            );
        }
    };
    let in_range = |col: usize, table: &str, ncols: Option<usize>, what: &str, sink: &mut Sink| {
        if let Some(n) = ncols.filter(|n| col >= *n) {
            sink.emit(
                DiagCode::Pl001,
                node,
                path,
                format!("{what} {col} out of range for {table} ({n} columns)"),
            );
        }
    };
    let in_schema =
        |expr: &Expr, qidx: usize, ncols: Option<usize>, what: &str, sink: &mut Sink| {
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
        };
    match node {
        PhysNode::TableScan {
            qidx, table, pred, ..
        } => {
            if let Some(p) = pred {
                in_schema(p, *qidx, ctx.schema_len(table), "scan predicate", sink);
            }
        }
        PhysNode::IndexRangeScan {
            qidx,
            table,
            column,
            residual,
            ..
        } => {
            let ncols = ctx.schema_len(table);
            in_range(*column, table, ncols, "index column", sink);
            if let Some(r) = residual {
                in_schema(r, *qidx, ncols, "index residual", sink);
            }
        }
        PhysNode::Nljn {
            outer,
            outer_key,
            inner,
            ..
        } => {
            let outer_cols = ctx.columns(outer);
            let ncols = ctx.schema_len(&inner.table);
            resolves(*outer_key, &outer_cols, "NLJN outer key", sink);
            for (ocol, icol) in &inner.residual_joins {
                resolves(*ocol, &outer_cols, "NLJN residual join", sink);
                in_range(
                    *icol,
                    &inner.table,
                    ncols,
                    "NLJN residual inner column",
                    sink,
                );
            }
            in_range(
                inner.join_col,
                &inner.table,
                ncols,
                "NLJN join column",
                sink,
            );
            if let Some(p) = &inner.pred {
                in_schema(p, inner.qidx, ncols, "NLJN inner predicate", sink);
            }
            // The inner side is the inner table's stored row.
            let from_inner = |c: ColId| c.table == inner.qidx && ncols.is_none_or(|n| c.col < n);
            for c in ctx.columns(node).base() {
                if outer_cols.position(*c).is_none() && !from_inner(*c) {
                    sink.emit(
                        DiagCode::Pl001,
                        node,
                        path,
                        format!("NLJN output column {c} in neither the outer nor the inner table"),
                    );
                }
            }
        }
        PhysNode::Hsjn {
            build: left,
            probe: right,
            build_keys: left_keys,
            probe_keys: right_keys,
            ..
        }
        | PhysNode::Mgjn {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            check_join_keys(node, left_keys, right_keys, path, sink);
            let inputs = [ctx.columns(left), ctx.columns(right)];
            for k in left_keys {
                resolves(*k, &inputs[0], "left join key", sink);
            }
            for k in right_keys {
                resolves(*k, &inputs[1], "right join key", sink);
            }
            for c in ctx.columns(node).base() {
                if inputs.iter().all(|i| i.position(*c).is_none()) {
                    sink.emit(
                        DiagCode::Pl001,
                        node,
                        path,
                        format!("join output column {c} in neither input"),
                    );
                }
            }
        }
        PhysNode::Sort { input, key, .. } => match key {
            SortKeyRef::Col(c) => resolves(*c, &ctx.columns(input), "sort key", sink),
            SortKeyRef::Pos(p) => check_position(node, *p, &ctx.columns(input), "sort", path, sink),
        },
        PhysNode::Project { input, cols, .. } => {
            let input = ctx.columns(input);
            for c in cols {
                resolves(*c, &input, "projected column", sink);
            }
        }
        PhysNode::HashAgg {
            input,
            group_by,
            aggs,
            ..
        } => {
            let input = ctx.columns(input);
            for c in group_by {
                resolves(*c, &input, "group-by key", sink);
            }
            for a in aggs {
                if let AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) | AggFunc::Avg(c) = a {
                    resolves(*c, &input, "aggregate argument", sink);
                }
            }
        }
        PhysNode::Having { input, preds, .. } => {
            let input = ctx.columns(input);
            for p in preds {
                check_position(node, p.pos, &input, "HAVING", path, sink);
            }
        }
        PhysNode::SemiProbe { input, clause, .. } => {
            resolves(
                clause.outer_col,
                &ctx.columns(input),
                "semi-probe outer column",
                sink,
            );
        }
        PhysNode::MvScan { .. }
        | PhysNode::Check { .. }
        | PhysNode::BufCheck { .. }
        | PhysNode::Temp { .. }
        | PhysNode::RidSink { .. }
        | PhysNode::AntiJoinRids { .. }
        | PhysNode::Limit { .. }
        | PhysNode::Insert { .. } => {}
    }
}

fn check_join_keys(node: &PhysNode, a: &[ColId], b: &[ColId], path: &[usize], sink: &mut Sink) {
    let what = node.name();
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

/// An output position (ORDER BY, HAVING) inside the input's width.
fn check_position(
    node: &PhysNode,
    pos: usize,
    input: &Columns,
    what: &str,
    path: &[usize],
    sink: &mut Sink,
) {
    if pos >= input.len() {
        sink.emit(
            DiagCode::Pl003,
            node,
            path,
            format!(
                "{what} position {pos} out of range (layout has {} columns)",
                input.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use crate::{lint_plan, LintContext};
    use pop_expr::Expr;
    use pop_plan::{AggFunc, InnerProbe, PhysNode, QueryBuilder, SortKeyRef, TableSet};
    use pop_types::{ColId, Value};

    fn diag_codes(plan: &PhysNode) -> Vec<&'static str> {
        codes(&lint(plan))
    }

    fn cols(cols: &[(usize, usize)]) -> Vec<ColId> {
        cols.iter().map(|(t, c)| ColId::new(*t, *c)).collect()
    }

    /// `PROJECT[cols](input)`.
    fn project(input: PhysNode, out: &[(usize, usize)]) -> PhysNode {
        let props = input.props().clone();
        PhysNode::Project {
            input: Box::new(input),
            cols: cols(out),
            props,
        }
    }

    /// `input` with an aggregate on top: `GROUP BY a.name`, `COUNT(*)`,
    /// `SUM(a.grp)`.
    fn aggregate(input: PhysNode) -> PhysNode {
        let props = input.props().clone();
        PhysNode::HashAgg {
            input: Box::new(input),
            group_by: vec![ColId::new(0, 1)],
            aggs: vec![AggFunc::Count, AggFunc::Sum(ColId::new(0, 2))],
            props,
        }
    }

    /// `NLJN(outer, b)` on `a.id = b.id`.
    fn nljn(outer: PhysNode) -> PhysNode {
        let mut props = outer.props().clone();
        props.tables = TableSet::from_iter([0, 1]);
        props.edge_ranges = vec![pop_plan::ValidityRange::unbounded()];
        PhysNode::Nljn {
            outer: Box::new(outer),
            outer_key: ColId::new(0, 0),
            inner: InnerProbe {
                qidx: 1,
                table: "b".into(),
                join_col: 0,
                pred: None,
                residual_joins: vec![],
                inner_card: 10.0,
            },
            props,
        }
    }

    #[test]
    fn pl001_unresolved_join_key() {
        // Build key t7.c0 resolves in neither child layout.
        let mut plan = hsjn(leaf(0, "a", 10.0), leaf(1, "b", 10.0), 5.0);
        if let PhysNode::Hsjn { build_keys, .. } = &mut plan {
            build_keys[0] = ColId::new(7, 0);
        }
        assert_eq!(diag_codes(&plan), vec!["PL001"]);
    }

    /// `a ⋈ b ON a.id = b.id` filtered on `a.grp`, projecting `b.v` — so
    /// `a` emits only `id`, `b` emits `id, v`, the join `v`.
    fn pruned_query() -> pop_plan::QuerySpec {
        let mut q = QueryBuilder::new();
        let a = q.table("a");
        let b = q.table("b");
        q.join(a, 0, b, 0);
        q.filter(a, Expr::col(a, 2).eq(Expr::lit(1i64)));
        q.project(&[(b, 1)]);
        q.build().unwrap()
    }

    /// `SCAN a WHERE grp = 1`.
    fn filtered_a() -> PhysNode {
        let mut scan = leaf(0, "a", 10.0);
        if let PhysNode::TableScan { pred, .. } = &mut scan {
            *pred = Some(Expr::col(0, 2).eq(Expr::lit(1i64)));
        }
        scan
    }

    fn pruned_codes(plan: &PhysNode) -> Vec<&'static str> {
        let (cat, q) = (catalog(), pruned_query());
        codes(&lint_plan(plan, &LintContext::full(&cat, &q)))
    }

    #[test]
    fn pruned_leaf_columns_lint_clean() {
        // The scan filters on a.grp, which it does not emit: leaf
        // predicates resolve against the schema, not the layout.
        let plan = project(nljn(filtered_a()), &[(1, 1)]);
        assert!(pruned_codes(&plan).is_empty(), "{plan}");
    }

    #[test]
    fn pl001_leaf_missing_a_column_used_above() {
        // Nothing in the query reads a.name, so the scan does not emit it.
        let plan = project(filtered_a(), &[(0, 1)]);
        assert_eq!(pruned_codes(&plan), vec!["PL001"]);
    }

    #[test]
    fn pl001_join_dropped_a_column_read_above() {
        // The join consumed its key a.id; it emits b.v alone.
        let plan = project(nljn(filtered_a()), &[(0, 0)]);
        assert_eq!(pruned_codes(&plan), vec!["PL001"]);
    }

    #[test]
    fn pl001_join_output_column_in_neither_input() {
        // Under `SELECT *` the join emits every column of a and b; an
        // input that dropped a.name cannot supply it.
        let narrow_a = || project(leaf(0, "a", 10.0), &[(0, 0), (0, 2)]);
        let plan = hsjn(narrow_a(), leaf(1, "b", 10.0), 5.0);
        assert_eq!(diag_codes(&plan), vec!["PL001"]);
        assert_eq!(diag_codes(&nljn(narrow_a())), vec!["PL001"]);
        assert!(diag_codes(&nljn(leaf(0, "a", 10.0))).is_empty());
    }

    #[test]
    fn pl001_unresolved_filter_column() {
        // The filter names a.c9; `a` has three columns.
        let mut plan = leaf(0, "a", 10.0);
        if let PhysNode::TableScan { pred, .. } = &mut plan {
            *pred = Some(Expr::col(0, 9).eq(Expr::lit(1i64)));
        }
        assert_eq!(diag_codes(&plan), vec!["PL001"]);
        if let PhysNode::TableScan { pred, .. } = &mut plan {
            *pred = Some(Expr::col(1, 0).eq(Expr::lit(1i64)));
        }
        assert_eq!(diag_codes(&plan), vec!["PL001"]);
    }

    #[test]
    fn pl001_unresolved_sort_key() {
        let input = leaf(0, "a", 10.0);
        let props = input.props().clone();
        let sort = PhysNode::Sort {
            input: Box::new(input),
            key: SortKeyRef::Col(ColId::new(3, 3)),
            desc: false,
            props,
        };
        assert_eq!(diag_codes(&sort), vec!["PL001"]);
    }

    #[test]
    fn pl003_empty_join_keys() {
        let mut plan = hsjn(leaf(0, "a", 10.0), leaf(1, "b", 10.0), 5.0);
        if let PhysNode::Hsjn { build_keys, .. } = &mut plan {
            build_keys.clear();
        }
        assert!(diag_codes(&plan).contains(&"PL003"));
    }

    #[test]
    fn pl003_having_position_out_of_range() {
        let input = leaf(0, "a", 10.0);
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
        assert_eq!(diag_codes(&h), vec!["PL003"]);
    }

    #[test]
    fn clean_aggregate_and_projection() {
        let agg = aggregate(leaf(0, "a", 10.0));
        assert!(diag_codes(&agg).is_empty(), "{:?}", diag_codes(&agg));
        let proj = project(leaf(0, "a", 10.0), &[(0, 2), (0, 0)]);
        assert!(diag_codes(&proj).is_empty(), "{:?}", diag_codes(&proj));
    }

    /// An aggregate emits a width: positions above it count group keys and
    /// aggregates, and no column resolves by id.
    #[test]
    fn above_an_aggregate_only_positions_resolve() {
        let sort = |key: SortKeyRef| {
            let agg = aggregate(leaf(0, "a", 10.0));
            let props = agg.props().clone();
            PhysNode::Sort {
                input: Box::new(agg),
                key,
                desc: false,
                props,
            }
        };
        assert!(diag_codes(&sort(SortKeyRef::Pos(2))).is_empty());
        assert_eq!(diag_codes(&sort(SortKeyRef::Pos(3))), vec!["PL003"]);
        let by_col = sort(SortKeyRef::Col(ColId::new(0, 1)));
        assert_eq!(diag_codes(&by_col), vec!["PL001"]);
        let plan = project(aggregate(leaf(0, "a", 10.0)), &[(0, 1)]);
        assert_eq!(diag_codes(&plan), vec!["PL001"]);
    }
}
