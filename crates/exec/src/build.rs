//! Translate a physical plan ([`PhysNode`]) into an executable operator
//! tree — the "code generator" of the paper's architecture diagram.

use crate::batch::JoinSide;
use crate::operators::agg::AggKind;
use crate::operators::{
    AntiJoinRidsOp, GuardOp, HashAggOp, HavingOp, HsjnOp, IndexRangeScanOp, InsertOp, LimitOp,
    MgjnOp, MvScanOp, NljnOp, Operator, ProjectOp, RidSinkOp, SemiProbeOp, SortOp, TableScanOp,
    TempOp,
};
use pop_expr::{BoundExpr, Expr};
use pop_plan::{AggFunc, LayoutCol, PhysNode, SortKeyRef};
use pop_storage::{Catalog, Table};
use pop_types::{ColId, PopError, PopResult};

/// Position of a base column within a layout.
pub(crate) fn pos_of(layout: &[LayoutCol], col: ColId) -> PopResult<usize> {
    layout
        .iter()
        .position(|c| matches!(c, LayoutCol::Base(b) if *b == col))
        .ok_or_else(|| PopError::Planning(format!("column {col} not in operator layout")))
}

/// Bind a leaf-level predicate (scan filter, index residual, NLJN / EXISTS
/// inner filter) of query table `qidx` against the table's schema: leaves
/// evaluate predicates on the stored row, before any column is dropped.
fn bind_to_schema(expr: &Expr, qidx: usize, table: &Table) -> PopResult<BoundExpr> {
    let schema: Vec<ColId> = (0..table.schema().len())
        .map(|c| ColId::new(qidx, c))
        .collect();
    BoundExpr::bind(expr, &schema)
}

/// The table columns a leaf over query table `qidx` copies out: its
/// layout, each entry a column of `table`.
fn leaf_columns(layout: &[LayoutCol], qidx: usize, table: &Table) -> PopResult<Vec<usize>> {
    layout
        .iter()
        .map(|c| match c {
            LayoutCol::Base(b) if b.table == qidx && b.col < table.schema().len() => Ok(b.col),
            other => Err(PopError::Planning(format!(
                "leaf over t{qidx} ({}) cannot emit layout column {other:?}",
                table.name()
            ))),
        })
        .collect()
}

/// Where each column of a join's output `layout` comes from: the input
/// whose layout holds it, and its position there. A join emits its table
/// set's canonical layout, so the sides interleave by table.
fn join_columns(
    layout: &[LayoutCol],
    inputs: [&[LayoutCol]; 2],
) -> PopResult<Vec<(JoinSide, usize)>> {
    let find = |side: JoinSide, input: &[LayoutCol], c: &LayoutCol| {
        input.iter().position(|i| i == c).map(|p| (side, p))
    };
    layout
        .iter()
        .map(|c| {
            find(JoinSide::Left, inputs[0], c)
                .or_else(|| find(JoinSide::Right, inputs[1], c))
                .ok_or_else(|| {
                    PopError::Planning(format!("join output column {c:?} is in neither input"))
                })
        })
        .collect()
}

/// Does this run harvest its materializations? Only a plan that can
/// suspend — checks armed and a CHECK in the plan — ever promotes one.
pub(crate) fn harvests(plan: &PhysNode, checks_enabled: bool) -> bool {
    let mut guarded = false;
    if checks_enabled {
        plan.visit(&mut |n| {
            guarded |= matches!(n, PhysNode::Check { .. } | PhysNode::BufCheck { .. });
        });
    }
    guarded
}

/// Build the operator tree for a plan. With `harvest`, each TEMP, hash-join
/// build and enforcer SORT registers its completed materialization,
/// labelled with its table set, for the driver to promote to a temp MV
/// (§2.3); an ORDER BY sort never does.
pub fn build_operator(
    node: &PhysNode,
    catalog: &Catalog,
    harvest: bool,
) -> PopResult<Box<dyn Operator>> {
    build_wrapped(node, catalog, harvest, &mut |_, op| op)
}

/// [`build_operator`], passing every node's operator through `wrap` (with
/// its plan node) before its parent takes it: the profiler's hook. The
/// query path's `wrap` is the identity.
pub(crate) fn build_wrapped<W>(
    node: &PhysNode,
    catalog: &Catalog,
    harvest: bool,
    wrap: &mut W,
) -> PopResult<Box<dyn Operator>>
where
    W: FnMut(&PhysNode, Box<dyn Operator>) -> Box<dyn Operator>,
{
    let op: Box<dyn Operator> = match node {
        PhysNode::TableScan {
            qidx,
            table,
            pred,
            props,
        } => {
            let t = catalog.table(table)?;
            let bound = pred
                .as_ref()
                .map(|p| bind_to_schema(p, *qidx, &t))
                .transpose()?;
            let cols = leaf_columns(&props.layout, *qidx, &t)?;
            Box::new(TableScanOp::new(t, bound).with_columns(cols))
        }
        PhysNode::IndexRangeScan {
            qidx,
            table,
            column,
            lo,
            hi,
            residual,
            props,
        } => {
            let t = catalog.table(table)?;
            let index = catalog.find_index(t.id(), *column, true).ok_or_else(|| {
                PopError::Planning(format!(
                    "index range scan requires a sorted index on {table}.c{column}"
                ))
            })?;
            let bound = residual
                .as_ref()
                .map(|p| bind_to_schema(p, *qidx, &t))
                .transpose()?;
            let cols = leaf_columns(&props.layout, *qidx, &t)?;
            Box::new(
                IndexRangeScanOp::new(t, index, lo.clone(), hi.clone(), bound).with_columns(cols),
            )
        }
        PhysNode::MvScan { mv_name, props } => {
            let t = catalog.table(mv_name)?;
            let lineage = catalog
                .temp_mv(props.tables.mask())
                .and_then(|mv| mv.lineage);
            Box::new(MvScanOp::new(t, lineage))
        }
        PhysNode::Nljn {
            outer,
            outer_key,
            inner,
            props,
        } => {
            let outer_op = build_wrapped(outer, catalog, harvest, wrap)?;
            let outer_pos = pos_of(&outer.props().layout, *outer_key)?;
            let inner_table = catalog.table(&inner.table)?;
            let index = catalog
                .find_index(inner_table.id(), inner.join_col, false)
                .ok_or_else(|| {
                    PopError::Planning(format!(
                        "NLJN requires an index on {}.c{}",
                        inner.table, inner.join_col
                    ))
                })?;
            let pred = inner
                .pred
                .as_ref()
                .map(|p| bind_to_schema(p, inner.qidx, &inner_table))
                .transpose()?;
            // The inner side is the table itself: its columns by position.
            let inner_layout: Vec<LayoutCol> = (0..inner_table.schema().len())
                .map(|c| LayoutCol::Base(ColId::new(inner.qidx, c)))
                .collect();
            let cols = join_columns(&props.layout, [&outer.props().layout, &inner_layout])?;
            let residual = inner
                .residual_joins
                .iter()
                .map(|(ocol, icol)| Ok((pos_of(&outer.props().layout, *ocol)?, *icol)))
                .collect::<PopResult<Vec<_>>>()?;
            Box::new(NljnOp::new(
                outer_op,
                outer_pos,
                inner_table,
                index,
                pred,
                residual,
                cols,
            ))
        }
        PhysNode::Hsjn {
            build,
            probe,
            build_keys,
            probe_keys,
            props,
        } => {
            let cols = join_columns(
                &props.layout,
                [&build.props().layout, &probe.props().layout],
            )?;
            let ppos = probe_keys
                .iter()
                .map(|k| pos_of(&probe.props().layout, *k))
                .collect::<PopResult<Vec<_>>>()?;
            let build_op = build_wrapped(build, catalog, harvest, wrap)?;
            let probe_op = build_wrapped(probe, catalog, harvest, wrap)?;
            let bpos = build_keys
                .iter()
                .map(|k| pos_of(&build.props().layout, *k))
                .collect::<PopResult<Vec<_>>>()?;
            // Hash-join builds are materializations too: harvest them for
            // potential reuse after a CHECK failure (the enhancement the
            // paper's prototype planned, §4).
            let build_harvest = harvest.then_some(build.props().tables);
            Box::new(
                HsjnOp::new(build_op, probe_op, bpos, ppos, cols).with_build_harvest(build_harvest),
            )
        }
        PhysNode::Mgjn {
            left,
            right,
            left_keys,
            right_keys,
            props,
        } => {
            let cols = join_columns(&props.layout, [&left.props().layout, &right.props().layout])?;
            let left_op = build_wrapped(left, catalog, harvest, wrap)?;
            let right_op = build_wrapped(right, catalog, harvest, wrap)?;
            let (Some(lk), Some(rk)) = (left_keys.first(), right_keys.first()) else {
                return Err(PopError::Planning(
                    "MGJN requires at least one join key per side".into(),
                ));
            };
            let lpos = pos_of(&left.props().layout, *lk)?;
            let rpos = pos_of(&right.props().layout, *rk)?;
            Box::new(MgjnOp::new(left_op, right_op, lpos, rpos, cols))
        }
        PhysNode::Sort {
            input,
            key,
            desc,
            props,
        } => {
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            // An enforcer sort orders a subplan; an ORDER BY sort the
            // query's output, which no violation can follow.
            let (pos, sorts_a_subplan) = match key {
                SortKeyRef::Col(c) => (pos_of(&input.props().layout, *c)?, true),
                SortKeyRef::Pos(p) => (*p, false),
            };
            let tables = (harvest && sorts_a_subplan).then_some(props.tables);
            Box::new(SortOp::new(child, pos, *desc, tables))
        }
        PhysNode::Temp { input, props } => {
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            Box::new(TempOp::new(child, harvest.then_some(props.tables)))
        }
        PhysNode::Project { input, cols, .. } => {
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            let positions = cols
                .iter()
                .map(|c| match c {
                    LayoutCol::Base(b) => pos_of(&input.props().layout, *b),
                    LayoutCol::Agg(i) => input
                        .props()
                        .layout
                        .iter()
                        .position(|l| matches!(l, LayoutCol::Agg(j) if j == i))
                        .ok_or_else(|| {
                            PopError::Planning(format!("aggregate output {i} not in layout"))
                        }),
                })
                .collect::<PopResult<Vec<_>>>()?;
            Box::new(ProjectOp::new(child, positions))
        }
        PhysNode::HashAgg {
            input,
            group_by,
            aggs,
            ..
        } => {
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            let keys = group_by
                .iter()
                .map(|k| pos_of(&input.props().layout, *k))
                .collect::<PopResult<Vec<_>>>()?;
            let kinds = aggs
                .iter()
                .map(|a| {
                    Ok(match a {
                        AggFunc::Count => AggKind::Count,
                        AggFunc::Sum(c) => AggKind::Sum(pos_of(&input.props().layout, *c)?),
                        AggFunc::Min(c) => AggKind::Min(pos_of(&input.props().layout, *c)?),
                        AggFunc::Max(c) => AggKind::Max(pos_of(&input.props().layout, *c)?),
                        AggFunc::Avg(c) => AggKind::Avg(pos_of(&input.props().layout, *c)?),
                    })
                })
                .collect::<PopResult<Vec<_>>>()?;
            Box::new(HashAggOp::new(child, keys, kinds))
        }
        PhysNode::Check { input, spec, .. } => {
            let materialized = input.counted_at_open();
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            let tables = input.props().tables;
            Box::new(GuardOp::check(child, spec.clone(), tables, materialized))
        }
        PhysNode::BufCheck {
            input,
            spec,
            buffer,
            ..
        } => {
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            let tables = input.props().tables;
            Box::new(GuardOp::bufcheck(child, spec.clone(), tables, *buffer))
        }
        PhysNode::SemiProbe { input, clause, .. } => {
            let child = build_wrapped(input, catalog, harvest, wrap)?;
            let outer_pos = pos_of(&input.props().layout, clause.outer_col)?;
            let inner_table = catalog.table(&clause.table)?;
            let index = catalog
                .find_index(inner_table.id(), clause.inner_col, false)
                .ok_or_else(|| {
                    PopError::Planning(format!(
                        "EXISTS probe requires an index on {}.c{}",
                        clause.table, clause.inner_col
                    ))
                })?;
            let pred = clause
                .pred
                .as_ref()
                .map(|p| bind_to_schema(p, 0, &inner_table))
                .transpose()?;
            Box::new(SemiProbeOp::new(
                child,
                outer_pos,
                inner_table,
                index,
                pred,
                clause.negated,
            ))
        }
        PhysNode::Having { input, preds, .. } => Box::new(HavingOp::new(
            build_wrapped(input, catalog, harvest, wrap)?,
            preds.clone(),
        )),
        PhysNode::Limit { input, n, .. } => Box::new(LimitOp::new(
            build_wrapped(input, catalog, harvest, wrap)?,
            *n,
        )),
        PhysNode::RidSink { input, .. } => Box::new(RidSinkOp::new(build_wrapped(
            input, catalog, harvest, wrap,
        )?)),
        PhysNode::AntiJoinRids { input, .. } => Box::new(AntiJoinRidsOp::new(build_wrapped(
            input, catalog, harvest, wrap,
        )?)),
        PhysNode::Insert { input, target, .. } => {
            let t = catalog.table(target)?;
            Box::new(InsertOp::new(
                build_wrapped(input, catalog, harvest, wrap)?,
                t,
            ))
        }
    };
    Ok(wrap(node, op))
}
