//! Translate a physical plan ([`PhysNode`]) into an executable operator
//! tree — the "code generator" of the paper's architecture diagram.

use crate::operators::agg::AggKind;
use crate::operators::materialize::HarvestInfo;
use crate::operators::{
    AntiJoinRidsOp, GuardOp, HashAggOp, HavingOp, HsjnOp, IndexRangeScanOp, InsertOp, LimitOp,
    MgjnOp, MvScanOp, NljnOp, Operator, ProjectOp, RidSinkOp, SemiProbeOp, SortOp, TableScanOp,
    TempOp,
};
use pop_expr::{BoundExpr, Expr};
use pop_plan::{AggFunc, LayoutCol, PhysNode, SortKeyRef};
use pop_storage::{Catalog, Table};
use pop_types::{ColId, PopError, PopResult};
use std::collections::HashMap;

/// What the driver knows about one table set of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subplan {
    /// Subplan signature: labels harvested materializations, CHECK
    /// observations so re-optimization can match them to the query.
    pub signature: String,
    /// [`pop_plan::canonical_layout`] of the set — the column order a
    /// harvested materialization is stored in.
    pub layout: Vec<ColId>,
}

/// Subplans by table-set mask.
pub type Signatures = HashMap<u64, Subplan>;

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
/// layout (for an NLJN, the suffix after the outer layout), each entry a
/// column of `table`.
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

/// Harvest descriptor for a materializing node, when its output is the
/// canonical layout of its table set in some order. A node above the
/// final projection or aggregate carries other columns and is not the
/// subplan's materialization.
pub(crate) fn harvest_info(node: &PhysNode, signatures: &Signatures) -> Option<HarvestInfo> {
    let props = node.props();
    let subplan = signatures.get(&props.tables.mask())?;
    if props.layout.len() != subplan.layout.len() {
        return None;
    }
    let perm = subplan
        .layout
        .iter()
        .map(|c| props.layout.iter().position(|l| *l == LayoutCol::Base(*c)))
        .collect::<Option<Vec<_>>>()?;
    Some(HarvestInfo {
        signature: subplan.signature.clone(),
        canonical_layout: subplan.layout.clone(),
        perm,
    })
}

/// Is the node a materializing operator (for the Figure 10 "check once
/// after materialization" optimization)?
pub(crate) fn is_materializing(node: &PhysNode) -> bool {
    matches!(
        node,
        PhysNode::Sort { .. } | PhysNode::Temp { .. } | PhysNode::MvScan { .. }
    )
}

/// Build the operator tree for a plan.
pub fn build_operator(
    node: &PhysNode,
    catalog: &Catalog,
    signatures: &Signatures,
) -> PopResult<Box<dyn Operator>> {
    Ok(match node {
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
        PhysNode::MvScan {
            mv_name, signature, ..
        } => {
            let t = catalog.table(mv_name)?;
            let lineage = catalog.temp_mv(signature).and_then(|mv| mv.lineage);
            Box::new(MvScanOp::new(t, lineage))
        }
        PhysNode::Nljn {
            outer,
            outer_key,
            inner,
            props,
        } => {
            let outer_op = build_operator(outer, catalog, signatures)?;
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
            let suffix = props
                .layout
                .get(outer.props().layout.len()..)
                .unwrap_or_default();
            let inner_cols = leaf_columns(suffix, inner.qidx, &inner_table)?;
            let residual = inner
                .residual_joins
                .iter()
                .map(|(ocol, icol)| Ok((pos_of(&outer.props().layout, *ocol)?, *icol)))
                .collect::<PopResult<Vec<_>>>()?;
            Box::new(
                NljnOp::new(outer_op, outer_pos, inner_table, index, pred, residual)
                    .with_inner_columns(inner_cols),
            )
        }
        PhysNode::Hsjn {
            build,
            probe,
            build_keys,
            probe_keys,
            ..
        } => {
            let ppos = probe_keys
                .iter()
                .map(|k| pos_of(&probe.props().layout, *k))
                .collect::<PopResult<Vec<_>>>()?;
            let build_op = build_operator(build, catalog, signatures)?;
            let probe_op = build_operator(probe, catalog, signatures)?;
            let bpos = build_keys
                .iter()
                .map(|k| pos_of(&build.props().layout, *k))
                .collect::<PopResult<Vec<_>>>()?;
            // Hash-join builds are materializations too: harvest them for
            // potential reuse after a CHECK failure (the enhancement the
            // paper's prototype planned, §4).
            let build_harvest = harvest_info(build, signatures);
            Box::new(HsjnOp::new(build_op, probe_op, bpos, ppos).with_build_harvest(build_harvest))
        }
        PhysNode::Mgjn {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            let left_op = build_operator(left, catalog, signatures)?;
            let right_op = build_operator(right, catalog, signatures)?;
            let (Some(lk), Some(rk)) = (left_keys.first(), right_keys.first()) else {
                return Err(PopError::Planning(
                    "MGJN requires at least one join key per side".into(),
                ));
            };
            let lpos = pos_of(&left.props().layout, *lk)?;
            let rpos = pos_of(&right.props().layout, *rk)?;
            Box::new(MgjnOp::new(left_op, right_op, lpos, rpos))
        }
        PhysNode::Sort {
            input, key, desc, ..
        } => {
            let child = build_operator(input, catalog, signatures)?;
            let pos = match key {
                SortKeyRef::Col(c) => pos_of(&input.props().layout, *c)?,
                SortKeyRef::Pos(p) => *p,
            };
            Box::new(SortOp::new(
                child,
                pos,
                *desc,
                harvest_info(node, signatures),
            ))
        }
        PhysNode::Temp { input, .. } => {
            let child = build_operator(input, catalog, signatures)?;
            Box::new(TempOp::new(child, harvest_info(node, signatures)))
        }
        PhysNode::Project { input, cols, .. } => {
            let child = build_operator(input, catalog, signatures)?;
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
            let child = build_operator(input, catalog, signatures)?;
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
            let materialized = is_materializing(input);
            let child = build_operator(input, catalog, signatures)?;
            Box::new(GuardOp::check(child, spec.clone(), materialized))
        }
        PhysNode::BufCheck {
            input,
            spec,
            buffer,
            ..
        } => {
            let child = build_operator(input, catalog, signatures)?;
            Box::new(GuardOp::bufcheck(child, spec.clone(), *buffer))
        }
        PhysNode::SemiProbe { input, clause, .. } => {
            let child = build_operator(input, catalog, signatures)?;
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
            build_operator(input, catalog, signatures)?,
            preds.clone(),
        )),
        PhysNode::Limit { input, n, .. } => Box::new(LimitOp::new(
            build_operator(input, catalog, signatures)?,
            *n,
        )),
        PhysNode::RidSink { input, .. } => {
            Box::new(RidSinkOp::new(build_operator(input, catalog, signatures)?))
        }
        PhysNode::AntiJoinRids { input, .. } => Box::new(AntiJoinRidsOp::new(build_operator(
            input, catalog, signatures,
        )?)),
        PhysNode::Insert { input, target, .. } => {
            let t = catalog.table(target)?;
            Box::new(InsertOp::new(
                build_operator(input, catalog, signatures)?,
                t,
            ))
        }
    })
}
