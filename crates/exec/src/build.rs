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
use pop_plan::{AggFunc, Columns, PhysNode, QuerySpec, SortKeyRef};
use pop_storage::{Catalog, Table};
use pop_types::{ColId, PopError, PopResult};

/// Position of a base column within what an input emits.
fn pos_of(input: &Columns, col: ColId) -> PopResult<usize> {
    input
        .position(col)
        .ok_or_else(|| PopError::Planning(format!("column {col} not in operator layout")))
}

/// Bind a leaf-level predicate (scan filter, index residual, NLJN / EXISTS
/// inner filter) of query table `qidx` against the table's schema: leaves
/// evaluate predicates on the stored row, before any column is dropped.
fn bind_to_schema(expr: &Expr, qidx: usize, table: &Table) -> PopResult<BoundExpr> {
    BoundExpr::bind(expr, &table_columns(qidx, table))
}

/// The columns of `table` as query table `qidx`, by position.
fn table_columns(qidx: usize, table: &Table) -> Vec<ColId> {
    (0..table.schema().len())
        .map(|c| ColId::new(qidx, c))
        .collect()
}

/// The table columns a leaf over query table `qidx` copies out: its
/// columns, each a column of `table`.
fn leaf_columns(cols: &Columns, qidx: usize, table: &Table) -> PopResult<Vec<usize>> {
    cols.base()
        .iter()
        .map(|c| {
            if c.table == qidx && c.col < table.schema().len() {
                Ok(c.col)
            } else {
                Err(PopError::Planning(format!(
                    "leaf over t{qidx} ({}) cannot emit column {c}",
                    table.name()
                )))
            }
        })
        .collect()
}

/// Where each column of a join's output comes from: the input that emits
/// it, and its position there. A join emits its table set's canonical
/// layout, so the sides interleave by table.
fn join_columns(out: &Columns, inputs: [&Columns; 2]) -> PopResult<Vec<(JoinSide, usize)>> {
    out.base()
        .iter()
        .map(|&c| {
            (inputs[0].position(c).map(|p| (JoinSide::Left, p)))
                .or_else(|| inputs[1].position(c).map(|p| (JoinSide::Right, p)))
                .ok_or_else(|| {
                    PopError::Planning(format!("join output column {c} is in neither input"))
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

/// Build the operator tree for `node`, a plan for `spec` whose query table
/// `t` has `col_counts[t]` columns. With `harvest`, each TEMP, hash-join
/// build and enforcer SORT registers its completed materialization,
/// labelled with its table set, for the driver to promote to a temp MV
/// (§2.3); an ORDER BY sort never does.
pub fn build_operator(
    node: &PhysNode,
    spec: &QuerySpec,
    col_counts: &[usize],
    catalog: &Catalog,
    harvest: bool,
) -> PopResult<Box<dyn Operator>> {
    let builder = Builder {
        spec,
        col_counts,
        catalog,
        harvest,
    };
    Ok(builder.build(node, &mut |_, op| op)?.0)
}

/// What building a plan reads besides the plan: the query it was compiled
/// from and its tables' column counts (every node's columns derive from
/// them, [`PhysNode::columns`]), the catalog, and whether materializations
/// are harvested.
pub(crate) struct Builder<'a> {
    pub(crate) spec: &'a QuerySpec,
    pub(crate) col_counts: &'a [usize],
    pub(crate) catalog: &'a Catalog,
    pub(crate) harvest: bool,
}

impl Builder<'_> {
    /// The operator of `node` and the columns it emits, each node's
    /// columns derived once, bottom-up: a wrapper passes its input's
    /// through. Every node's operator passes through `wrap` (with its
    /// plan node) before its parent takes it: the profiler's hook. The
    /// query path's `wrap` is the identity.
    pub(crate) fn build<W>(
        &self,
        node: &PhysNode,
        wrap: &mut W,
    ) -> PopResult<(Box<dyn Operator>, Columns)>
    where
        W: FnMut(&PhysNode, Box<dyn Operator>) -> Box<dyn Operator>,
    {
        let (catalog, harvest) = (self.catalog, self.harvest);
        let columns = || node.columns(self.spec, self.col_counts);
        let (op, cols): (Box<dyn Operator>, Columns) = match node {
            PhysNode::TableScan {
                qidx, table, pred, ..
            } => {
                let t = catalog.table(table)?;
                let bound = pred
                    .as_ref()
                    .map(|p| bind_to_schema(p, *qidx, &t))
                    .transpose()?;
                let out = columns();
                let cols = leaf_columns(&out, *qidx, &t)?;
                (Box::new(TableScanOp::new(t, bound).with_columns(cols)), out)
            }
            PhysNode::IndexRangeScan {
                qidx,
                table,
                column,
                lo,
                hi,
                residual,
                ..
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
                let out = columns();
                let cols = leaf_columns(&out, *qidx, &t)?;
                let op = IndexRangeScanOp::new(t, index, lo.clone(), hi.clone(), bound);
                (Box::new(op.with_columns(cols)), out)
            }
            PhysNode::MvScan { mv_name, props } => {
                let t = catalog.table(mv_name)?;
                let lineage = catalog
                    .temp_mv(props.tables.mask())
                    .and_then(|mv| mv.lineage);
                (Box::new(MvScanOp::new(t, lineage)), columns())
            }
            PhysNode::Nljn {
                outer,
                outer_key,
                inner,
                ..
            } => {
                let (outer_op, outer_cols) = self.build(outer, wrap)?;
                let outer_pos = pos_of(&outer_cols, *outer_key)?;
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
                let inner_cols = Columns::Base(table_columns(inner.qidx, &inner_table));
                let out = columns();
                let cols = join_columns(&out, [&outer_cols, &inner_cols])?;
                let residual = inner
                    .residual_joins
                    .iter()
                    .map(|(ocol, icol)| Ok((pos_of(&outer_cols, *ocol)?, *icol)))
                    .collect::<PopResult<Vec<_>>>()?;
                let op = NljnOp::new(
                    outer_op,
                    outer_pos,
                    inner_table,
                    index,
                    pred,
                    residual,
                    cols,
                );
                (Box::new(op), out)
            }
            PhysNode::Hsjn {
                build,
                probe,
                build_keys,
                probe_keys,
                ..
            } => {
                let (build_op, build_cols) = self.build(build, wrap)?;
                let (probe_op, probe_cols) = self.build(probe, wrap)?;
                let out = columns();
                let cols = join_columns(&out, [&build_cols, &probe_cols])?;
                let positions = |keys: &[ColId], input: &Columns| {
                    (keys.iter().map(|k| pos_of(input, *k))).collect::<PopResult<Vec<_>>>()
                };
                let bpos = positions(build_keys, &build_cols)?;
                let ppos = positions(probe_keys, &probe_cols)?;
                // Hash-join builds are materializations too: harvest them for
                // potential reuse after a CHECK failure (the enhancement the
                // paper's prototype planned, §4).
                let build_harvest = harvest.then_some(build.props().tables);
                let op = HsjnOp::new(build_op, probe_op, bpos, ppos, cols)
                    .with_build_harvest(build_harvest);
                (Box::new(op), out)
            }
            PhysNode::Mgjn {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                let (left_op, left_cols) = self.build(left, wrap)?;
                let (right_op, right_cols) = self.build(right, wrap)?;
                let out = columns();
                let cols = join_columns(&out, [&left_cols, &right_cols])?;
                let (Some(lk), Some(rk)) = (left_keys.first(), right_keys.first()) else {
                    return Err(PopError::Planning(
                        "MGJN requires at least one join key per side".into(),
                    ));
                };
                let lpos = pos_of(&left_cols, *lk)?;
                let rpos = pos_of(&right_cols, *rk)?;
                let op = MgjnOp::new(left_op, right_op, lpos, rpos, cols);
                (Box::new(op), out)
            }
            PhysNode::Sort {
                input,
                key,
                desc,
                props,
            } => {
                let (child, cols) = self.build(input, wrap)?;
                // An enforcer sort orders a subplan; an ORDER BY sort the
                // query's output, which no violation can follow.
                let (pos, sorts_a_subplan) = match key {
                    SortKeyRef::Col(c) => (pos_of(&cols, *c)?, true),
                    SortKeyRef::Pos(p) => (*p, false),
                };
                let tables = (harvest && sorts_a_subplan).then_some(props.tables);
                (Box::new(SortOp::new(child, pos, *desc, tables)), cols)
            }
            PhysNode::Temp { input, props } => {
                let (child, cols) = self.build(input, wrap)?;
                let op = TempOp::new(child, harvest.then_some(props.tables));
                (Box::new(op), cols)
            }
            PhysNode::Project { input, cols, .. } => {
                let (child, input_cols) = self.build(input, wrap)?;
                let positions = (cols.iter())
                    .map(|c| pos_of(&input_cols, *c))
                    .collect::<PopResult<Vec<_>>>()?;
                (Box::new(ProjectOp::new(child, positions)), columns())
            }
            PhysNode::HashAgg {
                input,
                group_by,
                aggs,
                ..
            } => {
                let (child, input_cols) = self.build(input, wrap)?;
                let pos = |c: &ColId| pos_of(&input_cols, *c);
                let keys = group_by.iter().map(pos).collect::<PopResult<Vec<_>>>()?;
                let kinds = aggs
                    .iter()
                    .map(|a| {
                        Ok(match a {
                            AggFunc::Count => AggKind::Count,
                            AggFunc::Sum(c) => AggKind::Sum(pos(c)?),
                            AggFunc::Min(c) => AggKind::Min(pos(c)?),
                            AggFunc::Max(c) => AggKind::Max(pos(c)?),
                            AggFunc::Avg(c) => AggKind::Avg(pos(c)?),
                        })
                    })
                    .collect::<PopResult<Vec<_>>>()?;
                (Box::new(HashAggOp::new(child, keys, kinds)), columns())
            }
            PhysNode::Check { input, spec, .. } => {
                let materialized = input.counted_at_open();
                let (child, cols) = self.build(input, wrap)?;
                let tables = input.props().tables;
                let op = GuardOp::check(child, spec.clone(), tables, materialized);
                (Box::new(op), cols)
            }
            PhysNode::BufCheck {
                input,
                spec,
                buffer,
                ..
            } => {
                let (child, cols) = self.build(input, wrap)?;
                let tables = input.props().tables;
                let op = GuardOp::bufcheck(child, spec.clone(), tables, *buffer);
                (Box::new(op), cols)
            }
            PhysNode::SemiProbe { input, clause, .. } => {
                let (child, cols) = self.build(input, wrap)?;
                let outer_pos = pos_of(&cols, clause.outer_col)?;
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
                let op =
                    SemiProbeOp::new(child, outer_pos, inner_table, index, pred, clause.negated);
                (Box::new(op), cols)
            }
            PhysNode::Having { input, preds, .. } => {
                let (child, cols) = self.build(input, wrap)?;
                (Box::new(HavingOp::new(child, preds.clone())), cols)
            }
            PhysNode::Limit { input, n, .. } => {
                let (child, cols) = self.build(input, wrap)?;
                (Box::new(LimitOp::new(child, *n)), cols)
            }
            PhysNode::RidSink { input, .. } => {
                let (child, cols) = self.build(input, wrap)?;
                (Box::new(RidSinkOp::new(child)), cols)
            }
            PhysNode::AntiJoinRids { input, .. } => {
                let (child, cols) = self.build(input, wrap)?;
                (Box::new(AntiJoinRidsOp::new(child)), cols)
            }
            PhysNode::Insert { input, target, .. } => {
                let t = catalog.table(target)?;
                let (child, cols) = self.build(input, wrap)?;
                (Box::new(InsertOp::new(child, t)), cols)
            }
        };
        Ok((wrap(node, op), cols))
    }
}
