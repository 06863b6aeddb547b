//! Translate a physical plan ([`PhysNode`]) into an executable operator
//! tree — the "code generator" of the paper's architecture diagram.

use crate::operators::agg::AggKind;
use crate::operators::guard::FoldCell;
use crate::operators::joins::BuildState;
use crate::operators::materialize::HarvestInfo;
use crate::operators::parallel::{ExchangeSourceOp, ExchangeState};
use crate::operators::{
    AntiJoinRidsOp, GatherOp, GuardOp, HashAggOp, HavingOp, HsjnOp, IndexRangeScanOp, InsertOp,
    LimitOp, MgjnOp, MonitorSet, MonitorSpec, MvScanOp, NljnOp, Operator, ProjectOp, RidSinkOp,
    SemiProbeOp, SortOp, TableScanOp, TempOp,
};
use pop_expr::{BoundExpr, Expr};
use pop_plan::{AggFunc, LayoutCol, PhysNode, SortKeyRef};
use pop_storage::{Catalog, Table};
use pop_types::{ColId, PopError, PopResult};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// What the driver knows about one table set of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subplan {
    /// Subplan signature: labels harvested materializations, CHECK and
    /// monitor observations so re-optimization can match them to the query.
    pub signature: String,
    /// [`pop_plan::canonical_layout`] of the set — the column order a
    /// harvested materialization is stored in.
    pub layout: Vec<ColId>,
}

/// Subplans by table-set mask.
pub type Signatures = HashMap<u64, Subplan>;

/// Per-partition build environment: when present, the operator tree being
/// built is one partition's instance of a parallel region (below a
/// `Gather`). Scans take their partition slice, hash joins reference the
/// controller's shared builds, every guarded node (fold-registered CHECK
/// or monitor) attaches to its shared [`FoldCell`], and an `Exchange` node
/// becomes this consumer's receive leaf.
///
/// Shared builds are consumed via a cursor in **spine pre-order** — the
/// same order the region controller collected them in
/// ([`crate::operators::parallel::visit_spine_indexed`]). Guard cells are
/// keyed by the node's pre-order index in the *full* plan, claimed
/// through the [`NodeCursor`] every builder walks with.
pub(crate) struct PartitionEnv {
    part: usize,
    parts: usize,
    builds: Vec<Arc<BuildState>>,
    cells: Arc<HashMap<usize, Arc<FoldCell>>>,
    exchange: Option<Arc<ExchangeState>>,
    build_cursor: Cell<usize>,
}

impl PartitionEnv {
    pub(crate) fn new(
        part: usize,
        parts: usize,
        builds: Vec<Arc<BuildState>>,
        cells: Arc<HashMap<usize, Arc<FoldCell>>>,
        exchange: Option<Arc<ExchangeState>>,
    ) -> Self {
        PartitionEnv {
            part,
            parts,
            builds,
            cells,
            exchange,
            build_cursor: Cell::new(0),
        }
    }

    fn next_build(&self) -> PopResult<Arc<BuildState>> {
        let i = self.build_cursor.get();
        self.build_cursor.set(i + 1);
        self.builds.get(i).cloned().ok_or_else(|| {
            PopError::Planning("parallel region has more hash joins than shared builds".into())
        })
    }
}

/// Pre-order position in the full plan during operator construction, plus
/// the serial monitors to install along the way. The builder recurses in
/// the plan's `children()` pre-order, so advancing one index per built
/// node keeps the cursor aligned with the driver's pre-order enumeration.
/// Subtrees the current recursion does *not* build are skipped wholesale:
/// a region instance skips the shared build side of its hash joins (built
/// once, serially, by the controller) and a consumer chain skips the
/// producer stage below its `Exchange` (built by the stage workers); the
/// controller hands each of those builders a cursor positioned at the
/// subtree's own pre-order base.
pub(crate) struct NodeCursor<'a> {
    monitors: Option<&'a MonitorSet>,
    next: Cell<usize>,
}

impl<'a> NodeCursor<'a> {
    /// Cursor positioned at pre-order index `start`, installing the
    /// serial monitors of `monitors` (region instances pass `None`: their
    /// monitors are shared cells of the [`PartitionEnv`]).
    pub(crate) fn at(monitors: Option<&'a MonitorSet>, start: usize) -> Self {
        NodeCursor {
            monitors,
            next: Cell::new(start),
        }
    }

    /// Claim the current node's pre-order index.
    fn take(&self) -> usize {
        let i = self.next.get();
        self.next.set(i + 1);
        i
    }

    fn monitor_at(&self, idx: usize) -> Option<&'a MonitorSpec> {
        self.monitors.and_then(|m| m.specs.get(&idx))
    }

    /// Current pre-order position (the index the next `take` will claim).
    fn pos(&self) -> usize {
        self.next.get()
    }

    fn skip(&self, n: usize) {
        self.next.set(self.next.get() + n);
    }
}

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
    build_with_env(node, catalog, signatures, None, &NodeCursor::at(None, 0))
}

/// [`build_operator`] with suboptimality monitors: every node whose
/// pre-order index appears in `monitors` is wrapped in a monitor guard.
pub fn build_monitored(
    node: &PhysNode,
    catalog: &Catalog,
    signatures: &Signatures,
    monitors: &MonitorSet,
) -> PopResult<Box<dyn Operator>> {
    let cursor = NodeCursor::at(Some(monitors), 0);
    build_with_env(node, catalog, signatures, None, &cursor)
}

/// [`build_operator`], optionally inside a parallel region: with an env,
/// this builds *one partition's* instance of the region spine.
pub(crate) fn build_with_env(
    node: &PhysNode,
    catalog: &Catalog,
    signatures: &Signatures,
    env: Option<&PartitionEnv>,
    cur: &NodeCursor,
) -> PopResult<Box<dyn Operator>> {
    // Claim this node's pre-order index up front, before any child
    // recursion, so the cursor walks the exact enumeration order the
    // driver used when computing the monitor set.
    let idx = cur.take();
    // Operators whose semantics are inherently global (total order,
    // materialization, global limit, cross-step compensation, side
    // effects) never appear inside a region — the parallelize pass keeps
    // them above the Gather. Refuse at build time as the last line of
    // defense.
    if env.is_some() {
        match node {
            PhysNode::Sort { .. }
            | PhysNode::Temp { .. }
            | PhysNode::Mgjn { .. }
            | PhysNode::MvScan { .. }
            | PhysNode::BufCheck { .. }
            | PhysNode::Limit { .. }
            | PhysNode::RidSink { .. }
            | PhysNode::AntiJoinRids { .. }
            | PhysNode::Insert { .. } => {
                return Err(PopError::Planning(format!(
                    "{} inside a parallel region is not supported",
                    node.name()
                )))
            }
            _ => {}
        }
    }
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
            let op = TableScanOp::new(t, bound).with_columns(cols);
            match env {
                Some(e) => Box::new(op.with_partition(e.part, e.parts)),
                None => Box::new(op),
            }
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
            let op =
                IndexRangeScanOp::new(t, index, lo.clone(), hi.clone(), bound).with_columns(cols);
            match env {
                Some(e) => Box::new(op.with_partition(e.part, e.parts)),
                None => Box::new(op),
            }
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
            let outer_op = build_with_env(outer, catalog, signatures, env, cur)?;
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
            if let Some(e) = env {
                // Inside a region the controller built this join's hash
                // table once; attach this partition's probe to it. The
                // shared-build cursor advances *before* the probe subtree
                // is built: spine pre-order, matching the controller. The
                // node cursor skips the build subtree (built and monitored
                // by the controller's serial build pass, not this instance).
                let state = e.next_build()?;
                cur.skip(build.node_count());
                let probe_op = build_with_env(probe, catalog, signatures, env, cur)?;
                let join: Box<dyn Operator> =
                    Box::new(HsjnOp::with_shared_build(probe_op, ppos, state));
                return Ok(wrap_monitor(join, idx, env, cur));
            }
            let build_op = build_with_env(build, catalog, signatures, env, cur)?;
            let probe_op = build_with_env(probe, catalog, signatures, env, cur)?;
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
            let left_op = build_with_env(left, catalog, signatures, env, cur)?;
            let right_op = build_with_env(right, catalog, signatures, env, cur)?;
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
            let child = build_with_env(input, catalog, signatures, env, cur)?;
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
            let child = build_with_env(input, catalog, signatures, env, cur)?;
            Box::new(TempOp::new(child, harvest_info(node, signatures)))
        }
        PhysNode::Project { input, cols, .. } => {
            let child = build_with_env(input, catalog, signatures, env, cur)?;
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
            let child = build_with_env(input, catalog, signatures, env, cur)?;
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
            if let Some(e) = env {
                // Inside a region a CHECK compares per-partition counts
                // against a global range unless it folds into the shared
                // cell the controller registered for it — refuse anything
                // unregistered (PL306 statically, this error dynamically).
                let cell = e.cells.get(&idx).filter(|_| spec.fold).ok_or_else(|| {
                    PopError::Planning(format!(
                        "CHECK #{} inside a parallel region lacks fold registration",
                        spec.id
                    ))
                })?;
                let child = build_with_env(input, catalog, signatures, env, cur)?;
                return Ok(Box::new(GuardOp::shared(child, Arc::clone(cell))));
            }
            let materialized = is_materializing(input);
            let child = build_with_env(input, catalog, signatures, env, cur)?;
            Box::new(GuardOp::check(child, spec.clone(), materialized))
        }
        PhysNode::BufCheck {
            input,
            spec,
            buffer,
            ..
        } => {
            let child = build_with_env(input, catalog, signatures, env, cur)?;
            Box::new(GuardOp::bufcheck(child, spec.clone(), *buffer))
        }
        PhysNode::SemiProbe { input, clause, .. } => {
            let child = build_with_env(input, catalog, signatures, env, cur)?;
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
            build_with_env(input, catalog, signatures, env, cur)?,
            preds.clone(),
        )),
        PhysNode::Limit { input, n, .. } => Box::new(LimitOp::new(
            build_with_env(input, catalog, signatures, env, cur)?,
            *n,
        )),
        PhysNode::RidSink { input, .. } => Box::new(RidSinkOp::new(build_with_env(
            input, catalog, signatures, env, cur,
        )?)),
        PhysNode::AntiJoinRids { input, .. } => Box::new(AntiJoinRidsOp::new(build_with_env(
            input, catalog, signatures, env, cur,
        )?)),
        PhysNode::Insert { input, target, .. } => {
            let t = catalog.table(target)?;
            Box::new(InsertOp::new(
                build_with_env(input, catalog, signatures, env, cur)?,
                t,
            ))
        }
        PhysNode::Exchange { input, .. } => match env {
            // One partition's view of an exchange is its receive leaf; the
            // producer stage below is built (and run) by separate workers,
            // so the node cursor skips the whole producer subtree.
            Some(e) => match &e.exchange {
                Some(state) => {
                    cur.skip(input.node_count());
                    Box::new(ExchangeSourceOp::new(Arc::clone(state), e.part))
                }
                None => {
                    return Err(PopError::Planning(
                        "EXCHANGE nested inside a producer stage".into(),
                    ))
                }
            },
            None => {
                return Err(PopError::Planning(
                    "EXCHANGE outside a GATHER region".into(),
                ))
            }
        },
        PhysNode::Gather { input, parts, .. } => {
            if env.is_some() {
                return Err(PopError::Planning(
                    "GATHER nested inside a parallel region".into(),
                ));
            }
            // The region subtree is built per-partition inside the
            // controller, never through this recursion: advance the
            // cursor past all of its pre-order indices, handing the
            // controller the slice of monitors that fall inside the
            // region (it folds them into shared cells) together with the
            // region root's pre-order base.
            let n = input.node_count();
            let region_base = cur.pos();
            cur.skip(n);
            let mut region_monitors = MonitorSet::default();
            for (i, s) in cur.monitors.iter().flat_map(|m| &m.specs) {
                if (region_base..region_base + n).contains(i) {
                    region_monitors.specs.insert(*i, s.clone());
                }
            }
            Box::new(GatherOp::new(
                (**input).clone(),
                *parts,
                catalog.clone(),
                signatures.clone(),
                region_monitors,
                region_base,
            ))
        }
    };
    Ok(wrap_monitor(op, idx, env, cur))
}

/// Apply the monitor installed at a node's pre-order index: a locally
/// counting guard when built serially, an instance of the node's shared
/// cell when built inside a parallel region.
fn wrap_monitor(
    op: Box<dyn Operator>,
    idx: usize,
    env: Option<&PartitionEnv>,
    cur: &NodeCursor,
) -> Box<dyn Operator> {
    match env {
        Some(e) => match e.cells.get(&idx) {
            Some(cell) => Box::new(GuardOp::shared(op, Arc::clone(cell))),
            None => op,
        },
        None => match cur.monitor_at(idx) {
            Some(spec) => Box::new(GuardOp::monitor(op, spec.clone())),
            None => op,
        },
    }
}
