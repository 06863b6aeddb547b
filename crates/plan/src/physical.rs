//! The physical plan (QEP) tree.

use crate::{CheckSpec, TableSet, ValidityRange};
use pop_expr::Expr;
use pop_types::{ColId, Value};

/// A column of a node's output row: either a base-table column or the
/// `i`-th aggregate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutCol {
    /// A base-table column carried through.
    Base(ColId),
    /// The `i`-th aggregate of the HashAgg below.
    Agg(usize),
}

impl LayoutCol {
    /// The base column, if this is one.
    pub fn as_base(&self) -> Option<ColId> {
        match self {
            LayoutCol::Base(c) => Some(*c),
            LayoutCol::Agg(_) => None,
        }
    }
}

/// The positions in `input` of the longest prefix of `layout` that is an
/// ordered subsequence of `input`, matched greedily. A join's layout is an
/// ordered subsequence of its inputs' concatenated layouts, and inputs
/// share no column, so this splits it: the first input's kept positions,
/// then the rest of `layout` over the second input.
pub fn kept_positions(layout: &[LayoutCol], input: &[LayoutCol]) -> Vec<usize> {
    let mut kept = Vec::with_capacity(layout.len().min(input.len()));
    let mut from = 0;
    for c in layout {
        let Some(p) = input[from..].iter().position(|i| i == c) else {
            break;
        };
        kept.push(from + p);
        from += p + 1;
    }
    kept
}

/// Aggregate function with its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    Count,
    /// `SUM(col)`
    Sum(ColId),
    /// `MIN(col)`
    Min(ColId),
    /// `MAX(col)`
    Max(ColId),
    /// `AVG(col)`
    Avg(ColId),
}

/// Alias kept for API symmetry with the query spec.
pub type AggSpec = AggFunc;

/// Estimated properties of a plan node, filled in by the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProps {
    /// Query tables covered by the subplan.
    pub tables: TableSet,
    /// Estimated output cardinality.
    pub card: f64,
    /// Estimated cumulative cost (subtree total, in cost units).
    pub cost: f64,
    /// Output column layout.
    pub layout: Vec<LayoutCol>,
    /// If the output is sorted, by which base column.
    pub sorted_by: Option<ColId>,
    /// Validity ranges of the node's input edges, aligned with
    /// [`PhysNode::children`]. Computed by the optimizer's sensitivity
    /// analysis (§2.2) against the alternatives pruning dropped; the CHECK
    /// placement post-pass copies them into [`CheckSpec`]s.
    pub edge_ranges: Vec<ValidityRange>,
}

impl PlanProps {
    /// Props for a leaf node.
    pub fn leaf(tables: TableSet, card: f64, cost: f64, layout: Vec<LayoutCol>) -> Self {
        PlanProps {
            tables,
            card,
            cost,
            layout,
            sorted_by: None,
            edge_ranges: Vec::new(),
        }
    }

    /// Positions of base columns in the layout.
    pub fn base_layout(&self) -> Vec<ColId> {
        self.layout.iter().filter_map(LayoutCol::as_base).collect()
    }

    /// Validity range of input edge `i`, unbounded when none was
    /// recorded.
    pub fn edge_range(&self, i: usize) -> ValidityRange {
        self.edge_ranges
            .get(i)
            .copied()
            .unwrap_or_else(ValidityRange::unbounded)
    }
}

/// How an NLJN accesses its inner: a single base table probed through an
/// index on the join column, with an optional residual local predicate
/// applied to fetched rows.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerProbe {
    /// Query table index of the inner table.
    pub qidx: usize,
    /// Base table name.
    pub table: String,
    /// Inner column probed via the index.
    pub join_col: usize,
    /// Residual local predicate on the inner table.
    pub pred: Option<Expr>,
    /// Additional equi-join conditions `(outer column, inner column)`
    /// verified after the index fetch.
    pub residual_joins: Vec<(ColId, usize)>,
    /// Estimated inner table cardinality (for costing/EXPLAIN).
    pub inner_card: f64,
}

/// Sort key: a base column or an output position (for final ORDER BY,
/// which may reference aggregate outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKeyRef {
    /// Sort by a base column in the layout.
    Col(ColId),
    /// Sort by output position.
    Pos(usize),
}

/// A physical plan node.
///
/// POP-specific operators: [`PhysNode::Check`] and [`PhysNode::BufCheck`]
/// implement Figure 10 of the paper; [`PhysNode::Temp`] is the explicit
/// materialization point used by LCEM; [`PhysNode::RidSink`] and
/// [`PhysNode::AntiJoinRids`] implement ECDC's deferred compensation
/// (Figure 9); [`PhysNode::MvScan`] reuses an intermediate result promoted
/// to a temporary materialized view (§2.3, Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysNode {
    /// Sequential scan with an optional pushed-down local predicate.
    TableScan {
        /// Query table index.
        qidx: usize,
        /// Base table name.
        table: String,
        /// Pushed-down local predicate.
        pred: Option<Expr>,
        /// Node properties.
        props: PlanProps,
    },
    /// Range scan over a sorted secondary index: touches only the rows
    /// whose indexed column falls in `[lo, hi]`, in index order (the
    /// output is sorted by that column). An optional residual predicate
    /// filters fetched rows.
    IndexRangeScan {
        /// Query table index.
        qidx: usize,
        /// Base table name.
        table: String,
        /// Indexed column (within the table).
        column: usize,
        /// Inclusive lower bound, if any.
        lo: Option<Value>,
        /// Inclusive upper bound, if any.
        hi: Option<Value>,
        /// Residual predicate applied to fetched rows.
        residual: Option<Expr>,
        /// Node properties.
        props: PlanProps,
    },
    /// Scan of a temporary materialized view created from a previous
    /// execution step's intermediate result.
    MvScan {
        /// Catalog name of the MV's backing table.
        mv_name: String,
        /// Node properties.
        props: PlanProps,
    },
    /// (Index) nested-loop join: for each outer row, probe the inner
    /// table's index on the join column.
    Nljn {
        /// Outer subplan.
        outer: Box<PhysNode>,
        /// Outer join key.
        outer_key: ColId,
        /// Inner access descriptor.
        inner: InnerProbe,
        /// Node properties.
        props: PlanProps,
    },
    /// Hash join: materialize the build side into a hash table, stream the
    /// probe side.
    Hsjn {
        /// Build subplan (materialized).
        build: Box<PhysNode>,
        /// Probe subplan (streamed).
        probe: Box<PhysNode>,
        /// Build-side keys.
        build_keys: Vec<ColId>,
        /// Probe-side keys.
        probe_keys: Vec<ColId>,
        /// Node properties.
        props: PlanProps,
    },
    /// Merge join over inputs sorted on the join keys.
    Mgjn {
        /// Left (sorted) input.
        left: Box<PhysNode>,
        /// Right (sorted) input.
        right: Box<PhysNode>,
        /// Left keys.
        left_keys: Vec<ColId>,
        /// Right keys.
        right_keys: Vec<ColId>,
        /// Node properties.
        props: PlanProps,
    },
    /// Materializing sort.
    Sort {
        /// Input.
        input: Box<PhysNode>,
        /// Sort key.
        key: SortKeyRef,
        /// Descending?
        desc: bool,
        /// Node properties.
        props: PlanProps,
    },
    /// Explicit materialization (TEMP): buffers the entire input before
    /// streaming it out; a materialization point for LC/LCEM checkpoints.
    Temp {
        /// Input.
        input: Box<PhysNode>,
        /// Node properties.
        props: PlanProps,
    },
    /// Projection to a subset of the layout.
    Project {
        /// Input.
        input: Box<PhysNode>,
        /// Output columns.
        cols: Vec<LayoutCol>,
        /// Node properties.
        props: PlanProps,
    },
    /// Hash aggregation with optional grouping.
    HashAgg {
        /// Input.
        input: Box<PhysNode>,
        /// Group-by keys.
        group_by: Vec<ColId>,
        /// Aggregates.
        aggs: Vec<AggFunc>,
        /// Node properties.
        props: PlanProps,
    },
    /// CHECK operator (Figure 10): counts rows flowing through and raises
    /// a re-optimization signal when the count leaves the check range.
    Check {
        /// Input.
        input: Box<PhysNode>,
        /// Check parameters.
        spec: CheckSpec,
        /// Node properties.
        props: PlanProps,
    },
    /// BUFCHECK operator (Figure 10): buffers up to `buffer` rows,
    /// failing eagerly when the buffer overflows the check range.
    BufCheck {
        /// Input.
        input: Box<PhysNode>,
        /// Check parameters.
        spec: CheckSpec,
        /// Buffer capacity (the `b` of §3.3).
        buffer: usize,
        /// Node properties.
        props: PlanProps,
    },
    /// Records the rid lineage of every row passing through into the
    /// query's side table `S` (the INSERT of Figure 9) so a later
    /// re-optimization can compensate.
    RidSink {
        /// Input.
        input: Box<PhysNode>,
        /// Node properties.
        props: PlanProps,
    },
    /// Anti-join against the rid side table: drops rows already returned
    /// to the application in a previous execution step (Figure 9).
    AntiJoinRids {
        /// Input.
        input: Box<PhysNode>,
        /// Node properties.
        props: PlanProps,
    },
    /// Semi/anti probe implementing a correlated EXISTS clause: for each
    /// input row, probe the inner table's index on the clause's link
    /// column; keep the row iff a qualifying match exists (or does not,
    /// for NOT EXISTS).
    SemiProbe {
        /// Input.
        input: Box<PhysNode>,
        /// The clause.
        clause: crate::ExistsClause,
        /// Node properties.
        props: PlanProps,
    },
    /// HAVING filter: keeps aggregate-output rows satisfying conjunctive
    /// positional predicates.
    Having {
        /// Input (a HashAgg, possibly wrapped).
        input: Box<PhysNode>,
        /// Conjunctive predicates over output positions.
        preds: Vec<crate::HavingPred>,
        /// Node properties.
        props: PlanProps,
    },
    /// LIMIT: stops pulling from its input after `n` rows — in pipelined
    /// plans this genuinely saves work.
    Limit {
        /// Input.
        input: Box<PhysNode>,
        /// Row budget.
        n: usize,
        /// Node properties.
        props: PlanProps,
    },
    /// Side effect: insert the input rows into a base table. Applied
    /// exactly once per source row across re-optimizations (rid-guarded).
    Insert {
        /// Input.
        input: Box<PhysNode>,
        /// Target table.
        target: String,
        /// Node properties.
        props: PlanProps,
    },
}

impl PhysNode {
    /// Node properties.
    pub fn props(&self) -> &PlanProps {
        match self {
            PhysNode::TableScan { props, .. }
            | PhysNode::IndexRangeScan { props, .. }
            | PhysNode::MvScan { props, .. }
            | PhysNode::Nljn { props, .. }
            | PhysNode::Hsjn { props, .. }
            | PhysNode::Mgjn { props, .. }
            | PhysNode::Sort { props, .. }
            | PhysNode::Temp { props, .. }
            | PhysNode::Project { props, .. }
            | PhysNode::HashAgg { props, .. }
            | PhysNode::Check { props, .. }
            | PhysNode::BufCheck { props, .. }
            | PhysNode::RidSink { props, .. }
            | PhysNode::AntiJoinRids { props, .. }
            | PhysNode::SemiProbe { props, .. }
            | PhysNode::Having { props, .. }
            | PhysNode::Limit { props, .. }
            | PhysNode::Insert { props, .. } => props,
        }
    }

    /// Mutable node properties.
    pub fn props_mut(&mut self) -> &mut PlanProps {
        match self {
            PhysNode::TableScan { props, .. }
            | PhysNode::IndexRangeScan { props, .. }
            | PhysNode::MvScan { props, .. }
            | PhysNode::Nljn { props, .. }
            | PhysNode::Hsjn { props, .. }
            | PhysNode::Mgjn { props, .. }
            | PhysNode::Sort { props, .. }
            | PhysNode::Temp { props, .. }
            | PhysNode::Project { props, .. }
            | PhysNode::HashAgg { props, .. }
            | PhysNode::Check { props, .. }
            | PhysNode::BufCheck { props, .. }
            | PhysNode::RidSink { props, .. }
            | PhysNode::AntiJoinRids { props, .. }
            | PhysNode::SemiProbe { props, .. }
            | PhysNode::Having { props, .. }
            | PhysNode::Limit { props, .. }
            | PhysNode::Insert { props, .. } => props,
        }
    }

    /// Children in edge order (matching `props().edge_ranges`).
    pub fn children(&self) -> Vec<&PhysNode> {
        match self {
            PhysNode::TableScan { .. }
            | PhysNode::IndexRangeScan { .. }
            | PhysNode::MvScan { .. } => vec![],
            PhysNode::Nljn { outer, .. } => vec![outer],
            PhysNode::Hsjn { build, probe, .. } => vec![build, probe],
            PhysNode::Mgjn { left, right, .. } => vec![left, right],
            PhysNode::Sort { input, .. }
            | PhysNode::Temp { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::HashAgg { input, .. }
            | PhysNode::Check { input, .. }
            | PhysNode::BufCheck { input, .. }
            | PhysNode::RidSink { input, .. }
            | PhysNode::AntiJoinRids { input, .. }
            | PhysNode::SemiProbe { input, .. }
            | PhysNode::Having { input, .. }
            | PhysNode::Limit { input, .. }
            | PhysNode::Insert { input, .. } => vec![input],
        }
    }

    /// Number of children: `children().len()` without building the list.
    pub fn arity(&self) -> usize {
        match self {
            PhysNode::TableScan { .. }
            | PhysNode::IndexRangeScan { .. }
            | PhysNode::MvScan { .. } => 0,
            PhysNode::Hsjn { .. } | PhysNode::Mgjn { .. } => 2,
            PhysNode::Nljn { .. }
            | PhysNode::Sort { .. }
            | PhysNode::Temp { .. }
            | PhysNode::Project { .. }
            | PhysNode::HashAgg { .. }
            | PhysNode::Check { .. }
            | PhysNode::BufCheck { .. }
            | PhysNode::RidSink { .. }
            | PhysNode::AntiJoinRids { .. }
            | PhysNode::SemiProbe { .. }
            | PhysNode::Having { .. }
            | PhysNode::Limit { .. }
            | PhysNode::Insert { .. } => 1,
        }
    }

    /// Mutable child `i` in edge order: `children_mut()[i]` without
    /// building the list.
    ///
    /// # Panics
    /// If `i >= self.arity()`.
    pub fn child_mut(&mut self, i: usize) -> &mut PhysNode {
        match (self, i) {
            (
                PhysNode::Hsjn { build: c, .. }
                | PhysNode::Mgjn { left: c, .. }
                | PhysNode::Nljn { outer: c, .. }
                | PhysNode::Sort { input: c, .. }
                | PhysNode::Temp { input: c, .. }
                | PhysNode::Project { input: c, .. }
                | PhysNode::HashAgg { input: c, .. }
                | PhysNode::Check { input: c, .. }
                | PhysNode::BufCheck { input: c, .. }
                | PhysNode::RidSink { input: c, .. }
                | PhysNode::AntiJoinRids { input: c, .. }
                | PhysNode::SemiProbe { input: c, .. }
                | PhysNode::Having { input: c, .. }
                | PhysNode::Limit { input: c, .. }
                | PhysNode::Insert { input: c, .. },
                0,
            )
            | (PhysNode::Hsjn { probe: c, .. } | PhysNode::Mgjn { right: c, .. }, 1) => c,
            (node, i) => panic!("{} has no child {i}", node.name()),
        }
    }

    /// Mutable children in edge order.
    pub fn children_mut(&mut self) -> Vec<&mut PhysNode> {
        match self {
            PhysNode::TableScan { .. }
            | PhysNode::IndexRangeScan { .. }
            | PhysNode::MvScan { .. } => vec![],
            PhysNode::Nljn { outer, .. } => vec![outer],
            PhysNode::Hsjn { build, probe, .. } => vec![build, probe],
            PhysNode::Mgjn { left, right, .. } => vec![left, right],
            PhysNode::Sort { input, .. }
            | PhysNode::Temp { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::HashAgg { input, .. }
            | PhysNode::Check { input, .. }
            | PhysNode::BufCheck { input, .. }
            | PhysNode::RidSink { input, .. }
            | PhysNode::AntiJoinRids { input, .. }
            | PhysNode::SemiProbe { input, .. }
            | PhysNode::Having { input, .. }
            | PhysNode::Limit { input, .. }
            | PhysNode::Insert { input, .. } => vec![input],
        }
    }

    /// Replace this node by `f(self)` in place — how a tree walk holding
    /// `&mut` wraps a node in a new parent or swaps it for a descendant. A
    /// throwaway leaf occupies the slot while `f` runs; if `f` panics, the
    /// throwaway is what unwinding finds there.
    pub fn replace_with(&mut self, f: impl FnOnce(PhysNode) -> PhysNode) {
        let hole = PhysNode::TableScan {
            qidx: 0,
            table: String::new(),
            pred: None,
            props: PlanProps::leaf(TableSet::single(0), 0.0, 0.0, vec![]),
        };
        *self = f(std::mem::replace(self, hole));
    }

    /// Operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            PhysNode::TableScan { .. } => "SCAN",
            PhysNode::IndexRangeScan { .. } => "IXSCAN",
            PhysNode::MvScan { .. } => "MVSCAN",
            PhysNode::Nljn { .. } => "NLJN",
            PhysNode::Hsjn { .. } => "HSJN",
            PhysNode::Mgjn { .. } => "MGJN",
            PhysNode::Sort { .. } => "SORT",
            PhysNode::Temp { .. } => "TEMP",
            PhysNode::Project { .. } => "PROJECT",
            PhysNode::HashAgg { .. } => "AGG",
            PhysNode::Check { .. } => "CHECK",
            PhysNode::BufCheck { .. } => "BUFCHECK",
            PhysNode::RidSink { .. } => "RIDSINK",
            PhysNode::AntiJoinRids { .. } => "ANTIJOIN",
            PhysNode::SemiProbe { clause, .. } => {
                if clause.negated {
                    "ANTIPROBE"
                } else {
                    "SEMIPROBE"
                }
            }
            PhysNode::Having { .. } => "HAVING",
            PhysNode::Limit { .. } => "LIMIT",
            PhysNode::Insert { .. } => "INSERT",
        }
    }

    /// Is this a materialization point (SORT, TEMP)? Hash-join builds are
    /// also materializations but are internal to the HSJN node.
    pub fn is_materialization_point(&self) -> bool {
        matches!(self, PhysNode::Sort { .. } | PhysNode::Temp { .. })
    }

    /// Is the exact row count known once the node is open (SORT, TEMP, MV
    /// scan)? A CHECK right above it is decided once, on that count.
    pub fn counted_at_open(&self) -> bool {
        self.is_materialization_point() || matches!(self, PhysNode::MvScan { .. })
    }

    /// Visit every node of the tree (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&PhysNode)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Count nodes in the subtree.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Collect all CHECK/BUFCHECK specs in the subtree (pre-order).
    pub fn checks(&self) -> Vec<&CheckSpec> {
        let mut out = Vec::new();
        self.collect_checks(&mut out);
        out
    }

    fn collect_checks<'a>(&'a self, out: &mut Vec<&'a CheckSpec>) {
        if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = self {
            out.push(spec);
        }
        for c in self.children() {
            c.collect_checks(out);
        }
    }

    /// Names of join operators in execution (bottom-up, left-to-right)
    /// order — a compact "plan shape" used by tests and experiments to
    /// detect plan changes.
    pub fn join_shape(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        self.shape_into(&mut parts);
        parts.join(" ")
    }

    fn shape_into(&self, out: &mut Vec<String>) {
        for c in self.children() {
            c.shape_into(out);
        }
        match self {
            PhysNode::TableScan { table, qidx, .. } => out.push(format!("{table}#{qidx}")),
            PhysNode::IndexRangeScan { table, qidx, .. } => out.push(format!("ix:{table}#{qidx}")),
            PhysNode::MvScan { props, .. } => out.push(format!("MV{}", props.tables)),
            PhysNode::Nljn { inner, .. } => {
                out.push(format!("NLJN(->{}#{})", inner.table, inner.qidx));
            }
            PhysNode::Hsjn { .. } => out.push("HSJN".into()),
            PhysNode::Mgjn { .. } => out.push("MGJN".into()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(qidx: usize, table: &str, card: f64) -> PhysNode {
        PhysNode::TableScan {
            qidx,
            table: table.into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(qidx),
                card,
                card,
                vec![LayoutCol::Base(ColId::new(qidx, 0))],
            ),
        }
    }

    fn join(l: PhysNode, r: PhysNode) -> PhysNode {
        let props = PlanProps {
            tables: l.props().tables.union(r.props().tables),
            card: 10.0,
            cost: l.props().cost + r.props().cost + 10.0,
            layout: l
                .props()
                .layout
                .iter()
                .chain(r.props().layout.iter())
                .copied()
                .collect(),
            sorted_by: None,
            edge_ranges: vec![ValidityRange::unbounded(), ValidityRange::unbounded()],
        };
        PhysNode::Hsjn {
            build: Box::new(l),
            probe: Box::new(r),
            build_keys: vec![ColId::new(0, 0)],
            probe_keys: vec![ColId::new(1, 0)],
            props,
        }
    }

    #[test]
    fn children_and_props() {
        let p = join(leaf(0, "a", 5.0), leaf(1, "b", 7.0));
        assert_eq!(p.children().len(), 2);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.props().tables, TableSet::from_iter([0, 1]));
        assert_eq!(p.props().layout.len(), 2);
        assert_eq!(p.node_count(), 3);
    }

    #[test]
    fn child_access_follows_edge_order() {
        let mut p = PhysNode::Limit {
            props: PlanProps::leaf(TableSet::from_iter([0, 1]), 5.0, 1.0, vec![]),
            input: Box::new(join(leaf(0, "a", 5.0), leaf(1, "b", 7.0))),
            n: 5,
        };
        for node in [&p, p.children()[0], p.children()[0].children()[1]] {
            assert_eq!(node.arity(), node.children().len(), "{}", node.name());
        }
        let join = p.child_mut(0);
        assert_eq!(join.name(), "HSJN");
        assert_eq!(join.child_mut(0).props().card, 5.0);
        assert_eq!(join.child_mut(1).props().card, 7.0);
    }

    #[test]
    fn checks_collection() {
        let inner = join(leaf(0, "a", 5.0), leaf(1, "b", 7.0));
        let props = inner.props().clone();
        let checked = PhysNode::Check {
            input: Box::new(inner),
            spec: CheckSpec {
                id: 0,
                flavor: crate::CheckFlavor::Lc,
                range: ValidityRange::new(1.0, 100.0),
                est_card: 10.0,
                context: crate::CheckContext::AboveTemp,
            },
            props,
        };
        let checks = checked.checks();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].flavor, crate::CheckFlavor::Lc);
    }

    #[test]
    fn join_shape_is_bottom_up() {
        let p = join(leaf(0, "a", 5.0), leaf(1, "b", 7.0));
        assert_eq!(p.join_shape(), "a#0 b#1 HSJN");
    }

    #[test]
    fn materialization_points() {
        let l = leaf(0, "a", 5.0);
        let props = l.props().clone();
        let sort = PhysNode::Sort {
            input: Box::new(l),
            key: SortKeyRef::Col(ColId::new(0, 0)),
            desc: false,
            props: props.clone(),
        };
        assert!(sort.is_materialization_point());
        let temp = PhysNode::Temp {
            input: Box::new(sort),
            props,
        };
        assert!(temp.is_materialization_point());
        assert!(!leaf(0, "a", 1.0).is_materialization_point());
    }

    #[test]
    fn base_layout_filters_aggs() {
        let props = PlanProps {
            tables: TableSet::single(0),
            card: 1.0,
            cost: 1.0,
            layout: vec![
                LayoutCol::Base(ColId::new(0, 0)),
                LayoutCol::Agg(0),
                LayoutCol::Base(ColId::new(0, 2)),
            ],
            sorted_by: None,
            edge_ranges: vec![],
        };
        assert_eq!(
            props.base_layout(),
            vec![ColId::new(0, 0), ColId::new(0, 2)]
        );
    }
}
