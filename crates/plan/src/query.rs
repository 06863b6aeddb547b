//! The logical query specification.

use crate::{AggFunc, PhysNode, TableSet};
use pop_expr::{CmpOp, Expr};
use pop_types::{ColId, PopError, PopResult};

/// A reference to a base table within a query. The position of the
/// reference in [`QuerySpec::tables`] is its *query table index*; the same
/// base table may appear more than once (self-join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Base table name in the catalog.
    pub table: String,
}

/// An equi-join predicate `left = right` between two query tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPred {
    /// Column on one side.
    pub left: ColId,
    /// Column on the other side.
    pub right: ColId,
}

impl JoinPred {
    /// The pair of query tables this predicate connects.
    pub fn tables(&self) -> (usize, usize) {
        (self.left.table, self.right.table)
    }

    /// Given one side's table set, return (key in that set, key in the
    /// other set) if the predicate spans the boundary.
    pub fn split(&self, side: TableSet) -> Option<(ColId, ColId)> {
        let l_in = side.contains(self.left.table);
        let r_in = side.contains(self.right.table);
        match (l_in, r_in) {
            (true, false) => Some((self.left, self.right)),
            (false, true) => Some((self.right, self.left)),
            _ => None,
        }
    }

    /// Canonical fingerprint (orientation-insensitive).
    pub fn fingerprint(&self) -> String {
        let (a, b) = if (self.left.table, self.left.col) <= (self.right.table, self.right.col) {
            (self.left, self.right)
        } else {
            (self.right, self.left)
        };
        format!("j({a}={b})")
    }
}

/// GROUP BY specification. Aggregate functions are shared with the
/// physical plan ([`AggFunc`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Grouping keys.
    pub group_by: Vec<ColId>,
    /// Aggregates computed per group.
    pub aggs: Vec<AggFunc>,
}

/// A correlated `EXISTS` / `NOT EXISTS` clause of the classic
/// decorrelatable form:
/// `EXISTS (SELECT * FROM inner WHERE inner.link_col = <outer column> AND pred)`.
///
/// Executed as a semi/anti probe against the inner table's index, applied
/// after the main join (the inner table does not participate in join
/// enumeration — a documented simplification).
#[derive(Debug, Clone, PartialEq)]
pub struct ExistsClause {
    /// Inner (probed) table name.
    pub table: String,
    /// Column of the outer query the clause correlates on.
    pub outer_col: ColId,
    /// Inner column equated with `outer_col` (must be indexed).
    pub inner_col: usize,
    /// Extra predicate on the inner table's row (columns use table index
    /// 0 = the inner table itself).
    pub pred: Option<Expr>,
    /// `NOT EXISTS` when true.
    pub negated: bool,
}

/// A HAVING-style predicate over an output position of the aggregate row
/// (`group keys ++ aggregate values`): `output[pos] OP value`.
#[derive(Debug, Clone, PartialEq)]
pub struct HavingPred {
    /// Output position (into keys ++ aggs).
    pub pos: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparand.
    pub value: pop_types::Value,
}

/// ORDER BY key: a position into the final output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderKey {
    /// Output position.
    pub pos: usize,
    /// Descending?
    pub desc: bool,
}

/// A complete logical query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// Table references; position = query table index.
    pub tables: Vec<TableRef>,
    /// Local (single-table) predicates: `(query table index, expr)`. The
    /// expression's column references must all name that table.
    pub local_preds: Vec<(usize, Expr)>,
    /// Equi-join predicates.
    pub join_preds: Vec<JoinPred>,
    /// Output columns (before aggregation). Empty means "all columns of
    /// all tables" (`SELECT *`), in query-table order, each table's in
    /// schema order — whatever the join order of the plan.
    pub projection: Vec<ColId>,
    /// Optional aggregation; its keys/args reference base columns.
    pub aggregate: Option<Aggregate>,
    /// Correlated EXISTS / NOT EXISTS clauses (conjunctive), applied
    /// after the main join.
    pub exists: Vec<ExistsClause>,
    /// HAVING predicates over the aggregate output (conjunctive).
    pub having: Vec<HavingPred>,
    /// Optional ordering of the final output.
    pub order_by: Vec<OrderKey>,
    /// Keep only the first `n` output rows (applied after ORDER BY).
    pub limit: Option<usize>,
    /// Optional side effect: insert the query result into this table.
    pub side_effect: Option<String>,
}

impl QuerySpec {
    /// All query table indexes as a set.
    pub fn all_tables(&self) -> TableSet {
        TableSet::first_n(self.tables.len())
    }

    /// Local predicates attached to table `idx`.
    pub fn local_preds_of(&self, idx: usize) -> Vec<&Expr> {
        self.local_preds
            .iter()
            .filter(|(t, _)| *t == idx)
            .map(|(_, e)| e)
            .collect()
    }

    /// Join predicates fully contained in `set`.
    pub fn join_preds_within(&self, set: TableSet) -> Vec<&JoinPred> {
        self.join_preds
            .iter()
            .filter(|j| set.contains(j.left.table) && set.contains(j.right.table))
            .collect()
    }

    /// Join predicates connecting `left` to `right` (disjoint sets).
    pub fn join_preds_between(&self, left: TableSet, right: TableSet) -> Vec<&JoinPred> {
        self.join_preds
            .iter()
            .filter(|j| {
                let (a, b) = j.tables();
                (left.contains(a) && right.contains(b)) || (left.contains(b) && right.contains(a))
            })
            .collect()
    }

    /// True iff joining `left` and `right` is connected by at least one
    /// join predicate (avoids Cartesian products during enumeration).
    pub fn connected(&self, left: TableSet, right: TableSet) -> bool {
        !self.join_preds_between(left, right).is_empty()
    }

    /// Is column `c` of the subplan over `set` read by an operator above
    /// that subplan? The output columns are: the projection, GROUP BY
    /// keys, aggregate arguments and EXISTS outer columns; so is a join
    /// key of a predicate with one endpoint outside `set` (an NLJN probe
    /// key or residual, a hash or merge key above). A key whose predicate
    /// has both endpoints in `set` was consumed below and is not read
    /// again. Columns used only by local predicates are never read above:
    /// scans and NLJN inner filters evaluate those on the stored row. A
    /// spec with neither aggregate nor projection outputs every column.
    ///
    /// This is the one definition of every layout in a plan: every node
    /// over a table set (leaf, join, and the wrappers of the join tree)
    /// emits [`canonical_layout`](crate::canonical_layout) of its set, and
    /// a materialized subplan is stored in that order — a function of the
    /// spec alone, whatever the join order.
    pub fn read_above(&self, set: TableSet, c: ColId) -> bool {
        if self.aggregate.is_none() && self.projection.is_empty() {
            return true;
        }
        let agg_arg = |f: &AggFunc| match f {
            AggFunc::Count => false,
            AggFunc::Sum(a) | AggFunc::Min(a) | AggFunc::Max(a) | AggFunc::Avg(a) => *a == c,
        };
        self.projection.contains(&c)
            || (self.aggregate.iter())
                .any(|a| a.group_by.contains(&c) || a.aggs.iter().any(agg_arg))
            || self.exists.iter().any(|e| e.outer_col == c)
            || self.join_preds.iter().any(|j| {
                (j.left == c && !set.contains(j.right.table))
                    || (j.right == c && !set.contains(j.left.table))
            })
    }

    /// Structural validation: table count, predicate column scoping, join
    /// graph connectivity.
    pub fn validate(&self) -> PopResult<()> {
        let n = self.tables.len();
        if n == 0 {
            return Err(PopError::InvalidQuery("query references no tables".into()));
        }
        if n > 64 {
            return Err(PopError::InvalidQuery(format!(
                "query references {n} tables; max is 64"
            )));
        }
        for (t, e) in &self.local_preds {
            if *t >= n {
                return Err(PopError::InvalidQuery(format!(
                    "local predicate references table index {t}, but query has {n} tables"
                )));
            }
            for c in e.columns_used() {
                if c.table != *t {
                    return Err(PopError::InvalidQuery(format!(
                        "local predicate on table {t} references column {c} of another table"
                    )));
                }
            }
        }
        for j in &self.join_preds {
            let (a, b) = j.tables();
            if a >= n || b >= n {
                return Err(PopError::InvalidQuery(format!(
                    "join predicate references table index out of range: {a}, {b}"
                )));
            }
            if a == b {
                return Err(PopError::InvalidQuery(format!(
                    "join predicate joins table {a} to itself; use a local predicate"
                )));
            }
        }
        for e in &self.exists {
            if e.outer_col.table >= n {
                return Err(PopError::InvalidQuery(format!(
                    "EXISTS clause correlates on out-of-range table {}",
                    e.outer_col.table
                )));
            }
            for c in e.pred.iter().flat_map(pop_expr::Expr::columns_used) {
                if c.table != 0 {
                    return Err(PopError::InvalidQuery(
                        "EXISTS inner predicate must reference the inner table as table 0".into(),
                    ));
                }
            }
        }
        if !self.having.is_empty() && self.aggregate.is_none() {
            return Err(PopError::InvalidQuery(
                "HAVING requires an aggregation".into(),
            ));
        }
        // Connectivity: every table must be reachable from table 0.
        let adjacency = adjacency(self);
        let first = component_of(&adjacency, 0);
        if let Some(stray) = self.all_tables().minus(first).iter().next() {
            return Err(PopError::InvalidQuery(format!(
                "join graph is disconnected: no join predicate links tables {first} to tables {} \
                 (Cartesian products are not supported)",
                component_of(&adjacency, stray)
            )));
        }
        Ok(())
    }
}

/// Per query table, the tables it shares a join predicate with. Predicates
/// naming a table the spec does not have (rejected by
/// [`QuerySpec::validate`]) are skipped.
fn adjacency(spec: &QuerySpec) -> Vec<TableSet> {
    let n = spec.tables.len();
    let mut adjacency = vec![TableSet::EMPTY; n];
    for j in &spec.join_preds {
        let (a, b) = j.tables();
        if a < n && b < n && a != b {
            adjacency[a] = adjacency[a].with(b);
            adjacency[b] = adjacency[b].with(a);
        }
    }
    adjacency
}

/// The connected component of the join graph that contains table `start`.
fn component_of(adjacency: &[TableSet], start: usize) -> TableSet {
    let mut reached = TableSet::single(start);
    let mut frontier = reached;
    while let Some(t) = frontier.iter().next() {
        let new = adjacency[t].minus(reached);
        reached = reached.union(new);
        frontier = frontier.minus(TableSet::single(t)).union(new);
    }
    reached
}

/// The shape of a query's join graph, precomputed so that join enumeration
/// can ask "is this table set a subplan?" and "do these two sides join?"
/// with a bit test: per-table adjacency, every join predicate's endpoint
/// pair, and a bitmap over table-set masks marking the **connected** sets —
/// the only sets a plan without Cartesian products can contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinGraph {
    adjacency: Vec<TableSet>,
    /// Endpoint tables of `QuerySpec::join_preds[i]`.
    pred_ends: Vec<TableSet>,
    /// Bit `m` is set iff the table set with mask `m` is connected.
    connected: Vec<u64>,
}

impl JoinGraph {
    /// Build the graph of a validated `spec`. The bitmap has `2^n` bits, so
    /// the caller names the largest `n` it is prepared to enumerate;
    /// a larger spec is a [`PopError::Planning`].
    pub fn new(spec: &QuerySpec, max_tables: usize) -> PopResult<JoinGraph> {
        let n = spec.tables.len();
        if n > max_tables {
            return Err(PopError::Planning(format!(
                "query joins {n} tables; join enumeration keeps one group per connected \
                 table subset in a table of 2^n entries and stops at {max_tables} tables"
            )));
        }
        let adjacency = adjacency(spec);
        let pred_ends = spec
            .join_preds
            .iter()
            .map(|j| TableSet::from_iter([j.left.table, j.right.table]))
            .collect();
        // Ascending masks: a set of two or more tables is connected iff
        // removing some table leaves a connected set that table is adjacent
        // to (a spanning tree always has a leaf to remove), and every
        // smaller mask is already decided.
        let mut connected = vec![0u64; (1usize << n).div_ceil(64)];
        let bit = |words: &[u64], m: u64| words[(m / 64) as usize] & (1 << (m % 64)) != 0;
        for m in 1..1u64 << n {
            let set = TableSet::from_mask(m);
            let is_connected = m.is_power_of_two()
                || set.iter().any(|t| {
                    let rest = set.minus(TableSet::single(t));
                    adjacency[t].intersects(rest) && bit(&connected, rest.mask())
                });
            if is_connected {
                connected[(m / 64) as usize] |= 1 << (m % 64);
            }
        }
        Ok(JoinGraph {
            adjacency,
            pred_ends,
            connected,
        })
    }

    /// Is `set` non-empty and connected under the join predicates?
    pub fn is_connected(&self, set: TableSet) -> bool {
        let m = set.mask();
        self.connected
            .get((m / 64) as usize)
            .is_some_and(|word| word & (1 << (m % 64)) != 0)
    }

    /// Does a join predicate link a table of `a` to a table of `b`?
    pub fn adjacent(&self, a: TableSet, b: TableSet) -> bool {
        a.iter().any(|t| self.adjacency[t].intersects(b))
    }

    /// Number of connected sets.
    pub fn num_connected(&self) -> usize {
        self.connected.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The connected sets, in ascending mask order.
    pub fn connected_sets(&self) -> impl Iterator<Item = TableSet> + '_ {
        self.connected.iter().enumerate().flat_map(|(w, &word)| {
            TableSet::from_mask(word)
                .iter()
                .map(move |bit| TableSet::from_mask((64 * w + bit) as u64))
        })
    }

    /// The ways to join the connected set `set` out of two connected,
    /// adjacent sides, in enumeration order: bushy, every unordered
    /// partition once, smaller mask first, by descending mask of that
    /// side; left-deep (`bushy == false`), each member table split off the
    /// rest, by ascending table. A disconnected `set` has none.
    ///
    /// Only the sides' connectivity is tested: some join predicate crosses
    /// every partition of a connected set, so two connected sides are
    /// adjacent. The smaller-mask side is the one without `set`'s highest
    /// table, so the bushy loop walks the submasks of the rest of `set` —
    /// the same descending sequence, without the half it would discard.
    pub fn splits(
        &self,
        set: TableSet,
        bushy: bool,
    ) -> impl Iterator<Item = (TableSet, TableSet)> + '_ {
        let set = if self.is_connected(set) {
            set
        } else {
            TableSet::EMPTY
        };
        let rest = set.mask().checked_ilog2().map_or(TableSet::EMPTY, |top| {
            set.minus(TableSet::single(top as usize))
        });
        let partitions = bushy.then(|| {
            std::iter::once(rest)
                .filter(|r| !r.is_empty())
                .chain(rest.proper_subsets())
                .map(move |s1| (s1, set.minus(s1)))
        });
        let extensions = (!bushy).then(|| {
            set.iter()
                .map(move |t| (set.minus(TableSet::single(t)), TableSet::single(t)))
        });
        partitions
            .into_iter()
            .flatten()
            .chain(extensions.into_iter().flatten())
            .filter(|&(s1, s2)| {
                let sides = self.is_connected(s1) && self.is_connected(s2);
                debug_assert!(!sides || self.adjacent(s1, s2), "{s1} | {s2} do not join");
                sides
            })
    }

    /// Indexes into `QuerySpec::join_preds` of the predicates with both
    /// endpoints in `set`, ascending.
    pub fn preds_within(&self, set: TableSet) -> impl Iterator<Item = usize> + '_ {
        (0..self.pred_ends.len()).filter(move |&i| self.pred_ends[i].is_subset_of(set))
    }

    /// Indexes into `QuerySpec::join_preds` of the predicates linking the
    /// disjoint sets `a` and `b`, ascending.
    pub fn preds_between(&self, a: TableSet, b: TableSet) -> impl Iterator<Item = usize> + '_ {
        (0..self.pred_ends.len())
            .filter(move |&i| self.pred_ends[i].intersects(a) && self.pred_ends[i].intersects(b))
    }
}

/// Fluent builder for [`QuerySpec`].
///
/// ```
/// use pop_plan::QueryBuilder;
/// use pop_expr::{CmpOp, Expr};
///
/// let (q, _c, _o) = {
///     let mut b = QueryBuilder::new();
///     let c = b.table("customer");
///     let o = b.table("orders");
///     b.filter(c, Expr::col(c, 2).eq(Expr::lit(5i64)));
///     b.join(c, 0, o, 1);
///     b.project(&[(o, 0), (c, 1)]);
///     (b.build().unwrap(), c, o)
/// };
/// assert_eq!(q.tables.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct QueryBuilder {
    spec: QuerySpec,
}

impl QueryBuilder {
    /// Start an empty query.
    pub fn new() -> Self {
        QueryBuilder::default()
    }

    /// Add a table reference; returns its query table index.
    pub fn table(&mut self, name: impl Into<String>) -> usize {
        self.spec.tables.push(TableRef { table: name.into() });
        self.spec.tables.len() - 1
    }

    /// Attach a local predicate to table `idx`.
    pub fn filter(&mut self, idx: usize, expr: Expr) -> &mut Self {
        self.spec.local_preds.push((idx, expr));
        self
    }

    /// Add an equi-join `t1.c1 = t2.c2`.
    pub fn join(&mut self, t1: usize, c1: usize, t2: usize, c2: usize) -> &mut Self {
        self.spec.join_preds.push(JoinPred {
            left: ColId::new(t1, c1),
            right: ColId::new(t2, c2),
        });
        self
    }

    /// Set the projection as `(table, column)` pairs.
    pub fn project(&mut self, cols: &[(usize, usize)]) -> &mut Self {
        self.spec.projection = cols.iter().map(|(t, c)| ColId::new(*t, *c)).collect();
        self
    }

    /// Group by the given columns with the given aggregates.
    pub fn aggregate(&mut self, group_by: &[(usize, usize)], aggs: Vec<AggFunc>) -> &mut Self {
        self.spec.aggregate = Some(Aggregate {
            group_by: group_by.iter().map(|(t, c)| ColId::new(*t, *c)).collect(),
            aggs,
        });
        self
    }

    /// Order the final output by position `pos`.
    pub fn order_by(&mut self, pos: usize, desc: bool) -> &mut Self {
        self.spec.order_by.push(OrderKey { pos, desc });
        self
    }

    /// Add `EXISTS (SELECT * FROM table WHERE table[inner_col] =
    /// outer[outer] AND pred)`.
    pub fn exists(
        &mut self,
        table: impl Into<String>,
        outer: (usize, usize),
        inner_col: usize,
        pred: Option<Expr>,
    ) -> &mut Self {
        self.spec.exists.push(ExistsClause {
            table: table.into(),
            outer_col: ColId::new(outer.0, outer.1),
            inner_col,
            pred,
            negated: false,
        });
        self
    }

    /// Add `NOT EXISTS (...)`; see [`QueryBuilder::exists`].
    pub fn not_exists(
        &mut self,
        table: impl Into<String>,
        outer: (usize, usize),
        inner_col: usize,
        pred: Option<Expr>,
    ) -> &mut Self {
        self.spec.exists.push(ExistsClause {
            table: table.into(),
            outer_col: ColId::new(outer.0, outer.1),
            inner_col,
            pred,
            negated: true,
        });
        self
    }

    /// Add a HAVING predicate: `output[pos] OP value`.
    pub fn having(
        &mut self,
        pos: usize,
        op: CmpOp,
        value: impl Into<pop_types::Value>,
    ) -> &mut Self {
        self.spec.having.push(HavingPred {
            pos,
            op,
            value: value.into(),
        });
        self
    }

    /// Keep only the first `n` output rows.
    pub fn limit(&mut self, n: usize) -> &mut Self {
        self.spec.limit = Some(n);
        self
    }

    /// Insert the result rows into `table` (side effect).
    pub fn insert_into(&mut self, table: impl Into<String>) -> &mut Self {
        self.spec.side_effect = Some(table.into());
        self
    }

    /// Validate and return the spec.
    pub fn build(self) -> PopResult<QuerySpec> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// Count plan nodes in a physical plan (used by reports/tests).
pub fn node_count(plan: &PhysNode) -> usize {
    let mut n = 1;
    for c in plan.children() {
        n += node_count(c);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_query() -> QuerySpec {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_spec() {
        let q = two_table_query();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.join_preds.len(), 1);
        assert_eq!(q.all_tables(), TableSet::first_n(2));
    }

    #[test]
    fn empty_query_rejected() {
        assert!(QueryBuilder::new().build().is_err());
    }

    #[test]
    fn disconnected_join_graph_rejected() {
        let mut b = QueryBuilder::new();
        b.table("a");
        b.table("b");
        assert!(b.build().is_err());
    }

    #[test]
    fn disconnected_join_graph_error_names_two_components() {
        let mut b = QueryBuilder::new();
        let t: Vec<usize> = (0..5).map(|i| b.table(format!("t{i}"))).collect();
        b.join(t[0], 0, t[3], 0);
        b.join(t[1], 0, t[2], 0);
        b.join(t[2], 0, t[4], 0);
        let Err(PopError::InvalidQuery(msg)) = b.build() else {
            panic!("a disconnected spec must be an InvalidQuery");
        };
        assert!(msg.contains("{0,3}") && msg.contains("{1,2,4}"), "{msg}");
    }

    /// `n` tables `t0..`, joined along `edges`; unvalidated, so a
    /// disconnected graph can be built too.
    fn graph_spec(n: usize, edges: &[(usize, usize)]) -> QuerySpec {
        let mut b = QueryBuilder::new();
        for i in 0..n {
            b.table(format!("t{i}"));
        }
        for &(x, y) in edges {
            b.join(x, 0, y, 0);
        }
        b.spec
    }

    /// (connected sets, connected bushy pairs) of a graph.
    fn graph_counts(g: &JoinGraph) -> (usize, usize) {
        let pairs = g
            .connected_sets()
            .map(|set| g.splits(set, true).count())
            .sum();
        (g.num_connected(), pairs)
    }

    #[test]
    fn join_graph_counts_match_the_closed_forms() {
        for n in 2..=9usize {
            let chain: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
            let star: Vec<_> = (1..n).map(|i| (0, i)).collect();
            let mut cycle = chain.clone();
            cycle.push((n - 1, 0));
            let clique: Vec<_> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            let pow = |b: usize, e: usize| b.pow(e as u32);
            let cases = [
                ("chain", chain, n * (n + 1) / 2, (n * n * n - n) / 6),
                ("star", star, pow(2, n - 1) + n - 1, (n - 1) * pow(2, n - 2)),
                // A 2-cycle is the 2-chain with a doubled predicate.
                (
                    "cycle",
                    cycle,
                    if n == 2 { 3 } else { n * (n - 1) + 1 },
                    if n == 2 { 1 } else { n * (n - 1) * (n - 1) / 2 },
                ),
                (
                    "clique",
                    clique,
                    pow(2, n) - 1,
                    // (3^n - 2^(n+1) + 1) / 2, and 3^n is odd.
                    pow(3, n) / 2 + 1 - pow(2, n),
                ),
            ];
            for (shape, edges, sets, pairs) in cases {
                let g = JoinGraph::new(&graph_spec(n, &edges), 16).unwrap();
                assert_eq!(graph_counts(&g), (sets, pairs), "{shape} of {n}");
                assert!(g.is_connected(TableSet::first_n(n)), "{shape} of {n}");
            }
        }
    }

    #[test]
    fn join_graph_of_two_components() {
        // A 3-chain {0,1,2} beside a 2-chain {3,4}: 6 + 3 sets, 4 + 1 pairs.
        let g = JoinGraph::new(&graph_spec(5, &[(0, 1), (1, 2), (3, 4)]), 16).unwrap();
        assert_eq!(graph_counts(&g), (9, 5));
        assert!(!g.is_connected(TableSet::first_n(5)));
        assert!(!g.is_connected(TableSet::EMPTY));
        assert!(!g.is_connected(TableSet::from_iter([0, 2])));
        assert!(!g.adjacent(TableSet::from_iter([0, 1, 2]), TableSet::from_iter([3, 4])));
        // Both sides connected is not enough: they must also join.
        assert_eq!(g.splits(TableSet::first_n(5), true).count(), 0);
        assert_eq!(g.splits(TableSet::first_n(5), false).count(), 0);
    }

    #[test]
    fn join_graph_splits_keep_enumeration_order() {
        // Star around table 0 with leaves 1, 2, 3.
        let g = JoinGraph::new(&graph_spec(4, &[(0, 1), (0, 2), (0, 3)]), 16).unwrap();
        let set = |v: &[usize]| TableSet::from_iter(v.iter().copied());
        let all = TableSet::first_n(4);
        // Bushy: the smaller-mask side, descending; the center's side must
        // stay connected, so only single leaves split off.
        assert_eq!(
            g.splits(all, true).collect::<Vec<_>>(),
            [
                (set(&[0, 1, 2]), set(&[3])),
                (set(&[2]), set(&[0, 1, 3])),
                (set(&[1]), set(&[0, 2, 3])),
            ]
        );
        // Left-deep: (rest, table) by ascending table; removing the center
        // disconnects the rest.
        assert_eq!(
            g.splits(all, false).collect::<Vec<_>>(),
            [
                (set(&[0, 2, 3]), set(&[1])),
                (set(&[0, 1, 3]), set(&[2])),
                (set(&[0, 1, 2]), set(&[3])),
            ]
        );
        assert_eq!(g.preds_within(set(&[0, 1, 3])).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(
            g.preds_between(set(&[0, 2]), set(&[1, 3]))
                .collect::<Vec<_>>(),
            [0, 2]
        );
    }

    #[test]
    fn join_graph_refuses_more_tables_than_asked_for() {
        let chain: Vec<_> = (1..9).map(|i| (i - 1, i)).collect();
        let err = JoinGraph::new(&graph_spec(9, &chain), 8).unwrap_err();
        assert!(
            matches!(&err, PopError::Planning(m) if m.contains("9 tables")),
            "{err}"
        );
    }

    #[test]
    fn self_join_pred_rejected() {
        let mut b = QueryBuilder::new();
        let a = b.table("a");
        b.join(a, 0, a, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn cross_table_local_pred_rejected() {
        let mut b = QueryBuilder::new();
        let a = b.table("a");
        let c = b.table("b");
        b.join(a, 0, c, 0);
        b.filter(a, Expr::col(c, 0).eq(Expr::lit(1i64)));
        assert!(b.build().is_err());
    }

    #[test]
    fn join_pred_helpers() {
        let q = two_table_query();
        let left = TableSet::single(0);
        let right = TableSet::single(1);
        assert!(q.connected(left, right));
        assert_eq!(q.join_preds_between(left, right).len(), 1);
        assert_eq!(q.join_preds_within(q.all_tables()).len(), 1);
        assert_eq!(q.join_preds_within(left).len(), 0);
        let j = q.join_preds[0];
        let (k_in, k_out) = j.split(left).unwrap();
        assert_eq!(k_in, ColId::new(0, 0));
        assert_eq!(k_out, ColId::new(1, 1));
        assert!(j.split(q.all_tables()).is_none());
    }

    #[test]
    fn join_pred_fingerprint_orientation_insensitive() {
        let a = JoinPred {
            left: ColId::new(0, 1),
            right: ColId::new(2, 3),
        };
        let b = JoinPred {
            left: ColId::new(2, 3),
            right: ColId::new(0, 1),
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn read_above_table() {
        // c(0) ⋈ o(1) on c.0 = o.1 and c.4 = o.5 (a second predicate: an
        // NLJN residual or a multi-column hash key), o ⋈ l(2) on o.0 = l.0.
        let base = || {
            let mut b = QueryBuilder::new();
            let c = b.table("customer");
            let o = b.table("orders");
            let l = b.table("lineitem");
            b.join(c, 0, o, 1);
            b.join(c, 4, o, 5);
            b.join(o, 0, l, 0);
            // Local predicates alone never make a column required.
            b.filter(c, Expr::col(c, 6).eq(Expr::lit(1i64)));
            b.filter(l, Expr::col(l, 3).gt(Expr::lit(0i64)));
            b
        };
        let read = |q: &QuerySpec, set: TableSet, t: usize| -> Vec<usize> {
            (0..8)
                .filter(|&c| q.read_above(set, ColId::new(t, c)))
                .collect()
        };
        let cols = |q: &QuerySpec| -> Vec<Vec<usize>> {
            (0..3).map(|t| read(q, TableSet::single(t), t)).collect()
        };

        // `SELECT *`: no aggregate and no projection keeps every column.
        let q = base().build().unwrap();
        assert_eq!(cols(&q), vec![(0..8).collect::<Vec<_>>(); 3]);

        // Projection: join keys on both sides + the projected columns.
        let mut b = base();
        b.project(&[(2, 7), (0, 2), (0, 0)]);
        let q = b.build().unwrap();
        assert_eq!(cols(&q), vec![vec![0, 2, 4], vec![0, 1, 5], vec![0, 7]]);

        // GROUP BY key, aggregate argument (COUNT(*) needs none) and an
        // EXISTS outer column; the filtered c.6 / l.3 stay dropped.
        let mut b = base();
        b.aggregate(
            &[(1, 2)],
            vec![AggFunc::Count, AggFunc::Sum(ColId::new(2, 4))],
        );
        b.exists("supplier", (2, 6), 0, None);
        let q = b.build().unwrap();
        assert_eq!(cols(&q), vec![vec![0, 4], vec![0, 1, 2, 5], vec![0, 4, 6]]);

        // Above c ⋈ o, the keys of both c–o predicates were consumed:
        // o.0 stays for the join with l, o.2 as the GROUP BY key; c keeps
        // nothing. Above all three tables only the outputs remain.
        let co = TableSet::from_iter([0, 1]);
        assert_eq!(read(&q, co, 0), Vec::<usize>::new());
        assert_eq!(read(&q, co, 1), vec![0, 2]);
        let all = q.all_tables();
        assert_eq!(read(&q, all, 1), vec![2]);
        assert_eq!(read(&q, all, 2), vec![4, 6]);
        // `SELECT *` reads every column above every set.
        let q = base().build().unwrap();
        assert_eq!(read(&q, all, 0), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn local_preds_of_filters_by_table() {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 2).eq(Expr::lit(5i64)));
        b.filter(o, Expr::col(o, 0).gt(Expr::lit(1i64)));
        b.filter(c, Expr::col(c, 3).lt(Expr::lit(9i64)));
        let q = b.build().unwrap();
        assert_eq!(q.local_preds_of(c).len(), 2);
        assert_eq!(q.local_preds_of(o).len(), 1);
    }
}
