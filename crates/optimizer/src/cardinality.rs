//! Per-query cardinality estimation with feedback overrides.

use crate::OptimizerContext;
use pop_plan::{canonical_layout, JoinGraph, LayoutCol, QuerySpec, TableSet};
use pop_stats::{estimate_selectivity, join_selectivity, SelectivityDefaults, TableStats};
use pop_storage::Table;
use pop_types::{ColId, PopResult};
use std::sync::Arc;

/// What a (spec, parameter binding) pair fixes for every optimization of
/// it: the join graph, whose connected table sets are the subplans that
/// feedback facts, temp MVs and CHECKs are keyed by. The [`crate::Memo`]
/// keeps the binding across re-optimization steps; every step's
/// [`CardEstimator`] shares it.
#[derive(Debug)]
pub(crate) struct Binding {
    spec: QuerySpec,
    params: Option<pop_expr::Params>,
    graph: JoinGraph,
}

impl Binding {
    /// Bind `spec` to `params`. Fails when the spec joins more tables than
    /// the DP table is ever allocated for ([`crate::MAX_DP_TABLES`]).
    pub(crate) fn new(spec: &QuerySpec, params: Option<&pop_expr::Params>) -> PopResult<Self> {
        let graph = JoinGraph::new(spec, crate::MAX_DP_TABLES)?;
        Ok(Binding {
            spec: spec.clone(),
            params: params.cloned(),
            graph,
        })
    }

    /// Is this the binding of `spec` to `params`? Compared structurally
    /// (both derive `PartialEq`).
    pub(crate) fn binds(&self, spec: &QuerySpec, params: Option<&pop_expr::Params>) -> bool {
        self.spec == *spec && self.params.as_ref() == params
    }

    /// The binding's join graph.
    pub(crate) fn graph(&self) -> &JoinGraph {
        &self.graph
    }
}

/// Resolved feedback fact for a table set.
#[derive(Debug, Clone, Copy)]
struct SetFact {
    set: TableSet,
    value: f64,
    exact: bool,
}

/// Estimates subplan cardinalities for one query.
///
/// The base formula is the classic `card(S) = Π base(t) · Π joinsel(p)`
/// over member tables and contained join predicates — deliberately
/// order-independent so every plan for the same table set sees the same
/// cardinality.
///
/// When the [`crate::FeedbackCache`] holds facts for subplans of `S`
/// (recorded after a CHECK violation), the largest disjoint exact facts
/// replace the corresponding factors, and `AtLeast` lower bounds from eager
/// checks clamp the final estimate — implementing the paper's
/// "actual cardinalities measured during the initial run help the
/// re-optimization step avoid the same mistake" (§2.1).
#[derive(Debug)]
pub struct CardEstimator {
    binding: Arc<Binding>,
    inputs: Arc<TableInputs>,
    facts: Vec<SetFact>,
}

impl CardEstimator {
    /// Build the estimator over a binding of its own.
    pub fn new(spec: &QuerySpec, ctx: &OptimizerContext<'_>) -> PopResult<Self> {
        CardEstimator::bound(Arc::new(Binding::new(spec, ctx.params)?), None, ctx)
    }

    /// Build the estimator of one optimization step over a binding that
    /// outlives it: reuses `prev`, the table inputs of an earlier step of
    /// the same binding, while they are still valid and reads them afresh
    /// otherwise, then takes the feedback facts on the binding's subplans.
    pub(crate) fn bound(
        binding: Arc<Binding>,
        prev: Option<&Arc<TableInputs>>,
        ctx: &OptimizerContext<'_>,
    ) -> PopResult<Self> {
        let spec = &binding.spec;
        let inputs = match prev {
            Some(prev) if prev.still_valid(spec, ctx) => prev.clone(),
            _ => Arc::new(TableInputs::read(spec, ctx)?),
        };
        let mut est = CardEstimator {
            binding,
            inputs,
            facts: Vec::new(),
        };
        // Facts are recorded for subplans that ran, and a subplan's table
        // set is connected: a fact on any other set names no subplan here.
        if !ctx.feedback.is_empty() {
            let mut facts: Vec<SetFact> = ctx
                .feedback
                .facts_on(est.graph())
                .into_iter()
                .map(|(set, fact)| {
                    let (value, exact) = match fact {
                        crate::CardFact::Exact(v) => (v, true),
                        crate::CardFact::AtLeast(v) => (v, false),
                    };
                    SetFact { set, value, exact }
                })
                .collect();
            // Largest sets first so greedy coverage prefers them; among
            // equals, ascending mask.
            facts.sort_by_key(|f| (std::cmp::Reverse(f.set.len()), f.set.mask()));
            est.facts = facts;
        }
        Ok(est)
    }

    /// The table inputs this estimator reads, for the memo to keep.
    pub(crate) fn table_inputs(&self) -> &Arc<TableInputs> {
        &self.inputs
    }

    /// Fingerprint of the statistics-derived inputs (raw and filtered base
    /// cardinalities, per-column distinct counts): a change forces the
    /// memo to rebuild rather than trust its per-group snapshots.
    pub(crate) fn stats_fingerprint(&self) -> u64 {
        self.inputs.fingerprint
    }

    /// The query spec this estimator serves.
    pub fn spec(&self) -> &QuerySpec {
        &self.binding.spec
    }

    /// The spec's join graph.
    pub fn graph(&self) -> &JoinGraph {
        &self.binding.graph
    }

    /// Unfiltered base cardinality of query table `qidx`.
    pub fn raw_card(&self, qidx: usize) -> f64 {
        self.inputs.raw_cards[qidx]
    }

    /// Filtered (post-local-predicate) cardinality of query table `qidx`.
    pub fn base_card(&self, qidx: usize) -> f64 {
        self.inputs.base_cards[qidx]
    }

    /// Column counts per query table (for canonical layouts).
    pub fn col_counts(&self) -> &[usize] {
        &self.inputs.col_counts
    }

    /// Output layout of every leaf over query table `qidx` (scan, index
    /// range scan, the inner half an NLJN starts from): the
    /// [`canonical_layout`] of `{qidx}`, the columns read above it.
    pub fn leaf_layout(&self, qidx: usize) -> &[LayoutCol] {
        &self.inputs.leaf_layouts[qidx]
    }

    /// Distinct count of a column.
    pub fn distinct(&self, col: ColId) -> f64 {
        self.inputs.sources[col.table].1.distinct(col.col)
    }

    /// Does column `col` of query table `qidx` have an index (of any kind)
    /// an NLJN could probe?
    pub fn is_indexed(&self, qidx: usize, col: usize) -> bool {
        self.inputs.indexed_cols[qidx].contains(&col)
    }

    /// Average inner rows fetched per NLJN index probe on `inner_col`.
    pub fn matches_per_probe(&self, inner_col: ColId) -> f64 {
        let raw = self.inputs.raw_cards[inner_col.table];
        (raw / self.distinct(inner_col)).max(1e-6)
    }

    /// Estimated cardinality of the subplan joining exactly `set`.
    pub fn card(&self, set: TableSet) -> f64 {
        // Greedy cover with disjoint exact facts, largest first. Disjoint
        // non-empty subsets of a DP-sized set: at most one per table.
        let mut cover = [TableSet::EMPTY; crate::MAX_DP_TABLES];
        let mut n_covered = 0;
        let mut covered_union = TableSet::EMPTY;
        let mut result = 1.0f64;
        for f in &self.facts {
            if f.exact && f.set.is_subset_of(set) && !f.set.intersects(covered_union) {
                result *= f.value.max(0.0);
                cover[n_covered] = f.set;
                n_covered += 1;
                covered_union = covered_union.union(f.set);
            }
        }
        let covered = &cover[..n_covered];
        for t in set.minus(covered_union).iter() {
            result *= self.inputs.base_cards[t];
        }
        for i in self.graph().preds_within(set) {
            let j = &self.spec().join_preds[i];
            // Skip predicates already accounted inside one covered fact.
            let endpoints = TableSet::from_iter([j.left.table, j.right.table]);
            if covered.iter().any(|c| endpoints.is_subset_of(*c)) {
                continue;
            }
            result *= self.inputs.join_sels[i];
        }
        // Exact/lower-bound fact for the whole set takes priority.
        for f in &self.facts {
            if f.set == set {
                result = if f.exact {
                    f.value
                } else {
                    result.max(f.value)
                };
                break;
            }
        }
        result.max(0.0)
    }
}

/// What the estimator reads from the catalog and the statistics for each
/// query table, with the objects it read them from. A [`crate::Memo`]
/// keeps the last one and [`CardEstimator::bound`] reuses it while every
/// table, its statistics and its indexed columns are the same and the
/// selectivity inputs are unchanged ([`TableInputs::still_valid`]): a
/// re-optimization step then re-estimates no local selectivity and
/// rebuilds no layout.
#[derive(Debug)]
pub(crate) struct TableInputs {
    /// Per query table, the catalog table and the statistics read.
    sources: Vec<(Arc<Table>, Arc<TableStats>)>,
    defaults: SelectivityDefaults,
    raw_cards: Vec<f64>,
    base_cards: Vec<f64>,
    col_counts: Vec<usize>,
    leaf_layouts: Vec<Vec<LayoutCol>>,
    /// Per query table, its indexed columns (ascending).
    indexed_cols: Vec<Vec<usize>>,
    /// Per join predicate, its selectivity.
    join_sels: Vec<f64>,
    /// FNV-1a over the statistics-derived inputs: raw and filtered base
    /// cardinalities and per-column distinct counts.
    fingerprint: u64,
}

impl TableInputs {
    /// Resolve tables, statistics and indexes of `spec`'s tables and
    /// estimate their local selectivities.
    fn read(spec: &QuerySpec, ctx: &OptimizerContext<'_>) -> PopResult<Self> {
        let n = spec.tables.len();
        let mut sources = Vec::with_capacity(n);
        let mut raw_cards = Vec::with_capacity(n);
        let mut base_cards = Vec::with_capacity(n);
        let mut col_counts = Vec::with_capacity(n);
        let mut leaf_layouts = Vec::with_capacity(n);
        let mut indexed_cols = Vec::with_capacity(n);
        for (qidx, tref) in spec.tables.iter().enumerate() {
            let (table, mut cols) = ctx.catalog.with_table(&tref.table, |table, idxs| {
                let cols: Vec<usize> = idxs.iter().map(|idx| idx.column()).collect();
                (table.clone(), cols)
            })?;
            let stats = ctx.stats.get(&tref.table)?;
            let raw = stats.row_count as f64;
            let mut sel = 1.0;
            for pred in spec.local_preds_of(qidx) {
                sel *= estimate_selectivity(pred, &stats, &ctx.defaults);
            }
            raw_cards.push(raw);
            base_cards.push((raw * sel).max(0.0));
            col_counts.push(table.schema().len());
            leaf_layouts.push(
                canonical_layout(spec, TableSet::single(qidx), &col_counts)
                    .into_iter()
                    .map(LayoutCol::Base)
                    .collect(),
            );
            cols.sort_unstable();
            cols.dedup();
            indexed_cols.push(cols);
            sources.push((table, stats));
        }
        let join_sels = spec
            .join_preds
            .iter()
            .map(|j| {
                let distinct = |c: ColId| sources[c.table].1.distinct(c.col);
                join_selectivity(distinct(j.left), distinct(j.right))
            })
            .collect();
        let mut inputs = TableInputs {
            sources,
            defaults: ctx.defaults,
            raw_cards,
            base_cards,
            col_counts,
            leaf_layouts,
            indexed_cols,
            join_sels,
            fingerprint: 0,
        };
        inputs.fingerprint = inputs.fingerprint();
        Ok(inputs)
    }

    fn fingerprint(&self) -> u64 {
        let mut h = pop_types::FNV1A_OFFSET;
        let mix = |h: &mut u64, v: u64| pop_types::fnv1a_extend(h, &v.to_le_bytes());
        for (t, (_, stats)) in self.sources.iter().enumerate() {
            mix(&mut h, self.raw_cards[t].to_bits());
            mix(&mut h, self.base_cards[t].to_bits());
            for c in 0..self.col_counts[t] {
                mix(&mut h, stats.distinct(c).to_bits());
            }
        }
        h
    }

    /// Would [`TableInputs::read`] read the same for `spec` (the spec these
    /// inputs were read for) under `ctx`? Every table and its statistics
    /// must be the very objects read before — a re-analysis or a re-created
    /// table registers new ones — with the same indexed columns, under the
    /// same selectivity defaults.
    fn still_valid(&self, spec: &QuerySpec, ctx: &OptimizerContext<'_>) -> bool {
        self.defaults == ctx.defaults
            && spec
                .tables
                .iter()
                .zip(&self.sources)
                .zip(&self.indexed_cols)
                .all(|((tref, (table, stats)), cols)| {
                    let same_table = ctx.catalog.with_table(&tref.table, |t, idxs| {
                        Arc::ptr_eq(t, table)
                            && idxs.iter().all(|idx| cols.contains(&idx.column()))
                            && cols
                                .iter()
                                .all(|&c| idxs.iter().any(|idx| idx.column() == c))
                    });
                    same_table.is_ok_and(|same| same)
                        && ctx
                            .stats
                            .get(&tref.table)
                            .is_ok_and(|s| Arc::ptr_eq(&s, stats))
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CardFact, CostModel, FeedbackCache, OptimizerConfig};
    use pop_expr::Expr;
    use pop_plan::QueryBuilder;
    use pop_stats::StatsRegistry;
    use pop_storage::Catalog;
    use pop_types::{DataType, Schema, Value};

    fn setup() -> (Catalog, StatsRegistry) {
        let cat = Catalog::new();
        // customer(id, grp): 100 rows, grp has 10 distinct values
        cat.create_table(
            "customer",
            Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
            (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
        )
        .unwrap();
        // orders(oid, cust): 1000 rows, cust uniform over 100 customers
        cat.create_table(
            "orders",
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..1000).map(|i| vec![Value::Int(i), Value::Int(i % 100)]),
        )
        .unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn query() -> QuerySpec {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        b.build().unwrap()
    }

    #[test]
    fn base_and_join_cards() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = query();
        let est = CardEstimator::new(&q, &ctx).unwrap();
        // customer filtered by grp=3: 100 * 1/10 = 10
        assert!((est.base_card(0) - 10.0).abs() < 0.5);
        assert_eq!(est.raw_card(1), 1000.0);
        // join: 10 * 1000 / max(100,100) = 100
        let c = est.card(TableSet::from_iter([0, 1]));
        assert!((c - 100.0).abs() < 5.0, "got {c}");
    }

    #[test]
    fn exact_feedback_overrides() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let mut fb = FeedbackCache::new();
        let q = query();
        // Record that the filtered customer subplan actually had 40 rows
        // (i.e. the grp=3 predicate was 4x less selective than estimated).
        fb.record(TableSet::single(0), CardFact::Exact(40.0));
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let est = CardEstimator::new(&q, &ctx).unwrap();
        // Set-level estimate uses the actual 40 instead of 10.
        let c = est.card(TableSet::from_iter([0, 1]));
        assert!((c - 400.0).abs() < 20.0, "got {c}");
        // Single-table set returns the exact fact itself.
        assert_eq!(est.card(TableSet::single(0)), 40.0);
    }

    #[test]
    fn at_least_feedback_clamps() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let mut fb = FeedbackCache::new();
        let q = query();
        fb.record(TableSet::single(0), CardFact::AtLeast(25.0));
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let est = CardEstimator::new(&q, &ctx).unwrap();
        assert_eq!(est.card(TableSet::single(0)), 25.0);
    }

    #[test]
    fn disjoint_facts_cover_greedily() {
        // Three-table chain; exact facts for {0} and {1}: both should be
        // used since they are disjoint.
        let (cat, stats) = setup();
        cat.create_table(
            "items",
            Schema::from_pairs(&[("iid", DataType::Int), ("ord", DataType::Int)]),
            (0..2000).map(|i| vec![Value::Int(i), Value::Int(i % 1000)]),
        )
        .unwrap();
        stats.analyze(&cat, "items").unwrap();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let mut fb = FeedbackCache::new();
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        let it = b.table("items");
        b.join(c, 0, o, 1);
        b.join(o, 0, it, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        let q = b.build().unwrap();
        fb.record(TableSet::single(0), CardFact::Exact(40.0));
        fb.record(TableSet::single(1), CardFact::Exact(500.0));
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let est = CardEstimator::new(&q, &ctx).unwrap();
        // card({0,1}) = 40 * 500 / max(d) = 40*500/1000... distinct of
        // orders.cust is 100 -> join sel 1/100: 40*500/100 = 200.
        let c01 = est.card(TableSet::from_iter([0, 1]));
        assert!((c01 - 200.0).abs() < 10.0, "got {c01}");
        // A fact for the pair beats the composition.
        fb.record(TableSet::from_iter([0, 1]), CardFact::Exact(123.0));
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let est = CardEstimator::new(&q, &ctx).unwrap();
        assert_eq!(est.card(TableSet::from_iter([0, 1])), 123.0);
        // The larger fact covers; the singleton facts apply elsewhere.
        let c012 = est.card(TableSet::from_iter([0, 1, 2]));
        assert!(c012 > 0.0);
    }

    #[test]
    fn matches_per_probe_uses_raw_rows() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = query();
        let est = CardEstimator::new(&q, &ctx).unwrap();
        // orders.cust: 1000 rows / 100 distinct = 10 matches per probe
        assert!((est.matches_per_probe(ColId::new(1, 1)) - 10.0).abs() < 0.5);
    }
}
