//! The join-order memo: the optimizer's one DP table.
//!
//! The classic POP loop re-runs the whole System-R enumeration on every
//! CHECK violation, even though a violation changes the cardinality of
//! *one* subplan and everything disjoint from it is provably unaffected.
//! Following Liu/Ives/Loo ("Enabling Incremental Query Re-Optimization"),
//! this module treats the DP table as a materialized view over the
//! estimator's inputs and maintains it incrementally; a from-scratch
//! optimization is the same walk with every group dirty, which is what a
//! [`Memo::new`] gets.
//!
//! * A [`Group`] is a **connected** table subset (mask) — the only kind a
//!   plan without Cartesian products can contain, as the binding's
//!   [`pop_plan::JoinGraph`] knows before anything is costed — with its
//!   candidate list from [`crate::enumerate::build_join_group`], plus a
//!   [`GroupMeta`] snapshot of the inputs it was built from (estimated
//!   cardinality bits, identity and cardinality of a matching temp MV). A
//!   join candidate refers to its inputs as `(child group, index)`, so
//!   reusing a group copies nothing. Disconnected masks keep their slot in
//!   the mask-indexed table and are never visited.
//! * [`Memo::best_join_order`] — the only loop that builds groups — walks
//!   connected masks in ascending order. A group whose snapshot still
//!   matches is a **clean** group; since ascending order means all its
//!   subsets were visited first, every subset is also clean, so its
//!   candidate list — including pruning decisions and the pruned siblings
//!   each winner records for extraction's validity-range search — is
//!   bit-identical to what a fresh memo would derive, and it
//!   is reused as-is.
//! * A changed snapshot marks the group **dirty**; dirtiness propagates to
//!   every connected superset (`dirty(S) ⇐ dirty(S \ {b})` for any `b ∈ S`
//!   that leaves `S \ {b}` connected — a connected set grows to any
//!   connected superset one adjacent table at a time, so that reaches them
//!   all), and exactly the dirty groups are re-derived, through the same
//!   builders in the same order a fresh memo uses.
//! * The validity ranges `finalize::extract` solves for a candidate are
//!   kept beside the table ([`SolvedRanges`]) and dropped with the group
//!   when it is re-derived, so a re-optimization runs the root search only
//!   for the extracted joins of re-derived groups.
//!
//! The memo survives across re-optimization steps of one query *and*
//! across queries: [`Memo::bind`] compares the (spec, params) pair
//! structurally and drops the groups when it changes, while config /
//! cost-model / statistics changes are caught inside
//! [`Memo::best_join_order`]. The driver's `verify_memo` re-plans every
//! step on a fresh memo and rejects any divergence.

use crate::cardinality::{Binding, TableInputs};
use crate::enumerate::{build_join_group, build_singleton_group};
use crate::{Candidate, CardEstimator, OptimizerContext};
use pop_plan::{QuerySpec, TableSet, ValidityRange};
use pop_storage::{TableId, TempMv};
use pop_types::{PopError, PopResult};
use std::collections::HashMap;
use std::sync::Arc;

/// The DP horizon: the largest number of tables a query may join. The DP
/// table is indexed by table-set mask, `2^n` [`Group`] slots for `n`
/// tables, and is allowed [`DP_TABLE_BYTES`]; the bound follows from the
/// slot size (20 tables at 64 bytes a slot). Beyond it `optimize` returns
/// [`PopError::Planning`] instead of asking the allocator for the
/// impossible. [`crate::OptimizerConfig::bushy_limit`] is the lower, tunable
/// threshold at which enumeration turns left-deep.
pub const MAX_DP_TABLES: usize = (DP_TABLE_BYTES / std::mem::size_of::<Group>()).ilog2() as usize;
const DP_TABLE_BYTES: usize = 64 << 20;

/// Validity ranges extraction has solved, by (group mask, candidate index).
/// An entry is valid exactly as long as its group's candidate list — the
/// ranges are a function of the candidate and its split's child groups,
/// which re-derive it when they change — so every pass drops the entries
/// of the groups it re-derives, and a re-optimization solves ranges only
/// for the extracted joins of those.
pub(crate) type SolvedRanges = HashMap<(usize, usize), [ValidityRange; 2]>;

/// Statistics of one optimization pass over the [`Memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// The pass rebuilt every group from scratch (first optimization, or
    /// the spec / parameter binding / config / statistics changed).
    pub rebuilt: bool,
    /// Groups (connected table subsets) held by the memo after the pass.
    pub groups_total: usize,
    /// Clean groups whose candidate lists were reused unchanged.
    pub groups_reused: usize,
    /// Groups re-derived because a cardinality or MV change reached them.
    pub groups_rederived: usize,
    /// Groups whose own inputs changed (before dirty propagation).
    pub dirty_seeds: usize,
    /// Two-sided splits of re-derived groups that had join candidates
    /// costed: both sides connected, adjacent and planned.
    pub splits_costed: usize,
    /// Join candidates built (and offered to pruning) for those splits.
    pub candidates_built: usize,
    /// Cost-difference evaluations of the validity-range root search. The
    /// search runs in extraction, for the joins of the returned plan only,
    /// so [`crate::optimize`] fills this in after the memo pass; it does
    /// not depend on how many groups the pass re-derived.
    pub diff_evals: usize,
}

/// Snapshot of the estimator inputs a group was last built from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct GroupMeta {
    /// `f64::to_bits` of the estimated cardinality at build time — changes
    /// exactly when a `CardFact` (or statistics change) reaches this set.
    card_bits: u64,
    /// Catalog table id and actual cardinality of a matching temp MV at
    /// build time, if any — changes when a violation promotes (or cleanup
    /// drops) an MV, and also when a later harvest *replaces* it over the
    /// same table set: the candidate names the MV's table, so an equal
    /// row count alone does not make the old candidate reusable.
    mv: Option<(TableId, u64)>,
}

/// One entry of the DP table: the surviving candidates of a connected
/// table subset, the cheapest of them, and what they were derived from.
/// A re-derivation refills the same candidate list, so a memo that plans
/// query after query reuses its allocations.
#[derive(Debug)]
pub(crate) struct Group {
    pub(crate) cands: Vec<Candidate>,
    meta: GroupMeta,
    /// Index in `cands` of the cheapest candidate (the first of equals),
    /// fixed when the group is derived; [`NO_PLAN`] for an empty list.
    best: u32,
    /// Re-derived by the pass in progress. Written when the pass visits
    /// the group and read only by its (later-visited) supersets, so it
    /// needs no reset between passes.
    dirty: bool,
}

/// [`Group::best`] of a group without candidates.
const NO_PLAN: u32 = u32::MAX;

impl Default for Group {
    fn default() -> Self {
        Group {
            cands: Vec::new(),
            meta: GroupMeta::default(),
            best: NO_PLAN,
            dirty: false,
        }
    }
}

impl Group {
    /// The estimated cardinality the group was built for.
    pub(crate) fn card(&self) -> f64 {
        f64::from_bits(self.meta.card_bits)
    }

    /// The cheapest candidate, any order, with its index in the group.
    pub(crate) fn cheapest(&self) -> Option<(usize, &Candidate)> {
        let best = self.best as usize;
        self.cands.get(best).map(|c| (best, c))
    }

    /// A group derived from `cands`, for tests that hand-write candidates.
    #[cfg(test)]
    pub(crate) fn of(cands: Vec<Candidate>) -> Group {
        let mut group = Group::default();
        group.derive(cands, GroupMeta::default());
        group
    }

    /// Refill the group from `cands` (its own list, taken out while it was
    /// built) and fix the cheapest candidate: the first minimum, as
    /// `Iterator::min_by` picks it.
    fn derive(&mut self, cands: Vec<Candidate>, meta: GroupMeta) {
        let best = cands
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.cost.total_cmp(&y.cost))
            .map_or(NO_PLAN, |(i, _)| i as u32);
        *self = Group {
            cands,
            meta,
            best,
            dirty: true,
        };
    }
}

// The slot size fixes `MAX_DP_TABLES`: a wider group shrinks the horizon.
const _: () = assert!(std::mem::size_of::<Group>() == 64);

/// Persistent join-order memo with dirty-propagation maintenance.
#[derive(Debug, Default)]
pub struct Memo {
    /// The (spec, params) pair the groups belong to, with its join graph.
    bound: Option<Arc<Binding>>,
    /// Optimizer config + cost model the groups were built under.
    env: Option<(crate::OptimizerConfig, pop_plan::CostModel)>,
    /// Fingerprint of the estimator's statistics-derived inputs.
    stats_fp: u64,
    /// The estimator's table inputs of the last step, reused by the next
    /// one of the same binding while they are still valid.
    inputs: Option<Arc<TableInputs>>,
    /// The DP table, indexed by table-set mask; only the slots of
    /// connected masks are ever derived, read or dirty. Empty until the
    /// first pass; it keeps its slots, and their candidate lists'
    /// allocations, from query to query, growing to the widest query.
    groups: Vec<Group>,
    /// `groups` holds the bound query's groups (cleared by a binding
    /// change, or a pass that failed half-way).
    valid: bool,
    /// Ranges `finalize::extract` solved for candidates of these groups.
    solved: SolvedRanges,
}

impl Memo {
    /// Fresh, empty memo: its first pass derives every group.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Bind the memo to the context's (spec, params) pair and build the
    /// step's estimator over the binding, so the join graph is shared
    /// between estimator fact probing, MV lookups and the memo's own dirty
    /// detection, across steps. When
    /// the pair differs from the previous binding, all groups are dropped
    /// with it — incremental maintenance only ever spans re-optimizations
    /// of one bound query. A spec is validated when it is bound: one equal
    /// to the bound spec passed already.
    pub(crate) fn bind(
        &mut self,
        spec: &QuerySpec,
        ctx: &OptimizerContext<'_>,
    ) -> PopResult<CardEstimator> {
        let binding = match &self.bound {
            Some(b) if b.binds(spec, ctx.params) => b.clone(),
            _ => {
                spec.validate()?;
                self.valid = false;
                self.inputs = None;
                let fresh = Arc::new(Binding::new(spec, ctx.params)?);
                self.bound.insert(fresh).clone()
            }
        };
        let est = CardEstimator::bound(binding, self.inputs.as_ref(), ctx)?;
        self.inputs = Some(est.table_inputs().clone());
        Ok(est)
    }

    /// Find the cheapest join plan for all tables, reusing every clean
    /// group, and return the finished DP table with the ranges solved for
    /// its clean groups and the winner's index in the all-tables group (for
    /// `finalize::extract`). Produces exactly the plan a fresh memo would:
    /// clean groups are bit-identical by induction (all their subsets are
    /// clean), and dirty groups run the same builders in the same
    /// ascending-mask order.
    pub(crate) fn best_join_order(
        &mut self,
        est: &CardEstimator,
        ctx: &OptimizerContext<'_>,
    ) -> PopResult<(&[Group], &mut SolvedRanges, usize, MemoStats)> {
        let n = est.spec().tables.len();
        let graph = est.graph();
        let same_env = self
            .env
            .as_ref()
            .is_some_and(|(cfg, cost)| cfg == ctx.config && cost == ctx.cost);
        let stats_fp = est.stats_fingerprint();
        let rebuilt = !self.valid || !same_env || self.stats_fp != stats_fp;
        if rebuilt {
            if self.groups.len() < 1 << n {
                self.groups.resize_with(1 << n, Group::default);
            }
            for g in &mut self.groups {
                g.cands.clear();
                g.best = NO_PLAN;
            }
            self.solved.clear();
            self.env = Some((ctx.config.clone(), ctx.cost.clone()));
            self.stats_fp = stats_fp;
            self.valid = true;
        }

        let mut stats = MemoStats {
            rebuilt,
            groups_total: graph.num_connected(),
            ..MemoStats::default()
        };
        let mvs = query_mvs(est, ctx);
        // Ascending mask order: every subset of a group is final before the
        // group itself is visited, so the candidate indices a join records
        // for its inputs (and the siblings extraction rebuilds from them to
        // solve validity ranges) no longer move.
        for set in graph.connected_sets() {
            let mask = set.mask() as usize;
            let old = &self.groups[mask];
            let card = est.card(set);
            let mv = mvs.iter().find(|mv| mv.tables == set.mask());
            let current = GroupMeta {
                card_bits: card.to_bits(),
                mv: mv.map(|mv| (mv.table.id(), mv.actual_card)),
            };
            let seed = rebuilt || old.meta != current;
            if seed && !rebuilt {
                stats.dirty_seeds += 1;
            }
            let dirty = seed
                || set.iter().any(|t| {
                    let rest = set.minus(TableSet::single(t));
                    graph.is_connected(rest) && self.groups[rest.mask() as usize].dirty
                });
            if dirty {
                // The group's own list, refilled: no subset reads it.
                let mut cands = std::mem::take(&mut self.groups[mask].cands);
                cands.clear();
                if mask.is_power_of_two() {
                    let t = set.iter().next().expect("singleton");
                    // A pass that stops half-way leaves supersets derived
                    // from superseded subsets: drop the table, so the next
                    // pass rebuilds instead of trusting it.
                    build_singleton_group(&mut cands, t, mv, est, ctx)
                        .inspect_err(|_| self.valid = false)?;
                } else {
                    build_join_group(
                        &mut cands,
                        set,
                        card,
                        mv,
                        &self.groups,
                        est,
                        ctx,
                        &mut stats,
                    );
                }
                self.groups[mask].derive(cands, current);
                stats.groups_rederived += 1;
            } else {
                self.groups[mask].dirty = false;
                stats.groups_reused += 1;
            }
        }
        let groups = &self.groups;
        self.solved.retain(|&(mask, _), _| !groups[mask].dirty);

        let (best, _) = self.groups[est.spec().all_tables().mask() as usize]
            .cheapest()
            .ok_or_else(|| {
                PopError::Planning("no feasible join plan (check join methods and indexes)".into())
            })?;
        Ok((&self.groups, &mut self.solved, best, stats))
    }

    /// Is `set` a subplan of the bound query (a connected table set)? What
    /// the driver asks before it promotes a harvested materialization.
    /// `false` before the first optimization.
    pub fn is_subplan(&self, set: TableSet) -> bool {
        self.bound
            .as_ref()
            .is_some_and(|b| b.graph().is_connected(set))
    }
}

/// The temp MVs the memo may plan with: the catalog's, read once per pass
/// (none when the config turns MVs off), each kept only if its table set is
/// a subplan of the bound query. A group finds its MV by mask.
fn query_mvs(est: &CardEstimator, ctx: &OptimizerContext<'_>) -> Vec<TempMv> {
    if !ctx.config.use_temp_mvs || ctx.catalog.temp_mv_count() == 0 {
        return Vec::new();
    }
    let graph = est.graph();
    let mut mvs = ctx.catalog.temp_mvs();
    mvs.retain(|mv| graph.is_connected(TableSet::from_mask(mv.tables)));
    mvs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, CardFact, CostModel, FeedbackCache, OptimizerConfig};
    use pop_plan::{PhysNode, QueryBuilder};
    use pop_stats::StatsRegistry;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{ColId, DataType, Schema, Value};

    fn setup() -> (Catalog, StatsRegistry) {
        let cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
            (0..200).map(|i| vec![Value::Int(i), Value::Int(i % 20)]),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::from_pairs(&[
                ("oid", DataType::Int),
                ("cust", DataType::Int),
                ("amount", DataType::Int),
            ]),
            (0..20_000).map(|i| vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 97)]),
        )
        .unwrap();
        cat.create_table(
            "items",
            Schema::from_pairs(&[("iid", DataType::Int), ("ord", DataType::Int)]),
            (0..40_000).map(|i| vec![Value::Int(i), Value::Int(i % 20_000)]),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        cat.create_index("items", "ord", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn chain_query() -> pop_plan::QuerySpec {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        let it = b.table("items");
        b.join(c, 0, o, 1);
        b.join(o, 0, it, 1);
        b.filter(c, pop_expr::Expr::col(c, 1).eq(pop_expr::Expr::lit(3i64)));
        b.build().unwrap()
    }

    /// Register a 10-row temp MV over the filtered customer subplan of
    /// [`chain_query`], backed by a fresh table called `name`.
    fn register_customer_mv(cat: &Catalog, name: &str) {
        cat.register_temp_mv(pop_storage::TempMv {
            table: std::sync::Arc::new(pop_storage::Table::new(
                cat.allocate_temp_id(),
                name,
                Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
                (0..10)
                    .map(|i| vec![Value::Int(i), Value::Int(3)])
                    .collect(),
            )),
            tables: 1,
            layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            actual_card: 10,
            lineage: None,
        });
    }

    fn mv_scans(plan: &PhysNode) -> Vec<String> {
        let mut names = Vec::new();
        plan.visit(&mut |n| {
            if let PhysNode::MvScan { mv_name, .. } = n {
                names.push(mv_name.clone());
            }
        });
        names
    }

    /// The incremental answer must be the fresh-memo answer, bit for bit.
    fn assert_matches_fresh(inc: &PhysNode, q: &pop_plan::QuerySpec, ctx: &OptimizerContext<'_>) {
        let (fresh, stats) = optimize(q, ctx, &mut Memo::new()).unwrap();
        assert!(stats.rebuilt);
        assert_eq!(inc.props().cost.to_bits(), fresh.props().cost.to_bits());
        assert_eq!(inc.to_string(), fresh.to_string());
    }

    /// A step reuses the previous step's table inputs until a table's
    /// indexes, its statistics or the selectivity defaults change.
    #[test]
    fn table_inputs_are_reused_until_a_source_changes() {
        let (cat, stats) = setup();
        let mut cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let q = chain_query();
        let mut memo = Memo::new();
        let mut step = |cfg: &OptimizerConfig| {
            let ctx = OptimizerContext::new(&cat, &stats, cfg, &cost, None, &fb);
            memo.bind(&q, &ctx).unwrap()
        };
        let first = step(&cfg);
        let same = step(&cfg);
        assert!(Arc::ptr_eq(first.table_inputs(), same.table_inputs()));
        assert!(!same.is_indexed(0, 1));
        cat.create_index("customer", "grp", IndexKind::Hash)
            .unwrap();
        let indexed = step(&cfg);
        assert!(!Arc::ptr_eq(same.table_inputs(), indexed.table_inputs()));
        assert!(indexed.is_indexed(0, 1));
        stats.analyze(&cat, "items").unwrap();
        let analyzed = step(&cfg);
        assert!(!Arc::ptr_eq(
            indexed.table_inputs(),
            analyzed.table_inputs()
        ));
        cfg.selectivity_defaults.eq /= 2.0;
        let defaults = step(&cfg);
        assert!(!Arc::ptr_eq(
            analyzed.table_inputs(),
            defaults.table_inputs()
        ));
        assert!(Arc::ptr_eq(
            defaults.table_inputs(),
            step(&cfg).table_inputs()
        ));
    }

    #[test]
    fn first_pass_rebuilds_then_reuses_everything() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = chain_query();
        let mut memo = Memo::new();
        let (p1, s1) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(s1.rebuilt);
        assert_eq!(s1.groups_reused, 0);
        assert_eq!(s1.groups_rederived, s1.groups_total);
        // Nothing changed: second pass reuses every group.
        let (p2, s2) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(!s2.rebuilt);
        assert_eq!(s2.groups_rederived, 0);
        assert_eq!(s2.groups_reused, s2.groups_total);
        assert_eq!(p1.props().cost.to_bits(), p2.props().cost.to_bits());
        assert_eq!(p1.to_string(), p2.to_string());
    }

    #[test]
    fn card_fact_rederives_only_ancestors() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let mut fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = chain_query();
        let mut memo = Memo::new();
        optimize(&q, &ctx, &mut memo).unwrap();
        // A fact on {customer} dirties {c}, {c,o}, {c,o,i} — its connected
        // supersets ({c,i} is no group: nothing joins c to i) — and leaves
        // {o}, {i}, {o,i} untouched.
        fb.record(TableSet::single(0), CardFact::Exact(55.0));
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let (inc, s) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(!s.rebuilt, "a CardFact must not force a full rebuild");
        assert_eq!(s.groups_total, 6, "{s:?}");
        assert_eq!(s.groups_rederived, 3, "{s:?}");
        assert_eq!(s.groups_reused, 3, "{s:?}");
        assert_matches_fresh(&inc, &q, &ctx);
    }

    #[test]
    fn parameter_change_clears_the_memo() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, pop_expr::Expr::col(c, 1).eq(pop_expr::Expr::Param(0)));
        let q = b.build().unwrap();
        let p1 = pop_expr::Params::new(vec![Value::Int(3)]);
        let p2 = pop_expr::Params::new(vec![Value::Int(7)]);
        let mut memo = Memo::new();
        let ctx1 = OptimizerContext::new(&cat, &stats, &cfg, &cost, Some(&p1), &fb);
        assert!(optimize(&q, &ctx1, &mut memo).unwrap().1.rebuilt);
        // Different binding: the memo must not carry groups across.
        let ctx2 = OptimizerContext::new(&cat, &stats, &cfg, &cost, Some(&p2), &fb);
        assert!(optimize(&q, &ctx2, &mut memo).unwrap().1.rebuilt);
        // Same binding again: fully reused.
        let (_, s) = optimize(&q, &ctx2, &mut memo).unwrap();
        assert!(!s.rebuilt);
        assert_eq!(s.groups_rederived, 0);
    }

    #[test]
    fn mv_promotion_dirties_the_covered_group() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = chain_query();
        let mut memo = Memo::new();
        optimize(&q, &ctx, &mut memo).unwrap();
        register_customer_mv(&cat, "__mv_memo");
        let (inc, s) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(!s.rebuilt);
        assert!(s.dirty_seeds >= 1, "{s:?}");
        assert_matches_fresh(&inc, &q, &ctx);
        assert_eq!(
            mv_scans(&inc),
            ["__mv_memo"],
            "promoted MV must appear in the incremental plan"
        );
    }

    /// A later harvest re-registers an MV over the same table set with
    /// the same row count but a new backing table. The group's candidate
    /// names the table, so the group must be re-derived — a snapshot of the
    /// cardinality alone kept the stale `MVSCAN` (planlint `PL402`).
    #[test]
    fn replaced_mv_with_equal_cardinality_dirties_the_group() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = chain_query();
        let mut memo = Memo::new();
        register_customer_mv(&cat, "__mv_old");
        let (first, _) = optimize(&q, &ctx, &mut memo).unwrap();
        assert_eq!(mv_scans(&first), ["__mv_old"]);

        register_customer_mv(&cat, "__mv_new");
        let (second, s) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(!s.rebuilt);
        assert_eq!(s.dirty_seeds, 1, "{s:?}");
        assert_eq!(s.groups_rederived, 3, "{s:?}");
        assert_eq!(mv_scans(&second), ["__mv_new"]);
        assert_matches_fresh(&second, &q, &ctx);
        let lctx = pop_planlint::LintContext::full(&cat, &q);
        let diags = pop_planlint::lint_plan(&second, &lctx);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dropped_mv_dirties_the_group() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = chain_query();
        let mut memo = Memo::new();
        register_customer_mv(&cat, "__mv_gone");
        let (with_mv, _) = optimize(&q, &ctx, &mut memo).unwrap();
        assert_eq!(mv_scans(&with_mv), ["__mv_gone"]);
        cat.clear_temp_mvs();
        let (without, s) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(!s.rebuilt);
        assert!(mv_scans(&without).is_empty(), "{without}");
        assert_matches_fresh(&without, &q, &ctx);
    }

    #[test]
    fn config_change_forces_full_rebuild() {
        let (cat, stats) = setup();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let q = chain_query();
        let mut memo = Memo::new();
        let cfg = OptimizerConfig::default();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        optimize(&q, &ctx, &mut memo).unwrap();
        let cfg2 = OptimizerConfig {
            joins: crate::JoinMethods {
                nljn: false,
                ..Default::default()
            },
            ..OptimizerConfig::default()
        };
        let ctx = OptimizerContext::new(&cat, &stats, &cfg2, &cost, None, &fb);
        let (inc, s) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(s.rebuilt);
        assert_matches_fresh(&inc, &q, &ctx);
    }

    /// Catalog of `n` tables `t0..`, `(pk, key, attr)`, with sizes cycling
    /// through a few values and a hash index on every other table's `key`.
    fn numbered_tables(n: usize) -> (Catalog, StatsRegistry) {
        let cat = Catalog::new();
        for i in 0..n {
            let rows = [40i64, 200, 12, 90][i % 4];
            cat.create_table(
                format!("t{i}"),
                Schema::from_pairs(&[
                    ("pk", DataType::Int),
                    ("key", DataType::Int),
                    ("attr", DataType::Int),
                ]),
                (0..rows).map(|r| vec![Value::Int(r), Value::Int(r % 8), Value::Int(r % 5)]),
            )
            .unwrap();
            if i % 2 == 0 {
                cat.create_index(&format!("t{i}"), "key", IndexKind::Hash)
                    .unwrap();
            }
        }
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    /// `t0..t{n-1}` joined on `key` along `edges`.
    fn graph_query(n: usize, edges: &[(usize, usize)]) -> pop_plan::QuerySpec {
        let mut b = QueryBuilder::new();
        for i in 0..n {
            b.table(format!("t{i}"));
        }
        for &(x, y) in edges {
            b.join(x, 1, y, 1);
        }
        b.build().unwrap()
    }

    fn chain_edges(n: usize) -> Vec<(usize, usize)> {
        (1..n).map(|i| (i - 1, i)).collect()
    }

    #[test]
    fn more_tables_than_the_dp_horizon_is_a_planning_error() {
        assert_eq!(MAX_DP_TABLES, 20, "Group grew or shrank: re-derive the doc");
        let (cat, stats) = numbered_tables(1);
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        // Valid as a spec (at most 64 tables), and 2^21 groups too many.
        let n = MAX_DP_TABLES + 1;
        let q = graph_query(n, &chain_edges(n));
        let err = optimize(&q, &ctx, &mut Memo::new()).unwrap_err();
        assert!(
            matches!(&err, PopError::Planning(m) if m.contains("21 tables")),
            "{err}"
        );
    }

    /// Past 16 tables feedback used to be dropped without a word, and every
    /// one of the 2^17 masks was a group.
    #[test]
    fn feedback_reaches_a_17_table_chain() {
        let n = 17;
        let (cat, stats) = numbered_tables(n);
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let mut fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = graph_query(n, &chain_edges(n));
        let mut memo = Memo::new();
        let (_, first) = optimize(&q, &ctx, &mut memo).unwrap();
        // n(n+1)/2 intervals, each split at most at its two ends.
        assert_eq!(first.groups_total, 153);
        assert_eq!(first.groups_rederived, 153);
        assert_eq!(first.splits_costed, 2 * (153 - n));

        let pair = TableSet::from_iter([3, 4]);
        let before = memo.bind(&q, &ctx).unwrap().card(pair);
        assert_ne!(before, 4321.0);
        fb.record(pair, CardFact::Exact(4321.0));
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);

        // The intervals [i, j] with i <= 3 and j >= 4 are re-derived.
        let (inc, second) = optimize(&q, &ctx, &mut memo).unwrap();
        assert!(!second.rebuilt);
        assert_eq!(second.groups_rederived, 4 * 13, "{second:?}");
        assert_matches_fresh(&inc, &q, &ctx);
        let est = memo.bind(&q, &ctx).unwrap();
        assert_eq!(est.card(pair), 4321.0);
        assert!(est.card(TableSet::from_iter([2, 3, 4])) > before);
        assert_eq!(optimize(&q, &ctx, &mut memo).unwrap().1.groups_rederived, 0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The splits the join graph admits, filtered by planned child
        /// groups, are the splits the enumerator used to find by asking
        /// `join_preds_between` and the child groups about every submask
        /// pair — same pairs, same order — and a disconnected mask has
        /// neither splits nor a group.
        #[test]
        fn admitted_splits_are_the_joinable_planned_pairs(
            n in 2usize..=9,
            parents in proptest::collection::vec(any::<usize>(), 9..10),
            extra in proptest::collection::vec((0usize..9, 0usize..9), 0..5),
            bushy in any::<bool>(),
            hsjn in any::<bool>(),
        ) {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (parents[i] % i, i)).collect();
            edges.extend(extra.into_iter().filter(|&(x, y)| x < n && y < n && x != y));
            let q = graph_query(n, &edges);
            let (cat, stats) = numbered_tables(n);
            let cfg = OptimizerConfig {
                bushy_limit: if bushy { 11 } else { 0 },
                joins: crate::JoinMethods { hsjn, ..Default::default() },
                ..OptimizerConfig::default()
            };
            let cost = CostModel::default();
            let fb = FeedbackCache::new();
            let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
            let mut memo = Memo::new();
            // Without hash join a connected set may have no plan at all.
            let pass = optimize(&q, &ctx, &mut memo);
            prop_assert!(hsjn <= pass.is_ok());
            let planned = |s: TableSet| !memo.groups[s.mask() as usize].cands.is_empty();
            let graph = pop_plan::JoinGraph::new(&q, MAX_DP_TABLES).unwrap();
            let mut costed = 0;
            for mask in 1..1u64 << n {
                let set = TableSet::from_mask(mask);
                let pairs: Vec<(TableSet, TableSet)> = if bushy {
                    set.proper_subsets()
                        .map(|s1| (s1, set.minus(s1)))
                        .filter(|(s1, s2)| s1.mask() <= s2.mask())
                        .collect()
                } else {
                    set.iter()
                        .map(|t| (set.minus(TableSet::single(t)), TableSet::single(t)))
                        .collect()
                };
                let reference: Vec<_> = pairs
                    .into_iter()
                    .filter(|&(s1, s2)| {
                        !s2.is_empty()
                            && !q.join_preds_between(s1, s2).is_empty()
                            && planned(s1)
                            && planned(s2)
                    })
                    .collect();
                if graph.is_connected(set) {
                    let admitted: Vec<_> = graph
                        .splits(set, bushy)
                        .filter(|&(s1, s2)| planned(s1) && planned(s2))
                        .collect();
                    prop_assert_eq!(&admitted, &reference, "set {}", set);
                    costed += admitted.len();
                } else {
                    prop_assert!(reference.is_empty() && !planned(set), "set {}", set);
                }
            }
            if let Ok((_, stats)) = pass {
                prop_assert_eq!(stats.splits_costed, costed);
            }
        }
    }
}
