//! Parameterized plan cache keyed by validity ranges.
//!
//! A finalized POP plan carries the validity ranges the enumeration
//! computed ([`crate::validity`]): per-edge cardinality intervals inside
//! which the plan is provably within the re-optimization margin of
//! optimal, plus the trigger ranges of its placed CHECK operators. That
//! makes a plan *reusable evidence*: for a later execution of the same
//! query template with a different parameter binding, the plan is safe to
//! reuse exactly when the new binding's **estimated** cardinalities fall
//! inside every one of those ranges — the same condition under which the
//! optimizer would have picked it again. Outside any range, the cache
//! misses with a reason and the memo re-derives.
//!
//! Entries are keyed by [`pop_plan::spec_fingerprint`] (parameter-*less*:
//! bindings select via guards, not via the key) and never contain
//! `MVSCAN` nodes — temp MVs are query-scoped and RAII-cleaned, so a plan
//! referencing one would dangle.

use crate::CardEstimator;
use parking_lot::Mutex;
use pop_plan::{PhysNode, TableSet, ValidityRange};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default maximum number of cached plans across all templates.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// One reuse precondition: the estimated cardinality of the subplan over
/// `set` must fall inside `range`.
#[derive(Debug, Clone, Copy)]
pub struct PlanGuard {
    /// Tables of the guarded subplan.
    pub set: TableSet,
    /// Interval the plan was vetted for.
    pub range: ValidityRange,
}

#[derive(Debug, Clone)]
struct CachedPlan {
    plan: PhysNode,
    guards: Vec<PlanGuard>,
}

/// Process-wide validity-range plan cache. Cloning shares the storage.
#[derive(Clone, Debug)]
pub struct PlanCache {
    entries: Arc<Mutex<HashMap<String, Vec<CachedPlan>>>>,
    capacity: usize,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: Arc::default(),
            capacity,
            hits: Arc::default(),
            misses: Arc::default(),
        }
    }

    /// Look up a plan for the template `key` whose guards all admit the
    /// current binding's estimates. Returns the plan (cloned) on a hit and
    /// a human-readable decision string either way — surfaced on
    /// `RunReport` so every reuse (or refusal) is explainable.
    pub fn lookup(&self, key: &str, est: &CardEstimator) -> (Option<PhysNode>, String) {
        let entries = self.entries.lock();
        let Some(list) = entries.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (None, "miss: no cached plan for this query".into());
        };
        let mut first_reason: Option<String> = None;
        for cached in list {
            match cached
                .guards
                .iter()
                .find(|g| !g.range.contains(est.card(g.set)))
            {
                None => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let reason = format!(
                        "hit: all {} validity guards admit the binding",
                        cached.guards.len()
                    );
                    return (Some(cached.plan.clone()), reason);
                }
                Some(g) => {
                    if first_reason.is_none() {
                        first_reason = Some(format!(
                            "miss: estimate {:.1} for {:?} outside vetted range {}",
                            est.card(g.set),
                            g.set,
                            g.range
                        ));
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (
            None,
            first_reason.unwrap_or_else(|| "miss: no cached plan for this query".into()),
        )
    }

    /// Cache a finalized plan under `key`, deriving its guards from the
    /// validity ranges it carries. Plans containing `MVSCAN` are refused
    /// (temp MVs do not outlive their query); so are plans with no finite
    /// range at all (nothing to vet a future binding against — reuse would
    /// be unconditional and unprincipled).
    pub fn insert(&self, key: impl Into<String>, plan: &PhysNode) {
        let mut has_mv = false;
        plan.visit(&mut |n| {
            if matches!(n, PhysNode::MvScan { .. }) {
                has_mv = true;
            }
        });
        if has_mv {
            return;
        }
        let guards = extract_guards(plan);
        if guards.is_empty() {
            return;
        }
        let mut entries = self.entries.lock();
        let total: usize = entries.values().map(Vec::len).sum();
        if total >= self.capacity {
            return;
        }
        entries.entry(key.into()).or_default().push(CachedPlan {
            plan: plan.clone(),
            guards,
        });
    }

    /// Number of cached plans across all templates.
    pub fn len(&self) -> usize {
        self.entries.lock().values().map(Vec::len).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) since creation.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drop all cached plans (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

/// Collect every finite validity interval the plan carries: CHECK /
/// BUFCHECK trigger ranges (keyed by the checked subplan's tables) and
/// per-edge ranges narrowed during enumeration. Ranges guarding the same
/// table set are intersected — the reuse condition is the conjunction.
fn extract_guards(plan: &PhysNode) -> Vec<PlanGuard> {
    let mut by_set: HashMap<u64, (TableSet, ValidityRange)> = HashMap::new();
    let mut add = |set: TableSet, range: ValidityRange| {
        if range.is_unbounded() {
            return;
        }
        by_set
            .entry(set.mask())
            .and_modify(|(_, r)| *r = r.intersect(&range))
            .or_insert((set, range));
    };
    plan.visit(&mut |n| {
        if let PhysNode::Check { input, spec, .. } | PhysNode::BufCheck { input, spec, .. } = n {
            add(input.props().tables, spec.range);
        }
        for (child, range) in n.children().iter().zip(n.props().edge_ranges.iter()) {
            add(child.props().tables, *range);
        }
    });
    let mut out: Vec<PlanGuard> = by_set
        .into_values()
        .map(|(set, range)| PlanGuard { set, range })
        .collect();
    out.sort_by_key(|g| g.set.mask());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, FeedbackCache, OptimizerConfig, OptimizerContext};
    use pop_plan::QueryBuilder;
    use pop_stats::StatsRegistry;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{DataType, Schema, Value};

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
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..20_000).map(|i| vec![Value::Int(i), Value::Int(i % 200)]),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn plan_and_est(
        cat: &Catalog,
        stats: &StatsRegistry,
        cfg: &OptimizerConfig,
        fb: &FeedbackCache,
    ) -> (PhysNode, CardEstimator, pop_plan::QuerySpec) {
        let cost = CostModel::default();
        let ctx = OptimizerContext::new(cat, stats, cfg, &cost, None, fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, pop_expr::Expr::col(c, 1).eq(pop_expr::Expr::lit(3i64)));
        let q = b.build().unwrap();
        let est = CardEstimator::new(&q, &ctx).unwrap();
        let (plan, _) = crate::optimize(&q, &ctx, &mut crate::Memo::new()).unwrap();
        (plan, est, q)
    }

    #[test]
    fn in_range_binding_hits_out_of_range_misses() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let fb = FeedbackCache::new();
        let (plan, est, q) = plan_and_est(&cat, &stats, &cfg, &fb);
        let cache = PlanCache::default();
        let key = pop_plan::spec_fingerprint(&q);
        cache.insert(key.clone(), &plan);
        assert_eq!(cache.len(), 1, "plan with finite ranges must be cached");

        // Same estimates: every guard admits them (ranges contain the
        // estimates they were derived from).
        let (found, reason) = cache.lookup(&key, &est);
        assert!(found.is_some(), "{reason}");
        assert!(reason.starts_with("hit"), "{reason}");

        // A wildly different estimate for the filtered customer subplan
        // must trip a guard and miss with a reason.
        fb.record(
            pop_plan::subplan_signature(&q, TableSet::single(0)),
            crate::CardFact::Exact(100_000.0),
        );
        let cost = CostModel::default();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let est2 = CardEstimator::new(&q, &ctx).unwrap();
        let (found, reason) = cache.lookup(&key, &est2);
        assert!(found.is_none(), "{reason}");
        assert!(reason.starts_with("miss"), "{reason}");
        assert_eq!(cache.hit_miss(), (1, 1));
    }

    #[test]
    fn mv_plans_are_refused() {
        let props = pop_plan::PlanProps::leaf(TableSet::single(0), 1.0, 1.0, vec![]);
        let plan = PhysNode::MvScan {
            mv_name: "m".into(),
            signature: "s".into(),
            props,
        };
        let cache = PlanCache::default();
        cache.insert("k", &plan);
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bounds_insertions() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let fb = FeedbackCache::new();
        let (plan, _est, q) = plan_and_est(&cat, &stats, &cfg, &fb);
        let cache = PlanCache::new(1);
        let key = pop_plan::spec_fingerprint(&q);
        cache.insert(key.clone(), &plan);
        cache.insert(key, &plan);
        assert_eq!(cache.len(), 1);
    }
}
