//! Cardinality feedback from previous execution steps — and, via the
//! shared [`FeedbackStore`], from previous *queries*.
//!
//! Two layers (LEO-style, the paper's §7 "Learning for the Future"):
//!
//! * [`FeedbackCache`] — the per-query map the driver records into while
//!   a query runs, keyed by the table set of each subplan: within one
//!   query (one spec, one parameter binding) the set names the subplan.
//! * [`FeedbackStore`] — a process-wide base of facts keyed by subplan
//!   signature ([`pop_plan::Signer`]: tables, predicates and parameter
//!   values), owned by the executor and surviving across queries. It is
//!   capacity-bounded: once full, new signatures are dropped (existing
//!   ones still strengthen), so a fleet of ad-hoc queries cannot grow it
//!   without bound.
//!
//! The two meet in this module alone: a query's map is *seeded* from the
//! store by signing its connected table sets once, and its own facts are
//! published — signed again — only when the query completes (and learning
//! is enabled), so facts from abandoned or poisoned runs never
//! contaminate the fleet.

use parking_lot::RwLock;
use pop_expr::Params;
use pop_plan::{JoinGraph, QuerySpec, Signer, TableSet};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fact learned about a subplan's actual cardinality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CardFact {
    /// The subplan was fully materialized; its cardinality is exact.
    Exact(f64),
    /// An eager check (ECB/ECWC/ECDC) aborted early after seeing this many
    /// rows: the true cardinality is at least this (§3.4: eager checks
    /// "merely give the optimizer a lower bound for the correct
    /// cardinality").
    AtLeast(f64),
}

impl CardFact {
    /// Merge a new observation into an existing fact, keeping the
    /// strongest information.
    pub fn merge(self, other: CardFact) -> CardFact {
        use CardFact::{AtLeast, Exact};
        match (self, other) {
            (Exact(a), Exact(b)) => Exact(a.max(b)), // latest exact counts agree in practice
            (Exact(a), AtLeast(b)) | (AtLeast(b), Exact(a)) => {
                if b > a {
                    AtLeast(b)
                } else {
                    Exact(a)
                }
            }
            (AtLeast(a), AtLeast(b)) => AtLeast(a.max(b)),
        }
    }

    /// Apply the fact to an estimate.
    pub fn apply(&self, estimate: f64) -> f64 {
        match self {
            CardFact::Exact(v) => *v,
            CardFact::AtLeast(v) => estimate.max(*v),
        }
    }

    /// Is the fact exact?
    pub fn is_exact(&self) -> bool {
        matches!(self, CardFact::Exact(_))
    }
}

/// Default capacity of the cross-query [`FeedbackStore`].
pub const DEFAULT_FEEDBACK_CAPACITY: usize = 4096;

/// The process-wide feedback base: cardinality facts keyed by subplan
/// signature ([`pop_plan::Signer`]), shared by every query an executor
/// runs. Cloning shares the underlying map.
#[derive(Clone)]
pub struct FeedbackStore {
    inner: Arc<RwLock<HashMap<String, CardFact>>>,
    capacity: usize,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        FeedbackStore::new(DEFAULT_FEEDBACK_CAPACITY)
    }
}

impl std::fmt::Debug for FeedbackStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.inner.read().iter()).finish()
    }
}

impl FeedbackStore {
    /// Empty store holding at most `capacity` signatures.
    pub fn new(capacity: usize) -> Self {
        FeedbackStore {
            inner: Arc::default(),
            capacity,
        }
    }

    /// Record (or strengthen) a fact. New signatures are dropped once the
    /// store is at capacity; known signatures always strengthen.
    pub fn record(&self, signature: impl Into<String>, fact: CardFact) {
        let mut map = self.inner.write();
        let sig = signature.into();
        match map.get(&sig) {
            Some(prev) => {
                let merged = prev.merge(fact);
                map.insert(sig, merged);
            }
            None => {
                if map.len() < self.capacity {
                    map.insert(sig, fact);
                }
            }
        }
    }

    /// Look up the fact for a signature.
    pub fn get(&self, signature: &str) -> Option<CardFact> {
        self.inner.read().get(signature).copied()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Drop all facts.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

/// Per-query cardinality feedback: the fact known about each subplan of
/// the running query, keyed by the table set the subplan joins — within
/// one query that set names the subplan. The POP driver records into it
/// when checks fire and materializations complete; the optimizer prefers
/// these facts over statistics-derived estimates during re-optimization.
///
/// With cross-query learning, [`FeedbackCache::seeded`] starts the map
/// from a [`FeedbackStore`] and [`FeedbackCache::publish`] hands the
/// query's own facts back to it; those two are the only places a
/// signature is built.
#[derive(Debug, Default)]
pub struct FeedbackCache {
    facts: BTreeMap<TableSet, Known>,
    overlay_hits: AtomicU64,
    base_hits: AtomicU64,
}

/// One fact of the map, and where it came from.
#[derive(Debug, Clone, Copy)]
struct Known {
    fact: CardFact,
    /// Recorded by this query; `false` for a fact only seeded from the
    /// store, which counts as a base hit.
    recorded: bool,
}

impl FeedbackCache {
    /// Empty cache.
    pub fn new() -> Self {
        FeedbackCache::default()
    }

    /// A cache seeded with what `store` knows about the subplans of `spec`
    /// under `params`: each connected table set is signed once and looked
    /// up. Empty for an empty store, or a spec too wide to plan.
    pub fn seeded(store: &FeedbackStore, spec: &QuerySpec, params: Option<&Params>) -> Self {
        let mut cache = FeedbackCache::new();
        if store.is_empty() {
            return cache;
        }
        let Ok(graph) = JoinGraph::new(spec, crate::MAX_DP_TABLES) else {
            return cache;
        };
        let signer = Signer::new(spec, params);
        let map = store.inner.read();
        for set in graph.connected_sets() {
            if let Some(&fact) = map.get(&signer.sign(set)) {
                let known = Known {
                    fact,
                    recorded: false,
                };
                cache.facts.insert(set, known);
            }
        }
        cache
    }

    /// Record (or strengthen) a fact observed on the subplan over `set`.
    /// A seeded fact is merged in, so strengthening rules see the
    /// strongest known fact.
    pub fn record(&mut self, set: TableSet, fact: CardFact) {
        let fact = match self.facts.get(&set) {
            Some(prev) => prev.fact.merge(fact),
            None => fact,
        };
        self.facts.insert(
            set,
            Known {
                fact,
                recorded: true,
            },
        );
    }

    /// Look up the fact for the subplan over `set`, counting the hit.
    pub fn get(&self, set: TableSet) -> Option<CardFact> {
        let known = self.facts.get(&set)?;
        self.count_hit(known);
        Some(known.fact)
    }

    /// Every fact on a subplan `graph` plans (a connected set), in no
    /// particular order, each counted as [`FeedbackCache::get`] counts it.
    pub(crate) fn facts_on(&self, graph: &JoinGraph) -> Vec<(TableSet, CardFact)> {
        self.facts
            .iter()
            .filter(|(set, _)| graph.is_connected(**set))
            .map(|(set, known)| {
                self.count_hit(known);
                (*set, known.fact)
            })
            .collect()
    }

    fn count_hit(&self, known: &Known) {
        let hits = if known.recorded {
            &self.overlay_hits
        } else {
            &self.base_hits
        };
        hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Publish every fact this query recorded into `store`, signed for
    /// `spec` under `params`. Called by the driver when a query completes
    /// successfully and cross-query learning is enabled — never for
    /// abandoned runs.
    pub fn publish(&self, store: &FeedbackStore, spec: &QuerySpec, params: Option<&Params>) {
        let signer = Signer::new(spec, params);
        for (set, known) in &self.facts {
            if known.recorded {
                store.record(signer.sign(*set), known.fact);
            }
        }
    }

    /// How many lookups were answered by facts this query recorded / by
    /// facts seeded from the store so far.
    pub fn hit_counts(&self) -> (u64, u64) {
        (
            self.overlay_hits.load(Ordering::Relaxed),
            self.base_hits.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_plan::{subplan_signature, QueryBuilder};

    /// A chain `t0 - t1 - t2`: `{0, 2}` is no subplan of it.
    fn chain() -> QuerySpec {
        let mut b = QueryBuilder::new();
        let t: Vec<usize> = (0..3).map(|i| b.table(format!("t{i}"))).collect();
        b.join(t[0], 0, t[1], 0);
        b.join(t[1], 1, t[2], 0);
        b.build().unwrap()
    }

    #[test]
    fn record_and_get() {
        let mut fb = FeedbackCache::new();
        assert!(fb.is_empty());
        fb.record(TableSet::single(1), CardFact::Exact(100.0));
        assert_eq!(fb.get(TableSet::single(1)), Some(CardFact::Exact(100.0)));
        assert_eq!(fb.get(TableSet::single(2)), None);
        assert!(!fb.is_empty());
    }

    #[test]
    fn merge_rules() {
        use CardFact::*;
        assert_eq!(Exact(10.0).merge(AtLeast(5.0)), Exact(10.0));
        assert_eq!(Exact(10.0).merge(AtLeast(50.0)), AtLeast(50.0));
        assert_eq!(AtLeast(5.0).merge(AtLeast(8.0)), AtLeast(8.0));
        assert_eq!(Exact(10.0).merge(Exact(12.0)), Exact(12.0));
    }

    #[test]
    fn apply_rules() {
        assert_eq!(CardFact::Exact(7.0).apply(100.0), 7.0);
        assert_eq!(CardFact::AtLeast(7.0).apply(100.0), 100.0);
        assert_eq!(CardFact::AtLeast(700.0).apply(100.0), 700.0);
    }

    #[test]
    fn record_strengthens() {
        let mut fb = FeedbackCache::new();
        let s = TableSet::from_iter([0, 1]);
        fb.record(s, CardFact::AtLeast(10.0));
        fb.record(s, CardFact::AtLeast(30.0));
        assert_eq!(fb.get(s), Some(CardFact::AtLeast(30.0)));
        fb.record(s, CardFact::Exact(50.0));
        assert_eq!(fb.get(s), Some(CardFact::Exact(50.0)));
    }

    #[test]
    fn base_seeds_and_overlay_wins() {
        let q = chain();
        let s = TableSet::from_iter([0, 1]);
        let base = FeedbackStore::default();
        base.record(subplan_signature(&q, s), CardFact::Exact(100.0));
        let mut fb = FeedbackCache::seeded(&base, &q, None);
        assert!(!fb.is_empty());
        // Base seeds the lookup...
        assert_eq!(fb.get(s), Some(CardFact::Exact(100.0)));
        // ...the query strengthens locally without touching the base...
        fb.record(s, CardFact::AtLeast(250.0));
        assert_eq!(fb.get(s), Some(CardFact::AtLeast(250.0)));
        assert_eq!(
            base.get(&subplan_signature(&q, s)),
            Some(CardFact::Exact(100.0))
        );
        // ...until published.
        fb.publish(&base, &q, None);
        assert_eq!(
            base.get(&subplan_signature(&q, s)),
            Some(CardFact::AtLeast(250.0))
        );
        assert_eq!(base.len(), 1);
        let (overlay_hits, base_hits) = fb.hit_counts();
        assert_eq!((overlay_hits, base_hits), (1, 1));
    }

    /// `facts_on` finds what `get` finds for each subplan, and counts the
    /// same hits: a seeded fact is a base hit until the query records on
    /// its set.
    #[test]
    fn facts_on_matches_get() {
        let q = chain();
        let graph = JoinGraph::new(&q, crate::MAX_DP_TABLES).unwrap();
        let base = FeedbackStore::default();
        for t in 0..3 {
            let fact = CardFact::Exact(100.0 + f64::from(t));
            base.record(subplan_signature(&q, TableSet::single(t as usize)), fact);
        }
        let mut fb = FeedbackCache::seeded(&base, &q, None);
        fb.record(TableSet::single(1), CardFact::AtLeast(500.0));
        fb.record(TableSet::from_iter([0, 1]), CardFact::Exact(7.0));
        let before = fb.hit_counts();
        let expected: Vec<(TableSet, CardFact)> = graph
            .connected_sets()
            .filter_map(|set| fb.get(set).map(|f| (set, f)))
            .collect();
        let after_get = fb.hit_counts();
        assert_eq!(
            (after_get.0 - before.0, after_get.1 - before.1),
            (2, 2),
            "{expected:?}"
        );
        let mut got = fb.facts_on(&graph);
        got.sort_by_key(|&(set, _)| set.mask());
        assert_eq!(got, expected);
        let after_all = fb.hit_counts();
        assert_eq!(
            (after_all.0 - after_get.0, after_all.1 - after_get.1),
            (2, 2)
        );
    }

    /// A fact is resolved by the set it was recorded at, and only while
    /// that set is a subplan of the graph being planned.
    #[test]
    fn a_fact_recorded_at_its_set_resolves_by_the_set() {
        let q = chain();
        let graph = JoinGraph::new(&q, crate::MAX_DP_TABLES).unwrap();
        let mut fb = FeedbackCache::new();
        let set = TableSet::from_iter([1, 2]);
        fb.record(set, CardFact::AtLeast(5.0));
        fb.record(set, CardFact::Exact(9.0));
        fb.record(TableSet::from_iter([0, 2]), CardFact::Exact(1.0));
        fb.record(TableSet::single(3), CardFact::Exact(1.0));
        assert_eq!(fb.facts_on(&graph), [(set, CardFact::Exact(9.0))]);
        assert_eq!(fb.hit_counts(), (1, 0));
    }

    /// A query's facts reach the store only through `publish`: seeding
    /// reads it, recording and dropping the cache leave it untouched, and
    /// publishing adds the recorded facts alone, not the seeded ones.
    #[test]
    fn clear_leaves_base_untouched() {
        let q = chain();
        let base = FeedbackStore::default();
        let kept = subplan_signature(&q, TableSet::single(0));
        base.record(kept.clone(), CardFact::Exact(5.0));
        let mut fb = FeedbackCache::seeded(&base, &q, None);
        fb.record(TableSet::single(2), CardFact::Exact(7.0));
        drop(fb);
        assert_eq!(base.len(), 1);
        let mut fb = FeedbackCache::seeded(&base, &q, None);
        assert_eq!(fb.get(TableSet::single(2)), None);
        fb.record(TableSet::single(2), CardFact::Exact(7.0));
        fb.publish(&base, &q, None);
        assert_eq!(base.len(), 2);
        assert_eq!(base.get(&kept), Some(CardFact::Exact(5.0)));
        assert_eq!(
            base.get(&subplan_signature(&q, TableSet::single(2))),
            Some(CardFact::Exact(7.0))
        );
    }

    #[test]
    fn store_capacity_bounds_new_signatures() {
        let base = FeedbackStore::new(2);
        base.record("a", CardFact::Exact(1.0));
        base.record("b", CardFact::Exact(2.0));
        base.record("c", CardFact::Exact(3.0)); // dropped: at capacity
        assert_eq!(base.len(), 2);
        assert_eq!(base.get("c"), None);
        // Known signatures still strengthen.
        base.record("a", CardFact::Exact(10.0));
        assert_eq!(base.get("a"), Some(CardFact::Exact(10.0)));
    }
}
