//! Cardinality feedback from previous execution steps — and, via the
//! shared [`FeedbackStore`], from previous *queries*.
//!
//! Two layers (LEO-style, the paper's §7 "Learning for the Future"):
//!
//! * [`FeedbackStore`] — a process-wide base of facts keyed by subplan
//!   signature, owned by the executor and surviving across queries. It is
//!   capacity-bounded: once full, new signatures are dropped (existing
//!   ones still strengthen), so a fleet of ad-hoc queries cannot grow it
//!   without bound.
//! * [`FeedbackCache`] — the per-query overlay the driver records into
//!   while a query runs. Lookups fall through to the base, so a fresh
//!   query is *seeded* with everything past CHECKs observed; the overlay
//!   is published into the base only when the query completes (and
//!   learning is enabled), so facts from abandoned or poisoned runs never
//!   contaminate the fleet. A fact the driver observes also carries the
//!   table set of the subplan it was observed on
//!   ([`FeedbackCache::record_at`]): a re-plan of the same query resolves
//!   it by that set, building one signature instead of every connected
//!   set's.

use parking_lot::RwLock;
use pop_plan::TableSet;
use std::collections::HashMap;
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
/// signature ([`pop_plan::Signer`]), shared by
/// every query an executor runs. Cloning shares the underlying map.
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

/// Per-query cardinality feedback: an overlay the POP driver records into
/// when checks fire, over an optional cross-query [`FeedbackStore`] base
/// that seeds estimates for signatures observed by *earlier* queries.
/// The optimizer prefers these facts over statistics-derived estimates
/// during (re-)optimization.
#[derive(Clone, Default)]
pub struct FeedbackCache {
    overlay: Arc<RwLock<HashMap<String, Observed>>>,
    base: Option<FeedbackStore>,
    overlay_hits: Arc<AtomicU64>,
    base_hits: Arc<AtomicU64>,
}

/// One overlay fact: what was observed and, when the recorder knew it,
/// the table set of the subplan it was observed on.
#[derive(Debug, Clone, Copy)]
struct Observed {
    fact: CardFact,
    set: Option<TableSet>,
}

impl std::fmt::Debug for FeedbackCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedbackCache")
            .field("overlay", &*self.overlay.read())
            .field("base", &self.base)
            .field("overlay_hits", &self.overlay_hits)
            .field("base_hits", &self.base_hits)
            .finish()
    }
}

impl FeedbackCache {
    /// Empty cache with no cross-query base.
    pub fn new() -> Self {
        FeedbackCache::default()
    }

    /// Empty overlay over a shared cross-query base: lookups fall through
    /// to `base`, records stay in the overlay until [`publish`] is called.
    ///
    /// [`publish`]: FeedbackCache::publish
    pub fn with_base(base: FeedbackStore) -> Self {
        FeedbackCache {
            base: Some(base),
            ..FeedbackCache::default()
        }
    }

    /// Record (or strengthen) a fact in the overlay. The base is consulted
    /// for the previous value (so strengthening rules see the strongest
    /// known fact) but never written until [`FeedbackCache::publish`].
    pub fn record(&self, signature: impl Into<String>, fact: CardFact) {
        self.observe(signature.into(), None, fact);
    }

    /// [`FeedbackCache::record`] a fact observed on the running query's
    /// subplan over `set` (a CHECK's input, a harvested materialization).
    /// The optimizer resolves it by that set, checking the one signature
    /// against it; a fact whose set signs differently under the binding
    /// being planned is resolved by its signature alone, as
    /// [`FeedbackCache::record`]'s are.
    pub fn record_at(&self, signature: impl Into<String>, set: TableSet, fact: CardFact) {
        self.observe(signature.into(), Some(set), fact);
    }

    fn observe(&self, sig: String, set: Option<TableSet>, fact: CardFact) {
        let mut map = self.overlay.write();
        let (prev, prev_set) = match map.get(&sig) {
            Some(o) => (Some(o.fact), o.set),
            None => (self.base.as_ref().and_then(|b| b.get(&sig)), None),
        };
        let fact = match prev {
            Some(prev) => prev.merge(fact),
            None => fact,
        };
        let set = set.or(prev_set);
        map.insert(sig, Observed { fact, set });
    }

    /// Look up the fact for a signature: the overlay wins, the base seeds.
    pub fn get(&self, signature: &str) -> Option<CardFact> {
        if let Some(o) = self.overlay.read().get(signature) {
            self.overlay_hits.fetch_add(1, Ordering::Relaxed);
            return Some(o.fact);
        }
        if let Some(fact) = self.base.as_ref().and_then(|b| b.get(signature)) {
            self.base_hits.fetch_add(1, Ordering::Relaxed);
            return Some(fact);
        }
        None
    }

    /// [`FeedbackCache::get`] for every signature of a set at once, under
    /// one read lock of each layer, with hits counted as `get` counts
    /// them; returns the facts found by key, in no particular order. The
    /// set comes three ways — `each` lists its `len` `(key, signature)`
    /// pairs, `key_of` finds a signature's key, `key_at` the key of a
    /// recorded table set if that set has the given signature — so each
    /// layer walks whichever of itself and the set is smaller: with few
    /// facts recorded the cost follows the facts, not the signatures, and
    /// a fact recorded with its table set ([`FeedbackCache::record_at`])
    /// costs one `key_at`. `each`, `key_of` and `key_at` must not touch
    /// this cache.
    pub(crate) fn get_all<'s, K, I>(
        &self,
        len: usize,
        each: impl Fn() -> I,
        key_of: impl Fn(&str) -> Option<K>,
        key_at: impl Fn(TableSet, &str) -> Option<K>,
    ) -> Vec<(K, CardFact)>
    where
        I: Iterator<Item = (K, &'s str)>,
    {
        let overlay = self.overlay.read();
        let mut found = Vec::new();
        if overlay.len() <= len {
            for (sig, o) in overlay.iter() {
                let key = o
                    .set
                    .and_then(|set| key_at(set, sig))
                    .or_else(|| key_of(sig));
                if let Some(key) = key {
                    found.push((key, o.fact));
                }
            }
        } else {
            for (key, sig) in each() {
                if let Some(o) = overlay.get(sig) {
                    found.push((key, o.fact));
                }
            }
        }
        let overlay_hits = found.len();
        if let Some(base) = &self.base {
            // The overlay wins: a base fact the overlay shadows is no hit.
            let base = base.inner.read();
            let mut hit = |key, sig: &str, fact: CardFact| {
                if !overlay.contains_key(sig) {
                    found.push((key, fact));
                }
            };
            if base.len() <= len {
                for (sig, fact) in base.iter() {
                    if let Some(key) = key_of(sig) {
                        hit(key, sig, *fact);
                    }
                }
            } else {
                for (key, sig) in each() {
                    if let Some(fact) = base.get(sig) {
                        hit(key, sig, *fact);
                    }
                }
            }
        }
        self.overlay_hits
            .fetch_add(overlay_hits as u64, Ordering::Relaxed);
        self.base_hits
            .fetch_add((found.len() - overlay_hits) as u64, Ordering::Relaxed);
        found
    }

    /// Number of distinct signatures visible (overlay plus base-only).
    pub fn len(&self) -> usize {
        let overlay = self.overlay.read();
        let base_only = self.base.as_ref().map_or(0, |b| {
            b.inner
                .read()
                .keys()
                .filter(|k| !overlay.contains_key(*k))
                .count()
        });
        overlay.len() + base_only
    }

    /// Is the cache empty (no overlay facts and no base facts)?
    pub fn is_empty(&self) -> bool {
        self.overlay.read().is_empty() && self.base.as_ref().is_none_or(FeedbackStore::is_empty)
    }

    /// Drop all overlay facts (end of query). The base is untouched.
    pub fn clear(&self) {
        self.overlay.write().clear();
    }

    /// Publish every overlay fact into the base store (no-op without a
    /// base). Called by the driver when a query completes successfully and
    /// cross-query learning is enabled — never for abandoned runs.
    pub fn publish(&self) {
        let Some(base) = &self.base else {
            return;
        };
        for (sig, o) in self.overlay.read().iter() {
            base.record(sig.clone(), o.fact);
        }
    }

    /// How many lookups were answered by the overlay / the base so far.
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

    #[test]
    fn record_and_get() {
        let fb = FeedbackCache::new();
        assert!(fb.is_empty());
        fb.record("s1", CardFact::Exact(100.0));
        assert_eq!(fb.get("s1"), Some(CardFact::Exact(100.0)));
        assert_eq!(fb.get("s2"), None);
        assert_eq!(fb.len(), 1);
        fb.clear();
        assert!(fb.is_empty());
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
        let fb = FeedbackCache::new();
        fb.record("s", CardFact::AtLeast(10.0));
        fb.record("s", CardFact::AtLeast(30.0));
        assert_eq!(fb.get("s"), Some(CardFact::AtLeast(30.0)));
        fb.record("s", CardFact::Exact(50.0));
        assert_eq!(fb.get("s"), Some(CardFact::Exact(50.0)));
    }

    #[test]
    fn base_seeds_and_overlay_wins() {
        let base = FeedbackStore::default();
        base.record("s", CardFact::Exact(100.0));
        let fb = FeedbackCache::with_base(base.clone());
        assert!(!fb.is_empty());
        assert_eq!(fb.len(), 1);
        // Base seeds the lookup...
        assert_eq!(fb.get("s"), Some(CardFact::Exact(100.0)));
        // ...the overlay strengthens locally without touching the base...
        fb.record("s", CardFact::AtLeast(250.0));
        assert_eq!(fb.get("s"), Some(CardFact::AtLeast(250.0)));
        assert_eq!(base.get("s"), Some(CardFact::Exact(100.0)));
        // ...until published.
        fb.publish();
        assert_eq!(base.get("s"), Some(CardFact::AtLeast(250.0)));
        let (overlay_hits, base_hits) = fb.hit_counts();
        assert_eq!((overlay_hits, base_hits), (1, 1));
    }

    /// `get_all` finds what `get` finds for each signature, and counts the
    /// same hits, whichever side of each layer it walks.
    #[test]
    fn get_all_matches_get() {
        let base = FeedbackStore::default();
        for i in 0..6 {
            base.record(format!("s{i}"), CardFact::Exact(100.0 + f64::from(i)));
        }
        let fb = FeedbackCache::with_base(base);
        fb.record("s1", CardFact::AtLeast(500.0));
        fb.record("s7", CardFact::Exact(7.0));
        fb.record("other", CardFact::Exact(1.0));
        // Four signatures: more than the overlay's three facts, fewer than
        // the base's six, so the overlay is walked and the base probed.
        // Twelve: both layers are walked.
        let few = ["s1", "s3", "s7", "s9"].map(String::from).to_vec();
        let many = (0..12).map(|i| format!("s{i}")).collect();
        for sigs in [few, many] {
            let before = fb.hit_counts();
            let expected: Vec<(usize, CardFact)> = sigs
                .iter()
                .enumerate()
                .filter_map(|(k, sig)| fb.get(sig).map(|f| (k, f)))
                .collect();
            let after_get = fb.hit_counts();
            let mut got = fb.get_all(
                sigs.len(),
                || sigs.iter().map(String::as_str).enumerate(),
                |sig| sigs.iter().position(|s| s == sig),
                |_, _| unreachable!("no fact was recorded with its set"),
            );
            got.sort_by_key(|&(k, _)| k);
            assert_eq!(got, expected);
            let after_all = fb.hit_counts();
            assert_eq!(
                (after_all.0 - after_get.0, after_all.1 - after_get.1),
                (after_get.0 - before.0, after_get.1 - before.1)
            );
        }
    }

    /// A fact recorded with its table set is found through that set when
    /// the set signs as recorded, without looking its signature up, and
    /// through its signature when it does not; merging keeps the set.
    #[test]
    fn a_fact_recorded_at_its_set_resolves_by_the_set() {
        let fb = FeedbackCache::new();
        let set = TableSet::from_iter([0, 2]);
        fb.record_at("s02", set, CardFact::AtLeast(5.0));
        fb.record("s02", CardFact::Exact(9.0));
        fb.record_at("s1", TableSet::single(1), CardFact::Exact(1.0));
        let sigs = ["s02", "s1"];
        let by_set = |s: TableSet, sig: &str| (s == set && sig == "s02").then_some(s.mask());
        let mut got = fb.get_all(
            sigs.len(),
            std::iter::empty,
            |sig| (sig == "s1").then_some(99),
            by_set,
        );
        got.sort_by_key(|&(k, _)| k);
        assert_eq!(
            got,
            [
                (set.mask(), CardFact::Exact(9.0)),
                (99, CardFact::Exact(1.0))
            ]
        );
        assert_eq!(fb.hit_counts(), (2, 0));
    }

    #[test]
    fn clear_leaves_base_untouched() {
        let base = FeedbackStore::default();
        base.record("kept", CardFact::Exact(5.0));
        let fb = FeedbackCache::with_base(base.clone());
        fb.record("dropped", CardFact::Exact(7.0));
        fb.clear();
        assert_eq!(fb.get("kept"), Some(CardFact::Exact(5.0)));
        assert_eq!(fb.get("dropped"), None);
        assert_eq!(base.len(), 1);
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
