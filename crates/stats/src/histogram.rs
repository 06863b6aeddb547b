//! Equi-depth histograms over numeric columns.

/// An equi-depth (equi-height) histogram: every bucket holds roughly the
/// same number of values, so bucket boundaries adapt to skew.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    /// Bucket boundaries: `bounds[i]..=bounds[i+1]` is bucket `i`.
    bounds: Vec<f64>,
    /// Rows per bucket (equal up to rounding).
    depth: Vec<u64>,
    /// Total rows covered.
    total: u64,
}

impl EquiDepthHistogram {
    /// Build from an unsorted sample of non-null numeric values.
    ///
    /// Returns `None` if the sample is empty.
    pub fn build(mut values: Vec<f64>, buckets: usize) -> Option<Self> {
        // Values `total_cmp` calls equal have one bit pattern, so the
        // unstable sort's order is the stable sort's.
        values.sort_unstable_by(f64::total_cmp);
        Self::from_sorted(&values, buckets)
    }

    /// [`EquiDepthHistogram::build`] from values already sorted by
    /// `f64::total_cmp`.
    pub fn from_sorted(values: &[f64], buckets: usize) -> Option<Self> {
        Self::from_ranks(values.len(), buckets, |r| values[r])
    }

    /// [`EquiDepthHistogram::from_sorted`] of `n` sorted values read by
    /// rank: `at(r)` is the value at rank `r`. It reads one value per
    /// bucket bound, so a column sorted as keys needs no `f64` copy.
    pub fn from_ranks(n: usize, buckets: usize, at: impl Fn(usize) -> f64) -> Option<Self> {
        if n == 0 || buckets == 0 {
            return None;
        }
        let b = buckets.min(n);
        let mut bounds = Vec::with_capacity(b + 1);
        let mut depth = Vec::with_capacity(b);
        bounds.push(at(0));
        let mut start = 0usize;
        for i in 0..b {
            // Rounded-even split of n into b buckets.
            let end = ((i + 1) * n) / b;
            let end = end.max(start + 1).min(n);
            bounds.push(at(end - 1));
            depth.push((end - start) as u64);
            start = end;
        }
        Some(EquiDepthHistogram {
            bounds,
            depth,
            total: n as u64,
        })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.depth.len()
    }

    /// Total rows summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Minimum value seen.
    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    /// Maximum value seen.
    pub fn max(&self) -> f64 {
        *self.bounds.last().unwrap()
    }

    /// Estimated fraction of values `<= v` (in `[0, 1]`).
    pub fn frac_le(&self, v: f64) -> f64 {
        if v < self.min() {
            return 0.0;
        }
        if v >= self.max() {
            return 1.0;
        }
        let mut cum = 0u64;
        for i in 0..self.depth.len() {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            if v < hi {
                // Linear interpolation within the bucket.
                let width = hi - lo;
                let frac_in = if width <= 0.0 {
                    1.0
                } else {
                    ((v - lo) / width).clamp(0.0, 1.0)
                };
                return (cum as f64 + frac_in * self.depth[i] as f64) / self.total as f64;
            }
            cum += self.depth[i];
        }
        1.0
    }

    /// Estimated fraction of values in `[lo, hi]` (inclusive, either bound
    /// optional).
    pub fn frac_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let hi_frac = hi.map_or(1.0, |h| self.frac_le(h));
        let lo_frac = match lo {
            None => 0.0,
            // Exclusive of values strictly below lo: approximate with
            // frac_le just under lo.
            Some(l) => {
                if l <= self.min() {
                    0.0
                } else {
                    self.frac_le(l)
                }
            }
        };
        (hi_frac - lo_frac).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_values() {
        let vals: Vec<f64> = (1..=100).map(f64::from).collect();
        let h = EquiDepthHistogram::build(vals, 10).unwrap();
        assert_eq!(h.buckets(), 10);
        assert_eq!(h.total(), 100);
        assert!((h.frac_le(50.0) - 0.5).abs() < 0.06);
        assert_eq!(h.frac_le(0.0), 0.0);
        assert_eq!(h.frac_le(100.0), 1.0);
        assert_eq!(h.frac_le(1000.0), 1.0);
    }

    #[test]
    fn skewed_values_adapt() {
        // 90 copies of 1, then 2..=11: equi-depth puts many buckets on 1.
        let mut vals = vec![1.0; 90];
        vals.extend((2..=11).map(f64::from));
        let h = EquiDepthHistogram::build(vals, 10).unwrap();
        assert!(h.frac_le(1.0) > 0.85);
        assert!((h.frac_range(Some(2.0), Some(11.0)) - 0.1).abs() < 0.12);
    }

    #[test]
    fn range_estimates() {
        let vals: Vec<f64> = (1..=100).map(f64::from).collect();
        let h = EquiDepthHistogram::build(vals, 10).unwrap();
        let f = h.frac_range(Some(25.0), Some(75.0));
        assert!((f - 0.5).abs() < 0.1, "got {f}");
        assert!((h.frac_range(None, None) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_returns_none() {
        assert!(EquiDepthHistogram::build(vec![], 10).is_none());
        assert!(EquiDepthHistogram::build(vec![1.0], 0).is_none());
    }

    #[test]
    fn single_value() {
        let h = EquiDepthHistogram::build(vec![5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.frac_le(5.0), 1.0);
        assert_eq!(h.frac_le(4.9), 0.0);
    }

    #[test]
    fn more_buckets_than_values() {
        let h = EquiDepthHistogram::build(vec![1.0, 2.0], 10).unwrap();
        assert_eq!(h.buckets(), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn monotone_frac_le() {
        let vals: Vec<f64> = (0..50).map(|i| f64::from((i * 37) % 100)).collect();
        let h = EquiDepthHistogram::build(vals, 8).unwrap();
        let mut prev = -1.0;
        for v in 0..110 {
            let f = h.frac_le(f64::from(v));
            assert!(f >= prev - 1e-12, "frac_le not monotone at {v}");
            prev = f;
        }
    }
}
