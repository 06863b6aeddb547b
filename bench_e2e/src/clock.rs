//! Timing at reference memory speed, and the order statistics the
//! metrics are made of.
//!
//! The sandbox this benchmark runs in shares its last-level cache and
//! memory bus with other tenants: the same pass over the same data swings
//! between 1x and 2x wall time for seconds at a stretch, while a
//! register-only loop does not move at all. The engine's row-of-`Value`
//! hot path is memory-latency bound, so every timed call is bracketed by a
//! fixed random-access probe over a buffer larger than the cache, and its
//! wall time is scaled by `REF_PROBE_MS / probe time`. The raw wall time
//! is kept beside it; both are reported.

use std::time::Instant;

/// Probe time on this box when nothing else contends for memory. A
/// constant, not a per-run measurement: a run that falls entirely inside
/// a slow spell must still be corrected.
pub const REF_PROBE_MS: f64 = 2.5;

const PROBE_WORDS: usize = 4 << 20; // 32 MiB of u64, beyond the shared cache
const PROBE_TOUCHES: u32 = 200_000;

/// One timed call: raw wall milliseconds, and the mean of the probes
/// taken right before and after it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub raw_ms: f64,
    pub probe_ms: f64,
}

impl Timing {
    /// Factor from wall time to time at reference memory speed.
    pub fn speed(&self) -> f64 {
        REF_PROBE_MS / self.probe_ms
    }

    /// Milliseconds at reference memory speed.
    pub fn ms(&self) -> f64 {
        self.raw_ms * self.speed()
    }
}

/// The memory-speed probe and the stopwatch built on it.
#[derive(Debug)]
pub struct Clock {
    buf: Vec<u64>,
    state: u64,
    /// Every probe taken, in milliseconds (reported in the run record).
    pub probes_ms: Vec<f64>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            buf: vec![1; PROBE_WORDS],
            state: 0x2545_F491_4F6C_DD1D,
            probes_ms: Vec::new(),
        }
    }
}

impl Clock {
    /// Time of `PROBE_TOUCHES` pseudo-random read-modify-writes.
    pub fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        for _ in 0..PROBE_TOUCHES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[x as usize % PROBE_WORDS];
            *slot = slot.wrapping_add(x);
        }
        self.state = std::hint::black_box(x);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.probes_ms.push(ms);
        ms
    }

    /// Run `f` between two probes. `before` is the probe that ended the
    /// previous timed call when nothing ran in between (`None` probes
    /// afresh); the closing probe is returned for the next call to reuse.
    pub fn time<T>(&mut self, before: Option<f64>, f: impl FnOnce() -> T) -> (T, Timing, f64) {
        let before = before.unwrap_or_else(|| self.probe());
        let start = Instant::now();
        let value = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.probe();
        let probe_ms = (before + after) / 2.0;
        (value, Timing { raw_ms, probe_ms }, after)
    }
}

/// Monotonic nanoseconds since the first call (span timestamps).
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the sample at or below it.
pub fn percentile_nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `a / b`, or 0 when there was nothing to divide by.
pub fn share(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Average ranks (ties share the mean of their positions).
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        for &k in &order[i..=j] {
            out[k] = (i + j) as f64 / 2.0 + 1.0;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of two equally long samples (0 when either
/// is constant).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let var = |r: &[f64], m: f64| r.iter().map(|x| (x - m).powi(2)).sum::<f64>();
    let denom = (var(&ra, ma) * var(&rb, mb)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        cov / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&v, 90.0), 4.0);
        assert_eq!(percentile_nearest_rank(&v, 50.0), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_sees_order_not_scale() {
        assert!((spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 10.0, 100.0, 1e6]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn scaled_time_follows_the_probe() {
        let mut clock = Clock::default();
        let ((), t, after) = clock.time(Some(4.0), || ());
        assert_eq!(t.probe_ms, (4.0 + after) / 2.0);
        assert!((t.ms() - t.raw_ms * REF_PROBE_MS / t.probe_ms).abs() < 1e-12);
        assert_eq!(clock.probes_ms, vec![after]);
    }
}
