//! Morsel scheduling for parallel regions: the shared work queue that
//! workers claim batch-sized input slices from, plus the per-region
//! diagnostics that make parallel slowdowns diagnosable from a
//! [`RunReport`](../../pop_core) alone.
//!
//! A parallel region decomposes its driving scan into `M` **morsels** —
//! contiguous row ranges of roughly [`ExecCtx::morsel_size`] rows — on a
//! [`MorselQueue`]. Each worker owns a contiguous *home span* of the
//! morsel index space and claims from it front-to-back; when its span is
//! exhausted it **steals** from the other spans in round-robin order.
//! Determinism does not depend on who runs which morsel: a morsel's
//! identity (its index) fully determines its row range, and the region
//! controller merges task outputs by morsel index, reproducing the
//! serial row order no matter how claims interleaved.
//!
//! [`ExecCtx::morsel_size`]: crate::ExecCtx::morsel_size

use crate::RowBatch;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default rows per morsel (the `POP_MORSEL_SIZE` knob and
/// [`ExecCtx::morsel_size`] override it per run). Large enough that
/// per-morsel chain construction amortizes to noise; small enough that a
/// few hundred thousand input rows still yield meaningful parallelism.
///
/// [`ExecCtx::morsel_size`]: crate::ExecCtx::morsel_size
pub const DEFAULT_MORSEL_SIZE: usize = 16_384;

/// Cap on recycled batches a [`BatchPool`] retains.
const POOL_CAP: usize = 16;

/// Per-worker diagnostics for one parallel region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerDiag {
    /// Tasks this worker ran: morsels, or 1 for an exchange consumer.
    pub morsels: u64,
    /// How many of those were claimed outside the worker's home span.
    pub steals: u64,
    /// Wall-clock nanoseconds spent blocked on exchange queues.
    pub queue_wait_ns: u64,
    /// Wall-clock nanoseconds spent computing (task time minus queue wait).
    pub compute_ns: u64,
}

/// Diagnostics for one executed parallel region, collected by the region
/// controller and surfaced per step in the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDiag {
    /// Planned degree of parallelism (the `Gather` node's `parts`).
    pub dop: usize,
    /// Morsel count of the partitioned stage.
    pub morsels: usize,
    /// One entry per worker thread: partitioned-stage workers first,
    /// then exchange consumers (if the region repartitions).
    pub workers: Vec<WorkerDiag>,
}

impl RegionDiag {
    /// Total steals across workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// One-line rendering for report summaries.
    pub fn summary(&self) -> String {
        let wait: u64 = self.workers.iter().map(|w| w.queue_wait_ns).sum();
        let compute: u64 = self.workers.iter().map(|w| w.compute_ns).sum();
        let per_worker: Vec<String> = self
            .workers
            .iter()
            .map(|w| format!("{}m/{}s", w.morsels, w.steals))
            .collect();
        format!(
            "dop={} morsels={} workers=[{}] wait={:.1}ms compute={:.1}ms",
            self.dop,
            self.morsels,
            per_worker.join(" "),
            wait as f64 / 1e6,
            compute as f64 / 1e6,
        )
    }
}

/// The shared morsel queue of one region stage: `total` morsel indices
/// split into one contiguous home span per worker, each claimed
/// front-to-back by an atomic cursor. Claiming never blocks; a worker
/// that finds every span exhausted is done.
pub(crate) struct MorselQueue {
    cursors: Vec<AtomicUsize>,
    bounds: Vec<(usize, usize)>,
}

impl MorselQueue {
    pub(crate) fn new(total: usize, workers: usize) -> Self {
        let w = workers.max(1);
        let bounds: Vec<(usize, usize)> = (0..w)
            .map(|i| (i * total / w, (i + 1) * total / w))
            .collect();
        MorselQueue {
            cursors: bounds.iter().map(|(lo, _)| AtomicUsize::new(*lo)).collect(),
            bounds,
        }
    }

    /// Claim the next morsel for `worker`: its own span first, then the
    /// peers' spans in round-robin order. Returns `(morsel, stolen)`.
    pub(crate) fn claim(&self, worker: usize) -> Option<(usize, bool)> {
        let w = self.bounds.len();
        for i in 0..w {
            let victim = (worker + i) % w;
            let (_, end) = self.bounds[victim];
            let m = self.cursors[victim].fetch_add(1, Ordering::Relaxed);
            if m < end {
                return Some((m, i != 0));
            }
        }
        None
    }
}

/// A tiny free-list of [`RowBatch`] buffers for the exchange routing
/// path: routed-out input batches are reset (keeping their allocations)
/// and handed back out as bucket batches, so steady-state routing
/// allocates nothing per batch.
#[derive(Default)]
pub(crate) struct BatchPool {
    free: Vec<RowBatch>,
}

impl BatchPool {
    pub(crate) fn get(&mut self) -> RowBatch {
        self.free.pop().unwrap_or_default()
    }

    pub(crate) fn put(&mut self, mut b: RowBatch) {
        if self.free.len() < POOL_CAP {
            b.reset();
            self.free.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{Rid, Value};

    #[test]
    fn claim_covers_every_morsel_exactly_once() {
        for (total, workers) in [(10, 3), (1, 4), (8, 8), (7, 2), (5, 1)] {
            let q = MorselQueue::new(total, workers);
            let mut seen = vec![0usize; total];
            for w in 0..workers {
                while let Some((m, _)) = q.claim(w) {
                    seen[m] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{total}/{workers}: {seen:?}");
        }
    }

    #[test]
    fn exhausted_home_span_steals() {
        let q = MorselQueue::new(4, 2);
        // Worker 0 drains its span [0,2), then steals from worker 1's.
        assert_eq!(q.claim(0), Some((0, false)));
        assert_eq!(q.claim(0), Some((1, false)));
        assert_eq!(q.claim(0), Some((2, true)));
        assert_eq!(q.claim(0), Some((3, true)));
        assert_eq!(q.claim(0), None);
        assert_eq!(q.claim(1), None);
    }

    #[test]
    fn pool_recycles_reset_batches() {
        let mut pool = BatchPool::default();
        let mut b = RowBatch::new();
        b.push_row(&[Value::Int(1)], &[Rid::new(0, 0)]);
        pool.put(b);
        let b = pool.get();
        assert!(b.is_empty());
        assert!(pool.get().is_empty()); // pool empty: fresh batch
    }
}

/// Hand-rolled concurrency model check for [`MorselQueue`] (loom/miri are
/// unavailable in this toolchain, so the state space is explored by hand).
///
/// `claim` is a chain of single `fetch_add` ticket draws, one per victim
/// span, and each draw is an atomic read-modify-write. Any concurrent
/// execution is therefore equivalent to *some* interleaving of the
/// individual draws, and because a ticket `m < end` is returned exactly
/// when it is drawn, the dispenser can neither duplicate nor lose a
/// morsel regardless of the schedule. The tests below check that claim
/// from two directions:
///
/// * an exhaustive enumeration of every claim-granularity schedule for
///   small `(total, workers)` configurations, replayed on a fresh queue
///   per schedule (the queue has no snapshot/clone, so each path is
///   re-executed from the root), asserting exactly-once coverage, steal
///   flags, and stable exhaustion on every complete schedule;
/// * a real multi-threaded stress run over larger configurations with a
///   start barrier to maximise contention, asserting the same global
///   invariants on the merged claim log.
#[cfg(test)]
mod model_check {
    use super::MorselQueue;
    use std::sync::{Arc, Barrier};

    /// Home span of `worker` under the same split rule the queue uses.
    fn home_span(total: usize, workers: usize, worker: usize) -> (usize, usize) {
        let w = workers.max(1);
        (worker * total / w, (worker + 1) * total / w)
    }

    /// Check the merged claim log of one complete schedule: every morsel
    /// in `0..total` claimed exactly once, and each claim's steal flag
    /// agrees with whether the morsel lies outside the claimer's home
    /// span.
    fn verify_claims(total: usize, workers: usize, claims: &[(usize, usize, bool)]) {
        let mut seen = vec![0usize; total];
        for &(worker, morsel, stolen) in claims {
            assert!(morsel < total, "claimed out-of-range morsel {morsel}");
            seen[morsel] += 1;
            let (lo, hi) = home_span(total, workers, worker);
            let own = morsel >= lo && morsel < hi;
            assert_eq!(
                stolen, !own,
                "worker {worker} claimed morsel {morsel} (home span [{lo},{hi})) \
                 with steal flag {stolen}"
            );
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "coverage not exactly-once for total={total} workers={workers}: {seen:?}"
        );
    }

    /// Replay `path` (a sequence of worker ids, each performing one
    /// `claim`) on a fresh queue; returns the per-step results.
    fn replay(total: usize, workers: usize, path: &[usize]) -> Vec<Option<(usize, bool)>> {
        let q = MorselQueue::new(total, workers);
        path.iter().map(|&w| q.claim(w)).collect()
    }

    /// Depth-first enumeration of all claim-granularity schedules: at each
    /// step any worker that has not yet observed `None` may claim next. A
    /// schedule is complete when every worker has drained to `None`.
    fn enumerate_schedules(
        total: usize,
        workers: usize,
        path: &mut Vec<usize>,
        alive: &mut Vec<bool>,
        schedules: &mut usize,
    ) {
        if alive.iter().all(|&a| !a) {
            let results = replay(total, workers, path);
            let claims: Vec<(usize, usize, bool)> = path
                .iter()
                .zip(&results)
                .filter_map(|(&w, r)| r.map(|(m, s)| (w, m, s)))
                .collect();
            verify_claims(total, workers, &claims);
            *schedules += 1;
            return;
        }
        for w in 0..workers {
            if !alive[w] {
                continue;
            }
            path.push(w);
            let drained = replay(total, workers, path).last().unwrap().is_none();
            if drained {
                alive[w] = false;
            }
            enumerate_schedules(total, workers, path, alive, schedules);
            if drained {
                alive[w] = true;
            }
            path.pop();
        }
    }

    #[test]
    fn morsel_claims_exactly_once_under_every_schedule() {
        // total+workers bounds the schedule length; the largest case here
        // explores 3^8 interior nodes with a <=8-op replay each.
        for (total, workers) in [
            (0, 1),
            (0, 3),
            (1, 2),
            (2, 2),
            (4, 2),
            (2, 3),
            (4, 3),
            (5, 3),
        ] {
            let mut schedules = 0usize;
            enumerate_schedules(
                total,
                workers,
                &mut Vec::new(),
                &mut vec![true; workers],
                &mut schedules,
            );
            assert!(schedules > 0, "no complete schedule for {total}/{workers}");
        }
    }

    #[test]
    fn morsel_exhaustion_is_stable() {
        // Once a worker sees None every later claim (from any worker)
        // stays None: cursors only grow.
        let q = MorselQueue::new(3, 2);
        for w in 0..2 {
            while q.claim(w).is_some() {}
        }
        for _ in 0..4 {
            assert_eq!(q.claim(0), None);
            assert_eq!(q.claim(1), None);
        }
    }

    #[test]
    fn morsel_stress_threads_cover_exactly_once() {
        // Real threads, start-barrier to maximise contention. Includes
        // workers > total (empty home spans) and an indivisible split.
        for (total, workers) in [(64, 4), (7, 3), (3, 8), (101, 5)] {
            for _round in 0..16 {
                let q = Arc::new(MorselQueue::new(total, workers));
                let gate = Arc::new(Barrier::new(workers));
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let q = Arc::clone(&q);
                        let gate = Arc::clone(&gate);
                        std::thread::spawn(move || {
                            gate.wait();
                            let mut log = Vec::new();
                            while let Some((m, stolen)) = q.claim(w) {
                                log.push((w, m, stolen));
                            }
                            log
                        })
                    })
                    .collect();
                let mut claims = Vec::new();
                for h in handles {
                    claims.extend(h.join().expect("worker thread panicked"));
                }
                verify_claims(total, workers, &claims);
            }
        }
    }
}
