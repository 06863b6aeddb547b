//! The buffer pool: a clock-eviction page cache shared by every paged
//! table of a catalog.
//!
//! Resident frames are charged against the query's [`Governor`]
//! resident-byte ledger, so pinned pages and exec memory (hash builds,
//! sorts, temp buffers) draw from one `max_resident_bytes` budget: the
//! pool reserves a frame's bytes when it loads a page and releases them
//! when the clock evicts it. When a reservation would cross the budget,
//! the pool first tries to evict its own frames; only if nothing can be
//! freed does the typed budget error propagate to the scan that needed
//! the page.
//!
//! A miss evicts before it loads: when no reader still holds the victim's
//! bytes, the page that replaces it is read into the victim's allocation
//! (its `Arc` and its page buffer), so a miss in a full pool allocates
//! nothing and zero-fills nothing.

use parking_lot::Mutex;
use pop_guard::Governor;
use pop_types::hash::MixHasher;
use pop_types::PopResult;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative I/O counters for one storage environment (all atomics, so
/// every backend and the pool share one instance).
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Physical page reads from disk.
    pub pages_read: AtomicU64,
    /// Physical page writes to disk.
    pub pages_written: AtomicU64,
    /// Buffer-pool lookups satisfied by a resident frame.
    pub pool_hits: AtomicU64,
    /// Buffer-pool lookups that had to load the page.
    pub pool_misses: AtomicU64,
    /// Frames evicted by the clock hand.
    pub evictions: AtomicU64,
    /// WAL records appended.
    pub wal_records: AtomicU64,
    /// WAL bytes appended.
    pub wal_bytes: AtomicU64,
    /// WAL records replayed during recovery.
    pub wal_replayed: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Physical page reads from disk.
    pub pages_read: u64,
    /// Physical page writes to disk.
    pub pages_written: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Clock evictions.
    pub evictions: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL records replayed during recovery.
    pub wal_replayed: u64,
}

impl IoCounters {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
        }
    }
}

impl IoStats {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            wal_records: self.wal_records.saturating_sub(earlier.wal_records),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            wal_replayed: self.wal_replayed.saturating_sub(earlier.wal_replayed),
        }
    }
}

/// Frame identity: `(backend file id, page id)`.
pub type PageKey = (u64, u64);

#[derive(Debug)]
struct Frame {
    key: PageKey,
    data: Arc<Vec<u8>>,
    referenced: bool,
}

#[derive(Debug, Default)]
struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<PageKey, usize, BuildHasherDefault<MixHasher>>,
    hand: usize,
    /// The query's governor handle, attached for the duration of a run.
    gov: Option<Governor>,
}

/// Clock-eviction page cache. Capacity is expressed in bytes and rounded
/// down to whole frames (at least one).
#[derive(Debug)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    page_size: usize,
    max_frames: usize,
    io: Arc<IoCounters>,
}

impl BufferPool {
    /// A pool of `capacity_bytes / page_size` frames (minimum 1).
    pub fn new(capacity_bytes: u64, page_size: usize, io: Arc<IoCounters>) -> Self {
        let max_frames = ((capacity_bytes / page_size as u64).max(1)) as usize;
        BufferPool {
            inner: Mutex::new(PoolInner::default()),
            page_size,
            max_frames,
            io,
        }
    }

    /// Frame capacity.
    pub fn max_frames(&self) -> usize {
        self.max_frames
    }

    /// Frames currently resident.
    pub fn resident_frames(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Attach the running query's governor: resident frames are reserved
    /// against its ledger immediately, and subsequent loads/evictions keep
    /// the ledger in sync. Fails when the current residency already
    /// exceeds the budget (after evicting as much as possible).
    pub fn attach_governor(&self, gov: Governor) -> PopResult<()> {
        let mut inner = self.inner.lock();
        let mut gov = gov;
        let mut resident = inner.frames.len();
        loop {
            match gov.reserve(resident as u64 * self.page_size as u64) {
                Ok(()) => break,
                Err(e) => {
                    gov.release(resident as u64 * self.page_size as u64);
                    if resident == 0 {
                        return Err(e);
                    }
                    // Shed frames until the pool fits the budget.
                    Self::evict_one(&mut inner, &self.io, self.page_size);
                    resident = inner.frames.len();
                }
            }
        }
        inner.gov = Some(gov);
        Ok(())
    }

    /// Detach the governor, releasing every resident frame's reservation.
    pub fn detach_governor(&self) {
        let mut inner = self.inner.lock();
        let resident = inner.frames.len() as u64 * self.page_size as u64;
        if let Some(mut gov) = inner.gov.take() {
            gov.release(resident);
        }
    }

    /// Fetch page `key`, loading it on a miss with `load`, which fills
    /// the buffer it is handed with the page. When the pool is full the
    /// clock evicts first, and a victim whose bytes no reader holds hands
    /// its buffer (page-sized, not zeroed) to `load`; otherwise the buffer
    /// is a new, empty one. The returned bytes stay valid even if the
    /// frame is evicted afterwards.
    pub fn get(
        &self,
        key: PageKey,
        load: impl FnOnce(&mut Vec<u8>) -> PopResult<()>,
    ) -> PopResult<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.map.get(&key) {
            self.io.pool_hits.fetch_add(1, Ordering::Relaxed);
            inner.frames[idx].referenced = true;
            return Ok(Arc::clone(&inner.frames[idx].data));
        }
        self.io.pool_misses.fetch_add(1, Ordering::Relaxed);
        let mut victim = None;
        while inner.frames.len() >= self.max_frames {
            victim = Self::evict_one(&mut inner, &self.io, self.page_size);
        }
        let mut data = victim.unwrap_or_default();
        if Arc::get_mut(&mut data).is_none() {
            // A reader still holds the victim's bytes: they stay its.
            data = Arc::default();
        }
        load(Arc::get_mut(&mut data).expect("a frame no reader holds"))?;
        // Charge the new frame to the governor; shed other frames first
        // if the reservation would cross the resident-byte budget.
        if inner.gov.is_some() {
            loop {
                let r = inner.gov.as_mut().unwrap().reserve(self.page_size as u64);
                match r {
                    Ok(()) => break,
                    Err(e) => {
                        inner.gov.as_mut().unwrap().release(self.page_size as u64);
                        if inner.frames.is_empty() {
                            return Err(e);
                        }
                        Self::evict_one(&mut inner, &self.io, self.page_size);
                    }
                }
            }
        }
        let idx = inner.frames.len();
        inner.frames.push(Frame {
            key,
            data: Arc::clone(&data),
            referenced: true,
        });
        inner.map.insert(key, idx);
        Ok(data)
    }

    /// Drop a (possibly) resident page after its backing bytes changed.
    pub fn invalidate(&self, key: PageKey) {
        let mut inner = self.inner.lock();
        if let Some(idx) = inner.map.remove(&key) {
            Self::remove_frame(&mut inner, idx, self.page_size);
        }
    }

    /// Drop every resident frame of `file_id` (table dropped / reloaded):
    /// one `retain` over the map, then each frame swap-removed from the
    /// highest index down, so every frame that moves into a hole is one
    /// that stays.
    pub fn invalidate_file(&self, file_id: u64) {
        let mut inner = self.inner.lock();
        let mut gone = Vec::new();
        inner.map.retain(|&(f, _), &mut idx| {
            if f == file_id {
                gone.push(idx);
            }
            f != file_id
        });
        gone.sort_unstable();
        for idx in gone.into_iter().rev() {
            Self::remove_frame(&mut inner, idx, self.page_size);
        }
    }

    /// Evict everything (cold-cache benchmarking).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        while !inner.frames.is_empty() {
            let idx = inner.frames.len() - 1;
            let key = inner.frames[idx].key;
            inner.map.remove(&key);
            Self::remove_frame(&mut inner, idx, self.page_size);
        }
    }

    /// Advance the clock hand to a victim and remove it, returning its
    /// bytes (`None` when the pool is empty).
    fn evict_one(inner: &mut PoolInner, io: &IoCounters, page_size: usize) -> Option<Arc<Vec<u8>>> {
        if inner.frames.is_empty() {
            return None;
        }
        loop {
            let hand = inner.hand % inner.frames.len();
            if inner.frames[hand].referenced {
                inner.frames[hand].referenced = false;
                inner.hand = hand + 1;
            } else {
                let key = inner.frames[hand].key;
                inner.map.remove(&key);
                io.evictions.fetch_add(1, Ordering::Relaxed);
                return Some(Self::remove_frame(inner, hand, page_size));
            }
        }
    }

    /// Swap-remove frame `idx` (its map entry already gone), fixing the
    /// displaced frame's map entry and releasing the governor reservation;
    /// returns the frame's bytes.
    fn remove_frame(inner: &mut PoolInner, idx: usize, page_size: usize) -> Arc<Vec<u8>> {
        let frame = inner.frames.swap_remove(idx);
        if idx < inner.frames.len() {
            let moved_key = inner.frames[idx].key;
            inner.map.insert(moved_key, idx);
        }
        if let Some(gov) = inner.gov.as_mut() {
            gov.release(page_size as u64);
        }
        frame.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_guard::Budget;

    fn pool(frames: u64) -> (BufferPool, Arc<IoCounters>) {
        let io = Arc::new(IoCounters::default());
        (BufferPool::new(frames * 64, 64, Arc::clone(&io)), io)
    }

    /// A loader that fills the frame with 64 bytes of `b`.
    fn fill(b: u8) -> impl FnOnce(&mut Vec<u8>) -> PopResult<()> {
        move |buf| {
            buf.clear();
            buf.resize(64, b);
            Ok(())
        }
    }

    #[test]
    fn hit_after_load() {
        let (p, io) = pool(4);
        let a = p.get((0, 1), fill(1u8)).unwrap();
        let b = p.get((0, 1), |_| panic!("must not reload")).unwrap();
        assert_eq!(a, b);
        let s = io.snapshot();
        assert_eq!((s.pool_hits, s.pool_misses), (1, 1));
    }

    #[test]
    fn clock_evicts_at_capacity() {
        let (p, io) = pool(2);
        for pid in 0..4u64 {
            p.get((0, pid), fill(pid as u8)).unwrap();
        }
        assert_eq!(p.resident_frames(), 2);
        assert_eq!(io.snapshot().evictions, 2);
        // Evicted pages reload (a miss, not a hit).
        p.get((0, 0), fill(0u8)).unwrap();
        assert_eq!(io.snapshot().pool_misses, 5);
    }

    /// A miss in a full pool whose victim no reader holds reads the new
    /// page into the victim's allocation: same buffer, not zeroed.
    #[test]
    fn a_miss_at_capacity_reuses_the_victims_buffer() {
        let (p, io) = pool(1);
        let first = p.get((0, 0), fill(1)).unwrap().as_ptr();
        let second = p
            .get((0, 1), |buf| {
                assert_eq!(
                    (buf.as_ptr(), buf.len()),
                    (first, 64),
                    "the victim's buffer"
                );
                assert!(buf.iter().all(|b| *b == 1), "handed over as it was");
                buf.fill(2);
                Ok(())
            })
            .unwrap();
        assert_eq!(second.as_ptr(), first);
        assert_eq!(*second, vec![2u8; 64]);
        assert_eq!(io.snapshot().evictions, 1);
    }

    /// A reader that still holds an evicted frame's bytes keeps them: the
    /// misses after the eviction load into buffers of their own.
    #[test]
    fn a_held_frame_keeps_its_bytes_after_eviction() {
        let (p, io) = pool(2);
        let held = p.get((0, 0), fill(7)).unwrap();
        for pid in 1..6u64 {
            p.get((0, pid), fill(pid as u8)).unwrap();
        }
        assert!(io.snapshot().evictions >= 4);
        assert_eq!(*held, vec![7u8; 64]);
        let again = p.get((0, 0), fill(9)).unwrap();
        assert_eq!(*again, vec![9u8; 64], "page 0 was evicted and reloaded");
        assert_ne!(again.as_ptr(), held.as_ptr());
        assert_eq!(*held, vec![7u8; 64]);
    }

    #[test]
    fn governor_bounds_resident_pages() {
        let (p, _io) = pool(100);
        let gov = Governor::new(
            Budget {
                max_resident_bytes: Some(3 * 64),
                ..Budget::default()
            },
            None,
        );
        p.attach_governor(gov.clone_shared()).unwrap();
        for pid in 0..10u64 {
            p.get((0, pid), fill(0u8)).unwrap();
        }
        // The pool held itself to the byte budget by self-evicting. (The
        // peak can overshoot by one transient failed reservation.)
        assert!(p.resident_frames() <= 3, "{}", p.resident_frames());
        p.detach_governor();
        assert!(gov.peak_resident_bytes() >= 3 * 64);
        assert!(gov.peak_resident_bytes() <= 4 * 64);
    }

    #[test]
    fn governor_budget_shared_with_exec_reservations() {
        let (p, _io) = pool(100);
        let mut gov = Governor::new(
            Budget {
                max_resident_bytes: Some(10 * 64),
                ..Budget::default()
            },
            None,
        );
        // Exec state holds most of the budget; pages squeeze into the rest.
        gov.reserve(8 * 64).unwrap();
        p.attach_governor(gov.clone_shared()).unwrap();
        for pid in 0..6u64 {
            p.get((0, pid), fill(0u8)).unwrap();
        }
        assert!(p.resident_frames() <= 2, "{}", p.resident_frames());
        p.detach_governor();
        gov.release(8 * 64);
    }

    #[test]
    fn invalidate_file_sheds_only_that_file() {
        let (p, _io) = pool(8);
        p.get((1, 0), fill(0u8)).unwrap();
        p.get((1, 1), fill(0u8)).unwrap();
        p.get((2, 0), fill(0u8)).unwrap();
        p.invalidate_file(1);
        assert_eq!(p.resident_frames(), 1);
        p.get((2, 0), |_| panic!("the other file's frame stays"))
            .unwrap();
        p.invalidate((2, 0));
        assert_eq!(p.resident_frames(), 0);
    }
}
