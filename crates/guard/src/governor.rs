//! The resource governor: enforces a [`Budget`] plus a [`CancelToken`]
//! at batch boundaries.

use crate::{Budget, CancelToken};
use pop_types::PopError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The shared mutable part of a governor: row and byte counters live
/// behind an `Arc` so every [`Governor::clone_shared`] handle — the buffer
/// pool's, for one — charges the *same* ledger.
#[derive(Debug, Default)]
struct Ledger {
    /// Rows delivered to the application so far.
    rows_emitted: AtomicU64,
    /// Bytes currently reserved by materializing operator state.
    resident_bytes: AtomicU64,
    /// High-water mark of `resident_bytes` (diagnostics).
    peak_resident_bytes: AtomicU64,
}

/// Per-query guardrail state.
///
/// The executor calls [`Governor::tick`] at every batch boundary (root
/// emission and inside materializing loops) and
/// [`Governor::reserve`]/[`Governor::release`] around memory-resident
/// operator state. With no budget and no caller-held token the governor
/// is *disabled* and every hook reduces to one predictable branch. An
/// enabled governor whose limits never trip allocates nothing either:
/// `tests/alloc_budget.rs` counts a generous budget's allocations against no
/// budget's, query by query.
///
/// Counters live in a shared ledger; [`Governor::clone_shared`] hands
/// another component (the buffer pool) a handle onto the same ledger so
/// its byte reservations count against the query's budget.
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    cancel: Option<CancelToken>,
    /// Precomputed deadline for the wall-clock limit.
    deadline: Option<Instant>,
    ledger: Arc<Ledger>,
    enabled: bool,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::disabled()
    }
}

impl Governor {
    /// A governor that enforces nothing (the default for bare contexts).
    pub fn disabled() -> Self {
        Governor {
            budget: Budget::unlimited(),
            cancel: None,
            deadline: None,
            ledger: Arc::new(Ledger::default()),
            enabled: false,
        }
    }

    /// A governor enforcing `budget`, optionally observing `cancel`.
    /// The wall-clock deadline (if any) starts now.
    pub fn new(budget: Budget, cancel: Option<CancelToken>) -> Self {
        let enabled = budget.is_limited() || cancel.is_some();
        let deadline = budget
            .max_wall_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        Governor {
            budget,
            cancel,
            deadline,
            ledger: Arc::new(Ledger::default()),
            enabled,
        }
    }

    /// A handle onto the *same* ledger (rows, bytes) and cancel token.
    /// Budget limits and the wall-clock deadline are carried over
    /// unchanged.
    pub fn clone_shared(&self) -> Governor {
        Governor {
            budget: self.budget,
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            ledger: Arc::clone(&self.ledger),
            enabled: self.enabled,
        }
    }

    /// Is any limit or token being enforced?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Rows the root operator has delivered so far.
    pub fn rows_emitted(&self) -> u64 {
        self.ledger.rows_emitted.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved resident bytes.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.ledger.peak_resident_bytes.load(Ordering::Relaxed)
    }

    /// Record `n` rows delivered to the application (root batches only).
    #[inline]
    pub fn add_rows(&mut self, n: u64) {
        if self.enabled {
            self.ledger.rows_emitted.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Batch-boundary check: cancellation, work, rows and wall-clock.
    /// `work` is the calling context's cumulative work counter.
    #[inline]
    pub fn tick(&self, work: f64) -> Result<(), PopError> {
        if !self.enabled {
            return Ok(());
        }
        self.tick_slow(work)
    }

    #[cold]
    fn tick_slow(&self, work: f64) -> Result<(), PopError> {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Err(PopError::Cancelled);
            }
        }
        if let Some(max) = self.budget.max_work {
            if work > max {
                return Err(PopError::BudgetExceeded(format!(
                    "work {work:.0} exceeds budget {max:.0} units"
                )));
            }
        }
        if let Some(max) = self.budget.max_rows {
            if self.rows_emitted() > max {
                return Err(PopError::BudgetExceeded(format!(
                    "{} rows produced exceeds budget of {max}",
                    self.rows_emitted()
                )));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(PopError::BudgetExceeded(format!(
                    "wall-clock limit of {} ms exceeded",
                    self.budget.max_wall_ms.unwrap_or(0)
                )));
            }
        }
        Ok(())
    }

    /// Reserve `bytes` of resident operator memory (hash build, aggregate
    /// groups, sort/TEMP buffer, BUFCHECK valve, temp MV). Fails with a
    /// typed error when the reservation would cross the resident-byte
    /// budget.
    #[inline]
    pub fn reserve(&mut self, bytes: u64) -> Result<(), PopError> {
        if !self.enabled {
            return Ok(());
        }
        let now = self
            .ledger
            .resident_bytes
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        self.ledger
            .peak_resident_bytes
            .fetch_max(now, Ordering::Relaxed);
        if let Some(max) = self.budget.max_resident_bytes {
            if now > max {
                return Err(PopError::BudgetExceeded(format!(
                    "resident operator state of {now} bytes exceeds budget of {max} bytes"
                )));
            }
        }
        Ok(())
    }

    /// Release a previous reservation (operator close / buffer drained).
    #[inline]
    pub fn release(&mut self, bytes: u64) {
        if self.enabled {
            let _ = self.ledger.resident_bytes.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| Some(v.saturating_sub(bytes)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_governor_never_trips() {
        let mut g = Governor::disabled();
        assert!(!g.is_enabled());
        assert!(g.tick(1e18).is_ok());
        assert!(g.reserve(u64::MAX).is_ok());
        g.add_rows(1_000_000);
        assert!(g.tick(0.0).is_ok());
    }

    #[test]
    fn work_budget_trips() {
        let g = Governor::new(
            Budget {
                max_work: Some(100.0),
                ..Budget::default()
            },
            None,
        );
        assert!(g.tick(99.0).is_ok());
        let err = g.tick(101.0).unwrap_err();
        assert!(matches!(err, PopError::BudgetExceeded(_)), "{err}");
    }

    #[test]
    fn row_budget_trips() {
        let mut g = Governor::new(
            Budget {
                max_rows: Some(5),
                ..Budget::default()
            },
            None,
        );
        g.add_rows(5);
        assert!(g.tick(0.0).is_ok());
        g.add_rows(1);
        assert!(matches!(g.tick(0.0), Err(PopError::BudgetExceeded(_))));
    }

    #[test]
    fn resident_byte_budget_trips_and_releases() {
        let mut g = Governor::new(
            Budget {
                max_resident_bytes: Some(1000),
                ..Budget::default()
            },
            None,
        );
        assert!(g.reserve(600).is_ok());
        assert!(g.reserve(500).is_err());
        // The failed reservation still counted (the allocation happened);
        // releasing brings the ledger back down.
        g.release(1100);
        assert!(g.reserve(900).is_ok());
        assert!(g.peak_resident_bytes() >= 1100);
    }

    #[test]
    fn cancellation_trips() {
        let token = CancelToken::new();
        let g = Governor::new(Budget::unlimited(), Some(token.clone()));
        assert!(g.is_enabled());
        assert!(g.tick(0.0).is_ok());
        token.cancel();
        assert!(matches!(g.tick(0.0), Err(PopError::Cancelled)));
    }

    #[test]
    fn wall_clock_budget_trips() {
        let g = Governor::new(
            Budget {
                max_wall_ms: Some(1),
                ..Budget::default()
            },
            None,
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(matches!(g.tick(0.0), Err(PopError::BudgetExceeded(_))));
    }

    #[test]
    fn shared_clones_charge_one_ledger() {
        let mut a = Governor::new(
            Budget {
                max_rows: Some(10),
                max_resident_bytes: Some(1000),
                ..Budget::default()
            },
            None,
        );
        let mut b = a.clone_shared();
        a.add_rows(4);
        b.add_rows(4);
        assert_eq!(a.rows_emitted(), 8);
        assert!(a.tick(0.0).is_ok());
        b.add_rows(3);
        assert!(matches!(a.tick(0.0), Err(PopError::BudgetExceeded(_))));
        assert!(a.reserve(600).is_ok());
        assert!(b.reserve(500).is_err());
        b.release(500);
        assert_eq!(a.peak_resident_bytes(), 1100);
    }

    #[test]
    fn shared_cancel_crosses_clones() {
        let token = CancelToken::new();
        let g = Governor::new(Budget::unlimited(), Some(token.clone()));
        let worker = g.clone_shared();
        token.cancel();
        assert!(matches!(worker.tick(0.0), Err(PopError::Cancelled)));
    }
}
