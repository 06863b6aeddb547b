//! Continuous suboptimality monitors: a cheap, always-on cardinality
//! watchdog on every operator the planned CHECK layer does not observe.
//!
//! Planned CHECKs guard the edges the optimizer *decided* to guard; a
//! correlated misestimate on an unguarded pipeline edge can sail all the
//! way to the root without tripping anything. A monitor closes that hole:
//! the operator is wrapped in a [`super::guard`] shell that counts its
//! output rows — one `u64` add per batch, no per-row work — against a
//! precomputed **trip bound** derived from two independent alarms:
//!
//! * **envelope escape** — the planlint interval analysis proves the
//!   output cardinality lies in `[lo, hi]` *given true statistics*; an
//!   actual count beyond `hi × drift` means the statistics are stale or
//!   lying;
//! * **estimate drift** — a correlated predicate keeps the actual inside
//!   the (sound but wide) interval while the point estimate is off by
//!   orders of magnitude; an actual count beyond `est × drift` means the
//!   rest of the plan was costed on a fiction.
//!
//! The trip bound is `max(min(hi, est) × drift, floor)`: the tighter of
//! the two alarms, floored at [`MONITOR_TRIP_FLOOR`] rows so tiny
//! estimates do not produce hair-trigger monitors. Crossing it follows
//! the guard protocol (exact tripping row, split and replay), records a
//! [`SuboptimalitySignal`] on the context, and raises an
//! `ExecSignal::Reopt` carrying an `AtLeast(bound + 1)` observation
//! tagged `monitor: true`. The driver escalates it exactly like a CHECK
//! violation: feedback, memo invalidation, early re-optimization.
//!
//! A fired signature is remembered in [`crate::ExecCtx::monitor_fired`]
//! across steps, so a re-optimized plan whose envelope is *still* stale
//! cannot re-trip on the same subplan and loop; the harvested `AtLeast`
//! fact already corrected the estimate, and `max_reopts` bounds the loop
//! globally anyway.

use std::collections::HashMap;

/// Minimum trip bound in rows. Estimates near zero (the correlated-marker
/// pathology) would otherwise arm monitors that fire on the first row.
pub const MONITOR_TRIP_FLOOR: u64 = 64;

/// Parameters of one monitor, computed by the driver from the plan's
/// interval envelope before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSpec {
    /// `$`-rooted child-index path of the monitored node (skeleton path).
    pub path: String,
    /// Signature of the monitored subplan's table set — the key under
    /// which a fired monitor's observation feeds back to the optimizer.
    pub signature: String,
    /// The optimizer's cardinality estimate at this node.
    pub est_card: f64,
    /// Output row count at which the monitor trips.
    pub trip: u64,
}

/// All monitors for one plan, keyed by the node's pre-order index in the
/// full plan tree (the same enumeration order the operator builder recurses
/// in). Nodes without an entry run unmonitored.
#[derive(Debug, Clone, Default)]
pub struct MonitorSet {
    /// Pre-order node index → monitor parameters.
    pub specs: HashMap<usize, MonitorSpec>,
}

impl MonitorSet {
    /// Number of installed monitors.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One raised monitor alarm, recorded on [`crate::ExecCtx::monitor_signals`] for
/// the step report.
#[derive(Debug, Clone, PartialEq)]
pub struct SuboptimalitySignal {
    /// Path of the node that tripped.
    pub path: String,
    /// Signature of the subplan whose cardinality escaped.
    pub signature: String,
    /// The estimate the plan was costed on.
    pub est_card: f64,
    /// The trip bound that was crossed.
    pub trip: u64,
    /// Rows observed when the monitor fired (`trip + 1`).
    pub observed: u64,
    /// Work counter at the moment of firing.
    pub at_work: f64,
}
