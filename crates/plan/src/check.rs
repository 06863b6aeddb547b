//! Checkpoint specifications and validity ranges.

use std::fmt;

/// The five checkpoint flavors of §3 (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckFlavor {
    /// Lazy Check: placed just above an existing materialization point
    /// (SORT / TEMP / hash-join build). Lowest risk — the materialized
    /// input is reusable and nothing has been returned to the user yet.
    Lc,
    /// Lazy Check with Eager Materialization: a TEMP/CHECK pair inserted
    /// on the outer of an NLJN that has no natural materialization.
    Lcem,
    /// Eager Check with Buffering: BUFCHECK that buffers up to `b` rows
    /// and fails as soon as the threshold is crossed, *before*
    /// materialization completes.
    Ecb,
    /// Eager Check Without Compensation: below a materialization point
    /// (its ancestor blocks output, so no compensation needed).
    Ecwc,
    /// Eager Check with Deferred Compensation: anywhere in a pipelined SPJ
    /// plan; returned rids go to a side table, and the re-optimized plan
    /// anti-joins against it.
    Ecdc,
}

impl fmt::Display for CheckFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckFlavor::Lc => "LC",
            CheckFlavor::Lcem => "LCEM",
            CheckFlavor::Ecb => "ECB",
            CheckFlavor::Ecwc => "ECWC",
            CheckFlavor::Ecdc => "ECDC",
        };
        f.write_str(s)
    }
}

/// A validity range `[lo, hi]` on the cardinality flowing through a plan
/// edge (§2.2). If the actual cardinality leaves the range, the subplan
/// rooted at the consuming operator is provably suboptimal with respect to
/// the optimizer's cost model (against structurally-equivalent
/// alternatives), so re-optimization is worthwhile.
///
/// The range is *conservative*: within it the plan may still be suboptimal
/// versus plans with different join orders, but POP deliberately does not
/// trigger on those (see the discussion of structural equivalence in §2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidityRange {
    /// Lower cardinality bound.
    pub lo: f64,
    /// Upper cardinality bound.
    pub hi: f64,
}

impl Default for ValidityRange {
    fn default() -> Self {
        ValidityRange::unbounded()
    }
}

impl ValidityRange {
    /// The range `[0, ∞)`: the plan is optimal for any cardinality (no
    /// alternative was ever pruned against it).
    pub fn unbounded() -> Self {
        ValidityRange {
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }

    /// A range with the given bounds.
    pub fn new(lo: f64, hi: f64) -> Self {
        ValidityRange { lo, hi }
    }

    /// Does `actual` fall inside the range?
    pub fn contains(&self, actual: f64) -> bool {
        actual >= self.lo && actual <= self.hi
    }

    /// Narrow this range by intersecting with another.
    pub fn intersect(&self, other: &ValidityRange) -> ValidityRange {
        ValidityRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Narrow only the upper bound.
    pub fn cap_hi(&mut self, hi: f64) {
        if hi < self.hi {
            self.hi = hi;
        }
    }

    /// Narrow only the lower bound.
    pub fn raise_lo(&mut self, lo: f64) {
        if lo > self.lo {
            self.lo = lo;
        }
    }

    /// Is this the unbounded range?
    pub fn is_unbounded(&self) -> bool {
        self.lo <= 0.0 && self.hi.is_infinite()
    }
}

impl fmt::Display for ValidityRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi.is_infinite() {
            write!(f, "[{:.0}, inf)", self.lo)
        } else {
            write!(f, "[{:.0}, {:.0}]", self.lo, self.hi)
        }
    }
}

/// Where in the plan a checkpoint sits — determines its risk/opportunity
/// class (Table 1 of the paper) and is reported by the opportunity
/// analysis of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckContext {
    /// LC above a SORT materialization.
    AboveSort,
    /// LC above a TEMP materialization.
    AboveTemp,
    /// LC on the build edge of a hash join.
    HashBuild,
    /// LC on the input edge of a hash aggregate (the aggregate's hash
    /// table is a materialization point that fully consumes its input
    /// before emitting — the last observation opportunity before the
    /// pipeline breaker).
    AggBuild,
    /// LCEM/ECB guarding the outer of an NLJN.
    NljnOuter,
    /// ECWC below a materialization point.
    BelowMaterialization,
    /// ECDC in a pipelined section.
    Pipeline,
}

impl std::fmt::Display for CheckContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckContext::AboveSort => "above-sort",
            CheckContext::AboveTemp => "above-temp",
            CheckContext::HashBuild => "hash-build",
            CheckContext::AggBuild => "agg-build",
            CheckContext::NljnOuter => "nljn-outer",
            CheckContext::BelowMaterialization => "below-mat",
            CheckContext::Pipeline => "pipeline",
        };
        f.write_str(s)
    }
}

/// Everything a CHECK operator needs at runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSpec {
    /// Unique id within the plan (assigned by the placement post-pass).
    pub id: usize,
    /// Which flavor of checkpoint this is.
    pub flavor: CheckFlavor,
    /// The check range: actual cardinality must stay inside.
    pub range: ValidityRange,
    /// The optimizer's cardinality estimate at this edge.
    pub est_card: f64,
    /// Placement context.
    pub context: CheckContext,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_contains_everything() {
        let r = ValidityRange::unbounded();
        assert!(r.contains(0.0));
        assert!(r.contains(1e18));
        assert!(r.is_unbounded());
    }

    #[test]
    fn bounded_checks() {
        let r = ValidityRange::new(10.0, 100.0);
        assert!(!r.contains(9.0));
        assert!(r.contains(10.0));
        assert!(r.contains(100.0));
        assert!(!r.contains(101.0));
        assert!(!r.is_unbounded());
    }

    #[test]
    fn narrowing() {
        let mut r = ValidityRange::unbounded();
        r.cap_hi(50.0);
        r.cap_hi(80.0); // no effect, already tighter
        r.raise_lo(5.0);
        r.raise_lo(2.0); // no effect
        assert_eq!(r, ValidityRange::new(5.0, 50.0));
        let i = r.intersect(&ValidityRange::new(10.0, 40.0));
        assert_eq!(i, ValidityRange::new(10.0, 40.0));
    }

    #[test]
    fn display() {
        assert_eq!(ValidityRange::unbounded().to_string(), "[0, inf)");
        assert_eq!(ValidityRange::new(3.0, 9.0).to_string(), "[3, 9]");
        assert_eq!(CheckFlavor::Lcem.to_string(), "LCEM");
    }
}
