//! Execution control signals.

use pop_plan::{CheckFlavor, TableSet, ValidityRange};
use pop_types::PopError;

/// What a violated CHECK learned about the actual cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedCard {
    /// The producer was exhausted: the count is the true cardinality.
    Exact(u64),
    /// The check fired mid-stream: the true cardinality is at least this
    /// (eager checks "merely give the optimizer a lower bound", §3.4).
    AtLeast(u64),
}

impl ObservedCard {
    /// Is the observation exact?
    pub fn is_exact(&self) -> bool {
        matches!(self, ObservedCard::Exact(_))
    }
}

/// A CHECK violation: the actual cardinality left the check range, so the
/// remainder of the plan is provably suboptimal and re-optimization is
/// worthwhile (§2).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which check fired.
    pub check_id: usize,
    /// Its flavor.
    pub flavor: CheckFlavor,
    /// The query tables of the subplan whose cardinality was checked.
    pub tables: TableSet,
    /// What was observed.
    pub observed: ObservedCard,
    /// The optimizer's estimate at this edge.
    pub est_card: f64,
    /// The violated check range.
    pub range: ValidityRange,
    /// True when this was a forced (dummy) re-optimization used by the
    /// overhead experiments (Figure 12), not a genuine range violation.
    pub forced: bool,
}

/// Control signal propagated up the operator tree.
#[derive(Debug)]
pub enum ExecSignal {
    /// A CHECK violation requesting re-optimization.
    Reopt(Box<Violation>),
    /// A genuine execution error.
    Error(PopError),
}

impl From<PopError> for ExecSignal {
    fn from(e: PopError) -> Self {
        ExecSignal::Error(e)
    }
}

/// Result alias for operator methods.
pub type OpResult<T> = Result<T, ExecSignal>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_card_views() {
        assert!(ObservedCard::Exact(5).is_exact());
        assert!(!ObservedCard::AtLeast(5).is_exact());
    }

    #[test]
    fn error_conversion() {
        let s: ExecSignal = PopError::Execution("x".into()).into();
        assert!(matches!(s, ExecSignal::Error(_)));
    }
}
