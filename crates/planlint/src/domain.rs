//! The abstract domain of the dataflow analyzer: cardinality intervals
//! plus the plan properties every pass reasons over, and the bottom-up
//! transfer function that propagates them.
//!
//! A [`CardInterval`] `[lo, hi]` bounds the cardinalities a node's output
//! *could actually have* at runtime, derived not from the optimizer's
//! point estimates but from hard facts: a scan cannot produce more rows
//! than its table holds, a join no more than the product of its inputs,
//! an ungrouped aggregate exactly one row. These bounds are sound no
//! matter how wrong the statistics-based selectivity estimates are —
//! which is exactly what makes them useful for vetting the CHECK layer
//! that exists *because* estimates lie (paper §2).
//!
//! Leaf intervals are seeded from the [`pop_stats::StatsRegistry`]
//! supplied in the [`LintContext`]; without one the domain stays
//! [`CardInterval::top`] (unknown) and every interval-based rule is
//! silent, so structural linting of hand-built plans is unaffected.

use crate::LintContext;
use pop_plan::{PhysNode, ValidityRange};

/// Interval abstract value for a node's output cardinality.
///
/// `top()` (`[0, +inf]`) is "unknown": nothing is claimed, and every
/// rule that consumes intervals must treat it as such. The lattice join
/// is the interval hull; there is no bottom (an unreachable node still
/// produces the empty-output interval `[0, 0]` at worst).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardInterval {
    /// Inclusive lower bound (rows).
    pub lo: f64,
    /// Inclusive upper bound (rows); `+inf` when unknown.
    pub hi: f64,
}

impl CardInterval {
    /// The unknown interval `[0, +inf]`.
    pub fn top() -> Self {
        CardInterval {
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }

    /// An exact cardinality `[n, n]`.
    pub fn exact(n: f64) -> Self {
        CardInterval { lo: n, hi: n }
    }

    /// An interval `[lo, hi]` (clamped to be well-formed).
    pub fn new(lo: f64, hi: f64) -> Self {
        let lo = lo.max(0.0);
        CardInterval { lo, hi: hi.max(lo) }
    }

    /// Is nothing known about this cardinality?
    pub fn is_top(&self) -> bool {
        self.hi.is_infinite()
    }

    /// Is a known, finite bound available?
    pub fn is_known(&self) -> bool {
        !self.is_top()
    }

    /// Does the interval contain `x`?
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval hull of two values.
    pub fn hull(&self, other: &CardInterval) -> CardInterval {
        CardInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Is every cardinality in this interval inside `range`? (Then a
    /// CHECK with that trigger range can never fire.)
    pub fn inside(&self, range: &ValidityRange) -> bool {
        range.lo <= self.lo && self.hi <= range.hi
    }

    /// Is the interval disjoint from `range`? (Then a CHECK with that
    /// trigger range always fires.)
    pub fn disjoint(&self, range: &ValidityRange) -> bool {
        self.hi < range.lo || self.lo > range.hi
    }

    /// By what factor can the actual cardinality escape `range`? Returns
    /// `1.0` when the interval is inside the range, and the worst-case
    /// ratio (actual bound vs range bound) otherwise. An unknown interval
    /// reports `1.0`: no escape is *provable*.
    pub fn escape_factor(&self, range: &ValidityRange) -> f64 {
        if self.is_top() {
            return 1.0;
        }
        let mut f = 1.0_f64;
        if range.hi.is_finite() && self.hi > range.hi {
            f = f.max(self.hi / range.hi.max(1.0));
        }
        if range.lo > 0.0 && self.lo < range.lo {
            f = f.max(range.lo / self.lo.max(1.0));
        }
        f
    }
}

impl std::fmt::Display for CardInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.hi.is_infinite() {
            write!(f, "[{:.0}, inf)", self.lo)
        } else {
            write!(f, "[{:.0}, {:.0}]", self.lo, self.hi)
        }
    }
}

/// One risky edge still open in the current pipeline segment: the edge's
/// child cardinality interval escapes the edge's validity range by more
/// than the configured risk threshold, and no CHECK or materialization
/// point has dominated it yet.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRisk {
    /// Path of the node *below* the risky edge (`$`-rooted child-index
    /// path, as in [`crate::PlanDiagnostic::path`]).
    pub path: String,
    /// Operator name below the edge.
    pub node: &'static str,
    /// Worst-case factor by which the actual cardinality can leave the
    /// edge's validity range.
    pub escape: f64,
}

/// The abstract state the interpreter computes per node, bottom-up.
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractState {
    /// Bounds on the node's actual output cardinality.
    pub interval: CardInterval,
    /// Is the node's output materialized, looking through CHECK
    /// wrappers? (SORT/TEMP/MVSCAN — the LC placement opportunity.)
    pub materialized: bool,
    /// Risky edges below this node not yet dominated by a CHECK or
    /// materialization point (cleared by dominators, reported at
    /// pipeline breakers — see `PL411`).
    pub open_risks: Vec<OpenRisk>,
}

impl AbstractState {
    fn top() -> Self {
        AbstractState {
            interval: CardInterval::top(),
            materialized: false,
            open_risks: Vec::new(),
        }
    }
}

/// Live row count of base table `name`, from the stats registry when
/// supplied.
fn table_rows(ctx: &LintContext<'_>, name: &str) -> Option<f64> {
    let stats = ctx.stats?;
    #[allow(clippy::cast_precision_loss)] // row counts are far below 2^52
    stats.get(name).ok().map(|s| s.row_count as f64)
}

/// The transfer function: abstract state of `node` from its `children`
/// ([`PhysNode::children`]) and their states, `inputs`.
///
/// Cardinality rules are the sound counterparts of the optimizer's
/// estimation formulas: where the estimator multiplies by a selectivity
/// in `[0, 1]`, the interval keeps `[0, input.hi]`; where the estimator
/// multiplies input cardinalities, the interval multiplies upper bounds.
/// Count-preserving wrappers pass their input interval through.
pub(crate) fn transfer(
    node: &PhysNode,
    children: &[&PhysNode],
    inputs: &[&AbstractState],
    ctx: &LintContext<'_>,
    path: &[usize],
) -> AbstractState {
    let mut st = AbstractState::top();

    st.interval = match node {
        PhysNode::TableScan { table, pred, .. } => match table_rows(ctx, table) {
            Some(n) if pred.is_none() => CardInterval::exact(n),
            Some(n) => CardInterval::new(0.0, n),
            None => CardInterval::top(),
        },
        PhysNode::IndexRangeScan { table, .. } => match table_rows(ctx, table) {
            Some(n) => CardInterval::new(0.0, n),
            None => CardInterval::top(),
        },
        PhysNode::MvScan { signature, .. } => {
            match ctx.catalog.and_then(|c| c.temp_mv(signature)) {
                #[allow(clippy::cast_precision_loss)]
                Some(mv) => CardInterval::exact(mv.actual_card as f64),
                None => CardInterval::top(),
            }
        }
        PhysNode::Nljn { inner, .. } => {
            let outer = inputs[0].interval;
            match table_rows(ctx, &inner.table) {
                Some(m) => CardInterval::new(0.0, outer.hi * m),
                None => CardInterval::top(),
            }
        }
        PhysNode::Hsjn { .. } | PhysNode::Mgjn { .. } => {
            CardInterval::new(0.0, inputs[0].interval.hi * inputs[1].interval.hi)
        }
        PhysNode::HashAgg { group_by, .. } => {
            let input = inputs[0].interval;
            if group_by.is_empty() {
                // An ungrouped aggregate emits exactly one row, even over
                // an empty input.
                CardInterval::exact(1.0)
            } else {
                let lo = if input.lo >= 1.0 { 1.0 } else { 0.0 };
                CardInterval::new(lo, input.hi)
            }
        }
        PhysNode::Limit { n, .. } => {
            let input = inputs[0].interval;
            #[allow(clippy::cast_precision_loss)]
            let n = *n as f64;
            CardInterval::new(input.lo.min(n), input.hi.min(n))
        }
        // Row-dropping operators: anywhere from nothing to everything.
        PhysNode::SemiProbe { .. } | PhysNode::Having { .. } | PhysNode::AntiJoinRids { .. } => {
            CardInterval::new(0.0, inputs[0].interval.hi)
        }
        // Count-preserving wrappers pass the input interval through.
        PhysNode::Sort { .. }
        | PhysNode::Temp { .. }
        | PhysNode::Project { .. }
        | PhysNode::Check { .. }
        | PhysNode::BufCheck { .. }
        | PhysNode::RidSink { .. }
        | PhysNode::Insert { .. } => inputs[0].interval,
    };

    st.materialized = match node {
        PhysNode::Sort { .. } | PhysNode::Temp { .. } | PhysNode::MvScan { .. } => true,
        PhysNode::Check { .. } | PhysNode::BufCheck { .. } => inputs[0].materialized,
        _ => false,
    };

    st.open_risks = open_risks(node, children, inputs, path);
    st
}

/// The risky-edge accumulation of the CHECK-coverage proof (`PL411`).
///
/// A child edge is **risky** when the child's cardinality interval
/// escapes the edge's validity range by more than the configured
/// threshold: the actual cardinality can plausibly fall where the
/// optimizer's own sensitivity analysis proved the plan suboptimal.
/// Risky edges accumulate upward until a **dominator** (CHECK, BUFCHECK,
/// SORT, TEMP — a point where POP can observe the cardinality and
/// re-optimize) clears them; a pipeline breaker that is *not* such an
/// opportunity (hash aggregation, a hash-join build) consumes them
/// unguarded — the coverage pass reports those (`PL411`).
fn open_risks(
    node: &PhysNode,
    children: &[&PhysNode],
    inputs: &[&AbstractState],
    path: &[usize],
) -> Vec<OpenRisk> {
    if dominates(node) {
        return Vec::new();
    }
    let mut open: Vec<OpenRisk> = Vec::new();
    for (i, (child, cst)) in children.iter().zip(inputs.iter()).enumerate() {
        // Breakers consume their input's open set: the build side of a
        // hash join is materialized into the table, an aggregate's input
        // is fully consumed before it emits. The coverage pass reports those
        // (`PL411`) at the breaker itself; they are not carried further.
        if consumed_unguarded(node, i) {
            continue;
        }
        open.extend(cst.open_risks.iter().cloned());
        if let Some(risk) = edge_risk(node, i, child, cst, path) {
            open.push(risk);
        }
    }
    open
}

/// Is `node` a dominator — a point where the cardinality is observed (or
/// observable) and POP can re-optimize, so everything below is guarded?
pub(crate) fn dominates(node: &PhysNode) -> bool {
    matches!(
        node,
        PhysNode::Check { .. }
            | PhysNode::BufCheck { .. }
            | PhysNode::Sort { .. }
            | PhysNode::Temp { .. }
    )
}

/// Is input edge `i` of `node` consumed by a pipeline breaker that is
/// not itself a re-optimization opportunity?
pub(crate) fn consumed_unguarded(node: &PhysNode, i: usize) -> bool {
    matches!(node, PhysNode::HashAgg { .. }) || (matches!(node, PhysNode::Hsjn { .. }) && i == 0)
}

/// The [`OpenRisk`] input edge `i` of `node` introduces, if its child's
/// cardinality interval escapes the edge's validity range by more than
/// [`crate::RISK_THRESHOLD`].
pub(crate) fn edge_risk(
    node: &PhysNode,
    i: usize,
    child: &PhysNode,
    child_state: &AbstractState,
    path: &[usize],
) -> Option<OpenRisk> {
    let escape = edge_escape(node, i, child, child_state)?;
    Some(OpenRisk {
        path: crate::render_path(path.iter().copied().chain([i])),
        node: child.name(),
        escape,
    })
}

/// By how much the cardinality crossing input edge `i` of `node` can
/// escape the edge's validity range, when that makes the edge risky.
pub(crate) fn edge_escape(
    node: &PhysNode,
    i: usize,
    child: &PhysNode,
    child_state: &AbstractState,
) -> Option<f64> {
    // An edge fed directly by a dominator is guarded by construction:
    // the cardinality crossing it was (or will be) observed there, so an
    // escape triggers re-optimization before any damage compounds.
    if child_state.materialized
        || matches!(child, PhysNode::Check { .. } | PhysNode::BufCheck { .. })
    {
        return None;
    }
    let escape = child_state.interval.escape_factor(&node.edge_range(i));
    (escape > crate::RISK_THRESHOLD).then_some(escape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let top = CardInterval::top();
        assert!(top.is_top() && !top.is_known());
        assert!(top.contains(1e18));
        let x = CardInterval::exact(7.0);
        assert!(x.is_known() && x.contains(7.0) && !x.contains(8.0));
        assert_eq!(
            x.hull(&CardInterval::exact(3.0)),
            CardInterval::new(3.0, 7.0)
        );
        assert_eq!(CardInterval::new(5.0, 1.0), CardInterval::new(5.0, 5.0));
        assert_eq!(x.to_string(), "[7, 7]");
        assert_eq!(top.to_string(), "[0, inf)");
    }

    #[test]
    fn escape_and_containment() {
        let r = ValidityRange::new(10.0, 100.0);
        assert!(CardInterval::new(10.0, 100.0).inside(&r));
        assert!(!CardInterval::new(0.0, 100.0).inside(&r));
        assert!(CardInterval::new(200.0, 300.0).disjoint(&r));
        assert!(!CardInterval::new(50.0, 300.0).disjoint(&r));
        // hi escape: actual could be 1000 against a bound of 100.
        assert!((CardInterval::new(10.0, 1000.0).escape_factor(&r) - 10.0).abs() < 1e-9);
        // unknown interval proves nothing.
        assert!((CardInterval::top().escape_factor(&r) - 1.0).abs() < 1e-9);
        // unbounded range is never escaped.
        let unb = ValidityRange::unbounded();
        assert!((CardInterval::new(0.0, 1e12).escape_factor(&unb) - 1.0).abs() < 1e-9);
    }
}
