//! Plan candidates held in the DP memo: cost records with child references.
//!
//! Pruning and validity-range narrowing (§2.2) compare cost *functions*,
//! never operator trees, so that is what a [`Candidate`] stores. A join
//! candidate refers to its inputs by index into the child groups (as a group
//! entry does in Liu/Ives/Loo's incremental memo) instead of containing
//! copies of them, and to the alternatives pruning dropped in its favour by
//! their slot in the split, instead of carrying ranges solved against them:
//! only the winners extraction turns into a plan ever need those.

use pop_plan::{CostModel, PhysNode, TableSet};
use pop_types::ColId;

/// Parametric description of a candidate's root operator cost, as a
/// function of the candidate's **canonical input edges**.
///
/// For a join over partition `(A, B)` (canonicalized so `A.mask() <
/// B.mask()`), edge 0 carries `card(A)` and edge 1 carries `card(B)`.
/// Structurally equivalent candidates over the same partition share these
/// edges, which is what makes their cost functions directly comparable in
/// the sensitivity analysis of §2.2 — child subtree costs are constants
/// that cancel in the difference.
#[derive(Debug, Clone, PartialEq)]
pub enum RootCostSpec {
    /// An access path (table scan, index range scan, MV scan): no input
    /// edges, so its cost is a constant.
    Fixed {
        /// The access cost.
        cost: f64,
    },
    /// Index nested-loop join. Cost reacts to the outer edge only: the
    /// inner is probed through its index, never scanned.
    Nljn {
        /// Which canonical edge is the outer.
        outer_edge: usize,
        /// Average index matches fetched per probe (inner rows per key).
        matches_per_probe: f64,
    },
    /// Hash join.
    Hsjn {
        /// Which canonical edge is the build side.
        build_edge: usize,
        /// Which canonical edge is the probe side.
        probe_edge: usize,
    },
    /// Merge join with optional sort enforcers (their cost is part of the
    /// root cluster: sorts preserve row sets, so plans with and without
    /// enforcers still share edges in the paper's structural sense).
    Mgjn {
        /// Canonical edge of the left input.
        left_edge: usize,
        /// Canonical edge of the right input.
        right_edge: usize,
        /// Left input needs an enforcer sort.
        sort_left: bool,
        /// Right input needs an enforcer sort.
        sort_right: bool,
    },
}

impl RootCostSpec {
    /// Number of canonical input edges.
    pub fn num_edges(&self) -> usize {
        match self {
            RootCostSpec::Fixed { .. } => 0,
            _ => 2,
        }
    }
}

/// Local (root-operator-only) cost of a join/scan root at the given
/// canonical input-edge cardinalities: the operator's runtime charges
/// (NLJN a lookup per outer row; HSJN the build, the probe rows and the
/// build's spill passes over both sides; MGJN a merge step per row plus
/// its enforcer sorts), with the planning-only robustness penalty on the
/// two pipelined joins.
pub fn root_local_cost(model: &CostModel, spec: &RootCostSpec, cards: &[f64]) -> f64 {
    let card = |edge: &usize| cards[*edge].max(0.0);
    match spec {
        RootCostSpec::Fixed { cost } => *cost,
        RootCostSpec::Nljn {
            outer_edge,
            matches_per_probe,
        } => model.robust(model.index_lookups(card(outer_edge), *matches_per_probe)),
        RootCostSpec::Hsjn {
            build_edge,
            probe_edge,
        } => {
            let (build, probe) = (card(build_edge), card(probe_edge));
            let spill = model.spill_rows(model.spill_passes(build) * (build + probe));
            model.robust(model.hash_build(build) + model.hash_probe(probe, 0.0) + spill)
        }
        RootCostSpec::Mgjn {
            left_edge,
            right_edge,
            sort_left,
            sort_right,
        } => {
            let sort = |rows, sorted: bool| if sorted { model.sort_cost(rows) } else { 0.0 };
            let (l, r) = (card(left_edge), card(right_edge));
            model.merge(l + r) + sort(l, *sort_left) + sort(r, *sort_right)
        }
    }
}

/// How many join candidates one split of a group can build (see
/// [`Candidate::slot`]); a `u8` mask holds a winner's pruned siblings.
pub(crate) const SPLIT_SLOTS: usize = 5;

/// A memo entry: a cost record, not a plan. It holds what pruning and the
/// sensitivity analysis read — the cost *function* of the root operator over
/// its canonical edges — plus, per edge, which candidate of the child group
/// feeds it, and which structurally-equivalent siblings pruning dropped in
/// its favour. The operator tree, and the validity ranges solved against
/// those siblings, are built once, for the winner, by `finalize::extract`.
///
/// A join has exactly two canonical edges, so the per-edge fields are
/// fixed-size arrays and building a join candidate touches no heap; leaves
/// and MV scans have no edges and leave them at their defaults.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Total estimated cost (children + root local + enforcers).
    pub cost: f64,
    /// Estimated output cardinality.
    pub card: f64,
    /// Sort order of the output, if any.
    pub order: Option<ColId>,
    /// Canonical partition this candidate was built from (`None` for
    /// leaves/MV scans). Two candidates are *structurally equivalent* in
    /// the paper's sense iff their partitions are equal.
    pub partition: Option<(TableSet, TableSet)>,
    /// Root cost as a function of canonical edge cards.
    pub root_spec: RootCostSpec,
    /// Sum of child subtree costs (constant under edge-card perturbation).
    pub fixed_cost: f64,
    /// Estimated cards of the canonical edges.
    pub edge_cards: [f64; 2],
    /// Per canonical edge, the index of the chosen candidate in that
    /// side's group (`None` for the NLJN inner, which is probed through
    /// its index rather than planned). A child group is final before any
    /// superset is derived, and re-deriving it dirties every superset, so
    /// the index stays valid for as long as this candidate exists.
    pub edge_children: [Option<usize>; 2],
    /// The finished node of a leaf or MV scan — childless, so keeping it
    /// clones no subtree. `None` for joins; boxed so that joins, which are
    /// nearly all of the memo, do not carry a node's size each.
    pub leaf: Option<Box<PhysNode>>,
    /// Which construction of its split this join is, below
    /// `SPLIT_SLOTS` (5): 0 / 1 hash join building on canonical edge 0 / 1,
    /// 2 / 3 nested loops with outer edge 0 / 1, 4 merge join. 0 for
    /// leaves and MV scans.
    pub slot: u8,
    /// Bit `i` set: pruning dropped the sibling in slot `i` of the same
    /// split — structurally equivalent, the same partition and order — in
    /// this candidate's favour. Extraction rebuilds exactly those siblings
    /// and narrows the validity ranges against them
    /// ([`crate::validity::narrow_on_prune`]).
    pub pruned: u8,
}

// A DMV-sized memo holds thousands of these and pruning moves them around:
// the record stays within two and a half cache lines.
const _: () = assert!(std::mem::size_of::<Candidate>() <= 160);

impl Candidate {
    /// Total cost at perturbed edge cards (used by the sensitivity
    /// analysis; at `edge_cards` this equals `self.cost` up to enforcer
    /// bookkeeping).
    pub fn cost_at(&self, model: &CostModel, cards: &[f64]) -> f64 {
        self.fixed_cost + root_local_cost(model, &self.root_spec, cards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_at_leaf_is_constant() {
        let c = Candidate {
            cost: 100.0,
            card: 50.0,
            order: None,
            partition: None,
            root_spec: RootCostSpec::Fixed { cost: 100.0 },
            fixed_cost: 0.0,
            edge_cards: [0.0; 2],
            edge_children: [None; 2],
            leaf: None,
            slot: 0,
            pruned: 0,
        };
        let m = CostModel::default();
        assert_eq!(c.cost_at(&m, &[]), 100.0);
    }

    #[test]
    fn num_edges() {
        assert_eq!(RootCostSpec::Fixed { cost: 1.0 }.num_edges(), 0);
        assert_eq!(
            RootCostSpec::Hsjn {
                build_edge: 0,
                probe_edge: 1
            }
            .num_edges(),
            2
        );
    }
}
