//! Pass 6: parallel-region invariants (`PL304`–`PL306`).
//!
//! The parallelize post-pass produces `Gather` regions whose interior
//! nodes carry a non-`Single` [`Partitioning`] and whose CHECKs are
//! fold-registered. The executor's region controller relies on these
//! properties lining up:
//!
//! * `PL304` — every `Gather` is a clean serial/parallel boundary: its
//!   own output is `Single`, its input is partitioned with a matching
//!   partition count, and no partitioned node leaks outside a region
//!   (partitioned output must feed a partitioned consumer or the region's
//!   own `Gather`). Nested regions are rejected the same way: a `Gather`
//!   or `Exchange` under a partitioned parent spine is a boundary error
//!   (`Exchange` being the one legal partitioned-under-partitioned
//!   repartitioner, checked separately).
//! * `PL305` — an `Exchange` hash-routes rows on its keys so each
//!   consumer partition owns complete key groups; that is only sound if
//!   the downstream consumer keys on a superset: every exchange key must
//!   appear in the consuming aggregation's group-by.
//! * `PL306` — a CHECK inside a region sees only its partition's rows, so
//!   comparing its local count against the (global) validity range is
//!   meaningless: partitioned CHECKs must be fold-registered
//!   (`CheckSpec::fold`), serial CHECKs must not be, and BUFCHECK (which
//!   has no fold path) must never be partitioned.

use crate::dataflow::{NodeCx, Pass};
use crate::{DiagCode, Frame, LintContext, Sink};
use pop_plan::{Partitioning, PhysNode};

pub(crate) struct ParallelPass;

impl Pass for ParallelPass {
    fn check(&mut self, cx: &NodeCx<'_, '_>, _ctx: &LintContext<'_>, sink: &mut Sink) {
        check_node(cx, sink);
    }
}

fn check_node(cx: &NodeCx<'_, '_>, sink: &mut Sink) {
    let (node, frames, path) = (cx.node, cx.frames, cx.path);
    let parent = frames.last().map(|f| f.node);
    // Partition distributions come from the abstract states, not raw
    // props: the transfer function mirrors them into the lattice.
    let part = &cx.state.partitioning;

    match node {
        PhysNode::Gather { parts, .. } => {
            if part.is_partitioned() {
                sink.emit(
                    DiagCode::Pl304,
                    node,
                    path,
                    format!("GATHER output must be serial, found {part}"),
                );
            }
            let inpart = &cx.children[0].partitioning;
            if !inpart.is_partitioned() {
                sink.emit(
                    DiagCode::Pl304,
                    node,
                    path,
                    "GATHER input is not partitioned".into(),
                );
            } else if inpart.parts() != *parts {
                sink.emit(
                    DiagCode::Pl304,
                    node,
                    path,
                    format!("GATHER over {parts} partitions but input is {inpart}"),
                );
            }
            if parent_is_partitioned(parent) {
                sink.emit(
                    DiagCode::Pl304,
                    node,
                    path,
                    "GATHER nested inside a parallel region".into(),
                );
            }
        }
        PhysNode::Exchange { keys, parts, .. } => {
            if !cx.children[0].partitioning.is_partitioned() {
                sink.emit(
                    DiagCode::Pl304,
                    node,
                    path,
                    "EXCHANGE over a serial input".into(),
                );
            }
            match part {
                Partitioning::Hash(pkeys, k) => {
                    if pkeys != keys || k != parts {
                        sink.emit(
                            DiagCode::Pl304,
                            node,
                            path,
                            format!(
                                "EXCHANGE output partitioning {part} disagrees with its \
                                 {} keys over {parts} partitions",
                                keys.len()
                            ),
                        );
                    }
                }
                other => sink.emit(
                    DiagCode::Pl304,
                    node,
                    path,
                    format!("EXCHANGE output must be hash-partitioned, found {other}"),
                ),
            }
            if keys.is_empty() {
                sink.emit(
                    DiagCode::Pl305,
                    node,
                    path,
                    "EXCHANGE with no hash keys".into(),
                );
            } else if let Some(PhysNode::HashAgg { group_by, .. }) = consumer_of(frames) {
                if let Some(k) = keys.iter().find(|k| !group_by.contains(k)) {
                    sink.emit(
                        DiagCode::Pl305,
                        node,
                        path,
                        format!(
                            "exchange key {k:?} is not among the downstream \
                             aggregation's group-by keys"
                        ),
                    );
                }
            }
        }
        PhysNode::Check { spec, .. } => {
            if part.is_partitioned() && !spec.fold {
                sink.emit(
                    DiagCode::Pl306,
                    node,
                    path,
                    format!(
                        "CHECK #{} runs partitioned ({part}) without fold registration: \
                         its local count cannot be compared to the global range",
                        spec.id
                    ),
                );
            }
            if !part.is_partitioned() && spec.fold {
                sink.emit(
                    DiagCode::Pl306,
                    node,
                    path,
                    format!("CHECK #{} is fold-registered but runs serially", spec.id),
                );
            }
        }
        PhysNode::BufCheck { spec, .. } if part.is_partitioned() || spec.fold => {
            sink.emit(
                DiagCode::Pl306,
                node,
                path,
                format!(
                    "BUFCHECK #{} inside a parallel region: BUFCHECK has no fold path",
                    spec.id
                ),
            );
        }
        _ => {}
    }

    // A partitioned stream must terminate at its region's GATHER: a
    // partitioned node whose consumer is serial and not a GATHER leaks
    // partitioned rows into serial operators.
    if part.is_partitioned() && !matches!(node, PhysNode::Gather { .. }) {
        let ok = match parent {
            Some(PhysNode::Gather { .. }) => true,
            Some(PhysNode::Hsjn { .. } | PhysNode::Nljn { .. }) => {
                // Probe/outer spines are partitioned with the join; build
                // sides are serial children and never reach this branch.
                parent_is_partitioned(parent)
            }
            Some(p) => p.props().partitioning.is_partitioned(),
            None => false,
        };
        if !ok {
            sink.emit(
                DiagCode::Pl304,
                node,
                path,
                format!("partitioned output ({part}) is not consumed by a parallel region"),
            );
        }
    }
}

fn parent_is_partitioned(parent: Option<&PhysNode>) -> bool {
    parent.is_some_and(|p| p.props().partitioning.is_partitioned())
}

/// Nearest ancestor that is not a partitioned pass-through wrapper —
/// the operator that actually consumes the exchange's key distribution.
fn consumer_of<'a>(frames: &[Frame<'a>]) -> Option<&'a PhysNode> {
    frames.iter().rev().map(|f| f.node).find(|n| {
        !matches!(
            n,
            PhysNode::Check { .. } | PhysNode::Project { .. } | PhysNode::Having { .. }
        )
    })
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use crate::{lint_plan, LintContext};
    use pop_plan::{
        AggFunc, LayoutCol, Partitioning, PhysNode, PlanProps, TableSet, ValidityRange,
    };
    use pop_types::ColId;

    fn partitioned_leaf(card: f64, k: usize) -> PhysNode {
        let mut n = leaf(0, "t", 2, card);
        n.props_mut().partitioning = Partitioning::Morsel(k);
        n
    }

    fn gather(input: PhysNode, parts: usize) -> PhysNode {
        let mut props = input.props().clone();
        props.partitioning = Partitioning::Single;
        props.edge_ranges = vec![ValidityRange::unbounded()];
        PhysNode::Gather {
            input: Box::new(input),
            parts,
            props,
        }
    }

    #[test]
    fn well_formed_region_is_clean() {
        let plan = gather(partitioned_leaf(100.0, 4), 4);
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pl304_gather_over_serial_input() {
        let plan = gather(leaf(0, "t", 2, 100.0), 4);
        assert!(codes(&lint_plan(&plan, &LintContext::bare())).contains(&"PL304"));
    }

    #[test]
    fn pl304_partition_count_mismatch() {
        let plan = gather(partitioned_leaf(100.0, 2), 4);
        assert!(codes(&lint_plan(&plan, &LintContext::bare())).contains(&"PL304"));
    }

    #[test]
    fn pl304_partitioned_root_leaks() {
        let plan = partitioned_leaf(100.0, 4);
        assert!(codes(&lint_plan(&plan, &LintContext::bare())).contains(&"PL304"));
    }

    #[test]
    fn pl304_gather_output_partitioned() {
        let mut plan = gather(partitioned_leaf(100.0, 4), 4);
        plan.props_mut().partitioning = Partitioning::Morsel(4);
        // The root is now partitioned too, so both the boundary rule and
        // the leak rule fire — PL304 either way.
        assert!(codes(&lint_plan(&plan, &LintContext::bare())).contains(&"PL304"));
    }

    #[test]
    fn pl305_exchange_keys_must_be_group_keys() {
        let input = partitioned_leaf(10_000.0, 4);
        let keys = vec![ColId::new(0, 1)];
        let mut xprops = input.props().clone();
        xprops.partitioning = Partitioning::Hash(keys.clone(), 4);
        xprops.edge_ranges = vec![ValidityRange::unbounded()];
        let exchange = PhysNode::Exchange {
            input: Box::new(input),
            keys,
            parts: 4,
            props: xprops,
        };
        let aprops = PlanProps {
            tables: TableSet::single(0),
            card: 20.0,
            cost: exchange.props().cost + 100.0,
            layout: vec![LayoutCol::Base(ColId::new(0, 0)), LayoutCol::Agg(0)],
            sorted_by: None,
            edge_ranges: vec![ValidityRange::unbounded()],
            partitioning: Partitioning::Hash(vec![ColId::new(0, 0)], 4),
        };
        // Aggregates on column 0 but the exchange hashed on column 1.
        let agg = PhysNode::HashAgg {
            input: Box::new(exchange),
            group_by: vec![ColId::new(0, 0)],
            aggs: vec![AggFunc::Count],
            props: aprops,
        };
        let plan = gather(agg, 4);
        assert!(codes(&lint_plan(&plan, &LintContext::bare())).contains(&"PL305"));
    }

    /// A placement-legal partitioned check: LC above a TEMP, everything
    /// marked `Morsel(4)`.
    fn region_check(fold: bool) -> PhysNode {
        let mut t = temp(partitioned_leaf(100.0, 4));
        t.props_mut().partitioning = Partitioning::Morsel(4);
        let mut checked = check(
            t,
            pop_plan::CheckFlavor::Lc,
            pop_plan::CheckContext::AboveTemp,
        );
        checked.props_mut().partitioning = Partitioning::Morsel(4);
        if let PhysNode::Check { spec, .. } = &mut checked {
            spec.fold = fold;
        }
        checked
    }

    #[test]
    fn pl306_partitioned_check_without_fold() {
        let plan = gather(region_check(false), 4);
        let diags = lint_plan(&plan, &LintContext::bare());
        assert_eq!(codes(&diags), vec!["PL306"], "{diags:?}");
    }

    #[test]
    fn pl306_fold_check_outside_region() {
        let mut checked = check(
            leaf(0, "t", 2, 100.0),
            pop_plan::CheckFlavor::Lc,
            pop_plan::CheckContext::AboveTemp,
        );
        if let PhysNode::Check { spec, .. } = &mut checked {
            spec.fold = true;
        }
        let plan = temp(checked);
        assert!(codes(&lint_plan(&plan, &LintContext::bare())).contains(&"PL306"));
    }

    #[test]
    fn pl306_folded_partitioned_check_is_clean() {
        let plan = gather(region_check(true), 4);
        let diags = lint_plan(&plan, &LintContext::bare());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
