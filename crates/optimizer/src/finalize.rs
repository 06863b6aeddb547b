//! The optimizer's entry point and top-level plan assembly: join order
//! (through the [`Memo`]) → extraction of the winning join tree →
//! aggregation / projection → ordering → side effects → checkpoint
//! placement. The memo holds cost records; this module is
//! where the one plan tree of an optimization comes into existence
//! (`extract`) and is passed, by value and edited in place, through every
//! later stage.

use crate::candidate::SPLIT_SLOTS;
use crate::enumerate::{combine_local_preds, nljn_probe, split_candidates};
use crate::memo::{Group, SolvedRanges};
use crate::placement::place_checkpoints;
use crate::{validity, Candidate, CardEstimator, Memo, MemoStats, OptimizerContext, RootCostSpec};
use pop_plan::{InnerProbe, PhysNode, PlanProps, QuerySpec, SortKeyRef, TableSet, ValidityRange};
use pop_types::{ColId, PopResult};

/// Optimize a query into an executable physical plan, with checkpoints
/// placed per the context's configuration — the only way to get a plan.
/// The join order comes out of the caller's [`Memo`]: a memo that already
/// holds this query's groups re-derives only those reached by cardinality
/// facts or temp-MV changes since the previous call, and a [`Memo::new`]
/// derives every group (a from-scratch optimization is the all-dirty
/// case, not a second code path). Also returns the pass's [`MemoStats`]
/// for reporting, with the extraction's root-search count in
/// [`MemoStats::diff_evals`].
pub fn optimize(
    spec: &QuerySpec,
    ctx: &OptimizerContext<'_>,
    memo: &mut Memo,
) -> PopResult<(PhysNode, MemoStats)> {
    let est = memo.bind(spec, ctx)?;
    let (groups, solved, best, mut stats) = memo.best_join_order(&est, ctx)?;
    let join_tree = extract(
        groups,
        solved,
        spec.all_tables(),
        best,
        &est,
        ctx,
        &mut stats.diff_evals,
    );
    Ok((assemble(join_tree, spec, &est, ctx), stats))
}

/// Build the operator tree of candidate `idx` of group `set` — the one
/// place join nodes and enforcer sorts are constructed, called once per
/// optimization, for the winner. Everything the DP decided is read back
/// from the cost records: inputs by their recorded index in the child
/// groups, orientation and enforcers from the root spec, cost / cardinality
/// / order from the candidate; join keys are re-derived from the spec, and
/// each canonical edge's validity range is solved ([`edge_ranges`]) —
/// unless `solved` already holds it — and written onto the physical child
/// it feeds. Adds the cost differences the root search evaluated to
/// `evals`.
fn extract(
    groups: &[Group],
    solved: &mut SolvedRanges,
    set: TableSet,
    idx: usize,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
    evals: &mut usize,
) -> PhysNode {
    let cand = &groups[set.mask() as usize].cands[idx];
    if let Some(node) = &cand.leaf {
        return (**node).clone();
    }
    let (a, b) = cand
        .partition
        .expect("a candidate without a node is a join");
    let sides = [a, b];
    let spec = est.spec();
    let preds = || est.graph().preds_between(a, b).map(|i| &spec.join_preds[i]);
    let ranges = *solved
        .entry((set.mask() as usize, idx))
        .or_insert_with(|| edge_ranges(groups, cand, est, ctx, evals));
    let mut input = |edge: usize| {
        let idx = cand.edge_children[edge].expect("a planned input names its candidate");
        extract(groups, solved, sides[edge], idx, est, ctx, evals)
    };
    // `edges`: the canonical edge behind each physical child, in child
    // order.
    let props = |edges: &[usize]| PlanProps {
        tables: set,
        card: cand.card,
        cost: cand.cost,
        sorted_by: cand.order,
        edge_ranges: edges.iter().map(|&e| ranges[e]).collect(),
    };
    match cand.root_spec {
        RootCostSpec::Hsjn {
            build_edge,
            probe_edge,
        } => {
            let (build, probe) = (input(build_edge), input(probe_edge));
            let (build_keys, probe_keys) =
                preds().filter_map(|j| j.split(sides[build_edge])).unzip();
            PhysNode::Hsjn {
                props: props(&[build_edge, probe_edge]),
                build: Box::new(build),
                probe: Box::new(probe),
                build_keys,
                probe_keys,
            }
        }
        // The inner's canonical edge has no physical child, so no range
        // was solved for it.
        RootCostSpec::Nljn { outer_edge, .. } => {
            let outer = input(outer_edge);
            let t = sides[1 - outer_edge]
                .iter()
                .next()
                .expect("singleton inner");
            let probe = nljn_probe(preds(), t, est).expect("enumerated with this probe");
            PhysNode::Nljn {
                props: props(&[outer_edge]),
                outer: Box::new(outer),
                outer_key: probe.outer_key,
                inner: InnerProbe {
                    qidx: t,
                    table: spec.tables[t].table.clone(),
                    join_col: probe.join_col,
                    pred: combine_local_preds(spec.local_preds_of(t)),
                    residual_joins: probe.residual,
                    inner_card: est.raw_card(t),
                },
            }
        }
        // An enforcer sort sits between the MGJN and the input, so the
        // edge's range stays on the MGJN, above the sort.
        RootCostSpec::Mgjn {
            sort_left,
            sort_right,
            ..
        } => {
            let (key_a, key_b) = preds()
                .next()
                .and_then(|j| j.split(a))
                .expect("predicate spans the partition");
            let sorted = |node: PhysNode, key: ColId, needed: bool| {
                if !needed {
                    return node;
                }
                let mut props = node.props().clone();
                props.cost += ctx.cost.sort_cost(props.card);
                props.sorted_by = Some(key);
                props.edge_ranges = vec![ValidityRange::unbounded()];
                PhysNode::Sort {
                    input: Box::new(node),
                    key: SortKeyRef::Col(key),
                    desc: false,
                    props,
                }
            };
            let left = sorted(input(0), key_a, sort_left);
            let right = sorted(input(1), key_b, sort_right);
            PhysNode::Mgjn {
                props: props(&[0, 1]),
                left: Box::new(left),
                right: Box::new(right),
                left_keys: vec![key_a],
                right_keys: vec![key_b],
            }
        }
        RootCostSpec::Fixed { .. } => {
            unreachable!("edge-less candidates carry their node")
        }
    }
}

/// Minimum absolute cost advantage (work units) a pruned sibling must have
/// before a validity bound is declared: an edge's range is the region
/// where the chosen plan is within this margin of optimal. This prices in
/// the fixed overhead of a re-optimization, so checks do not fire on
/// estimation noise (the paper observes exactly this failure mode in §6:
/// "a generous cost model for reoptimization ... leads to over-eager
/// re-optimizations").
const REOPT_GAIN_MARGIN_ABS: f64 = 200.0;
/// Additional margin as a fraction of the guarded subplan's cost — a proxy
/// for the work a re-optimization would throw away.
const REOPT_GAIN_MARGIN_FRAC: f64 = 0.05;

/// The validity ranges of join candidate `cand`'s canonical edges (§2.2):
/// each narrowed against every structurally-equivalent sibling pruning
/// dropped in its favour ([`Candidate::pruned`]). The siblings are rebuilt
/// by the enumerator's own constructor over the same child groups, which
/// are final (ascending-mask order finalizes every subset first, and
/// re-deriving a subset dirties every superset), so their cost records —
/// and so the ranges — are bit-identical to solving at prune time.
/// Adds the cost differences evaluated to `evals`.
fn edge_ranges(
    groups: &[Group],
    cand: &Candidate,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
    evals: &mut usize,
) -> [ValidityRange; 2] {
    let mut ranges = [ValidityRange::unbounded(); 2];
    if cand.pruned == 0 {
        return ranges;
    }
    let (a, b) = cand.partition.expect("only joins prune siblings");
    let mut siblings: [Option<Candidate>; SPLIT_SLOTS] = Default::default();
    let planned = split_candidates(a, b, cand.card, groups, est, ctx, |sibling| {
        let slot = usize::from(sibling.slot);
        siblings[slot] = Some(sibling);
    });
    assert!(planned, "the winner's split has a plan");
    let margin = REOPT_GAIN_MARGIN_ABS.max(REOPT_GAIN_MARGIN_FRAC * cand.cost);
    for (slot, sibling) in siblings.iter().enumerate() {
        if cand.pruned & (1 << slot) != 0 {
            let sibling = sibling.as_ref().expect("a pruned sibling was built");
            *evals += validity::narrow_on_prune(
                &mut ranges,
                cand,
                sibling,
                ctx.cost,
                ctx.config.nr_iterations,
                margin,
            );
        }
    }
    ranges
}

/// Wrap the winning join tree with the query's non-join operators
/// (EXISTS probes, aggregation/projection, HAVING, ORDER BY, LIMIT, side
/// effects), then place checkpoints.
fn assemble(
    mut node: PhysNode,
    spec: &QuerySpec,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> PhysNode {
    // Correlated EXISTS clauses: semi/anti probes above the join tree.
    for clause in &spec.exists {
        let mut props = node.props().clone();
        // One probe and one fetch per input row; by the existential
        // selectivity default, half the rows qualify.
        props.cost += ctx.cost.index_lookups(props.card, 1.0);
        props.card = (props.card * 0.5).max(0.0);
        props.edge_ranges = vec![ValidityRange::unbounded()];
        node = PhysNode::SemiProbe {
            input: Box::new(node),
            clause: clause.clone(),
            props,
        };
    }

    if let Some(agg) = &spec.aggregate {
        let in_card = node.props().card;
        let group_card = if agg.group_by.is_empty() {
            1.0
        } else {
            agg.group_by
                .iter()
                .map(|c| est.distinct(*c))
                .product::<f64>()
                .min(in_card)
                .max(1.0)
        };
        let props = PlanProps {
            tables: node.props().tables,
            card: group_card,
            cost: node.props().cost + ctx.cost.agg_cost(in_card),
            sorted_by: None,
            edge_ranges: vec![ValidityRange::unbounded()],
        };
        node = PhysNode::HashAgg {
            input: Box::new(node),
            group_by: agg.group_by.clone(),
            aggs: agg.aggs.clone(),
            props,
        };
    } else if !spec.projection.is_empty() {
        let props = PlanProps {
            tables: node.props().tables,
            card: node.props().card,
            cost: node.props().cost,
            sorted_by: node.props().sorted_by,
            edge_ranges: vec![ValidityRange::unbounded()],
        };
        node = PhysNode::Project {
            input: Box::new(node),
            cols: spec.projection.clone(),
            props,
        };
    }

    if !spec.having.is_empty() {
        let mut props = node.props().clone();
        // Conservative: HAVING selectivity defaulted.
        props.card = (props.card * 0.5).max(1.0);
        props.edge_ranges = vec![ValidityRange::unbounded()];
        node = PhysNode::Having {
            input: Box::new(node),
            preds: spec.having.clone(),
            props,
        };
    }

    // Multi-key ORDER BY: chain stable single-key sorts, least-significant
    // key first.
    for key in spec.order_by.iter().rev() {
        let mut props = node.props().clone();
        props.cost += ctx.cost.sort_cost(props.card);
        props.sorted_by = None; // positional order, not a base-column order
        props.edge_ranges = vec![ValidityRange::unbounded()];
        node = PhysNode::Sort {
            input: Box::new(node),
            key: SortKeyRef::Pos(key.pos),
            desc: key.desc,
            props,
        };
    }

    if let Some(n) = spec.limit {
        let mut props = node.props().clone();
        props.card = props.card.min(n as f64);
        props.edge_ranges = vec![ValidityRange::unbounded()];
        node = PhysNode::Limit {
            input: Box::new(node),
            n,
            props,
        };
    }

    if let Some(target) = &spec.side_effect {
        let mut props = node.props().clone();
        props.edge_ranges = vec![ValidityRange::unbounded()];
        node = PhysNode::Insert {
            input: Box::new(node),
            target: target.clone(),
            props,
        };
    }

    place_checkpoints(node, est, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Candidate, CostModel, FeedbackCache, OptimizerConfig};
    use pop_expr::Expr;
    use pop_plan::{AggFunc, QueryBuilder};
    use pop_stats::StatsRegistry;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{DataType, Schema, Value};

    fn setup() -> (Catalog, StatsRegistry) {
        let cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
            (0..200).map(|i| vec![Value::Int(i), Value::Int(i % 20)]),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::from_pairs(&[
                ("oid", DataType::Int),
                ("cust", DataType::Int),
                ("amount", DataType::Int),
            ]),
            (0..20_000).map(|i| vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 97)]),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    /// `extract` on a hand-written join candidate over `customer ⋈ orders`
    /// (canonical edge 0 = customer, edge 1 = orders, both fed by the
    /// groups' sequential scans) in split slot `slot`, which pruned the
    /// siblings in `pruned`. Returns the ranges [`edge_ranges`] solves for
    /// the candidate, the cost differences that took and the extracted
    /// node, whose cost / cardinality must be the candidate's `1234.5` /
    /// `77.0`.
    fn extract_join(
        root_spec: RootCostSpec,
        order: Option<ColId>,
        slot: u8,
        pruned: u8,
    ) -> ([ValidityRange; 2], usize, PhysNode) {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        let q = b.build().unwrap();
        let est = Memo::new().bind(&q, &ctx).unwrap();
        let nljn = matches!(root_spec, RootCostSpec::Nljn { .. });
        let mut groups: Vec<Group> = (0..4).map(|_| Group::default()).collect();
        for t in 0..2 {
            groups[1 << t] = Group::of(vec![crate::enumerate::scan_candidate(t, &est, &ctx)]);
        }
        groups[3] = Group::of(vec![Candidate {
            cost: 1234.5,
            card: 77.0,
            order,
            partition: Some((TableSet::single(0), TableSet::single(1))),
            root_spec,
            fixed_cost: 0.0,
            edge_cards: [200.0, 20_000.0],
            edge_children: [Some(0), (!nljn).then_some(0)],
            leaf: None,
            slot,
            pruned,
        }]);
        let mut searched = 0;
        let ranges = edge_ranges(&groups, &groups[3].cands[0], &est, &ctx, &mut searched);
        let mut evals = 0;
        let mut cache = SolvedRanges::new();
        let node = extract(
            &groups,
            &mut cache,
            q.all_tables(),
            0,
            &est,
            &ctx,
            &mut evals,
        );
        assert_eq!(evals, searched, "extraction solves the join's ranges once");
        let again = extract(
            &groups,
            &mut cache,
            q.all_tables(),
            0,
            &est,
            &ctx,
            &mut evals,
        );
        assert_eq!(
            evals, searched,
            "a second extraction reuses the solved ranges"
        );
        assert_eq!(format!("{again:?}"), format!("{node:?}"));
        assert_eq!(node.props().cost, 1234.5);
        assert_eq!(node.props().card, 77.0);
        assert_eq!(node.props().sorted_by, order);
        (ranges, evals, node)
    }

    #[test]
    fn extract_hsjn_building_on_edge_1_swaps_the_ranges() {
        // Slot 1 pruned the unordered siblings pruning can record: HSJN
        // building on edge 0 and the NLJN into orders (customer has no
        // index, so there is no slot 3; the MGJN is ordered).
        let (ranges, _, node) = extract_join(
            RootCostSpec::Hsjn {
                build_edge: 1,
                probe_edge: 0,
            },
            None,
            1,
            0b00101,
        );
        assert_ne!(ranges[0], ranges[1], "a swapped mapping must show");
        let PhysNode::Hsjn {
            build,
            probe,
            build_keys,
            probe_keys,
            props,
        } = &node
        else {
            panic!("expected HSJN:\n{node}");
        };
        // Physical children are [build, probe] = canonical edges [1, 0].
        assert_eq!(build.props().tables, TableSet::single(1));
        assert_eq!(probe.props().tables, TableSet::single(0));
        assert_eq!(props.edge_ranges, [ranges[1], ranges[0]]);
        assert_eq!(build_keys, &[ColId::new(1, 1)]);
        assert_eq!(probe_keys, &[ColId::new(0, 0)]);
    }

    #[test]
    fn extract_nljn_drops_the_inner_edge_range() {
        let (ranges, evals, node) = extract_join(
            RootCostSpec::Nljn {
                outer_edge: 0,
                matches_per_probe: 1.0,
            },
            None,
            2,
            0b00011,
        );
        // Only the outer edge is searched: two siblings, two searches.
        assert_ne!(ranges[0], ValidityRange::unbounded());
        assert_eq!(ranges[1], ValidityRange::unbounded());
        assert!(evals <= 2 * 2 * crate::validity::max_evals_per_search(3));
        let PhysNode::Nljn {
            outer,
            outer_key,
            inner,
            props,
        } = &node
        else {
            panic!("expected NLJN:\n{node}");
        };
        // One physical child (the outer); the inner's edge has none.
        assert_eq!(outer.props().tables, TableSet::single(0));
        assert_eq!(props.edge_ranges, [ranges[0]]);
        assert_eq!(*outer_key, ColId::new(0, 0));
        assert_eq!((inner.qidx, inner.join_col), (1, 1));
    }

    #[test]
    fn extract_mgjn_keeps_the_range_above_its_enforcer_sort() {
        let key = ColId::new(0, 0);
        let (ranges, _, node) = extract_join(
            RootCostSpec::Mgjn {
                left_edge: 0,
                right_edge: 1,
                sort_left: true,
                sort_right: false,
            },
            Some(key),
            4,
            // Synthetic: the unordered HSJN and NLJN siblings differ from
            // the ordered MGJN, so pruning never records them for it. They
            // give both edges a bounded range, each different, so that a
            // range swapped or moved onto the sort shows.
            0b00111,
        );
        assert_ne!(ranges[0], ValidityRange::unbounded());
        assert_ne!(ranges[1], ValidityRange::unbounded());
        assert_ne!(ranges[0], ranges[1]);
        let PhysNode::Mgjn {
            left, right, props, ..
        } = &node
        else {
            panic!("expected MGJN:\n{node}");
        };
        assert_eq!(props.edge_ranges, ranges);
        let PhysNode::Sort {
            input,
            props: sort_props,
            ..
        } = left.as_ref()
        else {
            panic!("expected an enforcer sort on the left:\n{node}");
        };
        assert_eq!(sort_props.edge_ranges, [ValidityRange::unbounded()]);
        assert_eq!(sort_props.sorted_by, Some(key));
        assert_eq!(
            sort_props.cost,
            input.props().cost + CostModel::default().sort_cost(input.props().card)
        );
        assert!(matches!(right.as_ref(), PhysNode::TableScan { .. }));
    }

    #[test]
    fn aggregate_plan_has_agg_on_top_of_joins() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.aggregate(
            &[(c, 1)],
            vec![AggFunc::Sum(ColId::new(o, 2)), AggFunc::Count],
        );
        b.order_by(1, true);
        let q = b.build().unwrap();
        let (plan, _) = optimize(&q, &ctx, &mut Memo::new()).unwrap();
        // Top (under possible checks): Sort over HashAgg.
        let s = plan.to_string();
        assert!(s.contains("AGG"), "plan:\n{s}");
        assert!(s.contains("SORT"), "plan:\n{s}");
        // Aggregate output: 1 group col + 2 aggs, sorted by position.
        assert_eq!(plan.columns(&q, &[2, 3]), pop_plan::Columns::Width(3));
    }

    #[test]
    fn projection_applied_without_aggregate() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        b.project(&[(o, 0), (c, 0)]);
        let q = b.build().unwrap();
        let (plan, _) = optimize(&q, &ctx, &mut Memo::new()).unwrap();
        let cols = vec![ColId::new(o, 0), ColId::new(c, 0)];
        assert_eq!(plan.columns(&q, &[2, 3]), pop_plan::Columns::Base(cols));
    }

    #[test]
    fn side_effect_gets_insert_node() {
        let (cat, stats) = setup();
        cat.create_table(
            "sink",
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![],
        )
        .unwrap();
        stats.analyze(&cat, "sink").unwrap();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.project(&[(c, 0), (o, 0)]);
        b.insert_into("sink");
        let q = b.build().unwrap();
        let (plan, _) = optimize(&q, &ctx, &mut Memo::new()).unwrap();
        let mut has_insert = false;
        plan.visit(&mut |n| {
            if matches!(n, PhysNode::Insert { .. }) {
                has_insert = true;
            }
        });
        assert!(has_insert, "plan:\n{plan}");
    }

    #[test]
    fn invalid_query_rejected() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let q = pop_plan::QuerySpec::default();
        assert!(optimize(&q, &ctx, &mut Memo::new()).is_err());
    }
}
