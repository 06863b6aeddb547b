//! Group builders for the dynamic-programming join enumeration.
//!
//! Classic System-R DP over table subsets (bushy up to
//! [`crate::OptimizerConfig::bushy_limit`] tables, left-deep beyond),
//! keeping the cheapest candidate per interesting sort order per subset.
//! This module derives the candidate list of *one* connected subset from
//! the lists of its sub-subsets; the walk over subsets — the DP loop itself
//! — is [`crate::Memo`]'s, which calls these builders for every group a
//! change reached (all of them, on a fresh memo). Which splits of a subset
//! are joins at all is the [`pop_plan::JoinGraph`]'s call, made on bit
//! masks before anything is allocated, locked or estimated.
//! At each pruning decision between candidates over the **same partition
//! and sort order** (= structurally equivalent plans in the paper's sense,
//! §2.2), the winner records the loser's slot in its split
//! ([`Candidate::pruned`]). Nothing is solved here: the paper's validity
//! ranges are read only for the joins of the extracted plan, so
//! `finalize::extract` rebuilds those joins' pruned siblings with
//! [`split_candidates`] and runs the root search for them alone.
//!
//! A join candidate is a cost record that names its inputs by index in the
//! child groups; nothing here builds or copies an operator that has
//! children. `finalize::extract` turns the one winning record into a tree.

use crate::memo::Group;
use crate::{Candidate, CardEstimator, MemoStats, OptimizerContext, RootCostSpec};
use pop_expr::Expr;
use pop_plan::{CostModel, JoinPred, PhysNode, PlanProps, TableSet};
use pop_storage::TempMv;
use pop_types::{ColId, PopResult};

/// Candidate list for a single base relation, into `list`: sequential
/// scan, index range scans, the temp MV registered for it (`mv`, if any)
/// — in that insertion order (pruning decisions depend on it).
pub(crate) fn build_singleton_group(
    list: &mut Vec<Candidate>,
    t: usize,
    mv: Option<&TempMv>,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> PopResult<()> {
    insert_candidate(list, scan_candidate(t, est, ctx));
    for cand in index_range_candidates(t, est, ctx)? {
        insert_candidate(list, cand);
    }
    if let Some(mv) = mv {
        insert_candidate(list, mv_candidate(TableSet::single(t), mv, est, ctx));
    }
    Ok(())
}

/// Candidate list for a join group, into `list`: a connected `set` of two
/// or more tables with estimated cardinality `card` and, possibly, a temp
/// MV registered for it, reading child groups out of the mask-indexed DP
/// table. Every connected proper subset of `set` must already be final in
/// `groups`; splits are visited in the join graph's fixed order, so
/// pruning sequences — and thus the siblings a winner records — depend only
/// on the child groups.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_join_group(
    list: &mut Vec<Candidate>,
    set: TableSet,
    card: f64,
    mv: Option<&TempMv>,
    groups: &[Group],
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
    stats: &mut MemoStats,
) {
    let bushy = est.spec().tables.len() <= ctx.config.bushy_limit;
    if let Some(mv) = mv {
        insert_candidate(list, mv_candidate(set, mv, est, ctx));
    }
    for (s1, s2) in est.graph().splits(set, bushy) {
        // A connected side can still be unplannable (say, NLJN only and no
        // index): such a split has nothing to cost.
        let planned = split_candidates(s1, s2, card, groups, est, ctx, |cand| {
            stats.candidates_built += 1;
            insert_candidate(list, cand);
        });
        if planned {
            stats.splits_costed += 1;
        }
    }
}

/// The join candidates of one split of a group with cardinality
/// `out_card` into two connected, adjacent sides, handed to `emit` in
/// [`Candidate::slot`] order (a slot whose method is off or does not apply
/// is skipped); `false`, with nothing emitted, when a side has no plan.
/// Each is a cost record over the partition's two canonical edges that
/// names its inputs by index; no operator is built and nothing is allocated
/// unless the split has a multi-predicate NLJN. Enumeration offers them to
/// pruning as they come; extraction calls this again, over the same final
/// child groups, to rebuild the siblings a winner pruned — bit for bit.
pub(crate) fn split_candidates(
    s1: TableSet,
    s2: TableSet,
    out_card: f64,
    groups: &[Group],
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
    mut emit: impl FnMut(Candidate),
) -> bool {
    let spec = est.spec();
    // Canonical edge order: smaller mask first.
    let (a, b) = if s1.mask() < s2.mask() {
        (s1, s2)
    } else {
        (s2, s1)
    };
    let [ga, gb] = [a, b].map(|side| &groups[side.mask() as usize]);
    let (Some(best_a), Some(best_b)) = (ga.cheapest(), gb.cheapest()) else {
        return false;
    };
    let preds = || est.graph().preds_between(a, b).map(|i| &spec.join_preds[i]);
    let sides = [a, b];
    let best = [best_a, best_b];
    // The child groups were built for exactly these estimates.
    let edge_cards = [ga.card(), gb.card()];
    let join = |slot: u8,
                root_spec: RootCostSpec,
                order: Option<ColId>,
                inputs: [Option<(usize, &Candidate)>; 2]| {
        let fixed: f64 = inputs.iter().flatten().map(|(_, c)| c.cost).sum();
        let cost = fixed + crate::root_local_cost(ctx.cost, &root_spec, &edge_cards);
        Candidate {
            cost,
            card: out_card,
            order,
            partition: Some((a, b)),
            root_spec,
            fixed_cost: fixed,
            edge_cards,
            edge_children: inputs.map(|i| i.map(|(idx, _)| idx)),
            leaf: None,
            slot,
            pruned: 0,
        }
    };

    // HSJN (both build orientations); the output keeps the probe's order.
    if ctx.config.joins.hsjn {
        for build_edge in [0, 1] {
            let probe_edge = 1 - build_edge;
            emit(join(
                build_edge as u8,
                RootCostSpec::Hsjn {
                    build_edge,
                    probe_edge,
                },
                best[probe_edge].1.order,
                best.map(Some),
            ));
        }
    }

    // NLJN: the inner must be a single table probed through an index, so
    // only the outer edge has a planned input.
    if ctx.config.joins.nljn {
        for outer_edge in [0, 1] {
            let inner = sides[1 - outer_edge];
            if inner.len() != 1 {
                continue;
            }
            let t = inner.iter().next().expect("singleton");
            let Some(probe) = nljn_probe(preds(), t, est) else {
                continue;
            };
            let mut inputs = [None, None];
            inputs[outer_edge] = Some(best[outer_edge]);
            emit(join(
                2 + outer_edge as u8,
                RootCostSpec::Nljn {
                    outer_edge,
                    matches_per_probe: est.matches_per_probe(ColId::new(t, probe.join_col)),
                },
                best[outer_edge].1.order,
                inputs,
            ));
        }
    }

    // MGJN: single-column equi-join only (multi-predicate joins go to HSJN
    // or NLJN with residuals).
    let mut preds = preds();
    if let (Some(pred), None, true) = (preds.next(), preds.next(), ctx.config.joins.mgjn) {
        if let Some((key_a, key_b)) = pred.split(a) {
            let (left, sort_left) = pick_for_order(&ga.cands, key_a, best_a);
            let (right, sort_right) = pick_for_order(&gb.cands, key_b, best_b);
            emit(join(
                4,
                RootCostSpec::Mgjn {
                    left_edge: 0,
                    right_edge: 1,
                    sort_left,
                    sort_right,
                },
                Some(key_a),
                [Some(left), Some(right)],
            ));
        }
    }
    true
}

/// How an NLJN probes its inner table.
pub(crate) struct NljnProbe {
    /// Outer column compared with the indexed inner column.
    pub(crate) outer_key: ColId,
    /// Inner column probed through its index.
    pub(crate) join_col: usize,
    /// Remaining join predicates `(outer column, inner column)`, verified
    /// after the fetch.
    pub(crate) residual: Vec<(ColId, usize)>,
}

/// The probe an NLJN over `preds` would use into the single table `t`: the
/// first join predicate whose inner column has an index drives it, the rest
/// are residuals. `None` when no predicate can — the enumerator then offers
/// no NLJN, and extraction asks again for the one it did offer.
pub(crate) fn nljn_probe<'a>(
    preds: impl IntoIterator<Item = &'a JoinPred>,
    t: usize,
    est: &CardEstimator,
) -> Option<NljnProbe> {
    let mut probe: Option<(ColId, usize)> = None;
    let mut residual = Vec::new();
    for j in preds {
        if let Some((k_inner, k_outer)) = j.split(TableSet::single(t)) {
            if probe.is_none() && est.is_indexed(t, k_inner.col) {
                probe = Some((k_outer, k_inner.col));
            } else {
                residual.push((k_outer, k_inner.col));
            }
        }
    }
    probe.map(|(outer_key, join_col)| NljnProbe {
        outer_key,
        join_col,
        residual,
    })
}

/// Base-table scan candidate with pushed-down local predicates.
pub(crate) fn scan_candidate(
    qidx: usize,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> Candidate {
    let spec = est.spec();
    let pred = combine_local_preds(spec.local_preds_of(qidx));
    let raw = est.raw_card(qidx);
    let card = est.card(TableSet::single(qidx));
    // Tables can be planned before ANALYZE ran; missing stats just mean
    // no page term (matching the flat model).
    let pages = ctx
        .stats
        .get(&spec.tables[qidx].table)
        .map_or(0.0, |s| s.pages as f64);
    let cost = ctx.cost.scan_cost(raw, pages);
    leaf_candidate(PhysNode::TableScan {
        qidx,
        table: spec.tables[qidx].table.clone(),
        pred,
        props: PlanProps::leaf(TableSet::single(qidx), card, cost),
    })
}

/// The cost record of a finished childless node (scan, index range scan,
/// MV scan), which reads cost, cardinality and order off the node.
fn leaf_candidate(node: PhysNode) -> Candidate {
    let props = node.props();
    Candidate {
        cost: props.cost,
        card: props.card,
        order: props.sorted_by,
        partition: None,
        root_spec: RootCostSpec::Fixed { cost: props.cost },
        fixed_cost: 0.0,
        edge_cards: [0.0; 2],
        edge_children: [None; 2],
        leaf: Some(Box::new(node)),
        slot: 0,
        pruned: 0,
    }
}

/// Index-range-scan candidates: one per local conjunct of the form
/// `col CMP literal` (or BETWEEN literals) whose column has a sorted
/// index. The full local predicate is kept as a residual, so the bounds
/// only need to be a superset of the matching rows. The output is sorted
/// by the indexed column — free interesting order for merge joins.
fn index_range_candidates(
    qidx: usize,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> PopResult<Vec<Candidate>> {
    use pop_expr::CmpOp;
    use pop_types::Value;

    let spec = est.spec();
    let table = ctx.catalog.table(&spec.tables[qidx].table)?;
    let Some(full_pred) = combine_local_preds(spec.local_preds_of(qidx)) else {
        return Ok(Vec::new());
    };
    let raw = est.raw_card(qidx);
    let card = est.card(TableSet::single(qidx));
    let stats = ctx.stats.get(&spec.tables[qidx].table)?;
    let mut out = Vec::new();
    for conjunct in full_pred.conjuncts() {
        // Extract (column, lo, hi) bounds from the conjunct. Bounds are
        // inclusive supersets; the residual re-checks exactly.
        let bounds: Option<(usize, Option<Value>, Option<Value>)> = match conjunct {
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => match op {
                    CmpOp::Eq => Some((c.col, Some(v.clone()), Some(v.clone()))),
                    CmpOp::Le | CmpOp::Lt => Some((c.col, None, Some(v.clone()))),
                    CmpOp::Ge | CmpOp::Gt => Some((c.col, Some(v.clone()), None)),
                    CmpOp::Ne => None,
                },
                (Expr::Lit(v), Expr::Col(c)) => match op.flip() {
                    CmpOp::Eq => Some((c.col, Some(v.clone()), Some(v.clone()))),
                    CmpOp::Le | CmpOp::Lt => Some((c.col, None, Some(v.clone()))),
                    CmpOp::Ge | CmpOp::Gt => Some((c.col, Some(v.clone()), None)),
                    CmpOp::Ne => None,
                },
                _ => None,
            },
            Expr::Between(e, lo, hi) => match (e.as_ref(), lo.as_ref(), hi.as_ref()) {
                (Expr::Col(c), Expr::Lit(l), Expr::Lit(h)) => {
                    Some((c.col, Some(l.clone()), Some(h.clone())))
                }
                _ => None,
            },
            _ => None,
        };
        let Some((col, lo, hi)) = bounds else {
            continue;
        };
        if ctx.catalog.find_index(table.id(), col, true).is_none() {
            continue;
        }
        // Cost: one descent plus a fetch per row matching *this conjunct*.
        let sel = pop_stats::estimate_selectivity(conjunct, &stats, &ctx.defaults);
        let matching = sel * raw;
        let pages = CostModel::touched_pages(matching, stats.pages as f64);
        let cost = ctx.cost.index_access(1.0, matching.max(0.0), pages);
        let mut props = PlanProps::leaf(TableSet::single(qidx), card, cost);
        props.sorted_by = Some(ColId::new(qidx, col));
        out.push(leaf_candidate(PhysNode::IndexRangeScan {
            qidx,
            table: spec.tables[qidx].table.clone(),
            column: col,
            lo,
            hi,
            residual: Some(full_pred.clone()),
            props,
        }));
    }
    Ok(out)
}

/// Scan candidate of the temp MV `mv` the catalog holds for `set` (§2.3:
/// the MV competes with recomputation on cost). It is costed at the MV's
/// rows but carries the group's cardinality, as every candidate of the
/// group does and as its parents' costs and validity ranges assume: after
/// a violation the driver feeds the MV's exact count back, so the two
/// agree; a forced re-optimization feeds nothing back and plans under the
/// estimates it had.
fn mv_candidate(
    set: TableSet,
    mv: &TempMv,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> Candidate {
    let rows = mv.actual_card as f64;
    // Page count is a deterministic function of the MV contents, so it is
    // identical across storage backends.
    let pages = mv.table.page_count() as f64;
    let cost = ctx.cost.mv_scan_cost(rows, pages);
    leaf_candidate(PhysNode::MvScan {
        mv_name: mv.table.name().to_string(),
        props: PlanProps::leaf(set, est.card(set), cost),
    })
}

/// AND together a table's local predicates.
pub(crate) fn combine_local_preds(preds: Vec<&Expr>) -> Option<Expr> {
    let mut it = preds.into_iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, pop_expr::Expr::and))
}

/// Candidate to feed a merge join needing order on `key`, out of a child
/// group's `cands`: prefer one that is already sorted (no enforcer), else
/// the group's cheapest plus a sort.
fn pick_for_order<'g>(
    cands: &'g [Candidate],
    key: ColId,
    cheapest: (usize, &'g Candidate),
) -> ((usize, &'g Candidate), bool) {
    cands
        .iter()
        .enumerate()
        .filter(|(_, c)| c.order == Some(key))
        .min_by(|(_, x), (_, y)| x.cost.total_cmp(&y.cost))
        .map_or((cheapest, true), |sorted| (sorted, false))
}

/// `a` dominates `b` when it costs no more and provides `b`'s order.
fn dominates(a: &Candidate, b: &Candidate) -> bool {
    a.cost <= b.cost && (b.order.is_none() || a.order == b.order)
}

/// Are two candidates structurally equivalent (same partition, same
/// properties)? Only then does pruning narrow validity ranges (§2.2).
fn structurally_equivalent(a: &Candidate, b: &Candidate) -> bool {
    a.partition.is_some() && a.partition == b.partition && a.order == b.order
}

/// Insert a candidate with dominance pruning. A winner over a structurally
/// equivalent loser records the loser's slot, so extraction can narrow the
/// winner's validity ranges against it. A split visited twice (left-deep
/// order offers a two-table set's one partition from both sides) builds
/// each slot twice, identically: narrowing a plan against its own copy
/// declares nothing, so a winner never records its own slot.
fn insert_candidate(list: &mut Vec<Candidate>, mut new: Candidate) {
    // Is the newcomer pruned by an existing candidate?
    for ex in list.iter_mut() {
        if dominates(ex, &new) {
            if structurally_equivalent(ex, &new) && ex.slot != new.slot {
                ex.pruned |= 1 << new.slot;
            }
            return;
        }
    }
    // The newcomer survives: evict candidates it dominates, keeping the
    // order of the rest.
    let mut pruned = new.pruned;
    list.retain(|old| {
        let evicted = dominates(&new, old);
        if evicted && structurally_equivalent(&new, old) && old.slot != new.slot {
            pruned |= 1 << old.slot;
        }
        !evicted
    });
    new.pruned = pruned;
    list.push(new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, CostModel, FeedbackCache, Memo, OptimizerConfig};
    use pop_plan::QueryBuilder;
    use pop_stats::StatsRegistry;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{DataType, Schema, Value};

    /// customer (small) / orders (large, indexed on cust).
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
        cat.create_index("customer", "id", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn run(
        cfg: &OptimizerConfig,
        cat: &Catalog,
        stats: &StatsRegistry,
        filter_grp: bool,
    ) -> PhysNode {
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(cat, stats, cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        if filter_grp {
            b.filter(c, pop_expr::Expr::col(c, 1).eq(pop_expr::Expr::lit(3i64)));
        }
        let q = b.build().unwrap();
        optimize(&q, &ctx, &mut Memo::new()).unwrap().0
    }

    #[test]
    fn small_outer_prefers_nljn() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        // Filtered customer (~10 rows) joined to 20k orders: NLJN must win.
        let plan = run(&cfg, &cat, &stats, true);
        assert!(
            plan.join_shape().contains("NLJN"),
            "expected NLJN, got:\n{plan}"
        );
    }

    #[test]
    fn large_outer_prefers_hash_join() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        // No filter: all 200 customers x 20k orders — probing 20000*... vs
        // hash: HSJN should win over an NLJN with a 20k-row outer... the
        // outer here would be customer (200 rows), which still favours
        // NLJN; force the decision by disabling NLJN and checking HSJN
        // beats MGJN.
        let cfg2 = OptimizerConfig {
            joins: crate::JoinMethods {
                nljn: false,
                ..Default::default()
            },
            ..cfg
        };
        let plan = run(&cfg2, &cat, &stats, false);
        assert!(
            plan.join_shape().contains("HSJN"),
            "expected HSJN, got:\n{plan}"
        );
    }

    #[test]
    fn disabling_hash_join_yields_merge_join() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig {
            joins: crate::JoinMethods {
                nljn: false,
                hsjn: false,
                mgjn: true,
            },
            ..OptimizerConfig::default()
        };
        let plan = run(&cfg, &cat, &stats, false);
        assert!(
            plan.join_shape().contains("MGJN"),
            "expected MGJN, got:\n{plan}"
        );
        // Enforcer sorts are materialization points.
        let mut sorts = 0;
        plan.visit(&mut |n| {
            if matches!(n, PhysNode::Sort { .. }) {
                sorts += 1;
            }
        });
        assert!(sorts >= 1, "merge join should have enforcer sorts");
    }

    #[test]
    fn nljn_outer_edge_gets_finite_validity_range() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let plan = run(&cfg, &cat, &stats, true);
        // The winning NLJN pruned HSJN/MGJN alternatives over the same
        // partition, so its outer edge must have a finite upper bound:
        // beyond it, hash join provably wins.
        let mut found = false;
        plan.visit(&mut |n| {
            if let PhysNode::Nljn { props, .. } = n {
                if props.edge_ranges[0].hi.is_finite() {
                    found = true;
                }
            }
        });
        assert!(
            found,
            "NLJN outer edge should have a finite validity upper bound:\n{plan}"
        );
    }

    #[test]
    fn validity_range_contains_estimate() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let plan = run(&cfg, &cat, &stats, true);
        plan.visit(&mut |n| {
            for (child, range) in n.children().iter().zip(n.props().edge_ranges.iter()) {
                let est = child.props().card;
                assert!(
                    range.contains(est),
                    "edge range {range} must contain the estimate {est}"
                );
            }
        });
    }

    #[test]
    fn three_way_join_produces_connected_plan() {
        let (cat, stats) = setup();
        cat.create_table(
            "nation",
            Schema::from_pairs(&[("nid", DataType::Int), ("name", DataType::Str)]),
            (0..25).map(|i| vec![Value::Int(i), Value::str(format!("n{i}"))]),
        )
        .unwrap();
        cat.create_index("nation", "nid", IndexKind::Hash).unwrap();
        stats.analyze(&cat, "nation").unwrap();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        let nat = b.table("nation");
        b.join(c, 0, o, 1);
        b.join(c, 1, nat, 0); // grp -> nid (toy FK)
        let q = b.build().unwrap();
        let (plan, _) = optimize(&q, &ctx, &mut Memo::new()).unwrap();
        assert_eq!(plan.props().tables, q.all_tables());
        assert!(plan.props().cost > 0.0);
    }

    #[test]
    fn mv_scan_replaces_subplan_when_cheap() {
        let (cat, stats) = setup();
        let cfg = OptimizerConfig::default();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        // Register a temp MV for the filtered customer subplan.
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, pop_expr::Expr::col(c, 1).eq(pop_expr::Expr::lit(3i64)));
        let q = b.build().unwrap();
        let id = cat.allocate_temp_id();
        let mv_table = std::sync::Arc::new(pop_storage::Table::new(
            id,
            "__mv_test",
            Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
            (0..10)
                .map(|i| vec![Value::Int(i), Value::Int(3)])
                .collect(),
        ));
        cat.register_temp_mv(pop_storage::TempMv {
            table: mv_table,
            tables: 1,
            layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            actual_card: 10,
            lineage: None,
        });
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let (plan, _) = optimize(&q, &ctx, &mut Memo::new()).unwrap();
        let mut has_mv = false;
        plan.visit(&mut |n| {
            if matches!(n, PhysNode::MvScan { .. }) {
                has_mv = true;
            }
        });
        assert!(
            has_mv,
            "the cheap MV should replace the customer scan:\n{plan}"
        );
    }

    #[test]
    fn mv_disabled_by_config() {
        let (cat, stats) = setup();
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        let q = b.build().unwrap();
        let id = cat.allocate_temp_id();
        cat.register_temp_mv(pop_storage::TempMv {
            table: std::sync::Arc::new(pop_storage::Table::new(
                id,
                "__mv_x",
                Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
                vec![],
            )),
            tables: 1,
            layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            actual_card: 0,
            lineage: None,
        });
        let cfg = OptimizerConfig {
            use_temp_mvs: false,
            ..OptimizerConfig::default()
        };
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &fb);
        let (plan, _) = optimize(&q, &ctx, &mut Memo::new()).unwrap();
        let mut has_mv = false;
        plan.visit(&mut |n| {
            if matches!(n, PhysNode::MvScan { .. }) {
                has_mv = true;
            }
        });
        assert!(!has_mv);
    }
}
