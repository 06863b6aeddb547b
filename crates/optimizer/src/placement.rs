//! CHECK placement post-pass (§4, Table 1).
//!
//! After the optimal plan is chosen, this pass inserts checkpoints
//! according to the enabled flavors:
//!
//! * **LC** above every materialization point: SORT and TEMP nodes, and the
//!   build edge of every hash join;
//! * **LCEM** — a TEMP/CHECK pair on the outer of every NLJN that has no
//!   natural materialization (the paper's heuristic: if the optimizer
//!   picked NLJN, the outer is expected to be small, so materializing it is
//!   cheap insurance);
//! * **ECB** — a BUFCHECK on NLJN outers instead of (or below) the LCEM;
//! * **ECWC** below materialization points;
//! * **ECDC** above join roots of pipelined SPJ plans, with a rid side
//!   table (RIDSINK) recording returned rows for later compensation.
//!
//! Check ranges come from the validity ranges the optimizer solved for
//! the plan's joins at extraction; ranges propagate through *count-preserving* operators
//! (SORT, TEMP, CHECK, PROJECT, RIDSINK, INSERT) by intersection. Queries
//! cheaper than [`crate::OptimizerConfig::check_cost_threshold`] get no
//! checkpoints at all.
//!
//! The pass is one in-place walk over the optimizer's single plan tree: it
//! constructs only the nodes it inserts (CHECK, BUFCHECK, TEMP, RIDSINK),
//! and each node absorbs once what the guards below it added to the cost.

use crate::{CardEstimator, OptimizerContext, ValidityMode};
use pop_plan::{CheckContext, CheckFlavor, CheckSpec, PhysNode, PlanProps, ValidityRange};

struct PlaceState<'a, 'b> {
    ctx: &'a OptimizerContext<'b>,
    next_id: usize,
    is_spj: bool,
}

impl PlaceState<'_, '_> {
    /// The trigger range a check below `below` would actually get, after
    /// the validity-mode override.
    fn resolved_range(&self, below: &PhysNode, range: ValidityRange) -> ValidityRange {
        match self.ctx.config.validity_mode {
            ValidityMode::Ranges => range,
            ValidityMode::FixedFactor(k) => {
                let k = k.max(1.0);
                let est_card = below.props().card;
                ValidityRange::new(est_card / k, est_card * k)
            }
        }
    }

    fn make_spec(
        &mut self,
        flavor: CheckFlavor,
        below: &PhysNode,
        range: ValidityRange,
        context: CheckContext,
    ) -> CheckSpec {
        let id = self.next_id;
        self.next_id += 1;
        let est_card = below.props().card;
        let range = self.resolved_range(below, range);
        CheckSpec {
            id,
            flavor,
            range,
            est_card,
            context,
        }
    }
}

/// Insert checkpoints into a finished plan. Returns the plan unchanged if
/// no flavor is enabled or the plan is below the cost threshold.
pub(crate) fn place_checkpoints(
    mut plan: PhysNode,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> PhysNode {
    if !ctx.config.flavors.any() || plan.props().cost < ctx.config.check_cost_threshold {
        return plan;
    }
    let is_spj = est.spec().aggregate.is_none() && est.spec().side_effect.is_none();
    let mut st = PlaceState {
        ctx,
        next_id: 0,
        is_spj,
    };
    place(&mut plan, ValidityRange::unbounded(), &mut st);
    // ECDC needs the rid side table: record every returned row's lineage.
    if ctx.config.flavors.ecdc && is_spj {
        plan.replace_with(|root| {
            let mut props = root.props().clone();
            props.cost += ctx.cost.rid_sink(props.card);
            // One pass-through input: the root's own edge ranges describe
            // no edge of the sink.
            props.edge_ranges = vec![ValidityRange::unbounded()];
            PhysNode::RidSink {
                input: Box::new(root),
                props,
            }
        });
    }
    plan
}

/// Is this node (looking through checks) already a materialized input?
fn materialized_through_checks(node: &PhysNode) -> bool {
    match node {
        PhysNode::Check { input, .. } | PhysNode::BufCheck { input, .. } => {
            materialized_through_checks(input)
        }
        _ => node.counted_at_open(),
    }
}

/// Is this subplan's cardinality exact at *runtime*, independent of
/// statistics? A temp-MV scan replays rows materialized earlier in this
/// very query, so its count is a physical fact, not an estimate;
/// count-preserving wrappers keep the exactness. Checkpoints guard
/// against estimation error, so one placed on such an edge can provably
/// never fire — placement skips it. Base-table scans do NOT qualify, even
/// without a predicate: statistics can be stale, and catching exactly
/// that is POP's job. So a CHECK on an edge bounded by a tiny dimension
/// table (region, nation) stays, though it is dead while the statistics
/// hold: it is the only guard against their going stale there.
fn provably_exact(node: &PhysNode) -> bool {
    match node {
        PhysNode::MvScan { .. } => true,
        PhysNode::Sort { input, .. }
        | PhysNode::Temp { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Check { input, .. }
        | PhysNode::BufCheck { input, .. }
        | PhysNode::RidSink { input, .. } => provably_exact(input),
        _ => false,
    }
}

/// Does this node emit exactly the rows of its input edge? Then the range
/// on the edge above it also bounds the edge below it.
fn count_preserving(node: &PhysNode) -> bool {
    matches!(
        node,
        PhysNode::Sort { .. }
            | PhysNode::Temp { .. }
            | PhysNode::Check { .. }
            | PhysNode::BufCheck { .. }
            | PhysNode::Project { .. }
            | PhysNode::RidSink { .. }
            | PhysNode::Insert { .. }
    )
}

/// The props of a node inserted above `node`: `node`'s, with one input
/// edge carrying `range`, and on top of `node`'s cost the inserted node's
/// `own` cost: the runtime's charge for it at `node`'s estimated card.
fn wrapper_props(node: &PhysNode, range: ValidityRange, own: impl Fn(f64) -> f64) -> PlanProps {
    let p = node.props();
    PlanProps {
        tables: p.tables,
        card: p.card,
        cost: p.cost + own(p.card),
        layout: p.layout.clone(),
        sorted_by: p.sorted_by,
        edge_ranges: vec![range],
    }
}

/// Wrap `node` in a CHECK of the given flavor, in place.
fn wrap_check(
    node: &mut PhysNode,
    flavor: CheckFlavor,
    range: ValidityRange,
    context: CheckContext,
    st: &mut PlaceState,
) {
    let spec = st.make_spec(flavor, node, range, context);
    let (m, exact) = (st.ctx.cost, node.counted_at_open());
    let props = wrapper_props(node, range, |card| m.check_cost(card, exact));
    node.replace_with(|input| PhysNode::Check {
        input: Box::new(input),
        spec,
        props,
    });
}

/// BUFCHECK buffer (rows) when the validity range has no finite upper
/// bound to size it by.
const ECB_BUFFER_ROWS: usize = 1_000;

fn wrap_bufcheck(node: &mut PhysNode, range: ValidityRange, st: &mut PlaceState) {
    let spec = st.make_spec(CheckFlavor::Ecb, node, range, CheckContext::NljnOuter);
    let buffer = if spec.range.hi.is_finite() {
        (spec.range.hi as usize).saturating_add(1)
    } else {
        ECB_BUFFER_ROWS
    };
    let m = st.ctx.cost;
    let props = wrapper_props(node, range, |card| m.bufcheck_cost(card, buffer as f64));
    node.replace_with(|input| PhysNode::BufCheck {
        input: Box::new(input),
        spec,
        buffer,
        props,
    });
}

fn wrap_temp(node: &mut PhysNode, st: &mut PlaceState) {
    let m = st.ctx.cost;
    let props = wrapper_props(node, ValidityRange::unbounded(), |card| m.temp_cost(card));
    node.replace_with(|input| PhysNode::Temp {
        input: Box::new(input),
        props,
    });
}

/// Walk the tree inserting checkpoints in place. `incoming` is the validity
/// range on the edge *above* this node, already intersected through
/// count-preserving ancestors. For each input edge in turn: place below it,
/// then put the consumer's guard on the edge; the node then absorbs what
/// the guards added to its inputs' costs, and finally gets the guard that
/// belongs above it.
fn place(node: &mut PhysNode, incoming: ValidityRange, st: &mut PlaceState) {
    let flavors = st.ctx.config.flavors;
    let passes_count = count_preserving(node);
    let is_nljn = matches!(node, PhysNode::Nljn { .. });
    let mut below_delta = 0.0;
    for i in 0..node.arity() {
        let mut range = node.props().edge_range(i);
        if passes_count {
            range = incoming.intersect(&range);
        }
        let rule = edge_rule(node, i, st);
        let child = node.child_mut(i);
        let cost_before = child.props().cost;
        place(child, range, st);
        if is_nljn {
            guard_nljn_outer(child, range, st);
        } else if let Some((flavor, context)) = rule {
            // An edge that already carries a guard gets no second one; the
            // aggregate also accepts the guard of a materialized input.
            let guarded = if context == CheckContext::AggBuild {
                matches!(child, PhysNode::Check { .. } | PhysNode::BufCheck { .. })
                    || materialized_through_checks(child)
            } else {
                matches!(child, PhysNode::Check { .. })
            };
            if !guarded && !provably_exact(child) {
                wrap_check(child, flavor, range, context, st);
            }
        }
        below_delta += child.props().cost - cost_before;
    }
    // Keep cumulative costs consistent: inserted checks/temps raised the
    // subtree cost below us.
    node.props_mut().cost += below_delta;

    // LC above every materialization point, ECDC above every join of a
    // pipelined SPJ plan.
    let above = match node {
        PhysNode::Sort { .. } | PhysNode::Temp { .. } if !flavors.lc || provably_exact(node) => {
            None
        }
        PhysNode::Sort { .. } => Some((CheckFlavor::Lc, CheckContext::AboveSort)),
        PhysNode::Temp { .. } => Some((CheckFlavor::Lc, CheckContext::AboveTemp)),
        PhysNode::Nljn { .. } | PhysNode::Hsjn { .. } | PhysNode::Mgjn { .. }
            if flavors.ecdc && st.is_spj =>
        {
            Some((CheckFlavor::Ecdc, CheckContext::Pipeline))
        }
        _ => None,
    };
    if let Some((flavor, context)) = above {
        wrap_check(node, flavor, incoming, context, st);
    }
}

/// The CHECK that Table 1 puts on input edge `edge` of `consumer`, if its
/// flavor is enabled. (NLJN outers take several: [`guard_nljn_outer`].)
fn edge_rule(
    consumer: &PhysNode,
    edge: usize,
    st: &PlaceState,
) -> Option<(CheckFlavor, CheckContext)> {
    let flavors = st.ctx.config.flavors;
    match (consumer, edge) {
        // The hash-join build is a materialization point: an LC on its
        // input edge costs nothing and fires when the build completes (or
        // overflows its range mid-build).
        (PhysNode::Hsjn { .. }, 0) if flavors.lc => {
            Some((CheckFlavor::Lc, CheckContext::HashBuild))
        }
        // ECDC: the probe side streams to the consumer; a pipelined check
        // there catches probe-cardinality errors.
        (PhysNode::Hsjn { .. }, 1) if flavors.ecdc && st.is_spj => {
            Some((CheckFlavor::Ecdc, CheckContext::Pipeline))
        }
        (PhysNode::Sort { .. } | PhysNode::Temp { .. }, _) if flavors.ecwc => {
            Some((CheckFlavor::Ecwc, CheckContext::BelowMaterialization))
        }
        // The aggregate's hash table is a materialization point that fully
        // consumes its input before emitting: a pipelined input reaching it
        // unobserved is the last chance to catch a cardinality error. LC
        // guards the edge like any other materialization point.
        (PhysNode::HashAgg { .. }, _) if flavors.lc => {
            Some((CheckFlavor::Lc, CheckContext::AggBuild))
        }
        _ => None,
    }
}

/// The NLJN outer is the edge the paper spends most flavors on.
fn guard_nljn_outer(outer: &mut PhysNode, range: ValidityRange, st: &mut PlaceState) {
    let flavors = st.ctx.config.flavors;
    // A materialized outer already has its LC; a provably exact one (e.g. a
    // temp-MV reuse after re-optimization) needs no insurance: any check
    // on it would be dead.
    if materialized_through_checks(outer) || provably_exact(outer) {
        return;
    }
    // ECB below, LCEM above (§3.4: "couple both approaches, placing an LCEM
    // above an ECB so that the ECB can prevent the materialization from
    // growing beyond bounds").
    if flavors.ecb {
        wrap_bufcheck(outer, range, st);
    }
    if flavors.lcem {
        wrap_temp(outer, st);
        wrap_check(outer, CheckFlavor::Lcem, range, CheckContext::NljnOuter, st);
    }
    // ECDC: a purely pipelined check on the outer edge (Figure 9's P1/P2
    // split) — only when no blocking guard sits there already.
    if flavors.ecdc && st.is_spj && !flavors.lcem && !flavors.ecb {
        wrap_check(outer, CheckFlavor::Ecdc, range, CheckContext::Pipeline, st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, FeedbackCache, FlavorSet, JoinMethods, OptimizerConfig};
    use pop_expr::Expr;
    use pop_plan::{CheckFlavor, QueryBuilder, QuerySpec};
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
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..20_000).map(|i| vec![Value::Int(i), Value::Int(i % 200)]),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn query() -> QuerySpec {
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
        b.build().unwrap()
    }

    fn place(cfg: &OptimizerConfig) -> PhysNode {
        let (cat, stats) = setup();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, cfg, &cost, None, &fb);
        // A join-only query at one thread: `optimize` is enumeration plus
        // the placement pass under test.
        crate::optimize(&query(), &ctx, &mut crate::Memo::new())
            .unwrap()
            .0
    }

    #[test]
    fn lcem_guards_nljn_outer() {
        let plan = place(&OptimizerConfig::default());
        let checks = plan.checks();
        assert!(
            checks.iter().any(|c| c.flavor == CheckFlavor::Lcem),
            "expected an LCEM checkpoint:\n{plan}"
        );
        // LCEM sits above a TEMP it introduced.
        let mut found_pair = false;
        plan.visit(&mut |n| {
            if let PhysNode::Check { input, spec, .. } = n {
                if spec.flavor == CheckFlavor::Lcem
                    && matches!(input.as_ref(), PhysNode::Temp { .. })
                {
                    found_pair = true;
                }
            }
        });
        assert!(found_pair, "LCEM must be a CHECK-above-TEMP pair:\n{plan}");
    }

    #[test]
    fn no_flavors_no_checks() {
        let cfg = OptimizerConfig {
            flavors: FlavorSet::none(),
            ..Default::default()
        };
        let plan = place(&cfg);
        assert!(plan.checks().is_empty());
    }

    #[test]
    fn cheap_queries_get_no_checks() {
        let cfg = OptimizerConfig {
            check_cost_threshold: f64::INFINITY,
            ..Default::default()
        };
        let plan = place(&cfg);
        assert!(plan.checks().is_empty());
    }

    #[test]
    fn ecb_places_bufcheck() {
        let cfg = OptimizerConfig {
            flavors: FlavorSet {
                lc: false,
                lcem: false,
                ecb: true,
                ecwc: false,
                ecdc: false,
            },
            ..Default::default()
        };
        let plan = place(&cfg);
        let mut bufchecks = 0;
        plan.visit(&mut |n| {
            if matches!(n, PhysNode::BufCheck { .. }) {
                bufchecks += 1;
            }
        });
        assert!(bufchecks >= 1, "expected a BUFCHECK:\n{plan}");
    }

    #[test]
    fn lc_guards_hash_build_and_sorts() {
        // Disable NLJN so the plan uses HSJN or MGJN.
        let cfg = OptimizerConfig {
            joins: JoinMethods {
                nljn: false,
                ..Default::default()
            },
            flavors: FlavorSet {
                lc: true,
                lcem: false,
                ecb: false,
                ecwc: false,
                ecdc: false,
            },
            ..Default::default()
        };
        let plan = place(&cfg);
        let lcs = plan
            .checks()
            .iter()
            .filter(|c| c.flavor == CheckFlavor::Lc)
            .count();
        assert!(lcs >= 1, "expected LC checkpoints:\n{plan}");
    }

    #[test]
    fn ecdc_adds_ridsink_for_spj() {
        let cfg = OptimizerConfig {
            flavors: FlavorSet {
                lc: false,
                lcem: false,
                ecb: false,
                ecwc: false,
                ecdc: true,
            },
            ..Default::default()
        };
        let plan = place(&cfg);
        assert!(
            matches!(plan, PhysNode::RidSink { .. }),
            "ECDC plans record returned rids at the root:\n{plan}"
        );
        assert!(plan.checks().iter().any(|c| c.flavor == CheckFlavor::Ecdc));
        // The sink has one input edge, whatever the root below it had.
        assert_eq!(plan.props().edge_ranges, [ValidityRange::unbounded()]);
    }

    #[test]
    fn fixed_factor_mode_overrides_ranges() {
        let cfg = OptimizerConfig {
            validity_mode: ValidityMode::FixedFactor(4.0),
            ..Default::default()
        };
        let plan = place(&cfg);
        for c in plan.checks() {
            assert!(
                (c.range.lo - c.est_card / 4.0).abs() < 1e-6
                    && (c.range.hi - c.est_card * 4.0).abs() < 1e-6,
                "fixed-factor range mismatch: est={} range={}",
                c.est_card,
                c.range
            );
        }
        assert!(!plan.checks().is_empty());
    }

    #[test]
    fn check_ids_are_unique() {
        let cfg = OptimizerConfig {
            flavors: FlavorSet {
                lc: true,
                lcem: true,
                ecb: true,
                ecwc: true,
                ecdc: true,
            },
            ..Default::default()
        };
        let plan = place(&cfg);
        let mut ids: Vec<usize> = plan.checks().iter().map(|c| c.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate check ids");
        assert!(n >= 2);
    }
}
