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
//! Check ranges come from the validity ranges the optimizer computed
//! during pruning; ranges propagate through *count-preserving* operators
//! (SORT, TEMP, CHECK, PROJECT, RIDSINK, INSERT) by intersection. Queries
//! cheaper than [`crate::OptimizerConfig::check_cost_threshold`] get no
//! checkpoints at all.

use crate::{CardEstimator, OptimizerContext, ValidityMode};
use pop_plan::{CheckContext, CheckFlavor, CheckSpec, PhysNode, ValidityRange};

struct PlaceState<'a, 'b> {
    ctx: &'a OptimizerContext<'b>,
    est: &'a CardEstimator,
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
            signature: self.est.signature(below.props().tables),
            context,
            fold: false,
        }
    }
}

/// Insert checkpoints into a finished plan. Returns the plan unchanged if
/// no flavor is enabled or the plan is below the cost threshold.
pub(crate) fn place_checkpoints(
    plan: PhysNode,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> PhysNode {
    if !ctx.config.flavors.any() || plan.props().cost < ctx.config.check_cost_threshold {
        return plan;
    }
    let is_spj = est.spec().aggregate.is_none() && est.spec().side_effect.is_none();
    let mut st = PlaceState {
        ctx,
        est,
        next_id: 0,
        is_spj,
    };
    let root = rebuild(plan, ValidityRange::unbounded(), &mut st);
    // ECDC needs the rid side table: record every returned row's lineage.
    if ctx.config.flavors.ecdc && is_spj {
        let props = root.props().clone();
        PhysNode::RidSink {
            input: Box::new(root),
            props,
        }
    } else {
        root
    }
}

/// Is this node (looking through checks) already a materialized input?
fn materialized_through_checks(node: &PhysNode) -> bool {
    match node {
        PhysNode::Check { input, .. } | PhysNode::BufCheck { input, .. } => {
            materialized_through_checks(input)
        }
        PhysNode::Sort { .. } | PhysNode::Temp { .. } | PhysNode::MvScan { .. } => true,
        _ => false,
    }
}

/// Is this subplan's cardinality exact at *runtime*, independent of
/// statistics? A temp-MV scan replays rows materialized earlier in this
/// very query, so its count is a physical fact, not an estimate;
/// count-preserving wrappers keep the exactness. Checkpoints guard
/// against estimation error, so one placed on such an edge can provably
/// never fire (the planlint PL412 dead-check analysis) — placement skips
/// it. Base-table scans do NOT qualify, even without a predicate:
/// statistics can be stale, and catching exactly that is POP's job.
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

/// Does this edge carry the same row count as the node's own input edge?
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

fn wrap_check(
    node: PhysNode,
    flavor: CheckFlavor,
    range: ValidityRange,
    context: CheckContext,
    st: &mut PlaceState,
) -> PhysNode {
    let spec = st.make_spec(flavor, &node, range, context);
    let mut props = node.props().clone();
    props.cost += props.card * st.ctx.cost.check_row;
    props.edge_ranges = vec![range];
    PhysNode::Check {
        input: Box::new(node),
        spec,
        props,
    }
}

fn wrap_bufcheck(node: PhysNode, range: ValidityRange, st: &mut PlaceState) -> PhysNode {
    let spec = st.make_spec(CheckFlavor::Ecb, &node, range, CheckContext::NljnOuter);
    let buffer = if spec.range.hi.is_finite() {
        (spec.range.hi as usize).saturating_add(1)
    } else {
        st.ctx.config.ecb_buffer
    };
    let mut props = node.props().clone();
    props.cost += props.card * st.ctx.cost.check_row;
    props.edge_ranges = vec![range];
    PhysNode::BufCheck {
        input: Box::new(node),
        spec,
        buffer,
        props,
    }
}

fn wrap_temp(node: PhysNode, st: &mut PlaceState) -> PhysNode {
    let mut props = node.props().clone();
    props.cost += st.ctx.cost.temp_cost(props.card);
    props.edge_ranges = vec![ValidityRange::unbounded()];
    PhysNode::Temp {
        input: Box::new(node),
        props,
    }
}

/// Rebuild the tree inserting checkpoints. `incoming` is the validity
/// range on the edge *above* this node, already intersected through
/// count-preserving ancestors.
fn rebuild(node: PhysNode, incoming: ValidityRange, st: &mut PlaceState) -> PhysNode {
    let flavors = st.ctx.config.flavors;
    match node {
        PhysNode::Nljn {
            outer,
            outer_key,
            inner,
            mut props,
        } => {
            let outer_range = edge_range(&props, 0);
            let outer_cost = outer.props().cost;
            let mut new_outer = rebuild(*outer, outer_range, st);
            let already_materialized = materialized_through_checks(&new_outer);
            // A provably exact outer (e.g. a temp-MV reuse after
            // re-optimization) needs no insurance: any check on it would
            // be dead.
            let exact = provably_exact(&new_outer);
            // ECB below, LCEM above (§3.4: "couple both approaches,
            // placing an LCEM above an ECB so that the ECB can prevent the
            // materialization from growing beyond bounds").
            if flavors.ecb && !already_materialized && !exact {
                new_outer = wrap_bufcheck(new_outer, outer_range, st);
            }
            if flavors.lcem && !already_materialized && !exact {
                new_outer = wrap_temp(new_outer, st);
                new_outer = wrap_check(
                    new_outer,
                    CheckFlavor::Lcem,
                    outer_range,
                    CheckContext::NljnOuter,
                    st,
                );
            }
            // ECDC: a purely pipelined check on the outer edge (Figure 9's
            // P1/P2 split) — only when no blocking guard sits there already.
            if flavors.ecdc
                && st.is_spj
                && !already_materialized
                && !exact
                && !flavors.lcem
                && !flavors.ecb
            {
                new_outer = wrap_check(
                    new_outer,
                    CheckFlavor::Ecdc,
                    outer_range,
                    CheckContext::Pipeline,
                    st,
                );
            }
            // Keep cumulative costs consistent: inserted checks/temps
            // raised the subtree cost below us.
            props.cost += new_outer.props().cost - outer_cost;
            let rebuilt = PhysNode::Nljn {
                outer: Box::new(new_outer),
                outer_key,
                inner,
                props,
            };
            maybe_ecdc(rebuilt, incoming, st)
        }
        PhysNode::Hsjn {
            build,
            probe,
            build_keys,
            probe_keys,
            mut props,
        } => {
            let build_range = edge_range(&props, 0);
            let probe_range = edge_range(&props, 1);
            let build_cost = build.props().cost;
            let probe_cost = probe.props().cost;
            let mut new_build = rebuild(*build, build_range, st);
            // The hash-join build is a materialization point: an LC on its
            // input edge costs nothing and fires when the build completes
            // (or overflows its range mid-build).
            if flavors.lc
                && !matches!(new_build, PhysNode::Check { .. })
                && !provably_exact(&new_build)
            {
                new_build = wrap_check(
                    new_build,
                    CheckFlavor::Lc,
                    build_range,
                    CheckContext::HashBuild,
                    st,
                );
            }
            let mut new_probe = rebuild(*probe, probe_range, st);
            // ECDC: the probe side streams to the consumer; a pipelined
            // check there catches probe-cardinality errors.
            if flavors.ecdc
                && st.is_spj
                && !matches!(new_probe, PhysNode::Check { .. })
                && !provably_exact(&new_probe)
            {
                new_probe = wrap_check(
                    new_probe,
                    CheckFlavor::Ecdc,
                    probe_range,
                    CheckContext::Pipeline,
                    st,
                );
            }
            props.cost +=
                (new_build.props().cost - build_cost) + (new_probe.props().cost - probe_cost);
            let rebuilt = PhysNode::Hsjn {
                build: Box::new(new_build),
                probe: Box::new(new_probe),
                build_keys,
                probe_keys,
                props,
            };
            maybe_ecdc(rebuilt, incoming, st)
        }
        PhysNode::Mgjn {
            left,
            right,
            left_keys,
            right_keys,
            mut props,
        } => {
            let lr = edge_range(&props, 0);
            let rr = edge_range(&props, 1);
            let left_cost = left.props().cost;
            let right_cost = right.props().cost;
            let new_left = rebuild(*left, lr, st);
            let new_right = rebuild(*right, rr, st);
            props.cost +=
                (new_left.props().cost - left_cost) + (new_right.props().cost - right_cost);
            let rebuilt = PhysNode::Mgjn {
                left: Box::new(new_left),
                right: Box::new(new_right),
                left_keys,
                right_keys,
                props,
            };
            maybe_ecdc(rebuilt, incoming, st)
        }
        PhysNode::Sort {
            input,
            key,
            desc,
            mut props,
        } => {
            // Ranges propagate through the count-preserving sort.
            let child_range = incoming.intersect(&edge_range(&props, 0));
            let input_cost = input.props().cost;
            let mut new_input = rebuild(*input, child_range, st);
            if flavors.ecwc
                && !matches!(new_input, PhysNode::Check { .. })
                && !provably_exact(&new_input)
            {
                new_input = wrap_check(
                    new_input,
                    CheckFlavor::Ecwc,
                    child_range,
                    CheckContext::BelowMaterialization,
                    st,
                );
            }
            props.cost += new_input.props().cost - input_cost;
            let rebuilt = PhysNode::Sort {
                input: Box::new(new_input),
                key,
                desc,
                props,
            };
            if flavors.lc && !provably_exact(&rebuilt) {
                wrap_check(
                    rebuilt,
                    CheckFlavor::Lc,
                    incoming,
                    CheckContext::AboveSort,
                    st,
                )
            } else {
                rebuilt
            }
        }
        PhysNode::Temp { input, mut props } => {
            let child_range = incoming.intersect(&edge_range(&props, 0));
            let input_cost = input.props().cost;
            let mut new_input = rebuild(*input, child_range, st);
            if flavors.ecwc
                && !matches!(new_input, PhysNode::Check { .. })
                && !provably_exact(&new_input)
            {
                new_input = wrap_check(
                    new_input,
                    CheckFlavor::Ecwc,
                    child_range,
                    CheckContext::BelowMaterialization,
                    st,
                );
            }
            props.cost += new_input.props().cost - input_cost;
            let rebuilt = PhysNode::Temp {
                input: Box::new(new_input),
                props,
            };
            if flavors.lc && !provably_exact(&rebuilt) {
                wrap_check(
                    rebuilt,
                    CheckFlavor::Lc,
                    incoming,
                    CheckContext::AboveTemp,
                    st,
                )
            } else {
                rebuilt
            }
        }
        // Count-preserving single-child wrappers: pass the range down.
        PhysNode::Project {
            input,
            cols,
            mut props,
        } => {
            let child_range = incoming.intersect(&edge_range(&props, 0));
            let input_cost = input.props().cost;
            let new_input = rebuild(*input, child_range, st);
            props.cost += new_input.props().cost - input_cost;
            PhysNode::Project {
                input: Box::new(new_input),
                cols,
                props,
            }
        }
        PhysNode::Insert {
            input,
            target,
            mut props,
        } => {
            let child_range = incoming.intersect(&edge_range(&props, 0));
            let input_cost = input.props().cost;
            let new_input = rebuild(*input, child_range, st);
            props.cost += new_input.props().cost - input_cost;
            PhysNode::Insert {
                input: Box::new(new_input),
                target,
                props,
            }
        }
        PhysNode::HashAgg {
            input,
            group_by,
            aggs,
            mut props,
        } => {
            // Aggregation changes counts: do not propagate incoming.
            let child_range = edge_range(&props, 0);
            let input_cost = input.props().cost;
            let mut new_input = rebuild(*input, child_range, st);
            // The aggregate's hash table is a materialization point that
            // fully consumes its input before emitting: a pipelined input
            // reaching it unobserved is the last chance to catch a
            // cardinality error (the planlint PL411 coverage proof). LC
            // guards the edge like any other materialization point.
            if flavors.lc
                && !matches!(
                    new_input,
                    PhysNode::Check { .. } | PhysNode::BufCheck { .. }
                )
                && !materialized_through_checks(&new_input)
                && !provably_exact(&new_input)
            {
                new_input = wrap_check(
                    new_input,
                    CheckFlavor::Lc,
                    child_range,
                    CheckContext::AggBuild,
                    st,
                );
            }
            props.cost += new_input.props().cost - input_cost;
            PhysNode::HashAgg {
                input: Box::new(new_input),
                group_by,
                aggs,
                props,
            }
        }
        // Count-changing wrappers above the aggregate: recurse, do not
        // propagate the incoming range.
        PhysNode::SemiProbe {
            input,
            clause,
            mut props,
        } => {
            let input_cost = input.props().cost;
            let new_input = rebuild(*input, edge_range(&props, 0), st);
            props.cost += new_input.props().cost - input_cost;
            PhysNode::SemiProbe {
                input: Box::new(new_input),
                clause,
                props,
            }
        }
        PhysNode::Having {
            input,
            preds,
            mut props,
        } => {
            let input_cost = input.props().cost;
            let new_input = rebuild(*input, edge_range(&props, 0), st);
            props.cost += new_input.props().cost - input_cost;
            PhysNode::Having {
                input: Box::new(new_input),
                preds,
                props,
            }
        }
        PhysNode::Limit {
            input,
            n,
            mut props,
        } => {
            let input_cost = input.props().cost;
            let new_input = rebuild(*input, edge_range(&props, 0), st);
            props.cost += new_input.props().cost - input_cost;
            PhysNode::Limit {
                input: Box::new(new_input),
                n,
                props,
            }
        }
        // Leaves and POP nodes (none exist pre-placement) stay as-is.
        other => {
            let _ = count_preserving(&other);
            other
        }
    }
}

/// ECDC: eager check above a join in a pipelined SPJ plan.
fn maybe_ecdc(node: PhysNode, incoming: ValidityRange, st: &mut PlaceState) -> PhysNode {
    if st.ctx.config.flavors.ecdc && st.is_spj {
        wrap_check(
            node,
            CheckFlavor::Ecdc,
            incoming,
            CheckContext::Pipeline,
            st,
        )
    } else {
        node
    }
}

fn edge_range(props: &pop_plan::PlanProps, edge: usize) -> ValidityRange {
    props.edge_range(edge)
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
            (0..200)
                .map(|i| vec![Value::Int(i), Value::Int(i % 20)])
                .collect(),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..20_000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 200)])
                .collect(),
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
