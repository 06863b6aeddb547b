//! The parallelize post-pass: wrap eligible subplans in a `Gather`
//! (morsel-parallel region), inserting an `Exchange` repartition stage
//! where hash aggregation needs co-located groups.
//!
//! **A region is one pipeline; materialization points end it.** TEMP,
//! SORT and MVSCAN are pipeline breakers, so a `CHECK(TEMP(..))` lazy
//! check (Figure 10) stays serial above the boundary — decided once, on
//! the exact materialized count — and the pass looks for a region *below*
//! the TEMP.
//!
//! Runs after checkpoint placement, so every CHECK that lands on a
//! region's partitioned spine gets **fold registration**
//! (`CheckSpec::fold`): at runtime the per-morsel instances of the check
//! count into one shared counter and the violation decision compares the
//! *global* cardinality against the validity range — per-partition counts
//! against a global range would be meaningless (planlint PL306 rejects
//! exactly that). Checks on hash-join build sides stay serial and
//! unfolded: build sides run once, in the region controller.
//!
//! Two region shapes are produced, both `Partitioning::Morsel(k)`:
//!
//! * **Shape A — pipeline region**: a spine of scans, join probes,
//!   filters, projections and checks. The driving base scan is
//!   decomposed into contiguous morsels claimed dynamically by k workers;
//!   the Gather merges outputs in morsel order, which reproduces the
//!   serial row order exactly (so any input sort order survives for
//!   free).
//! * **Shape B — aggregation region**: `Gather(HashAgg(Exchange(input)))`.
//!   The input pipeline runs morsel-driven as in shape A; the Exchange
//!   hash-routes rows on the group-by keys so each consumer owns complete
//!   groups; per-consumer HashAggs then aggregate independently and
//!   concatenate without a merge phase.
//!
//! Nodes with inherently global semantics — SORT (total order), TEMP
//! (materialization), MGJN (order-dependent), LIMIT (global count),
//! MVSCAN (compensation lineage), BUFCHECK, RIDSINK/ANTIJOINRIDS/INSERT
//! (cross-step compensation and side effects) — never enter a region; the
//! pass keeps them above the Gather or declines to parallelize.
//!
//! **The degree of parallelism is a cost decision, re-made on every
//! re-optimization.** For each candidate region the pass models the
//! latency at every k up to `OptimizerConfig::threads` — serial work
//! divided by `k · parallel_efficiency`, plus per-worker startup,
//! per-morsel dispatch and per-row exchange overhead — and picks the
//! argmin. k is additionally capped by the estimated morsel count of the
//! region's driving scan (`driving rows / morsel_rows`, floored at 2):
//! more workers than morsels cannot help. Because the driving
//! cardinality is re-estimated from CHECK feedback after a violation,
//! re-planning naturally *widens* the region when the observed input is
//! larger than estimated, *narrows* it when smaller, and *drops* it
//! entirely when the region no longer clears `min_parallel_rows` or the
//! latency gate. Plan `cost` stays total work (monotone up the tree) —
//! only the DOP decision uses the latency form, so costs above a Gather
//! remain comparable to serial plans.

use crate::OptimizerContext;
use pop_plan::{AggFunc, CostModel, Partitioning, PhysNode, PlanProps, ValidityRange};
use pop_types::ColId;

/// Apply the parallelize post-pass to a finished, checkpointed plan.
pub(crate) fn parallelize(plan: PhysNode, ctx: &OptimizerContext<'_>) -> PhysNode {
    let k = ctx.config.threads;
    if k <= 1 {
        return plan;
    }
    let pass = Pass {
        threads: k,
        min_rows: ctx.config.min_parallel_rows,
        morsel_rows: ctx.config.morsel_rows.max(1.0),
        cost: ctx.cost,
    };
    pass.descend(plan)
}

struct Pass<'a> {
    threads: usize,
    min_rows: f64,
    morsel_rows: f64,
    cost: &'a CostModel,
}

impl Pass<'_> {
    /// Modeled wall-clock of running `serial_cost` work across `k`
    /// workers over `morsels` morsels, with `exchanged_rows` crossing a
    /// gather/exchange edge.
    fn latency(&self, k: usize, serial_cost: f64, exchanged_rows: f64, morsels: f64) -> f64 {
        serial_cost / (k as f64 * self.cost.parallel_efficiency)
            + k as f64 * self.cost.parallel_startup
            + morsels * self.cost.morsel_overhead
            + exchanged_rows * self.cost.exchange_row
    }

    /// Pick the degree of parallelism for a candidate region, or `None`
    /// when it should stay serial. `driving_rows` is the estimated
    /// cardinality of the region's driving scan: the DOP is capped by its
    /// morsel count (floored at 2 so marginal regions still parallelize
    /// and can widen later), and re-estimating it from CHECK feedback is
    /// what lets re-optimization revise the DOP.
    fn choose_dop(
        &self,
        serial_cost: f64,
        card: f64,
        exchanged_rows: f64,
        driving_rows: f64,
    ) -> Option<usize> {
        if card < self.min_rows {
            return None;
        }
        let morsels = (driving_rows / self.morsel_rows).ceil().max(1.0);
        let cap = self.threads.min((morsels as usize).max(2));
        let mut best: Option<(usize, f64)> = None;
        for k in 2..=cap {
            let l = self.latency(k, serial_cost, exchanged_rows, morsels);
            if best.is_none_or(|(_, bl)| l < bl) {
                best = Some((k, l));
            }
        }
        let (k, l) = best?;
        (l < serial_cost).then_some(k)
    }

    /// Walk down from the root through nodes that must stay serial
    /// (above any region), wrapping the first eligible subtree.
    fn descend(&self, node: PhysNode) -> PhysNode {
        // Shape B: aggregation over a partitionable pipeline.
        if let PhysNode::HashAgg {
            input,
            group_by,
            aggs,
            props,
        } = node
        {
            let dop = (!group_by.is_empty() && region_safe(&input))
                .then(|| {
                    self.choose_dop(
                        props.cost,
                        input.props().card,
                        input.props().card + props.card,
                        driving_rows(&input),
                    )
                })
                .flatten();
            if let Some(k) = dop {
                return self.wrap_agg(*input, group_by, aggs, props, k);
            }
            // Not taken as shape B — a shape-A region may still fit below.
            let before = input.props().cost;
            let input = self.descend(*input);
            let mut props = props;
            // Keep cumulative cost monotone over the region's exchange
            // surcharge.
            props.cost += (input.props().cost - before).max(0.0);
            return PhysNode::HashAgg {
                input: Box::new(input),
                group_by,
                aggs,
                props,
            };
        }
        // Shape A: the whole subtree is an order-preserving pipeline.
        if region_safe(&node) {
            let props = node.props();
            if let Some(k) =
                self.choose_dop(props.cost, props.card, props.card, driving_rows(&node))
            {
                return self.wrap_pipeline(node, k);
            }
            return node;
        }
        // Serial-only node: keep it above the boundary, look one level
        // further down. Multi-child serial nodes (MGJN) end the search — a
        // region buried in one side of a serial join is out of scope.
        let mut node = node;
        if node.children().len() == 1 {
            let slot = node.children_mut().pop().expect("one child");
            let before = slot.props().cost;
            slot.replace_with(|child| self.descend(child));
            let delta = (slot.props().cost - before).max(0.0);
            // Keep cumulative cost monotone over the region's exchange
            // surcharge.
            node.props_mut().cost += delta;
        }
        node
    }

    /// Shape A: mark the spine partitioned, wrap in a Gather.
    fn wrap_pipeline(&self, mut region: PhysNode, k: usize) -> PhysNode {
        mark_region(&mut region, k);
        let mut props = region.props().clone();
        props.cost += props.card * self.cost.exchange_row;
        props.partitioning = Partitioning::Single;
        props.edge_ranges = vec![ValidityRange::unbounded()];
        PhysNode::Gather {
            input: Box::new(region),
            parts: k,
            props,
        }
    }

    /// Shape B: `Gather(HashAgg(Exchange(pipeline)))`.
    fn wrap_agg(
        &self,
        mut input: PhysNode,
        group_by: Vec<ColId>,
        aggs: Vec<AggFunc>,
        agg_props: PlanProps,
        k: usize,
    ) -> PhysNode {
        mark_region(&mut input, k);
        let mut xprops = input.props().clone();
        xprops.cost += xprops.card * self.cost.exchange_row;
        xprops.partitioning = Partitioning::Hash(group_by.clone(), k);
        xprops.edge_ranges = vec![ValidityRange::unbounded()];
        // Hash routing scrambles arrival order; per-consumer replay is
        // deterministic but not the serial order.
        xprops.sorted_by = None;
        let exchange = PhysNode::Exchange {
            input: Box::new(input),
            keys: group_by.clone(),
            parts: k,
            props: xprops,
        };
        let mut aprops = agg_props;
        aprops.cost += exchange.props().card * self.cost.exchange_row;
        aprops.partitioning = Partitioning::Hash(group_by.clone(), k);
        aprops.sorted_by = None;
        let agg = PhysNode::HashAgg {
            input: Box::new(exchange),
            group_by,
            aggs,
            props: aprops,
        };
        let mut gprops = agg.props().clone();
        gprops.cost += gprops.card * self.cost.exchange_row;
        gprops.partitioning = Partitioning::Single;
        gprops.edge_ranges = vec![ValidityRange::unbounded()];
        PhysNode::Gather {
            input: Box::new(agg),
            parts: k,
            props: gprops,
        }
    }
}

/// Estimated cardinality of the spine's driving scan — the row stream the
/// morsel scheduler decomposes. This is the quantity CHECK feedback
/// revises, so it is what the DOP cap keys on.
fn driving_rows(node: &PhysNode) -> f64 {
    match node {
        PhysNode::Hsjn { probe, .. } => driving_rows(probe),
        PhysNode::Nljn { outer, .. } => driving_rows(outer),
        PhysNode::SemiProbe { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Having { input, .. }
        | PhysNode::Check { input, .. } => driving_rows(input),
        _ => node.props().card,
    }
}

/// May this whole subtree run as one morsel's chain? The partitioned
/// spine (probe/outer sides, single-child chains) must be one pipeline of
/// partition-safe operators — a materialization point (TEMP, SORT,
/// MVSCAN) ends it; hash-join **build** sides are exempt — they run
/// serially, once, in the region controller.
fn region_safe(node: &PhysNode) -> bool {
    match node {
        PhysNode::TableScan { .. } | PhysNode::IndexRangeScan { .. } => true,
        PhysNode::Hsjn { probe, .. } => region_safe(probe),
        PhysNode::Nljn { outer, .. } => region_safe(outer),
        PhysNode::SemiProbe { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Having { input, .. }
        | PhysNode::Check { input, .. } => region_safe(input),
        _ => false,
    }
}

/// Mark every spine node of a region: set its partitioning property and
/// give its CHECKs fold registration. Build sides are left untouched
/// (serial, `Single`).
fn mark_region(node: &mut PhysNode, k: usize) {
    node.props_mut().partitioning = Partitioning::Morsel(k);
    match node {
        PhysNode::Check { spec, input, .. } => {
            spec.fold = true;
            mark_region(input, k);
        }
        PhysNode::Hsjn { probe, .. } => mark_region(probe, k),
        PhysNode::Nljn { outer, .. } => mark_region(outer, k),
        PhysNode::SemiProbe { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Having { input, .. } => mark_region(input, k),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, CostModel, FeedbackCache, OptimizerConfig};
    use pop_plan::{CheckContext, CheckFlavor, CheckSpec, LayoutCol, QueryBuilder, TableSet};
    use pop_stats::StatsRegistry;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{DataType, Schema, Value};

    fn setup() -> (Catalog, StatsRegistry) {
        let cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]),
            (0..500)
                .map(|i| vec![Value::Int(i), Value::Int(i % 20)])
                .collect(),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
            (0..50_000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 500)])
                .collect(),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
    }

    fn join_plan(cfg: &OptimizerConfig, agg: bool) -> PhysNode {
        let (cat, stats) = setup();
        let cost = CostModel::default();
        let fb = FeedbackCache::new();
        let ctx = crate::OptimizerContext::new(&cat, &stats, cfg, &cost, None, &fb);
        let mut b = QueryBuilder::new();
        let c = b.table("customer");
        let o = b.table("orders");
        b.join(c, 0, o, 1);
        if agg {
            b.aggregate(&[(c, 1)], vec![AggFunc::Count]);
        }
        let q = b.build().unwrap();
        optimize(&q, &ctx, &mut crate::Memo::new()).unwrap().0
    }

    fn threads_cfg(threads: usize, min_parallel_rows: f64) -> OptimizerConfig {
        OptimizerConfig {
            threads,
            min_parallel_rows,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn serial_config_leaves_plan_untouched() {
        let plan = join_plan(&threads_cfg(1, 0.0), false);
        let mut has_gather = false;
        plan.visit(&mut |n| has_gather |= matches!(n, PhysNode::Gather { .. }));
        assert!(!has_gather, "plan:\n{plan}");
    }

    #[test]
    fn join_pipeline_gets_gather_region() {
        let plan = join_plan(&threads_cfg(4, 0.0), false);
        let mut gathers = 0;
        plan.visit(&mut |n| {
            if let PhysNode::Gather { parts, input, .. } = n {
                gathers += 1;
                assert_eq!(*parts, 4);
                assert!(
                    input.props().partitioning.is_partitioned(),
                    "region input not partitioned:\n{input}"
                );
            }
        });
        assert_eq!(gathers, 1, "plan:\n{plan}");
        // The plan root itself must be serial (the Gather is the boundary).
        assert_eq!(plan.props().partitioning, Partitioning::Single);
    }

    #[test]
    fn small_inputs_stay_serial() {
        let plan = join_plan(&threads_cfg(4, 1e12), false);
        let mut has_gather = false;
        plan.visit(&mut |n| has_gather |= matches!(n, PhysNode::Gather { .. }));
        assert!(!has_gather, "plan:\n{plan}");
    }

    #[test]
    fn aggregation_gets_exchange_on_group_keys() {
        let plan = join_plan(&threads_cfg(4, 0.0), true);
        let mut found = false;
        plan.visit(&mut |n| {
            if let PhysNode::Exchange {
                keys, parts, props, ..
            } = n
            {
                found = true;
                assert_eq!(*parts, 4);
                assert!(!keys.is_empty());
                assert_eq!(props.partitioning, Partitioning::Hash(keys.clone(), *parts));
            }
        });
        assert!(found, "no exchange in aggregate plan:\n{plan}");
    }

    #[test]
    fn spine_checks_get_fold_registration() {
        // Hand-built: CHECK above a big scan — the whole chain is a
        // region, so the check must come out fold-registered.
        let scan = PhysNode::TableScan {
            qidx: 0,
            table: "t".into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(0),
                100_000.0,
                100_000.0,
                vec![LayoutCol::Base(ColId::new(0, 0))],
            ),
        };
        let mut props = scan.props().clone();
        props.edge_ranges = vec![ValidityRange::new(0.0, 50_000.0)];
        let plan = PhysNode::Check {
            input: Box::new(scan),
            spec: CheckSpec {
                id: 7,
                flavor: CheckFlavor::Ecdc,
                range: ValidityRange::new(0.0, 50_000.0),
                est_card: 100_000.0,
                signature: "sig".into(),
                context: CheckContext::Pipeline,
                fold: false,
            },
            props,
        };
        let cost = CostModel::default();
        let pass = Pass {
            threads: 4,
            min_rows: 0.0,
            morsel_rows: 16384.0,
            cost: &cost,
        };
        let out = pass.descend(plan);
        let PhysNode::Gather { input, parts, .. } = out else {
            panic!("expected a gather root");
        };
        assert_eq!(parts, 4);
        let PhysNode::Check { spec, input, .. } = *input else {
            panic!("expected check under gather");
        };
        assert!(spec.fold, "spine check not fold-registered");
        assert_eq!(input.props().partitioning, Partitioning::Morsel(4));
    }

    #[test]
    fn materialization_point_ends_the_region() {
        // LCEM chain NLJN(CHECK(TEMP(scan))): the lazy check and its TEMP
        // stay serial; the region forms below the materialization point.
        let scan = PhysNode::TableScan {
            qidx: 0,
            table: "t".into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(0),
                100_000.0,
                100_000.0,
                vec![LayoutCol::Base(ColId::new(0, 0))],
            ),
        };
        let props = scan.props().clone();
        let temp = PhysNode::Temp {
            input: Box::new(scan),
            props: props.clone(),
        };
        let check = PhysNode::Check {
            input: Box::new(temp),
            spec: CheckSpec {
                id: 3,
                flavor: CheckFlavor::Lcem,
                range: ValidityRange::new(0.0, 50_000.0),
                est_card: 100_000.0,
                signature: "sig".into(),
                context: CheckContext::AboveTemp,
                fold: false,
            },
            props: props.clone(),
        };
        let plan = PhysNode::Nljn {
            outer: Box::new(check),
            outer_key: ColId::new(0, 0),
            inner: pop_plan::InnerProbe {
                qidx: 1,
                table: "u".into(),
                join_col: 0,
                pred: None,
                residual_joins: vec![],
                inner_card: 10.0,
            },
            props,
        };
        let cost = CostModel::default();
        let pass = Pass {
            threads: 4,
            min_rows: 0.0,
            morsel_rows: 16384.0,
            cost: &cost,
        };
        let out = pass.descend(plan);
        assert_eq!(out.props().partitioning, Partitioning::Single);
        let PhysNode::Nljn { outer, .. } = out else {
            panic!("expected the serial NLJN root");
        };
        let PhysNode::Check { spec, input, props } = *outer else {
            panic!("expected the lazy check under the NLJN");
        };
        assert!(!spec.fold, "check above a TEMP must not fold");
        assert_eq!(props.partitioning, Partitioning::Single);
        let PhysNode::Temp { input, props } = *input else {
            panic!("expected the TEMP under its check");
        };
        assert_eq!(props.partitioning, Partitioning::Single);
        let PhysNode::Gather { input, parts, .. } = *input else {
            panic!("expected the gather below the TEMP");
        };
        assert_eq!(parts, 4);
        assert_eq!(input.props().partitioning, Partitioning::Morsel(4));
    }

    #[test]
    fn build_side_checks_stay_serial() {
        let leaf = |qidx: usize, table: &str, card: f64| PhysNode::TableScan {
            qidx,
            table: table.into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(qidx),
                card,
                card,
                vec![LayoutCol::Base(ColId::new(qidx, 0))],
            ),
        };
        let build = leaf(0, "b", 1000.0);
        let mut cprops = build.props().clone();
        cprops.edge_ranges = vec![ValidityRange::new(0.0, 2000.0)];
        let checked_build = PhysNode::Check {
            input: Box::new(build),
            spec: CheckSpec {
                id: 1,
                flavor: CheckFlavor::Lc,
                range: ValidityRange::new(0.0, 2000.0),
                est_card: 1000.0,
                signature: "b".into(),
                context: CheckContext::HashBuild,
                fold: false,
            },
            props: cprops,
        };
        let probe = leaf(1, "p", 200_000.0);
        let jprops = PlanProps {
            tables: TableSet::from_iter([0, 1]),
            card: 200_000.0,
            cost: 500_000.0,
            layout: probe.props().layout.clone(),
            sorted_by: None,
            edge_ranges: vec![ValidityRange::unbounded(), ValidityRange::unbounded()],
            partitioning: Partitioning::Single,
        };
        let plan = PhysNode::Hsjn {
            build: Box::new(checked_build),
            probe: Box::new(probe),
            build_keys: vec![ColId::new(0, 0)],
            probe_keys: vec![ColId::new(1, 0)],
            props: jprops,
        };
        let cost = CostModel::default();
        let pass = Pass {
            threads: 4,
            min_rows: 0.0,
            morsel_rows: 16384.0,
            cost: &cost,
        };
        let out = pass.descend(plan);
        let mut saw_build_check = false;
        out.visit(&mut |n| {
            if let PhysNode::Check { spec, .. } = n {
                saw_build_check = true;
                assert!(!spec.fold, "build-side check must not fold");
                assert_eq!(n.props().partitioning, Partitioning::Single);
            }
        });
        assert!(saw_build_check);
    }
}
