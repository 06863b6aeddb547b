//! The optimizer's entry point and top-level plan assembly: join order
//! (through the [`Memo`]) → aggregation / projection → ordering → side
//! effects → checkpoint placement → parallelization.

use crate::parallelize::parallelize;
use crate::placement::place_checkpoints;
use crate::{CardEstimator, Memo, MemoStats, OptimizerContext};
use pop_plan::{
    LayoutCol, Partitioning, PhysNode, PlanProps, QuerySpec, SortKeyRef, ValidityRange,
};
use pop_types::PopResult;

/// Optimize a query into an executable physical plan, with checkpoints
/// placed per the context's configuration — the only way to get a plan.
/// The join order comes out of the caller's [`Memo`]: a memo that already
/// holds this query's groups re-derives only those reached by cardinality
/// facts or temp-MV changes since the previous call, and a [`Memo::new`]
/// derives every group (a from-scratch optimization is the all-dirty
/// case, not a second code path). Also returns the pass's [`MemoStats`]
/// for reporting.
pub fn optimize(
    spec: &QuerySpec,
    ctx: &OptimizerContext<'_>,
    memo: &mut Memo,
) -> PopResult<(PhysNode, MemoStats)> {
    spec.validate()?;
    let est = memo.bind(spec, ctx)?;
    let (cand, stats) = memo.best_join_order(&est, ctx)?;
    Ok((assemble(cand.node, spec, &est, ctx), stats))
}

/// Wrap the winning join tree with the query's non-join operators
/// (EXISTS probes, aggregation/projection, HAVING, ORDER BY, LIMIT, side
/// effects), then place checkpoints and parallelize.
fn assemble(
    mut node: PhysNode,
    spec: &QuerySpec,
    est: &CardEstimator,
    ctx: &OptimizerContext<'_>,
) -> PhysNode {
    // Correlated EXISTS clauses: semi/anti probes above the join tree.
    for clause in &spec.exists {
        let mut props = node.props().clone();
        // Existential selectivity default: half the rows qualify.
        props.card = (props.card * 0.5).max(0.0);
        props.cost += props.card * (ctx.cost.index_probe + ctx.cost.index_fetch_row);
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
        let mut layout: Vec<LayoutCol> = agg.group_by.iter().map(|c| LayoutCol::Base(*c)).collect();
        for i in 0..agg.aggs.len() {
            layout.push(LayoutCol::Agg(i));
        }
        let props = PlanProps {
            tables: node.props().tables,
            card: group_card,
            cost: node.props().cost + ctx.cost.agg_cost(in_card),
            layout,
            sorted_by: None,
            edge_ranges: vec![ValidityRange::unbounded()],
            partitioning: Partitioning::Single,
        };
        node = PhysNode::HashAgg {
            input: Box::new(node),
            group_by: agg.group_by.clone(),
            aggs: agg.aggs.clone(),
            props,
        };
    } else if !spec.projection.is_empty() {
        let cols: Vec<LayoutCol> = spec
            .projection
            .iter()
            .map(|c| LayoutCol::Base(*c))
            .collect();
        let props = PlanProps {
            tables: node.props().tables,
            card: node.props().card,
            cost: node.props().cost,
            layout: cols.clone(),
            sorted_by: node.props().sorted_by,
            edge_ranges: vec![ValidityRange::unbounded()],
            partitioning: Partitioning::Single,
        };
        node = PhysNode::Project {
            input: Box::new(node),
            cols,
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

    parallelize(place_checkpoints(node, est, ctx), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, FeedbackCache, OptimizerConfig};
    use pop_expr::Expr;
    use pop_plan::{AggFunc, QueryBuilder};
    use pop_stats::StatsRegistry;
    use pop_storage::{Catalog, IndexKind};
    use pop_types::{ColId, DataType, Schema, Value};

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
            Schema::from_pairs(&[
                ("oid", DataType::Int),
                ("cust", DataType::Int),
                ("amount", DataType::Int),
            ]),
            (0..20_000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 97)])
                .collect(),
        )
        .unwrap();
        cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let stats = StatsRegistry::new();
        stats.analyze_all(&cat).unwrap();
        (cat, stats)
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
        // Aggregate layout: 1 group col + 2 aggs.
        let mut agg_layout = None;
        plan.visit(&mut |n| {
            if let PhysNode::HashAgg { props, .. } = n {
                agg_layout = Some(props.layout.clone());
            }
        });
        assert_eq!(agg_layout.unwrap().len(), 3);
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
        assert_eq!(plan.props().layout.len(), 2);
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
