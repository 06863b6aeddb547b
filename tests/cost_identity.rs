//! The cost identity, estimate side: every node CHECK placement inserts
//! (CHECK, BUFCHECK, the LCEM TEMP, RIDSINK), and every EXISTS probe, is
//! estimated at the runtime's unit function evaluated at its estimated
//! input cardinality — so the estimate of such a node differs from the
//! work it is charged only where the cardinalities differ.
//! `crates/exec/tests/cost_identity.rs` holds the runtime side: each
//! operator charges that unit function at its observed counts.
//!
//! Covers every TPC-H and DMV plan under the default flavor set and each
//! flavor alone, at `plan_goldens`' scales.

use pop::{PopConfig, PopExecutor};
use pop_expr::Params;
use pop_optimizer::{CostModel, FlavorSet, OptimizerConfig};
use pop_plan::{CheckFlavor, PhysNode, QuerySpec};
use pop_storage::StorageConfig;

/// The unit function a node's own estimate must equal, at its input card;
/// `None` for nodes outside the identity.
fn unit_estimate(node: &PhysNode, m: &CostModel) -> Option<(&'static str, f64)> {
    let (kind, input) = match node {
        PhysNode::Check { input, .. } => ("CHECK", input),
        PhysNode::BufCheck { input, .. } => ("BUFCHECK", input),
        PhysNode::Temp { input, .. } => ("TEMP", input),
        PhysNode::RidSink { input, .. } => ("RIDSINK", input),
        PhysNode::SemiProbe { input, .. } => ("SEMIPROBE", input),
        _ => return None,
    };
    let card = input.props().card;
    let unit = match node {
        PhysNode::Check { .. } => m.check_cost(card, input.counted_at_open()),
        PhysNode::BufCheck { buffer, .. } => m.bufcheck_cost(card, *buffer as f64),
        PhysNode::Temp { .. } => m.temp_cost(card),
        PhysNode::RidSink { .. } => m.rid_sink(card),
        _ => m.index_lookups(card, 1.0),
    };
    Some((kind, input.props().cost + unit))
}

/// Every node of `plan` whose cumulative cost is not its input's plus its
/// unit function (1e-9 relative), as `kind: got vs want`.
fn drift(plan: &PhysNode, m: &CostModel) -> Vec<String> {
    let mut out = Vec::new();
    plan.visit(&mut |n| {
        if let Some((kind, want)) = unit_estimate(n, m) {
            let got = n.props().cost;
            if (got - want).abs() > 1e-9 * want.abs() {
                out.push(format!("{kind}: {got} vs {want}"));
            }
        }
    });
    out
}

fn flavor_sets() -> [(&'static str, FlavorSet); 6] {
    [
        ("default", OptimizerConfig::default().flavors),
        ("LC", FlavorSet::only(CheckFlavor::Lc)),
        ("LCEM", FlavorSet::only(CheckFlavor::Lcem)),
        ("ECB", FlavorSet::only(CheckFlavor::Ecb)),
        ("ECWC", FlavorSet::only(CheckFlavor::Ecwc)),
        ("ECDC", FlavorSet::only(CheckFlavor::Ecdc)),
    ]
}

fn check_suite(suite: &str, exec: &mut PopExecutor, queries: &[(String, QuerySpec)]) {
    let model = CostModel::default();
    let (mut failures, mut nodes) = (Vec::new(), 0);
    for (label, flavors) in flavor_sets() {
        *exec.config_mut() = PopConfig {
            optimizer: OptimizerConfig {
                flavors,
                ..OptimizerConfig::default()
            },
            cost_model: model.clone(),
            ..PopConfig::default()
        };
        for (name, spec) in queries {
            let plan = exec.plan(spec, &Params::none()).unwrap();
            plan.visit(&mut |n| nodes += usize::from(unit_estimate(n, &model).is_some()));
            for d in drift(&plan, &model) {
                failures.push(format!("{suite} {name} [{label}] {d}"));
            }
        }
    }
    assert!(nodes > 0, "{suite}: no node under the identity");
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn tpch_placed_nodes_are_estimated_at_their_runtime_charge() {
    let cat = pop_tpch::tpch_catalog_with(0.0005, StorageConfig::default()).unwrap();
    let queries: Vec<_> = pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    let mut exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    check_suite("TPC-H", &mut exec, &queries);
}

#[test]
fn dmv_placed_nodes_are_estimated_at_their_runtime_charge() {
    let cat = pop_dmv::dmv_catalog_with(0.0003, StorageConfig::default()).unwrap();
    let queries: Vec<_> = pop_dmv::dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect();
    let mut exec = PopExecutor::new(cat, PopConfig::default()).unwrap();
    check_suite("DMV", &mut exec, &queries);
}
