//! The planlint interval analyses, end to end:
//!
//! * cross-validation — the abstract interpreter's cardinality intervals
//!   must contain the optimizer's own estimate at every node of every
//!   DMV and TPC-H scenario plan (the two views are computed from the
//!   same statistics, so an estimate outside the provable interval means
//!   one of them is wrong);
//! * one analysis, three outputs that agree — on the same plans, under
//!   every flavor configuration the `planlint` sweep uses, the
//!   certificate's uncovered paths are the `PL411` risks plus the risks
//!   that reach the root, and the dead / vacuous counts are the `PL412` /
//!   `PL413` findings;
//! * the `LintMode` matrix for the interval diagnostics (`PL411`
//!   coverage holes, `PL412` dead checks, `PL413` vacuous checks) —
//!   Off stays silent, Warn/Enforce report, and none of them block
//!   execution (the interval analyses are Warn severity by design).

use pop::{
    analyze, CheckFlavor, DiagCode, FlavorSet, LintContext, LintMode, PlanAnalysis, PopConfig,
    PopExecutor,
};
use pop_dmv::{dmv_catalog, dmv_queries};
use pop_expr::{Expr, Params};
use pop_plan::{CheckContext, CheckSpec, PhysNode, QueryBuilder, QuerySpec, ValidityRange};
use pop_storage::Catalog;
use pop_tpch::tpch_catalog;
use pop_types::{DataType, Schema, Value};

// ---------------------------------------------------------------------
// Cross-validation and agreement over every workload plan
// ---------------------------------------------------------------------

/// Absolute + relative slack: the interpreter and the estimator round
/// differently (`f64` products in different orders), so exact-boundary
/// estimates may sit epsilon outside the interval.
fn inside_with_slack(est: f64, lo: f64, hi: f64) -> bool {
    let eps = 1e-6 + est.abs() * 1e-9;
    est >= lo - eps && est <= hi + eps
}

/// The flavor configurations of the `planlint` sweep: the default, none,
/// each flavor alone and all five.
fn flavor_configs() -> Vec<(&'static str, FlavorSet)> {
    let all = FlavorSet {
        lc: true,
        lcem: true,
        ecb: true,
        ecwc: true,
        ecdc: true,
    };
    vec![
        ("default", FlavorSet::default()),
        ("none", FlavorSet::none()),
        ("lc", FlavorSet::only(CheckFlavor::Lc)),
        ("lcem", FlavorSet::only(CheckFlavor::Lcem)),
        ("ecb", FlavorSet::only(CheckFlavor::Ecb)),
        ("ecwc", FlavorSet::only(CheckFlavor::Ecwc)),
        ("ecdc", FlavorSet::only(CheckFlavor::Ecdc)),
        ("all", all),
    ]
}

/// The risky-edge path a `PL411` message names.
fn risk_path(message: &str) -> &str {
    let rest = message
        .strip_prefix("risky edge at ")
        .unwrap_or_else(|| panic!("not a risk finding: {message}"));
    &rest[..rest.find(' ').unwrap_or(rest.len())]
}

/// Does the risk at `path` (`$.0.1`) reach the root: no dominator (CHECK,
/// BUFCHECK, SORT, TEMP) and no unguarded breaker edge (a hash-join build,
/// an aggregate input) on the way down to it?
fn reaches_root(plan: &PhysNode, path: &str) -> bool {
    let mut node = plan;
    for seg in path.split('.').skip(1) {
        let i: usize = seg.parse().expect("a child index");
        let breaker = matches!(node, PhysNode::HashAgg { .. })
            || (matches!(node, PhysNode::Hsjn { .. }) && i == 0);
        let dominator = matches!(
            node,
            PhysNode::Check { .. }
                | PhysNode::BufCheck { .. }
                | PhysNode::Sort { .. }
                | PhysNode::Temp { .. }
        );
        if breaker || dominator {
            return false;
        }
        node = node.children()[i];
    }
    true
}

fn check_agreement(at: &str, plan: &PhysNode, coverage: bool, a: &PlanAnalysis) {
    let of = |code: DiagCode| -> Vec<&str> {
        a.diagnostics
            .iter()
            .filter(|d| d.code == code)
            .map(|d| risk_path(&d.message))
            .collect()
    };
    let count = |code: DiagCode| a.diagnostics.iter().filter(|d| d.code == code).count();
    let cert = &a.certificate;
    assert_eq!(cert.dead_checks, count(DiagCode::Pl412), "{at}: dead");
    assert_eq!(cert.vacuous_checks, count(DiagCode::Pl413), "{at}: vacuous");
    if coverage && !plan.checks().is_empty() {
        // Breaker-consumed risks first (PL411, bottom-up), then the ones
        // still open at the root.
        let pl411 = of(DiagCode::Pl411);
        let (consumed, rest) = cert
            .uncovered
            .split_at(pl411.len().min(cert.uncovered.len()));
        assert_eq!(consumed, &pl411[..], "{at}: uncovered vs PL411");
        for p in rest {
            assert!(reaches_root(plan, p), "{at}: {p} does not reach the root");
        }
    }
}

fn cross_validate(label: &str, catalog: &Catalog, queries: &[(String, QuerySpec)]) {
    for (flavor, flavors) in flavor_configs() {
        let mut config = PopConfig::default();
        config.optimizer.flavors = flavors;
        let exec = PopExecutor::new(catalog.clone(), config).unwrap();
        for (name, spec) in queries {
            let at = format!("{label}/{name} [{flavor}]");
            let plan = exec.plan(spec, &Params::none()).unwrap();
            let ctx = LintContext::full(exec.catalog(), spec)
                .expect_check_coverage(flavors.lc)
                .with_stats(exec.stats());
            let analysis = analyze(&plan, &ctx);
            let mut estimates = Vec::new();
            plan.visit(&mut |n| estimates.push((n.name(), n.props().card)));
            assert_eq!(estimates.len(), analysis.intervals.len(), "{at}");
            for (i, ((node, est), iv)) in estimates.iter().zip(&analysis.intervals).enumerate() {
                assert!(
                    inside_with_slack(*est, iv.lo, iv.hi),
                    "{at}: estimate {est} at pre-order node {i} ({node}) escapes the \
                     provable interval {iv}"
                );
            }
            check_agreement(&at, &plan, flavors.lc, &analysis);
        }
    }
}

#[test]
fn intervals_contain_optimizer_estimates_on_dmv() {
    let queries: Vec<(String, QuerySpec)> = dmv_queries()
        .into_iter()
        .map(|q| (q.name, q.spec))
        .collect();
    cross_validate("dmv", &dmv_catalog(0.0003).unwrap(), &queries);
}

#[test]
fn intervals_contain_optimizer_estimates_on_tpch() {
    let queries: Vec<(String, QuerySpec)> = pop_tpch::all_queries()
        .into_iter()
        .map(|(n, spec)| (n.to_string(), spec))
        .collect();
    cross_validate("tpch", &tpch_catalog(0.005).unwrap(), &queries);
}

// ---------------------------------------------------------------------
// LintMode matrix for the PL41x diagnostics
// ---------------------------------------------------------------------

fn matrix_db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "customer",
        Schema::from_pairs(&[("cid", DataType::Int), ("grp", DataType::Int)]),
        (0..500).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )
    .unwrap();
    cat.create_table(
        "orders",
        Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
        (0..5000).map(|i| vec![Value::Int(i), Value::Int(i % 500)]),
    )
    .unwrap();
    cat
}

/// Join + group-by: the optimizer materializes through the aggregate's
/// hash table, so LC places both a build-side check and an agg-input
/// check — the fixtures below mutate or strip those.
fn matrix_query() -> QuerySpec {
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    let o = b.table("orders");
    b.join(c, 0, o, 1);
    b.filter(c, Expr::col(c, 1).eq(Expr::lit(3i64)));
    b.aggregate(&[(c, 1)], vec![pop::AggFunc::Count]);
    b.build().unwrap()
}

fn matrix_config(mode: LintMode) -> PopConfig {
    let mut config = PopConfig {
        lint: mode,
        // Checks only count here: the fixtures rewrite trigger ranges
        // into deliberately absurd ones, and a runtime trip would tangle
        // the matrix with re-optimization behaviour.
        observe_only: true,
        ..PopConfig::default()
    };
    config.cost_model.mem_rows = 400.0;
    config
}

fn for_each_check_spec(node: &mut PhysNode, f: &mut impl FnMut(&mut CheckSpec)) {
    if let PhysNode::Check { spec, .. } | PhysNode::BufCheck { spec, .. } = node {
        f(spec);
    }
    for child in node.children_mut() {
        for_each_check_spec(child, f);
    }
}

/// Drop every agg-input LC check, leaving the rest of the safety net in
/// place, and record a bounded validity range on the aggregate's input
/// edge (edge ranges are optimizer metadata on plan props, like the
/// corruption in `planlint_e2e`): the edge into the aggregate becomes an
/// uncovered risky edge — exactly the coverage gap `PL411` proves.
fn open_agg_coverage_hole(node: &mut PhysNode) {
    loop {
        let inner = match node {
            PhysNode::Check { input, spec, .. } if spec.context == CheckContext::AggBuild => {
                Some((**input).clone())
            }
            _ => None,
        };
        match inner {
            Some(i) => *node = i,
            None => break,
        }
    }
    if matches!(node, PhysNode::HashAgg { .. }) {
        node.props_mut().edge_ranges = vec![ValidityRange::new(76.0, 5530.0)];
    }
    for child in node.children_mut() {
        open_agg_coverage_hole(child);
    }
}

/// Run one mutated plan under one lint mode; return the step-0 warnings.
fn lint_warnings_for(mode: LintMode, mutate: impl Fn(&mut PhysNode)) -> Vec<String> {
    let exec = PopExecutor::new(matrix_db(), matrix_config(mode)).unwrap();
    let q = matrix_query();
    let mut plan = exec.plan(&q, &Params::none()).unwrap();
    assert!(
        !plan.checks().is_empty(),
        "fixture plan lost its checkpoints; the matrix needs them"
    );
    mutate(&mut plan);
    let res = exec.execute_plan(&q, &plan, &Params::none()).unwrap();
    assert_eq!(res.rows.len(), 1, "one group survives the filter");
    let step = &res.report.steps[0];
    match mode {
        LintMode::Off => assert!(step.certificate.is_none(), "Off must not certify"),
        _ => assert!(
            step.certificate.is_some(),
            "vetted steps carry a certificate"
        ),
    }
    step.lint_warnings.clone()
}

#[test]
fn lint_mode_matrix_dead_check_pl412() {
    // A bounded trigger range wide enough to swallow any reachable
    // cardinality: the check can never fire.
    let dead = |plan: &mut PhysNode| {
        for_each_check_spec(plan, &mut |spec| {
            spec.range = ValidityRange::new(0.0, 1e300);
        });
    };
    assert!(lint_warnings_for(LintMode::Off, dead).is_empty());
    for mode in [LintMode::Warn, LintMode::Enforce] {
        let warnings = lint_warnings_for(mode, dead);
        assert!(
            warnings.iter().any(|w| w.contains("PL412")),
            "{mode:?}: {warnings:?}"
        );
    }
}

#[test]
fn lint_mode_matrix_vacuous_check_pl413() {
    // A trigger range disjoint from every reachable cardinality: the
    // check always fires.
    let vacuous = |plan: &mut PhysNode| {
        for_each_check_spec(plan, &mut |spec| {
            spec.range = ValidityRange::new(1e300, 2e300);
            // Keep the estimate inside the rewritten range: the fixture
            // targets PL413 (reachability), not PL102 (self-consistency).
            spec.est_card = 1.5e300;
        });
    };
    assert!(lint_warnings_for(LintMode::Off, vacuous).is_empty());
    for mode in [LintMode::Warn, LintMode::Enforce] {
        let warnings = lint_warnings_for(mode, vacuous);
        assert!(
            warnings.iter().any(|w| w.contains("PL413")),
            "{mode:?}: {warnings:?}"
        );
    }
}

#[test]
fn lint_mode_matrix_coverage_hole_pl411() {
    assert!(lint_warnings_for(LintMode::Off, open_agg_coverage_hole).is_empty());
    for mode in [LintMode::Warn, LintMode::Enforce] {
        let warnings = lint_warnings_for(mode, open_agg_coverage_hole);
        assert!(
            warnings.iter().any(|w| w.contains("PL411")),
            "{mode:?}: {warnings:?}"
        );
    }
    // The certificate of the same analysis lists the hole PL411 proves.
    let exec = PopExecutor::new(matrix_db(), matrix_config(LintMode::Warn)).unwrap();
    let q = matrix_query();
    let mut plan = exec.plan(&q, &Params::none()).unwrap();
    open_agg_coverage_hole(&mut plan);
    let ctx = LintContext::full(exec.catalog(), &q)
        .expect_check_coverage(true)
        .with_stats(exec.stats());
    let analysis = analyze(&plan, &ctx);
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::Pl411),
        "{:?}",
        analysis.diagnostics
    );
    check_agreement("matrix", &plan, true, &analysis);
}

#[test]
fn interval_diagnostics_never_block_execution() {
    // PL41x findings are Warn severity by design: even Enforce mode must
    // execute a plan whose only findings are interval advisories.
    let warnings = lint_warnings_for(LintMode::Enforce, |p| {
        for_each_check_spec(p, &mut |spec| {
            spec.range = ValidityRange::new(0.0, 1e300);
        });
    });
    assert!(!warnings.is_empty());
}
