//! `Signer` builds subplan signatures from fragments formatted once per
//! (spec, binding). Signatures key feedback facts and temp MVs, so a
//! signature that changed by one byte would silently stop every match:
//! this test holds `Signer::sign` (and the `subplan_signature` call built
//! on it) byte-identical to the formatter it replaced, kept below as
//! the oracle, on every table subset of every TPC-H and DMV query.

use pop_expr::Params;
use pop_plan::{params_fingerprint, subplan_signature, QuerySpec, Signer, TableSet};
use pop_types::Value;

/// The signature as formatted before `Signer`: every fragment of the set
/// formatted on each call, predicates sorted per set.
fn oracle(spec: &QuerySpec, set: TableSet, params: Option<&Params>) -> String {
    let mut parts: Vec<String> = Vec::new();
    for t in set.iter() {
        parts.push(format!("t{}:{}", t, spec.tables[t].table));
    }
    let mut preds: Vec<String> = Vec::new();
    for (t, e) in &spec.local_preds {
        if set.contains(*t) {
            preds.push(format!("p{}:{}", t, e.fingerprint()));
        }
    }
    for j in spec.join_preds_within(set) {
        preds.push(j.fingerprint());
    }
    preds.sort();
    parts.extend(preds);
    let mut sig = parts.join("|");
    if let Some(fp) = params.and_then(|p| params_fingerprint(spec, p)) {
        sig.push_str(&fp);
    }
    sig
}

/// Every query of both workloads, plus the two parameterized ones with a
/// binding.
fn queries() -> Vec<(String, QuerySpec, Option<Params>)> {
    let mut out: Vec<(String, QuerySpec, Option<Params>)> = pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec, None))
        .chain(
            pop_dmv::dmv_queries()
                .into_iter()
                .map(|q| (q.name, q.spec, None)),
        )
        .collect();
    out.push((
        "Q10(?0 = 30)".into(),
        pop_tpch::q10(),
        Some(Params::new(vec![Value::Int(30)])),
    ));
    let markers = pop_dmv::correlated_marker_query();
    out.push((
        markers.name,
        markers.spec,
        Some(pop_dmv::correlated_marker_params()),
    ));
    out
}

#[test]
fn signer_is_byte_identical_to_the_per_set_formatter_on_every_subset() {
    let mut subsets = 0usize;
    for (name, spec, params) in queries() {
        let n = spec.tables.len();
        let signer = Signer::new(&spec, params.as_ref());
        let unbound = Signer::new(&spec, None);
        for mask in 0..(1u64 << n) {
            let set = TableSet::from_iter((0..n).filter(|t| mask & (1 << t) != 0));
            let expected = oracle(&spec, set, params.as_ref());
            assert_eq!(signer.sign(set), expected, "{name} {set:?}");
            let expected = oracle(&spec, set, None);
            assert_eq!(unbound.sign(set), expected, "{name} {set:?}");
            assert_eq!(subplan_signature(&spec, set), expected, "{name} {set:?}");
            subsets += 1;
        }
    }
    // 17 TPC-H and 39 DMV queries of 1–12 tables, plus the two bound ones.
    assert!(subsets > 20_000, "only {subsets} subsets checked");
}
