//! Canonical subplan signatures.
//!
//! A signature identifies *what an intermediate result computes*: the set
//! of query tables joined and the predicates applied (all local predicates
//! of the member tables plus all join predicates fully inside the set).
//! Materialized intermediate results are stored in **canonical column
//! order** ([`canonical_layout`]: the columns the query reads above the
//! leaves, ascending query-table index, then ascending column index), so
//! two subplans with the same signature produce identical multisets of
//! rows in identical layouts — regardless of join order or join method.
//!
//! Signatures drive both temp-MV matching and cardinality feedback during
//! re-optimization (§2.3).

use crate::{QuerySpec, TableSet};
use pop_expr::Params;
use pop_types::ColId;

/// Fingerprint of the parameter bindings a query's predicates depend on,
/// or `None` when the query uses no parameter markers.
///
/// Signatures must incorporate bound parameter values: a cardinality fact
/// or materialized view computed under one binding is meaningless under
/// another. (Within a single query execution the binding is fixed, so
/// intra-query matching is unaffected; this matters for LEO-style
/// cross-query learning.)
pub fn params_fingerprint(spec: &QuerySpec, params: &Params) -> Option<String> {
    let mut used: Vec<usize> = spec
        .local_preds
        .iter()
        .flat_map(|(_, e)| e.params_used())
        .collect();
    used.sort_unstable();
    used.dedup();
    if used.is_empty() {
        return None;
    }
    let mut out = String::from("#params");
    for i in used {
        match params.get(i) {
            Ok(v) => out.push_str(&format!("|{i}={v}")),
            Err(_) => out.push_str(&format!("|{i}=?")),
        }
    }
    Some(out)
}

/// [`subplan_signature`] plus the parameter fingerprint, when the query
/// uses markers.
pub fn subplan_signature_with_params(
    spec: &QuerySpec,
    set: TableSet,
    params: Option<&Params>,
) -> String {
    let mut sig = subplan_signature(spec, set);
    if let Some(p) = params {
        if let Some(fp) = params_fingerprint(spec, p) {
            sig.push_str(&fp);
        }
    }
    sig
}

/// Compute the canonical signature of the subplan over `set` within `spec`.
pub fn subplan_signature(spec: &QuerySpec, set: TableSet) -> String {
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
    parts.join("|")
}

/// Parameter-independent fingerprint of a whole query *template*: the
/// join-graph signature over all tables plus every non-join clause.
/// Unlike [`subplan_signature_with_params`] this never incorporates bound
/// parameter values — two executions of the same prepared statement with
/// different bindings share one fingerprint, which is exactly what a
/// parameterized plan cache keys on (validity-range guards, not the key,
/// decide whether a cached plan fits a binding).
pub fn spec_fingerprint(spec: &QuerySpec) -> String {
    format!(
        "{}||proj:{:?}|agg:{:?}|exists:{:?}|having:{:?}|order:{:?}|limit:{:?}|sink:{:?}",
        subplan_signature(spec, spec.all_tables()),
        spec.projection,
        spec.aggregate,
        spec.exists,
        spec.having,
        spec.order_by,
        spec.limit,
        spec.side_effect,
    )
}

/// The canonical column layout of a materialized subplan over `set` — the
/// one contract temp-MV producers (harvests) and consumers (MV scans)
/// share: the [`QuerySpec::required_columns`] of the member tables,
/// ascending by query-table index then column index. `col_counts[t]` is
/// the column count of query table `t`.
pub fn canonical_layout(spec: &QuerySpec, set: TableSet, col_counts: &[usize]) -> Vec<ColId> {
    set.iter()
        .flat_map(|t| {
            spec.required_columns(t, col_counts[t])
                .into_iter()
                .map(move |c| ColId::new(t, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryBuilder;
    use pop_expr::Expr;

    fn spec() -> QuerySpec {
        let mut b = QueryBuilder::new();
        let a = b.table("alpha");
        let c = b.table("beta");
        let d = b.table("gamma");
        b.join(a, 0, c, 1);
        b.join(c, 2, d, 0);
        b.filter(a, Expr::col(a, 1).eq(Expr::lit(5i64)));
        b.filter(d, Expr::col(d, 1).like("x%"));
        b.build().unwrap()
    }

    #[test]
    fn signature_includes_only_member_predicates() {
        let q = spec();
        let s01 = subplan_signature(&q, TableSet::from_iter([0, 1]));
        assert!(s01.contains("alpha"));
        assert!(s01.contains("beta"));
        assert!(!s01.contains("gamma"));
        // local pred on table 0 included, on table 2 excluded
        assert!(s01.contains("p0:"));
        assert!(!s01.contains("p2:"));
        // join 0-1 included, join 1-2 excluded
        assert!(s01.contains("j(t0.c0=t1.c1)"));
        assert!(!s01.contains("t2.c0"));
    }

    #[test]
    fn signature_is_deterministic() {
        let q = spec();
        let set = TableSet::from_iter([0, 1, 2]);
        assert_eq!(subplan_signature(&q, set), subplan_signature(&q, set));
    }

    #[test]
    fn different_sets_different_signatures() {
        let q = spec();
        assert_ne!(
            subplan_signature(&q, TableSet::from_iter([0, 1])),
            subplan_signature(&q, TableSet::from_iter([1, 2]))
        );
    }

    #[test]
    fn canonical_layout_order() {
        // `SELECT *`: every column of the member tables.
        let layout = canonical_layout(&spec(), TableSet::from_iter([0, 2]), &[2, 5, 3]);
        assert_eq!(
            layout,
            vec![
                ColId::new(0, 0),
                ColId::new(0, 1),
                ColId::new(2, 0),
                ColId::new(2, 1),
                ColId::new(2, 2),
            ]
        );
        // With a projection: only what the query reads above the leaves
        // (join keys + projected columns; local-predicate columns dropped).
        let mut q = spec();
        q.projection = vec![ColId::new(2, 2)];
        let layout = canonical_layout(&q, TableSet::from_iter([0, 2]), &[2, 5, 3]);
        assert_eq!(
            layout,
            vec![ColId::new(0, 0), ColId::new(2, 0), ColId::new(2, 2)]
        );
    }
}
