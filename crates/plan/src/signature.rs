//! Canonical subplan signatures.
//!
//! A signature identifies *what an intermediate result computes*: the set
//! of query tables joined and the predicates applied (all local predicates
//! of the member tables plus all join predicates fully inside the set).
//! Every subplan emits, and every materialized intermediate result is
//! stored in, **canonical column order** ([`canonical_layout`]: the
//! columns the query reads above the set, ascending query-table index,
//! then ascending column index), so
//! two subplans with the same signature produce identical multisets of
//! rows in identical layouts — regardless of join order or join method.
//!
//! Within one query the table set alone names a subplan (its predicates
//! and parameter values are fixed), so temp MVs and the query's own
//! cardinality facts are keyed by [`TableSet`]. A signature is the key
//! that outlives the query: the cross-query feedback store (§7) files
//! facts under it.

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

/// Builds the subplan signatures of one (spec, parameter binding) pair.
///
/// A signature is `t{i}:{table}` for each member table (ascending), then
/// the predicate fragments of the set — `p{t}:{fingerprint}` per local
/// predicate of a member, `j(..)` per join predicate with both ends inside
/// — in sorted order, all joined by `|`, then the parameter fingerprint.
/// Every fragment is formatted once, here, and sorted once with the mask
/// of tables it needs, so [`Signer::sign`] only concatenates.
#[derive(Debug, Clone)]
pub struct Signer {
    /// `t{i}:{table}` per query table.
    tables: Vec<String>,
    /// Predicate fragments, sorted, each with its table mask.
    preds: Vec<(u64, String)>,
    /// [`params_fingerprint`], or empty.
    params: String,
}

impl Signer {
    /// Format every fragment of `spec` (and the fingerprint of `params`,
    /// when the query uses markers).
    pub fn new(spec: &QuerySpec, params: Option<&Params>) -> Signer {
        let tables = spec
            .tables
            .iter()
            .enumerate()
            .map(|(t, r)| format!("t{}:{}", t, r.table))
            .collect();
        let local = spec.local_preds.iter().map(|(t, e)| {
            (
                TableSet::single(*t).mask(),
                format!("p{}:{}", t, e.fingerprint()),
            )
        });
        let joins = spec.join_preds.iter().map(|j| {
            let (a, b) = j.tables();
            (TableSet::from_iter([a, b]).mask(), j.fingerprint())
        });
        let mut preds: Vec<(u64, String)> = local.chain(joins).collect();
        preds.sort_by(|a, b| a.1.cmp(&b.1));
        Signer {
            tables,
            preds,
            params: params
                .and_then(|p| params_fingerprint(spec, p))
                .unwrap_or_default(),
        }
    }

    /// The signature of the subplan over `set`.
    pub fn sign(&self, set: TableSet) -> String {
        let mask = set.mask();
        let parts = || {
            let members = set.iter().map(|t| self.tables[t].as_str());
            let preds = self
                .preds
                .iter()
                .filter(move |(m, _)| m & !mask == 0)
                .map(|(_, s)| s.as_str());
            members.chain(preds)
        };
        let len = parts().map(|p| p.len() + 1).sum::<usize>() + self.params.len();
        let mut sig = String::with_capacity(len);
        for (i, part) in parts().enumerate() {
            if i > 0 {
                sig.push('|');
            }
            sig.push_str(part);
        }
        sig.push_str(&self.params);
        sig
    }
}

/// Compute the canonical signature of the subplan over `set` within `spec`.
pub fn subplan_signature(spec: &QuerySpec, set: TableSet) -> String {
    Signer::new(spec, None).sign(set)
}

/// The column layout of every subplan over `set` — what its leaves,
/// joins and their wrappers emit, and so the one contract temp-MV
/// producers (harvests) and consumers (MV scans) share: the columns of
/// the member tables that are [`QuerySpec::read_above`] `set`, ascending
/// by query-table index then column index. `col_counts[t]` is the column
/// count of query table `t` (a table past its end has none).
/// [`PhysNode::columns`](crate::PhysNode::columns) derives every plan
/// node's columns from it.
pub fn canonical_layout(spec: &QuerySpec, set: TableSet, col_counts: &[usize]) -> Vec<ColId> {
    set.iter()
        .flat_map(|t| {
            let n = col_counts.get(t).copied().unwrap_or(0);
            (0..n).map(move |c| ColId::new(t, c))
        })
        .filter(|&c| spec.read_above(set, c))
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
