//! EXPLAIN-style plan rendering.

use crate::PhysNode;
use std::fmt;

impl fmt::Display for PhysNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(self, f, 0)
    }
}

fn render(node: &PhysNode, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    let p = node.props();
    match node {
        PhysNode::TableScan {
            qidx, table, pred, ..
        } => {
            write!(f, "SCAN {table}#{qidx}")?;
            if let Some(e) = pred {
                write!(f, " filter={e}")?;
            }
        }
        PhysNode::IndexRangeScan {
            qidx,
            table,
            column,
            lo,
            hi,
            residual,
            ..
        } => {
            write!(f, "IXSCAN {table}#{qidx} c{column} in [")?;
            match lo {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "-inf")?,
            }
            write!(f, ", ")?;
            match hi {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "+inf")?,
            }
            write!(f, "]")?;
            if let Some(e) = residual {
                write!(f, " residual={e}")?;
            }
        }
        PhysNode::MvScan { mv_name, .. } => {
            write!(f, "MVSCAN {mv_name} tables={}", p.tables)?;
        }
        PhysNode::Nljn {
            outer_key, inner, ..
        } => {
            write!(
                f,
                "NLJN outer_key={outer_key} inner={}#{} via idx(c{})",
                inner.table, inner.qidx, inner.join_col
            )?;
            if let Some(e) = &inner.pred {
                write!(f, " inner_filter={e}")?;
            }
        }
        PhysNode::Hsjn {
            build_keys,
            probe_keys,
            ..
        } => {
            write!(
                f,
                "HSJN build_keys={build_keys:?} probe_keys={probe_keys:?}"
            )?;
        }
        PhysNode::Mgjn {
            left_keys,
            right_keys,
            ..
        } => {
            write!(f, "MGJN left_keys={left_keys:?} right_keys={right_keys:?}")?;
        }
        PhysNode::Sort { key, desc, .. } => {
            write!(f, "SORT key={key:?} desc={desc}")?;
        }
        PhysNode::Temp { .. } => write!(f, "TEMP")?,
        PhysNode::Project { cols, .. } => write!(f, "PROJECT {} cols", cols.len())?,
        PhysNode::HashAgg { group_by, aggs, .. } => {
            write!(f, "AGG group_by={group_by:?} aggs={}", aggs.len())?;
        }
        PhysNode::Check { spec, .. } => {
            write!(
                f,
                "CHECK#{} {} range={} est={:.0}",
                spec.id, spec.flavor, spec.range, spec.est_card
            )?;
        }
        PhysNode::BufCheck { spec, buffer, .. } => {
            write!(
                f,
                "BUFCHECK#{} {} range={} est={:.0} buf={buffer}",
                spec.id, spec.flavor, spec.range, spec.est_card
            )?;
        }
        PhysNode::SemiProbe { clause, .. } => {
            write!(
                f,
                "{} {} on {}.c{} = {}",
                if clause.negated {
                    "ANTIPROBE"
                } else {
                    "SEMIPROBE"
                },
                clause.table,
                clause.table,
                clause.inner_col,
                clause.outer_col
            )?;
        }
        PhysNode::Having { preds, .. } => write!(f, "HAVING {} pred(s)", preds.len())?,
        PhysNode::Limit { n, .. } => write!(f, "LIMIT {n}")?,
        PhysNode::RidSink { .. } => write!(f, "RIDSINK")?,
        PhysNode::AntiJoinRids { .. } => write!(f, "ANTIJOIN(rid side table)")?,
        PhysNode::Insert { target, .. } => write!(f, "INSERT into {target}")?,
    }
    writeln!(f, "  [card={:.1} cost={:.1}]", p.card, p.cost)?;
    for c in node.children() {
        render(c, f, depth + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{PhysNode, PlanProps, TableSet};

    #[test]
    fn renders_tree() {
        let scan = PhysNode::TableScan {
            qidx: 0,
            table: "orders".into(),
            pred: None,
            props: PlanProps::leaf(TableSet::single(0), 100.0, 100.0),
        };
        let props = scan.props().clone();
        let temp = PhysNode::Temp {
            input: Box::new(scan),
            props,
        };
        let s = temp.to_string();
        assert!(s.contains("TEMP"));
        assert!(s.contains("SCAN orders#0"));
        assert!(s.contains("card=100.0"));
    }
}
