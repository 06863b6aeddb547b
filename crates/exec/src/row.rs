//! Rows flowing between operators, with base-row lineage.

use pop_types::{Rid, Row};

/// A row plus the rids of the base-table rows it derives from.
///
/// Lineage powers two POP mechanisms:
/// * **ECDC deferred compensation** (§3.3): rows already returned to the
///   application are remembered by lineage, and the re-optimized plan's
///   anti-join drops them so the application never sees duplicates;
/// * **exactly-once side effects**: an INSERT operator skips source rows
///   whose lineage was already applied in a previous execution step.
///
/// Aggregation produces rows with empty lineage — such plans are blocking
/// at the top, so no rows can have been returned before a CHECK fires.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRow {
    /// Column values (layout given by the plan node producing the row).
    pub values: Row,
    /// Contributing base rids, in query-table order of first contribution.
    pub lineage: Vec<Rid>,
}

impl ExecRow {
    /// Row from a single base-table row.
    pub fn base(values: Row, rid: Rid) -> Self {
        ExecRow {
            values,
            lineage: vec![rid],
        }
    }

    /// Concatenate two rows (join output).
    pub fn concat(mut self, other: &ExecRow) -> ExecRow {
        self.values.extend_from_slice(&other.values);
        self.lineage.extend_from_slice(&other.lineage);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::Value;

    #[test]
    fn concat_merges_values_and_lineage() {
        let a = ExecRow::base(vec![Value::Int(1)], Rid::new(0, 7));
        let b = ExecRow::base(vec![Value::Int(2)], Rid::new(1, 9));
        let c = a.concat(&b);
        assert_eq!(c.values, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(c.lineage, vec![Rid::new(0, 7), Rid::new(1, 9)]);
    }
}
