//! Rows and row identifiers.

use crate::Value;
use std::fmt;

/// A row is a flat vector of values; a node's layout (see `pop-plan`)
/// says which (table, column) each position corresponds to.
pub type Row = Vec<Value>;

/// A row identifier: which base table a row came from and its position.
///
/// Rids serve two purposes in POP:
/// * lineage tracking for *eager checking with deferred compensation*
///   (ECDC, §3.3 of the paper): the rids of rows already returned to the
///   application are remembered in a side table, and the re-optimized plan
///   anti-joins against it so no duplicates are returned, and
/// * exactly-once application of side effects across re-optimizations.
///
/// Rows carry rids only when one of these can read them: the driver turns
/// lineage on, once per query, if and only if the flavor set includes ECDC
/// or the query inserts (`PopExecutor::carries_lineage`). Otherwise no
/// operator builds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Identifier of the base table within the catalog.
    pub table: u32,
    /// Row position within the base table.
    pub row: u64,
}

impl Rid {
    /// Construct a rid.
    pub fn new(table: u32, row: u64) -> Self {
        Rid { table, row }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.table, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_ordering_and_display() {
        let a = Rid::new(0, 5);
        let b = Rid::new(1, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "0:5");
    }

    #[test]
    fn rows_are_value_vectors() {
        let r: Row = vec![Value::Int(1), Value::str("x")];
        assert_eq!(r.len(), 2);
    }
}
