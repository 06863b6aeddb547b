//! A registry of analyzed table statistics.

use crate::{analyze_table, TableStats};
use parking_lot::RwLock;
use pop_storage::Catalog;
use pop_types::{PopError, PopResult};
use std::collections::HashMap;
use std::sync::Arc;

/// Caches `TableStats` per table name; the optimizer reads estimates from
/// here. A temp MV has no entry: its exact cardinality travels with the
/// catalog's `TempMv`, which MV-scan costing reads.
#[derive(Clone, Default)]
pub struct StatsRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<TableStats>>>>,
}

impl std::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("tables", &self.inner.read().len())
            .finish_non_exhaustive()
    }
}

impl StatsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Analyze one table and cache its stats.
    pub fn analyze(&self, catalog: &Catalog, table: &str) -> PopResult<Arc<TableStats>> {
        let t = catalog.table(table)?;
        let stats = Arc::new(analyze_table(&t)?);
        self.inner.write().insert(table.to_string(), stats.clone());
        Ok(stats)
    }

    /// Analyze every table in the catalog.
    pub fn analyze_all(&self, catalog: &Catalog) -> PopResult<()> {
        for name in catalog.table_names() {
            self.analyze(catalog, &name)?;
        }
        Ok(())
    }

    /// Insert explicit stats (e.g. deliberately stale ones, for
    /// experiments).
    pub fn put(&self, table: impl Into<String>, stats: TableStats) {
        self.inner.write().insert(table.into(), Arc::new(stats));
    }

    /// Fetch stats for a table.
    pub fn get(&self, table: &str) -> PopResult<Arc<TableStats>> {
        self.inner
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| PopError::Planning(format!("no statistics for table {table}")))
    }

    /// Remove stats for a table.
    pub fn remove(&self, table: &str) {
        self.inner.write().remove(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{DataType, Schema, Value};

    #[test]
    fn analyze_and_get() {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::from_pairs(&[("a", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        let reg = StatsRegistry::new();
        reg.analyze_all(&cat).unwrap();
        assert_eq!(reg.get("t").unwrap().row_count, 2);
        assert!(reg.get("missing").is_err());
    }

    #[test]
    fn put_and_remove() {
        let reg = StatsRegistry::new();
        let stats = TableStats {
            row_count: 42,
            pages: 1,
            columns: Vec::new(),
        };
        reg.put("stale", stats);
        assert_eq!(reg.get("stale").unwrap().row_count, 42);
        reg.remove("stale");
        assert!(reg.get("stale").is_err());
    }
}
