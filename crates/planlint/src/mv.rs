//! Pass 5: temp-MV reuse soundness (`PL401`, `PL402`).
//!
//! Re-optimization substitutes MVSCAN nodes for subplans whose results
//! were materialized in an earlier execution step (§2.3). The scan is only
//! sound if the catalog actually holds a temp MV over the scan's table set
//! and the MV was recorded in the set's canonical layout, which the scan
//! emits — otherwise the executor would read rows under the wrong column
//! interpretation.

use crate::{DiagCode, LintContext, NodeCx, Sink};
use pop_plan::{Columns, PhysNode};

pub(crate) fn check(cx: &NodeCx<'_, '_>, ctx: &LintContext<'_>, sink: &mut Sink) {
    let (node, path) = (cx.node, cx.path);
    let PhysNode::MvScan { mv_name, props } = node else {
        return;
    };
    let Some(mv) = ctx.catalog.temp_mv(props.tables.mask()) else {
        sink.emit(
            DiagCode::Pl401,
            node,
            path,
            format!("no temp MV registered over tables {}", props.tables),
        );
        return;
    };
    if mv.table.name() != mv_name {
        sink.emit(
            DiagCode::Pl402,
            node,
            path,
            format!(
                "MV scan names table '{mv_name}' but its table set resolves to '{}'",
                mv.table.name()
            ),
        );
    }
    let emitted = ctx.columns(node);
    if !matches!(&emitted, Columns::Base(cols) if *cols == mv.layout) {
        sink.emit(
            DiagCode::Pl402,
            node,
            path,
            format!(
                "MV scan over {} emits its canonical layout ({} columns), but the MV was recorded with {} columns",
                props.tables,
                emitted.len(),
                mv.layout.len()
            ),
        );
    }
    if mv.table.schema().len() != mv.layout.len() {
        sink.emit(
            DiagCode::Pl402,
            node,
            path,
            format!(
                "MV backing table has {} columns but the recorded layout has {}",
                mv.table.schema().len(),
                mv.layout.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{catalog, codes, lint};
    use pop_plan::{PhysNode, PlanProps, TableSet};
    use pop_storage::{Table, TempMv};
    use pop_types::{ColId, ColumnDef, DataType, Schema};
    use std::sync::Arc;

    /// The fixture catalog holding one 7-row MV over query table 0 (`a`,
    /// whose canonical layout under `SELECT *` is its 3 columns),
    /// recorded with `cols` columns.
    fn catalog_with_mv(cols: usize) -> pop_storage::Catalog {
        let cat = catalog();
        let schema = Schema::new(
            (0..cols)
                .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        let id = cat.allocate_temp_id();
        let table = Arc::new(Table::new(id, "__pop_mv_0", schema, vec![vec![]; 7]));
        cat.register_temp_mv(TempMv {
            table,
            tables: 1,
            layout: (0..cols).map(|c| ColId::new(0, c)).collect(),
            actual_card: 7,
            lineage: None,
        });
        cat
    }

    /// An MV scan over query table `t`.
    fn mvscan(name: &str, t: usize, card: f64) -> PhysNode {
        PhysNode::MvScan {
            mv_name: name.into(),
            props: PlanProps::leaf(TableSet::single(t), card, card),
        }
    }

    fn lint_against(cat: &pop_storage::Catalog, plan: &PhysNode) -> Vec<&'static str> {
        let q = crate::testutil::select_star();
        codes(&crate::lint_plan(plan, &crate::LintContext::full(cat, &q)))
    }

    #[test]
    fn pl401_unknown_signature() {
        let cat = catalog_with_mv(3);
        let plan = mvscan("__pop_mv_0", 1, 7.0);
        assert_eq!(lint_against(&cat, &plan), vec!["PL401"]);
        assert_eq!(codes(&lint(&mvscan("__pop_mv_0", 0, 7.0))), vec!["PL401"]);
    }

    #[test]
    fn pl402_layout_width_mismatch() {
        let cat = catalog_with_mv(2); // 2 recorded columns, 3 canonical
        let plan = mvscan("__pop_mv_0", 0, 7.0);
        assert_eq!(lint_against(&cat, &plan), vec!["PL402"]);
    }

    #[test]
    fn pl402_name_mismatch() {
        let cat = catalog_with_mv(3);
        let plan = mvscan("some_other_table", 0, 7.0);
        assert_eq!(lint_against(&cat, &plan), vec!["PL402"]);
    }

    #[test]
    fn matching_mv_scan_is_clean() {
        let cat = catalog_with_mv(3);
        let plan = mvscan("__pop_mv_0", 0, 7.0);
        assert!(lint_against(&cat, &plan).is_empty());
    }
}
