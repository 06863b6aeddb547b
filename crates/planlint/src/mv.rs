//! Pass 5: temp-MV reuse soundness (`PL401`, `PL402`).
//!
//! Re-optimization substitutes MVSCAN nodes for subplans whose results
//! were materialized in an earlier execution step (§2.3). The scan is only
//! sound if the catalog actually holds a temp MV over the scan's table set
//! and its recorded layout matches the scan's output layout — otherwise
//! the executor would read rows under the wrong column interpretation.
//!
//! Requires a catalog in the [`LintContext`]; skipped without one.

use crate::{DiagCode, LintContext, NodeCx, Sink};
use pop_plan::{LayoutCol, PhysNode};

pub(crate) fn check(cx: &NodeCx<'_, '_>, ctx: LintContext<'_>, sink: &mut Sink) {
    let (node, path) = (cx.node, cx.path);
    let (PhysNode::MvScan { mv_name, props }, Some(catalog)) = (node, ctx.catalog) else {
        return;
    };
    let Some(mv) = catalog.temp_mv(props.tables.mask()) else {
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
    let expected: Vec<LayoutCol> = mv.layout.iter().map(|c| LayoutCol::Base(*c)).collect();
    if props.layout != expected {
        sink.emit(
            DiagCode::Pl402,
            node,
            path,
            format!(
                "MV scan layout ({} columns) does not match the recorded MV layout ({} columns)",
                props.layout.len(),
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
    use crate::testutil::codes;
    use crate::{lint_plan, LintContext};
    use pop_plan::{LayoutCol, PhysNode, PlanProps, TableSet};
    use pop_storage::{Catalog, Table, TempMv};
    use pop_types::{ColId, ColumnDef, DataType, Schema};
    use std::sync::Arc;

    /// A catalog holding one 7-row MV over query table 0.
    fn catalog_with_mv(cols: usize) -> Catalog {
        let cat = Catalog::new();
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
    fn mvscan(name: &str, t: usize, cols: usize, card: f64) -> PhysNode {
        PhysNode::MvScan {
            mv_name: name.into(),
            props: PlanProps::leaf(
                TableSet::single(t),
                card,
                card,
                (0..cols)
                    .map(|c| LayoutCol::Base(ColId::new(t, c)))
                    .collect(),
            ),
        }
    }

    fn lint_against(cat: &Catalog, plan: &PhysNode) -> Vec<&'static str> {
        let ctx = LintContext { catalog: Some(cat) };
        codes(&lint_plan(plan, &ctx))
    }

    #[test]
    fn pl401_unknown_signature() {
        let cat = catalog_with_mv(2);
        let plan = mvscan("__pop_mv_0", 1, 2, 7.0);
        assert!(lint_against(&cat, &plan).contains(&"PL401"));
    }

    #[test]
    fn pl402_layout_width_mismatch() {
        let cat = catalog_with_mv(3);
        let plan = mvscan("__pop_mv_0", 0, 2, 7.0); // 2 cols vs recorded 3
        assert!(lint_against(&cat, &plan).contains(&"PL402"));
    }

    #[test]
    fn pl402_name_mismatch() {
        let cat = catalog_with_mv(2);
        let plan = mvscan("some_other_table", 0, 2, 7.0);
        assert!(lint_against(&cat, &plan).contains(&"PL402"));
    }

    #[test]
    fn matching_mv_scan_is_clean() {
        let cat = catalog_with_mv(2);
        let plan = mvscan("__pop_mv_0", 0, 2, 7.0);
        assert!(lint_against(&cat, &plan).is_empty());
    }

    #[test]
    fn no_catalog_no_mv_findings() {
        let plan = mvscan("__pop_mv_0", 0, 2, 7.0);
        assert!(lint_plan(&plan, &LintContext::bare()).is_empty());
    }
}
