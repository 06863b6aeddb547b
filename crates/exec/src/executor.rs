//! The top-level execution loop: build, open, drain — or suspend on a
//! CHECK violation.

use crate::build::Signatures;
use crate::{build_operator, ExecCtx, ExecSignal, RowBatch, Violation};
use pop_plan::PhysNode;
use pop_types::PopResult;

/// Result of one execution step: the root's output batches, as emitted
/// (their live rows, in order, are the rows returned to the application).
#[derive(Debug)]
pub enum RunOutcome {
    /// The plan ran to completion.
    Complete {
        /// Every batch the plan returned.
        batches: Vec<RowBatch>,
    },
    /// A CHECK violated its range: execution stopped for re-optimization.
    Suspended {
        /// Batches already returned to the application before the
        /// violation (the driver must compensate for their rows in the
        /// next step).
        batches: Vec<RowBatch>,
        /// The violation that stopped execution.
        violation: Violation,
    },
}

impl RunOutcome {
    /// The batches produced, regardless of outcome.
    pub fn batches(&self) -> &[RowBatch] {
        match self {
            RunOutcome::Complete { batches } | RunOutcome::Suspended { batches, .. } => batches,
        }
    }

    /// Number of rows produced.
    pub fn row_count(&self) -> usize {
        self.batches().iter().map(RowBatch::live_count).sum()
    }

    /// Did the step complete?
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete { .. })
    }
}

/// Execute one step of a plan. Per-run instrumentation in `ctx` is reset;
/// cross-run compensation state is preserved.
pub fn execute(
    plan: &PhysNode,
    ctx: &mut ExecCtx,
    signatures: &Signatures,
) -> PopResult<RunOutcome> {
    ctx.begin_run();
    let mut op = build_operator(plan, &ctx.catalog, signatures)?;
    let mut batches = Vec::new();
    match op.open(ctx) {
        Ok(()) => {}
        Err(ExecSignal::Reopt(v)) => {
            op.close(ctx);
            return Ok(RunOutcome::Suspended {
                batches,
                violation: *v,
            });
        }
        Err(ExecSignal::Error(e)) => {
            op.close(ctx);
            return Err(e);
        }
    }
    loop {
        match op.next_batch(ctx) {
            Ok(Some(b)) => {
                ctx.batches_emitted += 1;
                ctx.charge(b.live_count() as f64 * ctx.model.output_row);
                ctx.guard.add_rows(b.live_count() as u64);
                if let Err(e) = ctx.guard_tick() {
                    op.close(ctx);
                    return Err(e);
                }
                batches.push(b);
            }
            Ok(None) => break,
            Err(ExecSignal::Reopt(v)) => {
                op.close(ctx);
                return Ok(RunOutcome::Suspended {
                    batches,
                    violation: *v,
                });
            }
            Err(ExecSignal::Error(e)) => {
                op.close(ctx);
                return Err(e);
            }
        }
    }
    op.close(ctx);
    Ok(RunOutcome::Complete { batches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_expr::{Expr, Params};
    use pop_plan::{
        CheckFlavor, CheckSpec, CostModel, LayoutCol, PlanProps, TableSet, ValidityRange,
    };
    use pop_storage::Catalog;
    use pop_types::{ColId, DataType, Schema, Value};
    use std::collections::HashMap;

    fn scan_plan(pred: Option<Expr>) -> (ExecCtx, PhysNode) {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::from_pairs(&[("a", DataType::Int)]),
            (0..20).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), CostModel::default());
        let plan = PhysNode::TableScan {
            qidx: 0,
            table: "t".into(),
            pred,
            props: PlanProps::leaf(
                TableSet::single(0),
                20.0,
                20.0,
                vec![LayoutCol::Base(ColId::new(0, 0))],
            ),
        };
        (ctx, plan)
    }

    #[test]
    fn simple_scan_completes() {
        let (mut ctx, plan) = scan_plan(None);
        let out = execute(&plan, &mut ctx, &HashMap::new()).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.row_count(), 20);
        assert!(ctx.work > 0.0);
    }

    #[test]
    fn filtered_scan() {
        let (mut ctx, plan) = scan_plan(Some(Expr::col(0, 0).lt(Expr::lit(5i64))));
        let out = execute(&plan, &mut ctx, &HashMap::new()).unwrap();
        assert_eq!(out.row_count(), 5);
    }

    #[test]
    fn violated_check_suspends_with_partial_rows() {
        let (mut ctx, scan) = scan_plan(None);
        let props = scan.props().clone();
        let plan = PhysNode::Check {
            input: Box::new(scan),
            spec: CheckSpec {
                id: 0,
                flavor: CheckFlavor::Ecdc,
                range: ValidityRange::new(0.0, 7.0),
                est_card: 5.0,
                signature: "sig".into(),
                context: pop_plan::CheckContext::Pipeline,
            },
            props,
        };
        let out = execute(&plan, &mut ctx, &HashMap::new()).unwrap();
        assert_eq!(out.row_count(), 7);
        match out {
            RunOutcome::Suspended { violation, .. } => {
                assert_eq!(violation.check_id, 0);
                assert_eq!(violation.observed, crate::ObservedCard::AtLeast(8));
            }
            other @ RunOutcome::Complete { .. } => panic!("expected suspension, got {other:?}"),
        }
    }

    #[test]
    fn unknown_table_is_error() {
        let (mut ctx, _) = scan_plan(None);
        let plan = PhysNode::TableScan {
            qidx: 0,
            table: "missing".into(),
            pred: None,
            props: PlanProps::leaf(TableSet::single(0), 0.0, 0.0, vec![]),
        };
        assert!(execute(&plan, &mut ctx, &HashMap::new()).is_err());
    }
}
