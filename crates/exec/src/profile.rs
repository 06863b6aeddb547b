//! Per-operator self time, for profiling a plan's execution.
//!
//! [`execute_profiled`] builds the same operator tree as
//! [`execute`](crate::execute), through the same builder, with a timing
//! wrapper around every operator, runs it once and reports each plan
//! node's self time: the wall time spent inside its `open` /
//! `next_batch` / `close` calls minus the time spent inside its
//! children's — and what it moved: the live rows it returned, each as
//! wide as its layout. The query path never builds the wrappers; only
//! profiling tools (`bench_exec --profile`) and tests call this.

use crate::build::{build_wrapped, Subplans};
use crate::executor::{drain_root, RunOutcome};
use crate::{ExecCtx, OpResult, Operator, RowBatch};
use pop_plan::PhysNode;
use pop_types::PopResult;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One plan node's share of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTime {
    /// The node's operator name ([`PhysNode::name`]).
    pub name: &'static str,
    /// Time inside the node's own calls, its children's excluded.
    pub self_time: Duration,
    /// Live rows the node returned.
    pub rows: u64,
    /// The node's layout width: each row returned carries this many
    /// values.
    pub width: usize,
}

impl OpTime {
    /// Values the node built or passed on: rows × layout width.
    pub fn cells(&self) -> u64 {
        self.rows * self.width as u64
    }
}

/// The clock every wrapper of one tree shares: the self time of each node
/// (in build order, children before parents), and for every call in
/// progress the time its nested (child) calls took so far.
#[derive(Default)]
struct Clock {
    nodes: Vec<OpTime>,
    nested: Vec<Duration>,
}

/// An operator whose calls are timed into node `id` of the clock.
struct Timed {
    inner: Box<dyn Operator>,
    id: usize,
    clock: Rc<RefCell<Clock>>,
}

impl Timed {
    fn time<R>(
        &mut self,
        ctx: &mut ExecCtx,
        call: impl FnOnce(&mut dyn Operator, &mut ExecCtx) -> R,
    ) -> R {
        self.clock.borrow_mut().nested.push(Duration::ZERO);
        let start = Instant::now();
        let out = call(self.inner.as_mut(), ctx);
        let total = start.elapsed();
        let mut clock = self.clock.borrow_mut();
        let nested = clock.nested.pop().unwrap_or_default();
        if let Some(parent) = clock.nested.last_mut() {
            *parent += total;
        }
        clock.nodes[self.id].self_time += total.saturating_sub(nested);
        out
    }
}

impl Operator for Timed {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.time(ctx, |op, ctx| op.open(ctx))
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        let out = self.time(ctx, |op, ctx| op.next_batch(ctx));
        if let Ok(Some(b)) = &out {
            self.clock.borrow_mut().nodes[self.id].rows += b.live_count() as u64;
        }
        out
    }

    fn close(&mut self, ctx: &mut ExecCtx) {
        self.time(ctx, |op, ctx| op.close(ctx));
    }

    fn materialized_count(&self) -> Option<u64> {
        self.inner.materialized_count()
    }
}

/// [`execute`](crate::execute) with every operator timed: the step's
/// outcome, and each plan node's self time and output, children before
/// parents.
/// Rows, work charges, CHECK events and harvests are those of `execute`.
pub fn execute_profiled(
    plan: &PhysNode,
    ctx: &mut ExecCtx,
    subplans: &Subplans,
) -> PopResult<(RunOutcome, Vec<OpTime>)> {
    ctx.begin_run();
    let clock = Rc::new(RefCell::new(Clock::default()));
    let op = build_wrapped(plan, &ctx.catalog, subplans, &mut |node, inner| {
        let mut c = clock.borrow_mut();
        c.nodes.push(OpTime {
            name: node.name(),
            self_time: Duration::ZERO,
            rows: 0,
            width: node.props().layout.len(),
        });
        Box::new(Timed {
            inner,
            id: c.nodes.len() - 1,
            clock: Rc::clone(&clock),
        })
    })?;
    let outcome = drain_root(op, ctx)?;
    let nodes = std::mem::take(&mut clock.borrow_mut().nodes);
    Ok((outcome, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use pop_expr::Params;
    use pop_plan::{
        CheckContext, CheckFlavor, CheckSpec, CostModel, LayoutCol, PlanProps, TableSet,
        ValidityRange,
    };
    use pop_storage::Catalog;
    use pop_types::{ColId, DataType, Schema, Value};

    /// The profiled run returns the rows, work and CHECK events of the
    /// plain one, and one entry per plan node, children first: a LIMIT
    /// over a SCAN, and a CHECK deciding once at open above a TEMP (the
    /// wrapper passes the TEMP's count through).
    #[test]
    fn profiled_run_equals_the_plain_run() {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::from_pairs(&[("a", DataType::Int)]),
            (0..50).map(|i| vec![Value::Int(i % 7)]),
        )
        .unwrap();
        let scan = PhysNode::TableScan {
            qidx: 0,
            table: "t".into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(0),
                50.0,
                50.0,
                vec![LayoutCol::Base(ColId::new(0, 0))],
            ),
        };
        let props = scan.props().clone();
        let limit = PhysNode::Limit {
            input: Box::new(scan.clone()),
            n: 20,
            props: props.clone(),
        };
        let check = |hi: f64| PhysNode::Check {
            input: Box::new(PhysNode::Temp {
                input: Box::new(scan.clone()),
                props: props.clone(),
            }),
            spec: CheckSpec {
                id: 0,
                flavor: CheckFlavor::Lc,
                range: ValidityRange::new(0.0, hi),
                est_card: 50.0,
                context: CheckContext::Pipeline,
            },
            props: props.clone(),
        };
        let run = |plan: &PhysNode, profiled: bool| {
            let mut ctx = ExecCtx::new(cat.clone(), Params::none(), CostModel::default());
            ctx.batch_size = 8;
            let (outcome, nodes) = if profiled {
                execute_profiled(plan, &mut ctx, &Subplans::new()).unwrap()
            } else {
                (
                    execute(plan, &mut ctx, &Subplans::new()).unwrap(),
                    Vec::new(),
                )
            };
            let rows: Vec<Vec<Value>> = outcome
                .batches()
                .iter()
                .flat_map(|b| b.live_indices().map(|i| b.row_at(i)))
                .collect();
            let events: Vec<String> = (ctx.check_events.iter())
                .map(|e| format!("{:?} {:?} {}", e.outcome, e.started_at, e.at_work))
                .collect();
            let names: Vec<(&str, u64, u64)> =
                nodes.iter().map(|n| (n.name, n.rows, n.cells())).collect();
            ((rows, ctx.work.to_bits(), events), names)
        };
        let (plain, _) = run(&limit, false);
        let (profiled, names) = run(&limit, true);
        assert_eq!(profiled.0.len(), 20);
        assert_eq!(profiled, plain);
        // The LIMIT pulled three 8-row batches from the scan and returned
        // 20 rows, each one column wide.
        assert_eq!(names, [("SCAN", 24, 24), ("LIMIT", 20, 20)]);
        // A passing and a violated CHECK above the TEMP.
        for hi in [100.0, 10.0] {
            let (plain, _) = run(&check(hi), false);
            let (profiled, names) = run(&check(hi), true);
            assert_eq!(plain.2.len(), 1, "the CHECK resolves once");
            assert_eq!(profiled, plain, "range 0..{hi}");
            let names: Vec<&str> = names.iter().map(|n| n.0).collect();
            assert_eq!(names, ["SCAN", "TEMP", "CHECK"]);
        }
    }
}
