//! The cost identity, runtime side: every operator that charges work
//! charges exactly the `pop_plan::CostModel` unit function the optimizer
//! estimates with, evaluated at the counts the operator observed.
//!
//! Each case runs one charging operator over scans of known tables, on the
//! mem backend and on small pages behind a tiny pool, under the flat model
//! and under a paged model whose memory budget is small enough for the
//! fixtures to spill, at batch sizes 1, 7 and 1024. The expected work is
//! composed from the unit functions alone: the scans' `scan_cost`, plus the
//! operator's own unit at the rows, fetches and page transitions counted
//! here from the tables and indexes.

use pop_exec::operators::{
    AggKind, AntiJoinRidsOp, GuardOp, HashAggOp, HsjnOp, IndexRangeScanOp, InsertOp, MgjnOp,
    MvScanOp, NljnOp, RidSinkOp, SemiProbeOp, SortOp, TableScanOp, TempOp,
};
use pop_exec::{execute, ExecCtx, JoinSide, Operator};
use pop_expr::{BoundExpr, Expr, Params};
use pop_plan::{
    CheckContext, CheckFlavor, CheckSpec, CostModel, PhysNode, PlanProps, QueryBuilder, TableSet,
    ValidityRange,
};
use pop_storage::{Catalog, Index, IndexKind, StorageConfig, Table};
use pop_types::{ColId, DataType, Schema, Value};
use std::sync::Arc;

/// Join output columns: the left positions `left`, then the right's.
fn side_by_side(left: &[usize], right: &[usize]) -> Vec<(JoinSide, usize)> {
    (left.iter().map(|p| (JoinSide::Left, *p)))
        .chain(right.iter().map(|p| (JoinSide::Right, *p)))
        .collect()
}

/// Rows of `t`; `u` has three rows per key below `N / 4` plus `NULLS`
/// rows with a NULL key.
const N: i64 = 300;
const NULLS: i64 = 5;

/// `t(k, grp, pad)`: one row per `k`, stored in key order.
fn t_rows() -> impl Iterator<Item = Vec<Value>> {
    (0..N).map(|k| {
        vec![
            Value::Int(k),
            Value::Int(k % 7),
            Value::str("pad-".repeat(1 + (k % 4) as usize)),
        ]
    })
}

/// `u(k, w)`: row `3k + j` is `(k, j)`, then the NULL-key rows.
fn u_rows() -> impl Iterator<Item = Vec<Value>> {
    let keyed = (0..N / 4 * 3).map(|p| vec![Value::Int(p / 3), Value::Int(p % 3)]);
    keyed.chain((0..NULLS).map(|j| vec![Value::Null, Value::Int(j)]))
}

/// Row count of `u`.
fn u_len() -> f64 {
    (N / 4 * 3 + NULLS) as f64
}

struct Fixture {
    ctx: ExecCtx,
    t: Arc<Table>,
    u: Arc<Table>,
    empty: Arc<Table>,
    /// Sorted index on `t.k`, hash index on `u.k`.
    t_k: Arc<Index>,
    u_k: Arc<Index>,
}

impl Fixture {
    fn m(&self) -> &CostModel {
        &self.ctx.model
    }

    /// What a full scan of `t` charges.
    fn scan_cost(&self, t: &Table) -> f64 {
        self.m()
            .scan_cost(t.row_count() as f64, t.page_count() as f64)
    }
}

fn scan(t: &Arc<Table>) -> Box<dyn Operator> {
    Box::new(TableScanOp::new(Arc::clone(t), None))
}

/// Page transitions of fetching `positions` from `t` in this order.
fn transitions(t: &Table, positions: impl IntoIterator<Item = u64>) -> f64 {
    let fetcher = t.fetcher();
    let mut last = None;
    positions
        .into_iter()
        .filter(|&p| last.replace(fetcher.page_of(p)) != Some(fetcher.page_of(p)))
        .count() as f64
}

/// The flat model, and the paged model with a 100-row memory budget.
fn models() -> [CostModel; 2] {
    [
        CostModel::default(),
        CostModel {
            mem_rows: 100.0,
            ..CostModel::paged()
        },
    ]
}

/// The tables on the mem backend, then on 512-byte pages behind a
/// four-frame pool.
fn fixtures(model: &CostModel) -> [Fixture; 2] {
    let paged = StorageConfig {
        page_size: 512,
        buffer_pool_bytes: 2048,
        ..StorageConfig::paged()
    };
    [StorageConfig::default(), paged].map(|config| {
        let cat = Catalog::with_storage(config);
        let schema = |cols: &[(&str, DataType)]| Schema::from_pairs(cols);
        let t_schema = schema(&[
            ("k", DataType::Int),
            ("grp", DataType::Int),
            ("pad", DataType::Str),
        ]);
        let t = cat.create_table("t", t_schema.clone(), t_rows()).unwrap();
        let u_schema = schema(&[("k", DataType::Int), ("w", DataType::Int)]);
        let u = cat.create_table("u", u_schema, u_rows()).unwrap();
        let empty = cat.create_table("empty", t_schema.clone(), None).unwrap();
        cat.create_table("sink", t_schema, None).unwrap();
        cat.create_index("t", "k", IndexKind::Sorted).unwrap();
        cat.create_index("u", "k", IndexKind::Hash).unwrap();
        let t_k = cat.find_index(t.id(), 0, true).unwrap();
        let u_k = cat.find_index(u.id(), 0, false).unwrap();
        let ctx = ExecCtx::new(cat, Params::none(), model.clone());
        Fixture {
            ctx,
            t,
            u,
            empty,
            t_k,
            u_k,
        }
    })
}

/// Run `plan` to completion on every model, backend and batch size, and
/// assert the work it charged is `want` (1e-9 relative: the runtime adds
/// per chunk or batch, the formula once).
fn identity(
    name: &str,
    plan: impl Fn(&Fixture) -> Box<dyn Operator>,
    want: impl Fn(&Fixture) -> f64,
) {
    for model in models() {
        for batch_size in [1, 7, 1024] {
            for mut f in fixtures(&model) {
                let backend = if f.t.is_paged() { "paged" } else { "mem" };
                let at = format!(
                    "{name} on {backend}, page_io {}, batch {batch_size}",
                    model.page_io
                );
                let mut op = plan(&f);
                f.ctx.batch_size = batch_size;
                op.open(&mut f.ctx).unwrap();
                while op.next_batch(&mut f.ctx).unwrap().is_some() {}
                op.close(&mut f.ctx);
                let (got, want) = (f.ctx.work, want(&f));
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs(),
                    "{at}: charged {got}, the unit functions say {want}"
                );
            }
        }
    }
}

fn spec(range: ValidityRange) -> CheckSpec {
    CheckSpec {
        id: 0,
        flavor: CheckFlavor::Lc,
        range,
        est_card: 1.0,
        context: CheckContext::Pipeline,
    }
}

fn bind(expr: &Expr, table: &Table) -> BoundExpr {
    let layout: Vec<ColId> = (0..table.schema().len())
        .map(|c| ColId::new(0, c))
        .collect();
    BoundExpr::bind(expr, &layout).unwrap()
}

#[test]
fn scans_charge_rows_and_pages() {
    identity(
        "table scan",
        |f| {
            let pred = bind(&Expr::col(0, 1).eq(Expr::lit(3i64)), &f.t);
            Box::new(TableScanOp::new(Arc::clone(&f.t), Some(pred)))
        },
        |f| f.scan_cost(&f.t),
    );
    identity("empty scan", |f| scan(&f.empty), |f| f.scan_cost(&f.empty));
    identity(
        "MV scan",
        |f| Box::new(MvScanOp::new(Arc::clone(&f.t), None)),
        |f| f.m().mv_scan_cost(N as f64, f.t.page_count() as f64),
    );
}

#[test]
fn index_range_scan_charges_one_descent_its_fetches_and_page_transitions() {
    let (lo, hi) = (Value::Int(40), Value::Int(220));
    identity(
        "index range scan",
        |f| {
            let (lo, hi) = (Some(lo.clone()), Some(hi.clone()));
            Box::new(IndexRangeScanOp::new(
                Arc::clone(&f.t),
                Arc::clone(&f.t_k),
                lo,
                hi,
                None,
            ))
        },
        |f| {
            let positions = f.t_k.range(Some(&lo), Some(&hi)).unwrap();
            let pages = transitions(&f.t, positions.iter().copied());
            f.m().index_access(1.0, positions.len() as f64, pages)
        },
    );
}

#[test]
fn nljn_charges_a_probe_per_outer_row_and_every_match() {
    identity(
        "NLJN",
        |f| {
            let (u, u_k) = (Arc::clone(&f.u), Arc::clone(&f.u_k));
            let cols = side_by_side(&[0, 1, 2], &[0, 1]);
            Box::new(NljnOp::new(scan(&f.t), 0, u, u_k, None, Vec::new(), cols))
        },
        |f| {
            let matches: Vec<u64> = (0..N).flat_map(|k| f.u_k.probe(&Value::Int(k))).collect();
            let pages = transitions(&f.u, matches.iter().copied());
            f.scan_cost(&f.t) + f.m().index_access(N as f64, matches.len() as f64, pages)
        },
    );
}

/// `EXISTS (u WHERE u.k = t.k AND u.w = w)`: the probe fetches matches up
/// to the first with `w` (row `3k + j` has `w = j`) and no further.
#[test]
fn semi_probe_stops_at_its_first_qualifying_match() {
    for (w, negated) in [(0, false), (2, false), (1, true)] {
        identity(
            &format!("semi probe w = {w}, negated {negated}"),
            |f| {
                let pred = bind(&Expr::col(0, 1).eq(Expr::lit(w)), &f.u);
                let (u, u_k) = (Arc::clone(&f.u), Arc::clone(&f.u_k));
                Box::new(SemiProbeOp::new(scan(&f.t), 0, u, u_k, Some(pred), negated))
            },
            |f| {
                let fetched: Vec<u64> = (0..N)
                    .flat_map(|k| {
                        let matches = f.u_k.probe(&Value::Int(k));
                        let first = matches.iter().position(|p| *p % 3 == w as u64);
                        let upto = first.map_or(matches.len(), |i| i + 1);
                        matches.into_iter().take(upto)
                    })
                    .collect();
                let pages = transitions(&f.u, fetched.iter().copied());
                f.scan_cost(&f.t) + f.m().index_access(N as f64, fetched.len() as f64, pages)
            },
        );
    }
}

#[test]
fn hash_join_charges_build_spill_and_probe() {
    let join = |f: &Fixture, build: &Arc<Table>, probe: &Arc<Table>| -> f64 {
        let (b, p) = (build.row_count() as f64, probe.row_count() as f64);
        let m = f.m();
        f.scan_cost(build)
            + f.scan_cost(probe)
            + m.hash_build(b)
            + m.hash_build_spill(b)
            + m.hash_probe(p, m.spill_passes(b))
    };
    // Built on `t`: 300 rows, past the spill model's 100-row budget.
    identity(
        "HSJN, spilled build",
        |f| {
            let cols = side_by_side(&[0, 1, 2], &[0, 1]);
            Box::new(HsjnOp::new(scan(&f.t), scan(&f.u), vec![0], vec![0], cols))
        },
        |f| join(f, &f.t, &f.u),
    );
    // Built on `u`: its NULL keys are charged but never indexed.
    identity(
        "HSJN, NULL build keys",
        |f| {
            let cols = side_by_side(&[0, 1], &[0, 1, 2]);
            Box::new(HsjnOp::new(scan(&f.u), scan(&f.t), vec![0], vec![0], cols))
        },
        |f| join(f, &f.u, &f.t),
    );
    identity(
        "HSJN, empty build",
        |f| {
            let cols = side_by_side(&[0, 1, 2], &[0, 1, 2]);
            Box::new(HsjnOp::new(
                scan(&f.empty),
                scan(&f.t),
                vec![0],
                vec![0],
                cols,
            ))
        },
        |f| join(f, &f.empty, &f.t),
    );
}

/// A self-join of `u` on `k` pulls every row of both sides, NULL keys
/// included.
#[test]
fn merge_join_charges_every_row_it_pulls() {
    let sorted = |f: &Fixture| Box::new(SortOp::new(scan(&f.u), 0, false, None));
    identity(
        "MGJN",
        |f| {
            let cols = side_by_side(&[0, 1], &[0, 1]);
            Box::new(MgjnOp::new(sorted(f), sorted(f), 0, 0, cols))
        },
        |f| {
            let sort = f.scan_cost(&f.u) + f.m().sort_cost(u_len());
            2.0 * sort + f.m().merge(2.0 * u_len())
        },
    );
}

#[test]
fn sort_temp_and_aggregate_charge_their_input_rows() {
    for (name, t) in [("", false), (" of nothing", true)] {
        let table = move |f: &Fixture| Arc::clone(if t { &f.empty } else { &f.t });
        let rows = move |f: &Fixture| table(f).row_count() as f64;
        identity(
            &format!("SORT{name}"),
            |f| Box::new(SortOp::new(scan(&table(f)), 0, true, None)),
            |f| f.scan_cost(&table(f)) + f.m().sort_cost(rows(f)),
        );
        identity(
            &format!("TEMP{name}"),
            |f| Box::new(TempOp::new(scan(&table(f)), None)),
            |f| f.scan_cost(&table(f)) + f.m().temp_cost(rows(f)),
        );
        identity(
            &format!("AGG{name}"),
            |f| {
                Box::new(HashAggOp::new(
                    scan(&table(f)),
                    vec![1],
                    vec![AggKind::Count],
                ))
            },
            |f| f.scan_cost(&table(f)) + f.m().agg_cost(rows(f)),
        );
    }
}

#[test]
fn guards_charge_streamed_decided_and_buffered_rows() {
    let open = ValidityRange::unbounded();
    let tables = TableSet::single(0);
    identity(
        "streamed CHECK",
        |f| Box::new(GuardOp::check(scan(&f.t), spec(open), tables, false)),
        |f| f.scan_cost(&f.t) + f.m().check_cost(N as f64, false),
    );
    identity(
        "CHECK decided on a materialization",
        |f| {
            let temp = Box::new(TempOp::new(scan(&f.t), None));
            Box::new(GuardOp::check(temp, spec(open), tables, true))
        },
        |f| f.scan_cost(&f.t) + f.m().temp_cost(N as f64) + f.m().check_cost(N as f64, true),
    );
    for capacity in [100, 1000] {
        identity(
            &format!("BUFCHECK, valve of {capacity}"),
            |f| Box::new(GuardOp::bufcheck(scan(&f.t), spec(open), tables, capacity)),
            |f| f.scan_cost(&f.t) + f.m().bufcheck_cost(N as f64, capacity as f64),
        );
    }
}

#[test]
fn side_effect_and_compensation_operators_charge_per_row() {
    identity(
        "RIDSINK",
        |f| Box::new(RidSinkOp::new(scan(&f.t))),
        |f| f.scan_cost(&f.t) + f.m().rid_sink(N as f64),
    );
    identity(
        "anti-join",
        |f| Box::new(AntiJoinRidsOp::new(scan(&f.t))),
        |f| f.scan_cost(&f.t) + f.m().anti_join(N as f64),
    );
    identity(
        "INSERT",
        |f| {
            let sink = f.ctx.catalog.table("sink").unwrap();
            Box::new(InsertOp::new(scan(&f.t), sink))
        },
        |f| f.scan_cost(&f.t) + f.m().insert(N as f64),
    );
}

/// The executor charges every row it hands to the application.
#[test]
fn execution_charges_the_result_rows() {
    for model in models() {
        for mut f in fixtures(&model) {
            let plan = PhysNode::TableScan {
                qidx: 0,
                table: "t".into(),
                pred: None,
                props: PlanProps::leaf(TableSet::single(0), N as f64, 0.0),
            };
            let mut q = QueryBuilder::new();
            q.table("t");
            execute(&plan, &q.build().unwrap(), &[3], &mut f.ctx).unwrap();
            let want = f.scan_cost(&f.t) + f.m().output(N as f64);
            assert!(
                (f.ctx.work - want).abs() <= 1e-9 * want,
                "{} vs {want}",
                f.ctx.work
            );
        }
    }
}
