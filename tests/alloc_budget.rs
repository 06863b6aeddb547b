//! A deterministic floor under the executor's materialization path and the
//! paged read path: heap allocations per query, counted by a wrapping
//! global allocator. Wall time swings with the machine; the number of times
//! a query asks the allocator for memory does not, so a regression back to
//! a heap block per row (owned build rows, per-key hit lists, per-group
//! state vectors, eager harvest copies, a `Vec` and its strings per row
//! decoded from a page) fails here on any box.
//!
//! The ceilings are the counts measured at the commit before the flat
//! row table (`RECORDED_BEFORE`; with it: Q18 2 375, Q3 3 172, Q1 541,
//! DMV18 96 468): Q18 — two hash joins under a 15 k-group aggregate — must
//! stay below a tenth of its old count, the others at or below theirs.
//! Q18, Q1 and DMV18 are also held under the counts they had while every
//! row carried lineage (`RECORDED_WITH_LINEAGE`): a default-flavor run
//! builds none.
//!
//! The re-optimization path has one too (`RECORDED_BEFORE_REOPT`):
//! promoting a harvest to a temp MV copies a column at a time into
//! storage, never a row per promoted row.
//!
//! The same floor sits under the optimizer (`RECORDED_BEFORE_PLANNING`):
//! planning an 11- or 12-table DMV query must allocate for the groups the
//! join graph connects and the candidates that survive pruning, not per
//! table subset, per split or per cost evaluation. A re-plan over a
//! persistent memo has its own (`RECORDED_BEFORE_REPLANNING`): re-deriving
//! one group allocates for that group and the plan handed out, not for
//! re-reading every table or re-hashing every connected set's signature.
//!
//! So does the static plan analysis (`RECORDED_BEFORE_VETTING`): one
//! planlint walk per plan, not three interpretations.
//!
//! And set-up (`RECORDED_BEFORE_SETUP`): generating, indexing and
//! analyzing TPC-H allocates per chunk and per column, plus one string
//! per row of a name column, never a `Vec<Value>` or a literal per row.
//!
//! One more fact is a count, not a time: a governor enforcing budgets that
//! never trip allocates exactly what no governor does.
//!
//! The allocator also tracks live bytes, so repeated passes over the same
//! executor can show that nothing a query leaves behind accumulates, and a
//! loaded catalog's resident size is held under a ceiling of its own.

// The workspace denies `unsafe_code`; implementing `GlobalAlloc` is the
// one way to observe allocations from inside the process, and this
// allocator only counts and forwards to `System`. Its own test binary, so
// no other test runs under it.
#![allow(unsafe_code)]

use pop::{Budget, PopConfig, PopExecutor, QueryResult};
use pop_expr::{Expr, Params};
use pop_optimizer::CostModel;
use pop_plan::{QueryBuilder, QuerySpec};
use pop_storage::StorageConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so touching it never allocates).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread being torn down may allocate after its TLS is
    // gone; those are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in
// thread-local storage.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mem backend, flat cost model, default batch size, no budget, faults or
/// learning.
fn config() -> PopConfig {
    PopConfig {
        cost_model: CostModel::default(),
        batch_size: 1024,
        budget: pop::Budget::default(),
        faults: None,
        learn_across_queries: false,
        ..PopConfig::default()
    }
}

/// Allocations of one whole `run` (optimizer, executor, result rows) on
/// this thread, and its result.
fn counted_run(exec: &PopExecutor, spec: &QuerySpec) -> (u64, QueryResult) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = exec.run(spec, &Params::none()).expect("query runs");
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Allocations of one whole `run` on this thread, and the number of
/// re-optimizations it took.
fn allocations(exec: &PopExecutor, spec: &QuerySpec) -> (u64, usize) {
    let (count, result) = counted_run(exec, spec);
    (count, result.report.reopt_count)
}

/// Counted second runs of `spec` on `a` and on `b`. Each executor runs it
/// once first, so what is built once — the memo, process-wide statics —
/// is where every later run finds it, and the two counts differ only by
/// what the two configurations do per run.
fn second_runs(a: &PopExecutor, b: &PopExecutor, spec: &QuerySpec) -> [(u64, QueryResult); 2] {
    counted_run(a, spec);
    counted_run(b, spec);
    [counted_run(a, spec), counted_run(b, spec)]
}

/// TPC-H Q6, Q1 and Q3 and `lineitem_sel`, a selective LINEITEM scan
/// projected onto three columns: the scan, aggregate and join paths the
/// guard counts are taken over.
fn scan_path_queries() -> Vec<(&'static str, QuerySpec)> {
    use pop_tpch::cols::lineitem;
    let mut b = QueryBuilder::new();
    let l = b.table("lineitem");
    b.filter(l, Expr::col(l, lineitem::QUANTITY).le(Expr::lit(25i64)));
    b.project(&[
        (l, lineitem::ORDERKEY),
        (l, lineitem::QUANTITY),
        (l, lineitem::EXTENDEDPRICE),
    ]);
    vec![
        ("Q6", pop_tpch::q6()),
        ("Q1", pop_tpch::q1()),
        ("Q3", pop_tpch::q3()),
        ("lineitem_sel", b.build().expect("lineitem_sel query")),
    ]
}

/// Limits so large no query here trips them: the governor's ledger runs
/// (row counting, work ticks, byte reservations) but never fires.
fn generous_budget() -> Budget {
    Budget {
        max_work: Some(1e18),
        max_rows: Some(u64::MAX),
        max_resident_bytes: Some(u64::MAX),
        max_wall_ms: None,
    }
}

#[test]
fn a_generous_budget_allocates_exactly_what_no_budget_does() {
    let tpch = pop_tpch::tpch_catalog_with(0.01, StorageConfig::default()).unwrap();
    let executor = |budget| {
        let cfg = PopConfig {
            enabled: false,
            budget,
            ..config()
        };
        PopExecutor::new(tpch.clone(), cfg).unwrap()
    };
    let (off, on) = (executor(Budget::unlimited()), executor(generous_budget()));
    for (name, spec) in scan_path_queries() {
        let [(unlimited, free), (generous, governed)] = second_runs(&off, &on, &spec);
        println!(
            "{name}: {unlimited} allocation(s) unbudgeted, {generous} under a generous budget"
        );
        assert_eq!(
            governed.rows, free.rows,
            "{name}: the budget changed the rows"
        );
        assert_eq!(
            governed.report.total_work.to_bits(),
            free.report.total_work.to_bits(),
            "{name}: the budget changed the work"
        );
        assert_eq!(
            generous, unlimited,
            "{name}: the governor's ledger allocates"
        );
    }
}

/// `(query, allocations at the parent commit, allowed share of them)`.
/// DMV18 is a query the correlated DMV data re-optimizes, with harvested
/// materializations promoted to temp MVs.
const RECORDED_BEFORE: [(&str, u64, f64); 4] = [
    ("Q18", 152_366, 0.1),
    ("Q3", 19_660, 1.0),
    ("Q1", 1_132, 1.0),
    ("DMV18", 188_821, 1.0),
];

/// Three of the same queries at the commit before lineage became a
/// per-query switch, when every scanned row carried a rid into every
/// batch, join output and materialization: `(query, allocations in a
/// release build, allowed share)`. Under the default flavors nothing reads
/// lineage, so none is built: Q18 1 261, Q1 473 and DMV18 3 183 allocations
/// in release; a debug build, which also runs each plan through the deny
/// gate, counts 1 328, 501 and 3 421. A run that carries lineage again
/// allocates its flat rid vector per batch and per buffer once more and
/// lands above these ceilings. Q3 saves 84 allocations (2 066 → 1 982),
/// too few to stay clear of the deny gate's 59 in a debug build, so it
/// keeps only its ceiling above.
const RECORDED_WITH_LINEAGE: [(&str, u64, f64); 3] = [
    ("Q18", 1_416, 0.97),
    ("Q1", 532, 0.97),
    ("DMV18", 3_509, 0.985),
];

/// The paged read path at the commit before the projected in-place row
/// decoder: one `Vec` per stored row plus one `Arc<str>` for LINEITEM's
/// one string column (`l_returnflag`), whatever the plan read — two heap
/// blocks for each of the 60 175 rows. Q6 reads four numeric columns and
/// now allocates per page and per scratch row only (2 664 in all); Q1
/// groups by `l_returnflag`, still pays for that string on every row
/// (62 735 in all: 0.515 of before), and is held to 0.55.
const RECORDED_BEFORE_PAGED: [(&str, u64, f64); 2] = [("Q6", 121_645, 0.1), ("Q1", 121_716, 0.55)];

/// TPC-H SF 0.01 on pages behind a pool of 32 pages: every scan of
/// LINEITEM (about 1 000 pages) reads and decodes each page again.
fn paged_tpch() -> pop_storage::Catalog {
    let storage = StorageConfig {
        buffer_pool_bytes: 256 << 10,
        ..StorageConfig::paged()
    };
    let tpch = pop_tpch::tpch_catalog_with(0.01, storage).unwrap();
    assert!(tpch.table("lineitem").unwrap().is_paged());
    tpch
}

#[test]
fn paged_scans_allocate_for_the_columns_they_read_only() {
    let tpch = PopExecutor::new(paged_tpch(), config()).unwrap();
    let queries = pop_tpch::extended_queries();

    let mut failures = Vec::new();
    for (name, before, share) in RECORDED_BEFORE_PAGED {
        let (_, spec) = queries
            .iter()
            .find(|(n, _)| *n == name)
            .expect("query exists");
        let (count, _) = allocations(&tpch, spec);
        let ceiling = (before as f64 * share) as u64;
        println!("{name} (paged): {count} allocation(s), ceiling {ceiling}");
        if count > ceiling {
            failures.push(format!(
                "{name}: {count} allocations > {ceiling} ({share} x {before} recorded before)"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Paged Q14 at the commit before list prefetch: `(query, allocations,
/// pages read)`. Its PART → LINEITEM index nested-loop join fetched each
/// LINEITEM match a row at a time, so a match whose page had left the
/// pool read it again (a zero-filled buffer and an `Arc` per miss).
const RECORDED_BEFORE_PREFETCH: (&str, u64, u64) = ("Q14", 31_015, 9_345);

/// An NLJN outer batch prefetches its matches: each LINEITEM page it needs
/// is read once per batch, into recycled pool frames. Q14's one outer
/// batch (337 PART rows) reads each page of PART and LINEITEM at most once
/// (606 pages against 9 345 before) and allocates under 0.15 of what it
/// did.
#[test]
fn nljn_prefetch_reads_each_inner_page_once_into_recycled_frames() {
    let tpch = paged_tpch();
    let lineitem_pages = tpch.table("lineitem").unwrap().page_count();
    let part_pages = tpch.table("part").unwrap().page_count();
    let tpch = PopExecutor::new(tpch, config()).unwrap();
    let (name, before, pages_before) = RECORDED_BEFORE_PREFETCH;
    let queries = pop_tpch::extended_queries();
    let (_, spec) = queries
        .iter()
        .find(|(n, _)| *n == name)
        .expect("query exists");
    let (count, result) = counted_run(&tpch, spec);
    let pages = result.report.storage.expect("a paged run").pages_read;
    let ceiling = (before as f64 * 0.15) as u64;
    let table_pages = lineitem_pages + part_pages;
    println!(
        "{name} (paged): {count} allocation(s), ceiling {ceiling}; {pages} page(s) read \
         ({pages_before} before), LINEITEM + PART have {table_pages}"
    );
    assert!(
        count <= ceiling,
        "{name}: {count} allocations > {ceiling} (0.15 x {before} recorded before)"
    );
    assert!(
        pages <= table_pages,
        "{name}: {pages} pages read > LINEITEM's and PART's {table_pages}"
    );
}

#[test]
fn allocations_per_query_stay_under_the_recorded_ceilings() {
    let tpch = pop_tpch::tpch_catalog_with(0.01, StorageConfig::default()).unwrap();
    let tpch = PopExecutor::new(tpch, config()).unwrap();
    let dmv = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let dmv = PopExecutor::new(dmv, config()).unwrap();
    let queries: Vec<(String, &PopExecutor, QuerySpec)> = pop_tpch::extended_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), &tpch, spec))
        .chain(
            pop_dmv::dmv_queries()
                .into_iter()
                .map(|q| (q.name, &dmv, q.spec)),
        )
        .collect();

    let mut failures = Vec::new();
    for (name, before, share) in RECORDED_BEFORE {
        let (_, exec, spec) = queries
            .iter()
            .find(|(n, ..)| n == name)
            .expect("query exists");
        let (count, reopts) = allocations(exec, spec);
        assert!(
            reopts > 0 || name != "DMV18",
            "DMV18 no longer re-optimizes: pick another"
        );
        let with_lineage = RECORDED_WITH_LINEAGE
            .into_iter()
            .find(|(n, ..)| *n == name)
            .map(|(_, recorded, share)| (recorded, share, "with lineage"));
        for (recorded, share, when) in
            std::iter::once((before, share, "before")).chain(with_lineage)
        {
            let ceiling = (recorded as f64 * share) as u64;
            println!(
                "{name}: {count} allocation(s), {reopts} re-optimization(s), ceiling {ceiling} \
                 ({when})"
            );
            if count > ceiling {
                failures.push(format!(
                    "{name}: {count} allocations > {ceiling} ({share} x {recorded} recorded {when})"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The re-optimization path at the commit before promotion handed a
/// harvest's columns to storage: `Harvest::to_rows` built a `Row` and a
/// lineage `Vec` for each promoted row (10 705 rows for DMV18, which
/// re-optimizes once, and 31 128 for DMV38, three times), and the mem
/// backend split the rows back into columns — about 76 % and 82 % of the
/// two queries' allocations. First runs on a fresh executor, each held to
/// 0.4 of its count.
const RECORDED_BEFORE_REOPT: [(&str, u64, f64); 2] =
    [("DMV18", 28_052, 0.4), ("DMV38", 76_046, 0.4)];

#[test]
fn promotion_allocates_per_column_not_per_row() {
    let dmv = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let dmv = PopExecutor::new(dmv, config()).unwrap();
    let queries = pop_dmv::dmv_queries();

    let mut failures = Vec::new();
    for (name, before, share) in RECORDED_BEFORE_REOPT {
        let q = queries
            .iter()
            .find(|q| q.name == name)
            .expect("query exists");
        let (count, reopts) = allocations(&dmv, &q.spec);
        assert!(reopts > 0, "{name} no longer re-optimizes: pick another");
        let ceiling = (before as f64 * share) as u64;
        println!("{name}: {count} allocation(s), {reopts} re-optimization(s), ceiling {ceiling}");
        if count > ceiling {
            failures.push(format!(
                "{name}: {count} allocations > {ceiling} ({share} x {before} recorded before)"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// `(query, allocations per run before predicates were compiled, allowed
/// share)` for the DMV queries whose owner scan carries
/// `name LIKE 'Owner#0000d%'`, run without CHECKs (the `without_pop()`
/// switch). The matcher then collected text and pattern into two fresh
/// `Vec<char>`s per row: about 146 k allocations per run, of which the
/// compiled prefix test leaves none per row.
const RECORDED_BEFORE_LIKE: [(&str, u64, f64); 2] =
    [("DMV12", 146_222, 0.05), ("DMV22", 147_487, 0.05)];

#[test]
fn like_filters_allocate_per_chunk_not_per_row() {
    let dmv = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let static_config = PopConfig {
        enabled: false,
        ..config()
    };
    let dmv = PopExecutor::new(dmv, static_config).unwrap();
    let queries = pop_dmv::dmv_queries();

    let mut failures = Vec::new();
    for (name, before, share) in RECORDED_BEFORE_LIKE {
        let q = queries
            .iter()
            .find(|q| q.name == name)
            .expect("query exists");
        assert!(
            format!("{:?}", q.spec.local_preds).contains("Like"),
            "{name} no longer filters with LIKE: pick another"
        );
        let (count, _) = allocations(&dmv, &q.spec);
        let ceiling = (before as f64 * share) as u64;
        println!("{name} (LIKE, static): {count} allocation(s), ceiling {ceiling}");
        if count > ceiling {
            failures.push(format!(
                "{name}: {count} allocations > {ceiling} ({share} x {before} recorded before)"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// `PopExecutor::plan` at the commit before the enumerator consulted the
/// join graph: a `Vec` of join predicates per split of every table subset,
/// a signature string per subset, three `Vec`s per join candidate and one
/// per cost-difference evaluation of the root search. With connected-pair
/// enumeration DMV11 plans in 1 929 and DMV35 in 1 984; both are held to a
/// tenth of the old count.
const RECORDED_BEFORE_PLANNING: [(&str, u64, f64); 2] =
    [("DMV11", 248_836, 0.1), ("DMV35", 300_678, 0.1)];

#[test]
fn planning_allocations_stay_under_the_recorded_ceiling() {
    let dmv = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let dmv = PopExecutor::new(dmv, config()).unwrap();
    let queries = pop_dmv::dmv_queries();

    let mut failures = Vec::new();
    for (name, before, share) in RECORDED_BEFORE_PLANNING {
        let q = queries
            .iter()
            .find(|q| q.name == name)
            .expect("query exists");
        let start = ALLOCATIONS.with(Cell::get);
        let plan = dmv.plan(&q.spec, &Params::none()).expect("query plans");
        let count = ALLOCATIONS.with(Cell::get) - start;
        drop(plan);
        let ceiling = (before as f64 * share) as u64;
        println!(
            "{name} ({} tables): {count} planning allocation(s), ceiling {ceiling}",
            q.spec.tables.len()
        );
        if count > ceiling {
            failures.push(format!(
                "{name}: {count} allocations > {ceiling} ({share} x {before} recorded before)"
            ));
        }
        let result = dmv.run(&q.spec, &Params::none()).expect("query runs");
        let first = result.report.steps[0].memo.expect("a planned step");
        assert!(first.rebuilt && first.groups_total > 0, "{name}: {first:?}");
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Allocations of one re-optimization over a persistent memo after a
/// violation above the final join of a 7-table chain (the `root_check`
/// scenario of `bench_reopt`: the fact dirties only the all-tables group),
/// at the commit before the memo kept the estimator's table inputs and
/// before fact resolution walked the facts instead of the connected sets.
/// Every such re-plan made the same count.
const RECORDED_BEFORE_REPLANNING: u64 = 150;

/// Share of [`RECORDED_BEFORE_REPLANNING`] such a re-plan may take: what
/// is left is the plan tree itself, its CHECKs and one group's candidates
/// (80 allocations).
const REPLANNING_SHARE: f64 = 0.6;

/// A re-plan that re-derives one group pays for that group and the plan
/// it hands out — not for re-reading every table's statistics, indexes
/// and layouts, nor for walking every connected set to find one recorded
/// fact.
#[test]
fn replanning_a_root_violation_allocates_for_the_plan_only() {
    let cat = pop_storage::Catalog::with_storage(StorageConfig::default());
    let sizes = [400usize, 2000, 120, 2600, 80, 1700, 900];
    for (i, rows) in sizes.iter().enumerate() {
        cat.create_table(
            format!("t{i}"),
            pop_types::Schema::from_pairs(&[
                ("pk", pop_types::DataType::Int),
                ("key", pop_types::DataType::Int),
                ("attr", pop_types::DataType::Int),
            ]),
            (0..*rows).map(|r| {
                [r, r % 64, r % 20]
                    .map(|v| pop_types::Value::Int(v as i64))
                    .to_vec()
            }),
        )
        .unwrap();
        cat.create_index(&format!("t{i}"), "key", pop_storage::IndexKind::Hash)
            .unwrap();
    }
    let stats = pop_stats::StatsRegistry::new();
    stats.analyze_all(&cat).unwrap();
    let mut b = QueryBuilder::new();
    let ids: Vec<usize> = (0..sizes.len()).map(|i| b.table(format!("t{i}"))).collect();
    for w in ids.windows(2) {
        b.join(w[0], 1, w[1], 1);
    }
    b.filter(ids[0], Expr::col(ids[0], 2).le(Expr::lit(7i64)));
    let spec = b.build().unwrap();

    let cfg = pop_optimizer::OptimizerConfig::default();
    let cost = CostModel::default();
    let mut feedback = pop_optimizer::FeedbackCache::new();
    let mut memo = pop_optimizer::Memo::new();
    let ceiling = (RECORDED_BEFORE_REPLANNING as f64 * REPLANNING_SHARE) as u64;
    for round in 0..9 {
        // A fresh value every round, so every round really re-plans.
        feedback.record(
            spec.all_tables(),
            pop_optimizer::CardFact::Exact(f64::from(500 + 137 * round)),
        );
        let ctx = pop_optimizer::OptimizerContext::new(&cat, &stats, &cfg, &cost, None, &feedback);
        // The first pass derives every group.
        if round == 0 {
            pop_optimizer::optimize(&spec, &ctx, &mut memo).unwrap();
            continue;
        }
        let start = ALLOCATIONS.with(Cell::get);
        let (plan, memo_stats) = pop_optimizer::optimize(&spec, &ctx, &mut memo).unwrap();
        let count = ALLOCATIONS.with(Cell::get) - start;
        drop(plan);
        assert_eq!(
            memo_stats.groups_rederived, 1,
            "round {round}: {memo_stats:?}"
        );
        println!("re-plan round {round}: {count} allocation(s), ceiling {ceiling}");
        assert!(
            count <= ceiling,
            "round {round}: {count} allocations > {ceiling} \
             ({REPLANNING_SHARE} x {RECORDED_BEFORE_REPLANNING} recorded before)"
        );
    }
}

/// Allocations of the static analysis of the 39 DMV first plans (scale
/// 0.004, default flavors) under the driver's lint contexts, at the commit
/// where every step ran three analyses: `lint_plan` (17 094), `certify`
/// with its own interpreter (6 626) and a third interpretation for the
/// monitors' trip bounds, with a path `String` per node (24 627).
const RECORDED_BEFORE_VETTING: u64 = 48_347;

/// Share of [`RECORDED_BEFORE_VETTING`] the one `lint_plan` per plan may
/// take: `lint_plan` alone was 0.35x of it. The interval-interpreting
/// `analyze` made 9 891; the deny-gate walk without it makes 6 021.
const VETTING_SHARE: f64 = 0.5;

#[test]
fn one_analysis_per_step_allocates_under_half_of_three() {
    let dmv = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let dmv = PopExecutor::new(dmv, config()).unwrap();
    let queries = pop_dmv::dmv_queries();
    let plans: Vec<_> = queries
        .iter()
        .map(|q| dmv.plan(&q.spec, &Params::none()).expect("query plans"))
        .collect();
    let start = ALLOCATIONS.with(Cell::get);
    for (q, plan) in queries.iter().zip(&plans) {
        // The driver's deny-gate context.
        let ctx = pop::LintContext::full(dmv.catalog(), &q.spec);
        std::hint::black_box(pop::lint_plan(plan, &ctx));
    }
    let count = ALLOCATIONS.with(Cell::get) - start;
    let ceiling = (RECORDED_BEFORE_VETTING as f64 * VETTING_SHARE) as u64;
    println!(
        "{} DMV first plans: {count} lint allocation(s), ceiling {ceiling}",
        plans.len()
    );
    assert!(
        count <= ceiling,
        "{count} allocations > {ceiling} ({VETTING_SHARE} x {RECORDED_BEFORE_VETTING} recorded before)"
    );
}

/// Live bytes of a loaded, indexed and analyzed TPC-H SF 0.01 catalog on
/// the mem backend at the commit before secondary indexes became sorted
/// runs: each index was a `HashMap` / `BTreeMap<Value, Vec<u64>>`, a
/// 24-byte `Value` and a heap `Vec` per key, 8 B a position. Sorted runs
/// hold a typed key column, a `u32` run start per key and 4 B a position.
/// (The commit before tables stored typed columns held 33,348,024 B: a row
/// of `Value`s is a heap block of 24 B a value.)
const RECORDED_BEFORE_RESIDENT: i64 = 19_241_968;

/// Share of [`RECORDED_BEFORE_RESIDENT`] the catalog may hold.
const RESIDENT_SHARE: f64 = 0.75;

#[test]
fn a_loaded_catalog_is_resident_in_typed_columns() {
    let before = LIVE_BYTES.with(Cell::get);
    let tpch = pop_tpch::tpch_catalog_with(0.01, StorageConfig::default()).unwrap();
    let tpch = PopExecutor::new(tpch, config()).unwrap();
    let live = LIVE_BYTES.with(Cell::get) - before;
    let ceiling = (RECORDED_BEFORE_RESIDENT as f64 * RESIDENT_SHARE) as i64;
    println!("loaded TPC-H SF 0.01: {live} live bytes, ceiling {ceiling}");
    assert!(
        live <= ceiling,
        "{live} live bytes > {ceiling} ({RESIDENT_SHARE} x {RECORDED_BEFORE_RESIDENT} recorded before)"
    );
    drop(tpch);
}

/// Allocations of generating (load and indexes) and analyzing TPC-H SF
/// 0.01 on the mem backend at the commit where the generators built a
/// `Vec<Value>` and a fresh string per row.
const RECORDED_BEFORE_SETUP: u64 = 201_131;

/// Share of [`RECORDED_BEFORE_SETUP`] set-up may take: what is left of a
/// heap block per row is the names, one string per row of the tables
/// that have one. Column-writing generators make 3 478.
const SETUP_SHARE: f64 = 0.1;

#[test]
fn setup_allocates_per_chunk_and_column_not_per_row() {
    let start = ALLOCATIONS.with(Cell::get);
    let tpch = pop_tpch::tpch_catalog_with(0.01, StorageConfig::default()).unwrap();
    pop_stats::StatsRegistry::new().analyze_all(&tpch).unwrap();
    let count = ALLOCATIONS.with(Cell::get) - start;
    let ceiling = (RECORDED_BEFORE_SETUP as f64 * SETUP_SHARE) as u64;
    println!("TPC-H SF 0.01 generated and analyzed: {count} allocation(s), ceiling {ceiling}");
    assert!(
        count <= ceiling,
        "{count} allocations > {ceiling} ({SETUP_SHARE} x {RECORDED_BEFORE_SETUP} recorded before)"
    );
}

/// Passes of the live-heap test.
const PASSES: usize = 30;

/// Passes before the live heap is sampled as the baseline: the first ones
/// bring what an executor keeps across queries on purpose to its
/// high-water mark.
const WARM_PASSES: usize = 5;

/// Live bytes a pass may add once warm: room for allocator-visible noise
/// such as a `HashMap` growing a bucket array, far below one leaked temp
/// MV (thousands of rows).
const LIVE_SLACK: i64 = 64 << 10;

#[test]
fn live_heap_is_flat_across_passes() {
    let dmv = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let dmv = PopExecutor::new(dmv, config()).unwrap();
    let queries = pop_dmv::dmv_queries();
    // DMV18 and DMV38 re-optimize and promote temp MVs every run; DMV38
    // supersedes one of them within a run.
    let specs: Vec<&QuerySpec> = ["DMV18", "DMV38"]
        .iter()
        .map(|name| {
            &queries
                .iter()
                .find(|q| q.name == *name)
                .expect("query exists")
                .spec
        })
        .collect();

    let mut warm = 0;
    for pass in 1..=PASSES {
        for spec in &specs {
            let result = dmv.run(spec, &Params::none()).expect("query runs");
            assert!(result.report.reopt_count > 0, "no longer re-optimizes");
        }
        assert_eq!(dmv.catalog().temp_mv_count(), 0);
        if pass == WARM_PASSES {
            warm = LIVE_BYTES.with(Cell::get);
        }
    }
    let end = LIVE_BYTES.with(Cell::get);
    println!("live bytes: {warm} after pass {WARM_PASSES}, {end} after pass {PASSES}");
    assert!(
        end <= warm + LIVE_SLACK,
        "live heap grew by {} bytes over passes {WARM_PASSES}..{PASSES}",
        end - warm
    );
}

/// The DMV queries (scale 0.004) that re-optimize under [`config()`]:
/// 19 re-optimizations per pass.
const REOPTIMIZING_DMV: [&str; 17] = [
    "DMV01", "DMV02", "DMV06", "DMV08", "DMV11", "DMV13", "DMV15", "DMV16", "DMV18", "DMV20",
    "DMV21", "DMV25", "DMV31", "DMV36", "DMV37", "DMV38", "DMV39",
];

/// Allocations of one warm pass (the executor ran the pass once before)
/// over [`REOPTIMIZING_DMV`] under [`config()`], and over all 39 DMV
/// queries with POP off (`enabled: false`, as `PopConfig::without_pop()`
/// sets it), at the commit where every step rendered its plan, cloned its
/// check events, signed every table set of its plan with a fresh
/// `Signer`, and a re-plan resolved its facts through an index of every
/// connected set's signature; promotion gathered a harvest's rows and
/// storage copied them again.
///
/// `(pass, release count, debug count, allowed share)`: a debug build also
/// runs every plan through the deny gate, which allocates for the lint.
/// Now the two passes make 38 178 / 32 965 allocations in release and
/// 45 729 / 38 317 in debug.
const RECORDED_BEFORE_STEPS: [(&str, u64, u64, f64); 2] = [
    ("re-optimizing", 58_027, 65_578, 0.75),
    ("static", 51_236, 56_588, 0.75),
];

/// Queries of the DMV suite by name.
fn dmv_specs(names: &[&str]) -> Vec<QuerySpec> {
    let queries = pop_dmv::dmv_queries();
    names
        .iter()
        .map(|name| {
            queries
                .iter()
                .find(|q| q.name == *name)
                .expect("query exists")
                .spec
                .clone()
        })
        .collect()
}

/// Allocations of the second of two passes over `specs` on `exec`, and
/// that pass's results.
fn warm_pass(exec: &PopExecutor, specs: &[QuerySpec]) -> (u64, Vec<QueryResult>) {
    for spec in specs {
        counted_run(exec, spec);
    }
    let mut total = 0;
    let results = specs
        .iter()
        .map(|spec| {
            let (count, result) = counted_run(exec, spec);
            total += count;
            result
        })
        .collect();
    (total, results)
}

/// A POP step pays for what it learns: a re-plan resolves its facts and
/// temp MVs by table set, and neither a re-optimizing nor a static step
/// renders, clones or signs a plan nobody reads.
#[test]
fn a_pop_step_allocates_for_what_it_learns() {
    let catalog = pop_dmv::dmv_catalog_with(0.004, StorageConfig::default()).unwrap();
    let pop = PopExecutor::new(catalog.clone(), config()).unwrap();
    let (reopt_count, results) = warm_pass(&pop, &dmv_specs(&REOPTIMIZING_DMV));
    let reopts: usize = results.iter().map(|r| r.report.reopt_count).sum();
    assert_eq!(
        reopts, 19,
        "the re-optimizing DMV queries changed: re-record"
    );

    let all = pop_dmv::dmv_queries();
    let names: Vec<&str> = all.iter().map(|q| q.name.as_str()).collect();
    let static_config = PopConfig {
        enabled: false,
        ..config()
    };
    let off = PopExecutor::new(catalog, static_config).unwrap();
    let (static_count, results) = warm_pass(&off, &dmv_specs(&names));
    assert!(results.iter().all(|r| r.report.reopt_count == 0));

    let mut failures = Vec::new();
    for ((name, release, debug, share), count) in RECORDED_BEFORE_STEPS
        .into_iter()
        .zip([reopt_count, static_count])
    {
        let before = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        let ceiling = (before as f64 * share) as u64;
        println!("{name} DMV pass: {count} allocation(s), ceiling {ceiling}");
        if count > ceiling {
            failures.push(format!(
                "{name}: {count} allocations > {ceiling} ({share} x {before} recorded before)"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
