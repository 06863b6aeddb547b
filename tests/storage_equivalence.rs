//! Backend equivalence: the paged backend (pager + buffer pool + WAL)
//! must be invisible to query semantics.
//!
//! Running any workload on `PagedBackend` — even with a buffer pool far
//! smaller than the working set, so pages are constantly evicted and
//! re-read — has to produce byte-identical rows *in the same order*, the
//! same optimize–execute step sequence, the same CHECK events, and the
//! same first plan (rendered text and cost bits) as `MemBackend`, at
//! every batch size. Both backends share one page-packing
//! rule, so page counts, page-aware cost estimates and charged work are
//! identical; only physical I/O (`RunReport::storage`) may differ, and it
//! is deliberately excluded from the comparison.

use pop::{PopConfig, PopExecutor, RunReport};
use pop_dmv::{dmv_catalog_with, dmv_queries};
use pop_expr::{Expr, Params};
use pop_guard::{FaultInjector, FaultPlan};
use pop_plan::{CostModel, QueryBuilder};
use pop_storage::{Catalog, IndexKind, StorageConfig, StorageKind, BULK_LOAD_CHUNK};
use pop_tpch::{all_queries, tpch_catalog_with};
use pop_types::{DataType, PopError, Schema, Value};

const DMV_SCALE: f64 = 0.0003;
const TPCH_SF: f64 = 0.0005;
/// Batch sizes the comparison sweeps.
const COMBOS: [usize; 2] = [1, 1024];

fn mem_storage() -> StorageConfig {
    StorageConfig {
        page_size: 1024,
        ..StorageConfig::default()
    }
}

/// Paged storage with a deliberately tiny buffer pool (16 frames) so the
/// working set of either benchmark does not fit and eviction is
/// exercised constantly.
fn paged_storage() -> StorageConfig {
    StorageConfig {
        kind: StorageKind::Paged,
        page_size: 1024,
        buffer_pool_bytes: 16 * 1024,
        ..StorageConfig::default()
    }
}

fn config(batch_size: usize) -> PopConfig {
    PopConfig {
        batch_size,
        // Both backends plan with the page-aware model: page counts are a
        // deterministic property of table contents, so estimates, plans
        // and charged work stay identical across backends.
        cost_model: CostModel::paged(),
        ..PopConfig::default()
    }
}

/// Everything discrete about two run reports: step sequence, plan shapes
/// and check events. `RunReport::storage` (physical I/O) is the one field
/// allowed to differ.
fn assert_reports_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.steps.len(), b.steps.len(), "{what}: step count differs");
    assert_eq!(a.reopt_count, b.reopt_count, "{what}: reopt count differs");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded flag differs");
    for (i, (sa, sb)) in a.steps.iter().zip(b.steps.iter()).enumerate() {
        assert_eq!(sa.plan, sb.plan, "{what} step {i}: plan differs");
        assert_eq!(sa.shape, sb.shape, "{what} step {i}: shape differs");
        assert_eq!(
            sa.est_cost, sb.est_cost,
            "{what} step {i}: estimated cost differs"
        );
        assert_eq!(
            sa.rows_emitted, sb.rows_emitted,
            "{what} step {i}: rows_emitted differs"
        );
        assert_eq!(sa.mvs_used, sb.mvs_used, "{what} step {i}: mvs_used");
        assert_eq!(
            sa.check_events.len(),
            sb.check_events.len(),
            "{what} step {i}: event count differs"
        );
        for (ea, eb) in sa.check_events.iter().zip(sb.check_events.iter()) {
            assert_eq!(ea.check_id, eb.check_id, "{what} step {i}: check id");
            assert_eq!(ea.flavor, eb.flavor, "{what} step {i}: flavor");
            assert_eq!(ea.outcome, eb.outcome, "{what} step {i}: outcome");
            assert_eq!(
                ea.observed, eb.observed,
                "{what} step {i}: observed cardinality differs at check #{}",
                ea.check_id
            );
            assert_eq!(ea.tables, eb.tables, "{what} step {i}: tables");
        }
        match (&sa.violation, &sb.violation) {
            (None, None) => {}
            (Some(va), Some(vb)) => {
                assert_eq!(va.check_id, vb.check_id, "{what} step {i}: viol check");
                assert_eq!(va.observed, vb.observed, "{what} step {i}: viol observed");
            }
            (x, y) => panic!("{what} step {i}: violation mismatch {x:?} vs {y:?}"),
        }
    }
}

/// One query's run on one backend: its rows, its report, and its first
/// plan's rendered text and cost bits.
type Run = (Vec<Vec<Value>>, RunReport, (String, u64));

/// Run a workload; rows are kept in emission order (NOT sorted) so
/// ordering differences fail the comparison. The rendered plan rounds
/// costs, so the first plan's cost is compared bit for bit beside it.
fn run_workload(
    catalog: &Catalog,
    queries: &[(String, pop::QuerySpec)],
    batch_size: usize,
) -> Vec<Run> {
    let exec = PopExecutor::new(catalog.clone(), config(batch_size)).unwrap();
    queries
        .iter()
        .map(|(name, q)| {
            let plan = exec.plan(q, &Params::none()).unwrap();
            let first = (plan.to_string(), plan.props().cost.to_bits());
            let res = exec
                .run(q, &Params::none())
                .unwrap_or_else(|e| panic!("{name} @ batch {batch_size} failed: {e}"));
            (res.rows, res.report, first)
        })
        .collect()
}

fn assert_backends_equivalent(
    mem: &Catalog,
    paged: &Catalog,
    queries: &[(String, pop::QuerySpec)],
    label: &str,
) {
    for batch_size in COMBOS {
        let a = run_workload(mem, queries, batch_size);
        let b = run_workload(paged, queries, batch_size);
        for (((rows_a, rep_a, plan_a), (rows_b, rep_b, plan_b)), (name, _)) in
            a.iter().zip(b.iter()).zip(queries.iter())
        {
            let what = format!("{label}/{name} @ batch {batch_size}");
            assert_eq!(rows_a, rows_b, "{what}: rows differ across backends");
            assert_reports_equal(rep_a, rep_b, &what);
            assert_eq!(plan_a, plan_b, "{what}: first plan differs");
        }
    }
    // The tiny pool cannot hold the working set: eviction must have been
    // exercised (and physical I/O observed) on the paged side only.
    let io = paged.io_stats();
    assert!(
        io.evictions > 0,
        "{label}: expected buffer-pool evictions with a 16-frame pool, got {io:?}"
    );
    assert!(io.pool_misses > 0, "{label}: expected pool misses");
    assert_eq!(
        mem.io_stats(),
        pop_storage::IoStats::default(),
        "{label}: the mem backend must perform no physical I/O"
    );
}

#[test]
fn dmv_suite_matches_across_backends() {
    let queries: Vec<(String, pop::QuerySpec)> = dmv_queries()
        .into_iter()
        .map(|q| (q.name.clone(), q.spec))
        .collect();
    let mem = dmv_catalog_with(DMV_SCALE, mem_storage()).unwrap();
    let paged = dmv_catalog_with(DMV_SCALE, paged_storage()).unwrap();
    assert_backends_equivalent(&mem, &paged, &queries, "dmv");
}

#[test]
fn tpch_suite_matches_across_backends() {
    let queries: Vec<(String, pop::QuerySpec)> = all_queries()
        .into_iter()
        .map(|(name, spec)| (name.to_string(), spec))
        .collect();
    let mem = tpch_catalog_with(TPCH_SF, mem_storage()).unwrap();
    let paged = tpch_catalog_with(TPCH_SF, paged_storage()).unwrap();
    assert_backends_equivalent(&mem, &paged, &queries, "tpch");
}

// ---------------------------------------------------------------------
// WAL crash recovery through the catalog, at every append: a load of
// three chunks and two inserts, each one in turn torn mid-WAL-frame and
// the catalog dropped without a checkpoint. A torn load leaves no table;
// a torn insert loses exactly its batch, and reopening replays the WAL
// past the load's checkpoint. Indexes built over the recovered rows
// answer as a mem catalog's over the same rows.
// ---------------------------------------------------------------------

fn kv_schema() -> Schema {
    Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)])
}

fn kv_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range
        .map(|i| vec![Value::Int(i), Value::str(format!("row {i}"))])
        .collect()
}

#[test]
fn wal_crash_recovery_reopens_with_replayed_rows_and_index() {
    const LOAD_CHUNKS: usize = 3;
    let dir = std::env::temp_dir().join(format!("pop-eqv-recovery-{}", std::process::id()));
    let storage = StorageConfig {
        kind: StorageKind::Paged,
        page_size: 512,
        dir: Some(dir.clone()),
        ..StorageConfig::default()
    };
    let loaded = ((LOAD_CHUNKS - 1) * BULK_LOAD_CHUNK + 100) as i64;
    // The rows after each append: the load's chunks, then two inserts.
    let mut ends: Vec<i64> = (1..LOAD_CHUNKS as i64)
        .map(|c| c * BULK_LOAD_CHUNK as i64)
        .collect();
    ends.extend([loaded, loaded + 50, loaded + 120]);
    for torn in 0..ends.len() {
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cat = Catalog::with_storage(storage.clone());
            cat.storage().arm_faults(FaultInjector::new(
                FaultPlan::parse_spec(&format!("torn@{torn}")).unwrap(),
            ));
            let load = cat.create_table("t", kv_schema(), kv_rows(0..loaded));
            if torn < LOAD_CHUNKS {
                let err = load.unwrap_err();
                assert!(err.to_string().contains("torn write"), "torn@{torn}: {err}");
            } else {
                // The inserts up to the torn one, which fails: the crash.
                let t = load.unwrap();
                let inserts = ends.windows(2).enumerate().skip(LOAD_CHUNKS - 1);
                for (k, w) in inserts.take(torn + 1 - LOAD_CHUNKS) {
                    let res = t.insert(kv_rows(w[0]..w[1]));
                    assert_eq!(res.is_err(), k + 1 == torn, "torn@{torn}, append {}", k + 1);
                }
                assert_eq!(
                    t.row_count() as i64,
                    ends[torn - 1],
                    "torn batch must not become visible"
                );
            }
            // The catalog drops without a checkpoint: a simulated crash.
        }
        let cat = Catalog::with_storage(storage.clone());
        let reopened = cat.open_table("t", kv_schema());
        if torn < LOAD_CHUNKS {
            assert_eq!(
                reopened.unwrap_err(),
                PopError::UnknownTable("t".into()),
                "torn@{torn}: a failed load leaves no table"
            );
            assert!(!dir.join("t.dat").exists(), "torn@{torn}: no file left");
            continue;
        }
        // Every append before the torn one survives: the load through its
        // checkpoint, the inserts through WAL replay.
        let t = reopened.unwrap();
        let n = ends[torn - 1];
        assert_eq!(t.snapshot(), kv_rows(0..n), "torn@{torn}");
        let mem = Catalog::with_storage(mem_storage());
        mem.create_table("t", kv_schema(), kv_rows(0..n)).unwrap();
        for c in [&cat, &mem] {
            c.create_index("t", "a", IndexKind::Sorted).unwrap();
            c.create_index("t", "b", IndexKind::Hash).unwrap();
        }
        let indexes = |c: &Catalog| {
            let id = c.table("t").unwrap().id();
            (
                c.find_index(id, 0, true).unwrap(),
                c.find_index(id, 1, false).unwrap(),
            )
        };
        let ((sorted, hash), (mem_sorted, mem_hash)) = (indexes(&cat), indexes(&mem));
        for key in [0, 7, loaded - 1, loaded, n - 1, n, n + 1] {
            let at = format!("torn@{torn} key {key}");
            let name = Value::str(format!("row {key}"));
            assert_eq!(
                sorted.probe(&Value::Int(key)),
                mem_sorted.probe(&Value::Int(key)),
                "{at}"
            );
            assert_eq!(hash.probe(&name), mem_hash.probe(&name), "{at}");
            let lo = Some(&Value::Int(key - 60));
            assert_eq!(sorted.range(lo, None), mem_sorted.range(lo, None), "{at}");
            assert_eq!(hash.range(lo, None), None, "{at}");
        }
        assert_eq!(sorted.probe(&Value::Int(n - 1)), vec![n as u64 - 1]);
        assert!(sorted.probe(&Value::Int(n)).is_empty());
        // A table is its data pages and its log: no index file.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let ext = path.extension().and_then(|e| e.to_str());
            assert!(matches!(ext, Some("dat" | "wal")), "{}", path.display());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// The page-aware cost model flips an access-path choice the flat model
// got wrong: a ~3% range predicate looks index-friendly when only row
// fetches are charged, but its scattered fetches touch nearly every page
// at the random-read multiplier — the sequential scan is cheaper.
// ---------------------------------------------------------------------

fn flip_db() -> Catalog {
    // 512-byte pages: ~20-25 of these rows per page, so the table spans
    // a few hundred pages and the Cardenas term bites.
    let cat = Catalog::with_storage(StorageConfig {
        page_size: 512,
        ..StorageConfig::default()
    });
    cat.create_table(
        "pts",
        Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]),
        (0..10_000).map(|i| vec![Value::Int(i), Value::Int(i % 97)]),
    )
    .unwrap();
    cat.create_index("pts", "id", IndexKind::Sorted).unwrap();
    cat
}

fn range_3pct() -> pop::QuerySpec {
    let mut b = QueryBuilder::new();
    let p = b.table("pts");
    b.filter(
        p,
        Expr::col(p, 0).between(Expr::lit(0i64), Expr::lit(299i64)),
    );
    b.project(&[(p, 0), (p, 1)]);
    b.build().unwrap()
}

#[test]
fn page_aware_model_flips_index_choice_flat_model_got_wrong() {
    let cat = flip_db();
    // Precondition pinning the scenario: the flip inequality below holds
    // for any page count in this band (see CostModel::index_range_scan_cost).
    let pages = cat.table("pts").unwrap().page_count();
    assert!(
        (100..=1500).contains(&pages),
        "row encoding changed enough to move the flip band: {pages} pages"
    );
    let flat = PopExecutor::new(cat.clone(), PopConfig::default()).unwrap();
    let plan = flat.explain(&range_3pct(), &Params::none()).unwrap();
    assert!(
        plan.contains("IXSCAN"),
        "flat model charges only row fetches, so 3% looks index-friendly:\n{plan}"
    );
    let paged = PopExecutor::new(
        cat,
        PopConfig {
            cost_model: CostModel::paged(),
            ..PopConfig::default()
        },
    )
    .unwrap();
    let plan = paged.explain(&range_3pct(), &Params::none()).unwrap();
    assert!(
        !plan.contains("IXSCAN"),
        "page-aware model must prefer the sequential scan at 3%:\n{plan}"
    );
    // Truly selective predicates still use the index under the paged
    // model: the flip is a crossover, not a blanket penalty.
    let mut b = QueryBuilder::new();
    let p = b.table("pts");
    b.filter(
        p,
        Expr::col(p, 0).between(Expr::lit(0i64), Expr::lit(49i64)),
    );
    b.project(&[(p, 0)]);
    let narrow = b.build().unwrap();
    let plan = paged.explain(&narrow, &Params::none()).unwrap();
    assert!(
        plan.contains("IXSCAN"),
        "0.5% stays below the random-read breakeven:\n{plan}"
    );
}
