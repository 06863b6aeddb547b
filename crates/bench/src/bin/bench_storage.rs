//! Paged-storage characteristics: cold vs warm scan throughput,
//! buffer-pool eviction behavior, and WAL replay on reopen.
//!
//! ```text
//! bench_storage [--quick] [--assert]
//! ```
//!
//! Loads a table onto the paged backend, then measures three things:
//!
//! 1. **Cold scan, starved pool** — reopen the file with a 32-frame
//!    pool (far smaller than the table) and scan: every page is a pool
//!    miss and the clock hand evicts constantly.
//! 2. **Warm scan, ample pool** — reopen with a pool that holds the
//!    whole table, scan once to fault pages in, then time repeated
//!    scans served entirely from memory (zero physical reads during
//!    the timed reps).
//!
//!    Both are run twice: reading every column, and *projected* onto the
//!    three integer columns `a, c, d` of the six (`TableCursor::project`),
//!    which decodes neither string column; the warm scan runs a third
//!    time projected onto the one integer column `c`, one run of 8-byte
//!    values per column page. Projection changes what is decoded, never
//!    what is read: same rows, same checksum, same pages.
//! 3. **WAL replay** — append a batch that lives only in the WAL, drop
//!    the catalog without a checkpoint (simulated crash), and time the
//!    reopen that replays the log and rebuilds the table.
//!
//! `--assert` fails the process on the *deterministic* facts — evictions
//! observed on the starved pool, zero physical reads when warm, WAL
//! records actually replayed, identical rows either way, a projected scan
//! that reads exactly the pages of the full one — rather than on
//! wall-clock ratios, which on a small file mostly measure the OS page
//! cache. Text goes to stdout; raw data is written to
//! `results/BENCH_storage.json`.

use pop_storage::{Catalog, IoStats, StorageConfig, StorageKind};
use pop_types::column::Cell;
use pop_types::{DataType, Schema, Value};
use serde::Serialize;
use std::fs;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    rows: usize,
    page_size: usize,
    table_pages: u64,
    cold_pool_frames: usize,
    cold_ms: f64,
    cold_mrows_per_s: f64,
    cold_io: IoSnapshot,
    cold_projected_ms: f64,
    cold_projected_io: IoSnapshot,
    warm_ms: f64,
    warm_mrows_per_s: f64,
    warm_speedup: f64,
    warm_io: IoSnapshot,
    projected_columns: usize,
    warm_projected_ms: f64,
    warm_projected_mrows_per_s: f64,
    warm_projected_io: IoSnapshot,
    warm_one_int_ms: f64,
    warm_one_int_mrows_per_s: f64,
    warm_one_int_io: IoSnapshot,
    wal_records_replayed: u64,
    wal_replay_ms: f64,
    asserted: bool,
}

#[derive(Debug, Clone, Serialize)]
struct IoSnapshot {
    pages_read: u64,
    pool_hits: u64,
    pool_misses: u64,
    evictions: u64,
}

impl From<IoStats> for IoSnapshot {
    fn from(io: IoStats) -> Self {
        Self {
            pages_read: io.pages_read,
            pool_hits: io.pool_hits,
            pool_misses: io.pool_misses,
            evictions: io.evictions,
        }
    }
}

const PAGE_SIZE: usize = 4096;
const COLD_POOL_FRAMES: usize = 32;
/// 16 MiB: comfortably holds the full-mode table (~2k pages), so warm
/// scans are pure pool hits.
const WARM_POOL_FRAMES: usize = 4096;
/// The projected scan reads `a`, `c` (the checksum column) and `d`.
const PROJECTED: [usize; 3] = [0, 2, 3];
/// The narrowest scan reads the checksum column `c` alone.
const ONE_INT: [usize; 1] = [2];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("code", DataType::Str),
        ("note", DataType::Str),
    ])
}

fn rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 97),
                Value::Int(i * 7 % 1009),
                Value::Int(-i),
                Value::str(["open", "held", "done"][(i % 3) as usize]),
                Value::str(format!("note for row {i}")),
            ]
        })
        .collect()
}

fn storage(dir: &std::path::Path, pool_frames: Option<usize>) -> StorageConfig {
    let mut cfg = StorageConfig {
        kind: StorageKind::Paged,
        page_size: PAGE_SIZE,
        dir: Some(dir.to_path_buf()),
        ..StorageConfig::default()
    };
    if let Some(frames) = pool_frames {
        cfg.buffer_pool_bytes = (frames * PAGE_SIZE) as u64;
    }
    cfg
}

/// Full sequential scan through the cursor layer, decoding every column or
/// only `cols` into the cursor's typed scratch columns; returns (rows,
/// checksum) so the compiler cannot elide the reads and runs are
/// comparable.
fn scan(table: &pop_storage::Table, cols: Option<&[usize]>) -> (usize, i64) {
    let mut cursor = table.cursor(0, table.row_count() as u64).expect("cursor");
    if let Some(cols) = cols {
        cursor = cursor.project(cols.iter().copied());
    }
    let mut n = 0usize;
    let mut sum = 0i64;
    while let Some(chunk) = cursor.next_chunk(1024).expect("chunk") {
        n += chunk.rows.len();
        let c = &chunk.cols[2];
        for i in chunk.rows {
            if let Cell::Int(v) = c.cell(i) {
                sum = sum.wrapping_add(v);
            }
        }
    }
    (n, sum)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let assert_facts = std::env::args().any(|a| a == "--assert");
    let (n_rows, reps) = if quick {
        (50_000usize, 3)
    } else {
        (200_000usize, 5)
    };
    let dir = std::env::temp_dir().join(format!("pop-bench-storage-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Load phase: 90% of the rows checkpointed, the last 10% appended so
    // they live in pages + WAL (replayed on every reopen below — the
    // bench never re-checkpoints, so the replay cost is measured, not
    // amortized away).
    let durable = (n_rows * 9 / 10) as i64;
    {
        let cat = Catalog::with_storage(storage(&dir, None));
        let t = cat
            .create_table("data", schema(), rows(0..durable))
            .expect("load");
        t.insert(rows(durable..n_rows as i64)).expect("tail");
    }

    // Cold: starved pool, every page faults, the clock hand evicts.
    let t = Instant::now();
    let cold_cat = Catalog::with_storage(storage(&dir, Some(COLD_POOL_FRAMES)));
    let cold_table = cold_cat.open_table("data", schema()).expect("reopen");
    let wal_replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed = cold_cat.io_stats().wal_replayed;
    let table_pages = cold_table.page_count();
    let io_before = cold_cat.io_stats();
    let t = Instant::now();
    let (cold_rows, cold_sum) = scan(&cold_table, None);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_io = cold_cat.io_stats().since(&io_before);
    let io_before = cold_cat.io_stats();
    let t = Instant::now();
    let cold_projected = scan(&cold_table, Some(&PROJECTED));
    let cold_projected_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_projected_io = cold_cat.io_stats().since(&io_before);
    drop(cold_table);
    drop(cold_cat);

    // Warm: ample pool, one priming scan, then best-of-reps from memory.
    let warm_cat = Catalog::with_storage(storage(&dir, Some(WARM_POOL_FRAMES)));
    let warm_table = warm_cat.open_table("data", schema()).expect("reopen");
    let (prime_rows, prime_sum) = scan(&warm_table, None);
    let timed = |cols: Option<&[usize]>| {
        let io_before = warm_cat.io_stats();
        let mut best_ms = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let (r, s) = scan(&warm_table, cols);
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!((r, s), (prime_rows, prime_sum), "warm scan diverged");
        }
        (best_ms, warm_cat.io_stats().since(&io_before))
    };
    let (warm_ms, warm_io) = timed(None);
    let (warm_projected_ms, warm_projected_io) = timed(Some(&PROJECTED));
    let (warm_one_int_ms, warm_one_int_io) = timed(Some(&ONE_INT));
    drop(warm_table);
    drop(warm_cat);
    let _ = fs::remove_dir_all(&dir);

    let mrows = |ms: f64| (cold_rows as f64 / 1e6) / (ms / 1e3);
    let report = BenchReport {
        rows: n_rows,
        page_size: PAGE_SIZE,
        table_pages,
        cold_pool_frames: COLD_POOL_FRAMES,
        cold_ms,
        cold_mrows_per_s: mrows(cold_ms),
        cold_io: cold_io.into(),
        cold_projected_ms,
        cold_projected_io: cold_projected_io.into(),
        warm_ms,
        warm_mrows_per_s: mrows(warm_ms),
        warm_speedup: cold_ms / warm_ms,
        warm_io: warm_io.into(),
        projected_columns: PROJECTED.len(),
        warm_projected_ms,
        warm_projected_mrows_per_s: mrows(warm_projected_ms),
        warm_projected_io: warm_projected_io.into(),
        warm_one_int_ms,
        warm_one_int_mrows_per_s: mrows(warm_one_int_ms),
        warm_one_int_io: warm_one_int_io.into(),
        wal_records_replayed: replayed,
        wal_replay_ms,
        asserted: assert_facts,
    };
    println!(
        "paged storage, {n_rows} rows / {table_pages} pages of {PAGE_SIZE} B (best of {reps}):"
    );
    println!(
        "  cold ({COLD_POOL_FRAMES}-frame pool): {cold_ms:8.2} ms  {:6.2} Mrows/s  \
         ({} misses, {} evictions)",
        report.cold_mrows_per_s, report.cold_io.pool_misses, report.cold_io.evictions
    );
    println!(
        "  warm ({WARM_POOL_FRAMES}-frame pool): {warm_ms:8.2} ms  {:6.2} Mrows/s  \
         ({} hits, {} physical reads)  speedup {:.2}x",
        report.warm_mrows_per_s,
        report.warm_io.pool_hits,
        report.warm_io.pages_read,
        report.warm_speedup
    );
    println!(
        "  projected onto {} of {} columns: cold {cold_projected_ms:8.2} ms ({} misses), \
         warm {warm_projected_ms:8.2} ms  {:6.2} Mrows/s ({} physical reads)",
        PROJECTED.len(),
        schema().len(),
        report.cold_projected_io.pool_misses,
        report.warm_projected_mrows_per_s,
        report.warm_projected_io.pages_read
    );
    println!(
        "  projected onto 1 Int column: warm {warm_one_int_ms:8.2} ms  {:6.2} Mrows/s \
         ({} physical reads)",
        report.warm_one_int_mrows_per_s, report.warm_one_int_io.pages_read
    );
    println!("  WAL replay on reopen: {wal_replay_ms:8.2} ms  ({replayed} records)");
    let _ = fs::create_dir_all("results");
    match serde_json::to_string_pretty(&report) {
        Ok(s) => {
            if let Err(e) = fs::write("results/BENCH_storage.json", s) {
                eprintln!("warning: could not write results/BENCH_storage.json: {e}");
            } else {
                println!("wrote results/BENCH_storage.json");
            }
        }
        Err(e) => eprintln!("warning: could not serialize report: {e}"),
    }
    if assert_facts {
        assert_eq!(cold_rows, n_rows, "cold scan lost rows");
        assert_eq!(
            (prime_rows, prime_sum),
            (cold_rows, cold_sum),
            "warm catalog disagrees with cold catalog"
        );
        assert!(
            table_pages > COLD_POOL_FRAMES as u64,
            "table ({table_pages} pages) must exceed the starved pool"
        );
        assert!(
            report.cold_io.evictions > 0,
            "starved pool produced no evictions: {:?}",
            report.cold_io
        );
        assert!(
            report.cold_io.pool_misses >= table_pages,
            "cold scan should miss on every page at least once"
        );
        assert_eq!(
            report.warm_io.pages_read, 0,
            "warm scans must be served from the pool: {:?}",
            report.warm_io
        );
        assert!(report.warm_io.pool_hits > 0, "warm scans recorded no hits");
        assert_eq!(
            cold_projected,
            (cold_rows, cold_sum),
            "projected scan disagrees with the full scan"
        );
        assert_eq!(
            report.cold_projected_io.pages_read, report.cold_io.pages_read,
            "projection must not change the pages a cold scan reads"
        );
        assert_eq!(
            (
                report.warm_projected_io.pages_read,
                report.warm_one_int_io.pages_read
            ),
            (0, 0),
            "warm projected scans must be served from the pool"
        );
        assert!(replayed > 0, "reopen replayed no WAL records");
        println!("storage assertions passed");
    }
}
