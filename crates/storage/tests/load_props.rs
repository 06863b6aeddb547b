//! Differential test of the one way into a table: `Table::append` of
//! columns and a row count. Random `Int` / `Float` / `Date` / `Str` /
//! `Bool` columns with NULLs, zero-width tables included, appended in
//! random chunk sizes — one `Table::append` each, or one chunk each of a
//! `Catalog::create_table_from_chunks` load — must store exactly what the
//! row adapter (`Catalog::create_table` over rows) stores, on the mem and
//! the paged backend alike, with identical page maps; a paged table
//! reopened from its WAL alone, without a checkpoint, must read back the
//! same rows. A batch the shared pre-check rejects must leave a table —
//! and what it recovers to — as it was. On a table many times a starved
//! pool, a cold scan misses on every page, warm scans read none, and a
//! projected scan reads exactly the pages of the full one.

use pop_storage::{Catalog, IoStats, StorageConfig, StorageKind, Table};
use pop_types::column::{Cell, Column};
use pop_types::{ColumnDef, DataType, Row, Schema, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// splitmix64: everything one case does, from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Date,
    DataType::Str,
    DataType::Bool,
];

/// One value of `dt`, NULL one time in `null_every`.
fn value(dt: DataType, rng: &mut Rng, null_every: usize) -> Value {
    if rng.below(null_every) == 0 {
        return Value::Null;
    }
    let x = rng.next();
    match dt {
        DataType::Int => Value::Int(x as i64 >> rng.below(64)),
        DataType::Float => Value::Float((x as i64 >> 20) as f64 / 7.0),
        DataType::Date => Value::Date(x as i32),
        DataType::Str => Value::str("s".repeat(rng.below(40)) + &x.to_string()),
        DataType::Bool => Value::Bool(x & 1 == 1),
    }
}

/// `rows` as `width` columns.
fn columns(rows: &[Row], width: usize) -> Vec<Column> {
    let mut cols = vec![Column::default(); width];
    for row in rows {
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v, 0);
        }
    }
    cols
}

/// Rows compared value for value, variant included (`Value`'s equality
/// makes `Int(3)` equal `Float(3.0)`).
fn exact(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// The page holding each row, and the page count.
fn page_map(t: &Table) -> (u64, Vec<u64>) {
    let b = t.backend();
    let pages = (0..t.row_count() as u64)
        .map(|p| b.page_of_row(p))
        .collect();
    (t.page_count(), pages)
}

/// A fresh directory for one paged catalog that is reopened.
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pop-load-props-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 512-byte pages, so a few hundred rows span many pages.
fn storage(kind: StorageKind, dir: Option<PathBuf>) -> StorageConfig {
    StorageConfig {
        kind,
        page_size: 512,
        dir,
        ..StorageConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn column_appends_equal_the_row_adapter_on_both_backends(
        seed in any::<u64>(),
        n in 0usize..300,
        width in 0usize..6,
        null_every in 2usize..10,
    ) {
        let mut rng = Rng(seed);
        let types: Vec<DataType> = (0..width).map(|_| TYPES[rng.below(TYPES.len())]).collect();
        let schema = Schema::new(
            types.iter().enumerate().map(|(c, t)| ColumnDef::new(format!("c{c}"), *t)).collect(),
        );
        let rows: Vec<Row> = (0..n)
            .map(|_| types.iter().map(|t| value(*t, &mut rng, null_every)).collect())
            .collect();
        let (mut chunks, mut lo) = (Vec::new(), 0);
        while lo < n {
            let hi = (lo + 1 + rng.below(64)).min(n);
            chunks.push(lo..hi);
            lo = hi;
        }
        let append_chunks = |t: &Table| {
            for r in &chunks {
                t.append(&columns(&rows[r.clone()], width), r.len()).unwrap();
            }
        };

        let mut maps = Vec::new();
        for kind in [StorageKind::Mem, StorageKind::Paged] {
            let catalog = Catalog::with_storage(storage(kind, None));
            let by_rows = catalog.create_table("by_rows", schema.clone(), rows.clone()).unwrap();
            let by_cols = catalog.create_table("by_cols", schema.clone(), Vec::new()).unwrap();
            append_chunks(&by_cols);
            let mut next = chunks.iter();
            let by_chunks = catalog
                .create_table_from_chunks("by_chunks", schema.clone(), |cols| {
                    Ok(next.next().map_or(0, |r| {
                        *cols = columns(&rows[r.clone()], width);
                        r.len()
                    }))
                })
                .unwrap();
            prop_assert_eq!(by_cols.row_count(), n);
            prop_assert_eq!(exact(&by_rows.snapshot()), exact(&rows), "{:?} row adapter", kind);
            prop_assert_eq!(exact(&by_cols.snapshot()), exact(&rows), "{:?} column appends", kind);
            prop_assert_eq!(exact(&by_chunks.snapshot()), exact(&rows), "{:?} column chunks", kind);
            let map = page_map(&by_cols);
            prop_assert_eq!(&page_map(&by_rows), &map, "{:?}", kind);
            prop_assert_eq!(&page_map(&by_chunks), &map, "{:?}", kind);
            maps.push(map);
        }
        prop_assert_eq!(&maps[0], &maps[1], "mem and paged page maps");

        // Appended after the last checkpoint: only the WAL holds them.
        let dir = fresh_dir("wal");
        {
            let catalog = Catalog::with_storage(storage(StorageKind::Paged, Some(dir.clone())));
            append_chunks(&catalog.create_table("t", schema.clone(), Vec::new()).unwrap());
        }
        let catalog = Catalog::with_storage(storage(StorageKind::Paged, Some(dir.clone())));
        let t = catalog.open_table("t", schema.clone()).unwrap();
        prop_assert_eq!(exact(&t.snapshot()), exact(&rows), "after WAL replay");
        prop_assert_eq!(&page_map(&t), &maps[0], "after WAL replay");
        drop((t, catalog));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A batch holding a row too large for a page is rejected whole: a later
/// batch lands right after the rows before it, on both backends, and a
/// paged table reopens — from its WAL and again from its pages — to the
/// same rows.
#[test]
fn rejected_batch_leaves_the_table_unchanged() {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
    let row = |k: i64, s: &str| vec![Value::Int(k), Value::str(s)];
    let rows = |ks: &[i64]| -> Vec<Row> { ks.iter().map(|k| row(*k, "x")).collect() };
    let expect = rows(&[0, 1, 2, 3, 4, 7, 8, 9]);
    for kind in [StorageKind::Mem, StorageKind::Paged] {
        let dir = fresh_dir("rejected");
        let config = storage(kind, Some(dir.clone()));
        {
            let catalog = Catalog::with_storage(config.clone());
            let t = catalog
                .create_table("t", schema.clone(), rows(&[0, 1, 2, 3, 4]))
                .unwrap();
            let big = "z".repeat(600);
            let err = t.insert(vec![row(5, "y"), row(6, &big)]).unwrap_err();
            assert!(err.to_string().contains("exceeds"), "{kind:?}: {err}");
            assert_eq!(t.snapshot(), rows(&[0, 1, 2, 3, 4]), "{kind:?}");
            t.insert(rows(&[7, 8, 9])).unwrap();
            assert_eq!(t.snapshot(), expect, "{kind:?}");
        }
        if kind == StorageKind::Paged {
            // Dropped without a checkpoint: the first reopen replays the
            // WAL (and checkpoints), the second reads pages only.
            for from in ["the WAL", "pages"] {
                let catalog = Catalog::with_storage(config.clone());
                let t = catalog.open_table("t", schema.clone()).unwrap();
                assert_eq!(t.snapshot(), expect, "reopened from {from}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sums column 2 (`Int`) over a scan of `t` decoding `cols` (every column
/// when `None`): the rows, the checksum and the I/O the scan caused.
fn scan(catalog: &Catalog, t: &Table, cols: Option<&[usize]>) -> ((usize, i64), IoStats) {
    let before = catalog.io_stats();
    let mut cursor = t.cursor(0, t.row_count() as u64).unwrap();
    if let Some(cols) = cols {
        cursor = cursor.project(cols.iter().copied());
    }
    let (mut n, mut sum) = (0, 0i64);
    while let Some(chunk) = cursor.next_chunk(1024).unwrap() {
        n += chunk.rows.len();
        for i in chunk.rows {
            if let Cell::Int(v) = chunk.cols[2].cell(i) {
                sum = sum.wrapping_add(v);
            }
        }
    }
    ((n, sum), catalog.io_stats().since(&before))
}

/// A 2 000-row table of six columns on 512-byte pages, its last 200 rows
/// appended after the load so only the WAL holds them, reopened twice:
/// - cold, with a 32-frame pool: the reopen replays the WAL; the table has
///   more pages than the pool; a full scan misses at least once per page
///   and evicts;
/// - warm, with a pool that holds the table: after one scan faults the
///   pages in, scans read no page physically and hit the pool.
///
/// Scans projected onto 3 of the 6 columns and onto the one `Int` column
/// the checksum reads return the full scan's rows and checksum, and read
/// exactly its pages cold and none warm; both catalogs hold the rows that
/// were loaded.
#[test]
fn paged_scans_miss_every_page_cold_and_read_none_warm() {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("code", DataType::Str),
        ("note", DataType::Str),
    ]);
    let rows = |ids: std::ops::Range<i64>| -> Vec<Row> {
        ids.map(|i| {
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
    };
    const COLD_FRAMES: u64 = 32;
    let projections: [&[usize]; 2] = [&[0, 2, 3], &[2]];
    let dir = fresh_dir("scans");
    let open = |frames: u64| {
        let catalog = Catalog::with_storage(StorageConfig {
            buffer_pool_bytes: frames * 512,
            ..storage(StorageKind::Paged, Some(dir.clone()))
        });
        let t = catalog.open_table("t", schema.clone()).unwrap();
        (catalog, t)
    };
    {
        let catalog = Catalog::with_storage(storage(StorageKind::Paged, Some(dir.clone())));
        let t = catalog
            .create_table("t", schema.clone(), rows(0..1800))
            .unwrap();
        t.insert(rows(1800..2000)).unwrap();
    }

    let (cold, t) = open(COLD_FRAMES);
    assert!(
        cold.io_stats().wal_replayed > 0,
        "the reopen replayed no WAL record"
    );
    let pages = t.page_count();
    assert!(pages > COLD_FRAMES, "{pages} pages fit the starved pool");
    let (full, io) = scan(&cold, &t, None);
    assert_eq!(full.0, 2000);
    assert!(io.evictions > 0 && io.pool_misses >= pages, "cold: {io:?}");
    for cols in projections {
        let (got, projected) = scan(&cold, &t, Some(cols));
        assert_eq!(got, full, "cold, projected onto {cols:?}");
        assert_eq!(
            projected.pages_read, io.pages_read,
            "cold, projected onto {cols:?}"
        );
    }
    assert_eq!(exact(&t.snapshot()), exact(&rows(0..2000)), "cold");
    drop((t, cold));

    let (warm, t) = open(4 * pages);
    scan(&warm, &t, None);
    for cols in [None].into_iter().chain(projections.map(Some)) {
        let (got, io) = scan(&warm, &t, cols);
        assert_eq!(got, full, "warm, projected onto {cols:?}");
        assert!(
            io.pages_read == 0 && io.pool_hits > 0,
            "warm, {cols:?}: {io:?}"
        );
    }
    assert_eq!(exact(&t.snapshot()), exact(&rows(0..2000)), "warm");
    drop((t, warm));
    std::fs::remove_dir_all(&dir).unwrap();
}
