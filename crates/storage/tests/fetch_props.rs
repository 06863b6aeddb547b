//! List prefetch against the per-row fetch it stands in for.
//!
//! `RowFetcher::prefetch` sorts the positions a batch of probes produced
//! and reads each page they fall on once, in page order; `fetch` then
//! serves those positions from the decoded rows. Over random typed tables
//! with NULLs, page sizes from 512 (the smallest a catalog accepts) to
//! 4096 bytes and pools of 1 to 8 frames, random position lists
//! (unsorted, duplicated, some past the end) fetched in random slices
//! after one prefetch must return, on every projected column, exactly
//! what the per-row path returns and what the mem backend returns; the
//! prefetch looks each distinct page up in the pool once (so reads it at
//! most once), and fetches of prefetched positions read no page at all,
//! also after fetches of positions that were not prefetched.

use pop_storage::{
    Catalog, FetchedRows, RowFetcher, StorageConfig, StorageKind, Table, MIN_PAGE_SIZE,
};
use pop_types::{ColumnDef, DataType, Row, Schema, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// One value of `dt`, NULL one time in `null_every`. Strings stay short
/// enough for a row of four columns to fit a 256-byte page.
fn value(dt: DataType, rng: &mut Rng, null_every: usize) -> Value {
    if rng.below(null_every) == 0 {
        return Value::Null;
    }
    let x = rng.next();
    match dt {
        DataType::Int => Value::Int(x as i64 >> rng.below(64)),
        DataType::Float => Value::Float((x as i64 >> 20) as f64 / 7.0),
        DataType::Date => Value::Date(x as i32),
        DataType::Str => Value::str("s".repeat(rng.below(12)) + &(x % 1000).to_string()),
        DataType::Bool => Value::Bool(x & 1 == 1),
    }
}

/// What a projected reader may compare of a fetch: each row's position
/// and its values on `cols`, variant included (`Value`'s equality makes
/// `Int(3)` equal `Float(3.0)`).
fn seen(got: &FetchedRows<'_>, cols: &[usize]) -> Vec<(u64, String)> {
    assert_eq!(got.rows.len(), got.positions.len());
    got.positions
        .iter()
        .zip(got.rows)
        .map(|(p, r)| {
            let row: Vec<Value> = cols
                .iter()
                .map(|c| got.cols[*c].value(*r as usize))
                .collect();
            (*p, format!("{row:?}"))
        })
        .collect()
}

/// `rows` loaded as table `t` of a fresh catalog on `kind`.
fn table(
    kind: StorageKind,
    page_size: usize,
    frames: u64,
    schema: &Schema,
    rows: &[Row],
) -> (Catalog, Arc<Table>) {
    let catalog = Catalog::with_storage(StorageConfig {
        kind,
        page_size,
        buffer_pool_bytes: frames * page_size as u64,
        ..StorageConfig::default()
    });
    let t = catalog
        .create_table("t", schema.clone(), rows.to_vec())
        .unwrap();
    (catalog, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefetch_then_fetch_equals_per_row_fetch_and_mem(
        seed in any::<u64>(),
        n in 1usize..400,
        width in 1usize..5,
        null_every in 2usize..10,
        page_size in MIN_PAGE_SIZE..=4096,
        frames in 1u64..=8,
    ) {
        let mut rng = Rng(seed);
        let types: Vec<DataType> = (0..width).map(|_| TYPES[rng.below(TYPES.len())]).collect();
        let schema = Schema::new(
            types.iter().enumerate().map(|(c, t)| ColumnDef::new(format!("c{c}"), *t)).collect(),
        );
        let rows: Vec<Row> = (0..n)
            .map(|_| types.iter().map(|t| value(*t, &mut rng, null_every)).collect())
            .collect();
        let (_mem_catalog, mem) = table(StorageKind::Mem, page_size, frames, &schema, &rows);
        let (paged_catalog, paged) = table(StorageKind::Paged, page_size, frames, &schema, &rows);
        let proj: Vec<usize> = (0..width).filter(|_| rng.below(3) > 0).collect();
        let fetcher = |t: &Table| -> RowFetcher { t.fetcher().project(proj.iter().copied()) };
        let (mut by_mem, mut by_row, mut by_list) = (fetcher(&mem), fetcher(&paged), fetcher(&paged));

        for round in 0..2 {
            // Unsorted, with duplicates, and one in six past the end.
            let positions: Vec<u64> = (0..rng.below(120))
                .map(|_| match rng.below(6) {
                    0 => (n + rng.below(20)) as u64,
                    _ => rng.below(n) as u64,
                })
                .collect();
            let pages: BTreeSet<u64> = positions
                .iter()
                .filter(|p| **p < n as u64)
                .map(|p| paged.backend().page_of_row(*p))
                .collect();
            let before = paged_catalog.io_stats();
            by_list.prefetch(&positions).unwrap();
            let io = paged_catalog.io_stats().since(&before);
            prop_assert!(
                io.pages_read <= pages.len() as u64,
                "round {}: prefetch read {} pages, the positions lie on {}",
                round, io.pages_read, pages.len()
            );
            prop_assert_eq!(
                io.pool_hits + io.pool_misses, pages.len() as u64,
                "round {}: one pool lookup per distinct page", round
            );
            // The prefetched positions, in random slices.
            let mut lo = 0;
            while lo < positions.len() {
                let hi = (lo + 1 + rng.below(40)).min(positions.len());
                let slice = &positions[lo..hi];
                let want = seen(&by_mem.fetch(slice).unwrap(), &proj);
                prop_assert_eq!(&seen(&by_row.fetch(slice).unwrap(), &proj), &want, "per-row path");
                let before = paged_catalog.io_stats();
                prop_assert_eq!(&seen(&by_list.fetch(slice).unwrap(), &proj), &want, "prefetched");
                let io = paged_catalog.io_stats().since(&before);
                prop_assert_eq!(
                    (io.pages_read, io.pool_hits, io.pool_misses), (0, 0, 0),
                    "a fetch of prefetched positions reads no page"
                );
                lo = hi;
            }
            // Positions the prefetch did not cover take the per-row path,
            // and leave the prefetched rows in place.
            let start = rng.below(n) as u64;
            let missing = (start..n as u64).chain(0..start).find(|p| !positions.contains(p));
            let mut others: Vec<u64> = missing.into_iter().chain([(n + 1) as u64]).collect();
            others.extend(positions.iter().take(3));
            let want = seen(&by_mem.fetch(&others).unwrap(), &proj);
            prop_assert_eq!(&seen(&by_list.fetch(&others).unwrap(), &proj), &want, "not prefetched");
            let before = paged_catalog.io_stats();
            let want = seen(&by_mem.fetch(&positions).unwrap(), &proj);
            prop_assert_eq!(&seen(&by_list.fetch(&positions).unwrap(), &proj), &want, "after a miss");
            prop_assert_eq!(paged_catalog.io_stats().since(&before).pages_read, 0);
        }
    }
}

/// On the mem backend a prefetch is a no-op: nothing is decoded or held.
#[test]
fn mem_prefetch_holds_nothing() {
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    let rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i)]).collect();
    let (_catalog, mem) = table(StorageKind::Mem, 512, 4, &schema, &rows);
    let mut f = mem.fetcher();
    f.prefetch(&[5, 3, 99, 3]).unwrap();
    assert_eq!(f.prefetched_bytes(), 0);
    let got = f.fetch(&[3, 5]).unwrap();
    assert_eq!(got.positions, &[3, 5]);
    assert_eq!(got.cols[0].value(got.rows[1] as usize), Value::Int(5));
}
