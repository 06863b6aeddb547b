//! ANALYZE reads a table in one cursor pass, folding each chunk a column
//! at a time into typed accumulators. Its statistics must be exactly those
//! of the row-at-a-time analysis it replaced — distinct counts under
//! `Value` equality, NULL counts, min / max and histogram bounds bit for
//! bit — on every TPC-H and DMV table and on random number columns, on
//! both backends; and a storage read error is an `Err`, not a panic.

use pop_stats::{analyze_table, ColumnStats, EquiDepthHistogram, StatsRegistry, TableStats};
use pop_storage::{Catalog, StorageConfig, Table};
use pop_types::{DataType, Row, Schema, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// The row-at-a-time analysis: every row as owned values, one column at a
/// time into a `HashSet<Value>` and a numeric vector in row order.
fn reference(table: &Table) -> TableStats {
    let rows = table.snapshot();
    let columns = (0..table.schema().len())
        .map(|c| {
            let (mut non_null, mut nulls) = (0u64, 0u64);
            let mut distinct: HashSet<Value> = HashSet::new();
            let mut numeric: Vec<f64> = Vec::new();
            let mut all_numeric = true;
            for row in &rows {
                let v = &row[c];
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                non_null += 1;
                distinct.insert(v.clone());
                match v.as_f64() {
                    Some(x) => numeric.push(x),
                    None => all_numeric = false,
                }
            }
            let (min, max, histogram) = if all_numeric && !numeric.is_empty() {
                let min = numeric.iter().copied().fold(f64::INFINITY, f64::min);
                let max = numeric.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let hist = EquiDepthHistogram::build(numeric, pop_stats::HISTOGRAM_BUCKETS);
                (Some(min), Some(max), hist)
            } else {
                (None, None, None)
            };
            ColumnStats {
                non_null,
                nulls,
                distinct: distinct.len() as u64,
                min,
                max,
                histogram,
            }
        })
        .collect();
    TableStats {
        row_count: rows.len() as u64,
        pages: table.page_count(),
        columns,
    }
}

/// Every table of `catalog` analyzes to its reference, floats bit for bit
/// (`{:?}` tells `-0.0` from `0.0` where `==` does not).
fn assert_matches_reference(catalog: &Catalog, what: &str) {
    let names = catalog.table_names();
    assert!(!names.is_empty());
    for name in names {
        let table = catalog.table(&name).unwrap();
        let typed = analyze_table(&table).unwrap();
        assert_eq!(
            format!("{typed:?}"),
            format!("{:?}", reference(&table)),
            "{what}: {name}"
        );
    }
}

fn paged() -> StorageConfig {
    StorageConfig {
        buffer_pool_bytes: 64 << 10,
        ..StorageConfig::paged()
    }
}

#[test]
fn tpch_stats_equal_the_row_reference_on_both_backends() {
    for (storage, backend) in [(StorageConfig::default(), "mem"), (paged(), "paged")] {
        let catalog = pop_tpch::tpch_catalog_with(0.01, storage).unwrap();
        assert_matches_reference(&catalog, &format!("TPC-H on {backend}"));
    }
}

#[test]
fn dmv_stats_equal_the_row_reference_on_both_backends() {
    for (storage, backend) in [(StorageConfig::default(), "mem"), (paged(), "paged")] {
        let catalog = pop_dmv::dmv_catalog_with(0.002, storage).unwrap();
        assert_matches_reference(&catalog, &format!("DMV on {backend}"));
    }
}

#[test]
fn mixed_types_and_nulls_across_chunks_equal_the_row_reference() {
    // A column that is all ints for a whole chunk and floats after it (a
    // paged chunk's scratch column takes each chunk's type, so the typed
    // distinct set meets a second type mid-table), with `Int(3)` and
    // `Float(3.0)` one value; NULL-only stretches; strings and booleans
    // mixed into a column; a column with no value at all.
    let schema = Schema::from_pairs(&[
        ("n", DataType::Int),
        ("s", DataType::Str),
        ("m", DataType::Int),
        ("z", DataType::Int),
    ]);
    let rows: Vec<Row> = (0..10_000i64)
        .map(|i| {
            vec![
                match i {
                    0..=4999 => Value::Int(i % 40),
                    5000..=5999 => Value::Null,
                    _ => Value::Float((i % 80) as f64 / 2.0),
                },
                if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", i % 13))
                },
                match i % 5 {
                    0 => Value::Bool(i % 2 == 0),
                    1 => Value::Null,
                    2 => Value::str("x"),
                    _ => Value::Date((i % 17) as i32),
                },
                Value::Null,
            ]
        })
        .collect();
    for (storage, backend) in [(StorageConfig::default(), "mem"), (paged(), "paged")] {
        let catalog = Catalog::with_storage(storage);
        catalog
            .create_table("t", schema.clone(), rows.clone())
            .unwrap();
        assert_matches_reference(&catalog, backend);
        let stats = analyze_table(&catalog.table("t").unwrap()).unwrap();
        // 0..40 as ints and 0.0..=39.5 in halves as floats: the 40 whole
        // floats are the ints' values.
        assert_eq!(stats.col(0).distinct, 80, "{backend}");
        assert!(stats.col(0).histogram.is_some() && stats.col(2).histogram.is_none());
        assert_eq!((stats.col(3).nulls, stats.col(3).distinct), (10_000, 0));
    }
}

#[test]
fn number_edge_cases_equal_the_row_reference() {
    // Number columns keep their values and count them with one sort: an
    // `Int` column meeting one `Float` in a late chunk falls back to
    // `Value` equality; `i64`s above 2^53 that are one `f64` stay distinct
    // (the histogram sees the `f64`s); `0.0` and `-0.0` are two values by
    // bit pattern; a NaN is a value; an all-NULL column has none.
    let schema = Schema::from_pairs(&[
        ("late_float", DataType::Int),
        ("big", DataType::Int),
        ("zeros", DataType::Float),
        ("nan", DataType::Float),
        ("none", DataType::Int),
        ("day", DataType::Date),
    ]);
    let big = 1i64 << 53;
    let rows: Vec<Row> = (0..10_000i64)
        .map(|i| {
            vec![
                if i == 9_500 {
                    Value::Float(2.5)
                } else {
                    Value::Int(i % 7)
                },
                Value::Int(big + i % 8),
                Value::Float(if i % 2 == 0 { 0.0 } else { -0.0 }),
                match i % 3 {
                    0 => Value::Float(f64::NAN),
                    1 => Value::Null,
                    _ => Value::Float(i as f64 / 3.0),
                },
                Value::Null,
                Value::Date((i % 365) as i32 - 100),
            ]
        })
        .collect();
    for (storage, backend) in [(StorageConfig::default(), "mem"), (paged(), "paged")] {
        let catalog = Catalog::with_storage(storage);
        catalog
            .create_table("t", schema.clone(), rows.clone())
            .unwrap();
        assert_matches_reference(&catalog, backend);
        let st = analyze_table(&catalog.table("t").unwrap()).unwrap();
        assert_eq!(st.col(0).distinct, 8, "{backend}: 0..7 and 2.5");
        assert_eq!(st.col(1).distinct, 8, "{backend}: distinct as i64");
        let h = st.col(1).histogram.as_ref().unwrap();
        assert_eq!((h.min(), h.max()), (big as f64, (big + 7) as f64));
        assert_eq!(st.col(2).distinct, 2, "{backend}: 0.0 and -0.0");
        assert_eq!(st.col(3).nulls, 3_333, "{backend}");
        assert!(st.col(3).max.unwrap().is_finite(), "f64::max skips NaN");
        assert_eq!((st.col(4).nulls, st.col(4).distinct), (10_000, 0));
        assert!(st.col(4).min.is_none() && st.col(4).histogram.is_none());
        assert_eq!(st.col(5).distinct, 365, "{backend}");
    }
}

#[test]
fn a_truncated_paged_table_fails_analyze_with_an_error() {
    let dir = std::env::temp_dir().join(format!("pop-typed-analyze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::with_storage(StorageConfig {
        page_size: 512,
        buffer_pool_bytes: 2048,
        dir: Some(dir.clone()),
        ..StorageConfig::paged()
    });
    let rows: Vec<Row> = (0..2_000i64)
        .map(|i| vec![Value::Int(i), Value::str(format!("row {i}"))])
        .collect();
    let table = catalog
        .create_table(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]),
            rows,
        )
        .unwrap();
    assert!(table.page_count() > 10);
    let registry = StatsRegistry::new();
    registry.analyze(&catalog, "t").unwrap();
    // Cut the data file after its first two data pages.
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("t.dat"))
        .unwrap()
        .set_len(3 * 512)
        .unwrap();
    let err = registry.analyze(&catalog, "t").unwrap_err();
    assert!(err.to_string().contains("storage io"), "{err}");
    drop((table, catalog));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// splitmix64: everything one case draws, from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The rows' whole numbers span `lo..=lo + span`: both ends occur, the
/// rest are drawn between them.
fn spanning(rng: &mut Rng, i: usize, lo: i64, span: u64) -> i64 {
    match i {
        0 => lo,
        1 => lo.wrapping_add(span as i64),
        _ => lo.wrapping_add(rng.below(span.saturating_add(1)) as i64),
    }
}

/// Floats of every kind the number kernel must keep apart: both zeros,
/// NaNs with other payloads and signs, infinities, whole numbers and
/// halves (a few distinct values, so runs repeat).
fn float(rng: &mut Rng) -> f64 {
    match rng.below(10) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::from_bits(0x7ff8_0000_0000_0001),
        4 => f64::from_bits(0xfff8_0000_0000_0000),
        5 => [f64::INFINITY, f64::NEG_INFINITY][rng.below(2) as usize],
        6 => rng.below(9) as f64 + 0.5,
        _ => rng.below(50) as f64 - 25.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `Int`, `Date` and `Float` columns, with NULLs or without
    /// (a mem column without them is sorted where it lies): keys spanning
    /// just below, at and above the counting sort's cut-off (2n + 1024
    /// values for n keys) and far beyond it, `i64::MIN` with `i64::MAX`,
    /// both zeros and NaN payloads, a single-value column and an all-NULL
    /// one — on both backends, equal to the row reference.
    #[test]
    fn number_columns_equal_the_row_reference(
        seed in any::<u64>(),
        n in 1usize..1500,
        null_every in 2u64..12,
        with_nulls in any::<bool>(),
        offset in 0u64..7,
        sparse in any::<bool>(),
    ) {
        let mut rng = Rng(seed);
        let null: Vec<bool> = (0..n).map(|_| with_nulls && rng.below(null_every) == 0).collect();
        // A column's keys are its non-NULL rows: span them around the
        // cut-off for that many keys, or far beyond it.
        let cut = 2 * null.iter().filter(|x| !**x).count() as u64 + 1024;
        let span = if sparse { cut * 1_000 } else { cut + offset - 3 };
        let lo = rng.below(1 << 20) as i64 - (1 << 19);
        let single = Value::Int(rng.below(100) as i64);
        let schema = Schema::from_pairs(&[
            ("int", DataType::Int),
            ("date", DataType::Date),
            ("float", DataType::Float),
            ("extremes", DataType::Int),
            ("single", DataType::Int),
            ("none", DataType::Int),
        ]);
        let mut k = 0;
        let rows: Vec<Row> = null
            .iter()
            .map(|&null| {
                let or_null = |v: Value| if null { Value::Null } else { v };
                let extreme = match k % 4 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.next() as i64,
                };
                let row = vec![
                    or_null(Value::Int(spanning(&mut rng, k, lo, span))),
                    or_null(Value::Date(spanning(&mut rng, k, lo, span.min(1 << 30)) as i32)),
                    or_null(Value::Float(float(&mut rng))),
                    or_null(Value::Int(extreme)),
                    or_null(single.clone()),
                    Value::Null,
                ];
                k += usize::from(!null);
                row
            })
            .collect();
        for (storage, backend) in [(StorageConfig::default(), "mem"), (paged(), "paged")] {
            let catalog = Catalog::with_storage(storage);
            catalog.create_table("t", schema.clone(), rows.clone()).unwrap();
            assert_matches_reference(&catalog, &format!("{backend}, n={n} span={span}"));
            let st = analyze_table(&catalog.table("t").unwrap()).unwrap();
            prop_assert!(st.col(4).distinct <= 1);
            prop_assert_eq!((st.col(5).nulls, st.col(5).distinct), (n as u64, 0));
        }
    }
}
