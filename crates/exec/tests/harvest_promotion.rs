//! Promotion moves a harvest's columns; the gather it replaced is the
//! reference. Random buffers over `Int` / `Float` / `Date` / `Bool` /
//! `Str` columns, with NULLs, all-NULL columns and columns that mix types,
//! grown batch by batch as a materializing operator grows them, in buffer
//! order or a random SORT order: the temp table built from `Harvest::into_columns` must hold the
//! rows (values with their variants, in output order), lineage, page count
//! and MV-scan cost of the one built from `Harvest::columns`, on the mem
//! and the paged backend.

use pop_exec::{Harvest, RowBatch};
use pop_plan::{CostModel, TableSet};
use pop_storage::{Catalog, Lineage, StorageConfig, StorageKind};
use pop_types::column::Column;
use pop_types::{ColumnDef, DataType, Rid, Row, Schema, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// Column kinds: the five typed ones, one that is always NULL, and one
/// mixing types.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Date,
    Bool,
    Str,
    Null,
    Mixed,
}

const KINDS: [Kind; 7] = [
    Kind::Int,
    Kind::Float,
    Kind::Date,
    Kind::Bool,
    Kind::Str,
    Kind::Null,
    Kind::Mixed,
];

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

    /// A random permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// A value of `kind`, NULL one time in five.
fn value(kind: Kind, rng: &mut Rng) -> Value {
    if rng.below(5) == 0 {
        return Value::Null;
    }
    match kind {
        Kind::Int => Value::Int([0, 1, -3, 7, (1 << 53) + 1][rng.below(5)]),
        Kind::Float => Value::Float([0.0, -0.0, 1.5, f64::NAN, 7.0][rng.below(5)]),
        Kind::Date => Value::Date([0, 1, -3, 7][rng.below(4)]),
        Kind::Bool => Value::Bool(rng.below(2) == 1),
        Kind::Str => Value::str(["", "a", "abcdefgh", "abcdefghi", "ü"][rng.below(5)]),
        Kind::Null => Value::Null,
        Kind::Mixed => value(KINDS[rng.below(5)], rng),
    }
}

fn dtype(kind: Kind) -> DataType {
    match kind {
        Kind::Int | Kind::Null | Kind::Mixed => DataType::Int,
        Kind::Float => DataType::Float,
        Kind::Date => DataType::Date,
        Kind::Bool => DataType::Bool,
        Kind::Str => DataType::Str,
    }
}

/// One promoted temp table's observable state: rows (by `Debug`, so
/// `-0.0`, NaN and the value variants count), lineage per row, page count
/// and the MV-scan cost's bits.
fn promoted(
    catalog: &Catalog,
    schema: &Schema,
    (cols, lineage): (Vec<Column>, Option<Lineage>),
    rows: usize,
) -> (Vec<String>, Vec<Vec<Rid>>, u64, u64) {
    let table = catalog
        .create_temp_table(
            catalog.allocate_temp_id(),
            "__mv",
            schema.clone(),
            cols,
            rows,
        )
        .expect("promotes");
    let pages = table.page_count();
    let cost = CostModel::default().mv_scan_cost(rows as f64, pages as f64);
    let snapshot: Vec<Row> = table.snapshot();
    (
        snapshot.iter().map(|r| format!("{r:?}")).collect(),
        (0..rows)
            .map(|i| lineage.as_ref().map_or(&[][..], |l| l.row(i)).to_vec())
            .collect(),
        pages,
        cost.to_bits(),
    )
}

fn check(seed: u64, width: usize, rows: usize, sorted: bool) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let kinds: Vec<Kind> = (0..width).map(|_| KINDS[rng.below(KINDS.len())]).collect();
    let lin_width = 1 + rng.below(3);
    // The buffer grows by appended batches, as `materialize` grows it.
    let mut buffer = RowBatch::new();
    let mut values: Vec<(Row, Vec<Rid>)> = Vec::new();
    while values.len() < rows {
        let n = (1 + rng.below(40)).min(rows - values.len());
        let mut batch = RowBatch::new();
        for _ in 0..n {
            let row: Row = kinds.iter().map(|&k| value(k, &mut rng)).collect();
            let rids: Vec<Rid> = (0..lin_width)
                .map(|t| Rid::new(t as u32, values.len() as u64))
                .collect();
            batch.push_row(&row, &rids);
            values.push((row, rids));
        }
        buffer.append(batch);
    }
    let order = sorted.then(|| {
        rng.permutation(rows)
            .into_iter()
            .map(|i| i as u32)
            .collect::<Arc<[u32]>>()
    });
    let tables = TableSet::single(0);
    let schema = Schema::new(
        (kinds.iter().enumerate())
            .map(|(c, k)| ColumnDef::new(format!("c{c}"), dtype(*k)))
            .collect(),
    );
    // The gather reads a buffer the operator still shares; each move gets
    // a buffer of its own, as promotion does once the plan is dropped.
    let shared = Arc::new(buffer.clone());
    let reference = Harvest::new(tables, Arc::clone(&shared), order.clone());

    let expected: Vec<String> = (0..rows)
        .map(|r| {
            let src = order.as_ref().map_or(r, |o| o[r] as usize);
            format!("{:?}", values[src].0)
        })
        .collect();
    let expected_lineage: Vec<Vec<Rid>> = (0..rows)
        .map(|r| {
            values[order.as_ref().map_or(r, |o| o[r] as usize)]
                .1
                .clone()
        })
        .collect();

    for kind in [StorageKind::Mem, StorageKind::Paged] {
        let catalog = Catalog::with_storage(StorageConfig {
            kind,
            page_size: 1024,
            buffer_pool_bytes: 16 * 1024,
            ..StorageConfig::default()
        });
        let gathered = promoted(&catalog, &schema, reference.columns(), rows);
        let own = Harvest::new(tables, Arc::new(buffer.clone()), order.clone());
        let moved = promoted(&catalog, &schema, own.into_columns(), rows);
        prop_assert_eq!(&gathered.0, &expected, "{:?}: gathered rows", kind);
        prop_assert_eq!(
            &gathered.1,
            &expected_lineage,
            "{:?}: gathered lineage",
            kind
        );
        prop_assert_eq!(&moved, &gathered, "{:?}: moved != gathered", kind);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_moved_promotion_equals_the_gathered_one(
        seed in any::<u64>(),
        width in 1usize..7,
        rows in 0usize..300,
        sorted in any::<bool>(),
    ) {
        check(seed, width, rows, sorted)?;
    }
}

/// Empty and one-row buffers, both orders: the edges a random size rarely
/// draws.
#[test]
fn edge_sizes_promote_alike() {
    for (seed, rows) in [(1, 0), (2, 1), (3, 2)] {
        for sorted in [false, true] {
            check(seed, 3, rows, sorted).unwrap();
        }
    }
}
