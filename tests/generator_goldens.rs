//! The generators' output, pinned: one content hash per table — its row
//! count and a 64-bit FNV-1a hash of every row's values in position order
//! — for TPC-H SF 0.002 and DMV scale 0.0005 at two seeds each. A change
//! to how a generator draws its random numbers, or in what order, changes
//! a table's rows and fails here; so does a load path that reorders,
//! drops or retypes a value on its way into the table.
//!
//! To re-record after a deliberate change to the data, run this test with
//! `--nocapture` and copy the printed tables over the expectations.

use pop_dmv::DmvGen;
use pop_storage::{Catalog, StorageConfig};
use pop_tpch::TpchGen;
use pop_types::{fnv1a_extend, Value, FNV1A_OFFSET};

/// FNV-1a over each value's type tag and payload, rows in position order.
fn content_hash(catalog: &Catalog, name: &str) -> (usize, u64) {
    let rows = catalog.table(name).unwrap().snapshot();
    let mut h = FNV1A_OFFSET;
    for v in rows.iter().flatten() {
        match v {
            Value::Null => fnv1a_extend(&mut h, &[0]),
            Value::Bool(b) => fnv1a_extend(&mut h, &[1, u8::from(*b)]),
            Value::Int(i) => {
                fnv1a_extend(&mut h, &[2]);
                fnv1a_extend(&mut h, &i.to_le_bytes());
            }
            Value::Float(f) => {
                fnv1a_extend(&mut h, &[3]);
                fnv1a_extend(&mut h, &f.to_bits().to_le_bytes());
            }
            Value::Date(d) => {
                fnv1a_extend(&mut h, &[4]);
                fnv1a_extend(&mut h, &d.to_le_bytes());
            }
            Value::Str(s) => {
                fnv1a_extend(&mut h, &[5]);
                fnv1a_extend(&mut h, &(s.len() as u64).to_le_bytes());
                fnv1a_extend(&mut h, s.as_bytes());
            }
        }
    }
    (rows.len(), h)
}

/// Every table of `catalog`, by name, with its row count and hash; printed
/// in the form of the expectations.
fn hashes(catalog: &Catalog, what: &str) -> Vec<(String, usize, u64)> {
    let got: Vec<(String, usize, u64)> = catalog
        .table_names()
        .into_iter()
        .map(|name| {
            let (rows, h) = content_hash(catalog, &name);
            (name, rows, h)
        })
        .collect();
    println!("{what}:");
    for (name, rows, h) in &got {
        println!("    (\"{name}\", {rows}, 0x{h:016x}),");
    }
    got
}

fn assert_pinned(got: &[(String, usize, u64)], what: &str, expected: &[(&str, usize, u64)]) {
    let got: Vec<(&str, usize, u64)> = got.iter().map(|(n, r, h)| (n.as_str(), *r, *h)).collect();
    assert_eq!(got, expected, "{what}");
}

fn tpch(seed: u64) -> Catalog {
    let catalog = Catalog::with_storage(StorageConfig::default());
    TpchGen { sf: 0.002, seed }.generate(&catalog).unwrap();
    catalog
}

fn dmv(seed: u64) -> Catalog {
    let catalog = Catalog::with_storage(StorageConfig::default());
    DmvGen {
        scale: 0.0005,
        seed,
    }
    .generate(&catalog)
    .unwrap();
    catalog
}

#[test]
fn tpch_tables_are_pinned_at_two_seeds() {
    let a = hashes(&tpch(42), "TPC-H SF 0.002, seed 42");
    let b = hashes(&tpch(43), "TPC-H SF 0.002, seed 43");
    assert_pinned(&a, "TPC-H SF 0.002, seed 42", TPCH_SEED_42);
    assert_pinned(&b, "TPC-H SF 0.002, seed 43", TPCH_SEED_43);
}

#[test]
fn dmv_tables_are_pinned_at_two_seeds() {
    let a = hashes(&dmv(7), "DMV 0.0005, seed 7");
    let b = hashes(&dmv(8), "DMV 0.0005, seed 8");
    assert_pinned(&a, "DMV 0.0005, seed 7", DMV_SEED_7);
    assert_pinned(&b, "DMV 0.0005, seed 8", DMV_SEED_8);
}

#[test]
fn the_paged_backend_holds_the_same_rows() {
    let paged = StorageConfig {
        buffer_pool_bytes: 64 << 10,
        ..StorageConfig::paged()
    };
    let catalog = Catalog::with_storage(paged.clone());
    TpchGen {
        sf: 0.002,
        seed: 42,
    }
    .generate(&catalog)
    .unwrap();
    let what = "TPC-H SF 0.002, seed 42, paged";
    assert_pinned(&hashes(&catalog, what), what, TPCH_SEED_42);
    let catalog = Catalog::with_storage(paged);
    DmvGen {
        scale: 0.0005,
        seed: 7,
    }
    .generate(&catalog)
    .unwrap();
    let what = "DMV 0.0005, seed 7, paged";
    assert_pinned(&hashes(&catalog, what), what, DMV_SEED_7);
}

/// Recorded before the generators wrote typed columns (rows built as
/// `Vec<Value>`s and moved into columns by the catalog's row adapter).
const TPCH_SEED_42: &[(&str, usize, u64)] = &[
    ("customer", 300, 0xf657671e7cba0862),
    ("lineitem", 12000, 0x70d775be5dbffc68),
    ("nation", 25, 0xa54f1f290a41081b),
    ("orders", 3000, 0xb6a3b441b4325dd6),
    ("part", 400, 0xf57bfd22274b220a),
    ("partsupp", 1600, 0x09664aa963b9bbe3),
    ("region", 5, 0xf504bb46ad3f5bb6),
    ("supplier", 20, 0x94d6e92a2c48fd86),
];
const TPCH_SEED_43: &[(&str, usize, u64)] = &[
    ("customer", 300, 0x87e0f4d9febd7b8e),
    ("lineitem", 12000, 0x4c4b4f8adfb4d25c),
    ("nation", 25, 0xa54f1f290a41081b),
    ("orders", 3000, 0x657cce3ef271e58c),
    ("part", 400, 0x98c919b42e1ce03a),
    ("partsupp", 1600, 0x237a2acb8d6f12e3),
    ("region", 5, 0xf504bb46ad3f5bb6),
    ("supplier", 20, 0x8a06273cdb051c23),
];
const DMV_SEED_7: &[(&str, usize, u64)] = &[
    ("accident", 4000, 0x26a48c5341489cd8),
    ("car", 4000, 0xb488505ce90ba8de),
    ("city", 50, 0x3de1529f8cc45115),
    ("dealer", 200, 0x1ce7f7ccac9db5e6),
    ("inspection", 8000, 0x9ef6e4c8c411de0d),
    ("insurance", 4000, 0x25021a1ce55ee3a6),
    ("make", 30, 0x091b56a08e38b891),
    ("model", 240, 0x233f23663eff4be5),
    ("owner", 3000, 0x12560e3426b760bc),
    ("provider", 8, 0xba325017ef3968e8),
    ("station", 60, 0x30ae361c82693c12),
    ("violation", 16000, 0x8ca27359ef894e8b),
    ("violation_type", 10, 0x55d5d53b96352c49),
];
const DMV_SEED_8: &[(&str, usize, u64)] = &[
    ("accident", 4000, 0x3662012033f3e5ac),
    ("car", 4000, 0x44c700c4d218436a),
    ("city", 50, 0x3de1529f8cc45115),
    ("dealer", 200, 0xc7083cd6995bceb6),
    ("inspection", 8000, 0x9347ba127cc4faaf),
    ("insurance", 4000, 0x248b391b93b3c664),
    ("make", 30, 0x091b56a08e38b891),
    ("model", 240, 0x233f23663eff4be5),
    ("owner", 3000, 0x58e78dfe0f217495),
    ("provider", 8, 0xba325017ef3968e8),
    ("station", 60, 0x5cddbc5debfdb861),
    ("violation", 16000, 0x492a8ec82f21de82),
    ("violation_type", 10, 0x55d5d53b96352c49),
];
