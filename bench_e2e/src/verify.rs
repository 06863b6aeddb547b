//! Result checking: an order-independent fingerprint per query result,
//! compared against (a) a plain-loop recomputation of TPC-H Q1 and Q6 that
//! shares no code with the engine, (b) the fingerprints another workload
//! left for the same data, and (c) committed goldens.

use crate::json::{self, Json};
use crate::workload::{bench_dir, out_dir};
use pop::{Catalog, QuerySpec};
use pop_tpch::cols::lineitem;
use pop_types::{Row, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Row count plus a hash of the sorted row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Floats are rendered to 9 significant digits, so sums taken in another
/// order (parallel folds, another join order) fingerprint alike.
fn render<'a>(row: impl Iterator<Item = &'a Value>, out: &mut String) {
    out.clear();
    for v in row {
        match v {
            Value::Null => out.push_str("NULL"),
            Value::Int(i) => write!(out, "i{i}").unwrap(),
            Value::Float(x) => write!(out, "f{x:.8e}").unwrap(),
            Value::Str(s) => write!(out, "s{s}").unwrap(),
            Value::Date(d) => write!(out, "d{d}").unwrap(),
            Value::Bool(b) => write!(out, "b{b}").unwrap(),
        }
        out.push('\u{1f}');
    }
}

/// Fingerprint of a query's result. Under LIMIT, which of several rows
/// tied on the ORDER BY key make the cut is the plan's choice, so only the
/// key columns are part of the result every plan must agree on.
pub fn fingerprint(spec: &QuerySpec, rows: &[Row]) -> Fingerprint {
    let keys: Option<Vec<usize>> = spec
        .limit
        .map(|_| spec.order_by.iter().map(|key| key.pos).collect());
    fingerprint_columns(rows, keys.as_deref())
}

/// Fingerprint over `columns` of each row (`None` is every column).
fn fingerprint_columns(rows: &[Row], columns: Option<&[usize]>) -> Fingerprint {
    let mut text = String::new();
    let mut hashes: Vec<u64> = rows
        .iter()
        .map(|row| {
            match columns {
                Some(columns) => render(columns.iter().map(|c| &row[*c]), &mut text),
                None => render(row.iter(), &mut text),
            }
            fnv1a(FNV_OFFSET, text.as_bytes())
        })
        .collect();
    hashes.sort_unstable();
    let hash = hashes
        .iter()
        .fold(FNV_OFFSET, |h, row| fnv1a(h, &row.to_le_bytes()));
    Fingerprint {
        rows: rows.len(),
        hash,
    }
}

/// Q1 and Q6 of `pop_tpch::queries`, recomputed by a loop over LINEITEM.
pub fn tpch_oracle(catalog: &Catalog) -> Vec<(&'static str, Fingerprint)> {
    #[derive(Default)]
    struct Group {
        quantity: i64,
        price: f64,
        discount: f64,
        count: i64,
    }
    let rows = catalog.table("lineitem").expect("lineitem").snapshot();
    let mut q1: BTreeMap<String, Group> = BTreeMap::new();
    let mut q6 = Group::default();
    for row in rows.iter() {
        let (
            Value::Date(shipped),
            Value::Int(quantity),
            Value::Float(price),
            Value::Float(discount),
        ) = (
            &row[lineitem::SHIPDATE],
            &row[lineitem::QUANTITY],
            &row[lineitem::EXTENDEDPRICE],
            &row[lineitem::DISCOUNT],
        )
        else {
            panic!("lineitem row with unexpected column types: {row:?}");
        };
        if *shipped <= 2430 {
            let flag = row[lineitem::RETURNFLAG].as_str().expect("returnflag");
            let g = q1.entry(flag.to_string()).or_default();
            g.quantity += quantity;
            g.price += price;
            g.discount += discount;
            g.count += 1;
        }
        if (365..=729).contains(shipped) && *quantity < 24 {
            q6.price += price;
            q6.count += 1;
        }
    }
    let q1_rows: Vec<Row> = q1
        .into_iter()
        .map(|(flag, g)| {
            let n = g.count as f64;
            vec![
                Value::str(flag),
                Value::Int(g.quantity),
                Value::Float(g.price),
                Value::Float(g.quantity as f64 / n),
                Value::Float(g.price / n),
                Value::Float(g.discount / n),
                Value::Int(g.count),
            ]
        })
        .collect();
    let q6_sum = if q6.count == 0 {
        Value::Null
    } else {
        Value::Float(q6.price)
    };
    vec![
        ("Q1", fingerprint_columns(&q1_rows, None)),
        (
            "Q6",
            fingerprint_columns(&[vec![q6_sum, Value::Int(q6.count)]], None),
        ),
    ]
}

fn to_json(data_key: &str, workload: &str, results: &[(String, Fingerprint)]) -> Json {
    json::object([
        ("data", json::string(data_key)),
        ("written_by", json::string(workload)),
        (
            "queries",
            json::object(results.iter().map(|(name, fp)| {
                (
                    name.as_str(),
                    json::object([
                        ("rows", Json::Num(fp.rows as f64)),
                        ("hash", json::string(format!("{:016x}", fp.hash))),
                    ]),
                )
            })),
        ),
    ])
}

fn golden_path(data_key: &str) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{data_key}.json"))
}

/// Compare `results` with the fingerprints stored at `path`; one message
/// per query that differs or is missing.
fn compare(path: &Path, results: &[(String, Fingerprint)]) -> Vec<(String, String)> {
    let stored = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text));
    let stored = match stored {
        Ok(stored) => stored,
        Err(e) => return vec![("*".into(), format!("{}: {e}", path.display()))],
    };
    let by = json::str_at(&stored, &["written_by"]).unwrap_or("?");
    results
        .iter()
        .filter_map(|(name, fp)| {
            let rows = json::f64_at(&stored, &["queries", name, "rows"]);
            let hash = json::str_at(&stored, &["queries", name, "hash"]);
            let same = rows == Some(fp.rows as f64) && hash == Some(&format!("{:016x}", fp.hash));
            (!same).then(|| {
                (
                    name.clone(),
                    format!(
                        "{} rows / {:016x} here, {:?} rows / {} from {by} in {}",
                        fp.rows,
                        fp.hash,
                        rows,
                        hash.unwrap_or("nothing"),
                        path.display()
                    ),
                )
            })
        })
        .collect()
}

/// Checks (b) and (c): `(query, what differs)` for every query whose
/// fingerprint disagrees with the committed golden for this data (if one
/// exists) or with what an earlier workload on the same data left under
/// `out/fingerprints/`. The first workload to run leaves its own there.
/// With `bless`, the golden is (re)written instead of compared.
pub fn check_against_files(
    data_key: &str,
    workload: &str,
    results: &[(String, Fingerprint)],
    bless: bool,
) -> Vec<(String, String)> {
    let mut mismatches = Vec::new();
    let golden = golden_path(data_key);
    let write = |path: &Path| {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create directory");
        let text = to_json(data_key, workload, results).render_pretty() + "\n";
        std::fs::write(path, text).expect("write fingerprints");
    };
    if bless {
        write(&golden);
    } else if golden.exists() {
        mismatches.extend(compare(&golden, results));
    }
    let sibling = out_dir()
        .join("fingerprints")
        .join(format!("{data_key}.json"));
    if sibling.exists() {
        mismatches.extend(compare(&sibling, results));
    } else {
        write(&sibling);
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_order_and_float_dust() {
        let a = vec![
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::str("x")],
        ];
        let b = vec![
            vec![Value::Int(2), Value::str("x")],
            vec![Value::Int(1), Value::Float(0.3)],
        ];
        let all = |rows: &[Row]| fingerprint_columns(rows, None);
        assert_eq!(all(&a), all(&b));
        let c = vec![a[0].clone(), vec![Value::Int(2), Value::str("y")]];
        assert_ne!(all(&a), all(&c));
        assert_ne!(all(&a), all(&a[..1]));
        // An int and a float of the same value are different results.
        assert_ne!(all(&[vec![Value::Int(3)]]), all(&[vec![Value::Float(3.0)]]));
    }

    #[test]
    fn under_limit_only_the_order_key_counts() {
        let mut top = pop_tpch::q18();
        assert!(top.limit.is_some() && top.order_by[0].pos == 2);
        let a = vec![vec![Value::Int(1), Value::Int(10), Value::Int(300)]];
        let b = vec![vec![Value::Int(2), Value::Int(20), Value::Int(300)]];
        assert_eq!(fingerprint(&top, &a), fingerprint(&top, &b));
        top.limit = None;
        assert_ne!(fingerprint(&top, &a), fingerprint(&top, &b));
    }
}
