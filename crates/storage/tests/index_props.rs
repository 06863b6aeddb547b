//! Differential test of the in-memory secondary index (sorted runs)
//! against a `BTreeMap<Value, Vec<u64>>` built here from the same rows:
//! random `Int` / `Float` / `Date` / `Str` columns with NULLs and a column
//! mixing `Int` and `Float`, both index kinds, mem and paged tables. Every
//! probe — present and absent keys, cross-type numerics, NULL — and every
//! range — open bounds, `lo > hi`, bounds of another numeric type — must
//! return the reference's positions in the reference's order. A batch
//! probe of a random key column (any type against any index, NULLs,
//! selections; mem and paged tables) must return each row's per-key
//! probe, in row order, with its bounds.

use pop_storage::{Catalog, Index, IndexKind, StorageConfig, Table};
use pop_types::column::Column;
use pop_types::{DataType, Row, Schema, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Column types under test.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Date,
    Str,
    /// `Int`s and `Float`s in one column, `Int(3)` and `Float(3.0)` one key.
    IntFloat,
}

const KINDS: [Kind; 5] = [
    Kind::Int,
    Kind::Float,
    Kind::Date,
    Kind::Str,
    Kind::IntFloat,
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
}

/// How one case draws its keys.
#[derive(Debug, Clone, Copy)]
struct Draw {
    /// Distinct whole numbers (or strings) drawn from.
    spread: usize,
    /// Gap between neighbouring whole numbers: 1 keeps integer keys dense
    /// (the index's counting sort), a large gap makes them sparse (its
    /// pair sort).
    scale: i64,
    /// One value in this many is NULL.
    null_every: usize,
}

/// A whole number: small enough that every `Int` and `Date` is exact as
/// an `f64`, so `Value` equality across numeric types is transitive.
fn whole(rng: &mut Rng, d: Draw) -> i64 {
    (rng.below(d.spread) as i64 - (d.spread / 2) as i64) * d.scale
}

/// A value of `kind`.
fn value(kind: Kind, rng: &mut Rng, d: Draw) -> Value {
    if rng.below(d.null_every) == 0 {
        return Value::Null;
    }
    match kind {
        Kind::Int => Value::Int(whole(rng, d)),
        Kind::Float => match rng.below(8) {
            0 => Value::Float(-0.0),
            1 => Value::Float(f64::NAN),
            2 => Value::Float(whole(rng, d) as f64 + 0.5),
            _ => Value::Float(whole(rng, d) as f64),
        },
        Kind::Date => Value::Date(whole(rng, d) as i32),
        Kind::Str => Value::str(format!("k{}", rng.below(d.spread))),
        Kind::IntFloat => match rng.below(2) {
            0 => Value::Int(whole(rng, d)),
            _ => value(
                Kind::Float,
                rng,
                Draw {
                    null_every: usize::MAX,
                    ..d
                },
            ),
        },
    }
}

/// The reference: non-NULL keys under `Value`'s order, positions in row
/// order per key.
fn reference(keys: &[Value]) -> BTreeMap<Value, Vec<u64>> {
    let mut map: BTreeMap<Value, Vec<u64>> = BTreeMap::new();
    for (pos, k) in keys.iter().enumerate() {
        if !k.is_null() {
            map.entry(k.clone()).or_default().push(pos as u64);
        }
    }
    map
}

/// The reference's positions of the keys in `[lo, hi]`, by ascending key.
fn reference_range(
    map: &BTreeMap<Value, Vec<u64>>,
    lo: Option<&Value>,
    hi: Option<&Value>,
) -> Vec<u64> {
    map.iter()
        .filter(|(k, _)| lo.is_none_or(|lo| *k >= lo) && hi.is_none_or(|hi| *k <= hi))
        .flat_map(|(_, p)| p.iter().copied())
        .collect()
}

/// Probe keys: every stored key, and each numeric one as the other
/// numeric types; absent neighbours; values of other types and NULL.
fn probes(map: &BTreeMap<Value, Vec<u64>>, rng: &mut Rng, d: Draw) -> Vec<Value> {
    let mut out: Vec<Value> = map.keys().cloned().collect();
    let wholes = map.keys().filter_map(|k| match k {
        Value::Int(x) => Some(*x),
        Value::Date(x) => Some(i64::from(*x)),
        Value::Float(x) if x.fract() == 0.0 => Some(*x as i64),
        _ => None,
    });
    let mut wholes: Vec<i64> = wholes.collect();
    wholes.extend([3, -1, 0, d.spread as i64 * d.scale + 5]);
    for k in wholes {
        out.extend([
            Value::Int(k),
            Value::Float(k as f64),
            Value::Float(k as f64 + 0.5),
            Value::Date(k as i32),
        ]);
    }
    out.extend([
        Value::Null,
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Bool(true),
        Value::str("k3"),
        Value::str(""),
    ]);
    for _ in 0..4 {
        let kind = KINDS[rng.below(KINDS.len())];
        out.push(value(kind, rng, Draw { null_every: 8, ..d }));
    }
    out
}

/// Build `kind` on column 0 of a one-column table holding `keys`, on the
/// mem backend or on pages (read back by a projected decode).
fn build(kind: IndexKind, keys: &[Value], paged: bool) -> Index {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("pad", DataType::Int)]);
    let rows: Vec<Row> = keys
        .iter()
        .map(|k| vec![k.clone(), Value::Int(1)])
        .collect();
    let table = if paged {
        let catalog = Catalog::with_storage(StorageConfig {
            page_size: 512,
            ..StorageConfig::paged()
        });
        catalog.create_table("t", schema, rows).unwrap()
    } else {
        std::sync::Arc::new(Table::new(0, "t", schema, rows))
    };
    Index::build(kind, 0, &table).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_runs_match_a_btreemap(
        seed in any::<u64>(),
        n in 0usize..400,
        spread in 1usize..60,
        sparse in any::<bool>(),
        null_every in 2usize..12,
        paged in any::<bool>(),
    ) {
        let mut rng = Rng(seed);
        let column = KINDS[rng.below(KINDS.len())];
        let d = Draw { spread, scale: if sparse { 1_000_003 } else { 1 }, null_every };
        let keys: Vec<Value> = (0..n).map(|_| value(column, &mut rng, d)).collect();
        let map = reference(&keys);
        let probe_keys = probes(&map, &mut rng, d);
        for kind in [IndexKind::Hash, IndexKind::Sorted] {
            let idx = build(kind, &keys, paged);
            let at = format!("{column:?} {kind:?} {d:?} paged={paged}");
            prop_assert_eq!(idx.kind(), kind);
            prop_assert_eq!(idx.entries(), map.values().map(|p| p.len() as u64).sum::<u64>(), "{}", at);
            prop_assert_eq!(idx.distinct_keys(), map.len() as u64, "{}", at);

            for key in &probe_keys {
                let want = if key.is_null() { Vec::new() } else { map.get(key).cloned().unwrap_or_default() };
                prop_assert_eq!(idx.probe(key), want, "{} probe {:?}", at, key);
            }

            let mut bounds: Vec<Option<Value>> = vec![None];
            bounds.extend(probe_keys.iter().take(6).cloned().map(Some));
            bounds.extend([
                Some(Value::Float(2.5)),
                Some(Value::Int(-2)),
                Some(Value::Date(4)),
                Some(Value::Float(f64::NAN)),
            ]);
            for lo in &bounds {
                for hi in &bounds {
                    let got = idx.range(lo.as_ref(), hi.as_ref());
                    match kind {
                        IndexKind::Hash => prop_assert!(got.is_none(), "{}", at),
                        IndexKind::Sorted => prop_assert_eq!(
                            got.unwrap(),
                            reference_range(&map, lo.as_ref(), hi.as_ref()),
                            "{} range {:?}..={:?}",
                            at,
                            lo,
                            hi
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Index::probe_batch` over rows of a key column = `Index::probe` of
    /// each row's value (the reference's positions), row by row: typed `Int` / `Date` columns against indexes of their own
    /// type and of `Float` / `IntFloat` keys, NULL-bearing and mixed
    /// columns, every row or a selection of them.
    #[test]
    fn batch_probes_match_per_key_probes(
        seed in any::<u64>(),
        n in 0usize..300,
        m in 0usize..200,
        spread in 1usize..60,
        sparse in any::<bool>(),
        null_every in 2usize..12,
        paged in any::<bool>(),
        select in any::<bool>(),
    ) {
        let mut rng = Rng(seed);
        let column = KINDS[rng.below(KINDS.len())];
        // Half the cases probe with the indexed column's own type.
        let probed = if rng.below(2) == 0 { column } else { KINDS[rng.below(KINDS.len())] };
        let d = Draw { spread, scale: if sparse { 1_000_003 } else { 1 }, null_every };
        let keys: Vec<Value> = (0..n).map(|_| value(column, &mut rng, d)).collect();
        let map = reference(&keys);
        // Half the probe columns are NULL-free (the typed search's case).
        let nulls = if rng.below(2) == 0 { usize::MAX } else { null_every };
        let pd = Draw { null_every: nulls, ..d };
        let probe_values: Vec<Value> = (0..m).map(|_| value(probed, &mut rng, pd)).collect();
        let mut col = Column::default();
        for v in &probe_values {
            col.push(v, m);
        }
        let rows: Vec<usize> = (0..m).filter(|_| !select || rng.below(3) > 0).collect();
        for kind in [IndexKind::Hash, IndexKind::Sorted] {
            let idx = build(kind, &keys, paged);
            let at = format!(
                "{column:?} {kind:?} index, {probed:?} probes {:?}, paged={paged} {d:?}",
                col.data().clone(),
            );
            let (mut out, mut bounds) = (vec![7, 7], vec![9]);
            idx.probe_batch(&col, rows.iter().copied(), &mut out, &mut bounds);
            prop_assert_eq!(bounds.len(), rows.len() + 1, "{}", at);
            prop_assert_eq!(bounds[0], 0, "{}", at);
            prop_assert_eq!(*bounds.last().unwrap(), out.len(), "{}", at);
            for (k, &r) in rows.iter().enumerate() {
                let key = &probe_values[r];
                let want = idx.probe(key);
                if !key.is_null() {
                    let reference = map.get(key).cloned().unwrap_or_default();
                    prop_assert_eq!(&want, &reference, "{} ref {:?}", at, key);
                }
                prop_assert_eq!(&out[bounds[k]..bounds[k + 1]], &want[..], "{} row {} {:?}", at, r, key);
            }
        }
    }
}

#[test]
fn cross_type_probes_and_inverted_ranges() {
    // Int keys 0..10, each twice; a NULL between them.
    let mut keys: Vec<Value> = (0..20).map(|i| Value::Int(i % 10)).collect();
    keys.insert(5, Value::Null);
    let idx = build(IndexKind::Sorted, &keys, false);
    let pos_of_3 = vec![3, 14];
    assert_eq!(idx.probe(&Value::Int(3)), pos_of_3);
    assert_eq!(idx.probe(&Value::Float(3.0)), pos_of_3);
    assert_eq!(idx.probe(&Value::Date(3)), pos_of_3);
    assert!(idx.probe(&Value::Float(3.5)).is_empty());
    assert!(idx.probe(&Value::Null).is_empty());
    assert_eq!((idx.entries(), idx.distinct_keys()), (20, 10));
    // lo > hi is empty, not a panic.
    let r = idx.range(Some(&Value::Int(7)), Some(&Value::Int(2)));
    assert_eq!(r, Some(vec![]));
    // Bounds of another numeric type.
    let r = idx.range(Some(&Value::Float(7.5)), Some(&Value::Date(9)));
    assert_eq!(r, Some(vec![9, 19, 10, 20]));
    assert!(build(IndexKind::Hash, &keys, false)
        .range(None, None)
        .is_none());
}
