//! Differential test of the column-major `RowBatch` against a plain row
//! model: random schemas over `Int` / `Float` / `Date` / `Bool` / `Str`
//! columns, with NULLs and columns that mix types, under random sequences
//! of every operation that builds or reshapes a batch — push, append
//! (with and without a selection), retain, truncate, split_live,
//! project, copy_rows, compact. After every operation the live rows —
//! values with their variants, lineage and order — must equal the model's.

use pop_exec::RowBatch;
use pop_types::{Rid, Row, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Column types: the five typed ones and a column mixing all of them.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Date,
    Bool,
    Str,
    Mixed,
}

const KINDS: [Kind; 6] = [
    Kind::Int,
    Kind::Float,
    Kind::Date,
    Kind::Bool,
    Kind::Str,
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
}

/// A value of `kind`, NULL one time in five; few distinct values, with
/// the edge cases of `Value`'s equality (`-0.0` / `0.0`, NaN, `Int(0)` vs
/// `Float(0.0)`, strings sharing a prefix).
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
        Kind::Mixed => value(KINDS[rng.below(5)], rng),
    }
}

type Model = Vec<(Row, Vec<Rid>)>;

/// The running case: the schema, the batch under test and its model.
struct Case {
    kinds: Vec<Kind>,
    lin_width: usize,
    batch: RowBatch,
    model: Model,
    next_rid: u64,
}

impl Case {
    fn row(&mut self, rng: &mut Rng) -> (Row, Vec<Rid>) {
        let row = self.kinds.iter().map(|k| value(*k, rng)).collect();
        let lineage = (0..self.lin_width)
            .map(|t| {
                self.next_rid += 1;
                Rid::new(t as u32, self.next_rid)
            })
            .collect();
        (row, lineage)
    }

    /// Pushes need an unfiltered batch; compacting changes no live row.
    fn unfiltered(&mut self) {
        if self.batch.sel().is_some() {
            self.batch.compact();
        }
    }
}

/// A deterministic subset predicate over a row's contents.
fn keep(row: &[Value], lineage: &[Rid], salt: u64) -> bool {
    let mut h = DefaultHasher::new();
    format!("{row:?}{lineage:?}").hash(&mut h);
    salt.hash(&mut h);
    !h.finish().is_multiple_of(3)
}

/// Same variant and same value (floats by bit pattern).
fn identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
            _ => std::mem::discriminant(x) == std::mem::discriminant(y) && x == y,
        })
}

fn live(batch: &RowBatch) -> Model {
    batch
        .live_indices()
        .map(|i| (batch.row_at(i), batch.lineage_at(i).to_vec()))
        .collect()
}

/// Apply one random operation to batch and model alike; returns its name.
fn step(case: &mut Case, rng: &mut Rng) -> &'static str {
    match rng.below(8) {
        0 => {
            case.unfiltered();
            let (row, lineage) = case.row(rng);
            case.batch.push_row(&row, &lineage);
            case.model.push((row, lineage));
            "push"
        }
        1 => {
            case.unfiltered();
            let mut other = RowBatch::new();
            let mut rows = Vec::new();
            for _ in 0..rng.below(12) {
                let (row, lineage) = case.row(rng);
                other.push_row(&row, &lineage);
                rows.push((row, lineage));
            }
            if rng.below(2) == 1 {
                let salt = rng.next();
                other.retain_live(|b, i| keep(&b.row_at(i), b.lineage_at(i), salt));
                rows.retain(|(r, l)| keep(r, l, salt));
            }
            case.batch.append(other);
            case.model.extend(rows);
            "append"
        }
        2 => {
            let salt = rng.next();
            case.batch
                .retain_live(|b, i| keep(&b.row_at(i), b.lineage_at(i), salt));
            case.model.retain(|(r, l)| keep(r, l, salt));
            "retain"
        }
        3 => {
            let n = rng.below(case.model.len() + 2);
            case.batch.truncate_live(n);
            case.model.truncate(n);
            "truncate"
        }
        4 => {
            let k = rng.below(case.model.len() + 2);
            let batch = std::mem::take(&mut case.batch);
            let (head, tail) = batch.split_live(k);
            let rest = case.model.split_off(k.min(case.model.len()));
            if rng.below(2) == 0 {
                case.batch = head;
            } else {
                case.batch = tail;
                case.model = rest;
            }
            "split_live"
        }
        5 if case.batch.width() == case.kinds.len() => {
            let positions: Vec<usize> = (0..=rng.below(4))
                .map(|_| rng.below(case.kinds.len()))
                .collect();
            case.batch = std::mem::take(&mut case.batch).project(&positions);
            case.kinds = positions.iter().map(|p| case.kinds[*p]).collect();
            for (row, _) in &mut case.model {
                *row = positions.iter().map(|p| row[*p].clone()).collect();
            }
            "project"
        }
        6 => {
            let physical: Vec<usize> = case.batch.live_indices().collect();
            let picks: Vec<usize> = (0..rng.below(10))
                .map(|_| rng.below(physical.len()))
                .filter(|_| !physical.is_empty())
                .collect();
            case.batch = case.batch.copy_rows(picks.iter().map(|o| physical[*o]));
            case.model = picks.iter().map(|o| case.model[*o].clone()).collect();
            "copy_rows"
        }
        _ => {
            case.batch.compact();
            "compact"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_batch_matches_the_row_model(
        seed in any::<u64>(),
        width in 1usize..5,
        lin_width in 0usize..3,
        ops in 1usize..40,
    ) {
        let mut rng = Rng(seed);
        let kinds = (0..width).map(|_| KINDS[rng.below(KINDS.len())]).collect();
        let mut case = Case {
            kinds,
            lin_width,
            batch: RowBatch::with_capacity(rng.below(8)),
            model: Vec::new(),
            next_rid: 0,
        };
        let mut trail = Vec::new();
        for _ in 0..ops {
            trail.push(step(&mut case, &mut rng));
            let got = live(&case.batch);
            prop_assert_eq!(case.batch.live_count(), case.model.len(), "{:?}", trail);
            for ((row, lineage), (want_row, want_lineage)) in got.iter().zip(&case.model) {
                prop_assert!(
                    identical(row, want_row),
                    "after {:?}: {:?} != {:?}",
                    trail,
                    row,
                    want_row
                );
                prop_assert_eq!(lineage, want_lineage, "{:?}", trail);
            }
        }
    }
}
