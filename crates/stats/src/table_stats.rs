//! Per-table and per-column statistics, collected by a full scan
//! ("RUNSTATS" in DB2 terms): one cursor pass over every column, each
//! chunk folded a column at a time into typed accumulators, with number
//! columns sorted by the kernel the index build uses.

use crate::EquiDepthHistogram;
use pop_storage::Table;
use pop_types::column::{Column, Data};
use pop_types::hash::{short_key, MixHasher};
use pop_types::sort::{from_total_order_key, sort_runs, total_order_key, KeyRuns};
use pop_types::{PopResult, Value};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::Arc;

/// Number of histogram buckets collected per numeric column.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Rows per cursor chunk of [`analyze_table`].
const ANALYZE_CHUNK: usize = 4096;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of non-null values.
    pub non_null: u64,
    /// Number of NULLs.
    pub nulls: u64,
    /// Exact distinct count of non-null values.
    pub distinct: u64,
    /// Minimum (numeric view) if the column is numeric.
    pub min: Option<f64>,
    /// Maximum (numeric view) if the column is numeric.
    pub max: Option<f64>,
    /// Equi-depth histogram for numeric columns.
    pub histogram: Option<EquiDepthHistogram>,
}

impl ColumnStats {
    /// Fraction of rows that are NULL.
    pub fn null_frac(&self) -> f64 {
        let total = self.non_null + self.nulls;
        if total == 0 {
            0.0
        } else {
            self.nulls as f64 / total as f64
        }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count at analysis time.
    pub row_count: u64,
    /// Data pages at analysis time (identical across storage backends:
    /// the mem backend keeps a virtual page map with the same packing
    /// rule the paged backend uses for real pages).
    pub pages: u64,
    /// Per-column stats, aligned with the table schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for column `i`.
    pub fn col(&self, i: usize) -> &ColumnStats {
        &self.columns[i]
    }

    /// Distinct count of column `i`, at least 1.
    pub fn distinct(&self, i: usize) -> f64 {
        (self.columns[i].distinct as f64).max(1.0)
    }
}

/// Scan a table and collect full statistics: one cursor pass over every
/// column. A storage read error (a paged table whose pages cannot be read)
/// is returned, not a panic.
pub fn analyze_table(table: &Table) -> PopResult<TableStats> {
    let expected = table.row_count();
    let mut accs: Vec<ColumnAcc> = (0..table.schema().len())
        .map(|_| ColumnAcc::new(expected))
        .collect();
    let mut rows = 0u64;
    let mut cursor = table.cursor(0, u64::MAX)?;
    while let Some(chunk) = cursor.next_chunk(ANALYZE_CHUNK)? {
        rows += chunk.rows.len() as u64;
        for (acc, col) in accs.iter_mut().zip(chunk.cols) {
            acc.fold(col, chunk.rows.clone());
        }
    }
    Ok(TableStats {
        row_count: rows,
        pages: table.page_count(),
        columns: accs.into_iter().map(ColumnAcc::finish).collect(),
    })
}

/// The distinct non-NULL values of a column: typed while every value of it
/// had one type, `Value`s (under whose equality `Int(3)` and `Float(3.0)`
/// are one value) once two types met. A number column keeps every value,
/// in row order, copied a chunk at a time, and [`ColumnAcc::finish`]
/// sorts their keys once with the kernel the index build uses
/// ([`sort_runs`]): its runs are the distinct values, and its order the
/// histogram's.
#[derive(Debug)]
enum Distinct {
    Empty,
    Ints(Vec<i64>),
    /// Distinct by bit pattern, as `Value` equality (`total_cmp`) tells
    /// them.
    Floats(Vec<f64>),
    Dates(Vec<i32>),
    /// Bit 0: `false` seen; bit 1: `true` seen.
    Bools(u8),
    Strs(Box<StrSet>),
    Values(HashSet<Value>),
}

/// Slots of [`StrSet::recent`].
const RECENT: usize = 16;

/// The distinct strings of a column, hashed with the shared fixed
/// `MixHasher`: SipHash's keyed rounds cost more than the insert, and a
/// table whose strings were crafted to collide only slows its own ANALYZE.
#[derive(Debug)]
struct StrSet {
    set: HashSet<Arc<str>, BuildHasherDefault<MixHasher>>,
    /// [`short_key`]s of strings the set holds, each in the slot its key
    /// picks: a row holding one of them — a column whose rows share a few
    /// short literals — is counted without a hash probe.
    recent: [u128; RECENT],
}

impl Default for StrSet {
    fn default() -> Self {
        StrSet {
            set: HashSet::default(),
            // A length byte of 255 is no string's key.
            recent: [u128::MAX; RECENT],
        }
    }
}

impl StrSet {
    /// Count `s`, probed where the column holds it: a string is copied
    /// into the set the first time it is seen only, so a fold allocates
    /// once per distinct value, not once per row.
    fn insert(&mut self, s: &str) {
        if let Some((key, slot)) = short_key(s, RECENT) {
            let slot = &mut self.recent[slot];
            if *slot == key {
                return;
            }
            *slot = key;
        }
        if !self.set.contains(s) {
            self.set.insert(Arc::from(s));
        }
    }
}

/// Append the values `live` of `v` — `rows` in one slice copy when no row
/// is NULL.
fn copy_live<T: Copy>(
    d: &mut Vec<T>,
    v: &[T],
    rows: Range<usize>,
    no_nulls: bool,
    live: impl Iterator<Item = usize>,
) {
    if no_nulls {
        d.extend_from_slice(&v[rows]);
    } else {
        d.extend(live.map(|i| v[i]));
    }
}

/// Minimum and maximum of a column's numeric views, folded in row order
/// (`f64::min` / `f64::max` skip NaN, and which of `0.0` and `-0.0` they
/// keep depends on the order).
fn min_max(values: &[f64]) -> (f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// A number column's minimum, maximum and histogram.
type Numeric = (f64, f64, Option<EquiDepthHistogram>);

/// The distinct count and [`Numeric`] of a number column from its sorted
/// keys: `view` is a key's numeric view, `range` the minimum and maximum
/// (the ends of the runs where no fold is needed).
fn from_runs(runs: &KeyRuns<()>, view: impl Fn(i64) -> f64, range: (f64, f64)) -> Numeric {
    let histogram =
        EquiDepthHistogram::from_ranks(runs.len(), HISTOGRAM_BUCKETS, |r| view(runs.key_at(r)));
    (range.0, range.1, histogram)
}

/// The ends of sorted integer keys as numeric views (an `i64` → `f64`
/// conversion keeps the order, so they are what a fold would find).
fn ends(runs: &KeyRuns<()>) -> (f64, f64) {
    (runs.key_at(0) as f64, runs.key_at(runs.len() - 1) as f64)
}

/// Sort `Int` or `Float` values by `key` in place: a key is as wide as a
/// value, so the keys take over the values' vector.
fn sort_values<T>(values: Vec<T>, key: impl Fn(T) -> i64) -> KeyRuns<()> {
    KeyRuns::from_pairs(values.into_iter().map(|x| (key(x), ())).collect())
}

/// One column's running statistics.
#[derive(Debug)]
struct ColumnAcc {
    /// Rows the table held when the scan started: the capacity of a
    /// number column's value vector.
    expected: usize,
    non_null: u64,
    nulls: u64,
    distinct: Distinct,
    /// Once values of two types met: every non-NULL value's numeric view,
    /// in row order, while all of them have one.
    numeric: Vec<f64>,
    all_numeric: bool,
}

impl ColumnAcc {
    fn new(expected: usize) -> Self {
        ColumnAcc {
            expected,
            non_null: 0,
            nulls: 0,
            distinct: Distinct::Empty,
            numeric: Vec::new(),
            all_numeric: true,
        }
    }

    /// Fold rows `rows` of one chunk's column.
    fn fold(&mut self, col: &Column, rows: Range<usize>) {
        let total = rows.len() as u64;
        let no_nulls =
            !col.has_null_bitmap() && !matches!(col.data(), Data::Null(_) | Data::Mixed(_));
        let live = rows.clone().filter(move |&i| no_nulls || !col.is_null(i));
        let n = if no_nulls {
            total
        } else {
            live.clone().count() as u64
        };
        self.non_null += n;
        self.nulls += total - n;
        if n == 0 {
            return;
        }
        if matches!(self.distinct, Distinct::Empty) {
            let cap = self.expected;
            self.distinct = match col.data() {
                Data::Int(_) => Distinct::Ints(Vec::with_capacity(cap)),
                Data::Float(_) => Distinct::Floats(Vec::with_capacity(cap)),
                Data::Date(_) => Distinct::Dates(Vec::with_capacity(cap)),
                Data::Bool(_) => Distinct::Bools(0),
                Data::Str(_) => Distinct::Strs(Box::default()),
                Data::Null(_) | Data::Mixed(_) => Distinct::Values(HashSet::new()),
            };
        }
        match (col.data(), &mut self.distinct) {
            (Data::Int(v), Distinct::Ints(d)) => copy_live(d, v, rows, no_nulls, live),
            (Data::Float(v), Distinct::Floats(d)) => copy_live(d, v, rows, no_nulls, live),
            (Data::Date(v), Distinct::Dates(d)) => copy_live(d, v, rows, no_nulls, live),
            (Data::Bool(v), Distinct::Bools(seen)) => {
                live.for_each(|i| *seen |= 1 << u8::from(v[i]));
                self.all_numeric = false;
            }
            (Data::Str(v), Distinct::Strs(set)) => {
                live.for_each(|i| set.insert(v.get(i)));
                self.all_numeric = false;
            }
            _ => {
                self.mix_types();
                let Distinct::Values(set) = &mut self.distinct else {
                    unreachable!("mix_types leaves a Value set")
                };
                for x in live.map(|i| col.value(i)) {
                    match x.as_f64() {
                        Some(f) if self.all_numeric => self.numeric.push(f),
                        Some(_) => {}
                        // No numeric view: no min, max or histogram.
                        None => {
                            self.all_numeric = false;
                            self.numeric = Vec::new();
                        }
                    }
                    set.insert(x);
                }
            }
        }
    }

    /// Values of a second type arrived: turn the typed set into a `Value`
    /// set, a number vector's values into the numeric views.
    fn mix_types(&mut self) {
        let set = match std::mem::replace(&mut self.distinct, Distinct::Empty) {
            Distinct::Empty => HashSet::new(),
            Distinct::Values(s) => s,
            Distinct::Ints(v) => {
                self.numeric.extend(v.iter().map(|x| *x as f64));
                v.into_iter().map(Value::Int).collect()
            }
            Distinct::Floats(v) => {
                self.numeric.extend_from_slice(&v);
                v.into_iter().map(Value::Float).collect()
            }
            Distinct::Dates(v) => {
                self.numeric.extend(v.iter().map(|x| f64::from(*x)));
                v.into_iter().map(Value::Date).collect()
            }
            Distinct::Bools(seen) => [false, true]
                .into_iter()
                .filter(|b| seen >> u8::from(*b) & 1 == 1)
                .map(Value::Bool)
                .collect(),
            Distinct::Strs(s) => s.set.into_iter().map(Value::Str).collect(),
        };
        self.distinct = Distinct::Values(set);
    }

    fn finish(self) -> ColumnStats {
        let (distinct, numeric) = match self.distinct {
            Distinct::Empty => (0, None),
            Distinct::Ints(v) => {
                let runs = sort_values(v, |x| x);
                let range = ends(&runs);
                (runs.distinct(), Some(from_runs(&runs, |k| k as f64, range)))
            }
            Distinct::Dates(v) => {
                // A key is wider than a date, so keys cannot take over the
                // vector; dates are dense, and a counting sort reads them
                // where they lie.
                let runs = sort_runs(v.iter().map(|x| (i64::from(*x), ())));
                let range = ends(&runs);
                (runs.distinct(), Some(from_runs(&runs, |k| k as f64, range)))
            }
            Distinct::Floats(v) => {
                let range = min_max(&v);
                let runs = sort_values(v, total_order_key);
                (
                    runs.distinct(),
                    Some(from_runs(&runs, from_total_order_key, range)),
                )
            }
            Distinct::Bools(seen) => (seen.count_ones() as usize, None),
            Distinct::Strs(s) => (s.set.len(), None),
            Distinct::Values(s) => {
                let numeric = (self.all_numeric && !self.numeric.is_empty()).then(|| {
                    let range = min_max(&self.numeric);
                    let runs = sort_values(self.numeric, total_order_key);
                    from_runs(&runs, from_total_order_key, range)
                });
                (s.len(), numeric)
            }
        };
        let (min, max, histogram) = match numeric {
            Some((min, max, histogram)) => (Some(min), Some(max), histogram),
            None => (None, None, None),
        };
        ColumnStats {
            non_null: self.non_null,
            nulls: self.nulls,
            distinct: distinct as u64,
            min,
            max,
            histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{DataType, Schema};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("n", DataType::Int),
        ]);
        let rows = (0..100)
            .map(|i| {
                vec![
                    Value::Int(i % 10),
                    Value::str(format!("s{}", i % 4)),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                ]
            })
            .collect();
        Table::new(0, "t", schema, rows)
    }

    #[test]
    fn analyze_counts() {
        let st = analyze_table(&table()).unwrap();
        assert_eq!(st.row_count, 100);
        assert!(st.pages > 0, "mem tables report virtual page counts");
        assert_eq!(st.col(0).distinct, 10);
        assert_eq!(st.col(1).distinct, 4);
        assert_eq!(st.col(2).nulls, 20);
        assert_eq!(st.col(2).non_null, 80);
        assert!((st.col(2).null_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn numeric_columns_get_histograms() {
        let st = analyze_table(&table()).unwrap();
        assert!(st.col(0).histogram.is_some());
        assert!(st.col(1).histogram.is_none());
        assert_eq!(st.col(0).min, Some(0.0));
        assert_eq!(st.col(0).max, Some(9.0));
    }

    #[test]
    fn distinct_floor() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let st = analyze_table(&Table::new(0, "e", schema, vec![])).unwrap();
        assert_eq!(st.col(0).distinct, 0);
        assert_eq!(st.distinct(0), 1.0);
        assert_eq!(st.row_count, 0);
        assert_eq!(st.columns.len(), 2);
    }

    #[test]
    fn empty_table() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let t = Table::new(0, "e", schema, vec![]);
        let st = analyze_table(&t).unwrap();
        assert_eq!(st.row_count, 0);
        assert_eq!(st.col(0).distinct, 0);
        assert!(st.col(0).histogram.is_none());
    }
}
