//! Per-table and per-column statistics, collected by a full scan
//! ("RUNSTATS" in DB2 terms): one cursor pass over every column, each
//! chunk folded a column at a time into typed accumulators.

use crate::EquiDepthHistogram;
use pop_storage::Table;
use pop_types::column::{Column, Data};
use pop_types::hash::MixHasher;
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

    /// Synthesize stats for a derived result of `rows` rows where per-column
    /// detail is unknown (used for temp MVs): distinct counts are capped at
    /// the row count, no histograms.
    pub fn derived(rows: u64, num_cols: usize) -> TableStats {
        TableStats {
            row_count: rows,
            pages: 0,
            columns: (0..num_cols)
                .map(|_| ColumnStats {
                    non_null: rows,
                    nulls: 0,
                    distinct: rows.max(1),
                    min: None,
                    max: None,
                    histogram: None,
                })
                .collect(),
        }
    }
}

/// Scan a table and collect full statistics: one cursor pass over every
/// column. A storage read error (a paged table whose pages cannot be read)
/// is returned, not a panic.
pub fn analyze_table(table: &Table) -> PopResult<TableStats> {
    let mut accs: Vec<ColumnAcc> = (0..table.schema().len())
        .map(|_| ColumnAcc::default())
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
/// are one value) once two types met. A number column keeps every value
/// and counts them with one sort at [`ColumnAcc::finish`], which also
/// orders them for the histogram.
#[derive(Debug)]
enum Distinct {
    Empty,
    /// Every non-NULL value, in row order.
    Ints(Vec<i64>),
    /// Every non-NULL value, in row order; distinct by bit pattern, as
    /// `Value` equality (`total_cmp`) tells them.
    Floats(Vec<f64>),
    /// Every non-NULL value, in row order.
    Dates(Vec<i32>),
    /// Bit 0: `false` seen; bit 1: `true` seen.
    Bools(u8),
    /// Hashed with the shared fixed `MixHasher`: SipHash's keyed rounds
    /// cost more than the insert, and a table whose strings were crafted
    /// to collide only slows its own ANALYZE.
    Strs(HashSet<Arc<str>, BuildHasherDefault<MixHasher>>),
    Values(HashSet<Value>),
}

/// Runs of equal keys in sorted `v`.
fn runs<T, K: PartialEq>(v: &[T], key: impl Fn(&T) -> K) -> u64 {
    let breaks = v.windows(2).filter(|w| key(&w[0]) != key(&w[1])).count();
    (v.len().min(1) + breaks) as u64
}

/// Minimum and maximum of a column's numeric views, folded in row order.
fn min_max(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let min = values.clone().fold(f64::INFINITY, f64::min);
    let max = values.fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// One column's running statistics.
#[derive(Debug)]
struct ColumnAcc {
    non_null: u64,
    nulls: u64,
    distinct: Distinct,
    /// Once values of two types met: every non-NULL value's numeric view,
    /// in row order, while all of them have one.
    numeric: Vec<f64>,
    all_numeric: bool,
}

impl Default for ColumnAcc {
    fn default() -> Self {
        ColumnAcc {
            non_null: 0,
            nulls: 0,
            distinct: Distinct::Empty,
            numeric: Vec::new(),
            all_numeric: true,
        }
    }
}

impl ColumnAcc {
    /// Fold rows `rows` of one chunk's column.
    fn fold(&mut self, col: &Column, rows: Range<usize>) {
        let total = rows.len() as u64;
        let no_nulls =
            !col.has_null_bitmap() && !matches!(col.data(), Data::Null(_) | Data::Mixed(_));
        let live = rows.filter(move |&i| no_nulls || !col.is_null(i));
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
            self.distinct = match col.data() {
                Data::Int(_) => Distinct::Ints(Vec::new()),
                Data::Float(_) => Distinct::Floats(Vec::new()),
                Data::Date(_) => Distinct::Dates(Vec::new()),
                Data::Bool(_) => Distinct::Bools(0),
                Data::Str(_) => Distinct::Strs(HashSet::default()),
                Data::Null(_) | Data::Mixed(_) => Distinct::Values(HashSet::new()),
            };
        }
        match (col.data(), &mut self.distinct) {
            (Data::Int(v), Distinct::Ints(d)) => d.extend(live.map(|i| v[i])),
            (Data::Float(v), Distinct::Floats(d)) => d.extend(live.map(|i| v[i])),
            (Data::Date(v), Distinct::Dates(d)) => d.extend(live.map(|i| v[i])),
            (Data::Bool(v), Distinct::Bools(seen)) => {
                live.for_each(|i| *seen |= 1 << u8::from(v[i]));
                self.all_numeric = false;
            }
            (Data::Str(v), Distinct::Strs(set)) => {
                for s in live.map(|i| &v[i]) {
                    if !set.contains(s.as_ref()) {
                        set.insert(Arc::clone(s));
                    }
                }
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
            Distinct::Strs(s) => s.into_iter().map(Value::Str).collect(),
        };
        self.distinct = Distinct::Values(set);
    }

    fn finish(self) -> ColumnStats {
        // A number vector: min and max in row order, then one sort gives
        // the distinct count and, as `f64`s (a monotone conversion), the
        // histogram's sorted input.
        let (distinct, numeric) = match self.distinct {
            Distinct::Empty => (0, None),
            Distinct::Ints(mut v) => {
                let range = min_max(v.iter().map(|x| *x as f64));
                v.sort_unstable();
                let d = runs(&v, |x| *x);
                (d, Some((range, v.into_iter().map(|x| x as f64).collect())))
            }
            Distinct::Dates(mut v) => {
                let range = min_max(v.iter().map(|x| f64::from(*x)));
                v.sort_unstable();
                let d = runs(&v, |x| *x);
                (d, Some((range, v.into_iter().map(f64::from).collect())))
            }
            Distinct::Floats(mut v) => {
                let range = min_max(v.iter().copied());
                v.sort_unstable_by(f64::total_cmp);
                (runs(&v, |x| x.to_bits()), Some((range, v)))
            }
            Distinct::Bools(seen) => (u64::from(seen.count_ones()), None),
            Distinct::Strs(s) => (s.len() as u64, None),
            Distinct::Values(s) => {
                let numeric = (self.all_numeric && !self.numeric.is_empty()).then(|| {
                    let range = min_max(self.numeric.iter().copied());
                    let mut v = self.numeric;
                    v.sort_unstable_by(f64::total_cmp);
                    (range, v)
                });
                (s.len() as u64, numeric)
            }
        };
        let (min, max, histogram) = match numeric {
            Some(((min, max), sorted)) => (
                Some(min),
                Some(max),
                EquiDepthHistogram::from_sorted(&sorted, HISTOGRAM_BUCKETS),
            ),
            None => (None, None, None),
        };
        ColumnStats {
            non_null: self.non_null,
            nulls: self.nulls,
            distinct,
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
        let st = TableStats::derived(0, 2);
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
