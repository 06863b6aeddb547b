//! Per-table and per-column statistics, collected by a full scan
//! ("RUNSTATS" in DB2 terms): one cursor pass over every column, each
//! chunk folded a column at a time into typed accumulators.

use crate::EquiDepthHistogram;
use pop_storage::Table;
use pop_types::column::{Column, Data};
use pop_types::{PopResult, Value};
use std::collections::HashSet;
use std::hash::Hash;
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

/// The distinct non-NULL values of a column: typed while every chunk of
/// it had one type, `Value`s (under whose equality `Int(3)` and
/// `Float(3.0)` are one value) once two types met.
#[derive(Debug)]
enum Distinct {
    Empty,
    Ints(HashSet<i64>),
    /// Floats by bit pattern: `Value` equality is `total_cmp`'s.
    Floats(HashSet<u64>),
    Dates(HashSet<i32>),
    Bools(HashSet<bool>),
    Strs(HashSet<Arc<str>>),
    Values(HashSet<Value>),
}

impl Distinct {
    fn len(&self) -> usize {
        match self {
            Distinct::Empty => 0,
            Distinct::Ints(s) => s.len(),
            Distinct::Floats(s) => s.len(),
            Distinct::Dates(s) => s.len(),
            Distinct::Bools(s) => s.len(),
            Distinct::Strs(s) => s.len(),
            Distinct::Values(s) => s.len(),
        }
    }

    /// The set as `Value`s, converting a typed one.
    fn values(&mut self) -> &mut HashSet<Value> {
        if !matches!(self, Distinct::Values(_)) {
            let set = match std::mem::replace(self, Distinct::Empty) {
                Distinct::Empty | Distinct::Values(_) => HashSet::new(),
                Distinct::Ints(s) => s.into_iter().map(Value::Int).collect(),
                Distinct::Floats(s) => s
                    .into_iter()
                    .map(|b| Value::Float(f64::from_bits(b)))
                    .collect(),
                Distinct::Dates(s) => s.into_iter().map(Value::Date).collect(),
                Distinct::Bools(s) => s.into_iter().map(Value::Bool).collect(),
                Distinct::Strs(s) => s.into_iter().map(Value::Str).collect(),
            };
            *self = Distinct::Values(set);
        }
        match self {
            Distinct::Values(s) => s,
            _ => unreachable!("converted above"),
        }
    }
}

/// A typed vector's view for [`ColumnAcc::fold_typed`]: its key in a
/// typed set, its `Value`, its numeric view (if the type has one), and the
/// picker of its typed set.
struct Kind<T, K> {
    key: fn(&T) -> K,
    value: fn(&T) -> Value,
    num: Option<fn(&T) -> f64>,
    /// The typed set, created if the column has had no value yet; `None`
    /// once it holds values of another type.
    set: fn(&mut Distinct) -> Option<&mut HashSet<K>>,
}

/// [`Kind::set`] for `Distinct::$variant`.
macro_rules! typed_set {
    ($variant:ident) => {
        |d| {
            if matches!(d, Distinct::Empty) {
                *d = Distinct::$variant(HashSet::new());
            }
            match d {
                Distinct::$variant(s) => Some(s),
                _ => None,
            }
        }
    };
}

/// One column's running statistics.
#[derive(Debug)]
struct ColumnAcc {
    non_null: u64,
    nulls: u64,
    distinct: Distinct,
    /// Every non-NULL value's numeric view, in row order, while all of
    /// them have one.
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
        let before = self.non_null;
        let total = rows.len() as u64;
        match col.data() {
            Data::Null(_) => {}
            Data::Int(v) => self.fold_typed(
                col,
                rows,
                v,
                &Kind {
                    key: |x| *x,
                    value: |x| Value::Int(*x),
                    num: Some(|x| *x as f64),
                    set: typed_set!(Ints),
                },
            ),
            Data::Float(v) => self.fold_typed(
                col,
                rows,
                v,
                &Kind {
                    key: |x| x.to_bits(),
                    value: |x| Value::Float(*x),
                    num: Some(|x| *x),
                    set: typed_set!(Floats),
                },
            ),
            Data::Date(v) => self.fold_typed(
                col,
                rows,
                v,
                &Kind {
                    key: |x| *x,
                    value: |x| Value::Date(*x),
                    num: Some(|x| f64::from(*x)),
                    set: typed_set!(Dates),
                },
            ),
            Data::Bool(v) => self.fold_typed(
                col,
                rows,
                v,
                &Kind {
                    key: |x| *x,
                    value: |x| Value::Bool(*x),
                    num: None,
                    set: typed_set!(Bools),
                },
            ),
            Data::Str(v) => self.fold_typed(
                col,
                rows,
                v,
                &Kind {
                    key: Arc::clone,
                    value: |x| Value::Str(Arc::clone(x)),
                    num: None,
                    set: typed_set!(Strs),
                },
            ),
            Data::Mixed(v) => {
                for x in v[rows].iter().filter(|x| !x.is_null()) {
                    self.non_null += 1;
                    self.distinct.values().insert(x.clone());
                    match x.as_f64() {
                        Some(f) if self.all_numeric => self.numeric.push(f),
                        Some(_) => {}
                        None => self.not_numeric(),
                    }
                }
            }
        }
        self.nulls += total - (self.non_null - before);
    }

    /// Fold the non-NULL rows `rows` of `col`'s typed vector `v`.
    fn fold_typed<T, K: Eq + Hash>(
        &mut self,
        col: &Column,
        rows: Range<usize>,
        v: &[T],
        kind: &Kind<T, K>,
    ) {
        let has_nulls = col.has_null_bitmap();
        let live = rows.filter(|i| !has_nulls || !col.is_null(*i));
        let before = self.non_null;
        if let Some(set) = (kind.set)(&mut self.distinct) {
            live.clone().for_each(|i| {
                set.insert((kind.key)(&v[i]));
                self.non_null += 1;
            });
        } else {
            let set = self.distinct.values();
            live.clone().for_each(|i| {
                set.insert((kind.value)(&v[i]));
                self.non_null += 1;
            });
        }
        match kind.num {
            Some(num) if self.all_numeric => self.numeric.extend(live.map(|i| num(&v[i]))),
            None if self.non_null > before => self.not_numeric(),
            _ => {}
        }
    }

    /// A value without a numeric view arrived: no min, max or histogram.
    fn not_numeric(&mut self) {
        self.all_numeric = false;
        self.numeric = Vec::new();
    }

    fn finish(self) -> ColumnStats {
        let (min, max, histogram) = if self.all_numeric && !self.numeric.is_empty() {
            let min = self.numeric.iter().copied().fold(f64::INFINITY, f64::min);
            let max = self
                .numeric
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let hist = EquiDepthHistogram::build(self.numeric, HISTOGRAM_BUCKETS);
            (Some(min), Some(max), hist)
        } else {
            (None, None, None)
        };
        ColumnStats {
            non_null: self.non_null,
            nulls: self.nulls,
            distinct: self.distinct.len() as u64,
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
