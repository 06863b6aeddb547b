//! SQL-ish values with a total order and hash, suitable as join/sort keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Date stored as a day number (days since an arbitrary epoch).
    Date,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Date => "DATE",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single value flowing through the engine.
///
/// `Value` deliberately implements `Eq`, `Ord` and `Hash` with *total*
/// semantics (`Null` compares equal to `Null` and sorts before everything,
/// floats compare via [`f64::total_cmp`]), because the execution engine
/// uses values directly as hash-join and sort keys. Three-valued SQL
/// comparison semantics live in the expression evaluator, not here.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (cheaply cloneable).
    Str(Arc<str>),
    /// Date as day number.
    Date(i32),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value (ints, floats and dates), used by
    /// arithmetic and range estimation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(f64::from(*d)),
            _ => None,
        }
    }

    /// Integer view, if the value is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order values of different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Date(_) => 4,
            Value::Str(_) => 5,
        }
    }

    /// SQL comparison: returns `None` if either side is NULL, otherwise the
    /// ordering. Numeric types (int/float/date) compare numerically across
    /// types; other mixed-type comparisons order by type rank.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other))
    }

    /// Total comparison used for sorting and joining.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::{Bool, Date, Float, Int, Null, Str};
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // Numeric cross-type comparisons.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Int(a), Date(b)) => a.cmp(&i64::from(*b)),
            (Date(a), Int(b)) => i64::from(*a).cmp(b),
            (Float(a), Date(b)) => a.total_cmp(&f64::from(*b)),
            (Date(a), Float(b)) => f64::from(*a).total_cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Integers and whole floats/dates that compare equal must hash
            // equally; normalize all numerics to the f64 bit pattern.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Date(d) => {
                2u8.hash(state);
                f64::from(*d).to_bits().hash(state);
            }
            Value::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "@{d}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::Int(-5)];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(-5));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(3)), None);
        assert_eq!(Value::Int(3).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(3).sql_cmp(&Value::Int(3)), Some(Ordering::Equal));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_eq!(Value::Date(7), Value::Int(7));
        assert_eq!(hash_of(&Value::Date(7)), hash_of(&Value::Int(7)));
    }

    #[test]
    fn string_ordering() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp_total(&nan), Ordering::Equal);
        assert!(Value::Float(1.0) < nan);
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Date(10).as_f64(), Some(10.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn data_type_roundtrip() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(format!("{}", DataType::Str), "STR");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("a").to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(12).to_string(), "@12");
    }
}
