//! Runtime values.
//!
//! [`Value`] is the single dynamic cell type flowing through storage, the
//! SQL executor, windows, and stored-procedure parameters. It implements a
//! total order (`Ord`) — NULL sorts first, floats use IEEE total ordering —
//! so values can key B-tree indexes and `ORDER BY` without panics.

use crate::types::DataType;
use crate::{Error, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically-typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Logical timestamp (microseconds since engine start).
    Timestamp(i64),
}

impl Value {
    /// The value's runtime type, or `None` for NULL (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer accessor with a typed error (used by procedures).
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Timestamp(t) => Ok(*t),
            other => Err(Error::TypeMismatch(format!("expected INT, got {other}"))),
        }
    }

    /// Float accessor; ints widen.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(Error::TypeMismatch(format!("expected FLOAT, got {other}"))),
        }
    }

    /// String accessor.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::TypeMismatch(format!(
                "expected VARCHAR, got {other}"
            ))),
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::TypeMismatch(format!(
                "expected BOOLEAN, got {other}"
            ))),
        }
    }

    /// SQL three-valued-logic equality: NULL = anything is unknown, which
    /// we surface as `None`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other) == Ordering::Equal)
    }

    /// SQL comparison; `None` when either side is NULL, mirroring
    /// three-valued logic. Numeric types compare cross-type (INT vs FLOAT).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other))
    }

    /// Total ordering used for index keys and ORDER BY. NULL < everything;
    /// heterogeneous types order by a fixed type rank; INT/FLOAT/TIMESTAMP
    /// compare numerically against each other.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Int(a), Timestamp(b)) | (Timestamp(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) | (Timestamp(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) | (Float(a), Timestamp(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // Heterogeneous, non-numeric: order by type rank. Only reachable
            // through user error (mixed-type column data is rejected by the
            // schema layer), but Ord must still be total.
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2,
            Value::Timestamp(_) => 2,
            Value::Text(_) => 3,
        }
    }

    /// Render as a SQL literal (used by plan explainers and tests).
    pub fn to_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Timestamp(t) => t.to_string(),
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
            // Int/Float/Timestamp that compare equal must hash equal:
            // hash every numeric through its f64 bits when fractional-free
            // is impossible to guarantee; instead hash i64-representable
            // floats as ints.
            Value::Int(i) | Value::Timestamp(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // Normalize -0.0 to 0.0 so that equal values hash equal.
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
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
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Text(String::new()));
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
        assert_eq!(Value::Int(5), Value::Timestamp(5));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Timestamp(7)));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert!(Value::Text("x".into()).as_int().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Text("hi".into()).as_text().unwrap(), "hi");
    }

    #[test]
    fn literals_escape_quotes() {
        assert_eq!(Value::Text("a'b".into()).to_literal(), "'a''b'");
        assert_eq!(Value::Float(2.0).to_literal(), "2.0");
        assert_eq!(Value::Null.to_literal(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn nan_is_ordered_not_panicking() {
        let nan = Value::Float(f64::NAN);
        // total_cmp puts NaN above +inf; just assert it doesn't violate Ord.
        assert_eq!(nan.cmp_total(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }
}
