//! Column data types and coercion rules.

use crate::value::Value;
use std::fmt;

/// The data types supported by the engine's SQL subset.
///
/// This matches the surface the H-Store benchmarks (Voter et al.) need:
/// 64-bit integers, doubles, varchar, booleans, and timestamps. Timestamps
/// are logical microseconds (see [`crate::clock::Clock`]) so that runs are
/// deterministic and replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INT` / `BIGINT`).
    Int,
    /// 64-bit IEEE float (`FLOAT` / `DOUBLE`).
    Float,
    /// UTF-8 string (`VARCHAR`).
    Text,
    /// Boolean (`BOOLEAN`).
    Bool,
    /// Logical timestamp in microseconds (`TIMESTAMP`).
    Timestamp,
}

impl DataType {
    /// True if a value of type `from` may be stored in a column of type
    /// `self` (possibly with a widening conversion).
    pub fn accepts(self, from: DataType) -> bool {
        self == from
            || (self == DataType::Float && from == DataType::Int)
            || (self == DataType::Timestamp && from == DataType::Int)
            || (self == DataType::Int && from == DataType::Timestamp)
    }

    /// Coerce `v` to this type if possible. `Null` passes through untouched
    /// (nullability is checked separately by the schema layer).
    pub fn coerce(self, v: Value) -> Option<Value> {
        match (self, v) {
            (_, Value::Null) => Some(Value::Null),
            (DataType::Int, Value::Int(i)) => Some(Value::Int(i)),
            (DataType::Int, Value::Timestamp(t)) => Some(Value::Int(t)),
            (DataType::Float, Value::Float(f)) => Some(Value::Float(f)),
            (DataType::Float, Value::Int(i)) => Some(Value::Float(i as f64)),
            (DataType::Text, Value::Text(s)) => Some(Value::Text(s)),
            (DataType::Bool, Value::Bool(b)) => Some(Value::Bool(b)),
            (DataType::Timestamp, Value::Timestamp(t)) => Some(Value::Timestamp(t)),
            (DataType::Timestamp, Value::Int(i)) => Some(Value::Timestamp(i)),
            _ => None,
        }
    }

    /// Stable one-byte code for the binary metadata codec.
    pub fn code(self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Text => 2,
            DataType::Bool => 3,
            DataType::Timestamp => 4,
        }
    }

    /// Inverse of [`DataType::code`].
    pub fn from_code(code: u8) -> Option<DataType> {
        Some(match code {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Text,
            3 => DataType::Bool,
            4 => DataType::Timestamp,
            _ => return None,
        })
    }

    /// SQL keyword for this type, as accepted by the parser.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "VARCHAR",
            DataType::Bool => "BOOLEAN",
            DataType::Timestamp => "TIMESTAMP",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_widens_to_float() {
        assert!(DataType::Float.accepts(DataType::Int));
        assert_eq!(
            DataType::Float.coerce(Value::Int(3)),
            Some(Value::Float(3.0))
        );
    }

    #[test]
    fn text_does_not_coerce_to_int() {
        assert!(!DataType::Int.accepts(DataType::Text));
        assert_eq!(DataType::Int.coerce(Value::Text("3".into())), None);
    }

    #[test]
    fn null_passes_all_types() {
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Timestamp,
        ] {
            assert_eq!(ty.coerce(Value::Null), Some(Value::Null));
        }
    }

    #[test]
    fn timestamp_int_interop() {
        assert_eq!(
            DataType::Timestamp.coerce(Value::Int(42)),
            Some(Value::Timestamp(42))
        );
        assert_eq!(
            DataType::Int.coerce(Value::Timestamp(42)),
            Some(Value::Int(42))
        );
    }

    #[test]
    fn sql_names_round_trip_display() {
        assert_eq!(DataType::Text.to_string(), "VARCHAR");
        assert_eq!(DataType::Timestamp.to_string(), "TIMESTAMP");
    }
}
