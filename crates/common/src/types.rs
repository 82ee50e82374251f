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
    /// The types whose values [`DataType::coerce`] turns into this one:
    /// itself, and INT with TIMESTAMP both ways, and INT to FLOAT.
    pub fn coercible_from(self) -> &'static [DataType] {
        use DataType::*;
        match self {
            Int | Timestamp => &[Int, Timestamp],
            Float => &[Int, Float],
            Text => &[Text],
            Bool => &[Bool],
        }
    }

    /// Coerce `v` to this type if its type is one
    /// [`DataType::coercible_from`] lists. `Null` passes through untouched
    /// (nullability is checked separately by the schema layer).
    pub fn coerce(self, v: Value) -> Option<Value> {
        let listed = v
            .data_type()
            .is_none_or(|t| self.coercible_from().contains(&t));
        match (self, v) {
            _ if !listed => None,
            (DataType::Int, Value::Timestamp(t)) => Some(Value::Int(t)),
            (DataType::Float, Value::Int(i)) => Some(Value::Float(i as f64)),
            (DataType::Timestamp, Value::Int(i)) => Some(Value::Timestamp(i)),
            (_, v) => Some(v), // NULL, or already this type
        }
    }

    /// Stable one-byte code for the binary metadata codec.
    pub(crate) fn code(self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Text => 2,
            DataType::Bool => 3,
            DataType::Timestamp => 4,
        }
    }

    /// Inverse of [`DataType::code`].
    pub(crate) fn from_code(code: u8) -> Option<DataType> {
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
    pub(crate) fn sql_name(self) -> &'static str {
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
        assert_eq!(
            DataType::Float.coerce(Value::Int(3)),
            Some(Value::Float(3.0))
        );
    }

    #[test]
    fn text_does_not_coerce_to_int() {
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

    /// Every listed source coerces to a value of exactly the target
    /// type, and no other type coerces.
    #[test]
    fn coerce_follows_coercible_from() {
        use DataType::*;
        let samples = [
            Value::Int(1),
            Value::Float(0.5),
            Value::Text("x".into()),
            Value::Bool(true),
            Value::Timestamp(1),
        ];
        for to in [Int, Float, Text, Bool, Timestamp] {
            for v in &samples {
                let from = v.data_type().unwrap();
                let got = to.coerce(v.clone()).map(|v| v.data_type());
                let want = to.coercible_from().contains(&from).then_some(Some(to));
                assert_eq!(got, want, "{from} to {to}");
            }
        }
    }

    #[test]
    fn sql_names_round_trip_display() {
        assert_eq!(DataType::Text.to_string(), "VARCHAR");
        assert_eq!(DataType::Timestamp.to_string(), "TIMESTAMP");
    }
}
