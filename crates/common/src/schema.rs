//! Table schemas: column definitions, primary keys, and row validation.

use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;
use crate::{Error, Result};

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-insensitive in SQL; stored lower-case).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into().to_ascii_lowercase(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            nullable: true,
            ..Column::new(name, ty)
        }
    }

    /// Whether `v` is stored in this column as it is: a value of the
    /// declared type, or NULL where the column is nullable.
    pub fn holds(&self, v: &Value) -> bool {
        v.data_type().map_or(self.nullable, |t| t == self.ty)
    }
}

/// An ordered list of columns plus an optional primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    pk: Vec<usize>,
}

impl Schema {
    /// Build a schema; fails on duplicate column names or bad PK references.
    pub fn new(columns: Vec<Column>, pk_names: &[&str]) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(Error::Constraint(format!("duplicate column `{}`", c.name)));
            }
        }
        let mut pk = Vec::with_capacity(pk_names.len());
        for name in pk_names {
            let lname = name.to_ascii_lowercase();
            let idx = columns
                .iter()
                .position(|c| c.name == lname)
                .ok_or_else(|| Error::NotFound(format!("primary key column `{name}`")))?;
            if pk.contains(&idx) {
                return Err(Error::Constraint(format!(
                    "duplicate primary key column `{name}`"
                )));
            }
            pk.push(idx);
        }
        Ok(Schema { columns, pk })
    }

    /// Schema with no primary key.
    pub fn keyless(columns: Vec<Column>) -> Result<Self> {
        Schema::new(columns, &[])
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The primary-key column indices (empty when keyless).
    pub fn pk_indices(&self) -> &[usize] {
        &self.pk
    }

    /// True if the schema declares a primary key.
    pub fn has_pk(&self) -> bool {
        !self.pk.is_empty()
    }

    /// Validate arity, coerce each value to its column type, and enforce
    /// NOT NULL. Returns the (possibly coerced) row. Rows whose cells
    /// already match their column types pass through without touching the
    /// shared allocation; only an actual coercion triggers copy-on-write.
    pub fn validate(&self, row: impl Into<Row>) -> Result<Row> {
        let mut row = row.into();
        if row.len() != self.columns.len() {
            return Err(Error::Constraint(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.columns.len()
            )));
        }
        for (i, col) in self.columns.iter().enumerate() {
            if col.holds(&row[i]) {
                continue; // stored as it is: no write needed
            }
            if row[i].is_null() {
                return Err(Error::Constraint(format!(
                    "NULL in non-nullable column `{}`",
                    col.name
                )));
            }
            let cells = row.make_mut();
            let v = std::mem::replace(&mut cells[i], Value::Null);
            let coerced = col.ty.coerce(v).ok_or_else(|| {
                Error::TypeMismatch(format!("column `{}` expects {}", col.name, col.ty))
            })?;
            cells[i] = coerced;
        }
        Ok(row)
    }

    /// Append extra (hidden) columns, producing a new schema with the same
    /// primary key. Used by the storage layer to add `__batch`/`__seq`/`__ts`
    /// lifecycle columns to streams and windows.
    pub fn with_hidden(&self, extra: Vec<Column>) -> Result<Schema> {
        let mut columns = self.columns.clone();
        columns.extend(extra);
        let mut s = Schema::keyless(columns)?;
        s.pk = self.pk.clone();
        Ok(s)
    }

    /// Binary-encode the schema straight into `out`.
    /// Layout: column count, then `(name, type code, nullable)` per
    /// column, then the primary-key column indices.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        crate::codec::put_uvarint(out, self.columns.len() as u64);
        for c in &self.columns {
            crate::codec::put_str(out, &c.name);
            out.push(c.ty.code());
            out.push(c.nullable as u8);
        }
        crate::codec::put_uvarint(out, self.pk.len() as u64);
        for &i in &self.pk {
            crate::codec::put_uvarint(out, i as u64);
        }
    }

    /// Decode a schema encoded by [`Schema::encode_binary`].
    pub fn decode_binary(r: &mut crate::codec::Reader<'_>) -> Result<Schema> {
        let n = r.uvarint()? as usize;
        if n > r.remaining() {
            return Err(Error::Codec(format!(
                "schema column count {n} exceeds remaining input"
            )));
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?.to_string();
            let code = r.u8()?;
            let ty = DataType::from_code(code)
                .ok_or_else(|| Error::Codec(format!("unknown data-type code {code}")))?;
            let nullable = match r.u8()? {
                0 => false,
                1 => true,
                b => return Err(Error::Codec(format!("bad nullable flag {b}"))),
            };
            columns.push(Column { name, ty, nullable });
        }
        let n_pk = r.uvarint()? as usize;
        if n_pk > columns.len() {
            return Err(Error::Codec(format!(
                "schema pk count {n_pk} exceeds {} columns",
                columns.len()
            )));
        }
        let mut pk = Vec::with_capacity(n_pk);
        for _ in 0..n_pk {
            let i = r.uvarint()? as usize;
            if i >= columns.len() {
                return Err(Error::Codec(format!("pk column index {i} out of range")));
            }
            pk.push(i);
        }
        Ok(Schema { columns, pk })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("score", DataType::Float),
            ],
            &["id"],
        )
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let e = Schema::keyless(vec![
            Column::new("a", DataType::Int),
            Column::new("A", DataType::Int),
        ])
        .unwrap_err();
        assert_eq!(e.kind(), "constraint");
    }

    #[test]
    fn pk_must_exist() {
        let e = Schema::new(vec![Column::new("a", DataType::Int)], &["b"]).unwrap_err();
        assert_eq!(e.kind(), "not_found");
    }

    #[test]
    fn validate_coerces_and_checks_nulls() {
        let s = schema();
        let row = s
            .validate(vec![Value::Int(1), Value::Text("x".into()), Value::Int(2)])
            .unwrap();
        assert_eq!(row[2], Value::Float(2.0));

        let err = s
            .validate(vec![Value::Null, Value::Text("x".into()), Value::Null])
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");

        // nullable column accepts NULL
        let ok = s
            .validate(vec![Value::Int(1), Value::Text("x".into()), Value::Null])
            .unwrap();
        assert!(ok[2].is_null());
    }

    #[test]
    fn arity_mismatch() {
        let s = schema();
        assert!(s.validate(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn pk_extraction_and_lookup() {
        let s = schema();
        assert_eq!(s.pk_indices(), &[0]);
        assert!(s.has_pk());
        assert_eq!(s.column_index("NAME"), Some(1));
        assert_eq!(s.column_index("ScOrE"), Some(2));
        assert!(s.column_index("nam").is_none());
    }

    #[test]
    fn hidden_columns_preserve_pk() {
        let s = schema()
            .with_hidden(vec![Column::new("__seq", DataType::Int)])
            .unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.pk_indices(), &[0]);
        assert_eq!(s.column_index("__seq"), Some(3));
    }
}
