//! One partition's state: catalog plus the physical tables.

use crate::catalog::{Catalog, TableKind, WindowSpec};
use crate::table::Table;
use sstore_common::{Error, Result, Schema, TableId};

/// All the data owned by one partition.
///
/// H-Store executes transactions serially per partition, so `Database` is
/// deliberately `&mut`-threaded (no interior mutability on the data path);
/// the partition engine owns it behind a single-threaded executor.
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
    /// Physical tables, indexed by `TableId` position.
    tables: Vec<Table>,
}

impl Database {
    /// Empty partition.
    pub fn new() -> Self {
        Database::default()
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (lifecycle counters, window binding).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    fn create(&mut self, id: TableId) -> Result<TableId> {
        let meta = self
            .catalog
            .meta(id)
            .ok_or_else(|| Error::Internal(format!("fresh id {id} missing from catalog")))?;
        let schema = Catalog::storage_schema(meta)?;
        debug_assert_eq!(self.tables.len(), id.raw() as usize);
        self.tables.push(Table::new(meta.name.clone(), schema));
        Ok(id)
    }

    /// Create a base table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let id = self.catalog.add_table(name, schema)?;
        self.create(id)
    }

    /// Create a stream (hidden `__batch`/`__seq` columns added).
    pub fn create_stream(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let id = self.catalog.add_stream(name, schema)?;
        self.create(id)
    }

    /// Create a window (hidden `__seq`/`__ts` columns added).
    pub fn create_window(
        &mut self,
        name: &str,
        schema: Schema,
        spec: WindowSpec,
    ) -> Result<TableId> {
        let id = self.catalog.add_window(name, schema, spec)?;
        self.create(id)
    }

    /// Table by id.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.raw() as usize)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// Mutable table by id.
    pub fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(id.raw() as usize)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// Resolve a table name to an id.
    pub fn resolve(&self, name: &str) -> Result<TableId> {
        self.catalog
            .resolve(name)
            .ok_or_else(|| Error::NotFound(format!("table `{name}`")))
    }

    /// Table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        self.table(self.resolve(name)?)
    }

    /// Number of tables (all kinds).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// All physical tables, in `TableId` order (snapshot encoding).
    pub(crate) fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Give every table a fresh change journal. Called right after a
    /// snapshot image (full or delta) lands on disk — at that point every
    /// table's state is reachable from the chain — and after a restore,
    /// so the journals always describe "changes since the last image".
    /// Tables created *between* images have no journal and therefore
    /// embed as full images inside the next delta.
    pub fn enable_change_tracking(&mut self) {
        for t in &mut self.tables {
            t.set_journaling(true);
        }
    }

    /// Reassemble a database from decoded snapshot parts. The caller
    /// (snapshot loading) is responsible for the catalog/tables alignment
    /// invariant; [`crate::snapshot::Snapshot::read_from`] checks counts.
    pub(crate) fn from_parts(catalog: Catalog, tables: Vec<Table>) -> Database {
        Database { catalog, tables }
    }

    /// Disassemble into snapshot parts (delta application rebuilds the
    /// table vector in place, then reassembles with the delta's catalog).
    pub(crate) fn into_parts(self) -> (Catalog, Vec<Table>) {
        (self.catalog, self.tables)
    }

    /// The kind of a table.
    pub fn kind(&self, id: TableId) -> Result<&TableKind> {
        self.catalog
            .meta(id)
            .map(|m| &m.kind)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// Total approximate bytes across all tables (experiment E7).
    pub fn approx_bytes(&self) -> usize {
        self.tables.iter().map(Table::approx_bytes).sum()
    }

    /// Columns held by the tables' resident mirrors, over all tables: 0
    /// as long as no vector scan has read a column of any of them.
    pub fn mirrored_columns(&self) -> usize {
        self.tables.iter().map(Table::mirrored_columns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{WindowKind, COL_BATCH};
    use sstore_common::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_and_resolve() {
        let mut db = Database::new();
        let t = db.create_table("t", schema()).unwrap();
        assert_eq!(db.resolve("T").unwrap(), t);
        assert_eq!(db.table_by_name("t").unwrap().name(), "t");
        assert!(db.resolve("nope").is_err());
        assert_eq!(db.table_count(), 1);
    }

    #[test]
    fn stream_storage_schema_has_hidden_cols() {
        let mut db = Database::new();
        let s = db.create_stream("s", schema()).unwrap();
        let table = db.table(s).unwrap();
        assert_eq!(table.schema().arity(), 3);
        assert!(table.schema().column_index(COL_BATCH).is_some());
        assert!(db.kind(s).unwrap().is_stream());
    }

    #[test]
    fn window_creation() {
        let mut db = Database::new();
        let w = db
            .create_window(
                "w",
                schema(),
                WindowSpec {
                    kind: WindowKind::Tuple { size: 10, slide: 2 },
                    owner: None,
                },
            )
            .unwrap();
        assert!(db.kind(w).unwrap().is_window());
        assert_eq!(db.table(w).unwrap().schema().arity(), 3);
    }

    #[test]
    fn duplicate_name_rejected_across_kinds() {
        let mut db = Database::new();
        db.create_table("x", schema()).unwrap();
        assert!(db.create_stream("x", schema()).is_err());
        // Catalog and physical tables stay aligned after the failure.
        let y = db.create_table("y", schema()).unwrap();
        db.table_mut(y)
            .unwrap()
            .insert(vec![Value::Int(1)])
            .unwrap();
        assert_eq!(db.table(y).unwrap().len(), 1);
    }
}
