//! A miniature SQL dialect — the statements the RUBiS servlets issue —
//! built around an interned **schema catalog**.
//!
//! The database tier needs *actual state* so that C-JDBC's recovery log
//! and state reconciliation (paper §4.1) are real mechanisms rather than
//! mocks: a replica that joins late must converge to the same contents by
//! replaying logged writes, and the property-based tests verify exactly
//! that.
//!
//! Table and column names resolve **once**, at schema-declaration /
//! statement-preparation time, to dense [`TableId`] / [`ColId`] indices.
//! A prepared [`Statement`] carries only those ids plus values, so the
//! per-request execution path in [`crate::storage`] performs zero string
//! hashing and zero name allocation — the same interpretation-overhead
//! trap C-JDBC itself avoids with prepared statements and full schema
//! knowledge (§4.1). Rows are fixed-layout `Vec<Value>` ordered by the
//! table's declared column list; absent columns hold [`Value::Null`].
//!
//! Name-based ergonomics survive where they belong: [`Schema`] offers
//! string-keyed statement builders for tests and dataset dumps, and
//! [`Statement::render`] still produces the exact SQL-like strings the
//! recovery log indexes ("all write requests are logged and indexed as
//! strings", §4.1).

use jade_sim::id_u16;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A column value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absent column (fixed-layout rows need an explicit hole).
    Null,
    /// Integer column.
    Int(i64),
    /// Text column.
    Text(String),
}

impl Value {
    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a primary key — the compiled-plan path
    /// ([`crate::plan`]) stores key parameters as `Int` slots. Values no
    /// key can hold (`Null`, `Text`, negatives) map to a key that misses
    /// every row, so a malformed slot behaves like a stale bookmark
    /// rather than a panic.
    pub fn as_key(&self) -> u64 {
        match self {
            Value::Int(i) if *i >= 0 => *i as u64,
            _ => u64::MAX,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

/// Dense id of a table in its [`Schema`] (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u16);

/// Dense id of a column within its table (declaration order — also the
/// column's position in the fixed row layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColId(pub u16);

/// A stored row: one value per declared column, shared between the table
/// and any outstanding query results (copy-on-write on update). The
/// reference counts and the values sit in one heap block.
pub type SharedRow = Arc<[Value]>;

/// Catalog entry of one table.
#[derive(Debug, PartialEq)]
pub struct TableDef {
    name: String,
    columns: Vec<String>,
    /// Column positions in name-sorted order (digest / render order — the
    /// order the historical `BTreeMap<String, Value>` rows iterated in).
    sorted_cols: Vec<u16>,
    /// Columns carrying a secondary hash index.
    indexed: Vec<ColId>,
}

impl TableDef {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared column names, in layout order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns (the row layout width).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column name of `col`.
    pub fn column(&self, col: ColId) -> &str {
        &self.columns[col.0 as usize]
    }

    /// Resolves a column name to its layout position.
    pub fn col_id(&self, name: &str) -> Option<ColId> {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| ColId(id_u16(i)))
    }

    /// Column positions in name-sorted order.
    pub fn sorted_cols(&self) -> &[u16] {
        &self.sorted_cols
    }

    /// Columns declared as secondarily indexed.
    pub fn indexed(&self) -> &[ColId] {
        &self.indexed
    }
}

/// The schema catalog: every table and column the workload may touch,
/// declared up front and interned to dense ids.
///
/// Built deterministically by a [`SchemaBuilder`] and shared as
/// `Arc<Schema>` by statement preparers, every database replica, the
/// recovery log (for rendering) and the C-JDBC controller — there is no
/// global interner, so id assignment never depends on execution order and
/// replica digests stay byte-identical across worker counts.
#[derive(Debug, PartialEq)]
pub struct Schema {
    tables: Vec<TableDef>,
    /// Table positions in name-sorted order (digest order).
    sorted_tables: Vec<u16>,
}

impl Schema {
    /// Starts declaring a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder { tables: Vec::new() }
    }

    /// A schema with no tables (placeholder for not-yet-deployed layers).
    pub fn empty() -> Arc<Schema> {
        Schema::builder().build()
    }

    /// Number of declared tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no table is declared.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Resolves a table name to its id.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .map(|i| TableId(id_u16(i)))
    }

    /// Catalog entry of `table`, if in range.
    pub fn table(&self, table: TableId) -> Option<&TableDef> {
        self.tables.get(table.0 as usize)
    }

    /// Table positions in name-sorted order.
    pub fn sorted_tables(&self) -> &[u16] {
        &self.sorted_tables
    }

    /// Table name of `table`, or a placeholder for out-of-catalog ids
    /// (only reachable through a mismatched schema).
    pub fn table_name(&self, table: TableId) -> &str {
        self.table(table).map_or("?", |t| t.name.as_str())
    }

    /// Resolves a table name, panicking when it is not declared (for
    /// preparation-time interning of known-good names).
    pub fn must_table(&self, name: &str) -> TableId {
        self.table_id(name)
            .unwrap_or_else(|| panic!("table '{name}' is not in the schema"))
    }

    /// Resolves a column name in `table`, panicking when either is not
    /// declared.
    pub fn must_col(&self, table: &str, name: &str) -> ColId {
        self.col_of(self.must_table(table), name)
    }

    fn col_of(&self, table: TableId, name: &str) -> ColId {
        let def = &self.tables[table.0 as usize];
        def.col_id(name)
            .unwrap_or_else(|| panic!("column '{}.{name}' is not in the schema", def.name))
    }

    /// Builds a full-width row from `(column, value)` pairs; unnamed
    /// columns are [`Value::Null`].
    pub fn row(&self, table: TableId, cols: &[(ColId, Value)]) -> Vec<Value> {
        let width = self.tables[table.0 as usize].width();
        let mut row = vec![Value::Null; width];
        for (col, v) in cols {
            row[col.0 as usize] = v.clone();
        }
        row
    }

    // ------------------------------------------------------------------
    // Name-keyed statement builders (preparation-time convenience: these
    // do the string lookups so the execution path never has to).
    // ------------------------------------------------------------------

    /// Prepares a `CREATE TABLE`.
    pub fn create_table(&self, table: &str) -> Statement {
        Statement::CreateTable {
            table: self.must_table(table),
        }
    }

    /// Prepares an `INSERT` from `(column, value)` pairs.
    pub fn insert(&self, table: &str, cols: &[(&str, Value)]) -> Statement {
        let t = self.must_table(table);
        let pairs: Vec<(ColId, Value)> = cols
            .iter()
            .map(|(c, v)| (self.col_of(t, c), v.clone()))
            .collect();
        Statement::Insert {
            table: t,
            row: self.row(t, &pairs),
        }
    }

    /// Prepares an `UPDATE` of `(column, value)` pairs.
    pub fn update(&self, table: &str, key: u64, cols: &[(&str, Value)]) -> Statement {
        let t = self.must_table(table);
        Statement::Update {
            table: t,
            key,
            set: cols
                .iter()
                .map(|(c, v)| (self.col_of(t, c), v.clone()))
                .collect(),
        }
    }

    /// Prepares a `DELETE` by primary key.
    pub fn delete(&self, table: &str, key: u64) -> Statement {
        Statement::Delete {
            table: self.must_table(table),
            key,
        }
    }

    /// Prepares a primary-key select.
    pub fn select_by_key(&self, table: &str, key: u64) -> Statement {
        Statement::SelectByKey {
            table: self.must_table(table),
            key,
        }
    }

    /// Prepares an equality-filter select.
    pub fn select_where(&self, table: &str, column: &str, value: Value, limit: usize) -> Statement {
        let t = self.must_table(table);
        Statement::SelectWhere {
            table: t,
            column: self.col_of(t, column),
            value,
            limit,
        }
    }

    /// Prepares a `COUNT(*)`.
    pub fn count(&self, table: &str) -> Statement {
        Statement::Count {
            table: self.must_table(table),
        }
    }
}

/// Declares tables, columns and secondary indexes, then builds the
/// immutable [`Schema`].
#[derive(Debug)]
pub struct SchemaBuilder {
    tables: Vec<TableDef>,
}

impl SchemaBuilder {
    /// Declares a table with its columns (layout order).
    pub fn table(mut self, name: &str, columns: &[&str]) -> Self {
        assert!(
            !self.tables.iter().any(|t| t.name == name),
            "duplicate table '{name}'"
        );
        let columns: Vec<String> = columns.iter().map(|c| (*c).to_owned()).collect();
        let mut sorted_cols: Vec<u16> = (0..columns.len() as u16).collect();
        sorted_cols.sort_by(|&a, &b| columns[a as usize].cmp(&columns[b as usize]));
        self.tables.push(TableDef {
            name: name.to_owned(),
            columns,
            sorted_cols,
            indexed: Vec::new(),
        });
        self
    }

    /// Declares a secondary hash index on an equality-filter column.
    pub fn index(mut self, table: &str, column: &str) -> Self {
        let t = self
            .tables
            .iter_mut()
            .find(|t| t.name == table)
            .unwrap_or_else(|| panic!("index on undeclared table '{table}'"));
        let col = t
            .col_id(column)
            .unwrap_or_else(|| panic!("index on undeclared column '{table}.{column}'"));
        if !t.indexed.contains(&col) {
            t.indexed.push(col);
        }
        self
    }

    /// Finalizes the catalog.
    pub fn build(self) -> Arc<Schema> {
        let mut sorted_tables: Vec<u16> = (0..self.tables.len() as u16).collect();
        sorted_tables.sort_by(|&a, &b| {
            self.tables[a as usize]
                .name
                .cmp(&self.tables[b as usize].name)
        });
        Arc::new(Schema {
            tables: self.tables,
            sorted_tables,
        })
    }
}

/// The statements the engine executes, fully interned: table and column
/// references are dense ids resolved at preparation time.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Creates an empty table (idempotent).
    CreateTable {
        /// Table id.
        table: TableId,
    },
    /// Inserts a row; the engine assigns the primary key. The row is
    /// full-width (one value per declared column, `Null` for absent).
    Insert {
        /// Target table.
        table: TableId,
        /// Column values in layout order.
        row: Vec<Value>,
    },
    /// Updates columns of the row with primary key `key`.
    Update {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
        /// Columns to overwrite (`Null` unsets a column).
        set: Vec<(ColId, Value)>,
    },
    /// Deletes the row with primary key `key`.
    Delete {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// Reads one row by primary key.
    SelectByKey {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// Reads all rows whose `column` equals `value` (index lookup when
    /// the column is indexed, key-ordered scan otherwise).
    SelectWhere {
        /// Target table.
        table: TableId,
        /// Filter column.
        column: ColId,
        /// Filter value.
        value: Value,
        /// Max rows returned.
        limit: usize,
    },
    /// Counts rows in a table.
    Count {
        /// Target table.
        table: TableId,
    },
}

impl Statement {
    /// True for statements that modify state — exactly the set the C-JDBC
    /// recovery log must record ("all write requests are logged and
    /// indexed as strings in this recovery log", §4.1).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Statement::CreateTable { .. }
                | Statement::Insert { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
        )
    }

    /// The table the statement touches.
    pub fn table(&self) -> TableId {
        match self {
            Statement::CreateTable { table }
            | Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. }
            | Statement::SelectByKey { table, .. }
            | Statement::SelectWhere { table, .. }
            | Statement::Count { table } => *table,
        }
    }

    /// Renders the statement roughly as SQL text (the recovery log's
    /// "indexed as strings" representation, and handy in traces). Columns
    /// appear in name-sorted order with `Null`s omitted, matching the
    /// name-keyed engine this one replaced byte for byte.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        self.render_into(schema, &mut out);
        out
    }

    fn render_into(&self, schema: &Schema, out: &mut String) {
        // Writing into a String is infallible; errors are impossible.
        let _ = self.try_render(schema, out);
    }

    fn try_render(&self, schema: &Schema, out: &mut String) -> fmt::Result {
        match self {
            Statement::CreateTable { table } => {
                write!(out, "CREATE TABLE {}", schema.table_name(*table))
            }
            Statement::Insert { table, row } => {
                write!(out, "INSERT INTO {} SET ", schema.table_name(*table))?;
                let mut first = true;
                if let Some(def) = schema.table(*table) {
                    for &ci in def.sorted_cols() {
                        let v = &row[ci as usize];
                        if v.is_null() {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        write!(out, "{}={v}", def.column(ColId(ci)))?;
                    }
                }
                Ok(())
            }
            Statement::Update { table, key, set } => {
                write!(out, "UPDATE {} SET ", schema.table_name(*table))?;
                let mut first = true;
                if let Some(def) = schema.table(*table) {
                    for &ci in def.sorted_cols() {
                        let Some((_, v)) = set.iter().find(|(c, _)| c.0 == ci) else {
                            continue;
                        };
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        write!(out, "{}={v}", def.column(ColId(ci)))?;
                    }
                }
                write!(out, " WHERE id={key}")
            }
            Statement::Delete { table, key } => {
                write!(
                    out,
                    "DELETE FROM {} WHERE id={key}",
                    schema.table_name(*table)
                )
            }
            Statement::SelectByKey { table, key } => {
                write!(
                    out,
                    "SELECT * FROM {} WHERE id={key}",
                    schema.table_name(*table)
                )
            }
            Statement::SelectWhere {
                table,
                column,
                value,
                limit,
            } => {
                let col = schema.table(*table).map_or("?", |def| def.column(*column));
                write!(
                    out,
                    "SELECT * FROM {} WHERE {col}={value} LIMIT {limit}",
                    schema.table_name(*table)
                )
            }
            Statement::Count { table } => {
                write!(out, "SELECT COUNT(*) FROM {}", schema.table_name(*table))
            }
        }
    }
}

/// Result of executing a statement. Row contents are `Arc`-shared with
/// the table — a select clones reference counts, never row data.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// DDL / write acknowledgement; for inserts carries the assigned key.
    Ack {
        /// Primary key assigned by an insert, when applicable.
        inserted_key: Option<u64>,
        /// Number of rows affected.
        affected: u64,
    },
    /// Rows returned by a select, as `(key, row)` pairs.
    Rows(Vec<(u64, SharedRow)>),
    /// Count result.
    Count(u64),
}

impl QueryResult {
    /// Number of rows carried (selects) or affected (writes).
    pub fn cardinality(&self) -> u64 {
        match self {
            QueryResult::Ack { affected, .. } => *affected,
            QueryResult::Rows(rows) => rows.len() as u64,
            QueryResult::Count(n) => *n,
        }
    }
}

/// What the opcode executor reports for one step: cardinalities only,
/// no row bodies (the allocation-free counterpart of [`QueryResult`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecSummary {
    /// DDL / write acknowledgement.
    Ack {
        /// Primary key assigned by an insert, when applicable.
        inserted_key: Option<u64>,
        /// Number of rows affected.
        affected: u64,
    },
    /// A read completed; this many rows matched.
    Rows(usize),
    /// Count result.
    Count(u64),
}

impl ExecSummary {
    /// Number of rows carried (selects) or affected (writes).
    pub fn cardinality(&self) -> u64 {
        match self {
            ExecSummary::Ack { affected, .. } => *affected,
            ExecSummary::Rows(n) => *n as u64,
            ExecSummary::Count(n) => *n,
        }
    }
}

/// Errors from the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Statement referenced a missing table.
    NoSuchTable(String),
    /// An insert would assign a row key past the 32-bit space that index
    /// postings store.
    KeySpaceExhausted(u64),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::KeySpaceExhausted(key) => {
                write!(f, "row key {key} is past the 32-bit key space")
            }
        }
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .table("items", &["name", "seller", "category", "price"])
            .table("t", &["a"])
            .index("items", "seller")
            .build()
    }

    #[test]
    fn write_classification() {
        let s = schema();
        assert!(s.create_table("t").is_write());
        assert!(s.insert("t", &[]).is_write());
        assert!(!s.count("t").is_write());
        assert!(!s.select_by_key("t", 1).is_write());
    }

    #[test]
    fn render_is_sql_like() {
        let schema = schema();
        let s = schema.update("items", 9, &[("price", Value::Int(42))]);
        assert_eq!(s.render(&schema), "UPDATE items SET price=42 WHERE id=9");
        let q = schema.select_where("items", "seller", "bob".into(), 10);
        assert_eq!(
            q.render(&schema),
            "SELECT * FROM items WHERE seller='bob' LIMIT 10"
        );
    }

    #[test]
    fn render_sorts_columns_by_name_and_skips_nulls() {
        let schema = schema();
        // Layout order is name/seller/category/price; render order is the
        // historical BTreeMap (name-sorted) order with Nulls omitted.
        let s = schema.insert(
            "items",
            &[
                ("price", Value::Int(5)),
                ("category", Value::Int(2)),
                ("name", Value::Text("x".into())),
            ],
        );
        assert_eq!(
            s.render(&schema),
            "INSERT INTO items SET category=2, name='x', price=5"
        );
    }

    #[test]
    fn interning_resolves_names_once() {
        let schema = schema();
        let t = schema.table_id("items").unwrap();
        let def = schema.table(t).unwrap();
        assert_eq!(def.width(), 4);
        assert_eq!(def.col_id("seller"), Some(ColId(1)));
        assert_eq!(def.indexed(), &[ColId(1)]);
        assert_eq!(schema.table_id("nope"), None);
        match schema.select_where("items", "category", Value::Int(1), 5) {
            Statement::SelectWhere { table, column, .. } => {
                assert_eq!(table, t);
                assert_eq!(column, ColId(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
