//! The oracle of `tests/storage_prop.rs` and `tests/plan_prop.rs`:
//! [`NaiveDatabase`] is the original name-keyed storage engine. Tables are
//! a `BTreeMap<String, _>`, rows are `BTreeMap<String, Value>` column
//! maps, every statement re-resolves its table and column names, and
//! `SelectWhere` is a full scan. `jade_tiers::Database` replaced it with
//! the interned, index-accelerated engine; the storage suite checks result
//! and digest parity against this copy, and the plan suite holds the
//! opcode executor to it.

// Each suite that includes this file calls only part of the oracle.
#![allow(dead_code)]

use jade_tiers::sql::{ColId, Schema, SqlError, Statement, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A name-keyed row: column name → value (absent columns are NULL).
pub type NaiveRow = BTreeMap<String, Value>;

/// Result of a [`NaiveDatabase`] statement.
#[derive(Debug, Clone, PartialEq)]
pub enum NaiveQueryResult {
    /// DDL / write acknowledgement; for inserts carries the assigned key.
    Ack {
        /// Primary key assigned by an insert, when applicable.
        inserted_key: Option<u64>,
        /// Number of rows affected.
        affected: u64,
    },
    /// Rows returned by a select, as `(key, row)` pairs (deep-cloned).
    Rows(Vec<(u64, NaiveRow)>),
    /// Count result.
    Count(u64),
}

#[derive(Debug, Clone, Default)]
struct NaiveTable {
    rows: BTreeMap<u64, NaiveRow>,
    next_key: u64,
}

/// The original name-keyed, scan-everything storage engine.
///
/// Statements arrive interned (the shared `Statement` type), but every
/// execution resolves the table and column ids back to names through the
/// schema and then looks them up in string-keyed maps — reproducing the
/// per-request hashing and allocation the replaced engine paid. NULLs are
/// never stored: an insert skips them and an update-to-NULL removes the
/// column, which is what makes [`NaiveDatabase::digest`] agree with the
/// interned engine's.
#[derive(Debug, Clone, Default)]
pub struct NaiveDatabase {
    tables: BTreeMap<String, NaiveTable>,
}

impl NaiveDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        NaiveDatabase::default()
    }

    /// Executes one statement, resolving every identifier by name. The
    /// table is looked up first, so a table id outside the catalog is a
    /// `NoSuchTable` like any other missing table.
    pub fn execute(
        &mut self,
        schema: &Schema,
        stmt: &Statement,
    ) -> Result<NaiveQueryResult, SqlError> {
        let name = schema.table_name(stmt.table());
        match stmt {
            Statement::CreateTable { .. } => {
                self.tables.entry(name.to_owned()).or_default();
                Ok(NaiveQueryResult::Ack {
                    inserted_key: None,
                    affected: 0,
                })
            }
            Statement::Insert { table, row } => {
                let t = self
                    .tables
                    .get_mut(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.to_owned()))?;
                let def = schema.table(*table).expect("table in catalog");
                let key = t.next_key;
                t.next_key += 1;
                let mut cols = NaiveRow::new();
                for (ci, v) in row.iter().enumerate() {
                    if !v.is_null() {
                        cols.insert(def.column(ColId(ci as u16)).to_owned(), v.clone());
                    }
                }
                t.rows.insert(key, cols);
                Ok(NaiveQueryResult::Ack {
                    inserted_key: Some(key),
                    affected: 1,
                })
            }
            Statement::Update { table, key, set } => {
                let t = self
                    .tables
                    .get_mut(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.to_owned()))?;
                let def = schema.table(*table).expect("table in catalog");
                let affected = match t.rows.get_mut(key) {
                    Some(row) => {
                        for (col, v) in set {
                            let col_name = def.column(*col);
                            if v.is_null() {
                                row.remove(col_name);
                            } else {
                                row.insert(col_name.to_owned(), v.clone());
                            }
                        }
                        1
                    }
                    None => 0,
                };
                Ok(NaiveQueryResult::Ack {
                    inserted_key: None,
                    affected,
                })
            }
            Statement::Delete { key, .. } => {
                let t = self
                    .tables
                    .get_mut(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.to_owned()))?;
                let affected = u64::from(t.rows.remove(key).is_some());
                Ok(NaiveQueryResult::Ack {
                    inserted_key: None,
                    affected,
                })
            }
            Statement::SelectByKey { key, .. } => {
                let t = self
                    .tables
                    .get(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.to_owned()))?;
                Ok(NaiveQueryResult::Rows(
                    t.rows
                        .get(key)
                        .map(|r| (*key, r.clone()))
                        .into_iter()
                        .collect(),
                ))
            }
            Statement::SelectWhere {
                table,
                column,
                value,
                limit,
            } => {
                let t = self
                    .tables
                    .get(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.to_owned()))?;
                let def = schema.table(*table).expect("table in catalog");
                let col_name = def.column(*column);
                if value.is_null() {
                    return Ok(NaiveQueryResult::Rows(Vec::new()));
                }
                Ok(NaiveQueryResult::Rows(
                    t.rows
                        .iter()
                        .filter(|(_, r)| r.get(col_name) == Some(value))
                        .take(*limit)
                        .map(|(k, r)| (*k, r.clone()))
                        .collect(),
                ))
            }
            Statement::Count { .. } => {
                let t = self
                    .tables
                    .get(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.to_owned()))?;
                Ok(NaiveQueryResult::Count(t.rows.len() as u64))
            }
        }
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }

    /// Content digest — the algorithm `jade_tiers::Database::digest`
    /// reproduces byte for byte.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (name, t) in &self.tables {
            name.hash(&mut h);
            t.next_key.hash(&mut h);
            for (key, row) in &t.rows {
                key.hash(&mut h);
                for (col, v) in row {
                    match v {
                        Value::Null => {}
                        Value::Int(i) => {
                            col.hash(&mut h);
                            i.hash(&mut h);
                        }
                        Value::Text(s) => {
                            col.hash(&mut h);
                            s.hash(&mut h);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}
