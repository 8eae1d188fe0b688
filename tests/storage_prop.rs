//! Differential property test: the interned, index-accelerated storage
//! engine (`jade_tiers::Database`) against the original name-keyed
//! scan-everything engine it replaced (kept in
//! `tests/support/naive_database.rs`).
//!
//! Random schemas (some columns indexed, some not) are driven through
//! random create / insert / update / delete / select / count sequences,
//! including NULL values in inserts, update-to-NULL (column removal) and
//! NULL equality filters. After *every* statement the two engines must
//! agree on
//!
//! * the result — rows converted to the naive column-map form, NULLs
//!   elided — and on which statements error,
//! * the content digest (the interned engine reproduces the historical
//!   digest byte for byte, so this is exact equality, not isomorphism).
//!
//! A second property replays the C-JDBC recovery log into a late-joining
//! replica and requires convergence to the active replicas' digest — the
//! paper's §4.1 state-reconciliation invariant, now across both engines.
//!
//! Reproduce a failure with `PROPCHECK_SEED` / `PROPCHECK_CASES` as
//! printed by the harness.

#[path = "support/naive_database.rs"]
mod naive_database;

use jade_propcheck::{run, Gen};
use jade_tiers::cjdbc::{CjdbcController, ReadPolicy};
use jade_tiers::sql::{ColId, QueryResult, Schema, Statement, TableId, Value};
use jade_tiers::storage::Database;
use jade_tiers::ServerId;
use naive_database::{NaiveDatabase, NaiveQueryResult, NaiveRow};
use std::sync::Arc;

const TABLE_NAMES: &[&str] = &["t0", "t1", "t2"];
const COL_NAMES: &[&str] = &["c0", "c1", "c2", "c3"];
const MAX_KEY: u64 = 32;

/// A random schema: 1–3 tables, 1–4 columns each, roughly half of the
/// columns carrying a secondary index.
fn gen_schema(g: &mut Gen) -> Arc<Schema> {
    let tables = g.usize(1..4);
    let mut b = Schema::builder();
    let mut indexed = Vec::new();
    for t in TABLE_NAMES.iter().take(tables) {
        let cols = g.usize(1..5);
        b = b.table(t, &COL_NAMES[..cols]);
        for c in COL_NAMES.iter().take(cols) {
            if g.bool() {
                indexed.push((*t, *c));
            }
        }
    }
    for (t, c) in indexed {
        b = b.index(t, c);
    }
    b.build()
}

fn gen_value(g: &mut Gen) -> Value {
    match g.weighted(&[2, 5, 2]) {
        0 => Value::Null,
        // A small value domain so equality filters and no-op updates hit.
        1 => Value::Int(g.u64(0..6) as i64),
        _ => Value::Text(g.choose(&["x", "y", "zz"]).to_string()),
    }
}

/// One random statement against `schema`. Tables are drawn from the full
/// name pool, so statements against never-created tables exercise the
/// error path of both engines.
fn gen_statement(g: &mut Gen, schema: &Schema) -> Statement {
    let table = TableId(g.u64(0..schema.len() as u64) as u16);
    let def = schema.table(table).expect("in range");
    let width = def.width();
    match g.weighted(&[2, 6, 4, 2, 5, 5, 2]) {
        0 => Statement::CreateTable { table },
        1 => {
            let row = (0..width).map(|_| gen_value(g)).collect();
            Statement::Insert { table, row }
        }
        2 => {
            let set = (0..g.usize(1..width + 1))
                .map(|_| (ColId(g.u64(0..width as u64) as u16), gen_value(g)))
                .collect();
            Statement::Update {
                table,
                key: g.u64(0..MAX_KEY),
                set,
            }
        }
        3 => Statement::Delete {
            table,
            key: g.u64(0..MAX_KEY),
        },
        4 => Statement::SelectByKey {
            table,
            key: g.u64(0..MAX_KEY),
        },
        5 => Statement::SelectWhere {
            table,
            column: ColId(g.u64(0..width as u64) as u16),
            value: gen_value(g),
            limit: g.usize(1..8),
        },
        _ => Statement::Count { table },
    }
}

/// Converts an interned result into the naive engine's shape: rows become
/// name-keyed column maps with NULL holes elided.
fn naive_shape(schema: &Schema, stmt: &Statement, res: &QueryResult) -> NaiveQueryResult {
    match res {
        QueryResult::Ack {
            inserted_key,
            affected,
        } => NaiveQueryResult::Ack {
            inserted_key: *inserted_key,
            affected: *affected,
        },
        QueryResult::Count(n) => NaiveQueryResult::Count(*n),
        QueryResult::Rows(rows) => {
            let def = schema.table(stmt.table()).expect("in catalog");
            NaiveQueryResult::Rows(
                rows.iter()
                    .map(|(k, row)| {
                        let mut cols = NaiveRow::new();
                        for (ci, v) in row.iter().enumerate() {
                            if !v.is_null() {
                                cols.insert(def.column(ColId(ci as u16)).to_owned(), v.clone());
                            }
                        }
                        (*k, cols)
                    })
                    .collect(),
            )
        }
    }
}

/// Both engines agree on every result, every error, and the digest after
/// every single statement.
#[test]
fn interned_engine_matches_naive_reference() {
    run("interned_engine_matches_naive_reference", 256, |g| {
        let schema = gen_schema(g);
        let stmts = g.vec(1..80, |g| gen_statement(g, &schema));
        let mut interned = Database::new(Arc::clone(&schema));
        let mut naive = NaiveDatabase::new();
        for (step, stmt) in stmts.iter().enumerate() {
            let a = interned.execute(stmt);
            let b = naive.execute(&schema, stmt);
            match (&a, &b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        &naive_shape(&schema, stmt, ra),
                        rb,
                        "result mismatch at step {step} on {stmt:?}"
                    );
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "error mismatch at step {step} on {stmt:?}")
                }
                _ => panic!("outcome mismatch at step {step} on {stmt:?}: {a:?} vs {b:?}"),
            }
            assert_eq!(
                interned.digest(),
                naive.digest(),
                "digest diverged at step {step} after {stmt:?}"
            );
        }
    });
}

/// Recovery-log replay converges a late joiner on both engines: writes go
/// through the controller to one active replica of each kind; a second
/// pair of replicas then joins by replaying the logged statements, and all
/// four digests must be equal.
#[test]
fn recovery_replay_converges_on_both_engines() {
    run("recovery_replay_converges_on_both_engines", 128, |g| {
        let schema = gen_schema(g);
        let writes: Vec<Statement> = {
            // Only writes reach the log; creates come first so most
            // statements land in existing tables.
            let mut out: Vec<Statement> = (0..schema.len())
                .map(|t| Statement::CreateTable {
                    table: TableId(t as u16),
                })
                .collect();
            out.extend(
                g.vec(1..60, |g| gen_statement(g, &schema))
                    .into_iter()
                    .filter(|s| s.is_write()),
            );
            out
        };

        let mut ctrl = CjdbcController::new(ReadPolicy::RoundRobin, Arc::clone(&schema));
        let active = ServerId(0);
        ctrl.register_backend(active);
        assert!(ctrl.begin_enable(active).unwrap().is_empty());
        assert!(ctrl.finish_replay(active).unwrap().is_none());

        let mut interned = Database::new(Arc::clone(&schema));
        let mut naive = NaiveDatabase::new();
        for stmt in &writes {
            let stmt = Arc::new(stmt.clone());
            ctrl.route_write_into(Arc::clone(&stmt), None, &mut Vec::new())
                .unwrap();
            let _ = interned.execute(&stmt);
            let _ = naive.execute(&schema, &stmt);
        }

        // A fresh pair of replicas joins by replaying the exact log suffix.
        let joiner = ServerId(1);
        ctrl.register_backend(joiner);
        let mut late_interned = Database::new(Arc::clone(&schema));
        let mut late_naive = NaiveDatabase::new();
        let mut batch = ctrl.begin_enable(joiner).unwrap();
        loop {
            for entry in &batch.entries {
                let _ = late_interned.execute(&entry.statement);
                let _ = late_naive.execute(&schema, &entry.statement);
            }
            match ctrl.finish_replay(joiner).unwrap() {
                Some(next) => batch = next,
                None => break,
            }
        }

        let d = interned.digest();
        assert_eq!(d, naive.digest(), "engines diverged on the write stream");
        assert_eq!(d, late_interned.digest(), "interned joiner diverged");
        assert_eq!(d, late_naive.digest(), "naive joiner diverged");
    });
}
