//! The MySQL storage engine: fixed-layout keyed rows behind an opcode
//! executor ([`crate::plan`]) and a cold [`Statement`] front-end
//! ([`crate::sql`]).
//!
//! Each database replica holds "a full copy of the whole database (full
//! mirroring)" (paper §4.1), so the engine exposes a content digest used
//! by the consistency tests to prove that a late-joining replica converges
//! to the same state after recovery-log replay.
//!
//! Entry points — a request's SQL is a compiled program, and each kind of
//! work has exactly one way in:
//!
//! * reads: [`Database::read_step_summary`], a count-only probe (the
//!   workload observes cardinalities, never row bodies);
//! * writes on the RAIDb-1 primary: [`Database::execute_step_capture`],
//!   which executes the step once and emits a [`WriteDelta`] — the
//!   physical effect with its row image `Arc`-shared;
//! * writes on every other replica and on a joining one:
//!   [`Database::apply_delta`], which installs that effect without
//!   re-evaluating anything, so the whole cluster performs one row
//!   allocation per write;
//! * everything cold — DDL, dataset load, re-execution of a write that
//!   was logged without a delta, tests: [`Database::execute`] /
//!   [`Database::execute_capture`] over a [`Statement`].
//!
//! All three write entry points only resolve their operands; the mutation
//! itself lives once per operation in the private `insert_row`,
//! `update_row` and `delete_row`.
//!
//! Storage shape:
//!
//! * table and column references are direct indices — no name hashing or
//!   lookup per request;
//! * rows are dense: keys are assigned monotonically and never reused, so
//!   a table is chunked `Option<SharedRow>` slots indexed by key — a key
//!   read is one bounds check;
//! * equality-filter columns declared in the [`crate::sql::Schema`] carry
//!   secondary hash indexes with key-sorted postings, making a filtered
//!   read O(matches) with a key-ordered, limit-truncated result. Every
//!   replica holds every index, so postings are compact: integer values
//!   key their own map, a one-row posting holds its `u32` key inline, and
//!   only a value's second row allocates a key list;
//! * `Count` reads a maintained live-row counter;
//! * results share rows by `Arc` — no row contents are cloned; updates
//!   copy-on-write only when a result or replica still holds the row;
//! * tables are themselves `Arc`'d copy-on-write: [`Database::snapshot`]
//!   is an O(#tables) checkpoint and [`Database::from_snapshot`] an
//!   O(#tables) restore. The first write to a shared table copies its
//!   row-chunk pointers and only the index postings changed since the
//!   share (each index is a shared base plus this table's own postings),
//!   so a joiner's sync and its crash cost what its delta tail touched.
//!
//! [`Database::digest`] hashes tables in name order, columns in name
//! order, `Null`s skipped — the same bytes as the name-keyed reference
//! model `NaiveDatabase` (`tests/support/naive_database.rs`), which lets
//! `tests/storage_prop.rs` and `tests/plan_prop.rs` compare digests
//! across the two.

use crate::plan::{PlanStep, StepOp};
use crate::sql::{
    ColId, ExecSummary, QueryResult, Schema, SharedRow, SqlError, Statement, TableId, Value,
};
use jade_sim::{id_u16, DetHashMap};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The keys of the rows holding one indexed value, ascending. Many values
/// index a single row, so one key is held inline; a second key moves the
/// posting to a sorted list behind an `Arc`, which a copy of the map
/// shares by pointer. Keys are `u32` ([`posting_row_key`]). `Empty` is an
/// `own` tombstone; a `Many` always holds at least two keys.
#[derive(Debug, Clone, Default, PartialEq)]
enum Posting {
    #[default]
    Empty,
    One(u32),
    Many(Arc<Vec<u32>>),
}

impl Posting {
    fn row_keys(&self) -> &[u32] {
        match self {
            Posting::Empty => &[],
            Posting::One(key) => std::slice::from_ref(key),
            Posting::Many(keys) => keys,
        }
    }

    fn is_tombstone(&self) -> bool {
        matches!(self, Posting::Empty)
    }

    /// Adds `key`, keeping the keys sorted (an inserted row has the
    /// largest key yet, but an updated one can land below the maximum).
    // jade-audit: allow(hot-alloc): a value's second row is the one
    // place its posting allocates (the key list and its `Arc`, once per
    // value); capacity 4 is what `push` would pick.
    fn add_row_key(&mut self, key: u32) {
        match self {
            Posting::Empty => *self = Posting::One(key),
            Posting::One(held) => {
                if *held != key {
                    let mut keys = Vec::with_capacity(4);
                    keys.extend([key.min(*held), key.max(*held)]);
                    *self = Posting::Many(Arc::new(keys));
                }
            }
            Posting::Many(keys) => {
                if let Err(pos) = keys.binary_search(&key) {
                    Arc::make_mut(keys).insert(pos, key);
                }
            }
        }
    }

    /// Removes `key` if present; a `Many` left with one key goes back to
    /// `One`.
    fn remove_row_key(&mut self, key: u32) {
        match self {
            Posting::Empty => {}
            Posting::One(held) => {
                if *held == key {
                    *self = Posting::Empty;
                }
            }
            Posting::Many(keys) => {
                let Ok(pos) = keys.binary_search(&key) else {
                    return;
                };
                if let &[first, second] = keys.as_slice() {
                    *self = Posting::One(if pos == 0 { second } else { first });
                } else {
                    Arc::make_mut(keys).remove(pos);
                }
            }
        }
    }
}

/// The 4-byte form of row key `key` that postings store. Table keys are
/// dense per-table counters, so only a table's 2^32nd insert gets here;
/// it fails rather than alias an earlier row.
fn posting_row_key(key: u64) -> Result<u32, SqlError> {
    u32::try_from(key).map_err(|_| SqlError::KeySpaceExhausted(key))
}

/// Filter value → [`Posting`]. Uses the workspace-wide deterministic fx
/// hasher ([`jade_sim::det`]) — no per-process random state, a few ns per
/// value instead of SipHash's tens.
type PostingMap<K> = DetHashMap<K, Posting>;

/// A [`PostingLayer`]'s `own` postings fold into its `base` once they
/// number more than `1 / OWN_FOLD` of it: one copy of a shared base per
/// that many changed values.
const OWN_FOLD: usize = 4;

/// The postings of one value type, copy-on-write per posting — a shared
/// checkpoint plus a tail, like the recovery log. `base` is shared with
/// snapshots, the replicas restored from them and the dataset image;
/// `own` holds the postings this table changed while `base` was shared
/// (an `Empty` one is a tombstone). A lookup checks `own`, then `base`; a
/// sole owner of `base` writes straight into it. Unsharing a table thus
/// copies `own`, not the index, and dropping a replica frees only `own`.
#[derive(Debug, Clone, Default)]
struct PostingLayer<K> {
    base: Arc<PostingMap<K>>,
    own: PostingMap<K>,
}

impl<K: Hash + Eq + Clone> PostingLayer<K> {
    /// The keys of the rows holding `value` (empty when none does).
    fn keys_of(&self, value: &K) -> &[u32] {
        let posting = self.own.get(value).or_else(|| self.base.get(value));
        posting.map_or(&[], |p| p.row_keys())
    }

    /// Applies `edit` to the posting of `value` (created empty when
    /// absent), unsharing only that posting.
    fn edit_keys(&mut self, value: &K, edit: impl FnOnce(&mut Posting)) {
        if let Some(base) = Arc::get_mut(&mut self.base) {
            if !self.own.is_empty() {
                fold_postings(base, &mut self.own);
            }
            let posting = base.entry(value.clone()).or_default();
            edit(posting);
            if posting.is_tombstone() {
                base.remove(value);
            }
            return;
        }
        let base = &self.base;
        let seed = || base.get(value).cloned().unwrap_or_default();
        edit(self.own.entry(value.clone()).or_insert_with(seed));
        if self.own.len() * OWN_FOLD > self.base.len() {
            fold_postings(Arc::make_mut(&mut self.base), &mut self.own);
        }
    }
}

/// Equal when every value has the same posting on both sides, however
/// each side splits its postings between `base` and `own`.
impl<K: Hash + Eq + Clone> PartialEq for PostingLayer<K> {
    fn eq(&self, other: &Self) -> bool {
        let covered_by = |a: &Self, b: &Self| {
            let same = |v: &K| a.keys_of(v) == b.keys_of(v);
            a.own.keys().all(same) && a.base.keys().all(same)
        };
        covered_by(self, other) && covered_by(other, self)
    }
}

/// Moves every posting of `own` into `base`, dropping tombstoned values.
/// The visit order cannot matter: each value is inserted or removed once.
fn fold_postings<K: Hash + Eq>(base: &mut PostingMap<K>, own: &mut PostingMap<K>) {
    for (value, posting) in std::mem::take(own) {
        if posting.is_tombstone() {
            base.remove(&value);
        } else {
            base.insert(value, posting);
        }
    }
}

/// One secondary index: integer values key one [`PostingLayer`] (24-byte
/// entries), text values a second, and `Null` is never indexed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Index {
    ints: PostingLayer<i64>,
    texts: PostingLayer<String>,
}

impl Index {
    /// The keys of the rows holding `value` (empty when none does).
    fn posting(&self, value: &Value) -> &[u32] {
        match value {
            Value::Int(i) => self.ints.keys_of(i),
            Value::Text(s) => self.texts.keys_of(s),
            Value::Null => &[],
        }
    }

    /// Applies `edit` to the posting of `value`; a `Null` has none.
    fn edit_posting(&mut self, value: &Value, edit: impl FnOnce(&mut Posting)) {
        match value {
            Value::Int(i) => self.ints.edit_keys(i, edit),
            Value::Text(s) => self.texts.edit_keys(s, edit),
            Value::Null => {}
        }
    }
}

/// Rows per [`RowStore`] chunk. Small enough that unsharing one chunk
/// after a snapshot is cheap, large enough that the per-chunk `Arc`
/// overhead stays invisible next to the row allocations themselves.
const ROW_CHUNK: usize = 256;

/// Dense primary-key row storage in fixed-size `Arc`'d chunks.
///
/// Slot `k` holds the row with key `k`; deleted rows leave a hole (keys
/// are never reused, so the total slot count is the next key). Chunking
/// makes the store copy-on-write at chunk granularity: cloning it (the
/// first write to a table after [`Database::snapshot`]) copies
/// O(#chunks) pointers, and only chunks actually written afterwards are
/// deep-copied. A replica catching up from a checkpoint therefore copies
/// one pointer per chunk plus the chunks its delta tail writes.
#[derive(Debug, Clone, Default, PartialEq)]
struct RowStore {
    chunks: Vec<Arc<Vec<Option<SharedRow>>>>,
    /// Total slots across all chunks (== the next key).
    slots: usize,
}

impl RowStore {
    /// Appends a row at the next key.
    fn push(&mut self, row: SharedRow) {
        if self.slots.is_multiple_of(ROW_CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(ROW_CHUNK)));
        }
        let chunk = self.chunks.last_mut().expect("chunk just ensured");
        Arc::make_mut(chunk).push(Some(row));
        self.slots += 1;
    }

    /// The row at `key`, if present.
    fn get(&self, key: u64) -> Option<&SharedRow> {
        let k = key as usize;
        if k >= self.slots {
            return None;
        }
        self.chunks[k / ROW_CHUNK][k % ROW_CHUNK].as_ref()
    }

    /// Removes and returns the row at `key`. Checks occupancy through a
    /// shared reference first so a miss never unshares the chunk.
    // jade-audit: allow(hot-panic): chunk index k / ROW_CHUNK is in
    // bounds because the guard on the previous line rejects k >= slots,
    // and slots never exceeds chunks.len() * ROW_CHUNK.
    fn take(&mut self, key: u64) -> Option<SharedRow> {
        let k = key as usize;
        if k >= self.slots || self.chunks[k / ROW_CHUNK][k % ROW_CHUNK].is_none() {
            return None;
        }
        Arc::make_mut(&mut self.chunks[k / ROW_CHUNK])[k % ROW_CHUNK].take()
    }

    /// Stores `row` at `key` (slot must already exist).
    fn set(&mut self, key: u64, row: SharedRow) {
        let k = key as usize;
        Arc::make_mut(&mut self.chunks[k / ROW_CHUNK])[k % ROW_CHUNK] = Some(row);
    }

    /// Iterates `(key, row)` pairs in key order.
    fn iter(&self) -> impl Iterator<Item = (u64, &SharedRow)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, r)| r.as_ref().map(|r| ((c * ROW_CHUNK + i) as u64, r)))
        })
    }
}

/// One table: dense rows indexed directly by primary key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    created: bool,
    rows: RowStore,
    live: usize,
    /// Parallel to the schema's column list; `Some` for indexed columns.
    indexes: Vec<Option<Index>>,
}

impl Table {
    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(key, row)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SharedRow)> {
        self.rows.iter()
    }

    fn next_key(&self) -> u64 {
        self.rows.slots as u64
    }

    fn index_insert(&mut self, col: ColId, value: &Value, key: u32) {
        if let Some(Some(idx)) = self.indexes.get_mut(col.0 as usize) {
            idx.edit_posting(value, |posting| posting.add_row_key(key));
        }
    }

    fn index_remove(&mut self, col: ColId, value: &Value, key: u32) {
        if let Some(Some(idx)) = self.indexes.get_mut(col.0 as usize) {
            idx.edit_posting(value, |posting| posting.remove_row_key(key));
        }
    }

    /// Moves `key`'s entry for `col` from the posting of `old` to the
    /// posting of `new`.
    fn index_move(&mut self, col: ColId, old: &Value, new: &Value, key: u32) {
        self.index_remove(col, old, key);
        self.index_insert(col, new, key);
    }
}

/// The acknowledgement every write front-end reports.
fn write_ack(inserted_key: Option<u64>, affected: u64) -> ExecSummary {
    ExecSummary::Ack {
        inserted_key,
        affected,
    }
}

/// The physical effect of one write, captured by the replica that executed
/// it ([`Database::execute_step_capture`]) and applied verbatim everywhere
/// else ([`Database::apply_delta`]). Row images are
/// [`SharedRow`]s: broadcasting a delta to N mirrored replicas shares one
/// allocation cluster-wide instead of re-constructing the row N times.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteDelta {
    /// `CREATE TABLE` (idempotent, like the statement).
    CreateTable {
        /// Table created.
        table: TableId,
    },
    /// A row was inserted at `key` (always the table's next dense key).
    Insert {
        /// Table inserted into.
        table: TableId,
        /// Key the primary assigned (deterministic per-table counter).
        key: u64,
        /// The inserted row image, shared with the primary's slot.
        row: SharedRow,
    },
    /// The row at `key` was replaced by `row`; `changed` lists the
    /// columns whose value actually changed (the index entries to move —
    /// old values are read from the applying replica's identical row).
    Update {
        /// Table updated.
        table: TableId,
        /// Key of the updated row.
        key: u64,
        /// The full post-update row image, shared with the primary.
        row: SharedRow,
        /// Columns whose value changed (no-op column sets are skipped).
        changed: Vec<ColId>,
    },
    /// The row at `key` was removed.
    Delete {
        /// Table deleted from.
        table: TableId,
        /// Key of the removed row.
        key: u64,
    },
    /// The write affected nothing (update/delete of a missing key).
    Noop,
}

/// A copy-on-write checkpoint of a database's full contents: cloning,
/// taking and restoring are all O(#tables) reference bumps. A restored
/// replica shares every table with the snapshot until a write touches it
/// (`Arc::make_mut` then copies that table's chunk pointers and its
/// indexes' own postings; the index bases stay shared).
#[derive(Debug, Clone)]
pub struct Snapshot {
    schema: Arc<Schema>,
    tables: Vec<Arc<Table>>,
}

/// An in-memory relational database over an interned [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    schema: Arc<Schema>,
    /// Parallel to `schema`'s table list. Each table is `Arc`'d so
    /// snapshots and base-image restores share structure; the write path
    /// pays one pointer check (`Arc::make_mut`) per statement and a
    /// shallow table copy only on the first write after a snapshot was
    /// taken.
    tables: Vec<Arc<Table>>,
}

impl Database {
    /// Creates an empty database over `schema` (tables exist in the
    /// catalog but are not *created* until a `CREATE TABLE` executes).
    pub fn new(schema: Arc<Schema>) -> Self {
        let tables = (0..schema.len())
            .map(|_| Arc::new(Table::default()))
            .collect();
        Database { schema, tables }
    }

    /// Takes a copy-on-write checkpoint of the current contents.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            schema: Arc::clone(&self.schema),
            tables: self.tables.clone(),
        }
    }

    /// Materializes a database from a checkpoint (O(#tables); table
    /// contents stay shared with the snapshot until written).
    pub fn from_snapshot(snap: &Snapshot) -> Database {
        Database {
            schema: Arc::clone(&snap.schema),
            tables: snap.tables.clone(),
        }
    }

    /// The schema this database executes against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    #[cold]
    fn no_such_table(&self, table: TableId) -> SqlError {
        SqlError::NoSuchTable(self.schema.table_name(table).to_owned())
    }

    fn table_ref(&self, id: TableId) -> Result<&Table, SqlError> {
        match self.tables.get(id.0 as usize) {
            Some(t) if t.created => Ok(t),
            _ => Err(self.no_such_table(id)),
        }
    }

    /// Mutable access to a created table (copy-on-write: copies the
    /// table's chunk pointers and own postings only when a snapshot or
    /// base image still shares it).
    // jade-audit: allow(hot-panic): every caller validates the TableId
    // through table_ref on the preceding line; ids come from compiled
    // plans resolved against this same catalog.
    fn table_mut(&mut self, id: TableId) -> &mut Table {
        Arc::make_mut(&mut self.tables[id.0 as usize])
    }

    /// Marks a catalog table created, building its secondary indexes
    /// (idempotent — shared by the statement and delta front-ends).
    #[cold]
    fn create_table(&mut self, table: TableId) -> Result<(), SqlError> {
        let (Some(def), Some(t)) = (
            self.schema.table(table),
            self.tables.get_mut(table.0 as usize),
        ) else {
            return Err(self.no_such_table(table));
        };
        let t = Arc::make_mut(t);
        if !t.created {
            t.created = true;
            t.indexes = vec![None; def.width()];
            for &col in def.indexed() {
                t.indexes[col.0 as usize] = Some(Index::default());
            }
        }
        Ok(())
    }

    /// Executes a statement, materializing a [`QueryResult`] (row contents
    /// stay `Arc`-shared with the table) — the cold front-end: DDL, dataset
    /// load, replay of a write logged without a delta, and tests. Reads
    /// materialize here; an insert goes straight to the insert mutator;
    /// other writes lower onto [`Database::execute_capture`] and drop the
    /// delta.
    ///
    /// Key assignment is deterministic (per-table counter), so executing
    /// the same statement sequence on two replicas yields identical
    /// databases — the invariant C-JDBC's full-mirroring replication
    /// depends on.
    pub fn execute(&mut self, stmt: &Statement) -> Result<QueryResult, SqlError> {
        match stmt {
            Statement::SelectByKey { table, key } => {
                let t = self.table_ref(*table)?;
                let row = t.rows.get(*key).map(|row| (*key, Arc::clone(row)));
                Ok(QueryResult::Rows(row.into_iter().collect()))
            }
            Statement::SelectWhere {
                table,
                column,
                value,
                limit,
            } => {
                let t = self.table_ref(*table)?;
                let mut out = Vec::new();
                // A NULL filter matches nothing (absent columns are not
                // equal to an explicit NULL).
                if value.is_null() {
                    return Ok(QueryResult::Rows(out));
                }
                match t.indexes.get(column.0 as usize) {
                    Some(Some(idx)) => {
                        for &key in idx.posting(value).iter().take(*limit) {
                            let key = u64::from(key);
                            let row = t.rows.get(key).expect("indexed row");
                            out.push((key, Arc::clone(row)));
                        }
                    }
                    // Unindexed column: key-ordered scan, identical
                    // result order to the index path.
                    _ => out.extend(
                        t.iter()
                            .filter(|(_, row)| row[column.0 as usize] == *value)
                            .take(*limit)
                            .map(|(key, row)| (key, Arc::clone(row))),
                    ),
                }
                Ok(QueryResult::Rows(out))
            }
            Statement::Count { table } => {
                Ok(QueryResult::Count(self.table_ref(*table)?.live as u64))
            }
            Statement::Insert { .. } => self.execute_owned(stmt.clone()),
            write => match self.execute_capture(write)?.0 {
                ExecSummary::Ack {
                    inserted_key,
                    affected,
                } => Ok(QueryResult::Ack {
                    inserted_key,
                    affected,
                }),
                other => unreachable!("a write acknowledges, got {other:?}"),
            },
        }
    }

    /// [`Database::execute`] of a statement the caller gives up. The bulk
    /// of a dataset load is inserts: no delta is wanted, so the row moves
    /// straight into the mutator — no copy of its values is made.
    pub fn execute_owned(&mut self, stmt: Statement) -> Result<QueryResult, SqlError> {
        match stmt {
            Statement::Insert { table, row } => {
                let key = self.insert_row(table, Arc::new(row))?;
                Ok(QueryResult::Ack {
                    inserted_key: Some(key),
                    affected: 1,
                })
            }
            other => self.execute(&other),
        }
    }

    /// Executes a *write* statement once, capturing its physical effect
    /// as a [`WriteDelta`] — the statement front-end of the write core
    /// ([`Database::execute_step_capture`] is the opcode front-end; both
    /// only resolve operands and land on the same mutators).
    pub fn execute_capture(
        &mut self,
        stmt: &Statement,
    ) -> Result<(ExecSummary, WriteDelta), SqlError> {
        match stmt {
            Statement::CreateTable { table } => {
                self.create_table(*table)?;
                Ok((
                    write_ack(None, 0),
                    WriteDelta::CreateTable { table: *table },
                ))
            }
            Statement::Insert { table, row } => self.insert_captured(*table, Arc::new(row.clone())),
            Statement::Update { table, key, set } => {
                self.update_row(*table, *key, set.iter().map(|(col, v)| (*col, v)))
            }
            Statement::Delete { table, key } => {
                let (table, key) = (*table, *key);
                Ok(if self.delete_row(table, key)? {
                    (write_ack(None, 1), WriteDelta::Delete { table, key })
                } else {
                    (write_ack(None, 0), WriteDelta::Noop)
                })
            }
            read => unreachable!("execute_capture is for writes only, got {read:?}"),
        }
    }

    /// Executes a compiled *write* step once, capturing its physical
    /// effect as a [`WriteDelta`]: the RAIDb-1 primary runs this, every
    /// other replica runs [`Database::apply_delta`] on the result. The row
    /// image inside the delta is the same `Arc` installed in this
    /// database's slot.
    // jade-audit: allow(hot-alloc): the Arc::new/collect is the one
    // materialization of an inserted row, which the recovery log and
    // every replica then share by reference.
    pub fn execute_step_capture(
        &mut self,
        step: &PlanStep,
        params: &[Value],
    ) -> Result<(ExecSummary, WriteDelta), SqlError> {
        match &step.op {
            StepOp::Insert { table, row } => {
                let row = row.iter().map(|o| o.resolve(params).clone()).collect();
                self.insert_captured(*table, Arc::new(row))
            }
            StepOp::Update { table, key, set } => self.update_row(
                *table,
                key.resolve(params).as_key(),
                set.iter().map(|(col, o)| (*col, o.resolve(params))),
            ),
            _ => unreachable!("execute_step_capture is for writes only"),
        }
    }

    /// Inserts `row` and wraps the outcome as the delta carrying it.
    fn insert_captured(
        &mut self,
        table: TableId,
        row: SharedRow,
    ) -> Result<(ExecSummary, WriteDelta), SqlError> {
        let key = self.insert_row(table, Arc::clone(&row))?;
        Ok((
            write_ack(Some(key), 1),
            WriteDelta::Insert { table, key, row },
        ))
    }

    /// The one insert: installs `row` in the slot at the table's next key
    /// and indexes it.
    fn insert_row(&mut self, table: TableId, row: SharedRow) -> Result<u64, SqlError> {
        let key = self.table_ref(table)?.next_key();
        let row_key = posting_row_key(key)?;
        let t = self.table_mut(table);
        debug_assert_eq!(
            row.len(),
            t.indexes.len(),
            "insert row width must match the table layout"
        );
        for (ci, v) in row.iter().enumerate() {
            t.index_insert(ColId(id_u16(ci)), v, row_key);
        }
        t.rows.push(row);
        t.live += 1;
        Ok(key)
    }

    /// The one update-by-assignment: overwrites the row at `key` with the
    /// resolved `(column, value)` pairs, yielding the new image and the
    /// columns whose value actually changed (no-op assignments move no
    /// index entry and are not reported).
    // jade-audit: allow(hot-panic, hot-alloc): column offsets come from
    // compiled plans or statements prepared against this catalog; the
    // `changed` list is the delta's payload, sized by the SET clause.
    fn update_row<'v>(
        &mut self,
        table: TableId,
        key: u64,
        set: impl ExactSizeIterator<Item = (ColId, &'v Value)>,
    ) -> Result<(ExecSummary, WriteDelta), SqlError> {
        let Some(row_key) = self.live_row_key(table, key)? else {
            return Ok((write_ack(None, 0), WriteDelta::Noop));
        };
        let t = self.table_mut(table);
        // Take the row out of its slot so the table's reference doesn't
        // count against copy-on-write: `make_mut` clones contents only
        // when a query result or a replica still shares the row.
        let Some(mut row) = t.rows.take(key) else {
            return Ok((write_ack(None, 0), WriteDelta::Noop));
        };
        let mut changed = Vec::with_capacity(set.len());
        for (col, v) in set {
            let old = &row[col.0 as usize];
            if *old == *v {
                continue;
            }
            let old = old.clone();
            t.index_move(col, &old, v, row_key);
            Arc::make_mut(&mut row)[col.0 as usize] = v.clone();
            changed.push(col);
        }
        t.rows.set(key, Arc::clone(&row));
        let delta = WriteDelta::Update {
            table,
            key,
            row,
            changed,
        };
        Ok((write_ack(None, 1), delta))
    }

    /// The one delete: removes the row at `key` and its index entries;
    /// false when there was no such row.
    fn delete_row(&mut self, table: TableId, key: u64) -> Result<bool, SqlError> {
        let Some(row_key) = self.live_row_key(table, key)? else {
            return Ok(false);
        };
        let t = self.table_mut(table);
        let Some(row) = t.rows.take(key) else {
            return Ok(false);
        };
        t.live -= 1;
        for (ci, v) in row.iter().enumerate() {
            t.index_remove(ColId(id_u16(ci)), v, row_key);
        }
        Ok(true)
    }

    /// The posting key of the live row at `key`, `None` when there is no
    /// such row. Checked through a shared reference, so a write that
    /// misses never unshares a table a snapshot still holds.
    fn live_row_key(&self, table: TableId, key: u64) -> Result<Option<u32>, SqlError> {
        if self.table_ref(table)?.rows.get(key).is_none() {
            return Ok(None);
        }
        posting_row_key(key).map(Some)
    }

    /// Executes a *read* step as a pure count probe, without materializing
    /// any rows. The RUBiS workload only ever observes the
    /// [`ExecSummary`] — demand accounting and outcome digests are
    /// summary-derived — so key reads reduce to a presence check and
    /// indexed scans to a posting-length probe: every posting entry maps
    /// to a live row, hence the cardinality is `min(posting.len(), limit)`.
    /// `tests/plan_prop.rs` holds the summaries to the materializing
    /// reference model.
    // jade-audit: allow(hot-panic): column offsets come from compiled
    // plans resolved against this catalog, so row[column] is within the
    // table's fixed width.
    pub fn read_step_summary(
        &self,
        step: &PlanStep,
        params: &[Value],
    ) -> Result<ExecSummary, SqlError> {
        match &step.op {
            StepOp::ReadKey { table, key } => {
                let t = self.table_ref(*table)?;
                let k = key.resolve(params).as_key();
                Ok(ExecSummary::Rows(usize::from(t.rows.get(k).is_some())))
            }
            StepOp::Scan {
                table,
                column,
                value,
                limit,
            } => {
                let t = self.table_ref(*table)?;
                let value = value.resolve(params);
                if value.is_null() {
                    return Ok(ExecSummary::Rows(0));
                }
                let n = match t.indexes.get(column.0 as usize) {
                    Some(Some(idx)) => idx.posting(value).len().min(*limit),
                    _ => {
                        let mut n = 0usize;
                        for (_, row) in t.iter() {
                            if n >= *limit {
                                break;
                            }
                            if row[column.0 as usize] == *value {
                                n += 1;
                            }
                        }
                        n
                    }
                };
                Ok(ExecSummary::Rows(n))
            }
            StepOp::Count { table } => Ok(ExecSummary::Count(self.table_ref(*table)?.live as u64)),
            StepOp::Insert { .. } | StepOp::Update { .. } => {
                unreachable!("read_step_summary is for reads only")
            }
        }
    }

    /// Applies a captured [`WriteDelta`] to this replica without
    /// re-evaluating the originating write. Deltas must be applied in
    /// log order onto a replica whose state matches the primary's at
    /// capture time (the RAIDb-1 full-mirroring invariant); row images are
    /// installed by reference, so the whole cluster shares one allocation
    /// per row.
    // jade-audit: allow(hot-panic): the delta was produced by the primary
    // against the same schema, so its column offsets are within the
    // replica's identical table widths.
    pub fn apply_delta(&mut self, delta: &WriteDelta) -> Result<(), SqlError> {
        match delta {
            WriteDelta::CreateTable { table } => self.create_table(*table),
            WriteDelta::Insert { table, key, row } => {
                let assigned = self.insert_row(*table, Arc::clone(row))?;
                debug_assert_eq!(assigned, *key, "deltas apply in log order");
                Ok(())
            }
            WriteDelta::Update {
                table,
                key,
                row,
                changed,
            } => {
                let Some(row_key) = self.live_row_key(*table, *key)? else {
                    return Ok(());
                };
                let t = self.table_mut(*table);
                if let Some(old) = t.rows.take(*key) {
                    // The replica's pre-image equals the primary's, so
                    // the old index entries are read from it directly.
                    for &col in changed {
                        t.index_move(col, &old[col.0 as usize], &row[col.0 as usize], row_key);
                    }
                    t.rows.set(*key, Arc::clone(row));
                }
                Ok(())
            }
            WriteDelta::Delete { table, key } => self.delete_row(*table, *key).map(|_| ()),
            WriteDelta::Noop => Ok(()),
        }
    }

    /// Looks up a created table by name.
    pub fn get_table(&self, name: &str) -> Option<&Table> {
        let id = self.schema.table_id(name)?;
        let t = &self.tables[id.0 as usize];
        t.created.then_some(t)
    }

    /// Total number of live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Content digest: equal digests ⇔ equal contents (up to hash
    /// collisions). Used to check replica convergence. Iteration order is
    /// stable over interned ids (tables and columns in name order, `Null`
    /// columns skipped), reproducing the replaced name-keyed engine's
    /// digest byte for byte.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for &ti in self.schema.sorted_tables() {
            let table = &self.tables[ti as usize];
            if !table.created {
                continue;
            }
            let def = self.schema.table(TableId(ti)).expect("in catalog");
            def.name().hash(&mut h);
            table.next_key().hash(&mut h);
            for (key, row) in table.iter() {
                key.hash(&mut h);
                for &ci in def.sorted_cols() {
                    match &row[ci as usize] {
                        Value::Null => {}
                        Value::Int(i) => {
                            def.column(ColId(ci)).hash(&mut h);
                            i.hash(&mut h);
                        }
                        Value::Text(s) => {
                            def.column(ColId(ci)).hash(&mut h);
                            s.hash(&mut h);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Value;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .table("users", &["name"])
            .table("t", &["a", "b"])
            .table("x", &["v"])
            .index("t", "a")
            .build()
    }

    fn db() -> Database {
        Database::new(schema())
    }

    #[test]
    fn crud_roundtrip() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("users")).unwrap();
        let r = db
            .execute(&schema.insert("users", &[("name", "alice".into())]))
            .unwrap();
        let key = match r {
            QueryResult::Ack {
                inserted_key: Some(k),
                ..
            } => k,
            other => panic!("unexpected {other:?}"),
        };
        // Read it back.
        let rows = db.execute(&schema.select_by_key("users", key)).unwrap();
        assert_eq!(rows.cardinality(), 1);
        // Update and verify.
        db.execute(&schema.update("users", key, &[("name", "bob".into())]))
            .unwrap();
        if let QueryResult::Rows(rows) = db
            .execute(&schema.select_where("users", "name", "bob".into(), 10))
            .unwrap()
        {
            assert_eq!(rows.len(), 1);
        } else {
            panic!("expected rows");
        }
        // Delete.
        db.execute(&schema.delete("users", key)).unwrap();
        assert_eq!(
            db.execute(&schema.count("users")).unwrap(),
            QueryResult::Count(0)
        );
    }

    #[test]
    fn missing_table_is_an_error() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        // "x" is in the catalog but was never created.
        assert_eq!(
            db.execute(&schema.count("x")),
            Err(SqlError::NoSuchTable("x".into()))
        );
    }

    /// A table id outside the catalog (a statement, step or delta
    /// prepared against another schema) is an error on every entry point —
    /// never a panic, never an out-of-range index — and mutates nothing.
    #[test]
    fn out_of_catalog_tables_are_errors_on_every_entry_point() {
        use crate::plan::Operand;
        let mut db = db();
        let before = db.clone();
        let table = TableId(id_u16(db.schema().len()));
        let missing = SqlError::NoSuchTable("?".into());
        let row = vec![Value::Int(1)];
        for stmt in [
            Statement::CreateTable { table },
            Statement::Insert {
                table,
                row: row.clone(),
            },
            Statement::Update {
                table,
                key: 0,
                set: vec![(ColId(0), Value::Int(2))],
            },
            Statement::Delete { table, key: 0 },
            Statement::SelectByKey { table, key: 0 },
            Statement::SelectWhere {
                table,
                column: ColId(0),
                value: Value::Int(1),
                limit: 5,
            },
            Statement::Count { table },
        ] {
            assert_eq!(db.execute(&stmt), Err(missing.clone()), "{stmt:?}");
        }
        let step = |op| PlanStep {
            op,
            demand: jade_sim::SimDuration::ZERO,
        };
        let key = Operand::Const(Value::Int(0));
        for write in [
            StepOp::Insert {
                table,
                row: vec![key.clone()],
            },
            StepOp::Update {
                table,
                key: key.clone(),
                set: vec![(ColId(0), key.clone())],
            },
        ] {
            let got = db.execute_step_capture(&step(write), &[]);
            assert_eq!(got.map(|(summary, _)| summary), Err(missing.clone()));
        }
        for read in [
            StepOp::ReadKey {
                table,
                key: key.clone(),
            },
            StepOp::Scan {
                table,
                column: ColId(0),
                value: key.clone(),
                limit: 5,
            },
            StepOp::Count { table },
        ] {
            let got = db.read_step_summary(&step(read), &[]);
            assert_eq!(got, Err(missing.clone()));
        }
        let row: SharedRow = Arc::new(row);
        for delta in [
            WriteDelta::CreateTable { table },
            WriteDelta::Insert {
                table,
                key: 0,
                row: Arc::clone(&row),
            },
            WriteDelta::Update {
                table,
                key: 0,
                row,
                changed: vec![ColId(0)],
            },
            WriteDelta::Delete { table, key: 0 },
        ] {
            assert_eq!(db.apply_delta(&delta), Err(missing.clone()));
        }
        assert_eq!(db, before);
    }

    #[test]
    fn create_table_is_idempotent() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        db.execute(&schema.create_table("t")).unwrap();
        assert_eq!(db.total_rows(), 1, "re-create must not wipe the table");
    }

    #[test]
    fn update_missing_row_affects_zero() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        let r = db
            .execute(&schema.update("t", 99, &[("a", Value::Int(1))]))
            .unwrap();
        assert_eq!(
            r,
            QueryResult::Ack {
                inserted_key: None,
                affected: 0
            }
        );
    }

    #[test]
    fn identical_statement_sequences_yield_identical_digests() {
        let schema = schema();
        let ins = |v: i64| schema.insert("t", &[("a", Value::Int(v))]);
        let stmts = vec![
            schema.create_table("t"),
            ins(1),
            ins(2),
            schema.delete("t", 0),
            ins(3),
        ];
        let mut a = db();
        let mut b = db();
        for s in &stmts {
            a.execute(s).unwrap();
            b.execute(s).unwrap();
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        // Divergence is detected.
        b.execute(&ins(9)).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn keys_are_not_reused_after_delete() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        db.execute(&schema.delete("t", 0)).unwrap();
        let r = db
            .execute(&schema.insert("t", &[("a", Value::Int(2))]))
            .unwrap();
        assert_eq!(
            r,
            QueryResult::Ack {
                inserted_key: Some(1),
                affected: 1
            }
        );
    }

    #[test]
    fn indexed_and_scanned_selects_agree() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        for i in 0..20i64 {
            db.execute(&schema.insert("t", &[("a", Value::Int(i % 3)), ("b", Value::Int(i % 3))]))
                .unwrap();
        }
        // Column "a" is indexed, "b" is not; both hold i % 3, so the
        // index path and the scan path must return identical rows.
        let via_index = db
            .execute(&schema.select_where("t", "a", Value::Int(1), 4))
            .unwrap();
        let via_scan = db
            .execute(&schema.select_where("t", "b", Value::Int(1), 4))
            .unwrap();
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.cardinality(), 4);
        if let QueryResult::Rows(rows) = &via_index {
            let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![1, 4, 7, 10], "key order with limit");
        }
    }

    #[test]
    fn index_tracks_updates_and_deletes() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        for _ in 0..3 {
            db.execute(&schema.insert("t", &[("a", Value::Int(7))]))
                .unwrap();
        }
        db.execute(&schema.update("t", 1, &[("a", Value::Int(8))]))
            .unwrap();
        db.execute(&schema.delete("t", 0)).unwrap();
        let hits = db
            .execute(&schema.select_where("t", "a", Value::Int(7), 10))
            .unwrap();
        assert_eq!(
            hits.cardinality(),
            1,
            "one row moved to 8, one deleted, one remains"
        );
        let moved = db
            .execute(&schema.select_where("t", "a", Value::Int(8), 10))
            .unwrap();
        assert_eq!(moved.cardinality(), 1);
    }

    #[test]
    fn null_filters_match_nothing() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        // Row with "b" absent (Null in the fixed layout).
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        for col in ["a", "b"] {
            let r = db
                .execute(&schema.select_where("t", col, Value::Null, 10))
                .unwrap();
            assert_eq!(r.cardinality(), 0, "NULL filter on {col}");
        }
    }

    /// Runs `stmts` through a primary with `execute_capture`, mirroring
    /// each delta onto `replica`; returns the primary.
    fn mirror(stmts: &[Statement], replica: &mut Database) -> Database {
        let mut primary = db();
        for s in stmts {
            match primary.execute_capture(s) {
                Ok((_, delta)) => replica.apply_delta(&delta).unwrap(),
                Err(e) => {
                    // The replica re-derives the same error.
                    assert_eq!(replica.execute(s).unwrap_err(), e);
                }
            }
        }
        primary
    }

    #[test]
    fn delta_applied_replica_matches_reexecution() {
        let schema = schema();
        let stmts = vec![
            schema.create_table("t"),
            schema.insert("t", &[("a", Value::Int(1)), ("b", "x".into())]),
            schema.insert("t", &[("a", Value::Int(2))]),
            schema.update("t", 0, &[("a", Value::Int(2)), ("b", Value::Null)]),
            // No-op column set: the delta must not move index entries.
            schema.update("t", 1, &[("a", Value::Int(2))]),
            schema.delete("t", 0),
            // Missing-key update/delete capture as Noop.
            schema.update("t", 99, &[("a", Value::Int(5))]),
            schema.delete("t", 42),
            schema.insert("t", &[("a", Value::Int(3))]),
        ];
        let mut via_delta = db();
        let primary = mirror(&stmts, &mut via_delta);
        let mut reexecuted = db();
        for s in &stmts {
            let _ = reexecuted.execute(s);
        }
        assert_eq!(primary.digest(), reexecuted.digest());
        assert_eq!(via_delta.digest(), reexecuted.digest());
        assert_eq!(via_delta, reexecuted);
        // Index maintenance carried over: the indexed lookup agrees.
        let q = schema.select_where("t", "a", Value::Int(2), 10);
        assert_eq!(via_delta.execute(&q), reexecuted.execute(&q));
    }

    #[test]
    fn capture_shares_one_row_allocation_with_replicas() {
        let schema = schema();
        let mut primary = db();
        let mut r1 = db();
        let mut r2 = db();
        let (_, delta) = primary.execute_capture(&schema.create_table("t")).unwrap();
        r1.apply_delta(&delta).unwrap();
        r2.apply_delta(&delta).unwrap();
        let (_, delta) = primary
            .execute_capture(&schema.insert("t", &[("a", Value::Int(7))]))
            .unwrap();
        let row = match &delta {
            WriteDelta::Insert { row, .. } => Arc::clone(row),
            other => panic!("unexpected {other:?}"),
        };
        r1.apply_delta(&delta).unwrap();
        r2.apply_delta(&delta).unwrap();
        drop(delta);
        // primary + r1 + r2 + our probe hold the single allocation.
        assert_eq!(Arc::strong_count(&row), 4);
    }

    #[test]
    fn snapshot_restore_and_tail_converges() {
        let schema = schema();
        let mut primary = db();
        primary.execute(&schema.create_table("t")).unwrap();
        for i in 0..50i64 {
            primary
                .execute(&schema.insert("t", &[("a", Value::Int(i % 5))]))
                .unwrap();
        }
        let snap = primary.snapshot();
        // Writes after the checkpoint, captured as deltas.
        let mut tail = Vec::new();
        for i in 0..10i64 {
            let (_, d) = primary
                .execute_capture(&schema.insert("t", &[("a", Value::Int(100 + i))]))
                .unwrap();
            tail.push(d);
        }
        let (_, d) = primary.execute_capture(&schema.delete("t", 3)).unwrap();
        tail.push(d);
        // Joiner: restore + tail.
        let mut joiner = Database::from_snapshot(&snap);
        for d in &tail {
            joiner.apply_delta(d).unwrap();
        }
        assert_eq!(joiner.digest(), primary.digest());
        // The snapshot itself is unperturbed by both the primary's and
        // the joiner's post-checkpoint writes (copy-on-write).
        let frozen = Database::from_snapshot(&snap);
        assert_eq!(frozen.total_rows(), 50);
    }

    #[test]
    fn snapshot_is_cheap_and_isolated_from_later_writes() {
        let schema = schema();
        let mut a = db();
        a.execute(&schema.create_table("t")).unwrap();
        a.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        let snap = a.snapshot();
        let before = Database::from_snapshot(&snap).digest();
        a.execute(&schema.update("t", 0, &[("a", Value::Int(9))]))
            .unwrap();
        a.execute(&schema.insert("t", &[("a", Value::Int(2))]))
            .unwrap();
        assert_eq!(Database::from_snapshot(&snap).digest(), before);
        assert_ne!(a.digest(), before);
    }

    #[test]
    fn selects_share_rows_without_cloning_contents() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        let held = match db.execute(&schema.select_by_key("t", 0)).unwrap() {
            QueryResult::Rows(rows) => rows[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // An update while a result holds the row copies-on-write: the
        // held row keeps its old contents.
        db.execute(&schema.update("t", 0, &[("a", Value::Int(2))]))
            .unwrap();
        assert_eq!(held[0], Value::Int(1));
        let now = match db.execute(&schema.select_by_key("t", 0)).unwrap() {
            QueryResult::Rows(rows) => rows[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(now[0], Value::Int(2));
    }

    /// The index on `t.a` (the test schema's one indexed column) among a
    /// database's or a snapshot's tables.
    fn t_a_index(tables: &[Arc<Table>]) -> &Index {
        let t = &tables[schema().table_id("t").unwrap().0 as usize];
        t.indexes[0].as_ref().expect("t.a is indexed")
    }

    /// A restored replica's sync costs its tail, not its table: after 16
    /// deltas against 10 000 indexed values, the index base is still the
    /// snapshot's and the replica owns at most one posting per delta and
    /// indexed column — a count, not a timing.
    #[test]
    fn restored_replica_copies_only_the_postings_its_tail_touches() {
        let schema = schema();
        let mut primary = db();
        primary.execute(&schema.create_table("t")).unwrap();
        for v in 0..10_000 {
            primary
                .execute(&schema.insert("t", &[("a", Value::Int(v))]))
                .unwrap();
        }
        let snap = primary.snapshot();
        let tail: Vec<WriteDelta> = (0..8)
            .flat_map(|i| {
                let insert = schema.insert("t", &[("a", Value::Int(20_000 + i))]);
                [insert, schema.delete("t", 100 * i as u64)]
            })
            .map(|stmt| primary.execute_capture(&stmt).unwrap().1)
            .collect();
        assert_eq!(tail.len(), 16);
        let mut joiner = Database::from_snapshot(&snap);
        for delta in &tail {
            joiner.apply_delta(delta).unwrap();
        }
        let restored = &t_a_index(&joiner.tables).ints;
        let frozen = &t_a_index(&snap.tables).ints;
        assert!(Arc::ptr_eq(&restored.base, &frozen.base));
        let indexed_columns = schema
            .table(schema.table_id("t").unwrap())
            .unwrap()
            .indexed()
            .len();
        assert!(restored.own.len() <= tail.len() * indexed_columns);
        assert!(frozen.own.is_empty() && frozen.base.len() == 10_000);
        assert_eq!(joiner, primary);
        let deleted = schema.select_where("t", "a", Value::Int(700), 10);
        assert_eq!(joiner.execute(&deleted).unwrap().cardinality(), 0);
    }

    /// Equality compares what the indexes hold, not how each splits it
    /// between base and own postings: a database written directly equals
    /// one that reached the same rows through a restore, a tail that
    /// folded, and a second share that left tombstones.
    #[test]
    fn equality_compares_index_content_not_its_layering() {
        let schema = schema();
        let ins = |v: i64| schema.insert("t", &[("a", Value::Int(v))]);
        let prefix: Vec<Statement> = std::iter::once(schema.create_table("t"))
            .chain((0..40).map(ins))
            .collect();
        // Twelve tombstones against a 40-value base: more than a quarter
        // of it, so the own postings fold.
        let folding: Vec<Statement> = (0..12).map(|k| schema.delete("t", k)).collect();
        let tail = [
            schema.delete("t", 20),
            schema.update("t", 21, &[("a", Value::Int(22))]),
            ins(99),
        ];
        let mut direct = db();
        for stmt in prefix.iter().chain(&folding).chain(&tail) {
            direct.execute(stmt).unwrap();
        }
        let mut primary = db();
        for stmt in &prefix {
            primary.execute(stmt).unwrap();
        }
        let first = primary.snapshot();
        let mut layered = Database::from_snapshot(&first);
        for stmt in &folding {
            layered.execute(stmt).unwrap();
        }
        let _second = layered.snapshot();
        for stmt in &tail {
            layered.execute(stmt).unwrap();
        }
        let idx = &t_a_index(&layered.tables).ints;
        assert!(!Arc::ptr_eq(&idx.base, &t_a_index(&first.tables).ints.base));
        assert!(idx.own.values().any(Posting::is_tombstone));
        assert_eq!(layered, direct);
        assert_eq!(layered.digest(), direct.digest());
    }

    /// The layout the memory gain rests on: an integer posting entry is
    /// the `i64` value and a 16-byte posting, with no separate block.
    #[test]
    fn posting_entries_are_compact() {
        assert_eq!(std::mem::size_of::<Posting>(), 16);
        assert_eq!(std::mem::size_of::<(i64, Posting)>(), 24);
    }

    #[test]
    fn a_posting_goes_from_empty_to_one_to_many_and_back() {
        let mut posting = Posting::Empty;
        posting.add_row_key(7);
        assert_eq!(posting, Posting::One(7));
        posting.add_row_key(7);
        assert_eq!(posting, Posting::One(7), "a held key is not added twice");
        posting.add_row_key(3);
        assert!(matches!(posting, Posting::Many(_)));
        for key in [9, 5] {
            posting.add_row_key(key);
        }
        assert_eq!(posting.row_keys(), &[3, 5, 7, 9]);
        posting.remove_row_key(4);
        assert_eq!(posting.row_keys(), &[3, 5, 7, 9], "a missing key misses");
        for (key, left) in [(5, &[3, 7, 9][..]), (9, &[3, 7]), (3, &[7])] {
            posting.remove_row_key(key);
            assert_eq!(posting.row_keys(), left);
        }
        assert_eq!(posting, Posting::One(7), "one key left is held inline");
        posting.remove_row_key(7);
        assert_eq!(posting, Posting::Empty);
        assert!(posting.row_keys().is_empty());
    }

    /// An index whose `base` is shared with `frozen`, as after a restore.
    fn shared_index(frozen: &Index) -> Index {
        Index {
            ints: PostingLayer {
                base: Arc::clone(&frozen.ints.base),
                own: PostingMap::default(),
            },
            texts: PostingLayer {
                base: Arc::clone(&frozen.texts.base),
                own: PostingMap::default(),
            },
        }
    }

    #[test]
    fn an_own_tombstone_hides_a_shared_one_row_posting() {
        let mut frozen = Index::default();
        for (value, key) in [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)] {
            frozen.edit_posting(&Value::Int(value), |p| p.add_row_key(key));
        }
        assert_eq!(frozen.ints.base.get(&1), Some(&Posting::One(10)));
        let mut idx = shared_index(&frozen);
        idx.edit_posting(&Value::Int(1), |p| p.remove_row_key(10));
        assert!(Arc::ptr_eq(&idx.ints.base, &frozen.ints.base));
        assert_eq!(idx.ints.own.get(&1), Some(&Posting::Empty));
        assert!(idx.posting(&Value::Int(1)).is_empty());
        assert_eq!(frozen.posting(&Value::Int(1)), &[10]);
        assert_ne!(idx, frozen);
        // Re-adding the key overwrites the tombstone, and the two sides
        // hold the same content again.
        idx.edit_posting(&Value::Int(1), |p| p.add_row_key(10));
        assert_eq!(idx, frozen);
    }

    #[test]
    fn text_and_negative_integer_values_are_indexed() {
        let mut idx = Index::default();
        let values = [
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(1),
            Value::Text("-1".into()),
            Value::Text(String::new()),
        ];
        for (key, value) in (0..).zip(&values) {
            idx.edit_posting(value, |p| p.add_row_key(key));
            idx.edit_posting(value, |p| p.add_row_key(key + 100));
        }
        for (key, value) in (0..).zip(&values) {
            assert_eq!(idx.posting(value), &[key, key + 100], "{value:?}");
        }
        assert_eq!((idx.ints.base.len(), idx.texts.base.len()), (3, 2));
        idx.edit_posting(&Value::Null, |p| p.add_row_key(9));
        assert!(
            idx.posting(&Value::Null).is_empty(),
            "NULL is never indexed"
        );
    }

    #[test]
    fn index_equality_ignores_the_base_own_split() {
        let edits: Vec<(Value, u32)> = (0..24u32)
            .map(|k| {
                let value = if k % 3 == 0 {
                    Value::Text(format!("t{}", k % 4))
                } else {
                    Value::Int(-i64::from(k % 5))
                };
                (value, k)
            })
            .collect();
        let mut direct = Index::default();
        for (value, key) in &edits {
            direct.edit_posting(value, |p| p.add_row_key(*key));
        }
        // Split after every prefix length: the first part in a shared
        // base, the rest written as own postings (some of which fold).
        for split in 0..=edits.len() {
            let mut frozen = Index::default();
            for (value, key) in &edits[..split] {
                frozen.edit_posting(value, |p| p.add_row_key(*key));
            }
            let mut layered = shared_index(&frozen);
            for (value, key) in &edits[split..] {
                layered.edit_posting(value, |p| p.add_row_key(*key));
            }
            assert_eq!(layered, direct, "split at {split}");
            assert_eq!(direct, layered, "split at {split}");
            if split < edits.len() {
                assert_ne!(frozen, direct, "split at {split}");
            }
        }
    }

    /// Truncated to 32 bits, key 2^32 would be row 0's: every removal
    /// path misses it instead.
    #[test]
    fn removing_a_key_past_the_32_bit_space_misses() {
        let schema = schema();
        let mut db = db();
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        let before = db.clone();
        let (t, key) = (schema.table_id("t").unwrap(), 1 << 32);
        let missed = db.execute(&schema.delete("t", key)).unwrap();
        assert_eq!(missed.cardinality(), 0);
        db.execute(&schema.update("t", key, &[("a", Value::Int(2))]))
            .unwrap();
        db.apply_delta(&WriteDelta::Delete { table: t, key })
            .unwrap();
        assert_eq!(db, before);
        assert_eq!(t_a_index(&db.tables).posting(&Value::Int(1)), &[0]);
    }

    #[test]
    fn an_insert_past_the_32_bit_key_space_fails() {
        assert_eq!(posting_row_key(u64::from(u32::MAX)), Ok(u32::MAX));
        assert_eq!(
            posting_row_key(1 << 32),
            Err(SqlError::KeySpaceExhausted(1 << 32))
        );
        // A table whose counter reached 2^32: the insert fails before
        // anything is written.
        let schema = schema();
        let mut db = db();
        db.execute(&schema.create_table("t")).unwrap();
        let t = schema.table_id("t").unwrap();
        Arc::make_mut(&mut db.tables[t.0 as usize]).rows.slots = 1 << 32;
        let before = db.clone();
        let insert = schema.insert("t", &[("a", Value::Int(1))]);
        let err = SqlError::KeySpaceExhausted(1 << 32);
        assert_eq!(db.execute(&insert), Err(err.clone()));
        assert_eq!(db.execute_capture(&insert).map(|(ack, _)| ack), Err(err));
        assert_eq!(db, before);
    }

    /// An UPDATE or DELETE of a missing key, as a statement or as a
    /// delta, leaves a snapshot-shared table shared.
    #[test]
    fn a_write_that_misses_leaves_a_shared_table_shared() {
        let schema = schema();
        let mut db = db();
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        let snap = db.snapshot();
        let t = schema.table_id("t").unwrap();
        db.execute(&schema.update("t", 99, &[("a", Value::Int(2))]))
            .unwrap();
        db.execute(&schema.delete("t", 99)).unwrap();
        db.apply_delta(&WriteDelta::Update {
            table: t,
            key: 99,
            row: Arc::new(vec![Value::Int(2), Value::Null]),
            changed: vec![ColId(0)],
        })
        .unwrap();
        db.apply_delta(&WriteDelta::Delete { table: t, key: 99 })
            .unwrap();
        let i = t.0 as usize;
        assert!(Arc::ptr_eq(&db.tables[i], &snap.tables[i]));
    }
}
