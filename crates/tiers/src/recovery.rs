//! The C-JDBC recovery log (paper §4.1).
//!
//! "This recovery log is implemented as a particular database whose
//! purpose is to keep track of all the requests that affect the state of
//! the database. Basically, all write requests are logged and indexed as
//! strings in this recovery log. When a new server is inserted in the
//! clustered database … the recovery log enables us to know the exact set
//! of write requests to replay on this server to make it up-to-date. …
//! Symmetrically, removing a database replica is realized by keeping trace
//! of the state of this replica … stored as the index value … of the last
//! write request that it has executed before being disabled."
//!
//! Two refinements over the literal model:
//!
//! * each entry carries the [`WriteDelta`] the primary captured when it
//!   executed the write, so replay applies physical effects instead of
//!   re-evaluating statements. The statement itself stays in the entry
//!   for two readers: the string form, rendered lazily when diagnostics
//!   ask for it (never on the hot append path), and replay of a write
//!   that failed on the primary and so has no delta — re-executing it
//!   fails identically on the joiner;
//! * every [`RecoveryLog::snapshot_interval`] writes the log accepts a
//!   copy-on-write checkpoint [`Snapshot`] of the cluster state, so a
//!   joining backend receives {nearest snapshot, delta tail} — O(delta) —
//!   instead of replaying the entire history. The *simulated* resync
//!   latency still follows the full entry backlog ([`SyncPlan::backlog`]),
//!   keeping virtual-time trajectories identical to the full-replay
//!   implementation (the digest-neutral contract).

use crate::sql::{Schema, Statement};
use crate::storage::{Snapshot, WriteDelta};
use std::sync::Arc;

/// A logged write: global index, the statement (structured, for the
/// rendered log view and for re-executing a write that has no delta) and
/// the physical delta captured by the primary. Both are `Arc`-shared with the
/// broadcast that produced them — logging a write never clones either.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Global write index (0-based, dense).
    pub index: u64,
    /// The write statement.
    pub statement: Arc<Statement>,
    /// The primary's captured physical effect. `None` when the write was
    /// logged without one (it errored on the primary, or a caller used
    /// [`RecoveryLog::append`]) — replay then re-executes the statement,
    /// which reproduces the identical outcome.
    pub delta: Option<Arc<WriteDelta>>,
}

impl LogEntry {
    /// The rendered string form (what C-JDBC actually persisted),
    /// produced on demand — the hot write path never renders.
    pub fn render(&self, schema: &Schema) -> String {
        self.statement.render(schema)
    }
}

/// What [`crate::cjdbc::CjdbcController::begin_enable`] hands a joining
/// backend: either the delta tail alone (applied onto the backend's
/// retained state) or the nearest checkpoint snapshot plus the shorter
/// tail past it.
#[derive(Debug, Clone, Default)]
pub struct SyncPlan {
    /// `(position, snapshot)`: replace the backend's state with the
    /// snapshot covering log entries `< position`, then apply `entries`.
    /// `None`: the backend's own state is current up to its checkpoint —
    /// apply `entries` directly.
    pub snapshot: Option<(u64, Snapshot)>,
    /// Delta tail to apply, in log order.
    pub entries: Vec<LogEntry>,
    /// The full entry count the literal statement-replay model would have
    /// transferred (`head - checkpoint`). The simulated resync latency is
    /// modeled on this, not on `entries.len()`, so switching a backend to
    /// the snapshot path never shifts virtual time.
    pub backlog: u64,
}

impl SyncPlan {
    /// True when the plan carries no state to transfer at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.entries.is_empty()
    }
}

/// How many writes the log accepts between checkpoint snapshots.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 1024;

/// Append-only log of all writes accepted by the clustered database.
#[derive(Debug, Clone)]
pub struct RecoveryLog {
    schema: Arc<Schema>,
    entries: Vec<LogEntry>,
    /// Checkpoint snapshots at ascending log positions (a snapshot at
    /// position `p` covers entries `< p`).
    snapshots: Vec<(u64, Snapshot)>,
    snapshot_interval: u64,
}

impl RecoveryLog {
    /// Creates an empty log rendering against `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        RecoveryLog {
            schema,
            entries: Vec::new(),
            snapshots: Vec::new(),
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
        }
    }

    /// Appends a write without a captured delta (statement-replay mode),
    /// returning its index. Panics on non-write statements — reads must
    /// never reach the log.
    pub fn append(&mut self, statement: Arc<Statement>) -> u64 {
        self.push_entry(statement, None)
    }

    /// Appends a write together with the physical delta its primary
    /// captured, returning its index.
    pub fn append_captured(&mut self, statement: Arc<Statement>, delta: Arc<WriteDelta>) -> u64 {
        self.push_entry(statement, Some(delta))
    }

    // jade-audit: allow(unbounded-growth): the recovery log intentionally
    // retains every write of the run — it is the replay source that
    // brings checkpointed replicas back in sync (paper's RAIDb-1
    // recovery); truncating it would break resync.
    fn push_entry(&mut self, statement: Arc<Statement>, delta: Option<Arc<WriteDelta>>) -> u64 {
        assert!(
            statement.is_write(),
            "only write requests are logged (got {})",
            statement.render(&self.schema)
        );
        let index = self.entries.len() as u64;
        self.entries.push(LogEntry {
            index,
            statement,
            delta,
        });
        index
    }

    /// Index one past the last logged write (== number of writes).
    pub fn head(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Entries with `index >= from` in order — "the exact set of write
    /// requests to replay" on a stale replica whose checkpoint is `from`.
    pub fn entries_from(&self, from: u64) -> &[LogEntry] {
        let start = (from as usize).min(self.entries.len());
        &self.entries[start..]
    }

    /// Number of writes a replica checkpointed at `from` is missing.
    pub fn backlog(&self, from: u64) -> u64 {
        self.head().saturating_sub(from)
    }

    /// All rendered statements (diagnostics / persistence emulation),
    /// produced lazily — nothing is rendered until the iterator is
    /// consumed.
    pub fn rendered(&self) -> impl Iterator<Item = String> + '_ {
        self.entries.iter().map(|e| e.render(&self.schema))
    }

    // ------------------------------------------------------------------
    // Checkpoint snapshots
    // ------------------------------------------------------------------

    /// Writes between checkpoint snapshots.
    pub fn snapshot_interval(&self) -> u64 {
        self.snapshot_interval
    }

    /// Reconfigures the checkpoint cadence (tests and benches).
    pub fn set_snapshot_interval(&mut self, every: u64) {
        self.snapshot_interval = every.max(1);
    }

    /// True when enough writes accumulated since the last checkpoint that
    /// the caller should capture and [`RecoveryLog::install_snapshot`] a
    /// fresh one (the log itself holds no database state).
    pub fn snapshot_due(&self) -> bool {
        let last = self.snapshots.last().map(|(p, _)| *p).unwrap_or(0);
        self.head() >= last + self.snapshot_interval
    }

    /// Records a checkpoint snapshot of the cluster state at the current
    /// head (the snapshot must reflect every logged write).
    pub fn install_snapshot(&mut self, snapshot: Snapshot) {
        let pos = self.head();
        debug_assert!(self.snapshots.last().is_none_or(|(p, _)| *p <= pos));
        self.snapshots.push((pos, snapshot));
    }

    /// Number of checkpoint snapshots retained.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The most advanced snapshot strictly past `from`, if any (a
    /// snapshot at or before `from` adds nothing over the backend's own
    /// retained state).
    pub fn nearest_snapshot(&self, from: u64) -> Option<&(u64, Snapshot)> {
        self.snapshots.iter().rev().find(|(p, _)| *p > from)
    }

    /// Builds the cheapest reconciliation plan for a backend checkpointed
    /// at `from`: nearest snapshot + delta tail when a snapshot would
    /// skip work, the plain tail otherwise. `backlog` always reflects the
    /// full `head - from` (see [`SyncPlan::backlog`]).
    pub fn sync_plan(&self, from: u64) -> SyncPlan {
        let backlog = self.backlog(from);
        match self.nearest_snapshot(from) {
            Some((pos, snap)) => SyncPlan {
                snapshot: Some((*pos, snap.clone())),
                entries: self.entries_from(*pos).to_vec(),
                backlog,
            },
            None => SyncPlan {
                snapshot: None,
                entries: self.entries_from(from).to_vec(),
                backlog,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Value;
    use crate::storage::Database;

    fn schema() -> Arc<Schema> {
        Schema::builder().table("t", &["a"]).build()
    }

    fn log() -> RecoveryLog {
        RecoveryLog::new(schema())
    }

    fn w(i: i64) -> Arc<Statement> {
        Arc::new(schema().insert("t", &[("a", Value::Int(i))]))
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let mut log = log();
        assert_eq!(log.append(w(1)), 0);
        assert_eq!(log.append(w(2)), 1);
        assert_eq!(log.head(), 2);
        let tail = log.entries_from(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].index, 1);
        assert_eq!(log.backlog(0), 2);
        assert_eq!(log.backlog(2), 0);
        assert_eq!(log.backlog(99), 0);
    }

    #[test]
    #[should_panic(expected = "only write requests")]
    fn reads_are_rejected() {
        let mut log = log();
        log.append(Arc::new(schema().count("t")));
    }

    #[test]
    fn rendered_strings_match_statements() {
        let mut log = log();
        log.append(w(7));
        assert_eq!(log.rendered().next().unwrap(), "INSERT INTO t SET a=7");
    }

    #[test]
    fn captured_deltas_ride_along() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        let mut log = RecoveryLog::new(Arc::clone(&schema));
        let stmt = w(3);
        let (_, delta) = db.execute_capture(&stmt).unwrap();
        log.append_captured(Arc::clone(&stmt), Arc::new(delta));
        log.append(w(4));
        let entries = log.entries_from(0);
        assert!(entries[0].delta.is_some());
        assert!(entries[1].delta.is_none());
    }

    #[test]
    fn snapshot_cadence_and_nearest_lookup() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        let mut log = RecoveryLog::new(Arc::clone(&schema));
        log.set_snapshot_interval(4);
        assert!(!log.snapshot_due(), "empty log needs no snapshot");
        for i in 0..10 {
            log.append(w(i));
            let _ = db.execute(&schema.insert("t", &[("a", Value::Int(i))]));
            if log.snapshot_due() {
                log.install_snapshot(db.snapshot());
            }
        }
        // Snapshots landed at positions 4 and 8.
        assert_eq!(log.snapshot_count(), 2);
        assert_eq!(log.nearest_snapshot(0).map(|(p, _)| *p), Some(8));
        assert_eq!(log.nearest_snapshot(7).map(|(p, _)| *p), Some(8));
        assert_eq!(log.nearest_snapshot(8).map(|(p, _)| *p), None);
        assert_eq!(log.nearest_snapshot(99).map(|(p, _)| *p), None);
    }

    #[test]
    fn sync_plan_prefers_snapshot_but_reports_full_backlog() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        let mut log = RecoveryLog::new(Arc::clone(&schema));
        log.set_snapshot_interval(4);
        for i in 0..6 {
            log.append(w(i));
            let _ = db.execute(&schema.insert("t", &[("a", Value::Int(i))]));
            if log.snapshot_due() {
                log.install_snapshot(db.snapshot());
            }
        }
        // Fresh joiner (checkpoint 0): snapshot at 4 + tail of 2, but the
        // latency model still sees all 6 entries.
        let plan = log.sync_plan(0);
        assert_eq!(plan.snapshot.as_ref().map(|(p, _)| *p), Some(4));
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.backlog, 6);
        // A backend checkpointed past the snapshot gets the plain tail.
        let plan = log.sync_plan(5);
        assert!(plan.snapshot.is_none());
        assert_eq!(plan.entries.len(), 1);
        assert_eq!(plan.backlog, 1);
        // Fully current: empty plan.
        assert!(log.sync_plan(6).is_empty());
    }
}
