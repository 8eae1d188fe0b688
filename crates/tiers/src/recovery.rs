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
//! * an entry is the [`WriteDelta`] the primary captured when it executed
//!   the write, so replay applies physical effects instead of
//!   re-evaluating statements. A write that failed on the primary is
//!   logged as [`WriteDelta::Noop`]: its error left the primary
//!   untouched, and every mirror holds the primary's state, so it
//!   changes nothing anywhere;
//! * every [`RecoveryLog::snapshot_interval`] writes the log accepts a
//!   copy-on-write checkpoint [`Snapshot`] of the cluster state, so a
//!   joining backend receives {checkpoint, delta tail} — O(delta) —
//!   instead of replaying the entire history. The *simulated* resync
//!   latency still follows the full entry backlog ([`SyncPlan::backlog`]),
//!   keeping virtual-time trajectories identical to the full-replay
//!   implementation (the digest-neutral contract).
//!
//! The log holds exactly what a late joiner can still be handed: **one**
//! checkpoint and the entries at or past its position. Installing a
//! checkpoint replaces the previous one and drops the entries it covers
//! (C-JDBC's own dump-plus-checkpoint procedure), so memory is bounded
//! by the checkpoint interval, not by how long the cluster has run.
//! Indices stay global: [`RecoveryLog::head`] counts every write ever
//! logged, and the invariant is *checkpoint + retained log = current
//! state*. A range below [`RecoveryLog::first_retained`] no longer
//! exists as entries — [`RecoveryLog::entries_from`] answers `None`, and
//! [`RecoveryLog::sync_plan`] answers with the checkpoint.

use crate::sql::{Schema, Statement};
use crate::storage::{Snapshot, WriteDelta};
use std::sync::Arc;

/// What [`crate::cjdbc::CjdbcController::begin_enable`] and
/// [`finish_replay`](crate::cjdbc::CjdbcController::finish_replay) hand a
/// joining backend: either the delta tail alone (applied onto the
/// backend's retained state) or the checkpoint plus the tail past it.
#[derive(Debug, Clone, Default)]
pub struct SyncPlan {
    /// `(position, snapshot)`: replace the backend's state with the
    /// snapshot covering log entries `< position`, then apply `entries`.
    /// `None`: the backend's own state is current up to its checkpoint —
    /// apply `entries` directly.
    pub snapshot: Option<(u64, Snapshot)>,
    /// Delta tail to apply, in log order, `Arc`-shared with the log.
    pub entries: Vec<Arc<WriteDelta>>,
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

/// Log of the writes accepted by the clustered database since its one
/// checkpoint (see the module docs for the retention contract).
#[derive(Debug, Clone)]
pub struct RecoveryLog {
    /// The retained suffix: `entries[i]` is the write at global index
    /// `first_retained + i`, `Arc`-shared with the broadcast that
    /// produced it.
    entries: Vec<Arc<WriteDelta>>,
    /// Global index of `entries[0]` — the checkpoint's position, 0 until
    /// the first checkpoint is installed.
    first_retained: u64,
    /// Snapshot of the cluster state covering entries `< first_retained`.
    checkpoint: Option<Snapshot>,
    snapshot_interval: u64,
}

impl RecoveryLog {
    /// Creates an empty log. The schema is unused; ROADMAP 1a retires it.
    pub fn new(_schema: Arc<Schema>) -> Self {
        RecoveryLog {
            entries: Vec::new(),
            first_retained: 0,
            checkpoint: None,
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
        }
    }

    /// Appends the delta a write's primary captured, returning the
    /// write's global index.
    pub fn append(&mut self, delta: Arc<WriteDelta>) -> u64 {
        let index = self.head();
        self.entries.push(delta);
        index
    }

    /// [`RecoveryLog::append`] with an ignored statement; ROADMAP 1a
    /// retires it.
    pub fn append_captured(&mut self, _statement: Arc<Statement>, delta: Arc<WriteDelta>) -> u64 {
        self.append(delta)
    }

    /// Index one past the last logged write (== number of writes ever
    /// logged, truncated ones included).
    pub fn head(&self) -> u64 {
        self.first_retained + self.entries.len() as u64
    }

    /// Global index of the oldest entry still held (== the checkpoint's
    /// position; 0 while there is no checkpoint).
    pub fn first_retained(&self) -> u64 {
        self.first_retained
    }

    /// Number of entries held (`head() - first_retained()`), bounded by
    /// the snapshot interval when checkpoints are installed on cadence.
    pub fn retained_len(&self) -> usize {
        self.entries.len()
    }

    /// Entries with index `>= from` in order — "the exact set of write
    /// requests to replay" on a stale replica whose checkpoint is `from`.
    /// `None` when `from` lies below [`RecoveryLog::first_retained`]: the
    /// checkpoint covers that range and the entries are gone, so a
    /// shorter slice would silently skip writes.
    pub fn entries_from(&self, from: u64) -> Option<&[Arc<WriteDelta>]> {
        let skip = from.checked_sub(self.first_retained)?;
        Some(&self.entries[skip.min(self.entries.len() as u64) as usize..])
    }

    /// Number of writes a replica checkpointed at `from` is missing.
    pub fn backlog(&self, from: u64) -> u64 {
        self.head().saturating_sub(from)
    }

    // ------------------------------------------------------------------
    // The checkpoint
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
        self.entries.len() as u64 >= self.snapshot_interval
    }

    /// Records a checkpoint snapshot of the cluster state at the current
    /// head (the snapshot must reflect every logged write). It replaces
    /// the previous checkpoint, and the entries it covers — all retained
    /// ones — are dropped; the buffer keeps its capacity.
    pub fn install_snapshot(&mut self, snapshot: Snapshot) {
        self.first_retained = self.head();
        self.entries.clear();
        self.checkpoint = Some(snapshot);
    }

    /// The checkpoint, if one was installed: `(position, snapshot)`, the
    /// snapshot covering every entry `< position`.
    pub fn checkpoint_snapshot(&self) -> Option<(u64, &Snapshot)> {
        self.checkpoint.as_ref().map(|s| (self.first_retained, s))
    }

    /// Builds the reconciliation plan for a backend checkpointed at
    /// `from`: the plain tail when the log still holds it, otherwise the
    /// checkpoint plus everything retained past it. `backlog` always
    /// reflects the full `head - from` (see [`SyncPlan::backlog`]).
    pub fn sync_plan(&self, from: u64) -> SyncPlan {
        let (snapshot, tail) = match self.entries_from(from) {
            Some(tail) => (None, tail),
            // Only a checkpoint moves `first_retained` past 0.
            None => (
                self.checkpoint_snapshot().map(|(p, s)| (p, s.clone())),
                &self.entries[..],
            ),
        };
        SyncPlan {
            snapshot,
            entries: tail.to_vec(),
            backlog: self.backlog(from),
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

    /// An empty database holding table `t`.
    fn db() -> Database {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db
    }

    /// Executes `INSERT INTO t SET a=i` on `db` (which assigns it key
    /// `i` when the writes are numbered from 0) and logs the captured
    /// delta, returning its index.
    fn write_through(log: &mut RecoveryLog, db: &mut Database, i: i64) -> u64 {
        let stmt = schema().insert("t", &[("a", Value::Int(i))]);
        let (_, delta) = db.execute_capture(&stmt).unwrap();
        log.append(Arc::new(delta))
    }

    /// The key a logged insert landed at.
    fn key(delta: &WriteDelta) -> u64 {
        match delta {
            WriteDelta::Insert { key, .. } => *key,
            other => panic!("not an insert: {other:?}"),
        }
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let (mut log, mut db) = (RecoveryLog::new(schema()), db());
        assert_eq!(write_through(&mut log, &mut db, 0), 0);
        assert_eq!(write_through(&mut log, &mut db, 1), 1);
        assert_eq!(log.head(), 2);
        let tail = log.entries_from(1).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(key(&tail[0]), 1);
        assert_eq!(log.backlog(0), 2);
        assert_eq!(log.backlog(2), 0);
        assert_eq!(log.backlog(99), 0);
    }

    /// Appends `n` writes to `log` and `db`, installing a checkpoint
    /// whenever one is due (the legacy layer's cadence).
    fn append_on_cadence(log: &mut RecoveryLog, db: &mut Database, n: i64) {
        for i in 0..n {
            assert_eq!(write_through(log, db, i), i as u64, "indices stay global");
            if log.snapshot_due() {
                log.install_snapshot(db.snapshot());
            }
            assert!(log.retained_len() as u64 <= log.snapshot_interval());
        }
    }

    #[test]
    fn snapshot_cadence_keeps_one_checkpoint() {
        let (mut log, mut db) = (RecoveryLog::new(schema()), db());
        log.set_snapshot_interval(4);
        assert!(!log.snapshot_due(), "empty log needs no snapshot");
        assert!(log.checkpoint_snapshot().is_none());
        append_on_cadence(&mut log, &mut db, 10);
        // Checkpoints landed at 4 and 8; only the one at 8 is held, with
        // the two entries past it.
        assert_eq!(log.checkpoint_snapshot().map(|(p, _)| p), Some(8));
        assert_eq!(log.first_retained(), 8);
        assert_eq!(log.retained_len(), 2);
        assert_eq!(log.entries_from(8).map(<[_]>::len), Some(2));
        assert!(!log.snapshot_due(), "2 of 4 writes since the checkpoint");
    }

    #[test]
    fn truncation_bounds_memory_and_keeps_global_indices() {
        let (mut log, mut db) = (RecoveryLog::new(schema()), db());
        log.set_snapshot_interval(8);
        let n = 50 * 8 + 3;
        append_on_cadence(&mut log, &mut db, n);
        // head/backlog are what an untruncated log would report.
        assert_eq!(log.head(), n as u64);
        assert_eq!(log.backlog(0), n as u64);
        assert_eq!(log.backlog(390), 13);
        assert_eq!(log.backlog(n as u64 + 9), 0);
        assert_eq!((log.first_retained(), log.retained_len()), (400, 3));
        // A truncated range is not answered by a shorter slice …
        assert!(log.entries_from(399).is_none());
        assert_eq!(key(&log.entries_from(400).unwrap()[0]), 400);
        assert_eq!(log.entries_from(402).unwrap().len(), 1);
        assert!(log.entries_from(n as u64 + 9).unwrap().is_empty());
        // … but by the checkpoint, which with the tail is the current
        // state.
        let plan = log.sync_plan(399);
        let (pos, snap) = plan.snapshot.expect("checkpoint covers 399");
        assert_eq!((pos, plan.entries.len(), plan.backlog), (400, 3, 4));
        let mut joiner = Database::from_snapshot(&snap);
        for delta in &plan.entries {
            joiner.apply_delta(delta).unwrap();
        }
        assert_eq!(joiner.digest(), db.digest());
    }

    #[test]
    fn sync_plan_prefers_snapshot_but_reports_full_backlog() {
        let (mut log, mut db) = (RecoveryLog::new(schema()), db());
        log.set_snapshot_interval(4);
        append_on_cadence(&mut log, &mut db, 6);
        // Fresh joiner (checkpoint 0): snapshot at 4 + tail of 2, but the
        // latency model still sees all 6 entries.
        let plan = log.sync_plan(0);
        assert_eq!(plan.snapshot.as_ref().map(|(p, _)| *p), Some(4));
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.backlog, 6);
        // A backend checkpointed past the snapshot gets the plain tail.
        let plan = log.sync_plan(5);
        assert!(plan.snapshot.is_none());
        assert_eq!(plan.entries.iter().map(|d| key(d)).collect::<Vec<_>>(), [5]);
        assert_eq!(plan.backlog, 1);
        // Fully current: empty plan.
        assert!(log.sync_plan(6).is_empty());
    }
}
