//! C-JDBC: the database clustering middleware (paper §2, §4.1).
//!
//! C-JDBC "plays the role of load balancer and replication consistency
//! manager, each server containing a full copy of the whole database (full
//! mirroring)" — RAIDb-1. This module implements:
//!
//! * backend membership with the Active / Syncing / Disabled life-cycle,
//! * read distribution over active backends (Round-Robin, Random or
//!   Least-Pending scheduling),
//! * write broadcast to all active backends, every write appended to the
//!   [`crate::recovery::RecoveryLog`]. The first active backend in id
//!   order is the deterministic *primary*: it executes the write once
//!   and captures a [`WriteDelta`] that the remaining replicas apply
//!   without re-evaluating,
//! * state reconciliation: a joining backend receives a [`SyncPlan`] —
//!   the exact log suffix it is missing while the log still retains it,
//!   else the log's one checkpoint plus the delta tail past it (possibly
//!   in several batches if writes keep arriving, each batch planned the
//!   same way) — and a leaving backend records its checkpoint index.

use crate::recovery::{RecoveryLog, SyncPlan};
use crate::server::ServerId;
use crate::sql::{Schema, Statement};
use crate::storage::{Snapshot, WriteDelta};
use jade_sim::SimRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Read-scheduling policy across active backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Cycle through active backends.
    RoundRobin,
    /// Uniform random choice.
    Random,
    /// Backend with the fewest in-flight queries (C-JDBC's default
    /// `LeastPendingRequestsFirst`).
    LeastPending,
}

/// Membership state of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendStatus {
    /// Receiving reads and writes.
    Active,
    /// Replaying the recovery log to catch up; receives no traffic.
    Syncing,
    /// Out of the cluster; its checkpoint index is retained.
    Disabled,
}

#[derive(Debug, Clone)]
struct Backend {
    status: BackendStatus,
    /// Index of the next log entry this backend has NOT applied.
    checkpoint: u64,
    /// Highest log index known to be *applied* on the backend (trails
    /// `checkpoint` during a sync; equal to it otherwise). An aborted
    /// sync falls back to this.
    applied: u64,
    pending: usize,
}

/// Errors from cluster membership operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CjdbcError {
    /// The server is not a registered backend.
    UnknownBackend(ServerId),
    /// Operation invalid for the backend's current status.
    WrongStatus(ServerId, BackendStatus),
    /// No active backend can serve the request.
    NoActiveBackend,
}

impl std::fmt::Display for CjdbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CjdbcError::UnknownBackend(id) => write!(f, "unknown backend {id:?}"),
            CjdbcError::WrongStatus(id, s) => {
                write!(f, "backend {id:?} is in status {s:?}")
            }
            CjdbcError::NoActiveBackend => write!(f, "no active database backend"),
        }
    }
}

impl std::error::Error for CjdbcError {}

/// The C-JDBC controller state.
#[derive(Debug)]
pub struct CjdbcController {
    backends: BTreeMap<ServerId, Backend>,
    log: RecoveryLog,
    policy: ReadPolicy,
    rr_cursor: usize,
}

impl CjdbcController {
    /// Creates a controller with the given read policy over the cluster's
    /// database schema (used to render logged writes).
    pub fn new(policy: ReadPolicy, schema: Arc<Schema>) -> Self {
        CjdbcController {
            backends: BTreeMap::new(),
            log: RecoveryLog::new(schema),
            policy,
            rr_cursor: 0,
        }
    }

    /// The configured read policy.
    pub fn policy(&self) -> ReadPolicy {
        self.policy
    }

    /// Changes the read policy at run time.
    pub fn set_policy(&mut self, policy: ReadPolicy) {
        self.policy = policy;
    }

    /// Read access to the recovery log.
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.log
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Registers a backend in `Disabled` state with checkpoint 0 (a fresh
    /// replica knows nothing).
    pub fn register_backend(&mut self, server: ServerId) {
        self.backends.entry(server).or_insert(Backend {
            status: BackendStatus::Disabled,
            checkpoint: 0,
            applied: 0,
            pending: 0,
        });
    }

    /// Removes a backend entirely (node released).
    pub fn unregister_backend(&mut self, server: ServerId) {
        self.backends.remove(&server);
    }

    /// Starts enabling a disabled backend: moves it to `Syncing` and
    /// returns the [`SyncPlan`] it must apply — the plain log suffix
    /// while the log retains it, the checkpoint plus delta tail
    /// otherwise. An empty plan means it can be activated immediately (the
    /// caller should still call [`CjdbcController::finish_replay`]).
    pub fn begin_enable(&mut self, server: ServerId) -> Result<SyncPlan, CjdbcError> {
        let head = self.log.head();
        let b = self
            .backends
            .get_mut(&server)
            .ok_or(CjdbcError::UnknownBackend(server))?;
        if b.status != BackendStatus::Disabled {
            return Err(CjdbcError::WrongStatus(server, b.status));
        }
        b.status = BackendStatus::Syncing;
        let from = b.checkpoint;
        b.applied = from;
        b.checkpoint = head; // will have applied up to head once replay ends
        Ok(self.log.sync_plan(from))
    }

    /// Aborts an in-progress enable: the backend returns to `Disabled`
    /// at its last *applied* index. Batches handed out but not yet
    /// acknowledged through [`CjdbcController::finish_replay`] do not
    /// count — the caller must discard them.
    pub fn abort_enable(&mut self, server: ServerId) -> Result<(), CjdbcError> {
        let b = self
            .backends
            .get_mut(&server)
            .ok_or(CjdbcError::UnknownBackend(server))?;
        if b.status != BackendStatus::Syncing {
            return Err(CjdbcError::WrongStatus(server, b.status));
        }
        b.status = BackendStatus::Disabled;
        b.checkpoint = b.applied;
        b.pending = 0;
        Ok(())
    }

    /// Completes one replay batch. If more writes arrived since the batch
    /// was taken, returns the next batch — planned like the first, so a
    /// checkpoint installed meanwhile (which truncated the entries the
    /// backend still misses) is served as {checkpoint, tail}; otherwise
    /// the backend becomes `Active` and `None` is returned.
    pub fn finish_replay(&mut self, server: ServerId) -> Result<Option<SyncPlan>, CjdbcError> {
        let head = self.log.head();
        let b = self
            .backends
            .get_mut(&server)
            .ok_or(CjdbcError::UnknownBackend(server))?;
        if b.status != BackendStatus::Syncing {
            return Err(CjdbcError::WrongStatus(server, b.status));
        }
        // Everything up to the current checkpoint has now been applied.
        b.applied = b.checkpoint;
        if b.checkpoint < head {
            let from = b.checkpoint;
            b.checkpoint = head;
            Ok(Some(self.log.sync_plan(from)))
        } else {
            b.status = BackendStatus::Active;
            Ok(None)
        }
    }

    /// Disables an active backend, recording its checkpoint ("the index
    /// value in the recovery log corresponding to the last write request
    /// that it has executed before being disabled", §4.1).
    pub fn disable_backend(&mut self, server: ServerId) -> Result<(), CjdbcError> {
        let head = self.log.head();
        let b = self
            .backends
            .get_mut(&server)
            .ok_or(CjdbcError::UnknownBackend(server))?;
        if b.status != BackendStatus::Active {
            return Err(CjdbcError::WrongStatus(server, b.status));
        }
        b.status = BackendStatus::Disabled;
        b.checkpoint = head;
        b.applied = head;
        b.pending = 0;
        Ok(())
    }

    /// Marks a backend failed: drops it to `Disabled` with its checkpoint
    /// *reset to zero* — a crashed replica's disk state is not trusted, it
    /// must perform a full resync (conservative model).
    pub fn fail_backend(&mut self, server: ServerId) -> Result<(), CjdbcError> {
        let b = self
            .backends
            .get_mut(&server)
            .ok_or(CjdbcError::UnknownBackend(server))?;
        b.status = BackendStatus::Disabled;
        b.checkpoint = 0;
        b.applied = 0;
        b.pending = 0;
        Ok(())
    }

    /// Status of one backend.
    pub fn status(&self, server: ServerId) -> Result<BackendStatus, CjdbcError> {
        self.backends
            .get(&server)
            .map(|b| b.status)
            .ok_or(CjdbcError::UnknownBackend(server))
    }

    /// Checkpoint (next-unapplied log index) of one backend.
    pub fn checkpoint(&self, server: ServerId) -> Result<u64, CjdbcError> {
        self.backends
            .get(&server)
            .map(|b| b.checkpoint)
            .ok_or(CjdbcError::UnknownBackend(server))
    }

    /// Active backends in id order.
    pub fn active_backends(&self) -> Vec<ServerId> {
        self.backends
            .iter()
            .filter(|(_, b)| b.status == BackendStatus::Active)
            .map(|(&id, _)| id)
            .collect()
    }

    /// All registered backends in id order.
    pub fn backends(&self) -> Vec<ServerId> {
        self.backends.keys().copied().collect()
    }

    /// Number of active backends.
    pub fn active_count(&self) -> usize {
        self.backends
            .values()
            .filter(|b| b.status == BackendStatus::Active)
            .count()
    }

    // ------------------------------------------------------------------
    // Request routing
    // ------------------------------------------------------------------

    /// Routes a read to one active backend according to the policy,
    /// choosing over the backend map in id order without materializing
    /// the active set. Least-pending takes the first backend with the
    /// fewest pending in one pass; round robin and random take the n-th
    /// active one, where n depends on the active count (a count, then a
    /// partial pass). Random draws once, and only if a backend is active.
    pub fn route_read(&mut self, rng: &mut SimRng) -> Result<ServerId, CjdbcError> {
        let chosen = match self.policy {
            ReadPolicy::LeastPending => {
                active_mut(&mut self.backends).min_by_key(|(_, b)| b.pending)
            }
            ReadPolicy::RoundRobin => match self.active_count() {
                0 => None,
                n_active => {
                    let n = self.rr_cursor % n_active;
                    self.rr_cursor = (self.rr_cursor + 1) % n_active;
                    active_mut(&mut self.backends).nth(n)
                }
            },
            ReadPolicy::Random => match self.active_count() {
                0 => None,
                n_active => active_mut(&mut self.backends).nth(rng.below(n_active)),
            },
        };
        let (&id, backend) = chosen.ok_or(CjdbcError::NoActiveBackend)?;
        backend.pending += 1;
        Ok(id)
    }

    /// The deterministic write primary: the first active backend in id
    /// order. It executes each broadcast write once (capturing the delta
    /// the other replicas apply); `BTreeMap` iteration makes the choice
    /// stable across runs regardless of membership history.
    pub fn write_primary(&self) -> Option<ServerId> {
        self.backends
            .iter()
            .find(|(_, b)| b.status == BackendStatus::Active)
            .map(|(&id, _)| id)
    }

    /// Routes a write: appends it to the recovery log, together with the
    /// delta its primary captured if any, and fills `out` with the active
    /// backends that must execute it (write broadcast, id order, so
    /// `out[0]` is the write primary). The statement is `Arc`-shared —
    /// broadcasting to N mirrored backends and logging it performs zero
    /// statement clones, and reusing `out` keeps the steady-state write
    /// path allocation-free. All active backends' checkpoints advance — in
    /// this deterministic model the broadcast is applied atomically with
    /// respect to membership changes.
    // jade-audit: allow(hot-panic): the ids in `out` were collected from
    // the backend map a few lines above; the expect restates that.
    pub fn route_write_into(
        &mut self,
        stmt: Arc<Statement>,
        delta: Option<Arc<WriteDelta>>,
        out: &mut Vec<ServerId>,
    ) -> Result<u64, CjdbcError> {
        out.clear();
        out.extend(
            self.backends
                .iter()
                .filter(|(_, b)| b.status == BackendStatus::Active)
                .map(|(&id, _)| id),
        );
        if out.is_empty() {
            return Err(CjdbcError::NoActiveBackend);
        }
        let index = match delta {
            Some(delta) => self.log.append_captured(stmt, delta),
            None => self.log.append(stmt),
        };
        for id in out.iter() {
            let b = self.backends.get_mut(id).expect("active is known");
            b.checkpoint = index + 1;
            b.applied = index + 1;
            b.pending += 1;
        }
        Ok(index)
    }

    // ------------------------------------------------------------------
    // Checkpoint snapshots (delegated to the recovery log)
    // ------------------------------------------------------------------

    /// True when the log wants a fresh checkpoint snapshot installed.
    pub fn snapshot_due(&self) -> bool {
        self.log.snapshot_due()
    }

    /// Installs a checkpoint snapshot of the cluster state at the current
    /// log head (taken from any up-to-date backend — all active replicas
    /// are identical under full mirroring).
    pub fn install_snapshot(&mut self, snapshot: Snapshot) {
        self.log.install_snapshot(snapshot);
    }

    /// Reconfigures the checkpoint snapshot cadence.
    pub fn set_snapshot_interval(&mut self, every: u64) {
        self.log.set_snapshot_interval(every);
    }

    /// Records completion of a query on a backend (pending accounting for
    /// the Least-Pending policy).
    pub fn note_complete(&mut self, server: ServerId) {
        if let Some(b) = self.backends.get_mut(&server) {
            b.pending = b.pending.saturating_sub(1);
        }
    }

    /// In-flight queries on a backend.
    pub fn pending(&self, server: ServerId) -> usize {
        self.backends.get(&server).map(|b| b.pending).unwrap_or(0)
    }
}

/// The active backends in id order, mutably (a free function so callers
/// can keep using the controller's other fields).
fn active_mut(
    backends: &mut BTreeMap<ServerId, Backend>,
) -> impl Iterator<Item = (&ServerId, &mut Backend)> {
    backends
        .iter_mut()
        .filter(|(_, b)| b.status == BackendStatus::Active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Value;
    use crate::storage::Database;

    fn schema() -> Arc<Schema> {
        Schema::builder().table("t", &["a"]).build()
    }

    fn write(i: i64) -> Arc<Statement> {
        Arc::new(schema().insert("t", &[("a", Value::Int(i))]))
    }

    /// Logs a statement-only write and returns its index and broadcast set.
    fn broadcast_write(
        c: &mut CjdbcController,
        stmt: Arc<Statement>,
    ) -> Result<(u64, Vec<ServerId>), CjdbcError> {
        let mut targets = Vec::new();
        let index = c.route_write_into(stmt, None, &mut targets)?;
        Ok((index, targets))
    }

    fn controller_with_active(n: u32) -> CjdbcController {
        let mut c = CjdbcController::new(ReadPolicy::RoundRobin, schema());
        for i in 0..n {
            let id = ServerId(i);
            c.register_backend(id);
            let plan = c.begin_enable(id).unwrap();
            assert!(plan.is_empty());
            assert!(c.finish_replay(id).unwrap().is_none());
        }
        c
    }

    #[test]
    fn fresh_backends_activate_without_replay() {
        let c = controller_with_active(2);
        assert_eq!(c.active_count(), 2);
    }

    #[test]
    fn writes_broadcast_to_all_active() {
        let mut c = controller_with_active(3);
        let (idx, targets) = broadcast_write(&mut c, write(1)).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(targets.len(), 3);
        assert_eq!(c.recovery_log().head(), 1);
    }

    #[test]
    fn round_robin_cycles() {
        let mut c = controller_with_active(3);
        let mut rng = SimRng::seed_from_u64(1);
        let picks: Vec<ServerId> = (0..6).map(|_| c.route_read(&mut rng).unwrap()).collect();
        assert_eq!(picks[0], picks[3]);
        assert_eq!(picks[1], picks[4]);
        assert_ne!(picks[0], picks[1]);
    }

    #[test]
    fn least_pending_prefers_idle_backend() {
        let mut c = controller_with_active(2);
        c.set_policy(ReadPolicy::LeastPending);
        let mut rng = SimRng::seed_from_u64(1);
        let first = c.route_read(&mut rng).unwrap();
        // Backend `first` now has 1 pending; next read goes elsewhere.
        let second = c.route_read(&mut rng).unwrap();
        assert_ne!(first, second);
        c.note_complete(first);
        c.note_complete(second);
        assert_eq!(c.pending(first), 0);
    }

    /// `route_read` as it was written over a materialized snapshot of
    /// the active set: the reference the allocation-free choice must match.
    fn snapshot_choice(c: &CjdbcController, rng: &mut SimRng) -> Option<ServerId> {
        let active = c.active_backends();
        if active.is_empty() {
            return None;
        }
        Some(match c.policy {
            ReadPolicy::RoundRobin => active[c.rr_cursor % active.len()],
            ReadPolicy::Random => active[rng.below(active.len())],
            ReadPolicy::LeastPending => active
                .iter()
                .copied()
                .min_by_key(|id| c.backends[id].pending)
                .unwrap(),
        })
    }

    #[test]
    fn route_read_matches_the_snapshot_based_choice() {
        for policy in [
            ReadPolicy::RoundRobin,
            ReadPolicy::Random,
            ReadPolicy::LeastPending,
        ] {
            let mut c = controller_with_active(5);
            c.set_policy(policy);
            let mut driver = SimRng::seed_from_u64(42);
            // Twin streams: one drawn by `route_read`, one by the reference.
            let (mut rng, mut ref_rng) = (SimRng::seed_from_u64(9), SimRng::seed_from_u64(9));
            for step in 0..2000 {
                let id = ServerId(jade_sim::id_u32(driver.below(5)));
                match driver.below(8) {
                    0 => {
                        let _ = c.disable_backend(id);
                    }
                    1 => {
                        let _ = c.fail_backend(id);
                    }
                    2 | 3 if c.begin_enable(id).is_ok() => {
                        c.finish_replay(id).unwrap();
                    }
                    4 => c.note_complete(id),
                    _ => {}
                }
                let expect = snapshot_choice(&c, &mut ref_rng).ok_or(CjdbcError::NoActiveBackend);
                let expect_pending = expect.clone().map(|id| c.pending(id) + 1);
                let expect_cursor = match (policy, c.active_count()) {
                    (ReadPolicy::RoundRobin, n @ 1..) => (c.rr_cursor + 1) % n,
                    _ => c.rr_cursor,
                };
                let got = c.route_read(&mut rng);
                assert_eq!(got, expect, "{policy:?} step {step}");
                assert_eq!(got.map(|id| c.pending(id)), expect_pending);
                assert_eq!(c.rr_cursor, expect_cursor);
            }
            // Same number of draws on both streams (one per Random read).
            assert_eq!(rng.below(1 << 30), ref_rng.below(1 << 30));
        }
    }

    #[test]
    fn read_with_no_active_backend_fails() {
        let mut c = CjdbcController::new(ReadPolicy::Random, schema());
        c.register_backend(ServerId(0));
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(c.route_read(&mut rng), Err(CjdbcError::NoActiveBackend));
    }

    #[test]
    fn late_joiner_gets_exact_backlog() {
        let mut c = controller_with_active(1);
        for i in 0..5 {
            broadcast_write(&mut c, write(i)).unwrap();
        }
        let id = ServerId(9);
        c.register_backend(id);
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.entries.len(), 5);
        assert_eq!(plan.backlog, 5);
        assert_eq!(plan.entries[0].index, 0);
        assert_eq!(plan.entries[4].index, 4);
        assert!(c.finish_replay(id).unwrap().is_none());
        assert_eq!(c.status(id).unwrap(), BackendStatus::Active);
    }

    #[test]
    fn writes_during_sync_produce_second_batch() {
        let mut c = controller_with_active(1);
        broadcast_write(&mut c, write(0)).unwrap();
        let id = ServerId(9);
        c.register_backend(id);
        let batch1 = c.begin_enable(id).unwrap();
        assert_eq!(batch1.entries.len(), 1);
        // A write lands while the new backend replays batch 1. It goes to
        // the active backend only (the syncing one is not in the broadcast
        // set).
        let (_, targets) = broadcast_write(&mut c, write(1)).unwrap();
        assert!(!targets.contains(&id));
        let batch2 = c.finish_replay(id).unwrap().expect("second batch");
        assert!(
            batch2.snapshot.is_none(),
            "no checkpoint landed: the log still retains the tail"
        );
        assert_eq!(batch2.entries.len(), 1);
        assert_eq!(batch2.entries[0].index, 1);
        assert!(c.finish_replay(id).unwrap().is_none());
        assert_eq!(c.status(id).unwrap(), BackendStatus::Active);
    }

    #[test]
    fn disable_records_checkpoint_and_reenable_replays_only_missing() {
        let mut c = controller_with_active(2);
        broadcast_write(&mut c, write(0)).unwrap();
        c.disable_backend(ServerId(1)).unwrap();
        assert_eq!(c.checkpoint(ServerId(1)).unwrap(), 1);
        // Two writes happen while disabled.
        broadcast_write(&mut c, write(1)).unwrap();
        broadcast_write(&mut c, write(2)).unwrap();
        let plan = c.begin_enable(ServerId(1)).unwrap();
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.entries[0].index, 1);
    }

    #[test]
    fn failed_backend_resyncs_from_scratch() {
        let mut c = controller_with_active(2);
        broadcast_write(&mut c, write(0)).unwrap();
        c.fail_backend(ServerId(1)).unwrap();
        assert_eq!(c.checkpoint(ServerId(1)).unwrap(), 0);
        let plan = c.begin_enable(ServerId(1)).unwrap();
        assert_eq!(plan.entries.len(), 1, "full log replayed after failure");
    }

    #[test]
    fn abort_enable_restores_the_applied_checkpoint() {
        let mut c = controller_with_active(1);
        for i in 0..4 {
            broadcast_write(&mut c, write(i)).unwrap();
        }
        let id = ServerId(9);
        c.register_backend(id);
        // Begin: batch covers entries 0..4; abort before acknowledging.
        let batch = c.begin_enable(id).unwrap();
        assert_eq!(batch.entries.len(), 4);
        c.abort_enable(id).unwrap();
        assert_eq!(c.status(id).unwrap(), BackendStatus::Disabled);
        assert_eq!(c.checkpoint(id).unwrap(), 0, "nothing acknowledged");
        // Re-enable replays the same suffix — no entry lost or doubled.
        let batch = c.begin_enable(id).unwrap();
        assert_eq!(batch.entries.len(), 4);
        // Acknowledge the first batch, then writes arrive, then abort:
        // the checkpoint keeps the acknowledged prefix.
        let (_, _) = broadcast_write(&mut c, write(100)).unwrap();
        let next = c.finish_replay(id).unwrap().expect("second batch");
        assert_eq!(next.entries.len(), 1);
        c.abort_enable(id).unwrap();
        assert_eq!(c.checkpoint(id).unwrap(), 4, "first batch acknowledged");
        // Final enable replays only the unacknowledged suffix.
        let batch = c.begin_enable(id).unwrap();
        assert_eq!(batch.entries.len(), 1);
        assert_eq!(batch.entries[0].index, 4);
    }

    #[test]
    fn disable_then_reenable_replays_only_the_gap() {
        // The paper's §4.1 symmetric removal: disable keeps the trace.
        let mut c = controller_with_active(2);
        broadcast_write(&mut c, write(0)).unwrap();
        c.disable_backend(ServerId(1)).unwrap();
        for i in 1..4 {
            broadcast_write(&mut c, write(i)).unwrap();
        }
        let plan = c.begin_enable(ServerId(1)).unwrap();
        let indices: Vec<u64> = plan.entries.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![1, 2, 3], "exactly the missed suffix");
    }

    #[test]
    fn primary_is_first_active_in_id_order() {
        let mut c = controller_with_active(3);
        assert_eq!(c.write_primary(), Some(ServerId(0)));
        // Disabling the primary promotes the next id deterministically.
        c.disable_backend(ServerId(0)).unwrap();
        assert_eq!(c.write_primary(), Some(ServerId(1)));
        c.disable_backend(ServerId(1)).unwrap();
        c.disable_backend(ServerId(2)).unwrap();
        assert_eq!(c.write_primary(), None);
    }

    #[test]
    fn route_write_into_reuses_scratch_and_orders_primary_first() {
        let mut c = controller_with_active(3);
        let mut scratch = vec![ServerId(99)]; // stale content must be cleared
        let idx = c.route_write_into(write(1), None, &mut scratch).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(scratch, vec![ServerId(0), ServerId(1), ServerId(2)]);
        assert_eq!(scratch[0], c.write_primary().unwrap());
        let idx = c.route_write_into(write(2), None, &mut scratch).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(scratch.len(), 3);
    }

    #[test]
    fn late_joiner_plan_uses_nearest_snapshot_with_full_backlog() {
        let mut c = controller_with_active(1);
        c.set_snapshot_interval(4);
        let mut db = Database::new(schema());
        db.execute(&schema().create_table("t")).unwrap();
        // The create-table broadcast is also a logged write.
        let (_, targets) = broadcast_write(&mut c, Arc::new(schema().create_table("t"))).unwrap();
        assert_eq!(targets.len(), 1);
        for i in 0..9 {
            let stmt = write(i);
            broadcast_write(&mut c, Arc::clone(&stmt)).unwrap();
            db.execute(&stmt).unwrap();
            if c.snapshot_due() {
                c.install_snapshot(db.snapshot());
            }
        }
        // 10 writes, checkpoints at 4 and 8 (the second replaced the
        // first): a fresh joiner restores the one at 8 and applies a
        // 2-entry tail, yet the latency model still sees the full
        // 10-entry backlog.
        let id = ServerId(9);
        c.register_backend(id);
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.snapshot.as_ref().map(|(p, _)| *p), Some(8));
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.backlog, 10);
        // Restoring + applying the tail converges to the live state.
        let mut joiner = Database::new(schema());
        apply_batch(&mut joiner, &plan);
        assert_eq!(joiner.digest(), db.digest());
    }

    /// Routes write `i` to the single active backend whose state is
    /// `db`, checkpointing on cadence like the legacy layer does.
    fn write_through(c: &mut CjdbcController, db: &mut Database, i: i64) {
        let stmt = write(i);
        broadcast_write(c, Arc::clone(&stmt)).unwrap();
        db.execute(&stmt).unwrap();
        if c.snapshot_due() {
            c.install_snapshot(db.snapshot());
        }
    }

    /// What the legacy layer does with a replay batch.
    fn apply_batch(joiner: &mut Database, plan: &SyncPlan) {
        if let Some((pos, snap)) = &plan.snapshot {
            *joiner = Database::from_snapshot(snap);
            assert!(plan.entries.iter().all(|e| e.index >= *pos));
        }
        for entry in &plan.entries {
            joiner.execute(&entry.statement).unwrap();
        }
    }

    /// One active backend over a database holding table `t`, checkpoint
    /// interval 4; returns the base image a joiner starts from as well.
    fn truncating_cluster() -> (CjdbcController, Database, Database) {
        let mut c = controller_with_active(1);
        c.set_snapshot_interval(4);
        let mut db = Database::new(schema());
        db.execute(&schema().create_table("t")).unwrap();
        let base = db.clone();
        (c, db, base)
    }

    #[test]
    fn checkpoint_during_sync_is_served_by_the_second_batch() {
        let (mut c, mut db, mut joiner) = truncating_cluster();
        for i in 0..2 {
            write_through(&mut c, &mut db, i);
        }
        let id = ServerId(9);
        c.register_backend(id);
        let batch1 = c.begin_enable(id).unwrap();
        assert!(batch1.snapshot.is_none());
        assert_eq!(batch1.entries.len(), 2);
        // While batch 1 replays, the checkpoint at 4 lands and truncates
        // entries 2 and 3, which the joiner has not seen.
        for i in 2..5 {
            write_through(&mut c, &mut db, i);
        }
        assert_eq!(c.recovery_log().first_retained(), 4);
        apply_batch(&mut joiner, &batch1);
        let batch2 = c.finish_replay(id).unwrap().expect("second batch");
        assert_eq!(batch2.snapshot.as_ref().map(|(p, _)| *p), Some(4));
        assert_eq!(batch2.entries.len(), 1);
        assert_eq!(batch2.entries[0].index, 4);
        assert_eq!(batch2.backlog, 3, "latency still models entries 2..5");
        apply_batch(&mut joiner, &batch2);
        assert!(c.finish_replay(id).unwrap().is_none());
        assert_eq!(c.status(id).unwrap(), BackendStatus::Active);
        assert_eq!(joiner.digest(), db.digest());
    }

    #[test]
    fn reenable_across_a_checkpoint_after_abort_and_after_disable() {
        let (mut c, mut db, mut joiner) = truncating_cluster();
        for i in 0..2 {
            write_through(&mut c, &mut db, i);
        }
        let id = ServerId(9);
        c.register_backend(id);
        // Batch handed out, never applied nor acknowledged.
        assert_eq!(c.begin_enable(id).unwrap().entries.len(), 2);
        c.abort_enable(id).unwrap();
        for i in 2..5 {
            write_through(&mut c, &mut db, i);
        }
        // Checkpoint 0 now lies below the first retained index (4).
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.snapshot.as_ref().map(|(p, _)| *p), Some(4));
        assert_eq!((plan.entries.len(), plan.backlog), (1, 5));
        apply_batch(&mut joiner, &plan);
        assert!(c.finish_replay(id).unwrap().is_none());
        assert_eq!(joiner.digest(), db.digest());
        // Disabled at 5, it misses 5..9 while the checkpoint moves to 8.
        c.disable_backend(id).unwrap();
        for i in 5..9 {
            write_through(&mut c, &mut db, i);
        }
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.snapshot.as_ref().map(|(p, _)| *p), Some(8));
        assert_eq!((plan.entries.len(), plan.backlog), (1, 4));
        apply_batch(&mut joiner, &plan);
        assert!(c.finish_replay(id).unwrap().is_none());
        assert_eq!(joiner.digest(), db.digest());
    }

    // Satellite: membership edge cases the delta path must preserve.

    #[test]
    fn fail_during_syncing_discards_session_and_resets_checkpoint() {
        let mut c = controller_with_active(1);
        for i in 0..3 {
            broadcast_write(&mut c, write(i)).unwrap();
        }
        let id = ServerId(9);
        c.register_backend(id);
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(c.checkpoint(id).unwrap(), 3, "optimistic during sync");
        // The node dies mid-replay: nothing it applied is trusted.
        c.fail_backend(id).unwrap();
        assert_eq!(c.status(id).unwrap(), BackendStatus::Disabled);
        assert_eq!(c.checkpoint(id).unwrap(), 0);
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.entries.len(), 3, "full resync after failure");
    }

    #[test]
    fn abort_during_syncing_falls_back_to_applied() {
        // The graceful counterpart: an aborted enable keeps exactly the
        // acknowledged prefix (checkpoint falls back to `applied`).
        let mut c = controller_with_active(1);
        for i in 0..3 {
            broadcast_write(&mut c, write(i)).unwrap();
        }
        let id = ServerId(9);
        c.register_backend(id);
        c.begin_enable(id).unwrap();
        broadcast_write(&mut c, write(3)).unwrap();
        // First batch (3 entries) acknowledged; second (1 entry) handed
        // out but never acknowledged before the abort.
        assert!(c.finish_replay(id).unwrap().is_some());
        c.abort_enable(id).unwrap();
        assert_eq!(c.checkpoint(id).unwrap(), 3);
        let plan = c.begin_enable(id).unwrap();
        assert_eq!(plan.entries.len(), 1, "only the unacknowledged suffix");
        assert_eq!(plan.entries[0].index, 3);
    }

    #[test]
    fn fail_then_reregister_starts_from_scratch() {
        let mut c = controller_with_active(2);
        for i in 0..4 {
            broadcast_write(&mut c, write(i)).unwrap();
        }
        c.fail_backend(ServerId(1)).unwrap();
        // The node is released, then a replacement registers under the
        // same id: checkpoint must be 0, not inherited.
        c.unregister_backend(ServerId(1));
        c.register_backend(ServerId(1));
        assert_eq!(c.checkpoint(ServerId(1)).unwrap(), 0);
        let plan = c.begin_enable(ServerId(1)).unwrap();
        assert_eq!(plan.backlog, 4, "replays the whole history");
    }

    #[test]
    fn membership_errors() {
        let mut c = controller_with_active(1);
        assert!(matches!(
            c.begin_enable(ServerId(42)),
            Err(CjdbcError::UnknownBackend(_))
        ));
        assert!(matches!(
            c.begin_enable(ServerId(0)),
            Err(CjdbcError::WrongStatus(_, BackendStatus::Active))
        ));
        assert!(matches!(
            c.finish_replay(ServerId(0)),
            Err(CjdbcError::WrongStatus(_, BackendStatus::Active))
        ));
        c.disable_backend(ServerId(0)).unwrap();
        assert!(matches!(
            c.disable_backend(ServerId(0)),
            Err(CjdbcError::WrongStatus(_, BackendStatus::Disabled))
        ));
    }
}
