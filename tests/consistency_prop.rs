//! Property-based tests of the C-JDBC replication substrate: for
//! *arbitrary* interleavings of writes and backend membership churn, all
//! active replicas converge to identical database contents (paper §4.1's
//! recovery-log state reconciliation).

use jade_propcheck::{run, Gen};
use jade_tiers::cjdbc::{BackendStatus, CjdbcController, ReadPolicy};
use jade_tiers::sql::{Schema, Statement, Value};
use jade_tiers::storage::{Database, WriteDelta};
use jade_tiers::ServerId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One table with an indexed column, so membership churn also exercises
/// secondary-index maintenance through replay.
fn schema() -> Arc<Schema> {
    Schema::builder().table("t", &["a"]).index("t", "a").build()
}

/// Abstract operations the property generates.
#[derive(Debug, Clone)]
enum Op {
    /// Execute a write through the controller.
    Write(i64),
    /// Delete a (possibly missing) row.
    Delete(u64),
    /// Disable backend `i % backends` if active.
    Disable(u8),
    /// (Re-)enable backend `i % backends` if disabled, replaying the log.
    Enable(u8),
    /// Crash-fail backend `i % backends` (checkpoint reset).
    Fail(u8),
}

fn gen_op(g: &mut Gen) -> Op {
    match g.weighted(&[5, 2, 1, 2, 1]) {
        0 => Op::Write(g.i64()),
        1 => Op::Delete(g.u64(0..64)),
        2 => Op::Disable(g.u8()),
        3 => Op::Enable(g.u8()),
        _ => Op::Fail(g.u8()),
    }
}

/// A model cluster: the controller plus one real `Database` per backend,
/// with writes and replay applied exactly as the legacy layer does them.
struct Model {
    ctrl: CjdbcController,
    dbs: BTreeMap<ServerId, Database>,
    /// Every statement the controller accepted, in log order.
    accepted: Vec<Statement>,
}

impl Model {
    fn new(backends: u32) -> Self {
        let schema = schema();
        let mut ctrl = CjdbcController::new(ReadPolicy::RoundRobin, Arc::clone(&schema));
        let mut dbs = BTreeMap::new();
        for i in 0..backends {
            let id = ServerId(i);
            ctrl.register_backend(id);
            let replay = ctrl.begin_enable(id).unwrap();
            assert!(replay.is_empty());
            assert!(ctrl.finish_replay(id).unwrap().is_none());
            dbs.insert(id, Database::new(Arc::clone(&schema)));
        }
        let mut model = Model {
            ctrl,
            dbs,
            accepted: Vec::new(),
        };
        model.write(schema.create_table("t"));
        model
    }

    /// The primary executes the write and captures its delta (a `Noop`
    /// when the write fails); the log records it and every other active
    /// replica applies it.
    fn write(&mut self, stmt: Statement) {
        let Some(primary) = self.ctrl.write_primary() else {
            return;
        };
        let delta = self.dbs.get_mut(&primary).unwrap().execute_capture(&stmt);
        let delta = Arc::new(delta.map_or(WriteDelta::Noop, |(_, delta)| delta));
        let mut targets = Vec::new();
        self.ctrl
            .route_delta_into(Arc::clone(&delta), &mut targets)
            .expect("primary exists, so actives exist");
        self.accepted.push(stmt);
        for t in targets {
            if t != primary {
                self.dbs.get_mut(&t).unwrap().apply_delta(&delta).unwrap();
            }
            self.ctrl.note_complete(t);
        }
    }

    fn backend(&self, i: u8) -> ServerId {
        let ids: Vec<ServerId> = self.dbs.keys().copied().collect();
        ids[i as usize % ids.len()]
    }

    fn enable(&mut self, id: ServerId) {
        if self.ctrl.status(id) != Ok(BackendStatus::Disabled) {
            return;
        }
        let mut batch = self.ctrl.begin_enable(id).unwrap();
        loop {
            let db = self.dbs.get_mut(&id).unwrap();
            if let Some((_, snapshot)) = &batch.snapshot {
                *db = Database::from_snapshot(snapshot);
            }
            for delta in &batch.entries {
                db.apply_delta(delta).unwrap();
            }
            match self.ctrl.finish_replay(id).unwrap() {
                Some(next) => batch = next,
                None => break,
            }
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Write(v) => self.write(schema().insert("t", &[("a", Value::Int(*v))])),
            Op::Delete(k) => {
                let table = schema().must_table("t");
                self.write(Statement::Delete { table, key: *k });
            }
            Op::Disable(i) => {
                let id = self.backend(*i);
                // Never disable the last active backend (C-JDBC refuses
                // to drop below one; our reactor enforces min_replicas).
                if self.ctrl.active_count() > 1 {
                    let _ = self.ctrl.disable_backend(id);
                }
            }
            Op::Enable(i) => self.enable(self.backend(*i)),
            Op::Fail(i) => {
                let id = self.backend(*i);
                if self.ctrl.active_count() > 1 || self.ctrl.status(id) != Ok(BackendStatus::Active)
                {
                    let _ = self.ctrl.fail_backend(id);
                    // A crash-failed replica's disk is not trusted: the
                    // checkpoint resets to zero and the replica is
                    // re-initialized before re-enabling — exactly what
                    // the repair manager does by deploying a fresh
                    // server restored from the base dump.
                    self.dbs.insert(id, Database::new(schema()));
                }
            }
        }
    }
}

/// After any operation sequence, re-enabling everything makes every
/// replica's content digest identical to a plain replay of the accepted
/// statements.
#[test]
fn replicas_converge_after_membership_churn() {
    run("replicas_converge_after_membership_churn", 128, |g| {
        let backends = g.u32(2..5);
        let ops = g.vec(1..120, gen_op);
        let mut m = Model::new(backends);
        for op in &ops {
            m.apply(op);
        }
        // Bring everyone back in.
        let ids: Vec<ServerId> = m.dbs.keys().copied().collect();
        for id in ids {
            m.enable(id);
        }
        let mut oracle = Database::new(schema());
        for stmt in &m.accepted {
            let _ = oracle.execute(stmt);
        }
        let digests: Vec<u64> = m.dbs.values().map(Database::digest).collect();
        assert!(
            digests.iter().all(|&d| d == oracle.digest()),
            "replicas diverged: {digests:?}"
        );
    });
}

/// Active replicas are identical at *every* step, not just at the end
/// (writes are broadcast atomically w.r.t. membership).
#[test]
fn active_replicas_identical_at_every_step() {
    run("active_replicas_identical_at_every_step", 128, |g| {
        let backends = g.u32(2..4);
        let ops = g.vec(1..60, gen_op);
        let mut m = Model::new(backends);
        for op in &ops {
            m.apply(op);
            let digests: Vec<u64> = m
                .ctrl
                .active_backends()
                .into_iter()
                .map(|id| m.dbs[&id].digest())
                .collect();
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "active replicas diverged after {op:?}"
            );
        }
    });
}

/// The recovery log's backlog accounting is exact: a disabled backend's
/// backlog equals the number of writes accepted while it was out.
#[test]
fn backlog_counts_missed_writes() {
    run("backlog_counts_missed_writes", 128, |g| {
        let writes_before = g.u64(0..30);
        let writes_during = g.u64(0..30);
        let mut m = Model::new(2);
        for i in 0..writes_before {
            m.apply(&Op::Write(i as i64));
        }
        let id = ServerId(1);
        m.ctrl.disable_backend(id).unwrap();
        let checkpoint = m.ctrl.checkpoint(id).unwrap();
        for i in 0..writes_during {
            m.apply(&Op::Write(1000 + i as i64));
        }
        assert_eq!(m.ctrl.recovery_log().backlog(checkpoint), writes_during);
    });
}
