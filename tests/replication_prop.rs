//! Differential property tests of the execute-once delta replication
//! path (paper §4.1, RAIDb-1 full mirroring).
//!
//! The first property drives random write streams through
//! `Database::execute_capture` and checks after *every* write that a
//! replica applying the captured `WriteDelta` — `Noop` for a write that
//! failed on the primary — is byte-identical (content digest) to a
//! replica re-executing the statement.
//!
//! The second property adds backend membership churn through the
//! `CjdbcController`, with syncs deliberately left half-finished so
//! replay batches race new writes: joins go through `SyncPlan` (the log's
//! checkpoint snapshot + delta tail, at an aggressively small snapshot
//! interval so the log is truncated on almost every write and the
//! snapshot path is actually taken), and at the end every replica must
//! match a from-scratch replay of every statement the cluster accepted —
//! recorded by the test's model, not read back from the (truncating) log
//! under test. Digests hash rows only, so the churn property also probes
//! every indexed column × every value of the case's domain with a `Scan`
//! — at the end of each case and after every snapshot restore — and
//! holds the counts to a replica built by plain replay: an index that
//! diverged under copy-on-write (a lost tombstone, a bad fold) fails
//! there. A second domain, wide enough that each table's own postings
//! outlive several shares before they fold, runs the same property.
//!
//! Reproduce a failure with `PROPCHECK_SEED` / `PROPCHECK_CASES` as
//! printed by the harness.

use jade_propcheck::{run, Gen};
use jade_sim::SimDuration;
use jade_tiers::cjdbc::{BackendStatus, CjdbcController, ReadPolicy};
use jade_tiers::plan::{Operand, PlanStep, StepOp};
use jade_tiers::recovery::SyncPlan;
use jade_tiers::sql::{ColId, Schema, Statement, TableId, Value};
use jade_tiers::storage::{Database, WriteDelta};
use jade_tiers::ServerId;
use std::collections::BTreeMap;
use std::sync::Arc;

const TABLE_NAMES: &[&str] = &["t0", "t1", "t2"];
const COL_NAMES: &[&str] = &["c0", "c1", "c2", "c3"];
const TEXTS: &[&str] = &["x", "y", "zz"];

/// The values and keys a case draws from, and how many churn ops it runs.
#[derive(Debug, Clone, Copy)]
struct Domain {
    ints: u64,
    max_key: u64,
    max_ops: usize,
}

/// A small value domain so no-op column sets and index moves hit.
const NARROW: Domain = Domain {
    ints: 6,
    max_key: 32,
    max_ops: 100,
};

/// Enough distinct values that a table's own postings stay a small part
/// of its shared base across snapshots, and enough writes that they
/// still outgrow it and fold.
const WIDE: Domain = Domain {
    ints: 160,
    max_key: 96,
    max_ops: 320,
};

/// A random schema: 1–3 tables, 1–4 columns each, roughly half of the
/// columns carrying a secondary index (so delta application exercises
/// index maintenance too).
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

fn gen_value(g: &mut Gen, domain: Domain) -> Value {
    match g.weighted(&[2, 5, 2]) {
        0 => Value::Null,
        1 => Value::Int(g.u64(0..domain.ints) as i64),
        _ => Value::Text(g.choose(TEXTS).to_string()),
    }
}

/// Every non-null value `gen_value` can draw in `domain`.
fn domain_values(domain: Domain) -> impl Iterator<Item = Value> {
    let ints = (0..domain.ints as i64).map(Value::Int);
    ints.chain(TEXTS.iter().map(|t| Value::Text(t.to_string())))
}

/// `Scan` results for every indexed column × every domain value (errors
/// included, for tables not created yet), in a fixed order.
fn index_scans(db: &Database, domain: Domain) -> Vec<String> {
    let schema = Arc::clone(db.schema());
    let mut out = Vec::new();
    for t in 0..schema.len() {
        let table = TableId(t as u16);
        for &column in schema.table(table).expect("in range").indexed() {
            for value in domain_values(domain) {
                let op = StepOp::Scan {
                    table,
                    column,
                    value: Operand::Const(value.clone()),
                    limit: usize::MAX,
                };
                let step = PlanStep {
                    op,
                    demand: SimDuration::ZERO,
                };
                let got = db.read_step_summary(&step, &[]);
                out.push(format!("t{t}.c{} = {value:?}: {got:?}", column.0));
            }
        }
    }
    out
}

/// Panics at the first indexed `Scan` on which `db` and `oracle` differ.
fn assert_same_index_scans(db: &Database, oracle: &Database, domain: Domain, what: &str) {
    let want = index_scans(oracle, domain);
    let got = index_scans(db, domain);
    if let Some((got, want)) = got.iter().zip(&want).find(|(got, want)| got != want) {
        panic!("{what}: {got}, but plain replay gives {want}");
    }
}

/// One random *write* against `schema`, including creates of existing
/// tables (idempotent) and updates/deletes of missing keys (error or
/// no-op paths — both must capture faithfully).
fn gen_write(g: &mut Gen, schema: &Schema, domain: Domain) -> Statement {
    let table = TableId(g.u64(0..schema.len() as u64) as u16);
    let def = schema.table(table).expect("in range");
    let width = def.width();
    match g.weighted(&[2, 6, 4, 2]) {
        0 => Statement::CreateTable { table },
        1 => {
            let row = (0..width).map(|_| gen_value(g, domain)).collect();
            Statement::Insert { table, row }
        }
        2 => {
            let set = (0..g.usize(1..width + 1))
                .map(|_| {
                    let col = ColId(g.u64(0..width as u64) as u16);
                    (col, gen_value(g, domain))
                })
                .collect();
            Statement::Update {
                table,
                key: g.u64(0..domain.max_key),
                set,
            }
        }
        _ => Statement::Delete {
            table,
            key: g.u64(0..domain.max_key),
        },
    }
}

/// A delta-applied replica is byte-identical to a re-executed one after
/// every single write.
#[test]
fn delta_apply_matches_reexecution() {
    run("delta_apply_matches_reexecution", 256, |g| {
        let schema = gen_schema(g);
        let writes = g.vec(1..80, |g| gen_write(g, &schema, NARROW));
        let base = Database::new(Arc::clone(&schema));
        let mut primary = base.clone();
        let mut by_delta = base.clone();
        let mut by_statement = base.clone();
        for (step, stmt) in writes.iter().enumerate() {
            // A write that failed on the primary mutated nothing: the
            // delta replica applies a Noop, the statement replica fails
            // it again.
            let delta = primary.execute_capture(stmt);
            let delta = delta.map_or(WriteDelta::Noop, |(_, delta)| delta);
            by_delta.apply_delta(&delta).expect("delta applies");
            let _ = by_statement.execute(stmt);
            let d = primary.digest();
            assert_eq!(d, by_delta.digest(), "delta replica diverged at {step}");
            assert_eq!(
                d,
                by_statement.digest(),
                "re-executing replica diverged at {step}"
            );
        }
    });
}

/// Abstract operations for the churn property.
#[derive(Debug, Clone)]
enum Op {
    /// Broadcast a write through the delta path.
    Write,
    /// Disable backend `i % backends` if active (and not the last one).
    Disable(u8),
    /// Fully (re-)enable backend `i % backends` via its `SyncPlan`.
    Enable(u8),
    /// Begin enabling, applying only the first batch — leaves the sync
    /// open so later writes race the replay.
    EnableStart(u8),
    /// Acknowledge the open batch; may yield (and apply) a second tail.
    EnableStep(u8),
    /// Crash-fail backend `i % backends`: checkpoint resets to zero and
    /// any in-flight sync session is discarded (the stale-session
    /// guard).
    Fail(u8),
}

fn gen_op(g: &mut Gen) -> Op {
    match g.weighted(&[8, 2, 2, 2, 3, 1]) {
        0 => Op::Write,
        1 => Op::Disable(g.u8()),
        2 => Op::Enable(g.u8()),
        3 => Op::EnableStart(g.u8()),
        4 => Op::EnableStep(g.u8()),
        _ => Op::Fail(g.u8()),
    }
}

/// A model cluster wired exactly like the legacy layer's delta path:
/// deterministic primary executes-and-captures, replicas apply deltas,
/// checkpoint snapshots install on cadence, and joins apply `SyncPlan`s
/// (with in-flight plans stashed, like `pending_replays`).
struct Model {
    ctrl: CjdbcController,
    dbs: BTreeMap<ServerId, Database>,
    pending: BTreeMap<ServerId, SyncPlan>,
    schema: Arc<Schema>,
    domain: Domain,
    /// Every statement the controller accepted, in log order — the
    /// oracle's input, independent of what the recovery log retains.
    accepted: Vec<Statement>,
}

impl Model {
    fn new(schema: Arc<Schema>, domain: Domain, backends: u32, snapshot_every: u64) -> Self {
        let mut ctrl = CjdbcController::new(ReadPolicy::RoundRobin, Arc::clone(&schema));
        ctrl.set_snapshot_interval(snapshot_every);
        let mut dbs = BTreeMap::new();
        for i in 0..backends {
            let id = ServerId(i);
            ctrl.register_backend(id);
            assert!(ctrl.begin_enable(id).unwrap().is_empty());
            assert!(ctrl.finish_replay(id).unwrap().is_none());
            dbs.insert(id, Database::new(Arc::clone(&schema)));
        }
        Model {
            ctrl,
            dbs,
            pending: BTreeMap::new(),
            schema,
            domain,
            accepted: Vec::new(),
        }
    }

    /// The oracle: a fresh database replaying the first `n` accepted
    /// statements, ignoring the log, snapshots and deltas entirely.
    fn replay(&self, n: usize) -> Database {
        let mut oracle = Database::new(Arc::clone(&self.schema));
        for stmt in &self.accepted[..n] {
            let _ = oracle.execute(stmt);
        }
        oracle
    }

    fn write(&mut self, stmt: Statement) {
        let Some(primary) = self.ctrl.write_primary() else {
            return;
        };
        // A write that fails on the primary mutated nothing: a Noop.
        let delta = self.dbs.get_mut(&primary).unwrap().execute_capture(&stmt);
        let delta = Arc::new(delta.map_or(WriteDelta::Noop, |(_, delta)| delta));
        let mut targets = Vec::new();
        let index = self
            .ctrl
            .route_delta_into(Arc::clone(&delta), &mut targets)
            .expect("primary exists, so actives exist");
        assert_eq!(index, self.accepted.len() as u64, "indices stay global");
        self.accepted.push(stmt);
        assert_eq!(targets[0], primary);
        for &b in &targets[1..] {
            self.dbs.get_mut(&b).unwrap().apply_delta(&delta).unwrap();
            self.ctrl.note_complete(b);
        }
        self.ctrl.note_complete(primary);
        if self.ctrl.snapshot_due() {
            let snapshot = self.dbs[&primary].snapshot();
            self.ctrl.install_snapshot(snapshot);
        }
        let log = self.ctrl.recovery_log();
        assert!(log.retained_len() as u64 <= log.snapshot_interval());
    }

    fn apply_plan(&mut self, id: ServerId, plan: &SyncPlan) {
        let db = self.dbs.get_mut(&id).unwrap();
        if let Some((_, snapshot)) = &plan.snapshot {
            *db = Database::from_snapshot(snapshot);
        }
        for delta in &plan.entries {
            db.apply_delta(delta).unwrap();
        }
        // A restored replica reads its indexes through the snapshot's
        // shared postings: hold them to a plain replay of the same prefix.
        if let Some((position, _)) = &plan.snapshot {
            let reached = position + plan.entries.len() as u64;
            let oracle = self.replay(reached as usize);
            let what = format!("{id:?} restored at {position}, synced to {reached}");
            assert_same_index_scans(&self.dbs[&id], &oracle, self.domain, &what);
        }
    }

    /// Applies the open batch and acknowledges it; returns true when the
    /// backend went Active.
    fn step_sync(&mut self, id: ServerId) -> bool {
        let Some(plan) = self.pending.remove(&id) else {
            return false;
        };
        self.apply_plan(id, &plan);
        match self.ctrl.finish_replay(id).unwrap() {
            Some(next) => {
                self.pending.insert(id, next);
                false
            }
            None => true,
        }
    }

    fn enable_fully(&mut self, id: ServerId) {
        if self.ctrl.status(id) == Ok(BackendStatus::Disabled) {
            let plan = self.ctrl.begin_enable(id).unwrap();
            self.pending.insert(id, plan);
        }
        if self.ctrl.status(id) == Ok(BackendStatus::Syncing) {
            while !self.step_sync(id) {}
        }
    }

    fn backend(&self, i: u8) -> ServerId {
        let ids: Vec<ServerId> = self.dbs.keys().copied().collect();
        ids[i as usize % ids.len()]
    }

    fn apply(&mut self, g: &mut Gen, op: &Op) {
        match op {
            Op::Write => {
                let stmt = gen_write(g, &Arc::clone(&self.schema), self.domain);
                self.write(stmt);
            }
            Op::Disable(i) => {
                let id = self.backend(*i);
                if self.ctrl.active_count() > 1 {
                    let _ = self.ctrl.disable_backend(id);
                }
            }
            Op::Enable(i) => self.enable_fully(self.backend(*i)),
            Op::EnableStart(i) => {
                let id = self.backend(*i);
                if self.ctrl.status(id) == Ok(BackendStatus::Disabled) {
                    let plan = self.ctrl.begin_enable(id).unwrap();
                    self.pending.insert(id, plan);
                }
            }
            Op::EnableStep(i) => {
                let id = self.backend(*i);
                if self.ctrl.status(id) == Ok(BackendStatus::Syncing) {
                    self.step_sync(id);
                }
            }
            Op::Fail(i) => {
                let id = self.backend(*i);
                if self.ctrl.active_count() > 1 || self.ctrl.status(id) != Ok(BackendStatus::Active)
                {
                    let _ = self.ctrl.fail_backend(id);
                    // The in-flight sync session (if any) is stale now —
                    // the legacy layer drops its batch instead of
                    // applying it.
                    self.pending.remove(&id);
                    // A crashed replica's disk is not trusted: it is
                    // re-initialized before re-enabling.
                    self.dbs.insert(id, Database::new(Arc::clone(&self.schema)));
                }
            }
        }
    }
}

/// One churn case over `domain`: random membership churn, then every
/// replica brought back in and held to a from-scratch replay of every
/// accepted statement — by digest (rows) and by indexed scans.
fn churn_case(g: &mut Gen, domain: Domain) {
    let schema = gen_schema(g);
    let backends = g.u32(2..5);
    // Aggressively small snapshot cadence so joins actually take the
    // snapshot path (interval 1 checkpoints — and empties the log —
    // after every write).
    let snapshot_every = g.u64(1..6);
    let mut m = Model::new(Arc::clone(&schema), domain, backends, snapshot_every);
    // Seed the schema's tables so most writes land.
    for t in 0..schema.len() {
        m.write(Statement::CreateTable {
            table: TableId(t as u16),
        });
    }
    let ops = g.vec(1..domain.max_ops, gen_op);
    for op in &ops {
        m.apply(g, op);
    }
    // Bring everyone back in (finishing half-open syncs first).
    let ids: Vec<ServerId> = m.dbs.keys().copied().collect();
    for id in ids {
        m.enable_fully(id);
    }
    assert_eq!(m.ctrl.recovery_log().head(), m.accepted.len() as u64);
    let oracle = m.replay(m.accepted.len());
    let expect = oracle.digest();
    for (id, db) in &m.dbs {
        assert_eq!(
            db.digest(),
            expect,
            "replica {id:?} diverged from full-log replay \
             (snapshot_every={snapshot_every})"
        );
        assert_same_index_scans(db, &oracle, domain, &format!("replica {id:?} at the end"));
    }
}

/// Under arbitrary membership churn — including syncs left open across
/// racing writes and checkpoints that truncate the log under them —
/// snapshot+tail joins converge every replica to a from-scratch replay of
/// every accepted statement, rows and indexes alike.
#[test]
fn churned_replicas_match_full_log_replay() {
    run("churned_replicas_match_full_log_replay", 192, |g| {
        churn_case(g, NARROW)
    });
}

/// The same property over a wide value domain and a longer run: own
/// postings (tombstones included) survive several snapshots, restores
/// and unshares before they outgrow their base and fold into it.
#[test]
fn churned_wide_domain_replicas_match_full_log_replay() {
    run(
        "churned_wide_domain_replicas_match_full_log_replay",
        48,
        |g| churn_case(g, WIDE),
    );
}
