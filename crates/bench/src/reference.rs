//! Reference models kept for differential testing: each is a genuinely
//! simpler model of a kernel or tier component, used as the oracle of a
//! property suite under `tests/`.
//!
//! [`NaivePsCpu`] is the original scan-on-advance processor-sharing CPU:
//! it stores each job's *remaining* demand and subtracts the interval's
//! progress from every resident job on each driver call — O(n) per
//! operation. `jade_sim::PsCpu` replaced it with the O(log n) virtual-time
//! formulation (see the module docs of `crates/sim/src/cpu.rs`); this copy
//! is the oracle `tests/cpu_prop.rs` checks the rewrite against.
//!
//! [`NaiveDatabase`] is likewise the original name-keyed storage engine:
//! tables are a `BTreeMap<String, _>`, rows are `BTreeMap<String, Value>`
//! column maps, every statement re-resolves its table and column names,
//! and `SelectWhere` is a full scan. `jade_tiers::Database` replaced it
//! with the interned, index-accelerated engine; this copy is the oracle
//! `tests/storage_prop.rs` checks result and digest parity against, and
//! the one `tests/plan_prop.rs` holds the opcode executor to.

use jade_sim::metrics::UtilizationTracker;
use jade_sim::{EfficiencyCurve, JobId, SimDuration, SimTime};
use jade_tiers::sql::{ColId, Schema, SqlError, Statement, Value};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone)]
struct PsJob {
    id: JobId,
    /// Remaining service demand, in seconds of dedicated CPU.
    remaining: f64,
}

/// Remaining demand below this is considered complete (guards float error).
const EPSILON_SECS: f64 = 1e-9;

/// The original O(n) scan-on-advance processor-sharing CPU.
///
/// Semantically equivalent to `jade_sim::PsCpu` (same driver API, same
/// event-boundary progress rule, same timer rounding); kept verbatim as a
/// reference model.
#[derive(Debug, Clone)]
pub struct NaivePsCpu {
    speed: f64,
    curve: EfficiencyCurve,
    jobs: Vec<PsJob>,
    last_update: SimTime,
    util: UtilizationTracker,
    completed: Vec<JobId>,
}

impl NaivePsCpu {
    /// Creates a CPU with `speed` demand-seconds/second capacity (1.0 = one
    /// reference core) and the given degradation curve.
    pub fn new(speed: f64, curve: EfficiencyCurve) -> Self {
        assert!(speed > 0.0);
        NaivePsCpu {
            speed,
            curve,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            util: UtilizationTracker::new(),
            completed: Vec::new(),
        }
    }

    /// Number of resident (incomplete) jobs.
    pub fn load(&self) -> usize {
        self.jobs.len()
    }

    /// Per-job progress rate right now, in demand-seconds per second.
    fn rate(&self) -> f64 {
        let n = self.jobs.len();
        if n == 0 {
            0.0
        } else {
            self.speed * self.curve.efficiency(n) / n as f64
        }
    }

    /// Advances all jobs to `now`, moving finished jobs to the completed
    /// buffer.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update);
        let elapsed = (now - self.last_update).as_secs_f64();
        if elapsed > 0.0 && !self.jobs.is_empty() {
            let progress = elapsed * self.rate();
            for job in &mut self.jobs {
                job.remaining -= progress;
            }
        }
        self.last_update = now;
        let completed = &mut self.completed;
        self.jobs.retain(|j| {
            if j.remaining <= EPSILON_SECS {
                completed.push(j.id);
                false
            } else {
                true
            }
        });
        if self.jobs.is_empty() {
            self.util.set_idle(now);
        }
    }

    /// Submits a job with the given total demand.
    pub fn submit(&mut self, now: SimTime, id: JobId, demand: SimDuration) {
        self.advance(now);
        self.util.set_busy(now);
        self.jobs.push(PsJob {
            id,
            remaining: demand.as_secs_f64().max(EPSILON_SECS),
        });
    }

    /// Forcibly removes a job. Returns true if the job was resident.
    pub fn abort(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        let before = self.jobs.len();
        self.jobs.retain(|j| j.id != id);
        if self.jobs.is_empty() {
            self.util.set_idle(now);
        }
        self.jobs.len() != before
    }

    /// Removes all jobs, returning their ids in submission order.
    pub fn abort_all(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let ids = self.jobs.drain(..).map(|j| j.id).collect();
        self.util.set_idle(now);
        ids
    }

    /// Time of the next job completion given the current population, or
    /// `None` when idle.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let min_remaining = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        if !min_remaining.is_finite() {
            return None;
        }
        // Round *up* to the next microsecond so the timer never fires
        // before the job is actually done.
        let micros = (min_remaining / rate * 1e6).ceil() as u64;
        Some(now + SimDuration::from_micros(micros.max(1)))
    }

    /// Advances to `now` and drains the jobs that have completed.
    pub fn collect_completions(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        std::mem::take(&mut self.completed)
    }

    /// CPU utilization since the previous call.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.util.sample(now)
    }

    /// Total busy time up to `now`.
    pub fn busy_time(&mut self, now: SimTime) -> SimDuration {
        self.advance(now);
        self.util.busy_time(now)
    }
}

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

// ---------------------------------------------------------------------
// The pre-wheel timer store
// ---------------------------------------------------------------------

/// The pre-wheel timer store: a `BinaryHeap` with payloads inline plus a
/// `HashSet` of cancelled sequence numbers — the trivially correct
/// reference model the `wheel_prop` differential test checks the
/// hierarchical timer wheel against: entries fire in `(time, insertion
/// sequence)` order, cancellation is lazy (filtered at pop), and a
/// sequence number is never reused, so a cancel of an already-fired
/// timer is a no-op by construction.
pub struct NaiveTimers<T> {
    heap: BinaryHeap<Reverse<(SimTime, u64, T)>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl<T: Ord> NaiveTimers<T> {
    /// An empty timer store.
    pub fn new() -> Self {
        NaiveTimers {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Arms a timer; returns its cancellation handle.
    pub fn push(&mut self, time: SimTime, msg: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, msg)));
        seq
    }

    /// Marks a timer cancelled (dropped lazily at pop).
    pub fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// Pops the earliest live timer.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(Reverse((time, seq, msg))) = self.heap.pop() {
            if !self.cancelled.remove(&seq) {
                return Some((time, msg));
            }
        }
        None
    }

    /// Live timers remaining (cancelled-but-unswept entries excluded).
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no live timers remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Ord> Default for NaiveTimers<T> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// The pre-streaming observation plane
// ---------------------------------------------------------------------

/// The `VecDeque`-backed moving average the fixed-capacity ring in
/// `jade_sim::MovingAverage` replaced, kept verbatim: push-back plus
/// running sum, then front-to-back eviction of samples older than the
/// window. The running-sum arithmetic is the reference the ring must
/// reproduce bit for bit (`tests/observation_prop.rs`).
#[derive(Debug, Clone)]
pub struct NaiveMovingAverage {
    window: SimDuration,
    samples: VecDeque<(SimTime, f64)>,
    sum: f64,
}

impl NaiveMovingAverage {
    /// Creates a moving average with the given time window.
    pub fn new(window: SimDuration) -> Self {
        NaiveMovingAverage {
            window,
            samples: VecDeque::new(),
            sum: 0.0,
        }
    }

    /// Records a sample at time `t` and evicts samples older than the
    /// window.
    pub fn record(&mut self, t: SimTime, v: f64) {
        self.samples.push_back((t, v));
        self.sum += v;
        let horizon = if t.as_micros() >= self.window.as_micros() {
            SimTime::from_micros(t.as_micros() - self.window.as_micros())
        } else {
            SimTime::ZERO
        };
        while let Some(&(st, sv)) = self.samples.front() {
            if st < horizon {
                self.samples.pop_front();
                self.sum -= sv;
            } else {
                break;
            }
        }
    }

    /// Current smoothed value, or `None` when no sample is in the window.
    pub fn value(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Number of samples currently inside the window.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

/// From-scratch step-function window mean over raw `(time, value)` points:
/// the linear scan `TimeSeries::time_weighted_mean_cached` must agree with
/// bit for bit, as an implementation independent of both the
/// `partition_point` and the cursor seek.
pub fn naive_time_weighted_mean(
    points: &[(SimTime, f64)],
    from: SimTime,
    to: SimTime,
) -> Option<f64> {
    if to <= from {
        return None;
    }
    let mut acc = 0.0;
    let mut covered = 0.0;
    let mut cursor = from;
    let mut current = None;
    for &(pt, v) in points {
        if pt <= from {
            current = Some(v);
            continue;
        }
        if pt >= to {
            break;
        }
        if let Some(cv) = current {
            let span = (pt - cursor).as_secs_f64();
            acc += cv * span;
            covered += span;
        }
        cursor = pt;
        current = Some(v);
    }
    if let Some(cv) = current {
        let span = (to - cursor).as_secs_f64();
        acc += cv * span;
        covered += span;
    }
    if covered > 0.0 {
        Some(acc / covered)
    } else {
        None
    }
}

/// From-scratch step interpolation: value of the last point at or before
/// `t`, or `default`. The linear-scan oracle for
/// `TimeSeries::value_at_cached`.
pub fn naive_value_at(points: &[(SimTime, f64)], t: SimTime, default: f64) -> f64 {
    points
        .iter()
        .rev()
        .find(|&&(pt, _)| pt <= t)
        .map_or(default, |&(_, v)| v)
}

/// The map-based observation plane the streaming probe tick replaced:
/// CPU samples in a fresh `BTreeMap` keyed by node id, spatial averages
/// summed through map lookups, `VecDeque` moving-average sensors,
/// keep-all series vectors, and a `BTreeMap` heartbeat store. Kept as
/// the oracle `tests/observation_prop.rs` checks the dense-array probe
/// against.
pub struct NaiveObservation {
    /// Application-tier CPU sensor (60 s window).
    pub app_sensor: NaiveMovingAverage,
    /// Database-tier CPU sensor (90 s window).
    pub db_sensor: NaiveMovingAverage,
    /// Keep-all spatial-average series, one point per tick.
    pub cpu_app: Vec<(SimTime, f64)>,
    /// Database-tier series.
    pub cpu_db: Vec<(SimTime, f64)>,
    /// All-nodes series.
    pub cpu_all: Vec<(SimTime, f64)>,
    /// Last heartbeat per node, in an ordered map.
    pub heartbeat: BTreeMap<usize, SimTime>,
    /// Probe ticks observed.
    pub ticks: u64,
}

impl NaiveObservation {
    /// An empty observation plane with the given sensor windows.
    pub fn new(app_window: SimDuration, db_window: SimDuration) -> Self {
        NaiveObservation {
            app_sensor: NaiveMovingAverage::new(app_window),
            db_sensor: NaiveMovingAverage::new(db_window),
            cpu_app: Vec::new(),
            cpu_db: Vec::new(),
            cpu_all: Vec::new(),
            heartbeat: BTreeMap::new(),
            ticks: 0,
        }
    }

    /// The historical spatial average: map lookups in node-list order,
    /// summed, over the listed population — the float-operation sequence
    /// the dense-array probe must reproduce exactly.
    pub fn spatial_avg<K: Ord>(samples: &BTreeMap<K, f64>, nodes: &[K]) -> f64 {
        if nodes.is_empty() {
            0.0
        } else {
            nodes.iter().filter_map(|n| samples.get(n)).sum::<f64>() / nodes.len() as f64
        }
    }

    /// Feeds one tick's spatial averages into the sensors and series.
    pub fn observe(&mut self, now: SimTime, app_avg: f64, db_avg: f64, all_avg: f64) {
        self.app_sensor.record(now, app_avg.clamp(0.0, 1.0));
        self.db_sensor.record(now, db_avg.clamp(0.0, 1.0));
        self.cpu_app.push((now, app_avg));
        self.cpu_db.push((now, db_avg));
        self.cpu_all.push((now, all_avg));
        self.ticks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }
    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn naive_observation_averages_and_windows() {
        let mut samples = BTreeMap::new();
        for (i, v) in [0.5, 0.25, 1.0].into_iter().enumerate() {
            samples.insert(i, v);
        }
        assert_eq!(NaiveObservation::spatial_avg(&samples, &[0, 2]), 0.75);
        assert_eq!(NaiveObservation::spatial_avg::<usize>(&samples, &[]), 0.0);

        let points = [(t(0), 0.0), (t(10_000), 1.0)];
        let m = naive_time_weighted_mean(&points, t(0), t(20_000)).unwrap();
        assert!((m - 0.5).abs() < 1e-9);
        assert!(naive_time_weighted_mean(&points, t(5), t(5)).is_none());
        assert_eq!(naive_value_at(&points, t(9_999), -1.0), 0.0);
        assert_eq!(naive_value_at(&points, t(10_000), -1.0), 1.0);

        let mut ma = NaiveMovingAverage::new(SimDuration::from_secs(10));
        ma.record(SimTime::from_secs(0), 100.0);
        ma.record(SimTime::from_secs(5), 0.0);
        assert_eq!(ma.value(), Some(50.0));
        ma.record(SimTime::from_secs(20), 0.0);
        assert_eq!(ma.sample_count(), 1);
    }

    #[test]
    fn naive_model_still_behaves() {
        let mut cpu = NaivePsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        cpu.submit(t(50), JobId(2), d(100));
        assert_eq!(cpu.next_completion(t(50)).unwrap(), t(150));
        assert_eq!(cpu.collect_completions(t(150)), vec![JobId(1)]);
        assert_eq!(cpu.next_completion(t(150)).unwrap(), t(200));
        assert_eq!(cpu.collect_completions(t(200)), vec![JobId(2)]);
        assert_eq!(cpu.load(), 0);
    }
}
