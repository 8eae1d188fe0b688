//! Processor-sharing CPU model in **virtual time** (attained service).
//!
//! Each simulated node has one CPU that serves all resident jobs in
//! processor-sharing fashion: with `n` active jobs each job progresses at
//! `speed * efficiency(n) / n` demand-seconds per second. The *efficiency*
//! hook models thrashing: the paper's unmanaged database "saturates … this
//! results in a thrashing of the database" (§5.2, Fig. 6); a sub-unit
//! efficiency at high multiprogramming levels collapses throughput and
//! produces exactly the runaway latencies of Figure 8.
//!
//! # The virtual-time formulation
//!
//! The original model stored each job's *remaining* demand and, on every
//! `submit`/`abort`/`next_completion`/`collect_completions`, subtracted the
//! interval's progress from **every** resident job — an O(n) scan that made
//! the saturated-tier scenarios (hundreds of jobs piled on one unmanaged
//! MySQL) quadratic overall.
//!
//! Observe that under processor sharing every resident job attains service
//! at the *same* rate. Define the **virtual clock**
//!
//! ```text
//! V(t) = ∫₀ᵗ speed · efficiency(n(τ)) / n(τ) dτ      (0 when n = 0)
//! ```
//!
//! i.e. the cumulative per-job attained service. `n(τ)` only changes at
//! submit/abort/completion instants — all of which are driver calls — so
//! `V` is piecewise linear and advancing it is O(1) per interval:
//! `V += elapsed · speed · efficiency(n) / n`.
//!
//! A job submitted with demand `d` when the virtual clock reads `Vₛ`
//! completes exactly when `V` reaches its **completion key** `Vₛ + d`; its
//! remaining demand at any later instant is recovered on demand as
//! `d − (V − Vₛ)` — no per-job state is ever updated. Jobs therefore
//! complete in key order and the whole model reduces to a min-heap of
//! `(key, seq)` pairs:
//!
//! * `submit` — advance `V`, push `(V + d, seq)` — O(log n);
//! * `next_completion` — advance `V`, peek the minimum key `k`, report
//!   `now + (k − V) / rate` — O(1) amortised;
//! * `collect_completions` — advance `V`, pop every entry with
//!   `key ≤ V + ε` — O(log n) per completion;
//! * `abort` — O(1) lazy cancellation of the job's slab slot (the heap
//!   entry is swept when it surfaces, exactly like the event queue's
//!   timers).
//!
//! The heap is the kernel's packed heap (`heap.rs`) with the
//! `f64::to_bits` of the completion key as its primary key (keys are
//! always > 0, and non-negative doubles order like their bit patterns),
//! over a [`GenSlab`] of jobs; an aborted job's cell is retired, swept
//! when it surfaces, and compacted away once aborts dominate.
//!
//! Because the efficiency curve only changes the virtual-clock *rate* at
//! job-count boundaries — which are all driver-call times — the trajectory
//! is the same piecewise-linear one the naive per-job-scan model produced
//! (associativity of float accumulation aside), including the `Thrashing`
//! knee. `tests/support/naive_ps_cpu.rs` keeps the original implementation
//! as `NaivePsCpu`; `tests/cpu_prop.rs` checks the two agree on completion
//! sets, order and times within 1e-6 s under random interleavings.
//!
//! The owner (a server actor) drives the model: it calls [`PsCpu::submit`]
//! on arrival, asks for [`PsCpu::next_completion`], arms one timer with the
//! engine, and on the timer calls [`PsCpu::collect_completions`]. The timer
//! moves on every arrival and departure, so the owner keeps it in the event
//! queue's keyed lane ([`crate::Ctx::arm_timer`]), which re-arms in place.

use crate::det::DetHashMap;
use crate::heap::{HeapEntry, PackedHeap};
use crate::metrics::UtilizationTracker;
use crate::slab::{GenSlab, SlabKey};
use crate::time::{SimDuration, SimTime};

/// Identifier the owner attaches to a job (e.g. a request id).
///
/// Ids must be unique among *resident* jobs of one CPU (the system model's
/// global job counter guarantees this); an id may be reused after the job
/// completed or was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Degradation law: maps the number of resident jobs to an efficiency in
/// `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EfficiencyCurve {
    /// Ideal processor sharing: no degradation.
    Ideal,
    /// Thrashing: full speed up to `knee` jobs, then efficiency decays as
    /// `1 / (1 + slope * (n - knee))`. Models memory pressure / context
    /// switch storms on an overloaded server.
    Thrashing {
        /// Multiprogramming level up to which the CPU runs at full speed.
        knee: usize,
        /// Decay rate of efficiency beyond the knee.
        slope: f64,
    },
}

impl EfficiencyCurve {
    /// Efficiency for `n` resident jobs.
    pub fn efficiency(&self, n: usize) -> f64 {
        match *self {
            EfficiencyCurve::Ideal => 1.0,
            EfficiencyCurve::Thrashing { knee, slope } => {
                if n <= knee {
                    1.0
                } else {
                    1.0 / (1.0 + slope * (n - knee) as f64)
                }
            }
        }
    }
}

/// Remaining demand below this is considered complete (guards float error).
const EPSILON_SECS: f64 = 1e-9;

/// A resident job, in the slab cell its heap entry names. `vsubmit` is the
/// virtual-clock reading at submission and `demand` the total demand in
/// seconds: remaining demand is `demand - (vclock - vsubmit)`. Keeping
/// both (instead of only the rounded sum in the heap key) makes the
/// remaining-demand arithmetic associate the same way the naive
/// per-job-subtraction model's does, so completion timers land on the
/// same microsecond.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Job identifier the owner attached.
    id: JobId,
    /// Virtual clock at submission.
    vsubmit: f64,
    /// Total demand, seconds.
    demand: f64,
}

/// A processor-sharing CPU with utilization accounting.
///
/// All mutating operations are O(log n) in the number of resident jobs;
/// see the module docs for the virtual-time formulation.
#[derive(Debug, Clone)]
pub struct PsCpu {
    speed: f64,
    curve: EfficiencyCurve,
    /// Virtual clock: cumulative per-job attained service, in
    /// demand-seconds.
    vclock: f64,
    /// Upper bound on the completion keys in the heap (monotone per
    /// population epoch; reset when the heap empties out via `abort_all`).
    /// Once the clock passes it the whole heap is mature and can be
    /// drained in one sorted pass instead of n root-pops.
    vmax: f64,
    last_update: SimTime,
    /// Min-heap of completion keys over `jobs`.
    heap: PackedHeap,
    /// Resident jobs (`jobs.len()`) and aborted ones not yet swept.
    jobs: GenSlab<Job>,
    next_seq: u64,
    /// Aborted entries still in the heap.
    aborted: usize,
    /// Resident jobs whose demand was clamped up to `EPSILON_SECS` (i.e.
    /// zero-demand submissions). These are mature the moment they are
    /// submitted, so while any is resident the completion sweep must run
    /// even when no simulated time has passed; when none is, an
    /// `elapsed == 0` advance can return immediately — the previous sweep
    /// at the same virtual-clock reading already drained everything.
    zero_demand: usize,
    /// Job id -> slab key, for O(1) abort. Built lazily: the map only
    /// exists (and is maintained) once an id lookup has actually been
    /// needed, so the pure submit/complete path — the saturated-tier hot
    /// loop — never hashes at all. Uses the workspace-wide deterministic
    /// fx hasher ([`crate::det`]); the map is never iterated, so hash
    /// order can't leak into simulation results.
    index: DetHashMap<JobId, SlabKey>,
    /// Whether `index` is currently materialized and being maintained.
    index_live: bool,
    util: UtilizationTracker,
    completed: Vec<JobId>,
}

impl PsCpu {
    /// Creates a CPU with `speed` demand-seconds/second capacity (1.0 = one
    /// reference core) and the given degradation curve.
    pub fn new(speed: f64, curve: EfficiencyCurve) -> Self {
        assert!(speed > 0.0);
        PsCpu {
            speed,
            curve,
            vclock: 0.0,
            vmax: 0.0,
            last_update: SimTime::ZERO,
            // One CPU exists per simulated node; pre-sizing the heap and
            // the slab past the common multiprogramming levels keeps the
            // submit burst of a saturating tier out of the allocator.
            heap: PackedHeap::with_capacity(128),
            jobs: GenSlab::with_capacity(128),
            next_seq: 0,
            aborted: 0,
            zero_demand: 0,
            index: DetHashMap::default(),
            index_live: false,
            util: UtilizationTracker::new(),
            completed: Vec::with_capacity(32),
        }
    }

    /// Number of resident (incomplete) jobs.
    pub fn load(&self) -> usize {
        self.jobs.len()
    }

    /// Per-job progress rate right now, in demand-seconds per second.
    fn rate(&self) -> f64 {
        let live = self.jobs.len();
        if live == 0 {
            0.0
        } else {
            self.speed * self.curve.efficiency(live) / live as f64
        }
    }

    /// Advances the virtual clock to `now` and sweeps completed jobs into
    /// the completion buffer.
    ///
    /// The clock advances at the rate implied by the population *over the
    /// whole interval* and completions are detected at its end — the same
    /// event-boundary semantics as the per-job-scan model it replaced. The
    /// owner's completion timer guarantees an advance at (within 1 µs
    /// after) every completion, so rate changes are never late by more
    /// than the timer rounding.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update);
        if now == self.last_update && self.zero_demand == 0 {
            // The virtual clock cannot have moved and nothing matures at a
            // standstill: the sweep below already ran at this instant.
            if self.jobs.is_empty() {
                self.util.set_idle(now);
            }
            return;
        }
        let elapsed = (now - self.last_update).as_secs_f64();
        if elapsed > 0.0 && !self.jobs.is_empty() {
            self.vclock += elapsed * self.rate();
        }
        self.last_update = now;
        if self.vclock + EPSILON_SECS >= self.vmax && self.heap.peek_root().is_some() {
            self.drain_all();
        } else {
            self.sweep_pops();
        }
        if self.jobs.is_empty() {
            self.util.set_idle(now);
        }
    }

    /// Demand `job` has yet to receive, in seconds.
    #[inline]
    fn remaining(&self, job: &Job) -> f64 {
        job.demand - (self.vclock - job.vsubmit)
    }

    /// Books a job that left the heap as completed.
    #[inline]
    fn complete_job(&mut self, job: Job) {
        if self.index_live {
            self.index.remove(&job.id);
        }
        if job.demand <= EPSILON_SECS {
            self.zero_demand -= 1;
        }
        self.completed.push(job.id);
    }

    /// Pops every job whose remaining demand the clock has exhausted,
    /// along with any aborted entries that surface on the way. The heap
    /// key (the rounded `vsubmit + demand`) only *orders* the sweep; the
    /// completion test recomputes remaining demand from the job so it
    /// rounds identically to the naive model's per-job subtraction.
    fn sweep_pops(&mut self) {
        while let Some(head) = self.heap.peek_root() {
            let slot = head.payload_slot();
            match self.jobs.live_at(slot) {
                Some(job) if self.remaining(job) > EPSILON_SECS => break,
                Some(_) => {}
                None => self.aborted -= 1,
            }
            self.heap.pop_root();
            if let Some(job) = self.jobs.release_slot(slot) {
                self.complete_job(job);
            }
        }
    }

    /// Drains the whole heap in one sorted pass — the virtual clock has
    /// passed every completion key, so every resident job is done and the
    /// O(n log n) sort beats n root-pops by a large constant factor (the
    /// saturated-tier burst pattern). `vmax` is the rounded-key bound;
    /// each job's remaining demand is re-checked first and any
    /// near-boundary stragglers are handed back to the exact sweep.
    fn drain_all(&mut self) {
        if self
            .heap
            .entries()
            .iter()
            .filter_map(|e| self.jobs.live_at(e.payload_slot()))
            .any(|job| self.remaining(job) > EPSILON_SECS)
        {
            self.sweep_pops();
            return;
        }
        self.completed.reserve(self.jobs.len());
        let mut heap = std::mem::take(&mut self.heap);
        for e in heap.drain_sorted() {
            match self.jobs.release_slot(e.payload_slot()) {
                Some(job) => self.complete_job(job),
                None => self.aborted -= 1,
            }
        }
        self.heap = heap;
    }

    /// Submits a job with the given total demand.
    #[inline]
    pub fn submit(&mut self, now: SimTime, id: JobId, demand: SimDuration) {
        self.advance(now);
        if self.next_seq > u32::MAX as u64 {
            self.next_seq = self.heap.renumber_seqs();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let d = demand.as_secs_f64().max(EPSILON_SECS);
        if d <= EPSILON_SECS {
            self.zero_demand += 1;
        }
        let done_at = self.vclock + d;
        debug_assert!(done_at > 0.0 && done_at.is_finite());
        if done_at > self.vmax {
            self.vmax = done_at;
        }
        let key = self.jobs.insert(Job {
            id,
            vsubmit: self.vclock,
            demand: d,
        });
        if self.index_live {
            let prev = self.index.insert(id, key);
            debug_assert!(prev.is_none(), "job id {id:?} already resident");
        }
        if self.jobs.len() == 1 {
            self.util.set_busy(now);
        }
        self.heap
            .sift_in(HeapEntry::new(done_at.to_bits(), seq, key.slot()));
    }

    /// Forcibly removes a job (e.g. its server was stopped). Returns true
    /// if the job was resident. O(1): the heap entry is cancelled lazily.
    pub fn abort(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        self.ensure_index();
        let Some(key) = self.index.remove(&id) else {
            return false;
        };
        if let Some(job) = self.jobs.retire(key) {
            if job.demand <= EPSILON_SECS {
                self.zero_demand -= 1;
            }
        }
        self.aborted += 1;
        if self.jobs.is_empty() {
            self.util.set_idle(now);
        }
        if self.heap.mostly_dead(self.aborted) {
            self.heap
                .compact_retain(|e| self.jobs.keep_if_live(e.payload_slot()));
            self.aborted = 0;
        }
        true
    }

    /// Removes all jobs, returning their ids in submission order (server
    /// crash/stop).
    pub fn abort_all(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let mut residents: Vec<(u64, JobId)> = Vec::with_capacity(self.jobs.len());
        for e in self.heap.drain_sorted() {
            if let Some(job) = self.jobs.release_slot(e.payload_slot()) {
                residents.push((e.seq(), job.id));
            }
        }
        residents.sort_unstable_by_key(|&(seq, _)| seq);
        self.index.clear();
        self.index_live = false;
        self.aborted = 0;
        self.zero_demand = 0;
        self.vmax = self.vclock;
        self.util.set_idle(now);
        residents.into_iter().map(|(_, id)| id).collect()
    }

    /// Time of the next job completion given the current population, or
    /// `None` when idle. The owner should arm a timer at this instant.
    #[inline]
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        // Sweep aborted entries off the top so the peek is live.
        let head = loop {
            let slot = self.heap.peek_root()?.payload_slot();
            if let Some(&job) = self.jobs.live_at(slot) {
                break job;
            }
            self.heap.pop_root();
            self.jobs.release_slot(slot);
            self.aborted -= 1;
        };
        let min_remaining = self.remaining(&head);
        // Round *up* to the next microsecond so the timer never fires
        // before the job is actually done.
        let micros = (min_remaining / rate * 1e6).ceil() as u64;
        Some(now + SimDuration::from_micros(micros.max(1)))
    }

    /// Advances to `now` and drains the jobs that have completed, in
    /// completion order (ties in completion time by submission order).
    #[inline]
    pub fn collect_completions(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        std::mem::take(&mut self.completed)
    }

    /// Like [`PsCpu::collect_completions`], but appends into a
    /// caller-provided buffer so a hot completion path can recycle one
    /// allocation across timer fires.
    pub fn collect_completions_into(&mut self, now: SimTime, out: &mut Vec<JobId>) {
        self.advance(now);
        out.append(&mut self.completed);
    }

    /// CPU utilization since the previous call (see
    /// [`UtilizationTracker::sample`]).
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.util.sample(now)
    }

    /// Total busy time up to `now`.
    pub fn busy_time(&mut self, now: SimTime) -> SimDuration {
        self.advance(now);
        self.util.busy_time(now)
    }

    /// True when the CPU holds nothing — no resident, aborted-but-unswept
    /// or undelivered job — and has logged no busy time since the last
    /// sample, so [`PsCpu::sample_utilization`] is a no-op that reads
    /// exactly `0.0`. A quiet CPU stays quiet until the next `submit`.
    pub fn is_quiet(&self) -> bool {
        self.heap.peek_root().is_none() && self.completed.is_empty() && self.util.is_quiet()
    }

    /// Brings a quiet CPU to the state sampling it at every instant up to
    /// `now` would have left: the utilization window restarts at `now`.
    pub fn rebase_idle_window(&mut self, now: SimTime) {
        debug_assert!(self.is_quiet() && now >= self.last_update);
        self.last_update = now;
        self.util.rebase_idle_window(now);
    }

    /// Materializes the id → key map from the slab, once, on the first
    /// operation that needs a lookup. From then on `submit`/completion
    /// sweeps keep it current. Amortized O(1) per resident job.
    fn ensure_index(&mut self) {
        if self.index_live {
            return;
        }
        self.index.clear();
        self.index.reserve(self.jobs.len());
        for (key, job) in self.jobs.iter() {
            self.index.insert(job.id, key);
        }
        self.index_live = true;
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
    fn single_job_runs_at_full_speed() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        let done_at = cpu.next_completion(t(0)).unwrap();
        assert_eq!(done_at, t(100));
        let done = cpu.collect_completions(done_at);
        assert_eq!(done, vec![JobId(1)]);
        assert_eq!(cpu.load(), 0);
    }

    #[test]
    fn two_jobs_share_the_processor() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        cpu.submit(t(0), JobId(2), d(100));
        // Each runs at half speed: both finish at 200ms.
        let done_at = cpu.next_completion(t(0)).unwrap();
        assert_eq!(done_at, t(200));
        let done = cpu.collect_completions(done_at);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn late_arrival_slows_the_first_job() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        // At t=50 half the demand is done; a second job arrives.
        cpu.submit(t(50), JobId(2), d(100));
        // Job 1 has 50ms left at half speed -> completes at t=150.
        let next = cpu.next_completion(t(50)).unwrap();
        assert_eq!(next, t(150));
        assert_eq!(cpu.collect_completions(t(150)), vec![JobId(1)]);
        // Job 2 then has 50ms left at full speed -> completes at t=200.
        let next = cpu.next_completion(t(150)).unwrap();
        assert_eq!(next, t(200));
        assert_eq!(cpu.collect_completions(t(200)), vec![JobId(2)]);
    }

    #[test]
    fn faster_cpu_finishes_sooner() {
        let mut cpu = PsCpu::new(2.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(50));
    }

    #[test]
    fn thrashing_curve_degrades_throughput() {
        let curve = EfficiencyCurve::Thrashing {
            knee: 2,
            slope: 0.5,
        };
        assert_eq!(curve.efficiency(1), 1.0);
        assert_eq!(curve.efficiency(2), 1.0);
        assert!((curve.efficiency(4) - 0.5).abs() < 1e-12);
        let mut cpu = PsCpu::new(1.0, curve);
        for i in 0..4 {
            cpu.submit(t(0), JobId(i), d(100));
        }
        // 4 jobs, efficiency 0.5: per-job rate 0.125 -> 100ms demand takes 800ms.
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(800));
    }

    #[test]
    fn abort_removes_jobs_and_frees_capacity() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        cpu.submit(t(0), JobId(2), d(100));
        assert!(cpu.abort(t(0), JobId(2)));
        assert!(!cpu.abort(t(0), JobId(2)));
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(100));
    }

    #[test]
    fn abort_all_drains_everything() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(10));
        cpu.submit(t(0), JobId(2), d(20));
        let mut ids = cpu.abort_all(t(5));
        ids.sort();
        assert_eq!(ids, vec![JobId(1), JobId(2)]);
        assert!(cpu.next_completion(t(5)).is_none());
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(250));
        cpu.collect_completions(t(250));
        // Busy 250ms out of a 1000ms window.
        let u = cpu.sample_utilization(t(1000));
        assert!((u - 0.25).abs() < 1e-6, "utilization was {u}");
    }

    #[test]
    fn completion_timer_never_fires_early() {
        // Adversarial demands that don't divide evenly.
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), SimDuration::from_micros(3333));
        cpu.submit(t(0), JobId(2), SimDuration::from_micros(7777));
        let t1 = cpu.next_completion(SimTime::ZERO).unwrap();
        let done = cpu.collect_completions(t1);
        assert_eq!(done, vec![JobId(1)]);
        let t2 = cpu.next_completion(t1).unwrap();
        assert!(t2 > t1);
        assert_eq!(cpu.collect_completions(t2), vec![JobId(2)]);
    }

    #[test]
    fn completions_drain_in_key_then_submission_order() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(10), d(30));
        cpu.submit(t(0), JobId(11), d(10));
        cpu.submit(t(0), JobId(12), d(30));
        // Collect far past all completions in one call: shortest job
        // first, then equal keys in submission order.
        let done = cpu.collect_completions(t(1000));
        assert_eq!(done, vec![JobId(11), JobId(10), JobId(12)]);
    }

    #[test]
    fn collect_into_reuses_buffer() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        let mut buf = Vec::new();
        cpu.submit(t(0), JobId(1), d(10));
        cpu.collect_completions_into(t(10), &mut buf);
        assert_eq!(buf, vec![JobId(1)]);
        buf.clear();
        cpu.submit(t(10), JobId(2), d(10));
        cpu.collect_completions_into(t(20), &mut buf);
        assert_eq!(buf, vec![JobId(2)]);
    }

    #[test]
    fn renumbering_at_the_seq_wrap_keeps_completion_order() {
        // Tied completion keys on both sides of the wrap (equal demands
        // submitted at one instant) and an aborted entry still resident.
        let run = |wrap: bool| {
            let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
            for i in 0..6u64 {
                cpu.submit(t(0), JobId(i), d(10 + 20 * (i % 2)));
            }
            assert!(cpu.abort(t(0), JobId(2)));
            if wrap {
                cpu.next_seq = u32::MAX as u64 + 1;
            }
            for i in 6..9u64 {
                cpu.submit(t(0), JobId(i), d(10 + 20 * (i % 2)));
            }
            if wrap {
                // Six resident entries renumbered to 0..6, then three draws.
                assert_eq!(cpu.next_seq, 9);
            }
            let mut now = t(0);
            let mut done = Vec::new();
            while let Some(next) = cpu.next_completion(now) {
                now = next;
                done.extend(cpu.collect_completions(now).into_iter().map(|id| (now, id)));
            }
            done
        };
        let wrapped = run(true);
        assert_eq!(wrapped.len(), 8);
        assert_eq!(wrapped, run(false));
    }

    #[test]
    fn heavy_abort_churn_compacts_and_stays_consistent() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        for i in 0..500u64 {
            cpu.submit(t(0), JobId(i), d(1000 + i));
        }
        // Abort 80% of them: forces at least one compaction.
        for i in 0..500u64 {
            if i % 5 != 0 {
                assert!(cpu.abort(t(1), JobId(i)));
            }
        }
        assert_eq!(cpu.load(), 100);
        assert!(
            cpu.heap.entries().len() < 500,
            "compaction must have swept the heap"
        );
        // The survivors all complete, in submission (= key) order.
        let mut now = t(1);
        let mut done = Vec::new();
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            done.extend(cpu.collect_completions(now));
        }
        let expect: Vec<JobId> = (0..500).step_by(5).map(JobId).collect();
        assert_eq!(done, expect);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        let mut now = SimTime::ZERO;
        for round in 0..100u64 {
            for i in 0..10u64 {
                cpu.submit(now, JobId(round * 10 + i), d(5));
            }
            while let Some(next) = cpu.next_completion(now) {
                now = next;
                cpu.collect_completions(now);
            }
        }
        assert!(
            cpu.jobs.high_water() <= 10,
            "slab grew to {}",
            cpu.jobs.high_water()
        );
    }
}
