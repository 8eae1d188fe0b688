//! The oracle of `tests/cpu_prop.rs`: [`NaivePsCpu`] is the original
//! scan-on-advance processor-sharing CPU. It stores each job's
//! *remaining* demand and subtracts the interval's progress from every
//! resident job on each driver call — O(n) per operation.
//! `jade_sim::PsCpu` replaced it with the O(log n) virtual-time
//! formulation (see the module docs of `crates/sim/src/cpu.rs`); this copy
//! is what the property suite checks the rewrite against.

// Each suite that includes this file calls only part of the oracle.
#![allow(dead_code)]

use jade_sim::metrics::UtilizationTracker;
use jade_sim::{EfficiencyCurve, JobId, SimDuration, SimTime};

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
