//! Aggregate client emulation: idle sessions as per-state counts.
//!
//! Per-client emulation ([`crate::client::EmulatedClient`]) owns one
//! object, one forked RNG and one pending think timer per session — fine
//! at the paper's 500 clients, hopeless at a production-scale million.
//! This module replaces the *idle* side of the population with bare
//! counts: for each navigation state, how many sessions are parked there
//! thinking. A session only materializes into per-request state when its
//! think time expires and a request actually enters the system.
//!
//! The collapse is exact in distribution because think times are
//! exponential and therefore memoryless: an idle session fires within a
//! tick of length `dt` with probability `p = 1 − exp(−dt/mean)`
//! regardless of how long it has already been idle, so the number of
//! issuers from a bucket of `n` indistinguishable sessions is
//! `Binomial(n, p)`. The driver samples that binomial and a uniform
//! offset within the tick for each issuer; everything downstream of
//! issuance (navigation transition, plan generation, routing) is the
//! same machinery per-client mode uses.
//!
//! # RNG draw order (load-bearing, pinned by tests)
//!
//! Determinism across runs and harness worker counts requires a fixed
//! draw order. Each tick consumes draws **by bucket, in state-index
//! order with the fresh bucket first**: for the fresh bucket, then for
//! every navigation state `0..INTERACTIONS.len()` ascending, the pool
//! draws geometric inter-issuer gaps (the O(k) binomial sampler — one
//! uniform per issuer plus one terminating draw per non-empty bucket),
//! and hands the RNG to the issuance callback after each gap draw so the
//! caller's per-issuer draws (dispatch offset, navigation transition)
//! interleave at documented points. A bucket with `p = 0` or no idle
//! sessions consumes no draws. `tests/aggregate_clients.rs` and the
//! determinism suite pin this order end to end.

use crate::interactions::INTERACTIONS;
use jade_sim::SimRng;

/// Bucket index for sessions that have not yet issued their first
/// request (no navigation state; they enter the chain at `Home` without
/// consuming a transition draw).
pub const FRESH_BUCKET: usize = INTERACTIONS.len();

/// Idle-session population, bucketed by navigation state.
#[derive(Debug, Clone)]
pub struct ClientPool {
    /// `idle[s]` = sessions parked in navigation state `s`;
    /// `idle[FRESH_BUCKET]` = sessions yet to issue their first request.
    idle: Vec<u64>,
    /// Sessions with a request in flight (includes retiring ones).
    busy: u64,
    /// In-flight sessions that leave the population on completion
    /// instead of returning to idle (ramp-down debt).
    retiring: u64,
}

impl Default for ClientPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ClientPool {
            idle: vec![0; INTERACTIONS.len() + 1],
            busy: 0,
            retiring: 0,
        }
    }

    /// Live population: idle plus in-flight, minus ramp-down debt.
    pub fn total(&self) -> u64 {
        let idle: u64 = self.idle.iter().sum();
        idle + self.busy - self.retiring
    }

    /// Sessions currently holding a request in flight.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Idle sessions parked in `bucket`.
    pub fn idle_in(&self, bucket: usize) -> u64 {
        self.idle[bucket]
    }

    /// Adjusts the population to `target`, mirroring per-client ramping:
    /// growth adds fresh sessions (first cancelling any pending
    /// retirement debt); shrinkage removes idle sessions — fresh bucket
    /// first, then navigation states in index order — and books any
    /// remainder as retirement debt settled when in-flight requests
    /// complete (a per-client slot likewise parks only at the end of its
    /// current cycle).
    // jade-audit: allow(hot-panic): idle[] has a fixed layout of
    // INTERACTIONS.len() + 1 buckets; bucket indexes come from iterating
    // exactly that range.
    pub fn set_target(&mut self, target: u64) {
        let total = self.total();
        if target >= total {
            let mut grow = target - total;
            let cancel = self.retiring.min(grow);
            self.retiring -= cancel;
            grow -= cancel;
            self.idle[FRESH_BUCKET] += grow;
            return;
        }
        let mut shrink = total - target;
        let order = std::iter::once(FRESH_BUCKET).chain(0..INTERACTIONS.len());
        for bucket in order {
            if shrink == 0 {
                return;
            }
            let take = self.idle[bucket].min(shrink);
            self.idle[bucket] -= take;
            shrink -= take;
        }
        debug_assert!(self.busy - self.retiring >= shrink);
        self.retiring += shrink;
    }

    /// Runs one issuance tick: every idle session independently fires
    /// with probability `p` (`= 1 − exp(−dt/mean_think)` for exponential
    /// think times). For each firing session, `issue(rng, bucket)` is
    /// called — in the documented bucket order — and the session moves
    /// to the busy set; the callback performs the caller's per-issuer
    /// draws (offset, transition) and schedules the actual dispatch.
    // jade-audit: allow(hot-panic): bucket indexes iterate the fixed
    // idle[] layout (see set_target).
    pub fn tick(&mut self, p: f64, rng: &mut SimRng, mut issue: impl FnMut(&mut SimRng, usize)) {
        if p <= 0.0 {
            return;
        }
        let all = p >= 1.0;
        // ln(1−p) is finite and negative for p in (0, 1); `all` guards
        // the degenerate cases so the gap math never sees ±∞/NaN.
        let denom = if all { 0.0 } else { (1.0 - p).ln() };
        let order = std::iter::once(FRESH_BUCKET).chain(0..INTERACTIONS.len());
        for bucket in order {
            let n = self.idle[bucket];
            if n == 0 {
                continue;
            }
            let mut fired = 0u64;
            if all {
                fired = n;
                for _ in 0..n {
                    issue(rng, bucket);
                }
            } else {
                // Geometric-gap binomial sampling: walk the n Bernoulli
                // trials jumping straight to the next success. O(k)
                // draws for k issuers instead of O(n) — the whole point
                // at a million idle sessions per tick.
                let mut pos = 0u64;
                loop {
                    let u = rng.f64();
                    // Gap ~ Geometric(p): failures before the next
                    // success. The f64→u64 cast saturates, handling the
                    // astronomically unlikely u ≈ 1 tail.
                    let gap = ((1.0 - u).ln() / denom).floor() as u64;
                    if gap >= n - pos {
                        break;
                    }
                    pos += gap;
                    issue(rng, bucket);
                    fired += 1;
                    pos += 1;
                    if pos >= n {
                        break;
                    }
                }
            }
            self.idle[bucket] -= fired;
            self.busy += fired;
        }
    }

    /// Returns a session to the pool after its request left the system
    /// (completed, failed, or abandoned). `bucket` is the navigation
    /// state the session ended the interaction in (or [`FRESH_BUCKET`]
    /// under the i.i.d. mix, which tracks no state). Retirement debt
    /// from ramp-down is settled here instead of re-idling.
    // jade-audit: allow(hot-panic): bucket is the return bucket a dispatch
    // carried — a tick bucket or a navigation state, both within the
    // fixed idle[] layout (see set_target).
    pub fn complete(&mut self, bucket: usize) {
        debug_assert!(self.busy > 0);
        self.busy -= 1;
        if self.retiring > 0 {
            self.retiring -= 1;
        } else {
            self.idle[bucket] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_conserved_through_tick_and_complete() {
        let mut pool = ClientPool::new();
        let mut rng = SimRng::seed_from_u64(7);
        pool.set_target(10_000);
        assert_eq!(pool.total(), 10_000);
        let mut issued = Vec::new();
        pool.tick(0.05, &mut rng, |_, bucket| issued.push(bucket));
        assert_eq!(pool.busy(), issued.len() as u64);
        assert_eq!(pool.total(), 10_000, "tick must not create or destroy");
        for &bucket in &issued {
            // Sessions return in an arbitrary navigation state.
            pool.complete((bucket + 3) % FRESH_BUCKET);
        }
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.total(), 10_000);
    }

    #[test]
    fn issuance_count_tracks_the_binomial_mean() {
        let mut pool = ClientPool::new();
        let mut rng = SimRng::seed_from_u64(42);
        pool.set_target(1_000_000);
        let p = 0.0153; // ≈ 100 ms tick at a 6.5 s mean think time
        let mut count = 0u64;
        pool.tick(p, &mut rng, |_, _| count += 1);
        let mean = 1_000_000.0 * p;
        let sd = (1_000_000.0 * p * (1.0 - p)).sqrt();
        assert!(
            (count as f64 - mean).abs() < 6.0 * sd,
            "issued {count}, expected ≈ {mean:.0} ± {sd:.0}"
        );
    }

    #[test]
    fn draw_order_visits_fresh_then_states_ascending() {
        let mut pool = ClientPool::new();
        let mut rng = SimRng::seed_from_u64(3);
        pool.set_target(500);
        // Scatter sessions across several buckets via completions.
        let mut first = Vec::new();
        pool.tick(0.9, &mut rng, |_, bucket| first.push(bucket));
        for (i, &bucket) in first.iter().enumerate() {
            let _ = bucket;
            pool.complete(i % 5);
        }
        let mut seen = Vec::new();
        pool.tick(0.9, &mut rng, |_, bucket| seen.push(bucket));
        assert!(!seen.is_empty());
        // Fresh bucket strictly precedes every navigation state, and
        // states appear in ascending index order.
        let rank = |b: usize| if b == FRESH_BUCKET { 0 } else { b + 1 };
        let ranks: Vec<usize> = seen.iter().map(|&b| rank(b)).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "bucket visit order must be fresh, 0, 1, …");
    }

    #[test]
    fn tick_with_zero_probability_consumes_no_draws() {
        let mut pool = ClientPool::new();
        pool.set_target(100);
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        pool.tick(0.0, &mut a, |_, _| panic!("nothing may issue at p = 0"));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn certain_probability_issues_everyone() {
        let mut pool = ClientPool::new();
        let mut rng = SimRng::seed_from_u64(1);
        pool.set_target(777);
        let mut count = 0;
        pool.tick(1.0, &mut rng, |_, _| count += 1);
        assert_eq!(count, 777);
        assert_eq!(pool.busy(), 777);
    }

    #[test]
    fn shrink_prefers_idle_and_books_retirement_debt() {
        let mut pool = ClientPool::new();
        let mut rng = SimRng::seed_from_u64(5);
        pool.set_target(100);
        pool.tick(1.0, &mut rng, |_, _| {}); // all 100 in flight
        pool.set_target(40); // nothing idle: all 60 become debt
        assert_eq!(pool.total(), 40);
        assert_eq!(pool.busy(), 100);
        // 60 completions retire; the rest re-idle.
        for _ in 0..100 {
            pool.complete(0);
        }
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.total(), 40);
        assert_eq!(pool.idle_in(0), 40);
        // Growth after debt would first have cancelled it; from here it
        // just adds fresh sessions.
        pool.set_target(50);
        assert_eq!(pool.idle_in(FRESH_BUCKET), 10);
    }
}
