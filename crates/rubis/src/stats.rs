//! Workload statistics: "this benchmarking tool gathers statistics about
//! the generated workload and the web application behavior" (paper §5.2).
//!
//! Latency and throughput are bucketed into fixed windows of virtual time
//! so the harness can print the latency-vs-time series of Figures 8 and 9
//! and the averages the paper quotes (590 ms with Jade vs 10.42 s
//! without).

use jade_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Per-window aggregates.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Completed requests in the window.
    pub completed: u64,
    /// Failed/aborted requests in the window.
    pub failed: u64,
    /// Sum of latencies (ms) of completed requests.
    pub latency_sum_ms: f64,
    /// Max latency (ms) observed in the window.
    pub latency_max_ms: f64,
}

impl WindowStats {
    /// Mean latency of the window, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum_ms / self.completed as f64
        }
    }
}

/// Per-interaction-type aggregates (the RUBiS report's breakdown table).
#[derive(Debug, Clone, Default)]
pub struct InteractionStats {
    /// Completed requests of this interaction.
    pub completed: u64,
    /// Failed/abandoned requests of this interaction.
    pub failed: u64,
    /// Sum of latencies (ms) of completed requests.
    pub latency_sum_ms: f64,
    /// Worst observed latency, ms.
    pub latency_max_ms: f64,
}

impl InteractionStats {
    /// Mean latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum_ms / self.completed as f64
        }
    }
}

/// Collects client-side statistics over fixed windows.
#[derive(Clone, Debug)]
pub struct StatsCollector {
    window: SimDuration,
    windows: Vec<WindowStats>,
    per_interaction: BTreeMap<&'static str, InteractionStats>,
    total_completed: u64,
    total_failed: u64,
    total_latency_ms: f64,
}

impl StatsCollector {
    /// Creates a collector with the given window length.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero());
        StatsCollector {
            window,
            windows: Vec::new(),
            per_interaction: BTreeMap::new(),
            total_completed: 0,
            total_failed: 0,
            total_latency_ms: 0.0,
        }
    }

    // jade-audit: allow(hot-panic): the resize on the preceding line
    // guarantees idx < windows.len().
    fn window_mut(&mut self, t: SimTime) -> &mut WindowStats {
        let idx = (t.as_micros() / self.window.as_micros()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowStats::default());
        }
        &mut self.windows[idx]
    }

    /// Records one completed request.
    pub fn record_completion(&mut self, t: SimTime, latency: SimDuration) {
        self.record_completion_of(t, latency, "");
    }

    /// Records one completed request of a named interaction type.
    pub fn record_completion_of(
        &mut self,
        t: SimTime,
        latency: SimDuration,
        interaction: &'static str,
    ) {
        let ms = latency.as_millis_f64();
        let w = self.window_mut(t);
        w.completed += 1;
        w.latency_sum_ms += ms;
        w.latency_max_ms = w.latency_max_ms.max(ms);
        self.total_completed += 1;
        self.total_latency_ms += ms;
        if !interaction.is_empty() {
            let s = self.per_interaction.entry(interaction).or_default();
            s.completed += 1;
            s.latency_sum_ms += ms;
            s.latency_max_ms = s.latency_max_ms.max(ms);
        }
    }

    /// Records one failed request (server stopped, no backend…).
    pub fn record_failure(&mut self, t: SimTime) {
        self.record_failure_of(t, "");
    }

    /// Records one failed request of a named interaction type.
    pub fn record_failure_of(&mut self, t: SimTime, interaction: &'static str) {
        self.window_mut(t).failed += 1;
        self.total_failed += 1;
        if !interaction.is_empty() {
            self.per_interaction.entry(interaction).or_default().failed += 1;
        }
    }

    /// Per-interaction breakdown, sorted by name (the RUBiS report table).
    pub fn per_interaction(&self) -> impl Iterator<Item = (&'static str, &InteractionStats)> {
        self.per_interaction.iter().map(|(&k, v)| (k, v))
    }

    /// Window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// All windows so far (trailing windows may be empty).
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// `(window start time, mean latency ms)` series.
    pub fn latency_series(&self) -> Vec<(SimTime, f64)> {
        self.windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                (
                    SimTime::from_micros(i as u64 * self.window.as_micros()),
                    w.mean_latency_ms(),
                )
            })
            .collect()
    }

    /// Total completed requests.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Total failed requests.
    pub fn total_failed(&self) -> u64 {
        self.total_failed
    }

    /// Run-wide mean latency, ms.
    pub fn overall_mean_latency_ms(&self) -> f64 {
        if self.total_completed == 0 {
            0.0
        } else {
            self.total_latency_ms / self.total_completed as f64
        }
    }

    /// Mean latency (ms) over the most recent complete window before
    /// `now` — the response-time estimator a latency sensor reads
    /// (paper §4.2). Falls back to the current window, then to 0.
    pub fn recent_mean_latency_ms(&self, now: SimTime) -> f64 {
        let idx = (now.as_micros() / self.window.as_micros()) as usize;
        // Prefer the last *complete* window; it has a stable denominator.
        if idx >= 1 {
            if let Some(w) = self.windows.get(idx - 1) {
                if w.completed > 0 {
                    return w.mean_latency_ms();
                }
            }
        }
        self.windows
            .get(idx)
            .map(WindowStats::mean_latency_ms)
            .unwrap_or(0.0)
    }

    /// Mean throughput over `[0, until]`, req/s.
    pub fn overall_throughput(&self, until: SimTime) -> f64 {
        let secs = until.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_completed as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn windows_bucket_by_time() {
        let mut s = StatsCollector::new(SimDuration::from_secs(10));
        s.record_completion(t(1), d(100));
        s.record_completion(t(5), d(300));
        s.record_completion(t(15), d(50));
        s.record_failure(t(15));
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[0].completed, 2);
        assert!((s.windows()[0].mean_latency_ms() - 200.0).abs() < 1e-9);
        assert_eq!(s.windows()[1].failed, 1);
        assert_eq!(s.total_completed(), 3);
        assert_eq!(s.total_failed(), 1);
    }

    #[test]
    fn series_and_overall_stats() {
        let mut s = StatsCollector::new(SimDuration::from_secs(10));
        for i in 0..20 {
            s.record_completion(t(i), d(100));
        }
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[0].completed, 10);
        assert!((s.overall_mean_latency_ms() - 100.0).abs() < 1e-9);
        assert!((s.overall_throughput(t(20)) - 1.0).abs() < 1e-9);
        let lat = s.latency_series();
        assert!((lat[1].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn per_interaction_breakdown() {
        let mut s = StatsCollector::new(SimDuration::from_secs(10));
        s.record_completion_of(t(1), d(100), "ViewItem");
        s.record_completion_of(t(2), d(300), "ViewItem");
        s.record_completion_of(t(3), d(50), "Home");
        s.record_failure_of(t(4), "StoreBid");
        let table: Vec<(&str, u64, f64)> = s
            .per_interaction()
            .map(|(name, st)| (name, st.completed, st.mean_latency_ms()))
            .collect();
        assert_eq!(table.len(), 3);
        let view = s
            .per_interaction()
            .find(|(n, _)| *n == "ViewItem")
            .unwrap()
            .1;
        assert_eq!(view.completed, 2);
        assert!((view.mean_latency_ms() - 200.0).abs() < 1e-9);
        assert_eq!(view.latency_max_ms, 300.0);
        let store = s
            .per_interaction()
            .find(|(n, _)| *n == "StoreBid")
            .unwrap()
            .1;
        assert_eq!(store.failed, 1);
        // Totals unaffected by the breakdown.
        assert_eq!(s.total_completed(), 3);
        assert_eq!(s.total_failed(), 1);
    }

    #[test]
    fn recent_latency_prefers_last_complete_window() {
        let mut s = StatsCollector::new(SimDuration::from_secs(10));
        s.record_completion(t(5), d(100));
        s.record_completion(t(12), d(300));
        // At t=15 the last complete window is [0,10): mean 100.
        assert!((s.recent_mean_latency_ms(t(15)) - 100.0).abs() < 1e-9);
        // At t=25 the last complete window is [10,20): mean 300.
        assert!((s.recent_mean_latency_ms(t(25)) - 300.0).abs() < 1e-9);
        // Empty previous window falls back to the current one.
        let mut s2 = StatsCollector::new(SimDuration::from_secs(10));
        s2.record_completion(t(12), d(50));
        assert!((s2.recent_mean_latency_ms(t(15)) - 50.0).abs() < 1e-9);
        // Nothing at all -> 0.
        let s3 = StatsCollector::new(SimDuration::from_secs(10));
        assert_eq!(s3.recent_mean_latency_ms(t(15)), 0.0);
    }

    #[test]
    fn empty_collector_is_sane() {
        let s = StatsCollector::new(SimDuration::from_secs(10));
        assert_eq!(s.overall_mean_latency_ms(), 0.0);
        assert_eq!(s.overall_throughput(t(100)), 0.0);
        assert!(s.windows().is_empty());
    }
}
