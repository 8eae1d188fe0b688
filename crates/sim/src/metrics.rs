//! Measurement infrastructure: time series, histograms, utilization
//! trackers and the time-windowed moving averages that the Jade
//! self-optimization sensors rely on (paper §4.1 and §5.2).

use crate::det::DetHashMap;
use crate::time::{SimDuration, SimTime};

/// A recorded `(time, value)` series, e.g. "number of database backends".
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Samples must be recorded in non-decreasing time
    /// order (the simulator clock guarantees this).
    pub fn record(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(pt, _)| pt <= t),
            "time series samples must be time-ordered"
        );
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arithmetic mean of the sample values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Largest sample value, or 0 for an empty series.
    pub fn max(&self) -> f64 {
        // Folding from the first sample (not 0.0) keeps all-negative
        // series honest.
        let mut values = self.points.iter().map(|&(_, v)| v);
        match values.next() {
            None => 0.0,
            Some(first) => values.fold(first, f64::max),
        }
    }

    /// Value of the last sample at or before `t` (step interpolation),
    /// or `default` when no such sample exists.
    pub fn value_at(&self, t: SimTime, default: f64) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => default,
            i => self.points[i - 1].1,
        }
    }

    /// [`TimeSeries::value_at`] through a [`SeriesCursor`]: amortized
    /// O(points passed since the previous call) for the monotone reads a
    /// periodic sensor performs, instead of O(log n) from scratch.
    pub fn value_at_cached(&self, cursor: &mut SeriesCursor, t: SimTime, default: f64) -> f64 {
        match cursor.seek(&self.points, t) {
            0 => default,
            i => self.points[i - 1].1,
        }
    }

    /// Time-weighted average over `[from, to]`, treating the series as a
    /// step function. Returns `None` if the series has no sample at or
    /// before `from` and no sample inside the window.
    pub fn time_weighted_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        if to <= from {
            return None;
        }
        let start = self.points.partition_point(|&(pt, _)| pt <= from);
        self.windowed_mean_from(start, from, to)
    }

    /// [`TimeSeries::time_weighted_mean`] through a [`SeriesCursor`]. The
    /// window scan itself is shared with the from-scratch path, so the
    /// floating-point operation sequence — and hence the result — is
    /// bit-identical; only the `partition_point` is replaced by the
    /// cursor's amortized-O(new points) seek.
    pub fn time_weighted_mean_cached(
        &self,
        cursor: &mut SeriesCursor,
        from: SimTime,
        to: SimTime,
    ) -> Option<f64> {
        let start = cursor.seek(&self.points, from);
        if to <= from {
            return None;
        }
        self.windowed_mean_from(start, from, to)
    }

    /// The shared window scan: `start` must equal
    /// `points.partition_point(|&(pt, _)| pt <= from)`.
    fn windowed_mean_from(&self, start: usize, from: SimTime, to: SimTime) -> Option<f64> {
        let mut acc = 0.0;
        let mut covered = 0.0;
        let mut cursor = from;
        let mut current = match start {
            0 => None,
            i => Some(self.points[i - 1].1),
        };
        for &(pt, v) in &self.points[start..] {
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
}

/// Cached window position into a [`TimeSeries`], making repeated
/// [`TimeSeries::value_at_cached`] / [`TimeSeries::time_weighted_mean_cached`]
/// reads over a sliding window O(new points) amortized instead of
/// O(log n + window) from scratch each time.
///
/// The cursor is only a starting hint: every seek re-validates against
/// the actual points (rewinding or advancing as needed), so an
/// out-of-order read degrades to a linear correction, never to a wrong
/// answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesCursor {
    start: usize,
}

impl SeriesCursor {
    /// A cursor positioned at the start of the series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `points.partition_point(|&(pt, _)| pt <= from)`, walking
    /// from the cached previous position.
    fn seek(&mut self, points: &[(SimTime, f64)], from: SimTime) -> usize {
        let mut i = self.start.min(points.len());
        while i > 0 && points[i - 1].0 > from {
            i -= 1;
        }
        while i < points.len() && points[i].0 <= from {
            i += 1;
        }
        self.start = i;
        i
    }
}

/// Moving average over a sliding window of virtual time.
///
/// This is the paper's temporal smoothing of CPU usage: "the CPU usage is
/// smoothed by a temporal average (moving average)" computed "over the last
/// 60 seconds for the application servers and over the last 90 seconds for
/// the database servers" (§5.2).
///
/// Samples live in a fixed-capacity ring buffer: once the buffer matches
/// the in-window population high-water mark (which
/// [`MovingAverage::with_period`] preallocates exactly for a periodic
/// probe), recording is allocation-free. The running-sum arithmetic —
/// `sum += v` on push, then front-to-back `sum -= old` evictions — is the
/// exact floating-point operation sequence of the original
/// `VecDeque`-backed implementation, so smoothed sensor values are
/// bit-identical.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: SimDuration,
    /// Ring storage; `buf.len()` is the capacity, always ≥ 1 once any
    /// sample has been recorded.
    buf: Vec<(SimTime, f64)>,
    head: usize,
    len: usize,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average with the given time window. The ring
    /// grows geometrically toward the in-window high-water mark; when the
    /// sampling period is known, [`MovingAverage::with_period`] sizes it
    /// up front.
    pub fn new(window: SimDuration) -> Self {
        MovingAverage {
            window,
            buf: Vec::new(),
            head: 0,
            len: 0,
            sum: 0.0,
        }
    }

    /// Creates a moving average whose ring is pre-sized for one sample
    /// every `period`: `window / period + 2` slots, so steady-state
    /// recording never allocates.
    pub fn with_period(window: SimDuration, period: SimDuration) -> Self {
        let cap = if period.is_zero() {
            8
        } else {
            (window.as_micros() / period.as_micros()).saturating_add(2) as usize
        };
        MovingAverage {
            window,
            buf: vec![(SimTime::ZERO, 0.0); cap.max(1)],
            head: 0,
            len: 0,
            sum: 0.0,
        }
    }

    /// Doubles the ring capacity, re-linearizing the live samples.
    #[cold]
    fn grow(&mut self) {
        let old_cap = self.buf.len();
        let new_cap = (old_cap * 2).max(8);
        let mut buf = Vec::with_capacity(new_cap);
        for i in 0..self.len {
            buf.push(self.buf[(self.head + i) % old_cap.max(1)]);
        }
        buf.resize(new_cap, (SimTime::ZERO, 0.0));
        self.buf = buf;
        self.head = 0;
    }

    /// Records a sample at time `t` and evicts samples older than the
    /// window.
    pub fn record(&mut self, t: SimTime, v: f64) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let cap = self.buf.len();
        self.buf[(self.head + self.len) % cap] = (t, v);
        self.len += 1;
        self.sum += v;
        let horizon = if t.as_micros() >= self.window.as_micros() {
            SimTime::from_micros(t.as_micros() - self.window.as_micros())
        } else {
            SimTime::ZERO
        };
        while self.len > 0 {
            let (st, sv) = self.buf[self.head];
            if st < horizon {
                self.head = (self.head + 1) % cap;
                self.len -= 1;
                self.sum -= sv;
            } else {
                break;
            }
        }
    }

    /// Current smoothed value (mean of in-window samples), or `None` when
    /// no sample is in the window.
    pub fn value(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.sum / self.len as f64)
        }
    }

    /// Number of samples currently inside the window.
    pub fn sample_count(&self) -> usize {
        self.len
    }

    /// Ring capacity in samples (diagnostic: steady-state recording must
    /// not grow it past the in-window high-water mark).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

/// Tracks the busy/idle state of a resource and integrates busy time, for
/// CPU-utilization measurements.
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    busy_since: Option<SimTime>,
    busy_accum: SimDuration,
    // Rolling snapshot support: utilization since the last `sample()` call.
    last_sample_at: SimTime,
    busy_at_last_sample: SimDuration,
}

impl Default for UtilizationTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl UtilizationTracker {
    /// Creates an idle tracker at t = 0.
    pub fn new() -> Self {
        UtilizationTracker {
            busy_since: None,
            busy_accum: SimDuration::ZERO,
            last_sample_at: SimTime::ZERO,
            busy_at_last_sample: SimDuration::ZERO,
        }
    }

    /// Marks the resource busy starting at `t`. Idempotent.
    pub fn set_busy(&mut self, t: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(t);
        }
    }

    /// Marks the resource idle at `t`. Idempotent.
    pub fn set_idle(&mut self, t: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_accum += t - since;
        }
    }

    /// Total busy time accumulated up to `t`.
    pub fn busy_time(&self, t: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.busy_accum + (t - since),
            None => self.busy_accum,
        }
    }

    /// Utilization (0..=1) over the window since the previous `sample` call,
    /// then resets the window. This is what a periodic CPU probe reads.
    pub fn sample(&mut self, t: SimTime) -> f64 {
        let busy_now = self.busy_time(t);
        let window = t - self.last_sample_at;
        let busy_delta = busy_now.saturating_sub(self.busy_at_last_sample);
        self.last_sample_at = t;
        self.busy_at_last_sample = busy_now;
        if window.is_zero() {
            0.0
        } else {
            (busy_delta.as_secs_f64() / window.as_secs_f64()).min(1.0)
        }
    }

    /// True when the resource is idle and has accumulated no busy time
    /// since the last `sample`: every further `sample(t)` reads exactly
    /// `0.0` and only moves the window start to `t`.
    pub fn is_quiet(&self) -> bool {
        self.busy_since.is_none() && self.busy_at_last_sample == self.busy_accum
    }

    /// Moves the window start of a quiet tracker to `t` — the state any
    /// number of `sample` calls ending at `t` would have left — so a
    /// periodic probe may skip a quiet resource and catch up later.
    pub fn rebase_idle_window(&mut self, t: SimTime) {
        debug_assert!(self.is_quiet() && t >= self.last_sample_at);
        self.last_sample_at = t;
    }
}

/// Fixed-bucket latency histogram with quantile queries.
///
/// Buckets are exponential (1 ms base, ×2) so both the ~90 ms steady-state
/// responses of Table 1 and the 300-second thrashing latencies of Figure 8
/// land in meaningful buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket 0 counts samples in [0, 1) ms; bucket i ≥ 1 counts
    /// [2^(i−1), 2^i) ms (1 ms lands in bucket 1), so 2^i is its upper
    /// edge. The last bucket also takes everything above.
    buckets: Vec<u64>,
    count: u64,
    sum_ms: f64,
    max_ms: f64,
}

const HIST_BUCKETS: usize = 32;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    // jade-audit: allow(hot-alloc): runs once per distinct metric name
    // when the name is first interned, never per recorded sample.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        let ms = d.as_millis_f64();
        let idx = if ms < 1.0 {
            0
        } else {
            ((ms.log2().floor() as usize) + 1).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Largest observation in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Approximate quantile (0..=1) in milliseconds, using the upper edge
    /// of the bucket containing the quantile.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 1.0 } else { (1u64 << i) as f64 };
            }
        }
        self.max_ms
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

/// Interned handle to a time series, for allocation- and hash-free
/// recording on the simulation hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

/// Interned handle to a latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Interned handle to a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Central sink for named measurements produced during a run.
///
/// The hub is owned by the engine so that all simulation actors can record
/// without sharing ownership; after the run it is taken apart by the
/// experiment harness.
///
/// Metrics are stored in insertion-ordered vectors with a name index on
/// the side. Recording by name never allocates once the metric exists;
/// hot-path producers (per-request latency, the periodic probes) intern a
/// [`SeriesId`]/[`HistogramId`]/[`CounterId`] once and record through it,
/// skipping even the name hash. [`record_series_batch`] appends one probe
/// tick's worth of samples in a single call.
///
/// [`record_series_batch`]: MetricsHub::record_series_batch
#[derive(Clone, Debug, Default)]
pub struct MetricsHub {
    series: Vec<(String, TimeSeries)>,
    series_index: DetHashMap<String, u32>,
    histograms: Vec<(String, Histogram)>,
    histogram_index: DetHashMap<String, u32>,
    counters: Vec<(String, u64)>,
    counter_index: DetHashMap<String, u32>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a series name, creating the (empty) series if needed.
    // jade-audit: allow(hot-alloc, unbounded-growth): intern table —
    // allocates and grows once per distinct static metric name (the
    // early-return hits on every subsequent call), bounded by the set of
    // names in the source, not by run length.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&i) = self.series_index.get(name) {
            return SeriesId(i);
        }
        let i = self.series.len() as u32;
        self.series.push((name.to_owned(), TimeSeries::new()));
        self.series_index.insert(name.to_owned(), i);
        SeriesId(i)
    }

    /// Interns a histogram name, creating the (empty) histogram if needed.
    // jade-audit: allow(hot-alloc, unbounded-growth): intern table — see
    // series_id; one allocation per distinct static metric name.
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        if let Some(&i) = self.histogram_index.get(name) {
            return HistogramId(i);
        }
        let i = self.histograms.len() as u32;
        self.histograms.push((name.to_owned(), Histogram::new()));
        self.histogram_index.insert(name.to_owned(), i);
        HistogramId(i)
    }

    /// Interns a counter name, creating it at zero if needed.
    // jade-audit: allow(hot-alloc, unbounded-growth): intern table — see
    // series_id; one allocation per distinct static metric name.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.counter_index.get(name) {
            return CounterId(i);
        }
        let i = self.counters.len() as u32;
        self.counters.push((name.to_owned(), 0));
        self.counter_index.insert(name.to_owned(), i);
        CounterId(i)
    }

    /// Appends to the named time series.
    pub fn record_series(&mut self, name: &str, t: SimTime, v: f64) {
        let id = self.series_id(name);
        self.record_series_id(id, t, v);
    }

    /// Appends to an interned series (hot path: no hashing).
    // jade-audit: allow(hot-panic): SeriesId is only minted by series_id,
    // which returns dense indexes into this same vector.
    #[inline]
    pub fn record_series_id(&mut self, id: SeriesId, t: SimTime, v: f64) {
        self.series[id.0 as usize].1.record(t, v);
    }

    /// Appends one sample to each listed series at the same instant — the
    /// shape of a periodic probe tick.
    pub fn record_series_batch(&mut self, t: SimTime, samples: &[(SeriesId, f64)]) {
        for &(id, v) in samples {
            self.record_series_id(id, t, v);
        }
    }

    /// Records a latency in an interned histogram (hot path).
    // jade-audit: allow(hot-panic): HistogramId is only minted by
    // histogram_id, which returns dense indexes into this same vector.
    #[inline]
    pub fn record_latency_id(&mut self, id: HistogramId, d: SimDuration) {
        self.histograms[id.0 as usize].1.record(d);
    }

    /// Increments the named counter.
    pub fn incr(&mut self, name: &str, by: u64) {
        let id = self.counter_id(name);
        self.incr_id(id, by);
    }

    /// Increments an interned counter (hot path).
    // jade-audit: allow(hot-panic): CounterId is only minted by
    // counter_id, which returns dense indexes into this same vector.
    #[inline]
    pub fn incr_id(&mut self, id: CounterId, by: u64) {
        self.counters[id.0 as usize].1 += by;
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series_index
            .get(name)
            .map(|&i| &self.series[i as usize].1)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_index
            .get(name)
            .map(|&i| &self.histograms[i as usize].1)
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map(|&i| self.counters[i as usize].1)
            .unwrap_or(0)
    }

    /// Names of all recorded series, sorted (deterministic output).
    pub fn series_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.series.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn series_value_at_steps() {
        let mut ts = TimeSeries::new();
        ts.record(t(1), 1.0);
        ts.record(t(5), 2.0);
        assert_eq!(ts.value_at(t(0), 9.0), 9.0);
        assert_eq!(ts.value_at(t(1), 9.0), 1.0);
        assert_eq!(ts.value_at(t(4), 9.0), 1.0);
        assert_eq!(ts.value_at(t(10), 9.0), 2.0);
    }

    #[test]
    fn series_time_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.record(t(0), 0.0);
        ts.record(t(10), 1.0);
        // 0 for 10s then 1 for 10s -> mean 0.5
        let m = ts.time_weighted_mean(t(0), t(20)).unwrap();
        assert!((m - 0.5).abs() < 1e-9);
        // Window entirely before first sample -> None
        let mut ts2 = TimeSeries::new();
        ts2.record(t(50), 1.0);
        assert!(ts2.time_weighted_mean(t(0), t(10)).is_none());
    }

    #[test]
    fn series_max_handles_all_negative_values() {
        let mut ts = TimeSeries::new();
        ts.record(t(1), -5.0);
        ts.record(t(2), -2.0);
        ts.record(t(3), -9.0);
        assert_eq!(ts.max(), -2.0);
        assert_eq!(TimeSeries::new().max(), 0.0);
    }

    #[test]
    fn series_cursor_matches_from_scratch_reads() {
        let mut ts = TimeSeries::new();
        for i in 0..200u64 {
            ts.record(t(i), (i as f64).sin());
        }
        let mut cur = SeriesCursor::new();
        // Forward walk, then a rewind, then a jump past the end.
        for &from in &[0u64, 3, 10, 50, 49, 120, 5, 199, 400] {
            let to = t(from + 17);
            let naive = ts.time_weighted_mean(t(from), to);
            let cached = ts.time_weighted_mean_cached(&mut cur, t(from), to);
            assert_eq!(
                naive.map(f64::to_bits),
                cached.map(f64::to_bits),
                "window [{from}, {from}+17]"
            );
            assert_eq!(
                ts.value_at(t(from), -1.0).to_bits(),
                ts.value_at_cached(&mut cur, t(from), -1.0).to_bits()
            );
        }
    }

    #[test]
    fn moving_average_evicts_old_samples() {
        let mut ma = MovingAverage::new(SimDuration::from_secs(10));
        ma.record(t(0), 100.0);
        ma.record(t(5), 0.0);
        assert_eq!(ma.value(), Some(50.0));
        ma.record(t(20), 0.0); // the t=0 and t=5 samples fall out
        assert_eq!(ma.sample_count(), 1);
        assert_eq!(ma.value(), Some(0.0));
    }

    #[test]
    fn moving_average_keeps_window_inclusive() {
        let mut ma = MovingAverage::new(SimDuration::from_secs(10));
        ma.record(t(0), 4.0);
        ma.record(t(10), 2.0); // t=0 is exactly at the horizon: kept
        assert_eq!(ma.sample_count(), 2);
        assert_eq!(ma.value(), Some(3.0));
    }

    #[test]
    fn moving_average_ring_never_grows_in_steady_state() {
        // One sample per second into a 60 s window, pre-sized.
        let mut ma =
            MovingAverage::with_period(SimDuration::from_secs(60), SimDuration::from_secs(1));
        let cap = ma.capacity();
        for i in 0..10_000u64 {
            ma.record(t(i), (i % 7) as f64);
        }
        assert_eq!(ma.capacity(), cap, "steady-state recording must not grow");
        assert_eq!(ma.sample_count(), 61);
    }

    #[test]
    fn moving_average_ring_wraps_across_eviction_boundaries() {
        let mut ma = MovingAverage::new(SimDuration::from_secs(5));
        for i in 0..100u64 {
            ma.record(t(i), i as f64);
            // In-window mean of {i-5..=i} clipped at 0.
            let lo = i.saturating_sub(5);
            let expect = (lo..=i).map(|x| x as f64).sum::<f64>() / (i - lo + 1) as f64;
            assert!((ma.value().unwrap() - expect).abs() < 1e-9, "at t={i}");
        }
    }

    #[test]
    fn utilization_tracker_windows() {
        let mut u = UtilizationTracker::new();
        u.set_busy(t(0));
        u.set_idle(t(5));
        assert!((u.sample(t(10)) - 0.5).abs() < 1e-9);
        // Second window: idle the whole time.
        assert_eq!(u.sample(t(20)), 0.0);
        // Busy across a sample boundary.
        u.set_busy(t(20));
        assert!((u.sample(t(30)) - 1.0).abs() < 1e-9);
        u.set_idle(t(35));
        assert!((u.sample(t(40)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_idempotent_transitions() {
        let mut u = UtilizationTracker::new();
        u.set_busy(t(0));
        u.set_busy(t(2)); // ignored, still busy since t=0
        u.set_idle(t(4));
        u.set_idle(t(6)); // ignored
        assert_eq!(u.busy_time(t(10)), SimDuration::from_secs(4));
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(SimDuration::from_millis(10));
        }
        for _ in 0..10 {
            h.record(SimDuration::from_millis(1000));
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean_ms() - 109.0).abs() < 1e-9);
        assert!(h.quantile_ms(0.5) <= 16.0);
        assert!(h.quantile_ms(0.99) >= 512.0);
        assert_eq!(h.max_ms(), 1000.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_millis(5));
        b.record(SimDuration::from_millis(50));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ms(), 50.0);
    }

    #[test]
    fn hub_roundtrip() {
        let mut hub = MetricsHub::new();
        hub.record_series("cpu", t(1), 0.5);
        let latency = hub.histogram_id("latency");
        hub.record_latency_id(latency, SimDuration::from_millis(100));
        hub.incr("requests", 3);
        assert_eq!(hub.series("cpu").unwrap().len(), 1);
        assert_eq!(hub.histogram("latency").unwrap().count(), 1);
        assert_eq!(hub.counter("requests"), 3);
        assert_eq!(hub.counter("missing"), 0);
        assert_eq!(hub.series_names(), vec!["cpu"]);
    }

    #[test]
    fn interned_ids_alias_names() {
        let mut hub = MetricsHub::new();
        let id = hub.series_id("cpu");
        assert_eq!(id, hub.series_id("cpu"));
        hub.record_series_id(id, t(1), 0.25);
        hub.record_series("cpu", t(2), 0.75);
        assert_eq!(hub.series("cpu").unwrap().len(), 2);

        let h = hub.histogram_id("lat");
        hub.record_latency_id(h, SimDuration::from_millis(10));
        assert_eq!(hub.histogram("lat").unwrap().count(), 1);

        let c = hub.counter_id("reqs");
        hub.incr_id(c, 2);
        hub.incr("reqs", 1);
        assert_eq!(hub.counter("reqs"), 3);
    }

    #[test]
    fn batch_records_at_one_instant() {
        let mut hub = MetricsHub::new();
        let a = hub.series_id("a");
        let b = hub.series_id("b");
        hub.record_series_batch(t(5), &[(a, 1.0), (b, 2.0)]);
        assert_eq!(hub.series("a").unwrap().points(), &[(t(5), 1.0)]);
        assert_eq!(hub.series("b").unwrap().points(), &[(t(5), 2.0)]);
    }
}
