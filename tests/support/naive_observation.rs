//! The oracle of `tests/observation_prop.rs`: the observation plane the
//! streaming probe tick replaced — the `VecDeque` moving average
//! ([`NaiveMovingAverage`]), from-scratch window scans
//! ([`naive_time_weighted_mean`], [`naive_value_at`]) and the map-based
//! probe tick ([`NaiveObservation`]).

// Each suite that includes this file calls only part of the oracle.
#![allow(dead_code)]

use jade_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

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
}
