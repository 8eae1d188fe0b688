//! Sensors (paper §3.4): "Sensors are responsible for the detection of the
//! occurrence of a particular event … sensors must monitor and aggregate
//! low-level information such as CPU/memory usage, or higher-level
//! information such as client response times."
//!
//! The CPU sensor reproduces §5.2 exactly: it "gathers the CPU usage of
//! these nodes every second and computes a spatial (over these nodes) and
//! temporal (over the last period) average CPU usage value".

use jade_sim::{MovingAverage, SimDuration, SimTime};

/// A sensor turning raw samples into a smoothed load indicator.
pub trait Sensor {
    /// Feeds the spatial average measured at `t`; returns the smoothed
    /// indicator, or `None` while the window is still empty.
    fn observe(&mut self, t: SimTime, spatial_avg: f64) -> Option<f64>;

    /// Current smoothed value without feeding a new sample.
    fn value(&self) -> Option<f64>;
}

/// CPU-usage sensor with a temporal moving average.
#[derive(Debug, Clone)]
pub struct CpuAvgSensor {
    ma: MovingAverage,
}

impl CpuAvgSensor {
    /// Creates a sensor with the given smoothing window (the paper uses
    /// 60 s for the application tier and 90 s for the database tier).
    pub fn new(window: SimDuration) -> Self {
        CpuAvgSensor {
            ma: MovingAverage::new(window),
        }
    }

    /// Like [`CpuAvgSensor::new`], but sized for samples arriving every
    /// `period` so the backing ring never grows in steady state.
    pub fn with_period(window: SimDuration, period: SimDuration) -> Self {
        CpuAvgSensor {
            ma: MovingAverage::with_period(window, period),
        }
    }
}

impl Sensor for CpuAvgSensor {
    fn observe(&mut self, t: SimTime, spatial_avg: f64) -> Option<f64> {
        self.ma.record(t, spatial_avg.clamp(0.0, 1.0));
        self.ma.value()
    }

    fn value(&self) -> Option<f64> {
        self.ma.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn cpu_sensor_smooths_spikes() {
        let mut s = CpuAvgSensor::new(SimDuration::from_secs(60));
        for i in 0..59 {
            s.observe(t(i), 0.2);
        }
        // One artifact spike.
        let v = s.observe(t(59), 1.0).unwrap();
        assert!(v < 0.25, "single spike must be smoothed away, got {v}");
    }

    #[test]
    fn cpu_sensor_tracks_sustained_load() {
        let mut s = CpuAvgSensor::new(SimDuration::from_secs(60));
        for i in 0..200 {
            s.observe(t(i), 0.9);
        }
        assert!((s.value().unwrap() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn cpu_sensor_clamps_inputs() {
        let mut s = CpuAvgSensor::new(SimDuration::from_secs(10));
        let v = s.observe(t(0), 3.7).unwrap();
        assert!(v <= 1.0);
    }

    #[test]
    fn window_eviction_forgets_old_load() {
        let mut s = CpuAvgSensor::new(SimDuration::from_secs(10));
        s.observe(t(0), 1.0);
        for i in 20..30 {
            s.observe(t(i), 0.1);
        }
        assert!((s.value().unwrap() - 0.1).abs() < 1e-9);
    }
}
