//! Whole-experiment runner: builds a managed system, drives it for a span
//! of virtual time, and extracts the measurements the paper's figures and
//! tables report.

use crate::config::SystemConfig;
use crate::system::{J2eeApp, ManagedTier, Msg};
use jade_sim::{Addr, Digest, Engine, MetricsHub, SimDuration, SimTime, Tracer};

/// Result of one experiment run.
pub struct ExperimentOutput {
    /// Final application state (stats, architecture, legacy layer).
    pub app: J2eeApp,
    /// All recorded metric series/histograms/counters.
    pub metrics: MetricsHub,
    /// The run's tracer (disabled unless the setup hook installed one).
    pub tracer: Tracer,
    /// Virtual end time of the run.
    pub horizon: SimTime,
    /// Number of engine events processed (simulation cost diagnostics).
    pub events: u64,
}

impl ExperimentOutput {
    /// The output of a run that ends at the engine's current instant.
    pub fn from_engine(engine: Engine<J2eeApp>) -> Self {
        let (horizon, events) = (engine.now(), engine.events_processed());
        let (app, metrics, tracer) = engine.into_parts_with_trace();
        ExperimentOutput {
            app,
            metrics,
            tracer,
            horizon,
            events,
        }
    }

    /// `(t, value)` pairs of a recorded series, in seconds.
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        self.metrics
            .series(name)
            .map(|s| {
                s.points()
                    .iter()
                    .map(|&(t, v)| (t.as_secs_f64(), v))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Time-weighted mean of a series over `[from, to]` seconds.
    pub fn series_mean(&self, name: &str, from: f64, to: f64) -> f64 {
        self.metrics
            .series(name)
            .and_then(|s| {
                s.time_weighted_mean(
                    SimTime::from_micros((from * 1e6) as u64),
                    SimTime::from_micros((to * 1e6) as u64),
                )
            })
            .unwrap_or(0.0)
    }

    /// Run-wide mean client latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        self.app.stats.overall_mean_latency_ms()
    }

    /// Run-wide throughput, req/s.
    pub fn throughput(&self) -> f64 {
        self.app.stats.overall_throughput(self.horizon)
    }

    /// Table 1 row: `(throughput req/s, response ms, cpu %, mem %)`
    /// averaged over `[from, to]` seconds of the run.
    pub fn intrusivity_row(&self, from: f64, to: f64) -> (f64, f64, f64, f64) {
        let window = self.app.stats.window().as_secs_f64();
        let mut completed = 0u64;
        let mut latency_sum = 0.0;
        for (i, w) in self.app.stats.windows().iter().enumerate() {
            let t = i as f64 * window;
            if t >= from && t < to {
                completed += w.completed;
                latency_sum += w.latency_sum_ms;
            }
        }
        let span = (to - from).max(1e-9);
        let throughput = completed as f64 / span;
        let resp = if completed == 0 {
            0.0
        } else {
            latency_sum / completed as f64
        };
        let cpu = self.series_mean("cpu.all", from, to) * 100.0;
        let mem = self.series_mean("mem.avg", from, to) * 100.0;
        (throughput, resp, cpu, mem)
    }

    /// Replica-count changes of a tier as `(t_seconds, count)` steps.
    pub fn replica_steps(&self, tier: ManagedTier) -> Vec<(f64, f64)> {
        let mut steps = Vec::new();
        let mut last = f64::NAN;
        for (t, v) in self.series(tier.replicas_series()) {
            if v != last {
                steps.push((t, v));
                last = v;
            }
        }
        steps
    }

    /// Maximum replica count a tier reached.
    pub fn max_replicas(&self, tier: ManagedTier) -> usize {
        self.series(tier.replicas_series())
            .iter()
            .map(|&(_, v)| v as usize)
            .max()
            .unwrap_or(0)
    }

    /// Stable digest of the run's observable trajectory: event count,
    /// client statistics, the management journal, and the replica /
    /// client / latency series.
    ///
    /// Two runs of the same configuration must produce the same digest
    /// regardless of wall-clock conditions, how many sibling runs execute
    /// on other threads, or whether a [`Tracer`] was installed (tracing is
    /// observation, not behaviour — so the trace is deliberately *not*
    /// part of the digest).
    pub fn outcome_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.events);
        d.write_u64(self.horizon.as_micros());
        d.write_u64(self.app.stats.total_completed());
        d.write_u64(self.app.stats.total_failed());
        for (t, line) in &self.app.reconfig_log {
            d.write_u64(t.as_micros());
            d.write_str(line);
        }
        for name in ["replicas.app", "replicas.db", "clients"] {
            d.write_str(name);
            if let Some(s) = self.metrics.series(name) {
                for &(t, v) in s.points() {
                    d.write_u64(t.as_micros());
                    d.write_f64(v);
                }
            }
        }
        d.write_str("latency");
        for (t, v) in self.app.stats.latency_series() {
            d.write_u64(t.as_micros());
            d.write_f64(v);
        }
        d.finish()
    }
}

/// Stable digest of a configuration (seed included): manifest entries use
/// it to prove which scenario produced which outcome.
pub fn config_digest(cfg: &SystemConfig) -> u64 {
    // `SystemConfig` is plain data with a complete `Debug` rendering; the
    // digest of that rendering changes iff a field changes.
    jade_sim::digest_str(&format!("{cfg:?}"))
}

/// Runs one experiment for `duration` of virtual time.
pub fn run_experiment(cfg: SystemConfig, duration: SimDuration) -> ExperimentOutput {
    run_experiment_with(cfg, duration, |_| {})
}

/// The engine of a run of `cfg` at t = 0: the system is built and
/// [`Msg::Bootstrap`] is queued, nothing is delivered yet.
pub fn bootstrapped(cfg: SystemConfig) -> Engine<J2eeApp> {
    let seed = cfg.seed;
    let mut engine = Engine::new(J2eeApp::new(cfg), seed);
    engine.schedule(SimTime::ZERO, Addr::ROOT, Msg::Bootstrap);
    engine
}

/// Like [`run_experiment`], but lets the caller schedule extra events —
/// e.g. failure injection (`Msg::CrashNode`) for self-recovery scenarios —
/// before the run starts.
pub fn run_experiment_with(
    cfg: SystemConfig,
    duration: SimDuration,
    setup: impl FnOnce(&mut Engine<J2eeApp>),
) -> ExperimentOutput {
    let mut engine = bootstrapped(cfg);
    setup(&mut engine);
    engine.run_until(SimTime::ZERO + duration);
    ExperimentOutput::from_engine(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_rubis::WorkloadRamp;

    /// A short managed run at constant medium load: the system must stay
    /// at the initial architecture and serve requests.
    #[test]
    fn steady_medium_load_run() {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = WorkloadRamp::constant(80);
        cfg.seed = 7;
        let out = run_experiment(cfg, SimDuration::from_secs(300));
        assert!(
            out.app.stats.total_completed() > 1000,
            "clients must be served"
        );
        assert_eq!(out.app.running_replicas(ManagedTier::Application), 1);
        assert_eq!(out.app.running_replicas(ManagedTier::Database), 1);
        // ~12 req/s at 80 clients (Table 1).
        let tp = out.throughput();
        assert!((9.0..=15.0).contains(&tp), "throughput {tp}");
        // Sub-second latencies at medium load.
        assert!(
            out.mean_latency_ms() < 500.0,
            "latency {}",
            out.mean_latency_ms()
        );
    }

    /// Under overload the managed system must add replicas.
    #[test]
    fn overload_triggers_scale_up() {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = WorkloadRamp::constant(260);
        cfg.seed = 3;
        let out = run_experiment(cfg, SimDuration::from_secs(420));
        assert!(
            out.app.running_replicas(ManagedTier::Database) >= 2,
            "database tier must have scaled up; log: {:?}",
            out.app.reconfig_log
        );
    }
}
