//! Regression tests for the *shapes* the paper's figures and table
//! report, on the compressed ramp (3× faster than the paper's, same
//! geometry). If a change to the model or the managers breaks one of
//! these, the reproduction claims in EXPERIMENTS.md no longer hold.

use jade::config::SystemConfig;
use jade::experiment::ExperimentOutput;
use jade::system::ManagedTier;
use jade_bench::{Harness, RunSpec};
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;
use std::sync::{Arc, OnceLock};

fn fast_ramp() -> WorkloadRamp {
    WorkloadRamp {
        base_clients: 80,
        peak_clients: 500,
        step_clients: 42,
        step_interval: SimDuration::from_secs(30),
        warmup: SimDuration::from_secs(60),
        plateau: SimDuration::from_secs(120),
    }
}

/// Runs `managed` and `unmanaged` side by side through the figures'
/// harness, returning their outputs in that order.
fn run_shape_pair(
    managed: SystemConfig,
    unmanaged: SystemConfig,
    duration: SimDuration,
) -> (Arc<ExperimentOutput>, Arc<ExperimentOutput>) {
    let mut results = Harness::with_jobs(2).run(vec![
        RunSpec::new("managed", managed, duration),
        RunSpec::new("unmanaged", unmanaged, duration),
    ]);
    let unmanaged = results.pop().expect("unmanaged run").out;
    let managed = results.pop().expect("managed run").out;
    (managed, unmanaged)
}

/// One shared pair of runs for all shape assertions (they are read-only).
fn runs() -> &'static (Arc<ExperimentOutput>, Arc<ExperimentOutput>) {
    static RUNS: OnceLock<(Arc<ExperimentOutput>, Arc<ExperimentOutput>)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut managed = SystemConfig::paper_managed();
        managed.ramp = fast_ramp();
        let mut unmanaged = SystemConfig::paper_unmanaged();
        unmanaged.ramp = fast_ramp();
        run_shape_pair(managed, unmanaged, SimDuration::from_secs(1000))
    })
}

#[test]
fn fig5_shape_scale_out_and_back() {
    let (m, _) = runs();
    assert_eq!(
        m.max_replicas(ManagedTier::Database),
        3,
        "paper: 3 backends at peak"
    );
    assert_eq!(
        m.max_replicas(ManagedTier::Application),
        2,
        "paper: 2 servers at peak"
    );
    assert_eq!(m.app.running_replicas(ManagedTier::Database), 1);
    assert_eq!(m.app.running_replicas(ManagedTier::Application), 1);
}

#[test]
fn fig6_shape_db_cpu_bounded_when_managed_saturated_otherwise() {
    let (m, u) = runs();
    let max_thr = SystemConfig::default().jade.db_loop.max_threshold;
    // Managed: smoothed DB CPU spends little time far above the max
    // threshold. On this 3×-compressed ramp each reconfiguration's
    // excursion covers proportionally more of the run than in the paper,
    // so the bound is 10% here (the paper-speed run stays well below 5%).
    let managed_cpu = m.series("cpu.db.smoothed");
    let over = managed_cpu
        .iter()
        .filter(|&&(_, v)| v > max_thr + 0.1)
        .count() as f64
        / managed_cpu.len().max(1) as f64;
    assert!(
        over < 0.10,
        "managed DB CPU above band {:.1}% of the run",
        over * 100.0
    );
    // Unmanaged: saturates.
    let peak = u
        .series("cpu.db.smoothed")
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    assert!(peak > 0.95, "unmanaged DB CPU peaked at {peak}");
}

#[test]
fn fig7_shape_unmanaged_app_cpu_stays_moderate() {
    let (_, u) = runs();
    // "The application servers spend most of the time waiting for the
    // database": app CPU must peak well below the DB's saturation.
    let app_peak = u
        .series("cpu.app.smoothed")
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    assert!(
        app_peak < 0.7,
        "unmanaged app CPU should stay moderate, peaked at {app_peak}"
    );
}

#[test]
fn fig8_fig9_shape_latency_contrast() {
    let (m, u) = runs();
    // Unmanaged runs away, managed stays flat: at least 5x on the mean.
    assert!(
        u.mean_latency_ms() > 5.0 * m.mean_latency_ms(),
        "unmanaged {:.0} ms vs managed {:.0} ms",
        u.mean_latency_ms(),
        m.mean_latency_ms()
    );
    // The unmanaged architecture never changed.
    assert!(u.app.reconfig_log.is_empty());
    assert_eq!(u.app.running_replicas(ManagedTier::Database), 1);
    // Managed latency is stable: on this compressed ramp (3× the paper's
    // slope) a brief spike during the steepest segment is physical —
    // reconfiguration takes tens of seconds — but the overwhelming
    // majority of windows stay sub-second, and the worst managed window
    // is far below the unmanaged one.
    let windows = |o: &ExperimentOutput| -> Vec<f64> {
        o.app
            .stats
            .windows()
            .iter()
            .map(|w| w.mean_latency_ms())
            .collect()
    };
    let mw = windows(m);
    let uw = windows(u);
    let m_worst = mw.iter().copied().fold(0.0f64, f64::max);
    let u_worst = uw.iter().copied().fold(0.0f64, f64::max);
    assert!(
        m_worst < u_worst / 3.0,
        "managed worst window {m_worst:.0} ms vs unmanaged {u_worst:.0} ms"
    );
    let slow = mw.iter().filter(|&&v| v > 1_000.0).count() as f64 / mw.len().max(1) as f64;
    assert!(
        slow < 0.10,
        "{:.0}% of managed windows were above 1 s",
        slow * 100.0
    );
    // Unmanaged recovers once the load drops (the tail of Figure 8): the
    // last windows are cheap again.
    let tail: Vec<f64> = u
        .app
        .stats
        .windows()
        .iter()
        .rev()
        .take(5)
        .map(|w| w.mean_latency_ms())
        .collect();
    assert!(
        tail.iter().all(|&v| v < 1_000.0),
        "unmanaged latency did not recover: {tail:?}"
    );
}

#[test]
fn table1_shape_no_cpu_overhead_small_memory_overhead() {
    // Separate constant-load runs (Table 1's setup).
    let (m, u) = run_shape_pair(
        SystemConfig::intrusivity(true, 80),
        SystemConfig::intrusivity(false, 80),
        SimDuration::from_secs(600),
    );
    let (tp_j, rt_j, cpu_j, mem_j) = m.intrusivity_row(120.0, 600.0);
    let (tp_n, rt_n, cpu_n, mem_n) = u.intrusivity_row(120.0, 600.0);
    // Throughput identical (closed-loop workload).
    assert!((tp_j - tp_n).abs() < 0.5, "throughput {tp_j} vs {tp_n}");
    // Response-time overhead negligible.
    assert!((rt_j - rt_n).abs() < 10.0, "resp {rt_j} vs {rt_n}");
    // CPU overhead below one point; memory overhead positive but small
    // (paper: +0.32 CPU, +2.6 memory).
    let cpu_overhead = cpu_j - cpu_n;
    assert!(
        (0.0..1.0).contains(&cpu_overhead),
        "cpu overhead {cpu_overhead}"
    );
    let mem_overhead = mem_j - mem_n;
    assert!(
        (1.0..5.0).contains(&mem_overhead),
        "mem overhead {mem_overhead}"
    );
    // No reconfiguration at medium load.
    assert!(m.app.reconfig_log.is_empty());
}
