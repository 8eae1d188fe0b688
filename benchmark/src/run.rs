//! Running reps: set-up samples, the untraced (timed) pass, the traced
//! pass, and the per-rep summary that every metric and output check is
//! computed from.

// jade-audit: allow-file(nondet-time): the benchmark times the simulator from outside; nothing here runs inside a simulation

use crate::alloc;
use crate::trace::{Recorder, Traced};
use crate::workloads::{Host, Workload};
use jade::experiment::ExperimentOutput;
use jade::system::{J2eeApp, ManagedTier, Msg};
use jade_sim::{Addr, App, Engine, MetricsHub, SimTime};
use jade_tiers::Tier;
use std::time::{Duration, Instant};

/// Constructions timed for `setup_s`, at least.
pub const SETUP_SAMPLES: u32 = 32;

/// Client counts at which the paper's Figure 5 shows DB 1→2, DB 2→3,
/// App 1→2, App 2→1 and DB 3→2.
const PAPER_TRANSITION_CLIENTS: [f64; 5] = [180.0, 320.0, 420.0, 400.0, 280.0];

/// What one rep leaves behind. The simulation's state is dropped as soon
/// as this is extracted, so peak RSS is that of one rep.
pub struct RepSummary {
    pub digest: u64,
    pub events: u64,
    pub wall: Duration,
    pub completed: u64,
    pub failed: u64,
    /// Mean simulated client latency over the rep's completed requests.
    pub latency_ms: f64,
    /// Mean latency of each statistics window that completed a request.
    pub window_latency_ms: Vec<f64>,
    /// Machines held × virtual seconds.
    pub node_s: f64,
    pub reconfigs: u64,
    pub peak_db: usize,
    pub peak_app: usize,
    /// Time-weighted mean number of running database replicas.
    pub mean_db: f64,
    /// Mean |clients at transition − paper's| over the Figure 5
    /// transitions the rep showed.
    pub transition_mae: Option<f64>,
    /// Crash → replica count restored, virtual seconds, one per crash
    /// that was repaired before the horizon.
    pub mttr_s: Vec<f64>,
    /// Output checks this rep failed.
    pub violations: Vec<String>,
}

impl RepSummary {
    pub fn issued(&self) -> u64 {
        self.completed + self.failed
    }
}

impl Host for Traced {
    fn j2ee(&self) -> &J2eeApp {
        &self.inner
    }
}

/// A bootstrapped engine: construction (`J2eeApp::new`: cluster, ADL
/// interpretation, managers) plus delivery of `Msg::Bootstrap` (dataset
/// load, deployment, plan compilation, first ticks scheduled).
fn construct<A: App<Msg = Msg>>(
    w: Workload,
    seed: u64,
    wrap: impl FnOnce(J2eeApp) -> A,
) -> Engine<A> {
    let mut engine = Engine::new(wrap(J2eeApp::new(w.config(seed))), seed);
    engine.schedule(SimTime::ZERO, Addr::ROOT, Msg::Bootstrap);
    engine.step();
    engine
}

/// Times one construction, in seconds. Dropping the system is not part
/// of set-up.
pub fn setup_sample(w: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let engine = construct(w, seed, |app| app);
    let took = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(engine));
    took
}

/// Takes a finished engine apart into what the simulator's own
/// `run_experiment` returns; `unwrap` strips the tracing shim, if any.
fn output<A: App<Msg = Msg>>(
    engine: Engine<A>,
    unwrap: impl FnOnce(A) -> J2eeApp,
) -> ExperimentOutput {
    let horizon = engine.now();
    let events = engine.events_processed();
    let (app, metrics, tracer) = engine.into_parts_with_trace();
    ExperimentOutput {
        app: unwrap(app),
        metrics,
        tracer,
        horizon,
        events,
    }
}

/// One untraced rep on a plain `Engine<J2eeApp>`.
pub fn untraced_rep(w: Workload, seed: u64) -> RepSummary {
    let mut engine = construct(w, seed, |app| app);
    let start = Instant::now();
    w.drive(&mut engine);
    let wall = start.elapsed();
    summarize(w, &output(engine, |app| app), wall)
}

/// One traced rep: the same run with `J2eeApp` behind the timing shim.
/// The recorder travels in and out so that it aggregates over all reps.
pub fn traced_rep(w: Workload, rep: u32, seed: u64, rec: Recorder) -> (RepSummary, Recorder) {
    let setup_start = Instant::now();
    let mut engine = construct(w, seed, |inner| Traced { inner, rec });
    let rec = &mut engine.app_mut().rec;
    rec.setup_span(rep, setup_start, Instant::now());
    rec.begin_run(rep);
    alloc::set_enabled(true);
    let start = Instant::now();
    w.drive(&mut engine);
    let end = Instant::now();
    alloc::set_enabled(false);
    engine.app_mut().rec.end_run(start, end);
    let mut rec = None;
    let out = output(engine, |traced| {
        rec = Some(traced.rec);
        traced.inner
    });
    (
        summarize(w, &out, end - start),
        rec.expect("output unwraps the application exactly once"),
    )
}

fn summarize(w: Workload, out: &ExperimentOutput, wall: Duration) -> RepSummary {
    let stats = &out.app.stats;
    let horizon = out.horizon;
    let window_latency_ms = stats
        .windows()
        .iter()
        .filter(|win| win.completed > 0)
        .map(|win| win.latency_sum_ms / win.completed as f64)
        .collect();
    RepSummary {
        digest: out.outcome_digest(),
        events: out.events,
        wall,
        completed: stats.total_completed(),
        failed: stats.total_failed(),
        latency_ms: stats.overall_mean_latency_ms(),
        window_latency_ms,
        node_s: step_integral(&out.metrics, "nodes.allocated", horizon),
        reconfigs: out.metrics.counter("reconfigurations"),
        peak_db: out.max_replicas(ManagedTier::Database),
        peak_app: out.max_replicas(ManagedTier::Application),
        mean_db: out.series_mean("replicas.db", 0.0, horizon.as_secs_f64()),
        transition_mae: (w == Workload::Fig5Ramp)
            .then(|| transition_mae(out))
            .flatten(),
        mttr_s: mttr_samples(w, out),
        violations: check_outputs(w, out),
    }
}

/// Integral of a step series from its first point to `until`, in
/// value × seconds.
fn step_integral(metrics: &MetricsHub, name: &str, until: SimTime) -> f64 {
    let Some(series) = metrics.series(name) else {
        return 0.0;
    };
    let points = series.points();
    let ends = points.iter().skip(1).map(|&(t, _)| t).chain([until]);
    points
        .iter()
        .zip(ends)
        .map(|(&(t, v), end)| v * end.since(t.min(end)).as_secs_f64())
        .sum()
}

/// First `(time, count)` step of `tier` at or after `from` that satisfies
/// `pick(previous count, new count)`.
fn first_step(
    steps: &[(f64, f64)],
    from: f64,
    pick: impl Fn(f64, f64) -> bool,
) -> Option<(f64, f64)> {
    steps
        .windows(2)
        .find(|pair| pair[1].0 >= from && pick(pair[0].1, pair[1].1))
        .map(|pair| pair[1])
}

/// The simulator's error against the paper's Figure 5: for each of the
/// five replica transitions the paper reports, the client count at which
/// this rep made it, against the paper's.
fn transition_mae(out: &ExperimentOutput) -> Option<f64> {
    let db = out.replica_steps(ManagedTier::Database);
    let app = out.replica_steps(ManagedTier::Application);
    let to = |steps: &[(f64, f64)], from: f64, a: f64, b: f64| {
        first_step(steps, from, |prev, new| prev == a && new == b).map(|(t, _)| t)
    };
    let app_up = to(&app, 0.0, 1.0, 2.0);
    let transitions = [
        to(&db, 0.0, 1.0, 2.0),
        to(&db, 0.0, 2.0, 3.0),
        app_up,
        to(&app, app_up.unwrap_or(0.0), 2.0, 1.0),
        to(&db, 0.0, 3.0, 2.0),
    ];
    let clients = out.metrics.series("clients")?;
    let errors: Vec<f64> = transitions
        .iter()
        .zip(PAPER_TRANSITION_CLIENTS)
        .filter_map(|(t, paper)| {
            let at = SimTime::from_micros(((*t)? * 1e6) as u64);
            Some((clients.value_at(at, 0.0) - paper).abs())
        })
        .collect();
    (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
}

/// Repair times of `repair_churn`: crash `k` hits tier `T`; the probe
/// series of `T`'s running replicas dips below the configured count and
/// the repair is done at the first probe that shows it restored.
fn mttr_samples(w: Workload, out: &ExperimentOutput) -> Vec<f64> {
    let mut samples = Vec::new();
    if w != Workload::RepairChurn {
        return samples;
    }
    let crashes: Vec<f64> = out
        .app
        .reconfig_log
        .iter()
        .filter(|(_, line)| line.ends_with("crashed"))
        .map(|(t, _)| t.as_secs_f64())
        .collect();
    let tiers = [
        (out.series("replicas.db"), out.app.cfg.description.database),
        (
            out.series("replicas.app"),
            out.app.cfg.description.application,
        ),
    ];
    for (i, &crash) in crashes.iter().enumerate() {
        let next = crashes.get(i + 1).copied().unwrap_or(f64::INFINITY);
        for (series, spec) in &tiers {
            let want = spec.replicas as f64;
            let mut after = series
                .iter()
                .filter(|&&(t, _)| t > crash && t <= next)
                .skip_while(|&&(_, v)| v >= want);
            if after.next().is_some() {
                if let Some(&(t, _)) = after.find(|&&(_, v)| v >= want) {
                    samples.push(t - crash);
                }
            }
        }
    }
    samples
}

/// Output checks of one rep; each string names a violated condition.
fn check_outputs(w: Workload, out: &ExperimentOutput) -> Vec<String> {
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: &dyn Fn() -> String| {
        if !ok {
            bad.push(what());
        }
    };
    let cfg = &out.app.cfg;
    let stats = &out.app.stats;

    // Request conservation, as far as it shows from outside: the client
    // statistics and the metrics hub keep separate ledgers which must
    // agree, abandonments are failures, and every completion left a
    // latency sample. (Requests in flight are crate-private state; the
    // traced pass adds issued ≥ completed + failed.)
    let hub_completed = out.metrics.counter("requests.completed");
    let hub_failed = out.metrics.counter("requests.failed");
    require(
        stats.total_completed() == hub_completed && stats.total_failed() == hub_failed,
        &|| {
            format!(
                "ledgers disagree: stats {}/{} vs hub {hub_completed}/{hub_failed}",
                stats.total_completed(),
                stats.total_failed()
            )
        },
    );
    require(stats.total_completed() > 0, &|| {
        "no request completed".into()
    });
    require(
        out.metrics.counter("requests.abandoned") <= stats.total_failed(),
        &|| "more abandonments than failures".into(),
    );
    let latencies = out.metrics.histogram("latency").map_or(0, |h| h.count());
    require(latencies == stats.total_completed(), &|| {
        format!(
            "{latencies} latency samples for {} completions",
            stats.total_completed()
        )
    });

    // Replica counts within the loops' bounds and the pool never
    // over-allocated, at every probe.
    for (tier, bounds) in [
        (ManagedTier::Application, cfg.jade.app_loop),
        (ManagedTier::Database, cfg.jade.db_loop),
    ] {
        let peak = out.max_replicas(tier);
        require(peak <= bounds.max_replicas, &|| {
            format!(
                "{tier:?} reached {peak} replicas, bound {}",
                bounds.max_replicas
            )
        });
        let last = out.app.running_replicas(tier);
        require(last >= bounds.min_replicas, &|| {
            format!(
                "{tier:?} ends at {last} replicas, minimum {}",
                bounds.min_replicas
            )
        });
    }
    let peak_nodes = out
        .series("nodes.allocated")
        .iter()
        .fold(0.0f64, |m, &(_, v)| m.max(v));
    require(peak_nodes <= cfg.nodes as f64, &|| {
        format!("{peak_nodes} nodes allocated from a pool of {}", cfg.nodes)
    });

    // RAIDb-1: all running backends hold the same content.
    let digests: Vec<u64> = out
        .app
        .legacy
        .running_servers_of(Tier::Database)
        .into_iter()
        .filter_map(|s| out.app.legacy.mysql(s).ok())
        .map(|m| m.digest())
        .collect();
    require(digests.windows(2).all(|p| p[0] == p[1]), &|| {
        format!("running MySQL backends diverged: {digests:x?}")
    });

    // The staircase of Figure 5: the database tier saturates first on
    // the way up, and replicas are released in reverse on the way down.
    if matches!(w, Workload::Fig5Ramp | Workload::Fig5Million) {
        let db = out.replica_steps(ManagedTier::Database);
        let app = out.replica_steps(ManagedTier::Application);
        let up = |s: &[(f64, f64)]| first_step(s, 0.0, |prev, new| new > prev).map(|(t, _)| t);
        let down = |s: &[(f64, f64)]| first_step(s, 0.0, |prev, new| new < prev).map(|(t, _)| t);
        match (up(&db), up(&app), down(&app), down(&db)) {
            (Some(db_up), Some(app_up), Some(app_down), Some(db_down)) => {
                require(db_up < app_up, &|| {
                    format!("app tier scaled at {app_up} s before db tier at {db_up} s")
                });
                require(app_down < db_down, &|| {
                    format!("db tier released at {db_down} s before app tier at {app_down} s")
                });
            }
            steps => require(false, &|| format!("staircase incomplete: {steps:?}")),
        }
    }
    bad
}

/// Checks across the two passes of a rep: tracing observes, it never
/// perturbs.
pub fn check_traced(untraced: &RepSummary, traced: &RepSummary) -> Vec<String> {
    let mut bad = Vec::new();
    if untraced.digest != traced.digest {
        bad.push(format!(
            "traced digest {:016x} differs from untraced {:016x}",
            traced.digest, untraced.digest
        ));
    }
    if untraced.events != traced.events {
        bad.push(format!(
            "traced run delivered {} events, untraced {}",
            traced.events, untraced.events
        ));
    }
    bad
}
