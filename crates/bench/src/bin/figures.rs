//! Regenerates the paper's figures and tables (§5) from one plan.
//!
//! ```sh
//! figures [--jobs N] [--seed N] [NAME ...]   # default: every figure
//! ```
//!
//! A figure is data: its manifest name, the runs it reports on and a
//! report over their results. `figures` hands the union of the selected
//! figures' runs to one [`Harness::run`], which simulates each distinct run
//! once — Figures 5, 6, 7 and 9 read the same managed run, Figures 6, 7
//! and 8 the same unmanaged one. Each figure then, in the order of
//! [`FIGURES`], prints its section and writes `results/<name>.json` and
//! its TSV files.

use jade::config::SystemConfig;
use jade::experiment::ExperimentOutput;
use jade::system::ManagedTier;
use jade_bench::{
    ascii_chart, print_replica_transitions, write_series, Harness, RunResult, RunSpec,
    HARNESS_USAGE,
};
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;
use jade_tiers::BalancePolicy;

/// A `(time_s, value)` series.
type Series = Vec<(f64, f64)>;

/// One figure or table of the evaluation.
struct Figure {
    /// Manifest name (`results/<name>.json`) and the NAME that selects it.
    name: &'static str,
    /// First line of the figure's section.
    title: &'static str,
    /// The runs it reports on, in manifest order.
    runs: fn() -> Vec<RunSpec>,
    /// Prints the rest of the section and writes the TSV files.
    report: fn(&[RunResult]),
}

const FIGURES: [Figure; 9] = [
    Figure {
        name: "table1",
        title: "=== Table 1: performance overhead (intrusivity) ===",
        runs: table1_runs,
        report: table1,
    },
    Figure {
        name: "fig5",
        title: "=== Figure 5: dynamically adjusted number of replicas ===",
        runs: || vec![managed_ramp("managed run")],
        report: fig5,
    },
    Figure {
        name: "fig5_1m",
        title: "=== Figure 5 at 1M clients: aggregate client pool ===",
        runs: || {
            vec![RunSpec::new(
                "managed run (1M clients)",
                SystemConfig::million_clients(),
                SimDuration::from_secs(800),
            )]
        },
        report: fig5_1m,
    },
    Figure {
        name: "fig6",
        title: "=== Figure 6: behavior of the database tier ===",
        runs: ramp_pair,
        report: fig6,
    },
    Figure {
        name: "fig7",
        title: "=== Figure 7: behavior of the application tier ===",
        runs: ramp_pair,
        report: fig7,
    },
    Figure {
        name: "fig8",
        title: "=== Figure 8: response time without Jade ===",
        runs: || vec![unmanaged_ramp()],
        report: fig8,
    },
    Figure {
        name: "fig9",
        title: "=== Figure 9: response time with Jade ===",
        runs: || vec![managed_ramp("managed")],
        report: fig9,
    },
    Figure {
        name: "ablations",
        title: "=== Ablations (compressed ramp, 1000 s) ===",
        runs: || ablations().into_iter().flat_map(|a| a.specs).collect(),
        report: ablations_report,
    },
    Figure {
        name: "calibrate",
        title: "=== Threshold calibration benchmarks (unmanaged, 1 Tomcat + 1 MySQL) ===",
        runs: calibrate_runs,
        report: calibrate,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let parsed = Harness::from_args(args.iter().map(String::as_str)).and_then(|(h, wanted)| {
        match wanted.iter().find(|w| !names.contains(w)) {
            Some(w) => Err(format!("unknown figure '{w}'\n{HARNESS_USAGE}")),
            None => Ok((h, wanted)),
        }
    });
    let (harness, wanted) = parsed.unwrap_or_else(|msg| {
        eprintln!(
            "usage: figures [NAME ...]\n  NAME        one of {} (default: all)\n{msg}",
            names.join(" ")
        );
        std::process::exit(2);
    });
    let figures: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| wanted.is_empty() || wanted.contains(&f.name))
        .collect();

    let mut specs = Vec::new();
    let mut rows = Vec::new();
    for figure in &figures {
        let runs = (figure.runs)();
        rows.push(runs.len());
        specs.extend(runs);
    }
    let plan = harness.plan(&specs);
    let distinct = plan.iter().enumerate().filter(|&(i, &p)| i == p).count();
    println!(
        "plan: {distinct} distinct runs for {} manifest rows",
        specs.len()
    );

    let mut results = harness.run(specs).into_iter();
    for (figure, rows) in figures.iter().zip(rows) {
        // A figure's results drop after its report, so a run no later
        // figure reads is freed then.
        let results: Vec<RunResult> = results.by_ref().take(rows).collect();
        println!("{}", figure.title);
        harness.write_manifest(figure.name, &results);
        (figure.report)(&results);
    }
}

/// The paper's evaluation ramp, 80 → 500 → 80 clients over 3000 s.
const RAMP_HORIZON: SimDuration = SimDuration::from_secs(3000);

fn managed_ramp(label: &str) -> RunSpec {
    RunSpec::new(label, SystemConfig::paper_managed(), RAMP_HORIZON)
}

fn unmanaged_ramp() -> RunSpec {
    RunSpec::new("unmanaged", SystemConfig::paper_unmanaged(), RAMP_HORIZON)
}

/// Managed vs unmanaged on stream 0: under `--seed` they keep a common
/// seed, so the comparison keeps common random numbers.
fn ramp_pair() -> Vec<RunSpec> {
    vec![managed_ramp("managed"), unmanaged_ramp()]
}

fn peak(series: &[(f64, f64)]) -> f64 {
    series.iter().map(|&(_, v)| v).fold(0.0f64, f64::max)
}

/// Table 1, "Performance overhead": the J2EE application at a constant 80
/// clients (no reconfiguration triggered) with and without Jade. The paper
/// measured 12 vs 12 req/s, 89 vs 87 ms, 12.74 vs 12.42 % CPU and 20.1 vs
/// 17.5 % memory: no significant CPU overhead, a slight memory overhead
/// from the management components deployed on every node.
fn table1_runs() -> Vec<RunSpec> {
    let horizon = SimDuration::from_secs(1200);
    vec![
        RunSpec::new("with Jade", SystemConfig::intrusivity(true, 80), horizon),
        RunSpec::new(
            "without Jade",
            SystemConfig::intrusivity(false, 80),
            horizon,
        ),
    ]
}

fn table1(results: &[RunResult]) {
    let (managed, unmanaged) = (&results[0].out, &results[1].out);
    // Skip the first 120 s (warm-up) like the paper's steady-state runs.
    let (tp_j, rt_j, cpu_j, mem_j) = managed.intrusivity_row(120.0, 1200.0);
    let (tp_n, rt_n, cpu_n, mem_n) = unmanaged.intrusivity_row(120.0, 1200.0);

    println!("                      with Jade    without Jade   (paper: 12/12, 89/87, 12.74/12.42, 20.1/17.5)");
    println!("Throughput (req./s)   {tp_j:10.1}    {tp_n:10.1}");
    println!("Resp.time (ms)        {rt_j:10.0}    {rt_n:10.0}");
    println!("CPU usage (%)         {cpu_j:10.2}    {cpu_n:10.2}");
    println!("Memory usage (%)      {mem_j:10.1}    {mem_n:10.1}");

    let cpu_overhead = cpu_j - cpu_n;
    let mem_overhead = mem_j - mem_n;
    println!(
        "\noverheads: CPU {cpu_overhead:+.2} points (paper: +0.32), memory {mem_overhead:+.1} \
         points (paper: +2.6) — no significant CPU overhead, slight memory overhead from the \
         management components on every node"
    );
    assert!(
        managed.app.reconfig_log.is_empty(),
        "intrusivity runs must not reconfigure"
    );
}

/// The replica staircase of Figure 5 and of its million-client rescale:
/// database backends and application servers over time, then the peak
/// and final counts, each peak followed by its `paper` note. Returns the
/// run.
fn staircase<'a>(prefix: &str, paper: [&str; 2], results: &'a [RunResult]) -> &'a ExperimentOutput {
    Harness::print_record(&results[0].record);
    let out = &results[0].out;
    print_replica_transitions(out);

    let db = out.series("replicas.db");
    let app = out.series("replicas.app");
    println!("{}", ascii_chart("# of database backends", &db, 8, 100));
    println!("{}", ascii_chart("# of application servers", &app, 8, 100));
    write_series(&format!("{prefix}_replicas_db"), &db);
    write_series(&format!("{prefix}_replicas_app"), &app);
    write_series(&format!("{prefix}_clients"), &out.series("clients"));

    println!(
        "peak replicas: database={}{}, application={}{}",
        out.max_replicas(ManagedTier::Database),
        paper[0],
        out.max_replicas(ManagedTier::Application),
        paper[1]
    );
    println!(
        "final replicas: database={}, application={}",
        out.app.running_replicas(ManagedTier::Database),
        out.app.running_replicas(ManagedTier::Application)
    );
    out
}

fn print_journal(out: &ExperimentOutput) {
    println!("\nreconfiguration journal:");
    for (t, line) in &out.app.reconfig_log {
        println!("  [{t}] {line}");
    }
}

/// Figure 5, "Dynamically adjusted number of replicas", under the managed
/// ramp. Expected shape (paper §5.2): the database tier scales 1→2→3
/// during the ramp-up, then the application tier 1→2 near the peak; on the
/// way down the application server is released first, then backends.
fn fig5(results: &[RunResult]) {
    print_journal(staircase("fig5", [" (paper: 3)", " (paper: 2)"], results));
}

/// Figure 5 at a million clients: `SystemConfig::million_clients()`, the
/// paper's scenario consistently rescaled and driven by the aggregate
/// client pool (EXPERIMENTS.md, "A million clients"). Expected shape: the
/// same staircase one level up, with the failure burst confined to the
/// mid-ramp reconfiguration transient.
fn fig5_1m(results: &[RunResult]) {
    let out = staircase("fig5_1m", ["", ""], results);
    let completed = out.metrics.counter("requests.completed");
    let failed = out.metrics.counter("requests.failed");
    println!(
        "requests: completed={completed}, failed={failed} ({:.2}% of total)",
        100.0 * failed as f64 / (completed + failed).max(1) as f64
    );
    print_journal(out);
}

/// One tier under the ramp, Figures 6 and 7: its smoothed CPU with and
/// without Jade, its replica count under Jade and the loop's thresholds.
/// Returns the managed and unmanaged CPU series.
fn tier_cpu(prefix: &str, tier: ManagedTier, results: &[RunResult]) -> (Series, Series) {
    let jade = SystemConfig::paper_managed().jade;
    let (key, control, count_title, count_file) = match tier {
        ManagedTier::Database => ("db", jade.db_loop, "# of database backends", "backends"),
        ManagedTier::Application => ("app", jade.app_loop, "# of enterprise servers", "servers"),
    };
    for r in results {
        Harness::print_record(&r.record);
    }
    let (managed, unmanaged) = (&results[0].out, &results[1].out);
    let cpu_managed = managed.series(&format!("cpu.{key}.smoothed"));
    let cpu_unmanaged = unmanaged.series(&format!("cpu.{key}.smoothed"));
    let count = managed.series(tier.replicas_series());

    println!(
        "{}",
        ascii_chart("CPU used, managed (moving average)", &cpu_managed, 8, 100)
    );
    println!(
        "{}",
        ascii_chart("CPU without Jade (moving average)", &cpu_unmanaged, 8, 100)
    );
    println!("{}", ascii_chart(count_title, &count, 6, 100));
    println!(
        "thresholds: max={} min={}",
        control.max_threshold, control.min_threshold
    );

    write_series(&format!("{prefix}_cpu_managed"), &cpu_managed);
    write_series(&format!("{prefix}_cpu_unmanaged"), &cpu_unmanaged);
    write_series(&format!("{prefix}_{count_file}"), &count);
    (cpu_managed, cpu_unmanaged)
}

/// Figure 6, "Behavior of the database tier": without Jade the single
/// MySQL saturates and thrashes.
fn fig6(results: &[RunResult]) {
    let (cpu_managed, cpu_unmanaged) = tier_cpu("fig6", ManagedTier::Database, results);
    // Managed CPU should mostly stay under the max threshold after a short
    // excursion that triggers each reconfiguration.
    let max_threshold = SystemConfig::paper_managed().jade.db_loop.max_threshold;
    let over = cpu_managed
        .iter()
        .filter(|&&(_, v)| v > max_threshold + 0.1)
        .count();
    let over_share = over as f64 / cpu_managed.len().max(1) as f64;
    println!(
        "unmanaged CPU saturates at {:.2} (paper: saturation ~1.0); managed spends {:.1}% of the \
         run more than 0.1 above the max threshold (paper: brief excursions only)",
        peak(&cpu_unmanaged),
        over_share * 100.0
    );
}

/// Figure 7, "Behavior of the application tier": without Jade its CPU
/// stays moderate even at peak load, because the saturated database is
/// the bottleneck — "the application servers spend most of the time
/// waiting for the database".
fn fig7(results: &[RunResult]) {
    let (_, cpu_unmanaged) = tier_cpu("fig7", ManagedTier::Application, results);
    let peak_unmanaged_app = peak(&cpu_unmanaged);
    let peak_unmanaged_db = peak(&results[1].out.series("cpu.db.smoothed"));
    println!(
        "unmanaged peaks: app tier {peak_unmanaged_app:.2} vs database {peak_unmanaged_db:.2} \
         (paper: app CPU remains moderate while the database saturates)"
    );
}

/// Client latency and workload over the ramp, Figures 8 and 9. Returns
/// the latency series.
fn latency_and_workload(prefix: &str, results: &[RunResult]) -> Series {
    Harness::print_record(&results[0].record);
    let out = &results[0].out;
    let latency: Series = out
        .app
        .stats
        .latency_series()
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();
    let workload = out.series("clients");
    println!("{}", ascii_chart("Latency (ms)", &latency, 10, 100));
    println!("{}", ascii_chart("Workload (# clients)", &workload, 5, 100));
    write_series(&format!("{prefix}_latency_ms"), &latency);
    write_series(&format!("{prefix}_workload"), &workload);
    latency
}

/// Figure 8, "Response time without Jade": as the database thrashes,
/// latency climbs without bound (paper: 10.42 s run-wide average, peaks in
/// the hundreds of seconds) and recovers only when the load drops.
fn fig8(results: &[RunResult]) {
    let latency = latency_and_workload("fig8", results);
    println!(
        "mean latency {:.2} s (paper: 10.42 s), peak {:.1} s (paper figure: up to ~300 s)",
        results[0].out.mean_latency_ms() / 1e3,
        peak(&latency) / 1e3
    );
}

/// Figure 9, "Response time with Jade": dynamic provisioning keeps the
/// response time stable (paper: ~590 ms run-wide average).
fn fig9(results: &[RunResult]) {
    latency_and_workload("fig9", results);
    println!(
        "mean latency {:.0} ms (paper: ~590 ms average, stable across the ramp)",
        results[0].out.mean_latency_ms()
    );
}

/// One design-choice ablation (DESIGN.md §5): a compressed version of the
/// paper's ramp (same shape, 3× faster, 1000 s) with one knob changed.
struct Ablation {
    title: &'static str,
    note: Option<&'static str>,
    specs: Vec<RunSpec>,
}

fn ablation_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp {
        base_clients: 80,
        peak_clients: 500,
        step_clients: 42,
        step_interval: SimDuration::from_secs(30),
        warmup: SimDuration::from_secs(60),
        plateau: SimDuration::from_secs(120),
    };
    cfg
}

/// A mis-calibrated database band under a constant 240 clients: one
/// backend sits above the max threshold while two sit below the min, so
/// the static reactor oscillates add/remove forever.
fn oscillating_band_cfg() -> SystemConfig {
    let mut cfg = ablation_cfg();
    cfg.ramp = WorkloadRamp::constant(240);
    cfg.jade.db_loop.min_threshold = 0.50;
    cfg.jade.db_loop.max_threshold = 0.65;
    cfg
}

/// One run per value: `base()` changed by `set`, which returns its label.
fn variants<T, const N: usize>(
    values: [T; N],
    base: fn() -> SystemConfig,
    set: impl Fn(&mut SystemConfig, T) -> String,
) -> Vec<RunSpec> {
    values
        .into_iter()
        .map(|value| {
            let mut cfg = base();
            let label = set(&mut cfg, value);
            RunSpec::new(label, cfg, SimDuration::from_secs(1000))
        })
        .collect()
}

fn ablations() -> Vec<Ablation> {
    vec![
        Ablation {
            title: "ablation 1: moving-average strength",
            note: Some(
                "(expected: very short windows over-react to artifacts — more reconfigurations)",
            ),
            specs: variants([1u64, 15, 60, 180], ablation_cfg, |cfg, window_s| {
                cfg.jade.app_loop.window = SimDuration::from_secs(window_s);
                cfg.jade.db_loop.window = SimDuration::from_secs((window_s * 3) / 2);
                format!("smoothing window {window_s}s (db x1.5)")
            }),
        },
        Ablation {
            title: "ablation 2: inhibition window",
            note: Some(
                "(expected: no inhibition => oscillation-prone; too long => sluggish scaling)",
            ),
            specs: variants([0u64, 10, 60, 180], ablation_cfg, |cfg, inhibition_s| {
                cfg.jade.inhibition = SimDuration::from_secs(inhibition_s);
                format!("inhibition {inhibition_s}s")
            }),
        },
        Ablation {
            title: "ablation 3: load-balancing policy",
            note: None,
            specs: variants(
                [
                    ("round-robin", BalancePolicy::RoundRobin),
                    ("random", BalancePolicy::Random),
                ],
                ablation_cfg,
                |cfg, (name, policy)| {
                    cfg.description.application.balance_policy = policy;
                    format!("app-tier balancing: {name}")
                },
            ),
        },
        // Paper §7: the adaptive reactor detects the band's reversals and
        // widens it until it settles.
        Ablation {
            title: "ablation 4: adaptive thresholds",
            note: Some("(expected: the static band oscillates; adaptation widens it and settles)"),
            specs: variants([false, true], oscillating_band_cfg, |cfg, adaptive| {
                cfg.jade.adaptive = adaptive;
                format!("oscillating db band 0.50..0.65, adaptive={adaptive}")
            }),
        },
        Ablation {
            title: "ablation 5: sensor driver (paper §4.2)",
            note: None,
            specs: variants([false, true], ablation_cfg, |cfg, latency_driver| {
                cfg.jade.latency_driver = latency_driver;
                let sensor = if latency_driver { "latency" } else { "cpu" };
                format!("{sensor}-driven provisioning")
            }),
        },
        // An i.i.d. weighted mix vs the RUBiS transition-table state
        // machine (session correlation).
        Ablation {
            title: "ablation 6: client navigation model",
            note: Some(
                "(expected: similar macroscopic behaviour — the chain's stationary mix matches)",
            ),
            specs: variants([false, true], ablation_cfg, |cfg, markov| {
                cfg.markov_navigation = markov;
                let label = if markov {
                    "markov transition-table navigation"
                } else {
                    "i.i.d. weighted mix"
                };
                label.to_owned()
            }),
        },
        // Paper §7: serialization and conflict coalescing also damp the
        // oscillating band's churn.
        Ablation {
            title: "ablation 7: policy arbitration (paper §7)",
            note: None,
            specs: variants([false, true], oscillating_band_cfg, |cfg, arbitration| {
                cfg.jade.arbitration = arbitration;
                format!("oscillating band, arbitration={arbitration}")
            }),
        },
    ]
}

/// Replica churn (reconfigurations), mean latency and peak replicas of
/// each ablation's configurations.
fn ablations_report(results: &[RunResult]) {
    let mut rest = results;
    for ablation in ablations() {
        let (rows, tail) = rest.split_at(ablation.specs.len());
        rest = tail;
        println!("\n--- {} ---", ablation.title);
        println!(
            "{:<38} {:>8} {:>10} {:>9} {:>9} {:>8}",
            "configuration", "reconfig", "latency_ms", "peak_db", "peak_app", "failed"
        );
        for r in rows {
            println!(
                "{:<38} {:>8} {:>10.0} {:>9} {:>9} {:>8}",
                r.record.label,
                r.out.metrics.counter("reconfigurations"),
                r.record.mean_latency_ms,
                r.out.max_replicas(ManagedTier::Database),
                r.out.max_replicas(ManagedTier::Application),
                r.record.failed,
            );
        }
        if let Some(note) = ablation.note {
            println!("{note}");
        }
    }
}

/// The paper's threshold calibration (§4.2, §5.2: thresholds "determined
/// manually with some benchmarks"): the unmanaged system held at a grid of
/// constant loads, from whose steady-state CPU and response time the
/// saturation points, and hence sensible thresholds, are read off.
const CALIBRATION_LEVELS: [u32; 8] = [40, 80, 120, 160, 200, 240, 280, 320];

fn calibrate_runs() -> Vec<RunSpec> {
    (0..)
        .zip(CALIBRATION_LEVELS)
        .map(|(stream, clients)| {
            let mut cfg = SystemConfig::paper_unmanaged();
            cfg.ramp = WorkloadRamp::constant(clients);
            cfg.seed = 1000 + u64::from(clients);
            // Each load level is its own comparison group.
            RunSpec::new(
                format!("{clients} clients"),
                cfg,
                SimDuration::from_secs(420),
            )
            .on_stream(stream)
        })
        .collect()
}

fn calibrate(results: &[RunResult]) {
    println!("clients  cpu.app  cpu.db   resp_ms  throughput");
    for (clients, result) in CALIBRATION_LEVELS.iter().zip(results) {
        let out = &result.out;
        let cpu_app = out.series_mean("cpu.app", 120.0, 420.0);
        let cpu_db = out.series_mean("cpu.db", 120.0, 420.0);
        let (tp, rt, _, _) = out.intrusivity_row(120.0, 420.0);
        println!("{clients:7}  {cpu_app:7.3}  {cpu_db:7.3}  {rt:7.0}  {tp:9.1}");
    }

    // Read off the saturation points the way the paper's admins did.
    let db_sat = CALIBRATION_LEVELS
        .iter()
        .zip(results)
        .find(|(_, r)| r.out.series_mean("cpu.db", 120.0, 420.0) > 0.9)
        .map(|(&c, _)| c);
    println!(
        "\ndatabase tier saturates around {} clients; with the default max threshold (0.75) the \
         manager reconfigures *before* saturation, keeping response times acceptable (paper: \
         \"the maximum thresholds have been determined so that the response time for clients' \
         requests remains acceptable when the reconfigurations start\")",
        db_sat.map_or("n/a".to_owned(), |c| c.to_string())
    );
}
