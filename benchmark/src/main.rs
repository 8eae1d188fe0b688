//! Benchmark of the Jade simulator, measured from outside.
//!
//! ```text
//! jade-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! jade-benchmark [--seed <n>] [--seconds <n>] [--smoke] [--repeat-check]
//! jade-benchmark --print-manifest
//! ```
//!
//! With `--workload`, runs that workload in this process, single-threaded
//! (so that peak RSS is the workload's own), prints every metric by name
//! and, last, the result line the driver reads: the end-to-end metrics
//! from an untraced pass with `--trace 0`, the layer ledger from a traced
//! pass plus layer probes with `--trace 1`. Without it, runs every
//! workload both ways, one child process at a time. README.md explains
//! the workloads, the metrics and how they relate.

// The repository's clippy.toml bans wall-clock reads for simulation
// code; timing the simulator from outside is this package's whole job.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use report::{MetricDef, Values};
use run::RepSummary;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::{Group, Recorder};
use workloads::{rep_seed, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Measured time per layer probe.
const PROBE_BUDGET: Duration = Duration::from_millis(200);
/// Samples a group needs before its p50 / p99 are reported.
const MIN_SAMPLES_P50: u64 = 20;
const MIN_SAMPLES_P99: u64 = 1000;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS,
        trace: false,
        smoke: false,
        repeat_check: false,
        print_manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                opts.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                opts.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("1 to 60")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--repeat-check" => opts.repeat_check = true,
            "--print-manifest" => opts.print_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("jade-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if opts.print_manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let ok = match opts.workload {
        Some(w) if opts.trace => layer_run(w, &opts),
        Some(w) => end_to_end_run(w, &opts),
        None if opts.repeat_check => repeat_check(&opts),
        None => all_workloads(&opts).is_some(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.
// ---------------------------------------------------------------------

/// Reps of one pass. A layer run makes two passes over the same reps —
/// untraced and traced — so each gets half of `--seconds`.
fn reps_of(w: Workload, opts: &Options) -> u32 {
    match (opts.smoke, opts.trace) {
        (true, _) => 1,
        (false, false) => w.reps(opts.seconds),
        (false, true) => w.reps(opts.seconds).div_ceil(2),
    }
}

/// Runs the untraced pass, printing each rep's digest so that two
/// commits can be compared exactly.
fn untraced_pass(w: Workload, opts: &Options, mut before_rep: impl FnMut(u32)) -> Vec<RepSummary> {
    (0..reps_of(w, opts))
        .map(|rep| {
            before_rep(rep);
            let summary = run::untraced_rep(w, rep_seed(opts.seed, rep));
            println!(
                "digest {} rep={rep} {:016x} events={} completed={} failed={} latency_ms={:.3} node_s={:.1} wall_ms={:.3}",
                w.name(),
                summary.digest,
                summary.events,
                summary.completed,
                summary.failed,
                summary.latency_ms,
                summary.node_s,
                summary.wall.as_secs_f64() * 1e3
            );
            summary
        })
        .collect()
}

/// Prints violations; the number of reps that failed a check.
fn failed_reps(reps: &[RepSummary], extra: &[Vec<String>]) -> u64 {
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        let all = rep
            .violations
            .iter()
            .chain(extra.get(i).into_iter().flatten());
        let mut any = false;
        for violation in all {
            println!("CHECK FAILED rep={i}: {violation}");
            any = true;
        }
        failed += u64::from(any);
    }
    failed
}

fn finish(defs: &[MetricDef], values: &Values, title: &str, attempted: u64, failed: u64) -> bool {
    report::print_table(title, defs, values);
    println!(
        "{}",
        report::result_line(defs, values, failed == 0, attempted, failed)
    );
    failed == 0
}

/// Mean of the samples, 0 when there are none.
fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nearest-rank percentile of unsorted samples, 0 when there are none.
fn percentile(mut samples: Vec<f64>, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn median(samples: Vec<f64>) -> f64 {
    percentile(samples, 0.5)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time of the reps on a quiet machine, seconds: all events × the
/// mean time per event of the fastest quarter of the reps. On a shared
/// host, interference only ever adds time, in bursts that hit some reps
/// and not others; the plain sum of rep walls moved 2.5 times as much
/// between runs of identical work as this estimate did. A slowdown of
/// the simulator raises every rep's time per event, the fastest too.
fn quiet_wall_s(reps: &[RepSummary]) -> f64 {
    let mut ns_per_event: Vec<f64> = reps
        .iter()
        .map(|r| r.wall.as_nanos() as f64 / r.events.max(1) as f64)
        .collect();
    ns_per_event.sort_by(f64::total_cmp);
    let fastest = &ns_per_event[..(reps.len() / 4).max(1)];
    let events: u64 = reps.iter().map(|r| r.events).sum();
    mean(fastest) * events as f64 / 1e9
}

/// `--trace 0`: the timed reps, with set-up samples between them, on a plain
/// `Engine<J2eeApp>`; the end-to-end metrics.
fn end_to_end_run(w: Workload, opts: &Options) -> bool {
    // Set-up is timed in small batches before each rep, so that the
    // samples spread over the whole run and a burst of interference on
    // the host cannot cover them all.
    let batch = run::SETUP_SAMPLES.div_ceil(reps_of(w, opts));
    let mut setup = Vec::new();
    let reps = untraced_pass(w, opts, |rep| {
        setup
            .extend((0..batch).map(|i| run::setup_sample(w, rep_seed(opts.seed, rep * batch + i))));
    });
    let failed = failed_reps(&reps, &[]);

    let per_rep = |f: &dyn Fn(&RepSummary) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let wall_sum_s: f64 = per_rep(&|r| r.wall.as_secs_f64()).iter().sum();
    let wall_s = quiet_wall_s(&reps);
    let issued: u64 = reps.iter().map(RepSummary::issued).sum();
    let windows: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.window_latency_ms.iter().copied())
        .collect();
    println!(
        "reps={} wall_sum_s={wall_sum_s:.6} rep_wall_median_s={:.6} windows={}",
        reps.len(),
        median(per_rep(&|r| r.wall.as_secs_f64())),
        windows.len()
    );

    let completed: u64 = reps
        .iter()
        // A rep whose output check fails counts all its requests as failed.
        .filter(|r| r.violations.is_empty())
        .map(|r| r.completed)
        .sum();
    let mut v = Values::default();
    v.set("setup_s", median(setup));
    v.set("run_wall_s", wall_s);
    v.set("ns_per_request", wall_s * 1e9 / issued.max(1) as f64);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("sim_served_share", completed as f64 / issued.max(1) as f64);
    v.set("sim_latency_ms_win_p50", percentile(windows.clone(), 0.5));
    v.set("sim_latency_ms_win_p99", percentile(windows, 0.99));
    v.set("sim_node_s", mean(&per_rep(&|r| r.node_s)));
    let title = format!("{} end to end (untraced), seed {}", w.name(), opts.seed);
    finish(&report::end_to_end(), &v, &title, reps.len() as u64, failed)
}

/// `--trace 1`: the same reps untraced and traced, then the layer
/// probes; the layer ledger.
fn layer_run(w: Workload, opts: &Options) -> bool {
    let untraced = untraced_pass(w, opts, |_| {});
    let clock_ns = Recorder::calibrate_clock_ns();
    let mut rec = Recorder::default();
    let mut traced = Vec::new();
    let mut cross_checks = Vec::new();
    for (rep, plain) in untraced.iter().enumerate() {
        let rep = rep as u32;
        let (summary, back) = run::traced_rep(w, rep, rep_seed(opts.seed, rep), rec);
        rec = back;
        cross_checks.push(run::check_traced(plain, &summary));
        traced.push(summary);
    }
    let (alloc_calls, alloc_bytes) = alloc::totals();
    let mut failed = failed_reps(&untraced, &cross_checks);
    // No response without an issue: every completed or failed request
    // was issued by a client-group event of the traced pass.
    let client_events = rec.groups[Group::Client as usize].events;
    let answered: u64 = traced.iter().map(RepSummary::issued).sum();
    if client_events < answered {
        println!("CHECK FAILED: {answered} requests answered, {client_events} client events");
        failed = failed.max(1);
    }
    // `--smoke` skips the probes; they then read 0.
    let budget = if opts.smoke {
        Duration::ZERO
    } else {
        PROBE_BUDGET
    };
    let probes = probes::run_all(opts.seed, budget);
    if let Err(e) = write_trace(w, &rec) {
        eprintln!("jade-benchmark: trace file not written: {e}");
    }

    let untraced_ns: f64 = untraced.iter().map(|r| r.wall.as_nanos() as f64).sum();
    let traced_ns: f64 = traced.iter().map(|r| r.wall.as_nanos() as f64).sum();
    let events = rec.total_events() as f64;
    let self_ns = rec.total_self_ns() as f64;
    let clock_total = events * clock_ns;
    let queue_ns = traced_ns - self_ns - clock_total;
    let reps = traced.len() as f64;

    let mut v = Values::default();
    for g in Group::ALL {
        let agg = &rec.groups[g as usize];
        let quantile = |q, min| {
            (agg.events >= min)
                .then(|| agg.hist.quantile(q))
                .flatten()
                .unwrap_or(0.0)
        };
        v.set(format!("{}.events", g.name()), agg.events as f64);
        v.set(
            format!("{}.share", g.name()),
            agg.self_ns as f64 / traced_ns,
        );
        v.set(
            format!("{}.self_ns_p50", g.name()),
            quantile(0.5, MIN_SAMPLES_P50),
        );
        v.set(
            format!("{}.self_ns_p99", g.name()),
            quantile(0.99, MIN_SAMPLES_P99),
        );
    }
    v.set("engine.events", events);
    v.set("engine.ns_per_event", untraced_ns / events);
    v.set("engine.events_per_s", events / (untraced_ns / 1e9));
    v.set("engine.queue_ns_per_event", queue_ns / events);
    v.set("engine.queue_share", queue_ns / traced_ns);
    v.set(
        "trace.overhead_share",
        (traced_ns - untraced_ns) / untraced_ns,
    );
    v.set("trace.clock_ns", clock_ns);
    v.set("trace.clock_share", clock_total / traced_ns);
    v.set("reconcile.handler_sum_share", self_ns / traced_ns);
    v.set("alloc.per_kevent", alloc_calls as f64 * 1e3 / events);
    v.set("alloc.bytes_per_event", alloc_bytes as f64 / events);
    let reconfigs: Vec<f64> = traced.iter().map(|r| r.reconfigs as f64).collect();
    v.set("model.reconfigs", mean(&reconfigs));
    let peak = |f: fn(&RepSummary) -> usize| traced.iter().map(f).max().unwrap_or(0) as f64;
    v.set("model.peak_replicas_db", peak(|r| r.peak_db));
    v.set("model.peak_replicas_app", peak(|r| r.peak_app));
    let maes: Vec<f64> = traced.iter().filter_map(|r| r.transition_mae).collect();
    v.set("model.paper_transition_mae_clients", mean(&maes));
    let mttr: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.mttr_s.iter().copied())
        .collect();
    v.set("model.mttr_s", mean(&mttr));
    let crashes = w.crashes_per_rep() as f64 * reps;
    let lost: u64 = traced.iter().map(|r| r.failed).sum();
    v.set(
        "model.requests_lost_per_crash",
        if crashes > 0.0 {
            lost as f64 / crashes
        } else {
            0.0
        },
    );
    v.0.extend(probes);
    reconcile(w, &traced, &rec, &mut v);

    println!(
        "traced_wall_s={:.6} untraced_wall_s={:.6} handler+queue+clock={:.6} repairs_timed={}",
        traced_ns / 1e9,
        untraced_ns / 1e9,
        (self_ns + queue_ns + clock_total) / traced_ns,
        mttr.len(),
    );
    let title = format!(
        "{} layer ledger (traced pass and probes), seed {}",
        w.name(),
        opts.seed
    );
    finish(
        &report::per_layer(),
        &v,
        &title,
        traced.len() as u64,
        failed,
    )
}

/// Probe time × traced count against the traced group's self time, as a
/// relative error: how much of a group's time the probed functions
/// explain. `DbDispatch` events are SQL steps (route, execute, for a
/// write also log and apply the delta on the other backends) plus one
/// hand-over to the post-query servlet job per request; every CPU job
/// they submit costs a PS-CPU cycle and a re-armed completion timer.
/// `CpuComplete` is a PS-CPU cycle plus scheduling the follow-up event.
/// What the estimates leave out — slab bookkeeping, legacy-layer lookups
/// — makes them negative.
fn reconcile(w: Workload, traced: &[RepSummary], rec: &Recorder, v: &mut Values) {
    let probe = |name: &str| v.get(name).unwrap_or(0.0);
    let dataset = if w == Workload::RepairChurn {
        "x20"
    } else {
        "small"
    };
    let storage = |op: &str| probe(&format!("tiers.storage.{op}_ns_{dataset}"));
    let cpu_cycle = probe(if w == Workload::Overload1k {
        "sim.cpu.cycle_ns_n128"
    } else {
        "sim.cpu.cycle_ns_n2"
    });
    let events = |g: Group| rec.groups[g as usize].events as f64;

    let writes = probes::write_step_share(w == Workload::ProbeWide);
    let backends = traced.iter().map(|r| r.mean_db).sum::<f64>() / traced.len() as f64;
    let requests = events(Group::WebApp);
    let sql_steps = (events(Group::DbDispatch) - requests).max(0.0);
    let per_step = (1.0 - writes) * (probe("tiers.cjdbc.route_read_ns") + storage("read_step"))
        + writes
            * (probe("tiers.cjdbc.route_write_ns")
                + storage("write_step")
                + (backends - 1.0).max(0.0) * storage("apply_delta"));
    // One routing job on the controller's node per step, one job per
    // executing backend, one post-query servlet job per request.
    let jobs = requests + sql_steps * (1.0 + (1.0 - writes) + writes * backends);
    let per_job = cpu_cycle + probe("sim.queue.cancel_ns_d500");
    let db_dispatch = sql_steps * per_step + jobs * per_job;
    let cpu_complete =
        events(Group::CpuComplete) * (cpu_cycle + probe("sim.queue.push_pop_ns_d500"));

    let probed = !report::PROBES.iter().all(|name| probe(name) == 0.0);
    for (name, group, estimate) in [
        ("reconcile.db_dispatch_err", Group::DbDispatch, db_dispatch),
        (
            "reconcile.cpu_complete_err",
            Group::CpuComplete,
            cpu_complete,
        ),
    ] {
        let measured = rec.groups[group as usize].self_ns as f64;
        let err = if probed && measured > 0.0 {
            (estimate - measured) / measured
        } else {
            0.0
        };
        v.set(name, err);
    }
}

/// `benchmark/out/trace-<workload>.jsonl`, the only file the benchmark
/// writes. `cargo run` exports the package directory; a bare binary
/// falls back to `benchmark/` under the working directory.
fn write_trace(w: Workload, rec: &Recorder) -> std::io::Result<()> {
    // jade-audit: allow(nondet-env): locates the output directory only; no simulation input comes from the environment
    let package = std::env::var_os("CARGO_MANIFEST_DIR").map_or("benchmark".into(), PathBuf::from);
    let dir = package.join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", w.name()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    rec.write_jsonl(w.name(), file)?;
    println!("trace written to {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------
// Every workload, one child process each.
// ---------------------------------------------------------------------

/// What one child run reported.
struct ChildReport {
    workload: Workload,
    trace: bool,
    values: Values,
    digests: Vec<String>,
}

fn run_child(w: Workload, trace: bool, opts: &Options) -> Option<ChildReport> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        println!(
            "{} --trace {} exited with {}",
            w.name(),
            u8::from(trace),
            output.status
        );
        return None;
    }
    let (correct, values) = report::parse_result_line(stdout.lines().last()?)?;
    correct.then(|| ChildReport {
        workload: w,
        trace,
        values,
        digests: stdout
            .lines()
            .filter(|l| l.starts_with("digest "))
            // Drop the wall time, the one field that is not exact.
            .filter_map(|l| {
                l.rsplit_once(" wall_ms=")
                    .map(|(exact, _)| exact.to_owned())
            })
            .collect(),
    })
}

/// One full set: every workload untraced and traced. `None` if any run
/// failed its checks.
fn all_workloads(opts: &Options) -> Option<Vec<ChildReport>> {
    let mut reports = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            reports.push(run_child(w, trace, opts)?);
        }
    }
    Some(reports)
}

/// Two full sets with the same seed must agree: end-to-end metrics
/// within their bounds, everything exact — simulated metrics, event
/// counts, digests — identically.
fn repeat_check(opts: &Options) -> bool {
    let (Some(first), Some(second)) = (all_workloads(opts), all_workloads(opts)) else {
        return false;
    };
    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        let run = format!("{} --trace {}", a.workload.name(), u8::from(a.trace));
        if a.digests != b.digests {
            println!("REPEAT CHECK FAILED {run}: digests or event counts differ");
            ok = false;
        }
        let defs = if a.trace {
            report::per_layer()
        } else {
            report::end_to_end()
        };
        for d in &defs {
            let (Some(x), Some(y)) = (a.values.get(&d.name), b.values.get(&d.name)) else {
                continue;
            };
            let agrees = if d.exact {
                x == y
            } else {
                d.bound
                    .is_none_or(|bound| (x - y).abs() <= bound * x.abs().max(y.abs()))
            };
            if !agrees {
                println!("REPEAT CHECK FAILED {run}: {} {x} vs {y}", d.name);
                ok = false;
            }
        }
    }
    println!("repeat check {}", if ok { "passed" } else { "FAILED" });
    ok
}
