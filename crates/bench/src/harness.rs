//! Shared experiment-orchestration layer.
//!
//! Every figure describes its scenarios as a list of [`RunSpec`]s; the
//! `figures` binary hands the union of them to a [`Harness`], which
//!
//! * simulates each distinct run once ([`Harness::plan`]) and shares its
//!   output with every spec that asked for it,
//! * executes the runs across a worker pool (`--jobs N`, one simulation
//!   engine per thread — the engines themselves stay single-threaded and
//!   deterministic),
//! * optionally rebases every run's seed on a common root (`--seed N`)
//!   while preserving *common random numbers*: specs that share a
//!   [`RunSpec::stream`] receive the same derived seed, so a managed run
//!   and its unmanaged baseline still see the identical workload,
//! * returns results in spec order regardless of which worker finished
//!   first, and
//! * writes a machine-readable manifest (`results/<name>.json`) recording
//!   for each run the seed, config digest, outcome digest, event count
//!   and the run's request totals.
//!
//! The outcome digest of a run depends only on its configuration — never
//! on the worker count, scheduling order, or wall-clock conditions —
//! which is what `tests/determinism.rs` locks in. The harness reads no
//! clock: host timings come from the `benchmark/` package alone.

use jade::config::SystemConfig;
use jade::experiment::{config_digest, run_experiment, ExperimentOutput};
use jade_sim::{SimDuration, SimRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One scenario to simulate.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Human-readable run label (also lands in the manifest).
    pub label: String,
    /// Full system configuration (including its default seed).
    pub cfg: SystemConfig,
    /// Virtual-time horizon.
    pub duration: SimDuration,
    /// Random-number stream. When the harness rebases seeds (`--seed`),
    /// specs with equal streams get equal derived seeds — use one stream
    /// per *comparison group* (e.g. managed vs unmanaged) so baselines
    /// keep seeing the same workload (common random numbers).
    pub stream: u64,
}

impl RunSpec {
    /// A spec on stream 0 (the default comparison group).
    pub fn new(label: impl Into<String>, cfg: SystemConfig, duration: SimDuration) -> Self {
        Self {
            label: label.into(),
            cfg,
            duration,
            stream: 0,
        }
    }

    /// Moves the spec onto a different random-number stream.
    pub fn on_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }
}

/// The manifest row of one completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Label copied from the spec.
    pub label: String,
    /// The seed the run actually used (after any `--seed` rebase).
    pub seed: u64,
    /// Digest of the full configuration (see [`config_digest`]).
    pub config_digest: u64,
    /// Digest of the observable trajectory
    /// ([`ExperimentOutput::outcome_digest`]).
    pub outcome_digest: u64,
    /// Engine events processed.
    pub events: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Run-wide mean client latency, ms.
    pub mean_latency_ms: f64,
    /// Run-wide throughput, req/s.
    pub throughput: f64,
}

/// A completed run: its manifest row plus the full output for plotting.
pub struct RunResult {
    /// Manifest row.
    pub record: RunRecord,
    /// Full experiment output, shared by every spec of the same run.
    pub out: Arc<ExperimentOutput>,
}

/// Flag summary that ends the `figures` binary's `--help`/error text.
pub const HARNESS_USAGE: &str = "\
harness flags:
  --jobs N    worker threads (default: available parallelism)
  --seed N    rebase run seeds on N; runs in the same comparison group
              still share a seed (common random numbers)
  --help      this text
";

/// The experiment runner: worker-pool width plus optional seed rebase.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Worker threads (>= 1). Affects scheduling only, never outcomes.
    pub jobs: usize,
    /// When set, every spec's seed becomes
    /// `SimRng::stream_seed(seed, spec.stream)`.
    pub seed: Option<u64>,
}

impl Default for Harness {
    /// Available parallelism (serial if unknown), unrebased seeds.
    fn default() -> Self {
        Self::with_jobs(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl Harness {
    /// A harness running `jobs` workers with unrebased seeds.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            seed: None,
        }
    }

    /// Parses `--jobs N` / `--seed N` (and `--help`) from an argument
    /// list, returning the other arguments (those not starting with `-`)
    /// in order. Errors carry the message to print.
    pub fn from_args<'a>(
        args: impl IntoIterator<Item = &'a str>,
    ) -> Result<(Self, Vec<&'a str>), String> {
        let mut harness = Self::default();
        let mut operands = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg {
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs: '{v}' is not a valid number"))?;
                    if n == 0 {
                        return Err("--jobs must be >= 1".into());
                    }
                    harness.jobs = n;
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    harness.seed = Some(
                        v.parse()
                            .map_err(|_| format!("--seed: '{v}' is not a valid number"))?,
                    );
                }
                "--help" | "-h" => return Err(HARNESS_USAGE.to_owned()),
                other if !other.starts_with('-') => operands.push(other),
                other => return Err(format!("unknown flag '{other}'\n{HARNESS_USAGE}")),
            }
        }
        Ok((harness, operands))
    }

    /// The seed a spec will run with under this harness.
    pub fn effective_seed(&self, spec: &RunSpec) -> u64 {
        match self.seed {
            Some(root) => SimRng::stream_seed(root, spec.stream),
            None => spec.cfg.seed,
        }
    }

    /// The run each spec shares under this harness: `plan(specs)[i]` is
    /// the index of the first spec whose simulation is identical to spec
    /// `i`'s, so spec `i` is simulated iff `plan(specs)[i] == i`. Two
    /// specs are identical when their configurations after the seed rebase
    /// render equally (the full rendering [`config_digest`] hashes, not the
    /// digest) and their horizons are equal; label and stream do not
    /// count, except that the rebase gives different streams different
    /// seeds.
    pub fn plan(&self, specs: &[RunSpec]) -> Vec<usize> {
        let mut first: BTreeMap<(String, SimDuration), usize> = BTreeMap::new();
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut cfg = spec.cfg.clone();
                cfg.seed = self.effective_seed(spec);
                *first
                    .entry((format!("{cfg:?}"), spec.duration))
                    .or_insert(i)
            })
            .collect()
    }

    /// Runs all specs across the worker pool, simulating each distinct run
    /// of [`Harness::plan`] once. The result vector is in spec order; specs
    /// of the same run share its output and carry its record under their
    /// own label. Every run's outcome digest is independent of `jobs`.
    pub fn run(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        let plan = self.plan(&specs);
        let specs: Vec<RunSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.cfg.seed = self.effective_seed(&s);
                s
            })
            .collect();
        let distinct: Vec<usize> = (0..specs.len()).filter(|&i| plan[i] == i).collect();
        let n = distinct.len();
        let workers = self.jobs.clamp(1, n.max(1));
        let next = AtomicUsize::new(0);
        let cells: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        let (specs_ref, distinct_ref, cells_ref, next_ref) = (&specs, &distinct, &cells, &next);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || {
                    while let Some(&i) = distinct_ref.get(next_ref.fetch_add(1, Ordering::Relaxed))
                    {
                        let spec = &specs_ref[i];
                        let out = run_experiment(spec.cfg.clone(), spec.duration);
                        let record = RunRecord {
                            label: spec.label.clone(),
                            seed: spec.cfg.seed,
                            config_digest: config_digest(&spec.cfg),
                            outcome_digest: out.outcome_digest(),
                            events: out.events,
                            completed: out.app.stats.total_completed(),
                            failed: out.app.stats.total_failed(),
                            mean_latency_ms: out.mean_latency_ms(),
                            throughput: out.throughput(),
                        };
                        *cells_ref[i].lock().expect("result cell") = Some(RunResult {
                            record,
                            out: Arc::new(out),
                        });
                    }
                });
            }
        });
        let mut results: Vec<RunResult> = Vec::with_capacity(specs.len());
        for (i, cell) in cells.into_iter().enumerate() {
            let result = match cell.into_inner().expect("result cell") {
                Some(result) => result,
                None => {
                    let shared = &results[plan[i]];
                    RunResult {
                        record: RunRecord {
                            label: specs[i].label.clone(),
                            ..shared.record.clone()
                        },
                        out: Arc::clone(&shared.out),
                    }
                }
            };
            results.push(result);
        }
        results
    }

    /// Renders the manifest JSON for a set of results. Every field is a
    /// function of `{scenario, seed}` alone, so regenerating a committed
    /// manifest on any host is a no-op; host timings live in the
    /// benchmark (`benchmark/`), which measures them live.
    pub fn manifest_json(&self, name: &str, results: &[RunResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_str(name));
        out.push_str("  \"schema\": 3,\n");
        let _ = writeln!(
            out,
            "  \"seed_rebase\": {},",
            self.seed.map_or("null".to_owned(), |s| s.to_string())
        );
        out.push_str("  \"runs\": [");
        for (i, r) in results.iter().enumerate() {
            let rec = &r.record;
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"label\": {}, ", json_str(&rec.label));
            let _ = write!(out, "\"seed\": {}, ", rec.seed);
            let _ = write!(out, "\"config_digest\": \"{:016x}\", ", rec.config_digest);
            let _ = write!(out, "\"outcome_digest\": \"{:016x}\", ", rec.outcome_digest);
            let _ = write!(out, "\"events\": {}, ", rec.events);
            let _ = write!(out, "\"completed\": {}, ", rec.completed);
            let _ = write!(out, "\"failed\": {}, ", rec.failed);
            let _ = write!(
                out,
                "\"mean_latency_ms\": {}, ",
                json_num(rec.mean_latency_ms, 3)
            );
            let _ = write!(out, "\"throughput\": {}", json_num(rec.throughput, 3));
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the manifest to `results/<name>.json` at the repository root
    /// and prints the path; a failed write ends the process with status 1.
    pub fn write_manifest(&self, name: &str, results: &[RunResult]) {
        write_result(&format!("{name}.json"), &self.manifest_json(name, results));
    }

    /// One-line run summary including the digests (the harness version of
    /// [`crate::print_run_summary`]).
    pub fn print_record(rec: &RunRecord) {
        println!(
            "{}: {} completed, {} failed, mean latency {:.0} ms, throughput {:.1} req/s | \
             seed {}, {} events, outcome {:016x}",
            rec.label,
            rec.completed,
            rec.failed,
            rec.mean_latency_ms,
            rec.throughput,
            rec.seed,
            rec.events,
            rec.outcome_digest,
        );
    }
}

/// Writes `contents` to `path`, creating its directory if needed, and
/// prints the path. The error names the path and the cause.
pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    let written = path
        .parent()
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(path, contents));
    match written {
        Ok(()) => {
            println!("  wrote {}", path.display());
            Ok(())
        }
        Err(e) => Err(format!("error: cannot write {}: {e}", path.display())),
    }
}

/// Writes `file` into the repository root's `results/` (two levels above
/// this crate's manifest, whatever the working directory). A failed write
/// prints the path and the error and exits with status 1, so a figure that
/// wrote nothing cannot pass for one that reproduced its committed output.
pub(crate) fn write_result(file: &str, contents: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    if let Err(msg) = write_file(&path, contents) {
        eprintln!("{msg}");
        std::process::exit(1);
    }
}

/// JSON string literal with minimal escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number with `decimals` fractional digits (`null` for
/// NaN/inf, which JSON cannot represent).
fn json_num(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse() {
        let (h, names) =
            Harness::from_args(["fig6", "--jobs", "3", "--seed", "99", "fig7"]).unwrap();
        assert_eq!(h.jobs, 3);
        assert_eq!(h.seed, Some(99));
        assert_eq!(names, ["fig6", "fig7"]);
        assert!(Harness::from_args(["--jobs", "0"]).is_err());
        assert!(Harness::from_args(["--wat"]).is_err());
        assert!(Harness::from_args(["--help"])
            .unwrap_err()
            .contains("--jobs"));
    }

    #[test]
    fn seed_rebase_preserves_common_random_numbers() {
        let h = Harness {
            jobs: 1,
            seed: Some(7),
        };
        let cfg = SystemConfig::paper_managed();
        let d = SimDuration::from_secs(1);
        let a = RunSpec::new("a", cfg.clone(), d);
        let b = RunSpec::new("b", cfg.clone(), d);
        let c = RunSpec::new("c", cfg, d).on_stream(1);
        // Same stream => same derived seed; different stream => different.
        assert_eq!(h.effective_seed(&a), h.effective_seed(&b));
        assert_ne!(h.effective_seed(&a), h.effective_seed(&c));
        // Without a rebase the config's own seed is used.
        let h0 = Harness::with_jobs(1);
        assert_eq!(h0.effective_seed(&a), 42);
    }

    #[test]
    fn plan_merges_only_identical_runs() {
        let d = SimDuration::from_secs(30);
        let a = SystemConfig::paper_managed();
        let specs = [
            RunSpec::new("x", a.clone(), d),
            RunSpec::new("y", a.clone(), d),
            RunSpec::new("b", SystemConfig::paper_unmanaged(), d),
            RunSpec::new("x on stream 1", a.clone(), d).on_stream(1),
            RunSpec::new("x for longer", a, SimDuration::from_secs(60)),
        ];
        let distinct = |plan: &[usize]| plan.iter().enumerate().filter(|&(i, &p)| i == p).count();
        // Without a rebase every spec keeps its config's seed, so the
        // stream does not tell runs apart and A on stream 1 merges too.
        let plain = Harness::with_jobs(1).plan(&specs);
        assert_eq!(plain, [0, 0, 2, 0, 4]);
        assert_eq!(distinct(&plain), 3);
        // Under a rebase, stream 1 derives another seed: its own run.
        let rebased = Harness {
            jobs: 1,
            seed: Some(7),
        }
        .plan(&specs);
        assert_eq!(rebased, [0, 0, 2, 3, 4]);
        assert_eq!(distinct(&rebased), 4);
    }

    #[test]
    fn merged_specs_share_one_output_and_record() {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = jade_rubis::WorkloadRamp::constant(20);
        let d = SimDuration::from_secs(30);
        let results = Harness::with_jobs(2).run(vec![
            RunSpec::new("x", cfg.clone(), d),
            RunSpec::new("y", cfg.clone(), d).on_stream(1),
            RunSpec::new("longer", cfg, SimDuration::from_secs(40)),
        ]);
        let (x, y, longer) = (&results[0], &results[1], &results[2]);
        assert!(Arc::ptr_eq(&x.out, &y.out));
        assert!(!Arc::ptr_eq(&x.out, &longer.out));
        assert_eq!(y.record.label, "y");
        let y_as_x = RunRecord {
            label: "x".to_owned(),
            ..y.record.clone()
        };
        assert_eq!(y_as_x, x.record);
        assert_ne!(longer.record.events, x.record.events);
    }

    #[test]
    fn manifest_is_valid_shape() {
        let h = Harness::with_jobs(2);
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = jade_rubis::WorkloadRamp::constant(20);
        let results = h.run(vec![RunSpec::new(
            "tiny \"run\"",
            cfg,
            SimDuration::from_secs(30),
        )]);
        let json = h.manifest_json("unit", &results);
        assert!(json.contains("\"name\": \"unit\""));
        assert!(json.contains("\"label\": \"tiny \\\"run\\\"\""));
        assert!(json.contains("\"outcome_digest\": \""));
        assert!(json.contains("\"schema\": 3"));
        // The worker count is no function of the scenario, so it stays out.
        assert!(!json.contains("\"jobs\""));
        assert!(json.contains("\"events\": "));
        // Host timings stay out of the manifest: they would make every
        // regeneration a spurious diff.
        assert!(!json.contains("wall_ms") && !json.contains("events_per_sec"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn manifest_write_under_a_regular_file_is_an_error() {
        // This crate's `Cargo.toml` is a regular file, so it cannot be
        // the manifest's directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        assert!(dir.is_file());
        let path = dir.join("unit.json");
        let err = write_file(&path, "{}").unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn results_keep_spec_order_and_digests_ignore_jobs() {
        let d = SimDuration::from_secs(60);
        let mk = |clients: u32, stream: u64| {
            let mut cfg = SystemConfig::paper_managed();
            cfg.ramp = jade_rubis::WorkloadRamp::constant(clients);
            RunSpec::new(format!("c{clients}"), cfg, d).on_stream(stream)
        };
        let specs = || vec![mk(20, 0), mk(40, 1), mk(60, 2), mk(30, 3)];
        let serial = Harness::with_jobs(1).run(specs());
        let parallel = Harness::with_jobs(4).run(specs());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.record.label, p.record.label);
            assert_eq!(s.record.outcome_digest, p.record.outcome_digest);
            assert_eq!(s.record.config_digest, p.record.config_digest);
            assert_eq!(s.record.events, p.record.events);
        }
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(1.25, 2), "1.25");
        assert_eq!(json_num(f64::NAN, 2), "null");
    }
}
