//! Shared experiment-orchestration layer.
//!
//! Every figure/table binary describes its scenarios as a list of
//! [`RunSpec`]s and hands them to a [`Harness`], which
//!
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
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
#[derive(Debug, Clone)]
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
    /// Full experiment output.
    pub out: ExperimentOutput,
}

/// Flag summary the figure binaries append to their `--help`/error text.
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
    fn default() -> Self {
        Self {
            jobs: default_jobs(),
            seed: None,
        }
    }
}

/// Available parallelism, with a serial fallback.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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
    /// list. Errors carry the message to print.
    pub fn from_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut harness = Self::default();
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
                other => return Err(format!("unknown flag '{other}'\n{HARNESS_USAGE}")),
            }
        }
        Ok(harness)
    }

    /// Parses the process arguments, exiting with the message on error.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(args.iter().map(String::as_str)) {
            Ok(h) => h,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The seed a spec will run with under this harness.
    pub fn effective_seed(&self, spec: &RunSpec) -> u64 {
        match self.seed {
            Some(root) => SimRng::stream_seed(root, spec.stream),
            None => spec.cfg.seed,
        }
    }

    /// Runs all specs across the worker pool. The result vector is in
    /// spec order, and every run's outcome digest is independent of
    /// `jobs`.
    pub fn run(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        let specs: Vec<RunSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.cfg.seed = self.effective_seed(&s);
                s
            })
            .collect();
        let n = specs.len();
        let workers = self.jobs.clamp(1, n.max(1));
        let next = AtomicUsize::new(0);
        let cells: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let specs = &specs;
        let cells_ref = &cells;
        let next_ref = &next;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let spec = &specs[i];
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
                    *cells_ref[i].lock().expect("result cell") = Some(RunResult { record, out });
                });
            }
        });
        cells
            .into_iter()
            .map(|c| {
                c.into_inner()
                    .expect("result cell")
                    .expect("every claimed run completes")
            })
            .collect()
    }

    /// Renders the manifest JSON for a set of results. Every field is a
    /// function of `{scenario, seed}` alone, so regenerating a committed
    /// manifest on any host is a no-op; host timings live in the
    /// benchmark (`benchmark/`), which measures them live.
    pub fn manifest_json(&self, name: &str, results: &[RunResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_str(name));
        out.push_str("  \"schema\": 2,\n");
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
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

    /// Writes the manifest to `results/<name>.json` (anchored at the
    /// repository root, two levels above this crate's manifest, regardless
    /// of working directory) and prints the path.
    pub fn write_manifest(&self, name: &str, results: &[RunResult]) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let path = self.write_manifest_under(&dir, name, results);
        if let Some(path) = path {
            println!("  wrote {}", path.display());
        }
    }

    /// Writes the manifest under an explicit directory (tests use a
    /// scratch dir). Returns the path on success.
    pub fn write_manifest_under(
        &self,
        dir: &Path,
        name: &str,
        results: &[RunResult],
    ) -> Option<PathBuf> {
        let _ = fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, self.manifest_json(name, results))
            .ok()
            .map(|()| path)
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
        let h = Harness::from_args(["--jobs", "3", "--seed", "99"]).unwrap();
        assert_eq!(h.jobs, 3);
        assert_eq!(h.seed, Some(99));
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
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"events\": "));
        // Host timings stay out of the manifest: they would make every
        // regeneration a spurious diff.
        assert!(!json.contains("wall_ms") && !json.contains("events_per_sec"));
        assert!(!json.contains("NaN"));
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
