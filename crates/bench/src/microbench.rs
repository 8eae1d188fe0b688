//! Minimal micro-benchmark runner (the repository builds offline, so
//! `cargo bench` targets use this instead of an external harness).
//!
//! Timing model: one calibration pass picks an iteration count that fills
//! a sample budget, then several samples run back-to-back and the *best*
//! sample is reported as ns/iter (the minimum is the estimate least
//! polluted by scheduler noise; the mean is reported alongside).
//!
//! Budgets shrink under `JADE_BENCH_FAST=1` so CI smoke-runs stay cheap.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use std::hint::black_box;

/// Result of one benchmark case.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Case name.
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Best-sample nanoseconds per iteration.
    pub best_ns: f64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: f64,
}

impl BenchResult {
    /// Iterations per second implied by the best sample.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.best_ns.max(1e-3)
    }
}

/// Collects benchmark cases and renders reports.
#[derive(Debug, Default)]
pub struct Runner {
    results: Vec<BenchResult>,
    sample_ms: f64,
    samples: u32,
}

impl Runner {
    /// A runner with default budgets (fast ones under `JADE_BENCH_FAST`).
    pub fn new() -> Self {
        let fast = crate::cli::bench_fast();
        Self {
            results: Vec::new(),
            sample_ms: if fast { 20.0 } else { 120.0 },
            samples: if fast { 3 } else { 7 },
        }
    }

    /// Times `f` (whose return value is black-boxed) and records a case.
    // The microbenchmark runner is a sanctioned wall-clock user: its
    // output is labelled wall time and never feeds a results digest.
    #[allow(clippy::disallowed_methods)]
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchResult {
        // Calibrate: how many iterations fill one sample budget?
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms >= self.sample_ms || iters >= (1 << 30) {
                // Scale to the budget using the measured rate.
                let per_iter = elapsed_ms / iters as f64;
                iters = ((self.sample_ms / per_iter.max(1e-9)) as u64).max(1);
                break;
            }
            iters *= 4;
        }
        // Measure.
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
            best = best.min(ns);
            total += ns;
        }
        let result = BenchResult {
            name: name.to_owned(),
            iters,
            best_ns: best,
            mean_ns: total / self.samples as f64,
        };
        println!(
            "{:<44} {:>12.1} ns/iter  ({:>10.0} /s, mean {:.1} ns, {} iters x {} samples)",
            result.name,
            result.best_ns,
            result.per_sec(),
            result.mean_ns,
            result.iters,
            self.samples
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All recorded cases.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Looks a case up by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Renders the cases as a JSON document.
    pub fn to_json(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": \"{name}\",");
        out.push_str("  \"schema\": 1,\n");
        out.push_str("  \"cases\": [");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"mean_ns\": {:.1}, \
                 \"per_sec\": {:.0}, \"iters\": {}}}",
                r.name,
                r.best_ns,
                r.mean_ns,
                r.per_sec(),
                r.iters
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON report, printing the path. Relative paths are
    /// resolved against the repository root, not the working directory,
    /// so `cargo bench` (which runs in the package directory) and direct
    /// invocation drop reports in the same place.
    pub fn write_json(&self, name: &str, path: impl AsRef<Path>) {
        let path = repo_relative(path.as_ref());
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        if fs::write(&path, self.to_json(name)).is_ok() {
            println!("  wrote {}", path.display());
        }
    }
}

/// Anchors a relative path at the workspace root (two levels above this
/// crate's manifest).
pub(crate) fn repo_relative(path: &Path) -> PathBuf {
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_a_trivial_case() {
        std::env::set_var("JADE_BENCH_FAST", "1");
        let mut r = Runner::new();
        r.sample_ms = 1.0;
        r.samples = 2;
        let res = r.bench("add", || black_box(1u64) + black_box(2u64)).clone();
        assert!(res.best_ns > 0.0 && res.best_ns.is_finite());
        assert!(r.get("add").is_some());
        let json = r.to_json("unit");
        assert!(json.contains("\"name\": \"add\""));
        assert!(json.contains("\"ns_per_iter\""));
    }
}
