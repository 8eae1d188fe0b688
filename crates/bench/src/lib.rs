//! # jade-bench — figure and table regeneration harness
//!
//! One binary per experiment of the paper's evaluation (§5):
//!
//! | Binary      | Reproduces |
//! |-------------|------------|
//! | `reconfig`  | §5.1 qualitative comparison (ops + config writes)   |
//! | `fig5`      | Figure 5: replica counts under the client ramp      |
//! | `fig5_1m`   | Figure 5 rescaled to a million aggregate clients    |
//! | `fig6`      | Figure 6: database-tier CPU, managed vs unmanaged   |
//! | `fig7`      | Figure 7: application-tier CPU, managed vs unmanaged|
//! | `fig8`      | Figure 8: response time without Jade                |
//! | `fig9`      | Figure 9: response time with Jade                   |
//! | `table1`    | Table 1: intrusivity of the management layer        |
//! | `calibrate` | The paper's threshold-calibration benchmarks        |
//! | `ablations` | Design-choice ablations (DESIGN.md §5)              |
//! | `rubis_report` | RUBiS's per-interaction statistics table         |
//! | `run_experiment` | General experiment CLI (see `--help`)          |
//!
//! Everything here runs on virtual time and reads no clock; end-to-end
//! and per-layer timings come from the `benchmark/` package alone.

#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod reference;

pub use harness::{Harness, RunRecord, RunResult, RunSpec, HARNESS_USAGE};
pub use reference::{
    naive_time_weighted_mean, naive_value_at, NaiveDatabase, NaiveMovingAverage, NaiveObservation,
    NaivePsCpu, NaiveQueryResult, NaiveRow, NaiveTimers,
};

use jade::experiment::ExperimentOutput;
use jade::system::ManagedTier;
use std::fmt::Write as _;

/// Formats a `(t, v)` series as TSV.
pub fn series_tsv(series: &[(f64, f64)]) -> String {
    let mut out = String::with_capacity(series.len() * 16);
    out.push_str("# time_s\tvalue\n");
    for (t, v) in series {
        let _ = writeln!(out, "{t:.1}\t{v:.4}");
    }
    out
}

/// Writes a TSV series to `results/<name>.tsv` at the repository root; a
/// failed write ends the process with status 1.
pub fn write_series(name: &str, series: &[(f64, f64)]) {
    harness::write_result(&format!("{name}.tsv"), &series_tsv(series));
}

/// Renders a small ASCII time-series chart (terminal figures).
pub fn ascii_chart(title: &str, series: &[(f64, f64)], height: usize, width: usize) -> String {
    let mut out = format!("## {title}\n");
    if series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let t_max = series.last().map(|&(t, _)| t).unwrap_or(1.0).max(1e-9);
    let v_max = series
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    // Downsample into `width` columns (column max, so spikes stay visible).
    let mut cols = vec![0.0f64; width];
    for &(t, v) in series {
        let c = ((t / t_max) * (width as f64 - 1.0)) as usize;
        cols[c] = cols[c].max(v);
    }
    for row in (0..height).rev() {
        let threshold = v_max * (row as f64 + 0.5) / height as f64;
        let label = if row == height - 1 {
            format!("{v_max:9.2} |")
        } else if row == 0 {
            format!("{:9.2} |", 0.0)
        } else {
            "          |".to_owned()
        };
        out.push_str(&label);
        for &c in &cols {
            out.push(if c >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "          +{}\n           0s{:>width$.0}s",
        "-".repeat(width),
        t_max,
        width = width - 2
    );
    out
}

/// Prints the replica-transition table of a managed run (the narrative of
/// Figure 5's caption).
pub fn print_replica_transitions(out: &ExperimentOutput) {
    println!("replica transitions (time, tier, count, clients at that time):");
    let clients = out.series("clients");
    let client_at = |t: f64| -> f64 {
        clients
            .iter()
            .take_while(|&&(ct, _)| ct <= t)
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    for tier in [ManagedTier::Database, ManagedTier::Application] {
        for (t, v) in out.replica_steps(tier) {
            println!(
                "  t={t:7.1}s  {tier:?}  -> {v:.0} replicas  (~{:.0} clients)",
                client_at(t)
            );
        }
    }
}

/// Compact run summary shared by the figure binaries.
pub fn print_run_summary(label: &str, out: &ExperimentOutput) {
    println!(
        "{label}: {} requests completed, {} failed, mean latency {:.0} ms, throughput {:.1} req/s, \
         {} events simulated",
        out.app.stats.total_completed(),
        out.app.stats.total_failed(),
        out.mean_latency_ms(),
        out.throughput(),
        out.events
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_roundtrip() {
        let tsv = series_tsv(&[(0.0, 1.0), (10.0, 2.5)]);
        assert!(tsv.contains("0.0\t1.0000"));
        assert!(tsv.contains("10.0\t2.5000"));
    }

    #[test]
    fn ascii_chart_renders() {
        let chart = ascii_chart("test", &[(0.0, 0.0), (50.0, 1.0), (100.0, 0.5)], 5, 40);
        assert!(chart.contains("## test"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn ascii_chart_handles_empty() {
        assert!(ascii_chart("e", &[], 5, 40).contains("no data"));
    }
}
