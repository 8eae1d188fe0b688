//! General experiment runner: configure a managed-system run from the
//! command line, print the outcome and (optionally) dump every metric
//! series as TSV.
//!
//! ```sh
//! cargo run --release -p jade-bench --bin run_experiment -- \
//!     --clients 260 --duration 600 --self-repair --out results/my_run
//! ```

use jade::experiment::{run_experiment_with, ExperimentOutput};
use jade::system::ManagedTier;
use jade_bench::cli::{parse_args, CliRun};
use jade_bench::harness::write_file;
use jade_bench::{print_replica_transitions, print_run_summary, series_tsv};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = argv.iter().map(String::as_str).collect();
    let CliRun {
        cfg,
        duration,
        out_prefix,
        trace,
    } = match parse_args(args, |path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "running '{}' for {duration} of virtual time (seed {}, {} nodes, jade {})",
        cfg.description.name,
        cfg.seed,
        cfg.nodes,
        if cfg.jade.managed { "on" } else { "off" },
    );
    let out = run_experiment_with(cfg, duration, |engine| {
        if trace {
            engine.set_tracer(jade_sim::Tracer::enabled(500, jade_sim::TraceLevel::Info));
        }
    });
    print_run_summary("result", &out);
    println!(
        "final replicas: application={}, database={}; nodes allocated={}",
        out.app.running_replicas(ManagedTier::Application),
        out.app.running_replicas(ManagedTier::Database),
        out.app.allocated_nodes()
    );
    print_replica_transitions(&out);
    if !out.app.reconfig_log.is_empty() {
        println!("reconfiguration journal:");
        for (t, line) in &out.app.reconfig_log {
            println!("  [{t}] {line}");
        }
    }
    if let Some(prefix) = out_prefix {
        if let Err(msg) = write_metric_series(&out, &prefix) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if trace {
        println!(
            "management-plane trace (last {} events):",
            out.tracer.events().count()
        );
        print!("{}", out.tracer.render());
    }
    ExitCode::SUCCESS
}

/// Writes every metric series of `out` to `PREFIX_<series>.tsv`, printing
/// each path. The first failed write ends it with an error naming its path.
fn write_metric_series(out: &ExperimentOutput, prefix: &str) -> Result<(), String> {
    for name in out.metrics.series_names() {
        let series: Vec<(f64, f64)> = out
            .metrics
            .series(name)
            .map(|s| {
                s.points()
                    .iter()
                    .map(|&(t, v)| (t.as_secs_f64(), v))
                    .collect()
            })
            .unwrap_or_default();
        let path = format!("{prefix}_{}.tsv", name.replace('.', "_"));
        write_file(Path::new(&path), &series_tsv(&series))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade::config::SystemConfig;
    use jade::experiment::run_experiment;
    use jade_rubis::WorkloadRamp;
    use jade_sim::SimDuration;

    #[test]
    fn out_under_a_regular_file_is_an_error_naming_the_path() {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = WorkloadRamp::constant(20);
        let out = run_experiment(cfg, SimDuration::from_secs(30));
        // This crate's `Cargo.toml` is a regular file, so no directory
        // can be made under it.
        let prefix = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/x");
        let err = write_metric_series(&out, &prefix.display().to_string()).unwrap_err();
        assert!(err.contains(&prefix.display().to_string()), "{err}");
    }
}
