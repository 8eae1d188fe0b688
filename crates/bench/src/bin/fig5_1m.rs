//! Figure 5 at production scale: a million emulated clients.
//!
//! Runs `SystemConfig::million_clients()` — the paper's Figure 5 scenario
//! consistently rescaled (population ×2000, think time ×100, node speed
//! ×20, manager time constants and ramp compressed ×4) — and prints the
//! replica staircase. The client population is driven by the aggregate
//! client pool — per-state session counts instead of a million client
//! objects and timers — which is what makes a million-client run finish
//! in seconds of wall clock; see EXPERIMENTS.md ("A million clients").
//!
//! Expected shape: the same staircase as Figure 5, one level up — the
//! application tier scales 1→2→3 and back, the database tier 1→2→3→4 and
//! back, with the failure burst confined to the mid-ramp reconfiguration
//! transient and none at the million-client plateau.

use jade::config::SystemConfig;
use jade::system::ManagedTier;
use jade_bench::{ascii_chart, print_replica_transitions, write_series, Harness, RunSpec};
use jade_sim::SimDuration;

fn main() {
    println!("=== Figure 5 at 1M clients: aggregate client pool ===");
    let harness = Harness::from_env();
    let results = harness.run(vec![RunSpec::new(
        "managed run (1M clients)",
        SystemConfig::million_clients(),
        SimDuration::from_secs(800),
    )]);
    harness.write_manifest("fig5_1m", &results);
    Harness::print_record(&results[0].record);
    let out = &results[0].out;
    print_replica_transitions(out);

    let db = out.series("replicas.db");
    let app = out.series("replicas.app");
    println!("{}", ascii_chart("# of database backends", &db, 8, 100));
    println!("{}", ascii_chart("# of application servers", &app, 8, 100));
    write_series("fig5_1m_replicas_db", &db);
    write_series("fig5_1m_replicas_app", &app);
    write_series("fig5_1m_clients", &out.series("clients"));

    let peak_db = out.max_replicas(ManagedTier::Database);
    let peak_app = out.max_replicas(ManagedTier::Application);
    println!("peak replicas: database={peak_db}, application={peak_app}");
    println!(
        "final replicas: database={}, application={}",
        out.app.running_replicas(ManagedTier::Database),
        out.app.running_replicas(ManagedTier::Application)
    );
    let completed = out.metrics.counter("requests.completed");
    let failed = out.metrics.counter("requests.failed");
    println!(
        "requests: completed={completed}, failed={failed} ({:.2}% of total)",
        100.0 * failed as f64 / (completed + failed).max(1) as f64
    );
    println!("\nreconfiguration journal:");
    for (t, line) in &out.app.reconfig_log {
        println!("  [{t}] {line}");
    }
}
