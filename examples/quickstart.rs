//! Quickstart: describe a clustered J2EE application in the ADL, deploy
//! it on the simulated cluster under Jade's management, run it under load
//! for five virtual minutes, and introspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jade::adl::J2eeDescription;
use jade::config::SystemConfig;
use jade::experiment::run_experiment;
use jade::system::ManagedTier;
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;

fn main() {
    // 1. The architecture, as the paper's XML ADL (§3.3).
    let adl = r#"
        <j2ee name="rubis">
            <!-- one replicated servlet tier behind PLB -->
            <tier kind="application" replicas="1" policy="round-robin"/>
            <!-- one replicated database tier behind C-JDBC -->
            <tier kind="database" replicas="1" read-policy="least-pending"/>
        </j2ee>
    "#;
    let description = J2eeDescription::from_xml(adl).expect("valid ADL");
    println!(
        "deploying '{}' ({} initial nodes + client emulator)",
        description.name,
        description.initial_nodes()
    );

    // 2. Configure the experiment: Jade managed, steady 80 clients.
    let mut cfg = SystemConfig::paper_managed();
    cfg.description = description;
    cfg.ramp = WorkloadRamp::constant(80);

    // 3. Run five virtual minutes.
    let out = run_experiment(cfg, SimDuration::from_secs(300));

    // 4. Introspect: the management layer sees the whole architecture as
    //    one composite component (paper §3.2).
    println!(
        "\nmanaged architecture:\n{}",
        out.app.jade.render_architecture()
    );
    println!("Jade's own components:\n{}", {
        // Jade administrates itself: the managers are components too.
        let reg = out.app.jade.registry();
        let jade_root = reg
            .ids()
            .into_iter()
            .find(|&id| reg.name(id).as_deref() == Ok("jade"))
            .expect("jade composite");
        reg.render_tree(jade_root)
    });

    // 5. What happened.
    println!(
        "served {} requests at {:.1} req/s, mean latency {:.0} ms, {} failures",
        out.app.stats.total_completed(),
        out.throughput(),
        out.mean_latency_ms(),
        out.app.stats.total_failed()
    );
    println!(
        "replicas: application={}, database={}, nodes allocated={}",
        out.app.running_replicas(ManagedTier::Application),
        out.app.running_replicas(ManagedTier::Database),
        out.app.allocated_nodes()
    );
    println!(
        "management operations journaled: {}",
        out.app.jade.registry().journal_len()
    );
}
