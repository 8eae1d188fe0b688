//! End-to-end integration tests across all crates: the full managed
//! system under the paper's workload shapes.

use jade::config::SystemConfig;
use jade::experiment::run_experiment;
use jade::system::ManagedTier;
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;

/// The paper's ramp compressed 3× (same shape, 1000 s instead of 3000 s)
/// so integration tests stay fast.
fn fast_ramp() -> WorkloadRamp {
    WorkloadRamp {
        base_clients: 80,
        peak_clients: 500,
        step_clients: 42,
        step_interval: SimDuration::from_secs(30),
        warmup: SimDuration::from_secs(60),
        plateau: SimDuration::from_secs(120),
    }
}

#[test]
fn managed_system_scales_up_and_back_down() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = fast_ramp();
    let out = run_experiment(cfg, SimDuration::from_secs(1000));

    // Figure 5's shape: both tiers scale out under load…
    assert!(
        out.max_replicas(ManagedTier::Database) >= 2,
        "database tier never scaled; log: {:?}",
        out.app.reconfig_log
    );
    assert!(
        out.max_replicas(ManagedTier::Application) >= 2,
        "application tier never scaled; log: {:?}",
        out.app.reconfig_log
    );
    // …and release resources once the load drops.
    assert_eq!(
        out.app.running_replicas(ManagedTier::Database),
        1,
        "database replicas not released"
    );
    assert_eq!(
        out.app.running_replicas(ManagedTier::Application),
        1,
        "application replicas not released"
    );
    // The database scales before the application tier (the DB is the
    // bottleneck in RUBiS — paper §5.2).
    let first_db = out
        .replica_steps(ManagedTier::Database)
        .get(1)
        .map(|&(t, _)| t);
    let first_app = out
        .replica_steps(ManagedTier::Application)
        .get(1)
        .map(|&(t, _)| t);
    match (first_db, first_app) {
        (Some(db), Some(app)) => assert!(db < app, "db must scale first ({db} vs {app})"),
        _ => panic!("missing scaling transitions"),
    }
}

#[test]
fn node_pool_is_never_exceeded_and_always_returned() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = fast_ramp();
    cfg.nodes = 6; // tight pool: 4 initial + only 2 spare
    let out = run_experiment(cfg, SimDuration::from_secs(1000));
    let peak_alloc = out
        .series("nodes.allocated")
        .iter()
        .map(|&(_, v)| v as usize)
        .max()
        .unwrap_or(0);
    assert!(peak_alloc <= 6, "allocated {peak_alloc} of 6 nodes");
    // Requests kept flowing even when the pool saturated.
    assert!(out.app.stats.total_completed() > 10_000);
    // After the ramp, the spare nodes are back in the pool.
    assert_eq!(out.app.allocated_nodes(), 4);
}

#[test]
fn runs_are_deterministic_for_a_seed() {
    let mk = || {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = fast_ramp();
        cfg.seed = 99;
        run_experiment(cfg, SimDuration::from_secs(600))
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.events, b.events, "event counts must match");
    assert_eq!(a.app.stats.total_completed(), b.app.stats.total_completed());
    assert_eq!(a.app.reconfig_log, b.app.reconfig_log);
    assert_eq!(
        a.series("replicas.db"),
        b.series("replicas.db"),
        "replica trajectories must match exactly"
    );
}

#[test]
fn different_seeds_agree_on_the_shape() {
    // The qualitative behaviour is robust to the stochastic workload.
    let mut peaks = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = fast_ramp();
        cfg.seed = seed;
        let out = run_experiment(cfg, SimDuration::from_secs(1000));
        peaks.push((
            out.max_replicas(ManagedTier::Database),
            out.max_replicas(ManagedTier::Application),
        ));
    }
    for &(db, app) in &peaks {
        assert!((2..=4).contains(&db), "db peak {db}");
        assert!((2..=3).contains(&app), "app peak {app}");
    }
}

#[test]
fn architecture_introspection_reflects_reconfigurations() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(260); // hold above the db threshold
    let out = run_experiment(cfg, SimDuration::from_secs(420));
    let tree = out.app.jade.render_architecture();
    assert!(tree.contains("MySQL2"), "new replica must appear:\n{tree}");
    assert!(tree.contains("backends -> MySQL2"), "and be bound:\n{tree}");
    // The C-JDBC descriptor on the balancer node lists both backends.
    let cj_node = jade_cluster::NodeId(0);
    let xml = out
        .app
        .legacy
        .configs
        .read(cj_node, "conf/cjdbc.xml")
        .expect("descriptor");
    assert!(xml.matches("DatabaseBackend").count() >= 2, "{xml}");
}

#[test]
fn database_replicas_stay_consistent_through_scaling() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = fast_ramp();
    let out = run_experiment(cfg, SimDuration::from_secs(700));
    // Mid-run state (after scale-ups): all *active* backends identical.
    let digests: Vec<u64> = out
        .app
        .legacy
        .running_servers_of(jade_tiers::Tier::Database)
        .into_iter()
        .map(|s| out.app.legacy.mysql(s).expect("mysql").digest())
        .collect();
    assert!(!digests.is_empty());
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged"
    );
}
