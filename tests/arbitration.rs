//! Integration of the policy-arbitration manager (paper §7) with the full
//! system: conflicting managers are serialized and repairs outrank
//! optimization.

use jade::config::SystemConfig;
use jade::experiment::{bootstrapped, run_experiment, run_experiment_with};
use jade::system::{ManagedTier, Msg};
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, SimDuration, SimTime};

fn arb_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.jade.arbitration = true;
    cfg
}

#[test]
fn arbitrated_system_still_scales() {
    let mut cfg = arb_cfg();
    cfg.ramp = WorkloadRamp::constant(260);
    let out = run_experiment(cfg, SimDuration::from_secs(420));
    assert!(
        out.app.running_replicas(ManagedTier::Database) >= 2,
        "arbitrated scale-up must still happen: {:?}",
        out.app.reconfig_log
    );
    let arb = out.app.jade.arbitrator().expect("arbitrator enabled");
    let (submitted, _, executed) = arb.counters();
    assert!(submitted >= executed);
    assert!(executed >= 1);
    assert!(
        !out.app.jade.reconfiguring(),
        "slot released after completion"
    );
}

/// At 450 clients both tiers keep asking to resize, yet at no instant do
/// both have a reconfiguration in flight.
#[test]
fn arbitration_runs_one_reconfiguration_at_a_time() {
    let mut cfg = arb_cfg();
    cfg.ramp = WorkloadRamp::constant(450);
    let mut eng = bootstrapped(cfg);
    let mut tiers_seen = Vec::new();
    for t in 1..=600 {
        eng.run_until(SimTime::from_secs(t));
        let app = eng.app();
        let busy: Vec<ManagedTier> = [ManagedTier::Application, ManagedTier::Database]
            .into_iter()
            .filter(|&tier| app.jade.in_flight(tier).is_some())
            .collect();
        assert!(busy.len() <= 1, "two reconfigurations at {t} s: {busy:?}");
        assert_eq!(app.jade.reconfiguring(), !busy.is_empty());
        tiers_seen.extend(busy);
    }
    for tier in [ManagedTier::Application, ManagedTier::Database] {
        assert!(tiers_seen.contains(&tier), "{tier:?} never reconfigured");
    }
}

#[test]
fn repair_outranks_optimization_under_load() {
    let mut cfg = arb_cfg();
    cfg.ramp = WorkloadRamp::constant(200);
    cfg.jade.self_repair = true;
    cfg.description.application.replicas = 2;
    cfg.jade.app_loop.min_replicas = 2;
    // Crash Tomcat2's node (layout: 0=C-JDBC, 1=PLB, 2,3=Tomcats, 4=MySQL)
    // right as the database load builds toward a scale-up.
    let out = run_experiment_with(cfg, SimDuration::from_secs(500), |eng| {
        eng.schedule(
            SimTime::from_secs(100),
            Addr::ROOT,
            Msg::CrashNode(NodeId(3)),
        );
    });
    // Both things eventually happened, through one serialized channel.
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("self-recovery"), "{log}");
    let arb = out.app.jade.arbitrator().expect("arbitrator");
    let (submitted, dropped, executed) = arb.counters();
    assert!(executed >= 1);
    // The repeated detector re-submissions collapsed as duplicates.
    assert!(dropped > 0 || submitted == executed);
}

#[test]
fn arbitrated_repair_is_not_held_by_the_inhibition_window() {
    let mut cfg = arb_cfg();
    cfg.ramp = WorkloadRamp::constant(450);
    cfg.jade.self_repair = true;
    let crash_at = 45.0;
    let bound = crash_at + (cfg.jade.failure_timeout + cfg.jade.probe_period).as_secs_f64();
    // MySQL1's node crashes inside the window the 2 s scale-up opened.
    let out = run_experiment_with(cfg, SimDuration::from_secs(80), |eng| {
        eng.schedule(
            SimTime::from_secs(crash_at as u64),
            Addr::ROOT,
            Msg::CrashNode(NodeId(3)),
        );
    });
    let log = &out.app.reconfig_log;
    let repair_t = log
        .iter()
        .find(|(_, l)| l.starts_with("self-recovery: repairing MySQL1"))
        .map(|(t, _)| t.as_secs_f64());
    assert!(
        repair_t.is_some_and(|t| t <= bound),
        "repair at {repair_t:?}, bound {bound}: {log:?}"
    );
}

#[test]
fn oscillating_band_is_damped_by_serialization() {
    // Same mis-calibrated band as the ablation: the managers keep
    // submitting, and the queue coalesces what they submit (duplicates
    // collapse, opposing requests cancel). This only asserts that some
    // requests were coalesced, not that churn goes down.
    let mut with_arb = arb_cfg();
    with_arb.ramp = WorkloadRamp::constant(240);
    with_arb.jade.db_loop.min_threshold = 0.50;
    with_arb.jade.db_loop.max_threshold = 0.65;
    let out = run_experiment(with_arb, SimDuration::from_secs(600));
    let arb = out.app.jade.arbitrator().expect("arbitrator");
    let (submitted, dropped, executed) = arb.counters();
    assert!(
        dropped > 0,
        "conflicting requests must have been coalesced (submitted={submitted}, executed={executed})"
    );
}

/// A resize queued behind another one is re-checked before it runs: the
/// tier's manager, asked again with its latest smoothed load and the
/// current replica count, must still decide it. At a constant 450
/// clients the arbitrated run then settles instead of resizing forever.
#[test]
fn arbitrated_constant_load_settles() {
    let mut cfg = arb_cfg();
    cfg.ramp = WorkloadRamp::constant(450);
    let out = run_experiment(cfg, SimDuration::from_secs(900));
    let late: Vec<&(SimTime, String)> = out
        .app
        .reconfig_log
        .iter()
        .filter(|(t, l)| {
            *t >= SimTime::from_secs(600)
                && (l.starts_with("scale-up") || l.starts_with("scale-down"))
        })
        .collect();
    assert!(late.is_empty(), "resizes in [600, 900] s: {late:?}");
    assert!(out.metrics.counter("arbitration.stale") > 0);
}
