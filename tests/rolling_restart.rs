//! Rolling-restart administration tests: bounce every replica of a tier
//! without interrupting the service.

use jade::config::SystemConfig;
use jade::experiment::{bootstrapped, run_experiment_with};
use jade::system::{ManagedTier, Msg};
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, SimDuration, SimTime};
use jade_tiers::Tier;

fn cfg(app: usize, db: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(120);
    cfg.description.application.replicas = app;
    cfg.description.database.replicas = db;
    cfg.jade.app_loop.min_replicas = app;
    cfg.jade.db_loop.min_replicas = db;
    cfg
}

#[test]
fn application_tier_rolls_without_downtime() {
    let out = run_experiment_with(cfg(2, 1), SimDuration::from_secs(400), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Application),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(
        log.contains("rolling restart of Application: 2 replicas"),
        "{log}"
    );
    assert!(log.contains("complete: 2 replicas bounced"), "{log}");
    // Both Tomcats went through Stopped→Started: the journal records two
    // extra stop/start pairs beyond bootstrap.
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
    // No downtime: requests kept completing through the whole operation
    // (the other replica absorbs the traffic); failures are bounded to
    // the requests in flight on a draining replica.
    assert!(out.app.stats.total_completed() > 4_000);
    let total = out.app.stats.total_completed() + out.app.stats.total_failed();
    assert!(out.app.stats.total_completed() as f64 > 0.995 * total as f64);
    // Both replicas are wired back into the PLB.
    let (_, plb_comp) = out.app.jade.plb().unwrap();
    assert_eq!(
        out.app
            .jade
            .registry()
            .bindings_of(plb_comp, "workers")
            .len(),
        2
    );
}

#[test]
fn database_tier_roll_resynchronizes_each_backend() {
    let out = run_experiment_with(cfg(1, 2), SimDuration::from_secs(400), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Database),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(
        log.contains("rolling restart of Database: 2 replicas"),
        "{log}"
    );
    assert!(log.contains("complete: 2 replicas bounced"), "{log}");
    // Each bounced backend re-entered through recovery-log replay and the
    // replicas converged (writes continued on the live one meanwhile).
    let digests: Vec<u64> = out
        .app
        .legacy
        .running_servers_of(Tier::Database)
        .into_iter()
        .map(|s| out.app.legacy.mysql(s).unwrap().digest())
        .collect();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0], digests[1]);
    let (cj_server, _) = out.app.jade.cjdbc().unwrap();
    assert_eq!(out.app.legacy.cjdbc(cj_server).unwrap().active_count(), 2);
}

#[test]
fn single_replica_tier_refuses_to_roll() {
    let out = run_experiment_with(cfg(1, 1), SimDuration::from_secs(200), |eng| {
        eng.schedule(
            SimTime::from_secs(60),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Application),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("refused: needs >= 2 replicas"), "{log}");
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 1);
}

#[test]
fn concurrent_rolling_restarts_are_refused() {
    let out = run_experiment_with(cfg(2, 2), SimDuration::from_secs(400), |eng| {
        eng.schedule(
            SimTime::from_secs(100),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Application),
        );
        eng.schedule(
            SimTime::from_secs(101),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Database),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("refused: one is already running"), "{log}");
    // The first operation still completed.
    assert!(log.contains("rolling restart of Application"), "{log}");
    assert!(log.contains("complete: 2 replicas bounced"), "{log}");
}

/// The node of the replica being drained crashes mid-step (layout:
/// 0=C-JDBC, 1=PLB, 2,3=Tomcats, 4=MySQL). The step aborts, which frees
/// the tier: the repair redeploys at once, and a later rolling restart is
/// not refused as "already running" but bounces both replicas.
#[test]
fn crash_of_the_bounced_replica_does_not_wedge_later_restarts() {
    let mut cfg = cfg(2, 1);
    cfg.jade.self_repair = true;
    let roll = || Msg::RollingRestart(ManagedTier::Application);
    let out = run_experiment_with(cfg, SimDuration::from_secs(400), |eng| {
        eng.schedule(SimTime::from_secs(120), Addr::ROOT, roll());
        eng.schedule(
            SimTime::from_micros(120_500_000),
            Addr::ROOT,
            Msg::CrashNode(NodeId(2)),
        );
        eng.schedule(SimTime::from_secs(300), Addr::ROOT, roll());
    });
    let log = &out.app.reconfig_log;
    assert!(
        log.iter().any(|(t, l)| *t > SimTime::from_secs(300)
            && l == "rolling restart of Application complete: 2 replicas bounced"),
        "{log:?}"
    );
    assert!(
        log.iter().any(|(t, l)| *t > SimTime::from_secs(120)
            && *t < SimTime::from_secs(150)
            && l.starts_with("scale-up Application: deploying")),
        "the repair must redeploy: {log:?}"
    );
    assert_eq!(out.metrics.counter("reconfig.aborted"), 1, "{log:?}");
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
}

/// A Tomcat lost while a rolling step holds the tier (layout: 0=C-JDBC,
/// 1=PLB, then the Tomcats from node 2) is redeployed once that step
/// ends. With two replicas the lost one is the replica not being
/// bounced; with three it is the bounced one, whose abort lets the next
/// step start before the repair. The bounds pin the replica count, so
/// only the repair can restore it.
#[test]
fn replica_lost_during_a_rolling_step_is_redeployed() {
    for (replicas, crashed, bounced) in [(2, NodeId(3), 1), (3, NodeId(2), 2)] {
        let mut cfg = cfg(replicas, 1);
        cfg.jade.self_repair = true;
        cfg.jade.app_loop.max_replicas = replicas;
        let out = run_experiment_with(cfg, SimDuration::from_secs(400), |eng| {
            eng.schedule(
                SimTime::from_secs(120),
                Addr::ROOT,
                Msg::RollingRestart(ManagedTier::Application),
            );
            eng.schedule(SimTime::from_secs(121), Addr::ROOT, Msg::CrashNode(crashed));
        });
        let log = format!("{:?}", out.app.reconfig_log);
        let done = format!("complete: {bounced} replicas bounced");
        assert!(log.contains(&done), "{replicas} replicas: {log}");
        assert_eq!(
            out.app.running_replicas(ManagedTier::Application),
            replicas,
            "{log}"
        );
    }
}

/// Under arbitration a repair queued during a rolling step runs when that
/// step ends, before the next one: a MySQL node (layout: 0=C-JDBC, 1=PLB,
/// 2,3=Tomcats, 4,5=MySQL) crashes while the first Tomcat drains, and
/// its repair starts before the second Tomcat is taken out of rotation.
/// The drain is off the probe period's grid, so no probe tick coincides
/// with the end of the step.
#[test]
fn arbitrated_repair_runs_between_rolling_steps() {
    let mut cfg = cfg(2, 2);
    cfg.drain_grace = SimDuration::from_millis(5_500);
    cfg.jade.self_repair = true;
    cfg.jade.arbitration = true;
    cfg.jade.app_loop.max_replicas = 2;
    cfg.jade.db_loop.max_replicas = 2;
    let out = run_experiment_with(cfg, SimDuration::from_secs(400), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Application),
        );
        eng.schedule(
            SimTime::from_secs(121),
            Addr::ROOT,
            Msg::CrashNode(NodeId(5)),
        );
    });
    let log = &out.app.reconfig_log;
    let lines = |prefix: &str| {
        (0..log.len())
            .filter(|&i| log[i].1.starts_with(prefix))
            .collect::<Vec<_>>()
    };
    let repairs = lines("self-recovery: repairing");
    let drains = lines("rolling restart: draining");
    assert_eq!((repairs.len(), drains.len()), (1, 2), "{log:?}");
    assert!(repairs[0] < drains[1], "{log:?}");
    assert!(
        log.iter()
            .any(|(_, l)| l == "rolling restart of Application complete: 2 replicas bounced"),
        "{log:?}"
    );
    assert_eq!(
        out.app.running_replicas(ManagedTier::Database),
        2,
        "{log:?}"
    );
}

/// 60 clients retire the second Tomcat at 1 s. A rolling restart issued
/// around that scale-down waits for it instead of draining the last
/// replica too: no request fails, and the PLB always has a worker.
#[test]
fn rolling_restart_racing_a_scale_down_keeps_a_replica_in_rotation() {
    for restart_s in [1, 2, 3, 5] {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = WorkloadRamp::constant(60);
        cfg.description.application.replicas = 2;
        let mut eng = bootstrapped(cfg);
        eng.schedule(
            SimTime::from_secs(restart_s),
            Addr::ROOT,
            Msg::RollingRestart(ManagedTier::Application),
        );
        for t in 1..=200 {
            eng.run_until(SimTime::from_secs(t));
            let app = eng.app();
            let (_, plb_comp) = app.jade.plb().expect("PLB deployed");
            assert!(
                !app.jade
                    .registry()
                    .bindings_of(plb_comp, "workers")
                    .is_empty(),
                "restart at {restart_s} s: no replica in rotation at {t} s: {:?}",
                app.reconfig_log
            );
        }
        let app = eng.app();
        assert_eq!(
            app.stats.total_failed(),
            0,
            "restart at {restart_s} s: {:?}",
            app.reconfig_log
        );
    }
}
