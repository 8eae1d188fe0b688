//! Self-recovery of the load balancers — the architecture's single points
//! of failure. Reference \[4\]'s repair manager covers *any* managed
//! element; these tests crash the PLB and C-JDBC nodes and verify the
//! service is rebuilt and consistent.

use jade::config::SystemConfig;
use jade::experiment::run_experiment_with;
use jade::system::{ManagedTier, Msg};
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, SimDuration, SimTime};
use jade_tiers::{ServerState, Tier};

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(120);
    cfg.jade.self_repair = true;
    cfg.description.database.replicas = 2;
    cfg.jade.db_loop.min_replicas = 2;
    cfg
}

// Deployment order: node 0 = C-JDBC, node 1 = PLB, node 2 = Tomcat1,
// nodes 3,4 = MySQL1/2.
const CJDBC_NODE: NodeId = NodeId(0);
const PLB_NODE: NodeId = NodeId(1);

#[test]
fn plb_crash_is_repaired_and_traffic_resumes() {
    let out = run_experiment_with(cfg(), SimDuration::from_secs(500), |eng| {
        eng.schedule(
            SimTime::from_secs(150),
            Addr::ROOT,
            Msg::CrashNode(PLB_NODE),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("repairing balancer PLB"), "{log}");
    assert!(log.contains("PLB redeployed"), "{log}");
    // The new PLB is running on a different node with the worker rebound.
    let (plb_server, plb_comp) = out.app.jade.plb().expect("plb exists");
    let plb = out.app.legacy.server(plb_server).unwrap();
    assert_eq!(plb.process().state, ServerState::Running);
    assert_ne!(plb.process().node, PLB_NODE);
    assert!(!out
        .app
        .jade
        .registry()
        .bindings_of(plb_comp, "workers")
        .is_empty());
    // Traffic resumed after the outage: completions in the last 100 s.
    let late: u64 = out
        .app
        .stats
        .windows()
        .iter()
        .rev()
        .take(10)
        .map(|w| w.completed)
        .sum();
    assert!(late > 50, "no traffic after PLB repair: {late}");
    // Requests in flight during the outage failed (and only those).
    assert!(out.app.stats.total_failed() > 0);
}

#[test]
fn cjdbc_crash_is_repaired_with_consistent_backends() {
    let out = run_experiment_with(cfg(), SimDuration::from_secs(500), |eng| {
        eng.schedule(
            SimTime::from_secs(150),
            Addr::ROOT,
            Msg::CrashNode(CJDBC_NODE),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("repairing balancer C-JDBC"), "{log}");
    let (cj_server, cj_comp) = out.app.jade.cjdbc().expect("cjdbc exists");
    let cj = out.app.legacy.server(cj_server).unwrap();
    assert_eq!(cj.process().state, ServerState::Running);
    assert_ne!(cj.process().node, CJDBC_NODE);
    // Both surviving replicas re-registered and active again.
    assert_eq!(
        out.app
            .jade
            .registry()
            .bindings_of(cj_comp, "backends")
            .len(),
        2,
        "backends rebound"
    );
    assert_eq!(
        out.app.legacy.cjdbc(cj_server).unwrap().active_count(),
        2,
        "backends active after re-registration"
    );
    // Replicas stayed mutually consistent through the controller loss and
    // the writes that followed.
    let digests: Vec<u64> = out
        .app
        .legacy
        .running_servers_of(Tier::Database)
        .into_iter()
        .map(|s| out.app.legacy.mysql(s).unwrap().digest())
        .collect();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0], digests[1]);
    // Writes flowed after the repair (the fresh recovery log grew).
    assert!(
        out.app
            .legacy
            .cjdbc(cj_server)
            .unwrap()
            .recovery_log()
            .head()
            > 0,
        "no writes after C-JDBC repair"
    );
    assert_eq!(out.app.running_replicas(ManagedTier::Database), 2);
}

/// Regression (found by the chaos property test): the C-JDBC controller
/// crashes while a new backend is mid-synchronization. The stale backend
/// must be restored from a dump of the Active survivor — and the old
/// controller's in-flight replay batch must be dropped, not applied on
/// top of the restored state. A replica deployed later must also start
/// from the *re-snapshotted* base image, since the fresh recovery log
/// cannot bridge from the original dataset dump.
#[test]
fn controller_crash_during_backend_sync_stays_consistent() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.seed = 0;
    cfg.ramp = WorkloadRamp::constant(154);
    cfg.jade.self_repair = true;
    let out = run_experiment_with(cfg, SimDuration::from_secs(240), |eng| {
        // t=33: C-JDBC's node dies while MySQL2 (deployed at t≈1) is
        // still replaying the recovery log. t=61: the Active replica's
        // node dies too, forcing a redeploy from the new base image.
        eng.schedule(
            SimTime::from_secs(33),
            Addr::ROOT,
            Msg::CrashNode(NodeId(0)),
        );
        eng.schedule(
            SimTime::from_secs(61),
            Addr::ROOT,
            Msg::CrashNode(NodeId(3)),
        );
    });
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("repairing balancer C-JDBC"), "{log}");
    assert!(log.contains("restored stale backend"), "{log}");
    let replicas: Vec<_> = out.app.legacy.running_servers_of(Tier::Database);
    assert_eq!(replicas.len(), 2, "{log}");
    let digests: Vec<u64> = replicas
        .into_iter()
        .map(|s| out.app.legacy.mysql(s).unwrap().digest())
        .collect();
    assert_eq!(digests[0], digests[1], "replicas must converge; log: {log}");
}
