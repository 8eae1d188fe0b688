//! Self-recovery integration tests: node crashes, repair, and data
//! consistency after recovery-log resynchronization.

use jade::config::SystemConfig;
use jade::experiment::{bootstrapped, run_experiment_with};
use jade::system::{J2eeApp, ManagedTier, Msg};
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, App, Ctx, Engine, SimDuration, SimTime};
use jade_tiers::cjdbc::{BackendStatus, CjdbcController};
use jade_tiers::{ServerId, Tier};

fn recovery_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(150);
    cfg.jade.self_repair = true;
    cfg.description.application.replicas = 2;
    cfg.description.database.replicas = 2;
    cfg.jade.app_loop.min_replicas = 2;
    cfg.jade.db_loop.min_replicas = 2;
    cfg
}

// Deterministic initial node layout: node 0=C-JDBC, 1=PLB, 2..=3 Tomcats,
// 4..=5 MySQLs.
const TOMCAT2_NODE: NodeId = NodeId(3);
const MYSQL2_NODE: NodeId = NodeId(5);

#[test]
fn tomcat_node_crash_is_repaired() {
    let out = run_experiment_with(recovery_cfg(), SimDuration::from_secs(500), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::CrashNode(TOMCAT2_NODE),
        );
    });
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("self-recovery"), "no repair logged: {log}");
    assert!(log.contains("Tomcat3"), "no replacement deployed: {log}");
    // The crashed node is not in use; a fresh one replaced it.
    assert!(!out.app.legacy.cluster.is_allocated(TOMCAT2_NODE));
}

#[test]
fn database_node_crash_resyncs_replacement() {
    let out = run_experiment_with(recovery_cfg(), SimDuration::from_secs(500), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::CrashNode(MYSQL2_NODE),
        );
    });
    assert_eq!(out.app.running_replicas(ManagedTier::Database), 2);
    let log = format!("{:?}", out.app.reconfig_log);
    assert!(log.contains("synchronized and activated"), "{log}");
    // Replacement converged with the survivor despite writes continuing
    // throughout the outage.
    let digests: Vec<u64> = out
        .app
        .legacy
        .running_servers_of(Tier::Database)
        .into_iter()
        .map(|s| out.app.legacy.mysql(s).expect("mysql").digest())
        .collect();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0], digests[1], "replicas must converge");
}

#[test]
fn service_survives_simultaneous_tier_failures() {
    let out = run_experiment_with(recovery_cfg(), SimDuration::from_secs(600), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::CrashNode(TOMCAT2_NODE),
        );
        eng.schedule(
            SimTime::from_secs(121),
            Addr::ROOT,
            Msg::CrashNode(MYSQL2_NODE),
        );
    });
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
    assert_eq!(out.app.running_replicas(ManagedTier::Database), 2);
    // Both repairs happened; clients kept being served (the failure
    // blip is a tiny fraction of the run).
    let total = out.app.stats.total_completed() + out.app.stats.total_failed();
    assert!(out.app.stats.total_completed() as f64 > 0.99 * total as f64);
    assert!(out.app.stats.total_completed() > 8_000);
}

#[test]
fn node_failure_detection_waits_for_the_heartbeat_timeout() {
    let mut cfg = recovery_cfg();
    cfg.jade.failure_timeout = SimDuration::from_secs(5);
    let crash_at = 120.0;
    let out = run_experiment_with(cfg, SimDuration::from_secs(400), |eng| {
        eng.schedule(
            SimTime::from_secs(crash_at as u64),
            Addr::ROOT,
            Msg::CrashNode(TOMCAT2_NODE),
        );
    });
    let repair_t = out
        .app
        .reconfig_log
        .iter()
        .find(|(_, l)| l.contains("self-recovery"))
        .map(|(t, _)| t.as_secs_f64())
        .expect("repair happened");
    // The dead node is only *suspected* once its heartbeat has been
    // missing for the timeout. The last heartbeat arrived up to one probe
    // period before the crash, so the earliest legal repair is
    // crash + timeout - probe_period.
    assert!(
        repair_t >= crash_at + 5.0 - 1.0,
        "repaired too early: {repair_t} (crash {crash_at}, 5s timeout)"
    );
    assert!(repair_t <= crash_at + 8.0, "detection too slow: {repair_t}");
}

#[test]
fn process_failure_on_live_node_is_detected_fast() {
    // A process crash with the node still up: the local daemon reports it
    // within ~1 probe period — no heartbeat wait, even with a huge
    // node-failure timeout configured.
    let mut cfg = recovery_cfg();
    cfg.jade.failure_timeout = SimDuration::from_secs(60);
    let out = run_experiment_with(cfg, SimDuration::from_secs(300), |eng| {
        // Tomcat2's process (deployment order: 0=C-JDBC, 1=PLB,
        // 2,3=Tomcats, 4,5=MySQLs).
        eng.schedule(
            SimTime::from_secs(100),
            Addr::ROOT,
            Msg::FailServer(jade_tiers::ServerId(3)),
        );
    });
    let repair_t = out
        .app
        .reconfig_log
        .iter()
        .find(|(_, l)| l.contains("self-recovery"))
        .map(|(t, _)| t.as_secs_f64())
        .expect("repair happened");
    assert!(
        (100.0..=103.0).contains(&repair_t),
        "process failure must be detected within ~a probe period, was {repair_t}"
    );
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
    // The repair re-allocates the failed process's node, which is still
    // up. Released nodes keep no software, so the replacement waits for
    // its installs (Tomcat 15 s + daemon 4 s) before it boots.
    let log = &out.app.reconfig_log;
    let deployed = log
        .iter()
        .find(|(_, l)| l.starts_with("scale-up Application: deploying"))
        .map(|(t, _)| t.as_secs_f64())
        .expect("the repair redeploys");
    let joined = log
        .iter()
        .find(|(t, l)| t.as_secs_f64() >= deployed && l.ends_with("joined the application tier"))
        .map(|(t, _)| t.as_secs_f64())
        .expect("the replacement joins");
    assert!(
        joined - deployed >= 19.0,
        "deployed at {deployed}, joined at {joined}: {log:?}"
    );
}

#[test]
fn without_self_repair_failures_persist() {
    let mut cfg = recovery_cfg();
    cfg.jade.self_repair = false;
    let out = run_experiment_with(cfg, SimDuration::from_secs(400), |eng| {
        eng.schedule(
            SimTime::from_secs(120),
            Addr::ROOT,
            Msg::CrashNode(TOMCAT2_NODE),
        );
    });
    // No repair manager: the tier stays degraded (but the surviving
    // replica still serves — the PLB routes around the corpse).
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 1);
    assert!(out.app.stats.total_completed() > 5_000);
}

/// The managed system behind a tap that logs every delivered
/// `CpuComplete`, the one message the kernel's keyed timers carry.
struct CpuTap {
    app: J2eeApp,
    completions: Vec<(SimTime, NodeId)>,
}

impl App for CpuTap {
    type Msg = Msg;
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, dst: Addr, msg: Msg) {
        if let Msg::CpuComplete(node) = msg {
            self.completions.push((ctx.now(), node));
        }
        self.app.handle(ctx, dst, msg);
    }
}

/// A node crashes while its CPU completion timer is armed: the timer is
/// disarmed with the node (no `CpuComplete` for it is ever delivered
/// again), and the replacement node the repair allocates arms its own.
#[test]
fn crashed_node_cpu_timer_is_disarmed_and_the_replacement_arms() {
    let cfg = recovery_cfg();
    let seed = cfg.seed;
    let tap = CpuTap {
        app: J2eeApp::new(cfg),
        completions: Vec::new(),
    };
    let mut eng = Engine::new(tap, seed);
    eng.schedule(SimTime::ZERO, Addr::ROOT, Msg::Bootstrap);
    eng.run_until(SimTime::from_secs(120));
    // Step to an instant where the victim has a job resident, i.e. its
    // completion timer is armed and pending.
    let resident = |eng: &Engine<CpuTap>| {
        let node = eng.app().app.legacy.cluster.node(MYSQL2_NODE);
        node.expect("victim is in the pool").cpu.load()
    };
    while resident(&eng) == 0 {
        assert!(eng.step(), "the run drained before the victim got work");
    }
    let crash_at = eng.now();
    let before: Vec<NodeId> = eng.app().app.legacy.cluster.allocated();
    eng.schedule(crash_at, Addr::ROOT, Msg::CrashNode(MYSQL2_NODE));
    eng.run_until(SimTime::from_secs(500));

    let tap = eng.app();
    let late: Vec<_> = tap
        .completions
        .iter()
        .filter(|&&(t, n)| n == MYSQL2_NODE && t >= crash_at)
        .collect();
    assert!(late.is_empty(), "CpuComplete after the crash: {late:?}");
    assert!(
        tap.completions
            .iter()
            .any(|&(t, n)| n == MYSQL2_NODE && t < crash_at),
        "the victim never completed a job before the crash"
    );
    // The repair put the replica on a node that was free before the
    // crash, and that node's timer fires.
    assert_eq!(tap.app.running_replicas(ManagedTier::Database), 2);
    let mut replacement = tap.app.legacy.cluster.allocated();
    replacement.retain(|n| !before.contains(n));
    assert_eq!(replacement.len(), 1, "one fresh node: {replacement:?}");
    assert!(
        tap.completions
            .iter()
            .any(|&(t, n)| n == replacement[0] && t > crash_at),
        "the replacement node never completed a job"
    );
}

fn controller(eng: &Engine<J2eeApp>) -> &CjdbcController {
    let (cj, _) = eng.app().jade.cjdbc().expect("C-JDBC is deployed");
    eng.app().legacy.cjdbc(cj).expect("controller")
}

/// The recovery log keeps one checkpoint and the writes past it. A
/// replica that joins after the log was truncated — here the replacement
/// of one crashed at 500 s, when position 0 is long gone — is synced from
/// {checkpoint, retained tail} and converges with the survivors, while
/// the log never holds more than one checkpoint interval of entries.
#[test]
fn replica_joining_after_truncation_syncs_from_the_checkpoint() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(450);
    cfg.jade.self_repair = true;
    let mut eng = bootstrapped(cfg);
    // The load scales the database tier to four replicas by 157 s, all
    // joined through the still-complete log; MySQL2 runs on NodeId(4).
    let crash_at = SimTime::from_secs(500);
    eng.schedule(crash_at, Addr::ROOT, Msg::CrashNode(NodeId(4)));
    eng.run_until(SimTime::from_secs(499));
    let interval = controller(&eng).recovery_log().snapshot_interval();
    let veterans = controller(&eng).backends();
    assert_eq!(controller(&eng).active_count(), 4);
    assert!(
        controller(&eng).recovery_log().first_retained() >= interval,
        "the crash must come after the first checkpoint"
    );

    // Step to the event in which the replacement begins its sync.
    let joiner = loop {
        assert!(eng.step(), "the run drained before the repair synced");
        let ctrl = controller(&eng);
        assert!(ctrl.recovery_log().retained_len() as u64 <= interval);
        let syncing = |b: &ServerId| ctrl.status(*b) == Ok(BackendStatus::Syncing);
        if let Some(b) = ctrl.backends().into_iter().find(syncing) {
            break b;
        }
    };
    // A fresh replica registers at log position 0, which the log no
    // longer holds: its plan can only have been {checkpoint, tail}.
    assert!(!veterans.contains(&joiner), "{joiner:?} is not fresh");
    let log = controller(&eng).recovery_log();
    assert!(
        log.first_retained() >= 2 * interval,
        "two checkpoints so far"
    );
    assert!(log.entries_from(0).is_none());

    for t in (510..=900).step_by(10) {
        eng.run_until(SimTime::from_secs(t));
        assert!(controller(&eng).recovery_log().retained_len() as u64 <= interval);
    }
    let ctrl = controller(&eng);
    assert!(ctrl.recovery_log().head() >= 4 * interval);
    assert_eq!(ctrl.status(joiner), Ok(BackendStatus::Active));
    let app = eng.app();
    assert_eq!(app.running_replicas(ManagedTier::Database), 4);
    let replicas = app.legacy.running_servers_of(Tier::Database);
    let digests: Vec<u64> = replicas
        .iter()
        .map(|&s| app.legacy.mysql(s).expect("mysql").digest())
        .collect();
    assert_eq!(digests.len(), 4);
    assert!(digests.iter().all(|d| *d == digests[0]), "{digests:?}");
}
