//! Faults in the middle of a reconfiguration (ROADMAP item 1): a replica
//! whose node crashes while it installs, boots, replays the recovery log
//! or drains must not wedge its tier — nor, under arbitration, the whole
//! management plane. Every operation leaves the reconfiguration table,
//! aborted or done, and the repair brings the tier back. The same holds
//! for the steps of a rolling restart.
//!
//! A crash is injected into a fork of the fault-free run (a clone of its
//! engine at the crash instant), so a recipe runs its prefix once and the
//! prefix, run on, is the fault-free reference. Under the fork rule
//! (DESIGN.md §5.2) the crash follows every event of its instant.

use jade::config::SystemConfig;
use jade::experiment::{bootstrapped, ExperimentOutput};
use jade::system::{J2eeApp, ManagedTier, Msg, ReconfigPhase};
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, Engine, SimDuration, SimTime};

/// The slowest deployment: MySQL install 20 s + daemon 4 s + dump restore
/// 5 s + boot 5 s, plus the recovery-log replay.
const DEPLOYMENT_S: f64 = 45.0;

/// How long after its crash a sweep run continues.
const AFTER_CRASH_S: f64 = 150.0;

/// Horizon of the joiner-crash recipes (ROADMAP item 1's runs).
const RECIPE_HORIZON_S: f64 = 900.0;

/// `paper_managed()` at a constant 450 clients with self-repair: the
/// database tier scales up at once (MySQL2 on node 5 from 1 s, booting at
/// 30 s, syncing at 35 s), the application tier at 181 s (Tomcat2 on
/// node 8, booting at 200 s, joining at 206 s).
fn faults_cfg(arbitration: bool) -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(450);
    cfg.jade.self_repair = true;
    cfg.jade.arbitration = arbitration;
    cfg
}

fn secs(t: f64) -> SimTime {
    SimTime::from_micros((t * 1e6) as u64)
}

/// A fork of `prefix` whose `node` crashes at the prefix's instant.
fn fork_crash(prefix: &Engine<J2eeApp>, node: NodeId) -> Engine<J2eeApp> {
    let mut fork = prefix.clone();
    fork.schedule(prefix.now(), Addr::ROOT, Msg::CrashNode(node));
    fork
}

/// Runs `eng` on to `horizon_s` and takes its output.
fn output_at(mut eng: Engine<J2eeApp>, horizon_s: f64) -> ExperimentOutput {
    eng.run_until(secs(horizon_s));
    ExperimentOutput::from_engine(eng)
}

/// Replica count of `tier` at `t` (the last probe at or before it).
fn replicas_at(out: &ExperimentOutput, tier: ManagedTier, t: f64) -> f64 {
    out.series(tier.replicas_series())
        .into_iter()
        .take_while(|&(at, _)| at <= t)
        .last()
        .map_or(0.0, |(_, v)| v)
}

/// First time at or after the crash when `tier` runs one replica more
/// than it did at the crash — the replica the crash took away.
fn regained_at(out: &ExperimentOutput, tier: ManagedTier, crash_s: f64) -> Option<f64> {
    let target = replicas_at(out, tier, crash_s) + 1.0;
    out.series(tier.replicas_series())
        .into_iter()
        .find(|&(t, v)| t >= crash_s && v >= target)
        .map(|(t, _)| t)
}

/// A joiner's node crashes: the deployment aborts, the repair redeploys at
/// once, and the tier regains the replica within detection + one
/// deployment (tighter than the inhibition period + one deployment the
/// wedge-free bound asks for), completing ≥ 90 % of the fault-free work.
/// Each `(tier, crash_s, node)` recipe, in crash order, forks one prefix.
fn assert_joiner_crashes_recover(arbitration: bool, recipes: &[(ManagedTier, f64, u32)]) {
    let cfg = faults_cfg(arbitration);
    let detection = (cfg.jade.failure_timeout + cfg.jade.probe_period).as_secs_f64();
    let mut prefix = bootstrapped(cfg);
    let crashed: Vec<_> = recipes
        .iter()
        .map(|&(tier, crash_s, node)| {
            prefix.run_until(secs(crash_s));
            let out = output_at(fork_crash(&prefix, NodeId(node)), RECIPE_HORIZON_S);
            (tier, crash_s, out)
        })
        .collect();
    let fault_free = output_at(prefix, RECIPE_HORIZON_S);
    for (tier, crash_s, out) in crashed {
        let log = &out.app.reconfig_log;
        let regained = regained_at(&out, tier, crash_s);
        assert!(
            regained.is_some_and(|t| t <= crash_s + detection + DEPLOYMENT_S),
            "{tier:?} regained at {regained:?} after a crash at {crash_s}: {log:?}"
        );
        assert_eq!(
            out.metrics.counter("reconfig.aborted"),
            1,
            "{tier:?} crash at {crash_s}: {log:?}"
        );
        let (done, base) = (
            out.app.stats.total_completed(),
            fault_free.app.stats.total_completed(),
        );
        assert!(
            done as f64 >= 0.9 * base as f64,
            "{tier:?} crash at {crash_s}: {done} completed vs {base} fault-free: {log:?}"
        );
    }
}

#[test]
fn database_joiner_crash_is_repaired() {
    // MySQL2 boots from 30 s on node 5.
    assert_joiner_crashes_recover(false, &[(ManagedTier::Database, 33.0, 4)]);
}

#[test]
fn database_joiner_crash_is_repaired_under_arbitration() {
    // The aborted deployment frees the arbitration slot, so the repair
    // runs at all.
    assert_joiner_crashes_recover(true, &[(ManagedTier::Database, 32.5, 4)]);
}

#[test]
fn application_joiner_crash_is_repaired() {
    // Tomcat2 boots from 200 s on node 8.
    assert_joiner_crashes_recover(false, &[(ManagedTier::Application, 203.0, 7)]);
}

#[test]
fn crash_during_installation_is_redeployed_by_the_repair() {
    let cfg = faults_cfg(false);
    let detection = (cfg.jade.failure_timeout + cfg.jade.probe_period).as_secs_f64();
    let mut prefix = bootstrapped(cfg);
    for crash_s in [12.5, 20.5] {
        prefix.run_until(secs(crash_s));
        let out = output_at(fork_crash(&prefix, NodeId(4)), crash_s + AFTER_CRASH_S);
        let log = &out.app.reconfig_log;
        let repair = log
            .iter()
            .position(|(_, l)| l.starts_with("self-recovery: repairing MySQL2"))
            .unwrap_or_else(|| panic!("no repair: {log:?}"));
        // The repair's own redeploy, not the optimiser's next firing a
        // minute later.
        let (at, next) = &log[repair + 1];
        assert!(
            next.starts_with("scale-up Database: deploying") && *at == log[repair].0,
            "{log:?}"
        );
        let regained = regained_at(&out, ManagedTier::Database, crash_s);
        assert!(
            regained.is_some_and(|t| t <= crash_s + detection + DEPLOYMENT_S),
            "regained at {regained:?}: {log:?}"
        );
    }
}

#[test]
fn crash_while_a_scale_down_victim_drains_does_not_wedge_the_tier() {
    // 450 clients, 800 from 400 s. Tomcat3 (node 9) retires from 302 s
    // and its node crashes at 304 s, before the drain ends at 307 s. A
    // tenth node stands in for the crashed one.
    let mut cfg = faults_cfg(false);
    cfg.nodes = 10;
    cfg.ramp = WorkloadRamp {
        base_clients: 450,
        peak_clients: 800,
        step_clients: 350,
        step_interval: SimDuration::from_secs(1),
        warmup: SimDuration::from_secs(399),
        plateau: SimDuration::from_secs(100_000),
    };
    let mut prefix = bootstrapped(cfg);
    prefix.run_until(secs(304.0));
    let out = output_at(fork_crash(&prefix, NodeId(8)), 500.0);
    let log = &out.app.reconfig_log;
    assert!(
        log.iter()
            .any(|(t, l)| *t == secs(302.0) && l == "scale-down Application: retiring Tomcat3"),
        "the recipe must crash a draining victim: {log:?}"
    );
    assert!(out.app.jade.in_flight(ManagedTier::Application).is_none());
    assert_eq!(
        out.app.running_replicas(ManagedTier::Application),
        3,
        "the app tier must scale again after the 400 s step: {log:?}"
    );
    // Nothing redeployed the replica the optimiser was removing.
    assert_eq!(replicas_at(&out, ManagedTier::Application, 399.0), 2.0);
    assert_eq!(out.metrics.counter("reconfig.aborted"), 0);
}

/// Sweep scenarios: one operation on `tier`, whose outcome the bounds pin
/// so the final replica count does not depend on when it happened.
fn sweep_cfg(tier: ManagedTier, draining: bool, arbitration: bool) -> SystemConfig {
    let mut cfg = faults_cfg(arbitration);
    match (tier, draining) {
        (ManagedTier::Database, _) => {
            cfg.jade.db_loop.max_replicas = 2;
            cfg.jade.app_loop.max_replicas = 1;
        }
        (ManagedTier::Application, false) => {
            // Four backends from the start: the application tier is the
            // bottleneck and scales up at once.
            cfg.description.database.replicas = 4;
            cfg.jade.db_loop.min_replicas = 4;
            cfg.jade.app_loop.max_replicas = 2;
        }
        (ManagedTier::Application, true) => {
            // A light load retires the second Tomcat at once.
            cfg.ramp = WorkloadRamp::constant(60);
            cfg.description.application.replicas = 2;
        }
    }
    cfg
}

/// Steps a fault-free run and returns, per phase the first operation on
/// `tier` went through, the span it was seen in and its replica's node.
fn discover_phases(
    mut eng: Engine<J2eeApp>,
    tier: ManagedTier,
) -> Vec<(ReconfigPhase, f64, f64, NodeId)> {
    let mut phases: Vec<(ReconfigPhase, f64, f64, NodeId)> = Vec::new();
    let mut first = None;
    let mut t = 0.0;
    while t < 90.0 {
        t += 0.25;
        eng.run_until(secs(t));
        let app = eng.app();
        let Some(op) = app.jade.in_flight(tier) else {
            if phases.is_empty() {
                continue;
            }
            break;
        };
        // A rolling restart's next step follows its first at once.
        if *first.get_or_insert(op.server) != op.server {
            break;
        }
        let node = app
            .legacy
            .server(op.server)
            .expect("in flight")
            .process()
            .node;
        match phases.last_mut() {
            Some(last) if last.0 == op.phase => last.2 = t,
            _ => phases.push((op.phase, t, t, node)),
        }
    }
    phases
}

/// Crashes the operation's node at two instants inside each of its
/// phases: by the horizon no operation is left in flight and the tier
/// runs as many replicas as without the crash. The phases are found on
/// one clone of the booted engine; the other is the prefix each crash
/// forks, and run on past the last crash it is the fault-free run.
fn sweep_phases(tier: ManagedTier, expect: &[ReconfigPhase]) {
    let draining = expect == [ReconfigPhase::Draining];
    for arbitration in [false, true] {
        let mut prefix = bootstrapped(sweep_cfg(tier, draining, arbitration));
        let phases = discover_phases(prefix.clone(), tier);
        let seen: Vec<ReconfigPhase> = phases.iter().map(|p| p.0).collect();
        assert_eq!(seen, expect, "arbitration={arbitration}");
        let mut crashed = Vec::new();
        for &(phase, from, to, node) in &phases {
            for crash_s in [from + (to - from) / 3.0, from + 2.0 * (to - from) / 3.0] {
                prefix.run_until(secs(crash_s));
                let horizon = crash_s + AFTER_CRASH_S;
                let out = output_at(fork_crash(&prefix, node), horizon);
                let ctx = format!("arbitration={arbitration} {phase:?} crash at {crash_s}");
                assert_eq!(
                    out.app.jade.in_flight(tier),
                    None,
                    "{ctx}: {:?}",
                    out.app.reconfig_log
                );
                crashed.push((ctx, horizon, out));
            }
        }
        let last_crash = phases.last().map_or(0.0, |p| p.2);
        let fault_free = output_at(prefix, last_crash + AFTER_CRASH_S);
        for (ctx, horizon, out) in crashed {
            assert_eq!(
                replicas_at(&out, tier, horizon),
                replicas_at(&fault_free, tier, horizon),
                "{ctx}: {:?}",
                out.app.reconfig_log
            );
        }
    }
}

#[test]
fn database_deployment_survives_a_crash_in_every_phase() {
    use ReconfigPhase::*;
    sweep_phases(ManagedTier::Database, &[Installing, Booting, Syncing]);
}

#[test]
fn application_deployment_survives_a_crash_in_every_phase() {
    use ReconfigPhase::*;
    sweep_phases(ManagedTier::Application, &[Installing, Booting]);
}

#[test]
fn application_retirement_survives_a_crash_while_draining() {
    sweep_phases(ManagedTier::Application, &[ReconfigPhase::Draining]);
}

/// When the rolling sweeps issue their restart.
const ROLL_AT_S: f64 = 30.0;

/// Time allowed for a rolling restart of two replicas: per replica, 5 s of
/// drain, the boot and, for a backend, the replay of what it missed.
const ROLLING_RESTART_S: f64 = 45.0;

/// Rolling sweeps: 120 clients on two replicas of each tier, pinned by the
/// bounds, so the restart is the only reconfiguration.
fn rolling_cfg(arbitration: bool) -> SystemConfig {
    let mut cfg = faults_cfg(arbitration);
    cfg.ramp = WorkloadRamp::constant(120);
    cfg.description.application.replicas = 2;
    cfg.description.database.replicas = 2;
    for bounds in [&mut cfg.jade.app_loop, &mut cfg.jade.db_loop] {
        bounds.min_replicas = 2;
        bounds.max_replicas = 2;
    }
    cfg
}

/// Crashes the node of the first replica a rolling restart bounces at two
/// instants inside each phase of its step. The step aborts in any phase,
/// so by crash + 150 s the repair has left no operation in flight, and a
/// restart issued then bounces both replicas.
fn sweep_rolling_phases(tier: ManagedTier, expect: &[ReconfigPhase]) {
    let done = format!("rolling restart of {tier:?} complete: 2 replicas bounced");
    for arbitration in [false, true] {
        let mut prefix = bootstrapped(rolling_cfg(arbitration));
        prefix.schedule(secs(ROLL_AT_S), Addr::ROOT, Msg::RollingRestart(tier));
        let phases = discover_phases(prefix.clone(), tier);
        let seen: Vec<ReconfigPhase> = phases.iter().map(|p| p.0).collect();
        assert_eq!(seen, expect, "arbitration={arbitration}");
        for &(phase, from, to, node) in &phases {
            for crash_s in [from + (to - from) / 3.0, from + 2.0 * (to - from) / 3.0] {
                let ctx = format!("arbitration={arbitration} {phase:?} crash at {crash_s}");
                prefix.run_until(secs(crash_s));
                let mut eng = fork_crash(&prefix, node);
                let settled = crash_s + AFTER_CRASH_S;
                eng.run_until(secs(settled));
                let log = &eng.app().reconfig_log;
                assert_eq!(eng.app().jade.in_flight(tier), None, "{ctx}: {log:?}");
                assert_eq!(
                    eng.metrics().counter("reconfig.aborted"),
                    1,
                    "{ctx}: {log:?}"
                );
                eng.schedule(secs(settled), Addr::ROOT, Msg::RollingRestart(tier));
                eng.run_until(secs(settled + ROLLING_RESTART_S));
                let log = &eng.app().reconfig_log;
                assert!(
                    log.iter().any(|(t, l)| *t >= secs(settled) && *l == done),
                    "{ctx}: {log:?}"
                );
            }
        }
    }
}

#[test]
fn database_rolling_step_survives_a_crash_in_every_phase() {
    use ReconfigPhase::*;
    sweep_rolling_phases(ManagedTier::Database, &[Draining, Booting, Syncing]);
}

#[test]
fn application_rolling_step_survives_a_crash_in_every_phase() {
    use ReconfigPhase::*;
    sweep_rolling_phases(ManagedTier::Application, &[Draining, Booting]);
}
