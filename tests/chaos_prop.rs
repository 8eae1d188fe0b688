//! Whole-system property testing: random workloads and crash schedules
//! against the managed system. Whatever happens, the system must uphold
//! its invariants — never panic, never over-allocate the pool, keep
//! replica counts within bounds, keep active database replicas identical,
//! and (with self-repair) converge back to a healthy architecture.
//!
//! Deterministic simulation makes this possible: each generated case is a
//! complete, reproducible 240-second experiment.

use jade::config::SystemConfig;
use jade::experiment::run_experiment_with;
use jade::system::{ManagedTier, Msg};
use jade_cluster::NodeId;
use jade_propcheck::{run, Gen};
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, SimDuration, SimTime};
use jade_tiers::Tier;

#[derive(Debug, Clone)]
struct Chaos {
    seed: u64,
    clients: u32,
    /// (virtual second, node index) crash injections.
    crashes: Vec<(u64, u32)>,
}

fn gen_chaos(g: &mut Gen) -> Chaos {
    Chaos {
        seed: g.u64(0..1_000),
        clients: g.u32(20..300),
        crashes: g.vec(0..3, |g| (g.u64(30..200), g.u32(0..9))),
    }
}

#[test]
fn managed_system_upholds_invariants_under_chaos() {
    // Each case simulates 240 virtual seconds; keep the case count modest.
    run("managed_system_upholds_invariants_under_chaos", 24, |g| {
        let chaos = gen_chaos(g);
        let mut cfg = SystemConfig::paper_managed();
        cfg.seed = chaos.seed;
        cfg.ramp = WorkloadRamp::constant(chaos.clients);
        cfg.jade.self_repair = true;
        let crashes = chaos.crashes.clone();
        let out = run_experiment_with(cfg, SimDuration::from_secs(240), move |eng| {
            for (t, node) in crashes {
                eng.schedule(
                    SimTime::from_secs(t),
                    Addr::ROOT,
                    Msg::CrashNode(NodeId(node)),
                );
            }
        });

        // Node pool bound respected at every probe.
        let peak_alloc = out
            .series("nodes.allocated")
            .iter()
            .map(|&(_, v)| v as usize)
            .max()
            .unwrap_or(0);
        assert!(peak_alloc <= 9, "over-allocated: {peak_alloc}");

        // Replica counts within configured bounds at every probe.
        for tier in [ManagedTier::Application, ManagedTier::Database] {
            for (t, v) in out.series(tier.replicas_series()) {
                assert!(v <= 4.0, "{tier:?} exceeded max_replicas at t={t}: {v}");
            }
        }

        // Active database replicas are always mutually consistent.
        let digests: Vec<u64> = out
            .app
            .legacy
            .running_servers_of(Tier::Database)
            .into_iter()
            .map(|s| out.app.legacy.mysql(s).expect("mysql").digest())
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "replicas diverged"
        );

        // Accounting sanity: every issued request was either answered,
        // failed, or is still in flight.
        let issued: u64 = out.app.stats.total_completed() + out.app.stats.total_failed();
        assert!(issued > 0, "no requests flowed");

        // Liveness: no reconfiguration outlives one inhibition period plus
        // one deployment (the slowest, a database replica's, takes under
        // 45 s) — a crash mid-operation aborts it instead of wedging it.
        let limit = out.app.cfg.jade.inhibition + SimDuration::from_secs(45);
        for tier in [ManagedTier::Application, ManagedTier::Database] {
            if let Some(op) = out.app.jade.in_flight(tier) {
                let age = out.horizon.since(op.started);
                assert!(age <= limit, "{tier:?} stuck in {op:?} for {age:?}");
            }
        }

        // With self-repair on and at least one spare node at the end,
        // both tiers are back to >= 1 running replica (the service is up)
        // unless every crash wiped an irreplaceable balancer.
        let balancers_alive = out.app.legacy.running_servers_of(Tier::Balancer).len();
        if balancers_alive >= 2 {
            assert!(
                out.app.running_replicas(ManagedTier::Application) >= 1
                    || out.app.legacy.cluster.free_count() == 0,
                "application tier not repaired despite free nodes"
            );
        }
    });
}

/// Determinism under chaos: identical configurations (same seed, same
/// crash schedule) produce bit-identical trajectories — including the
/// outcome digest the experiment manifests record.
#[test]
fn chaos_runs_are_deterministic() {
    run("chaos_runs_are_deterministic", 24, |g| {
        let chaos = gen_chaos(g);
        let run_once = |chaos: &Chaos| {
            let mut cfg = SystemConfig::paper_managed();
            cfg.seed = chaos.seed;
            cfg.ramp = WorkloadRamp::constant(chaos.clients);
            cfg.jade.self_repair = true;
            let crashes = chaos.crashes.clone();
            run_experiment_with(cfg, SimDuration::from_secs(120), move |eng| {
                for (t, node) in crashes {
                    eng.schedule(
                        SimTime::from_secs(t),
                        Addr::ROOT,
                        Msg::CrashNode(NodeId(node)),
                    );
                }
            })
        };
        let a = run_once(&chaos);
        let b = run_once(&chaos);
        assert_eq!(a.events, b.events);
        assert_eq!(a.app.stats.total_completed(), b.app.stats.total_completed());
        assert_eq!(a.app.reconfig_log, b.app.reconfig_log);
        assert_eq!(a.outcome_digest(), b.outcome_digest());
    });
}
