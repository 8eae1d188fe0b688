//! Determinism guarantees of the experiment layer, as recorded in run
//! manifests: the outcome digest of a run depends only on its
//! configuration — not on wall-clock conditions, how many harness workers
//! execute sibling runs, or whether tracing was enabled.

use jade::config::SystemConfig;
use jade::experiment::ExperimentOutput;
use jade::experiment::{bootstrapped, config_digest, run_experiment, run_experiment_with};
use jade::system::{J2eeApp, Msg};
use jade_bench::{Harness, RunSpec};
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, Engine, SimDuration, SimTime, TraceLevel, Tracer};

fn quick_cfg(clients: u32, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(clients);
    cfg.seed = seed;
    cfg
}

const HORIZON: SimDuration = SimDuration::from_secs(90);

/// Same seed ⇒ identical outcome digest across repeated runs.
#[test]
fn repeated_runs_digest_identically() {
    let a = run_experiment(quick_cfg(60, 5), HORIZON);
    let b = run_experiment(quick_cfg(60, 5), HORIZON);
    assert_eq!(a.outcome_digest(), b.outcome_digest());
    assert_eq!(a.events, b.events);
    // A different seed is (overwhelmingly likely) a different trajectory.
    let c = run_experiment(quick_cfg(60, 6), HORIZON);
    assert_ne!(a.outcome_digest(), c.outcome_digest());
}

/// `--jobs 1` and `--jobs N` produce byte-identical digests, run by run,
/// in spec order.
#[test]
fn worker_count_never_changes_outcomes() {
    let specs = || -> Vec<RunSpec> {
        (0..6)
            .map(|i| {
                RunSpec::new(
                    format!("run{i}"),
                    quick_cfg(40 + 30 * i, 100 + i as u64),
                    HORIZON,
                )
                .on_stream(i as u64)
            })
            .collect()
    };
    let serial = Harness::with_jobs(1).run(specs());
    let parallel = Harness::with_jobs(4).run(specs());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.record.label, p.record.label, "spec order preserved");
        assert_eq!(s.record.seed, p.record.seed);
        assert_eq!(s.record.config_digest, p.record.config_digest);
        assert_eq!(
            s.record.outcome_digest, p.record.outcome_digest,
            "digest of '{}' changed with worker count",
            s.record.label
        );
        assert_eq!(s.record.events, p.record.events);
        assert_eq!(s.record.completed, p.record.completed);
    }
}

/// Abandonment-heavy runs are as deterministic as calm ones: with a
/// patience tight enough that timers routinely fire mid-request, slab
/// slot recycling, timer cancellation, and the stale-id path all stay on
/// the hot path — and the digests must still be byte-identical across
/// worker counts.
#[test]
fn abandon_heavy_runs_digest_identically_across_jobs() {
    let abandon_cfg = |clients: u32, seed: u64| {
        let mut cfg = quick_cfg(clients, seed);
        cfg.client_patience = Some(SimDuration::from_millis(600));
        cfg
    };
    let specs = || -> Vec<RunSpec> {
        (0..4)
            .map(|i| {
                RunSpec::new(
                    format!("abandon{i}"),
                    abandon_cfg(150 + 100 * i, 500 + i as u64),
                    HORIZON,
                )
                .on_stream(i as u64)
            })
            .collect()
    };
    let serial = Harness::with_jobs(1).run(specs());
    let parallel = Harness::with_jobs(4).run(specs());
    assert_eq!(serial.len(), parallel.len());
    let mut abandoned_total = 0;
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.record.outcome_digest, p.record.outcome_digest,
            "digest of '{}' changed with worker count",
            s.record.label
        );
        assert_eq!(s.record.events, p.record.events);
        assert_eq!(s.record.completed, p.record.completed);
        abandoned_total += s.out.metrics.counter("requests.abandoned");
    }
    assert!(
        abandoned_total > 0,
        "patience of 600ms should abandon at least one request"
    );
}

/// A million-client aggregate run digests identically across worker
/// counts and repeats. The aggregate pool samples binomial issuance
/// counts and uniform dispatch offsets from the engine RNG in a
/// documented bucket order; this pins that order (and the event-queue
/// scheduling underneath it) at a scale where any nondeterminism in the
/// pool's draw discipline would surface immediately.
#[test]
fn million_client_aggregate_digests_identically_across_jobs() {
    let cfg = || {
        // The canonical 1M scenario, pinned at its peak: a constant
        // million clients on the peak deployment (four replicas per
        // managed tier) instead of the ramp, so the whole horizon runs
        // at full aggregate-pool pressure.
        let mut cfg = SystemConfig::million_clients();
        cfg.ramp = WorkloadRamp::constant(1_000_000);
        cfg.description.application.replicas = 4;
        cfg.description.database.replicas = 4;
        cfg.seed = 1_000_003;
        cfg
    };
    let horizon = SimDuration::from_secs(10);
    let spec = || vec![RunSpec::new("fig5-1m", cfg(), horizon)];
    let one = Harness::with_jobs(1).run(spec());
    let two = Harness::with_jobs(2).run(spec());
    let eight = Harness::with_jobs(8).run(spec());
    let again = Harness::with_jobs(8).run(spec());
    assert!(
        one[0].record.completed > 10_000,
        "a million clients must produce serious traffic (completed {})",
        one[0].record.completed
    );
    for other in [&two, &eight, &again] {
        assert_eq!(one[0].record.outcome_digest, other[0].record.outcome_digest);
        assert_eq!(one[0].record.events, other[0].record.events);
        assert_eq!(one[0].record.completed, other[0].record.completed);
    }
}

/// Seed rebasing is itself deterministic and preserves common random
/// numbers: the managed run and its unmanaged baseline derive the same
/// seed from the same stream.
#[test]
fn seed_rebase_is_deterministic_and_shared_within_stream() {
    let h = Harness {
        jobs: 2,
        seed: Some(2024),
    };
    let specs = || {
        vec![
            RunSpec::new("managed", quick_cfg(50, 1), HORIZON),
            RunSpec::new("unmanaged", quick_cfg(50, 2), HORIZON),
        ]
    };
    let a = h.run(specs());
    let b = h.run(specs());
    // Both specs landed on the same derived seed (stream 0)...
    assert_eq!(a[0].record.seed, a[1].record.seed);
    // ...and the rebase reproduces exactly.
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.record.seed, y.record.seed);
        assert_eq!(x.record.outcome_digest, y.record.outcome_digest);
    }
}

/// Tracing is observation, not behaviour: a traced run digests exactly
/// like an untraced one.
#[test]
fn tracing_does_not_perturb_the_digest() {
    let plain = run_experiment(quick_cfg(70, 9), HORIZON);
    let traced = run_experiment_with(quick_cfg(70, 9), HORIZON, |eng| {
        eng.set_tracer(Tracer::enabled(4096, TraceLevel::Debug));
    });
    assert!(traced.tracer.is_enabled());
    assert_eq!(plain.outcome_digest(), traced.outcome_digest());
    assert_eq!(plain.events, traced.events);
}

/// The config digest covers every field (seed included), so manifests can
/// prove which scenario produced which outcome.
#[test]
fn config_digest_tracks_config_changes() {
    let base = quick_cfg(60, 5);
    assert_eq!(config_digest(&base), config_digest(&quick_cfg(60, 5)));
    assert_ne!(config_digest(&base), config_digest(&quick_cfg(61, 5)));
    assert_ne!(config_digest(&base), config_digest(&quick_cfg(60, 6)));
    let mut unmanaged = base.clone();
    unmanaged.jade.managed = false;
    assert_ne!(config_digest(&base), config_digest(&unmanaged));
}

/// The manifest writer emits one row per run with stable digest strings.
#[test]
fn manifest_records_every_run() {
    let h = Harness::with_jobs(2);
    let results = h.run(vec![
        RunSpec::new("a", quick_cfg(30, 3), HORIZON),
        RunSpec::new("b", quick_cfg(90, 4), HORIZON).on_stream(1),
    ]);
    let json = h.manifest_json("determinism-test", &results);
    // The worker count is no function of the runs, so it is not recorded.
    assert!(!json.contains("\"jobs\""));
    assert!(json.contains("\"label\": \"a\""));
    assert!(json.contains("\"label\": \"b\""));
    for r in &results {
        assert!(json.contains(&format!("{:016x}", r.record.outcome_digest)));
        assert!(json.contains(&format!("{:016x}", r.record.config_digest)));
    }
}

/// The fork rule (DESIGN.md §5.2): a fault injected into a fork at `t` is
/// delivered after every event the prefix delivered at or before `t` —
/// `prefix.run_until(t)`, `clone()`, `schedule(t, ..)`. A node crashed in
/// a fork of a running engine therefore digests like a never-cloned run
/// that does the same at `t`, and the prefix, run on after all its forks,
/// like a run that was never forked.
#[test]
fn forked_crashes_digest_like_straight_runs() {
    // 450 clients scale the database tier up at once: MySQL2 deploys on
    // node 5 from 1 s (the decision ties with that second's probe), boots
    // from 30 s, replays the log from 35 s to 37 s and serves from then
    // on. Its node crashes while it installs, boots and serves; at 36 s
    // Tomcat1's node (3) crashes instead, so the replay in flight must
    // survive the clone.
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(450);
    cfg.jade.self_repair = true;
    let (mysql2, tomcat1) = (NodeId(4), NodeId(2));
    let crashes = [
        (1_000, mysql2),
        (12_500, mysql2),
        (33_000, mysql2),
        (36_000, tomcat1),
        (45_000, mysql2),
    ];
    let digest_at = |mut eng: Engine<J2eeApp>, t: SimTime| {
        eng.run_until(t);
        ExperimentOutput::from_engine(eng).outcome_digest()
    };
    let after = SimDuration::from_secs(60);
    let mut prefix = bootstrapped(cfg.clone());
    let mut horizon = SimTime::ZERO;
    for (ms, node) in crashes {
        let t = SimTime::from_millis(ms);
        prefix.run_until(SimTime::from_micros(t.as_micros() - 1));
        let before = prefix.events_processed();
        prefix.run_until(t);
        if ms % 1_000 == 0 {
            // The probe tick runs on whole seconds: the crash follows it.
            assert!(prefix.events_processed() > before, "no event ties with {t}");
        }
        horizon = t + after;
        let mut fork = prefix.clone();
        fork.schedule(t, Addr::ROOT, Msg::CrashNode(node));
        let mut straight = bootstrapped(cfg.clone());
        straight.run_until(t);
        straight.schedule(t, Addr::ROOT, Msg::CrashNode(node));
        assert_eq!(
            digest_at(fork, horizon),
            digest_at(straight, horizon),
            "{node:?} crashed at {t}"
        );
    }
    assert_eq!(
        digest_at(prefix, horizon),
        digest_at(bootstrapped(cfg), horizon),
        "a fork wrote through to its prefix"
    );
}
