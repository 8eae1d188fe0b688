//! Workload-variant integration tests: the browsing mix, Markov
//! navigation, and impatient clients.

use jade::config::SystemConfig;
use jade::experiment::run_experiment;
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;
use jade_tiers::Tier;

#[test]
fn browsing_mix_produces_no_writes() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.browsing_mix = true;
    cfg.ramp = WorkloadRamp::constant(100);
    let out = run_experiment(cfg, SimDuration::from_secs(200));
    assert!(out.app.stats.total_completed() > 1_000);
    // The recovery log only records writes: browsing leaves it empty.
    let (cj_server, _) = out.app.jade.cjdbc().expect("cjdbc");
    assert_eq!(
        out.app
            .legacy
            .cjdbc(cj_server)
            .unwrap()
            .recovery_log()
            .head(),
        0,
        "browsing mix must not produce write requests"
    );
}

#[test]
fn browsing_mix_joiner_syncs_instantly() {
    // A replica joining under the browsing mix has no backlog to replay.
    let mut cfg = SystemConfig::paper_managed();
    cfg.browsing_mix = true;
    cfg.ramp = WorkloadRamp::constant(300); // hot enough to scale the DB
    let out = run_experiment(cfg, SimDuration::from_secs(300));
    let log = format!("{:?}", out.app.reconfig_log);
    if log.contains("scale-up Database") {
        assert!(log.contains("synchronized and activated"), "{log}");
    }
    // All replicas identical (they all just hold the dump).
    let digests: Vec<u64> = out
        .app
        .legacy
        .running_servers_of(Tier::Database)
        .into_iter()
        .map(|s| out.app.legacy.mysql(s).unwrap().digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn markov_navigation_serves_the_same_macroscopic_load() {
    let run = |markov: bool| {
        let mut cfg = SystemConfig::paper_managed();
        cfg.markov_navigation = markov;
        cfg.ramp = WorkloadRamp::constant(80);
        run_experiment(cfg, SimDuration::from_secs(300))
    };
    let iid = run(false);
    let markov = run(true);
    // Same closed-loop workload: throughputs agree within 15%.
    let (a, b) = (iid.throughput(), markov.throughput());
    assert!(
        (a - b).abs() / a.max(b) < 0.15,
        "throughput {a:.1} vs {b:.1}"
    );
}

#[test]
fn impatient_clients_abandon_under_overload() {
    // The unmanaged system at peak load with a 10 s patience: abandoned
    // requests show up, and the client population keeps cycling instead
    // of piling onto the dead database.
    let mut cfg = SystemConfig::paper_unmanaged();
    cfg.ramp = WorkloadRamp::constant(450);
    cfg.client_patience = Some(SimDuration::from_secs(10));
    let out = run_experiment(cfg, SimDuration::from_secs(400));
    assert!(
        out.metrics.counter("requests.abandoned") > 0,
        "overloaded run must show abandonment"
    );
    // Abandonment bounds the measured latency: nothing slower than the
    // patience (plus scheduling slack) completes... actually completed
    // requests can exceed patience only if they raced the timeout, so the
    // overall mean stays below it.
    assert!(out.mean_latency_ms() < 10_500.0);
}

#[test]
fn patient_clients_never_abandon() {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(80);
    cfg.client_patience = Some(SimDuration::from_secs(30));
    let out = run_experiment(cfg, SimDuration::from_secs(200));
    assert_eq!(out.metrics.counter("requests.abandoned"), 0);
    assert_eq!(out.app.stats.total_failed(), 0);
}
