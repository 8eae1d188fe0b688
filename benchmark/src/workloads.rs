//! The five seeded scenarios. All are closed loops: each emulated client
//! thinks, issues one request and waits for the reply before thinking
//! again, so a slow simulated system receives less load. README.md says
//! why each was chosen and which layer it stresses.

use jade::config::SystemConfig;
use jade::system::{J2eeApp, Msg};
use jade_cluster::NodeId;
use jade_rubis::{DatasetSpec, WorkloadRamp};
use jade_sim::{Addr, App, Engine, SimDuration, SimRng, SimTime};
use jade_tiers::Tier;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Ramp,
    Fig5Million,
    Overload1k,
    ProbeWide,
    RepairChurn,
}

/// First crash of `repair_churn` and the interval between crashes,
/// virtual seconds.
const CHURN_FIRST_CRASH_S: u64 = 90;
const CHURN_INTERVAL_S: u64 = 60;
/// Tier whose newest replica is crashed, repeating.
const CHURN_VICTIMS: [Tier; 3] = [Tier::Database, Tier::Database, Tier::Application];

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fig5Ramp,
        Workload::Fig5Million,
        Workload::Overload1k,
        Workload::ProbeWide,
        Workload::RepairChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Ramp => "fig5_ramp",
            Workload::Fig5Million => "fig5_1m",
            Workload::Overload1k => "overload_1k",
            Workload::ProbeWide => "probe_wide",
            Workload::RepairChurn => "repair_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig5Ramp => "paper Figure 5, 80-500-80 clients: per-client request lifecycle at paper scale, PS-CPU at small n, observation under 3 % of handler time",
            Workload::Fig5Million => "same staircase at 160k-1M-160k clients through the aggregate client pool and timer wheel: the only workload where memory and pool events matter",
            Workload::Overload1k => "1000 impatient clients on the thrashing curve: PS-CPU at large n, abandon-timer cancels, 4-way write broadcast; about a quarter of simulated requests are abandoned by design",
            Workload::ProbeWide => "80 read-only clients, 256 nodes probed every 100 ms: the observation plane dominates; recovery log and delta broadcast are bypassed",
            Workload::RepairChurn => "120 clients, 20x dataset, a replica's node crashed every 60 s: detect, redeploy, snapshot + delta-tail sync; management plane and legacy events dominate",
        }
    }

    /// The scenario's configuration for one rep.
    pub fn config(self, rep_seed: u64) -> SystemConfig {
        let mut cfg = match self {
            Workload::Fig5Million => SystemConfig::million_clients(),
            _ => SystemConfig::paper_managed(),
        };
        cfg.seed = rep_seed;
        match self {
            Workload::Fig5Ramp | Workload::Fig5Million => {}
            Workload::Overload1k => {
                cfg.ramp = WorkloadRamp::constant(1000);
                cfg.client_patience = Some(SimDuration::from_secs(8));
            }
            Workload::ProbeWide => {
                cfg.ramp = WorkloadRamp::constant(80);
                cfg.nodes = 256;
                cfg.jade.probe_period = SimDuration::from_millis(100);
                cfg.browsing_mix = true;
            }
            Workload::RepairChurn => {
                cfg.ramp = WorkloadRamp::constant(120);
                cfg.jade.self_repair = true;
                // Two application and three database replicas, which are
                // also the loops' minima: the optimizer must not reclaim
                // what the repair manager has just restored.
                cfg.description.application.replicas = 2;
                cfg.description.database.replicas = 3;
                cfg.jade.app_loop.min_replicas = 2;
                cfg.jade.db_loop.min_replicas = 3;
                // Every crash consumes a node for good.
                cfg.nodes = 64;
                cfg.dataset = dataset_x20();
            }
        }
        cfg
    }

    /// Virtual length of one rep.
    pub fn horizon(self) -> SimTime {
        let secs = match self {
            Workload::Fig5Million => 800,
            Workload::Overload1k => 1200,
            _ => 3000,
        };
        SimTime::from_secs(secs)
    }

    /// Reps in a run of `seconds`. The work is fixed by `(seed, seconds)`
    /// so that simulated outcomes repeat exactly; the per-second rates
    /// were sized at the commit that added the benchmark so that the
    /// timed reps take about `seconds` of host time there.
    pub fn reps(self, seconds: u32) -> u32 {
        let per_10s = match self {
            Workload::Fig5Ramp => 32,
            Workload::Fig5Million => 6,
            Workload::Overload1k => 28,
            Workload::ProbeWide => 56,
            Workload::RepairChurn => 56,
        };
        (per_10s * seconds).div_ceil(10).max(1)
    }

    /// Crashes injected into one rep: one per interval for as long as a
    /// whole interval remains to repair the damage before the horizon.
    pub fn crashes_per_rep(self) -> u64 {
        match self {
            Workload::RepairChurn => {
                let horizon = self.horizon().as_micros() / 1_000_000;
                (horizon - CHURN_FIRST_CRASH_S) / CHURN_INTERVAL_S
            }
            _ => 0,
        }
    }

    /// Runs a bootstrapped engine to the horizon. `repair_churn` stops
    /// every minute to crash the node of the newest running replica of
    /// the next victim tier; the others take `run_until` in one piece,
    /// the path `run_experiment` takes.
    pub fn drive<A: App<Msg = Msg> + Host>(self, engine: &mut Engine<A>) {
        for k in 0..self.crashes_per_rep() {
            let at = SimTime::from_secs(CHURN_FIRST_CRASH_S + k * CHURN_INTERVAL_S);
            engine.run_until(at);
            let tier = CHURN_VICTIMS[k as usize % CHURN_VICTIMS.len()];
            if let Some(node) = newest_replica_node(engine.app().j2ee(), tier) {
                engine.schedule(at, Addr::ROOT, Msg::CrashNode(node));
            }
        }
        engine.run_until(self.horizon());
    }
}

/// `DatasetSpec::small()` with twenty times the users, items, bids and
/// comments: `repair_churn`'s working set, and the probes' `_x20`.
pub fn dataset_x20() -> DatasetSpec {
    let small = DatasetSpec::small();
    DatasetSpec {
        users: small.users * 20,
        items: small.items * 20,
        bids: small.bids * 20,
        comments: small.comments * 20,
        ..small
    }
}

/// The application an engine hosts, seen through the tracing shim or not.
pub trait Host {
    fn j2ee(&self) -> &J2eeApp;
}

impl Host for J2eeApp {
    fn j2ee(&self) -> &J2eeApp {
        self
    }
}

/// Seed of rep `rep` of a run seeded with `seed`.
pub fn rep_seed(seed: u64, rep: u32) -> u64 {
    SimRng::stream_seed(seed, u64::from(rep))
}

/// Node of the running replica of `tier` with the highest server id
/// (server ids are handed out in creation order and never reused).
fn newest_replica_node(app: &J2eeApp, tier: Tier) -> Option<NodeId> {
    let newest = app.legacy.running_servers_of(tier).into_iter().max()?;
    let server = app.legacy.server(newest).ok()?;
    Some(server.process().node)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rep seeds are part of the benchmark's definition: changing the
    /// derivation changes every simulated figure.
    #[test]
    fn rep_seed_derivation_is_stable() {
        assert_eq!(rep_seed(1, 0), 0x63A1_8318_3ED6_D2E0);
        assert_eq!(rep_seed(1, 1), 0x8012_9C37_C570_5F1C);
        assert_eq!(rep_seed(42, 7), 0x9F6A_CAF7_28BE_B1DD);
        assert_ne!(rep_seed(1, 0), rep_seed(2, 0));
        assert_ne!(rep_seed(1, 0), rep_seed(1, 1));
    }

    #[test]
    fn names_round_trip_and_reps_scale_with_seconds() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
            assert!(w.reps(1) >= 1);
            assert!(w.reps(10) >= w.reps(5));
        }
        assert_eq!(Workload::Fig5Ramp.reps(5), 16);
        assert_eq!(Workload::Fig5Million.reps(8), 5);
        assert_eq!(Workload::RepairChurn.crashes_per_rep(), 48);
        assert!(Workload::from_name("nope").is_none());
    }
}
