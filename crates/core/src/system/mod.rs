//! The managed system: the whole experiment as one discrete-event
//! application, split along the paper's own line (§3).
//!
//! Jade observes the legacy software only through sensors and changes it
//! only through wrapper controllers, and its managers are components too
//! ("Jade administrates itself", §3.4). [`J2eeApp`] keeps what both sides
//! share — the configuration, the legacy layer, the client statistics and
//! the reconfiguration journal — and two halves whose fields are private
//! to their own modules:
//!
//! * `Requests` is the managed system's load: the RUBiS clients and every
//!   request on its way through PLB → Tomcat* → C-JDBC → MySQL*, with the
//!   CPU jobs it charges;
//! * [`Jade`] is the management layer: the component registry, the
//!   front-ends and replicas it deployed, the control loops, the
//!   reconfiguration table, the arbitrator, the rolling restart and the
//!   heartbeats.
//!
//! The glue at the bottom of this file routes each message to its half
//! and names no field of either. Where one half needs the other it calls
//! a method: Jade charges its daemon's CPU and fails the requests a
//! stopped or failed server (or a dead node's aborted jobs) held; the
//! request path reads the front-ends Jade deployed.

mod jade;
mod msg;
mod requests;

pub use jade::{Jade, ReconfigKind, ReconfigPhase, Reconfiguration};
pub use msg::{JobOwner, ManagedTier, Msg, RequestPhase, RequestState};

use crate::config::SystemConfig;
use jade_cluster::SoftwareRepository;
use jade_cluster::{ClusterManager, Network, SoftwareInstallationService};
use jade_rubis::StatsCollector;
use jade_sim::{App, Ctx, SimTime};
use jade_tiers::{LegacyLayer, ServerId};
use requests::Requests;

/// The simulated managed system.
pub struct J2eeApp {
    /// Experiment configuration.
    pub cfg: SystemConfig,
    /// The legacy layer (servers, cluster, configs).
    pub legacy: LegacyLayer,
    /// Client-side statistics.
    pub stats: StatsCollector,
    /// Reconfiguration journal `(time, description)`.
    pub reconfig_log: Vec<(SimTime, String)>,
    /// The management layer: Jade and its autonomic managers.
    pub jade: Jade,
    /// The request path: clients, in-flight requests and their CPU jobs.
    requests: Requests,
}

/// What both halves work on while they handle one event: the engine's
/// context and the parts of [`J2eeApp`] they share.
pub(crate) struct Shared<'a, 'c> {
    ctx: &'a mut Ctx<'c, Msg>,
    cfg: &'a SystemConfig,
    legacy: &'a mut LegacyLayer,
    stats: &'a mut StatsCollector,
    journal: &'a mut Vec<(SimTime, String)>,
}

impl Shared<'_, '_> {
    /// Appends a line to the reconfiguration journal.
    fn log_reconfig(&mut self, text: String) {
        let ctx = &mut *self.ctx;
        ctx.trace(jade_sim::TraceLevel::Info, "manager", || text.clone());
        self.journal.push((ctx.now(), text));
        ctx.metrics().incr("reconfigurations", 1);
    }

    /// Schedules the legacy layer's deferred events into the engine.
    fn flush_outbox(&mut self) {
        for (delay, e) in self.legacy.drain_outbox() {
            self.ctx
                .send_after(delay, jade_sim::Addr::ROOT, Msg::Legacy(e));
        }
    }
}

/// The front-end servers requests enter through, as Jade last deployed
/// them: the request path's one upward crossing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontEnds {
    l4: Option<ServerId>,
    plb: Option<ServerId>,
    cjdbc: Option<ServerId>,
}

/// Interned metric handles: the per-request and per-probe recording paths
/// use these instead of string names, skipping allocation and hashing.
/// Each half caches its own copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotMetricIds {
    cpu_app: jade_sim::SeriesId,
    cpu_db: jade_sim::SeriesId,
    mem_avg: jade_sim::SeriesId,
    cpu_all: jade_sim::SeriesId,
    nodes_allocated: jade_sim::SeriesId,
    replicas_app: jade_sim::SeriesId,
    replicas_db: jade_sim::SeriesId,
    clients: jade_sim::SeriesId,
    latency: jade_sim::HistogramId,
    completed: jade_sim::CounterId,
    failed: jade_sim::CounterId,
    abandoned: jade_sim::CounterId,
}

impl HotMetricIds {
    /// The handles, interned into `cache` on first use.
    fn cached(cache: &mut Option<Self>, hub: &mut jade_sim::MetricsHub) -> Self {
        *cache.get_or_insert_with(|| HotMetricIds {
            cpu_app: hub.series_id("cpu.app"),
            cpu_db: hub.series_id("cpu.db"),
            mem_avg: hub.series_id("mem.avg"),
            cpu_all: hub.series_id("cpu.all"),
            nodes_allocated: hub.series_id("nodes.allocated"),
            replicas_app: hub.series_id("replicas.app"),
            replicas_db: hub.series_id("replicas.db"),
            clients: hub.series_id("clients"),
            latency: hub.histogram_id("latency"),
            completed: hub.counter_id("requests.completed"),
            failed: hub.counter_id("requests.failed"),
            abandoned: hub.counter_id("requests.abandoned"),
        })
    }
}

impl J2eeApp {
    /// Builds the (not yet deployed) system. Send [`Msg::Bootstrap`] at
    /// t=0 to deploy the initial architecture and start the ticks.
    pub fn new(cfg: SystemConfig) -> Self {
        let cluster = ClusterManager::homogeneous(cfg.nodes, cfg.node_spec, cfg.base_mem_mb);
        let sis = SoftwareInstallationService::new(SoftwareRepository::j2ee_catalogue());
        J2eeApp {
            legacy: LegacyLayer::new(cluster, Network::lan_100mbps(), sis),
            stats: StatsCollector::new(cfg.stats_window),
            reconfig_log: Vec::new(),
            jade: Jade::new(&cfg),
            requests: Requests::new(&cfg),
            cfg,
        }
    }

    /// Number of running replicas of a managed tier.
    pub fn running_replicas(&self, tier: ManagedTier) -> usize {
        self.legacy.running_count_of(tier.tier())
    }

    /// Total nodes currently allocated.
    pub fn allocated_nodes(&self) -> usize {
        self.legacy.cluster.allocated().len()
    }
}

/// Deploys the initial architecture, then starts the periodic ticks: the
/// request path's ramp (and pool), then Jade's probe, control loops and
/// failure detector.
#[cold]
fn bootstrap(sh: &mut Shared<'_, '_>, jade: &mut Jade) {
    jade.deploy_initial(sh);
    let (ctx, cfg) = (&mut *sh.ctx, sh.cfg);
    let root = jade_sim::Addr::ROOT;
    ctx.send_now(root, Msg::RampTick);
    if let crate::config::ClientMode::Aggregate { tick } = cfg.client_mode {
        ctx.send_after(tick, root, Msg::PoolTick);
    }
    let period = cfg.jade.probe_period;
    ctx.send_after(period, root, Msg::MeasureTick);
    for tier in ManagedTier::ALL {
        ctx.send_after(period, root, Msg::SensorTick(tier as usize));
    }
    if cfg.jade.managed && cfg.jade.self_repair {
        ctx.send_after(period, root, Msg::DetectorTick);
    }
}

impl App for J2eeApp {
    type Msg = Msg;

    #[jade_hot::jade_hot]
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, _dst: jade_sim::Addr, msg: Msg) {
        let J2eeApp {
            cfg,
            legacy,
            stats,
            reconfig_log,
            jade,
            requests,
        } = self;
        let sh = &mut Shared {
            ctx,
            cfg,
            legacy,
            stats,
            journal: reconfig_log,
        };
        match msg {
            Msg::Bootstrap => bootstrap(sh, jade),
            Msg::RampTick => requests.on_ramp_tick(sh),
            Msg::MeasureTick => jade.on_measure_tick(sh, requests),
            Msg::ClientThink(c) => requests.on_client_think(sh, jade.front_ends(), c),
            Msg::PoolTick => requests.on_pool_tick(sh),
            Msg::PoolDispatch {
                bucket,
                interaction,
            } => requests.on_pool_dispatch(sh, jade.front_ends(), bucket, interaction),
            Msg::ApacheAccept { req, apache } => requests.on_apache_accept(sh, req, apache),
            Msg::TomcatAccept { req, tomcat } => requests.on_tomcat_accept(sh, req, tomcat),
            Msg::DbDispatch { req } => requests.on_db_dispatch(sh, jade.front_ends(), req),
            Msg::CpuComplete(node) => requests.on_cpu_complete(sh, node),
            Msg::ResponseDelivered { req } => requests.on_response(sh, req),
            Msg::ClientAbandon { req } => requests.on_client_abandon(sh, req),
            Msg::Legacy(e) => jade.on_legacy_event(sh, requests, e),
            Msg::SensorTick(i) => jade.on_sensor_tick(sh, i),
            Msg::DetectorTick => jade.on_detector_tick(sh, requests),
            Msg::DeployStep { server } => jade.on_deploy_step(sh, server),
            Msg::UndeployStop { server } => jade.on_undeploy_stop(sh, requests, server),
            Msg::RollingRestart(tier) => jade.start_rolling_restart(sh, tier),
            Msg::RollingNext => jade.on_rolling_next(sh, requests),
            Msg::RollingStop { server } => jade.on_rolling_stop(sh, requests, server),
            Msg::CrashNode(node) => jade.on_crash_node(sh, requests, node),
            Msg::FailServer(server) => {
                let _ = sh.legacy.fail_server(server);
                sh.flush_outbox();
            }
        }
    }
}
