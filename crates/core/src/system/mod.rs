//! The managed system: the whole experiment as one discrete-event
//! application.
//!
//! [`J2eeApp`] owns the legacy layer, the Fractal management layer, the
//! emulated clients and Jade's autonomic managers, and routes every
//! virtual-time event between them. It is the Rust counterpart of the
//! paper's testbed: up to nine nodes running PLB → Tomcat* → C-JDBC →
//! MySQL* under the RUBiS workload, managed (or not) by Jade.

mod admin;
mod manage;
mod msg;
mod reconfig;
mod workload;

pub use msg::{JobOwner, ManagedTier, Msg, RequestPhase, RequestState};
pub use reconfig::{ReconfigKind, ReconfigPhase, Reconfiguration};

use crate::config::SystemConfig;
use crate::control::{AdaptiveThresholds, CpuAvgSensor, InhibitionWindow, ThresholdReactor};
use jade_cluster::SoftwareRepository;
use jade_cluster::{ClusterManager, Network, NodeId, SoftwareInstallationService};
use jade_fractal::{ComponentId, InterfaceDecl, Registry};
use jade_rubis::{dataset_statements, rubis_schema, EmulatedClient, KeySpace, StatsCollector};
use jade_sim::{App, Ctx, GenSlab, JobId, SimDuration, SimTime, SlabKey};
use jade_tiers::wrappers::{BalancerWrapper, CjdbcWrapper, MysqlWrapper, TomcatWrapper};
use jade_tiers::{LegacyEvent, LegacyLayer, RequestId, ServerId};
use std::collections::{BTreeMap, VecDeque};

/// One emulated client and its scheduling state.
#[derive(Debug)]
pub(crate) struct ClientSlot {
    pub(crate) client: EmulatedClient,
    /// Part of the current target population.
    pub(crate) active: bool,
    /// Has a request or think-timer in flight (prevents double-scheduling).
    pub(crate) busy: bool,
}

/// One tier's self-optimization control loop (sensor + reactor; the
/// actuator is the scale-up/down workflow implemented by the app).
#[derive(Debug)]
pub struct TierManager {
    /// Managed tier.
    pub tier: ManagedTier,
    /// CPU sensor with the tier's smoothing window.
    pub sensor: CpuAvgSensor,
    /// Threshold decision logic.
    pub reactor: ThresholdReactor,
    /// Optional adaptive thresholds (paper §7 extension).
    pub adaptive: Option<AdaptiveThresholds>,
    /// The manager's own component in the management layer ("Jade
    /// administrates itself", §3.4).
    pub comp: ComponentId,
}

/// The simulated managed system.
pub struct J2eeApp {
    /// Experiment configuration.
    pub cfg: SystemConfig,
    /// The legacy layer (servers, cluster, configs).
    pub legacy: LegacyLayer,
    /// The management layer.
    pub registry: Registry<LegacyLayer>,
    /// Root composite of the managed architecture.
    pub root: ComponentId,
    /// Composite holding the (optional) static web tier.
    pub web_tier: ComponentId,
    /// Composite holding the application tier.
    pub app_tier: ComponentId,
    /// Composite holding the database tier.
    pub db_tier: ComponentId,
    /// L4 switch front-end (web-tier topologies).
    pub l4: Option<(ServerId, ComponentId)>,
    /// PLB front-end (server, component).
    pub plb: Option<(ServerId, ComponentId)>,
    /// C-JDBC controller (server, component).
    pub cjdbc: Option<(ServerId, ComponentId)>,
    /// Client-side statistics.
    pub stats: StatsCollector,
    /// The self-optimization managers (application and database loops).
    pub managers: Vec<TierManager>,
    /// Reconfiguration journal `(time, description)`.
    pub reconfig_log: Vec<(SimTime, String)>,

    pub(crate) comp_of_server: BTreeMap<ServerId, ComponentId>,
    pub(crate) tomcat_seq: u32,
    pub(crate) mysql_seq: u32,
    pub(crate) apache_seq: u32,

    pub(crate) clients: Vec<ClientSlot>,
    /// Aggregate-mode client population (`Some` iff
    /// `cfg.client_mode` is [`crate::config::ClientMode::Aggregate`]);
    /// `clients` stays empty in that mode.
    pub(crate) pool: Option<jade_rubis::ClientPool>,
    /// Recycled issuance buffer of the aggregate pool tick:
    /// `(dispatch offset, return bucket, interaction index)`.
    pub(crate) pool_scratch: Vec<(SimDuration, u32, u32)>,
    pub(crate) ks: KeySpace,
    pub(crate) transitions: jade_rubis::TransitionMatrix,
    pub(crate) mix: jade_rubis::InteractionMix,
    /// In-flight requests in a generational slab: the public `RequestId`
    /// is the packed `{generation, slot}` key, so every per-event lookup
    /// is O(1) array indexing and a stale id (e.g. an abandon timer that
    /// outlived its request) provably misses instead of hitting whatever
    /// request reused the slot.
    pub(crate) inflight: GenSlab<RequestState>,
    /// Per-Tomcat accept queues, indexed densely by `ServerId.0` (server
    /// ids are interned sequentially at create-server time and never
    /// recycled — see `LegacyLayer::server_index_bound`).
    pub(crate) accept_queues: Vec<VecDeque<RequestId>>,
    /// Creation-order stamp for the next request (slab slots recycle, so
    /// ordering needs its own counter).
    pub(crate) next_request_seq: u64,

    /// CPU-job owners in a generational slab keyed by the packed `JobId`.
    pub(crate) job_owner: GenSlab<JobOwner>,
    /// Recycled buffer for draining CPU completions on each timer fire
    /// (the hottest per-event path), so the drain never allocates.
    pub(crate) completion_scratch: Vec<JobId>,
    /// Recycled compiled-run buffers (parameter values + per-step
    /// demands) of retired requests, reused by the workload generator for
    /// new plans — zero steady-state allocation on the hot path.
    pub(crate) param_recycle: Vec<(Vec<jade_tiers::sql::Value>, Vec<jade_sim::SimDuration>)>,
    /// Recycled broadcast-target buffer for the DB write path: each write
    /// fills it via `cjdbc_execute_write_into` instead of allocating a
    /// fresh targets `Vec` (zero steady-state allocation).
    pub(crate) db_write_targets: Vec<ServerId>,
    /// Recycled per-request job lists of retired requests.
    pub(crate) jobs_recycle: Vec<Vec<JobId>>,

    pub(crate) inhibition: InhibitionWindow,
    /// The policy-arbitration manager, when enabled (paper §7).
    pub arbitrator: Option<crate::arbitration::Arbitrator>,
    /// In-flight reconfigurations, one slot per managed tier.
    pub(crate) reconfigs: reconfig::Reconfigs,
    pub(crate) latest_app_cpu: f64,
    pub(crate) latest_db_cpu: f64,
    /// Last heartbeat received from each node's management daemon,
    /// indexed densely by `NodeId.0` (the node pool is fixed at
    /// configuration time; `None` = never heard from).
    pub(crate) last_heartbeat: Vec<Option<jade_sim::SimTime>>,
    /// Recycled dense per-node CPU sample array of the probe tick:
    /// `probe_samples[i]` is the utilization of `NodeId(i)`.
    pub(crate) probe_samples: Vec<f64>,
    /// Recycled node-id list of the application tier (probe tick).
    pub(crate) probe_app_nodes: Vec<NodeId>,
    /// Recycled node-id list of the database tier (probe tick).
    pub(crate) probe_db_nodes: Vec<NodeId>,
    /// Recycled allocated-node list (probe tick).
    pub(crate) probe_allocated: Vec<NodeId>,
    /// A rolling restart in progress, if any (its steps are operations
    /// of `reconfigs`).
    pub(crate) rolling: Option<admin::RollingRestart>,
    /// Interned metric handles for the hot recording paths (lazy).
    pub(crate) hot_ids: Option<HotMetricIds>,
}

/// Interned metric handles: the per-request and per-probe recording paths
/// use these instead of string names, skipping allocation and hashing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotMetricIds {
    pub cpu_app: jade_sim::SeriesId,
    pub cpu_db: jade_sim::SeriesId,
    pub mem_avg: jade_sim::SeriesId,
    pub cpu_all: jade_sim::SeriesId,
    pub nodes_allocated: jade_sim::SeriesId,
    pub replicas_app: jade_sim::SeriesId,
    pub replicas_db: jade_sim::SeriesId,
    pub clients: jade_sim::SeriesId,
    pub latency: jade_sim::HistogramId,
    pub completed: jade_sim::CounterId,
    pub failed: jade_sim::CounterId,
    pub abandoned: jade_sim::CounterId,
}

impl HotMetricIds {
    fn intern(hub: &mut jade_sim::MetricsHub) -> Self {
        HotMetricIds {
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
        }
    }
}

impl J2eeApp {
    /// Builds the (not yet deployed) system. Send [`Msg::Bootstrap`] at
    /// t=0 to deploy the initial architecture and start the ticks.
    pub fn new(cfg: SystemConfig) -> Self {
        let cluster = ClusterManager::homogeneous(cfg.nodes, cfg.node_spec, cfg.base_mem_mb);
        let sis = SoftwareInstallationService::new(SoftwareRepository::j2ee_catalogue());
        let legacy = LegacyLayer::new(cluster, Network::lan_100mbps(), sis);
        let mut registry: Registry<LegacyLayer> = Registry::new();
        let root = registry.new_composite(&cfg.description.name, vec![]);
        let web_tier = registry.new_composite("web-tier", vec![]);
        let app_tier = registry.new_composite("application-tier", vec![]);
        let db_tier = registry.new_composite("database-tier", vec![]);
        if cfg.description.web.is_some() {
            registry
                .add_child(root, web_tier)
                .expect("fresh composites");
        }
        registry
            .add_child(root, app_tier)
            .expect("fresh composites");
        registry.add_child(root, db_tier).expect("fresh composites");

        // Jade's own architecture: the managers are components too.
        let jade_root = registry.new_composite("jade", vec![]);
        let mut managers = Vec::new();
        for (name, tier, loop_cfg) in [
            (
                "self-optimization-app",
                ManagedTier::Application,
                cfg.jade.app_loop,
            ),
            (
                "self-optimization-db",
                ManagedTier::Database,
                cfg.jade.db_loop,
            ),
        ] {
            let mgr_comp = registry.new_composite(name, vec![]);
            for part in ["sensor", "reactor", "actuator"] {
                let c = registry.new_primitive(
                    &format!("{name}.{part}"),
                    vec![],
                    Box::new(jade_fractal::NullWrapper),
                );
                registry.add_child(mgr_comp, c).expect("fresh manager part");
            }
            registry.add_child(jade_root, mgr_comp).expect("fresh");
            let reactor = ThresholdReactor::new(
                loop_cfg.min_threshold,
                loop_cfg.max_threshold,
                loop_cfg.min_replicas,
                loop_cfg.max_replicas,
            );
            managers.push(TierManager {
                tier,
                sensor: CpuAvgSensor::with_period(loop_cfg.window, cfg.jade.probe_period),
                reactor,
                adaptive: cfg.jade.adaptive.then(|| AdaptiveThresholds::new(reactor)),
                comp: mgr_comp,
            });
        }

        let stats = StatsCollector::new(cfg.stats_window);
        let inhibition = InhibitionWindow::new(cfg.jade.inhibition);
        let cfg_arbitration = cfg.jade.arbitration;
        let cfg_browsing = cfg.browsing_mix;
        let cfg_aggregate = matches!(cfg.client_mode, crate::config::ClientMode::Aggregate { .. });
        let ks: KeySpace = cfg.dataset.into();
        J2eeApp {
            cfg,
            legacy,
            registry,
            root,
            web_tier,
            app_tier,
            db_tier,
            l4: None,
            plb: None,
            cjdbc: None,
            stats,
            managers,
            reconfig_log: Vec::new(),
            comp_of_server: BTreeMap::new(),
            tomcat_seq: 0,
            mysql_seq: 0,
            apache_seq: 0,
            clients: Vec::new(),
            pool: cfg_aggregate.then(jade_rubis::ClientPool::new),
            pool_scratch: Vec::new(),
            ks,
            transitions: jade_rubis::TransitionMatrix::bidding_mix(),
            mix: if cfg_browsing {
                jade_rubis::InteractionMix::browsing()
            } else {
                jade_rubis::InteractionMix::bidding()
            },
            inflight: GenSlab::new(),
            accept_queues: Vec::new(),
            next_request_seq: 0,
            job_owner: GenSlab::new(),
            completion_scratch: Vec::new(),
            param_recycle: Vec::new(),
            db_write_targets: Vec::new(),
            jobs_recycle: Vec::new(),
            inhibition,
            arbitrator: cfg_arbitration.then(crate::arbitration::Arbitrator::new),
            reconfigs: reconfig::Reconfigs::default(),
            latest_app_cpu: 0.0,
            latest_db_cpu: 0.0,
            last_heartbeat: Vec::new(),
            probe_samples: Vec::new(),
            probe_app_nodes: Vec::new(),
            probe_db_nodes: Vec::new(),
            probe_allocated: Vec::new(),
            rolling: None,
            hot_ids: None,
        }
    }

    /// Interned metric handles, created on first use.
    pub(crate) fn hot_ids(&mut self, ctx: &mut Ctx<'_, Msg>) -> HotMetricIds {
        match self.hot_ids {
            Some(ids) => ids,
            None => {
                let ids = HotMetricIds::intern(ctx.metrics());
                self.hot_ids = Some(ids);
                ids
            }
        }
    }

    // ------------------------------------------------------------------
    // Request / job slab plumbing
    // ------------------------------------------------------------------

    pub(crate) fn request(&self, req: RequestId) -> Option<&RequestState> {
        self.inflight.get(SlabKey::from_raw(req.0))
    }

    pub(crate) fn request_mut(&mut self, req: RequestId) -> Option<&mut RequestState> {
        self.inflight.get_mut(SlabKey::from_raw(req.0))
    }

    pub(crate) fn request_live(&self, req: RequestId) -> bool {
        self.inflight.contains(SlabKey::from_raw(req.0))
    }

    pub(crate) fn remove_request(&mut self, req: RequestId) -> Option<RequestState> {
        self.inflight.remove(SlabKey::from_raw(req.0))
    }

    /// Returns a retired request's buffers to the recycling pools.
    // jade-audit: allow(unbounded-growth): recycling pool — drained by
    // on_client_think/new_request, which pop a retired buffer before
    // allocating a fresh one; residency is bounded by the number of
    // concurrently live requests.
    pub(crate) fn recycle_request(&mut self, state: RequestState) {
        let RequestState { plan, mut jobs, .. } = state;
        self.recycle_plan(plan);
        jobs.clear();
        self.jobs_recycle.push(jobs);
    }

    /// Returns a dropped plan's parameter/demand buffers to the recycling
    /// pool.
    // jade-audit: allow(unbounded-growth): recycling pool — drained by
    // the plan-generation path (on_client_think/new_request pop from
    // param_recycle); residency is bounded by concurrently live requests.
    pub(crate) fn recycle_plan(&mut self, plan: jade_tiers::InteractionPlan) {
        let jade_tiers::SqlProgram::Compiled(run) = plan.sql;
        let (mut params, mut demands) = (run.params, run.demands);
        params.clear();
        demands.clear();
        self.param_recycle.push((params, demands));
    }

    /// The accept queue of `server`, growing the dense table on demand.
    // jade-audit: allow(hot-panic): the resize_with on the preceding
    // line guarantees idx < accept_queues.len().
    pub(crate) fn accept_queue_mut(&mut self, server: ServerId) -> &mut VecDeque<RequestId> {
        let idx = server.0 as usize;
        if idx >= self.accept_queues.len() {
            self.accept_queues.resize_with(idx + 1, VecDeque::new);
        }
        &mut self.accept_queues[idx]
    }

    /// Drops any queued requests of `server` without growing the table.
    pub(crate) fn clear_accept_queue(&mut self, server: ServerId) {
        if let Some(q) = self.accept_queues.get_mut(server.0 as usize) {
            q.clear();
        }
    }

    /// Records a daemon heartbeat from `node`, growing the dense table on
    /// demand (node ids are fixed at configuration time, so the table
    /// reaches pool size once and never reallocates again).
    // jade-audit: allow(hot-panic): the resize on the preceding line
    // guarantees slot < last_heartbeat.len().
    pub(crate) fn record_heartbeat(&mut self, node: NodeId, now: SimTime) {
        let slot = node.0 as usize;
        if slot >= self.last_heartbeat.len() {
            self.last_heartbeat.resize(slot + 1, None);
        }
        self.last_heartbeat[slot] = Some(now);
    }

    // ------------------------------------------------------------------
    // CPU job plumbing
    // ------------------------------------------------------------------

    // jade-audit: allow(unbounded-growth): job_owner is a slab keyed by
    // JobId; on_cpu_complete and abort_node_jobs remove the entry when
    // the job finishes or its node dies, so residency equals in-flight
    // CPU jobs.
    pub(crate) fn submit_job(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        node: NodeId,
        owner: JobOwner,
        demand: SimDuration,
    ) {
        let id = JobId(self.job_owner.insert(owner).raw());
        if let Some(req) = owner.request() {
            if let Some(state) = self.inflight.get_mut(SlabKey::from_raw(req.0)) {
                state.jobs.push(id);
            }
        }
        if let Ok(n) = self.legacy.cluster.node_mut(node) {
            n.cpu.submit(ctx.now(), id, demand);
        }
        self.rearm_cpu(ctx, node);
    }

    /// Moves `node`'s one `CpuComplete` timer (keyed by `NodeId.0` in
    /// the kernel's keyed lane) to the CPU's next completion instant, or
    /// clears it when the CPU has nothing left to finish.
    pub(crate) fn rearm_cpu(&mut self, ctx: &mut Ctx<'_, Msg>, node: NodeId) {
        let next = self
            .legacy
            .cluster
            .node_mut(node)
            .ok()
            .and_then(|n| n.cpu.next_completion(ctx.now()));
        match next {
            Some(t) => ctx.arm_timer(node.0, t, jade_sim::Addr::ROOT, Msg::CpuComplete(node)),
            None => ctx.disarm_timer(node.0),
        }
    }

    // ------------------------------------------------------------------
    // Initial deployment (paper §3.3: interpretation of the ADL)
    // ------------------------------------------------------------------

    /// Synchronously processes the legacy outbox until it is empty —
    /// used during bootstrap, where boot and sync delays are folded into
    /// time zero (the paper's runs start with the system already up).
    #[cold]
    fn bootstrap_drain(&mut self) {
        for _ in 0..1000 {
            let events = self.legacy.drain_outbox();
            if events.is_empty() {
                return;
            }
            for (_, e) in events {
                match e {
                    LegacyEvent::ServerBooted(id) => {
                        let _ = self.legacy.finish_boot(id);
                    }
                    LegacyEvent::ReplayBatchDone { cjdbc, backend } => {
                        let _ = self.legacy.cjdbc_replay_batch_done(cjdbc, backend);
                    }
                    LegacyEvent::BackendActivated { .. }
                    | LegacyEvent::ServerStopped(_)
                    | LegacyEvent::ServerFailed(_) => {}
                }
            }
        }
        panic!("bootstrap did not converge");
    }

    /// Allocates a node and installs `package` on it, followed by the
    /// management daemon on a managed system.
    #[cold]
    fn allocate_and_install(&mut self, package: &str) -> NodeId {
        let node = self
            .legacy
            .cluster
            .allocate()
            .expect("initial deployment must fit the node pool");
        let daemon = self.cfg.jade.managed.then_some("jade-daemon");
        for pkg in std::iter::once(package).chain(daemon) {
            self.legacy
                .sis
                .install(&mut self.legacy.cluster, node, pkg)
                .expect("installation on a fresh node");
        }
        node
    }

    /// Creates a Tomcat replica (legacy process + management component)
    /// on `node`. The component is not started.
    #[cold]
    pub(crate) fn create_tomcat_replica(&mut self, node: NodeId) -> (ServerId, ComponentId) {
        self.tomcat_seq += 1;
        let name = format!("Tomcat{}", self.tomcat_seq);
        let server = self.legacy.create_tomcat(&name, node);
        let itfs = vec![
            InterfaceDecl::server("ajp", "ajp"),
            InterfaceDecl::optional_client("jdbc-itf", "jdbc"),
        ];
        let wrapper = Box::new(TomcatWrapper { server });
        let comp = self.adopt_server(&name, server, itfs, wrapper, Some(8098), self.app_tier);
        // Architectural record: this Tomcat talks JDBC to the C-JDBC
        // front-end (Figure 2's tier bindings).
        if let Some((_, cj_comp)) = self.cjdbc {
            let _ = self
                .registry
                .bind(&mut self.legacy, comp, "jdbc-itf", cj_comp, "jdbc");
        }
        (server, comp)
    }

    /// Creates an Apache replica on `node` (web tier, not started). Its
    /// mod_jk `ajp-itf` is a collection interface: one Apache may balance
    /// over several Tomcats (paper Figure 2).
    #[cold]
    pub(crate) fn create_apache_replica(&mut self, node: NodeId) -> (ServerId, ComponentId) {
        self.apache_seq += 1;
        let name = format!("Apache{}", self.apache_seq);
        let server = self.legacy.create_apache(&name, node);
        let itfs = vec![
            InterfaceDecl::server("http", "http"),
            InterfaceDecl::collection_client("ajp-itf", "ajp"),
        ];
        let wrapper = Box::new(jade_tiers::ApacheWrapper { server });
        let comp = self.adopt_server(&name, server, itfs, wrapper, Some(80), self.web_tier);
        (server, comp)
    }

    /// Creates a MySQL replica on `node` (dump restored, not started).
    #[cold]
    pub(crate) fn create_mysql_replica(&mut self, node: NodeId) -> (ServerId, ComponentId) {
        self.mysql_seq += 1;
        let name = format!("MySQL{}", self.mysql_seq);
        let server = self.legacy.create_mysql(&name, node);
        let itfs = vec![InterfaceDecl::server("mysql", "mysql")];
        let wrapper = Box::new(MysqlWrapper { server });
        let comp = self.adopt_server(&name, server, itfs, wrapper, Some(3306), self.db_tier);
        (server, comp)
    }

    /// Gives a freshly created server process its component: named after
    /// the process, tagged with its `server-id` (and `port`), contained
    /// in `parent`.
    #[cold]
    fn adopt_server(
        &mut self,
        name: &str,
        server: ServerId,
        interfaces: Vec<InterfaceDecl>,
        wrapper: Box<dyn jade_fractal::Wrapper<LegacyLayer> + Send + Sync>,
        port: Option<i64>,
        parent: ComponentId,
    ) -> ComponentId {
        let comp = self.registry.new_primitive(name, interfaces, wrapper);
        let attrs = std::iter::once(("server-id", server.0 as i64));
        for (attr, value) in attrs.chain(port.map(|p| ("port", p))) {
            self.registry
                .set_attr(&mut self.legacy, comp, attr, value)
                .expect("fresh component");
        }
        self.registry
            .add_child(parent, comp)
            .expect("tier composite");
        self.comp_of_server.insert(server, comp);
        comp
    }

    /// Adopts a fresh C-JDBC controller as the database tier's front-end.
    #[cold]
    pub(crate) fn adopt_cjdbc(&mut self, server: ServerId) -> ComponentId {
        let itfs = vec![
            InterfaceDecl::server("jdbc", "jdbc"),
            InterfaceDecl::collection_client("backends", "mysql"),
        ];
        let wrapper = Box::new(CjdbcWrapper { server });
        let comp = self.adopt_server("C-JDBC", server, itfs, wrapper, None, self.db_tier);
        self.cjdbc = Some((server, comp));
        comp
    }

    /// Adopts a fresh HTTP balancer: the PLB in front of the Tomcats, or
    /// (`is_plb` false) the L4 switch in front of the Apaches.
    #[cold]
    pub(crate) fn adopt_balancer(&mut self, server: ServerId, is_plb: bool) -> ComponentId {
        let (name, sig, parent) = if is_plb {
            ("PLB", "ajp", self.app_tier)
        } else {
            ("L4-switch", "http", self.web_tier)
        };
        let itfs = vec![
            InterfaceDecl::server("http", "http"),
            InterfaceDecl::collection_client("workers", sig),
        ];
        let wrapper = Box::new(BalancerWrapper { server });
        let comp = self.adopt_server(name, server, itfs, wrapper, None, parent);
        let front = if is_plb { &mut self.plb } else { &mut self.l4 };
        *front = Some((server, comp));
        comp
    }

    /// Deploys the initial architecture synchronously (bootstrap).
    #[cold]
    pub(crate) fn deploy_initial(&mut self) {
        // The base dump every MySQL replica restores.
        let mut dump_rng = jade_sim::SimRng::seed_from_u64(self.cfg.seed ^ 0xDA7A);
        let dump = dataset_statements(self.cfg.dataset, &mut dump_rng);
        self.legacy.set_mysql_dump(rubis_schema(), dump);

        // C-JDBC controller.
        let cj_node = self.allocate_and_install("cjdbc");
        let cj_server =
            self.legacy
                .create_cjdbc("C-JDBC", cj_node, self.cfg.description.database.read_policy);
        let cj_comp = self.adopt_cjdbc(cj_server);

        // PLB front-end.
        let plb_node = self.allocate_and_install("plb");
        let plb_server = self.legacy.create_plb(
            "PLB",
            plb_node,
            self.cfg.description.application.balance_policy,
        );
        let plb_comp = self.adopt_balancer(plb_server, true);

        // Initial replicas.
        let mut tomcats = Vec::new();
        for _ in 0..self.cfg.description.application.replicas {
            let node = self.allocate_and_install("tomcat");
            tomcats.push(self.create_tomcat_replica(node));
        }
        let mut mysqls = Vec::new();
        for _ in 0..self.cfg.description.database.replicas {
            let node = self.allocate_and_install("mysql");
            mysqls.push(self.create_mysql_replica(node));
        }

        // Optional static web tier: an L4 switch in front of replicated
        // Apache servers (paper Figure 2).
        let mut apaches = Vec::new();
        if let Some(web) = self.cfg.description.web {
            let l4_node = self.allocate_and_install("plb"); // same software class
            let l4_server = self
                .legacy
                .create_l4switch("L4-switch", l4_node, web.balance_policy);
            self.adopt_balancer(l4_server, false);
            for _ in 0..web.replicas {
                let node = self.allocate_and_install("apache");
                apaches.push(self.create_apache_replica(node));
            }
        }

        // Start everything (boot events folded into t=0)…
        self.registry
            .start(&mut self.legacy, cj_comp)
            .expect("start C-JDBC");
        self.registry
            .start(&mut self.legacy, plb_comp)
            .expect("start PLB");
        if let Some((_, l4_comp)) = self.l4 {
            self.registry
                .start(&mut self.legacy, l4_comp)
                .expect("start L4 switch");
        }
        for &(_, comp) in tomcats.iter().chain(mysqls.iter()).chain(apaches.iter()) {
            self.registry
                .start(&mut self.legacy, comp)
                .expect("start replica");
        }
        self.bootstrap_drain();

        // …then wire the tiers. Binding a running MySQL triggers its
        // (empty) recovery-log replay; drain again to activate.
        for &(_, comp) in &mysqls {
            self.registry
                .bind(&mut self.legacy, cj_comp, "backends", comp, "mysql")
                .expect("bind backend");
        }
        self.bootstrap_drain();
        for &(_, comp) in &tomcats {
            self.registry
                .bind(&mut self.legacy, plb_comp, "workers", comp, "ajp")
                .expect("bind worker");
        }
        // Web tier wiring: L4 → Apaches, each Apache → every Tomcat
        // (mod_jk balances across the servlet replicas).
        if let Some((_, l4_comp)) = self.l4 {
            for &(_, apache_comp) in &apaches {
                self.registry
                    .bind(&mut self.legacy, l4_comp, "workers", apache_comp, "http")
                    .expect("bind apache worker");
                for &(_, tomcat_comp) in &tomcats {
                    self.registry
                        .bind(&mut self.legacy, apache_comp, "ajp-itf", tomcat_comp, "ajp")
                        .expect("bind mod_jk worker");
                }
            }
        }
        self.bootstrap_drain();
        // Mark the composites started (children are already running, so
        // the cascade is idempotent); the architecture then introspects
        // as one started composite, as in the paper's Figure 2.
        self.registry
            .start(&mut self.legacy, self.root)
            .expect("start root composite");
        self.bootstrap_drain();
    }

    #[cold]
    fn bootstrap(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.deploy_initial();
        ctx.send_now(jade_sim::Addr::ROOT, Msg::RampTick);
        if let crate::config::ClientMode::Aggregate { tick } = self.cfg.client_mode {
            ctx.send_after_coarse(tick, jade_sim::Addr::ROOT, Msg::PoolTick);
        }
        ctx.send_after_coarse(
            self.cfg.jade.probe_period,
            jade_sim::Addr::ROOT,
            Msg::MeasureTick,
        );
        for i in 0..self.managers.len() {
            ctx.send_after_coarse(
                self.cfg.jade.probe_period,
                jade_sim::Addr::ROOT,
                Msg::SensorTick(i),
            );
        }
        if self.cfg.jade.managed && self.cfg.jade.self_repair {
            ctx.send_after_coarse(
                self.cfg.jade.probe_period,
                jade_sim::Addr::ROOT,
                Msg::DetectorTick,
            );
        }
    }

    // ------------------------------------------------------------------
    // Introspection used by experiments and tests
    // ------------------------------------------------------------------

    /// Number of running replicas of a managed tier.
    pub fn running_replicas(&self, tier: ManagedTier) -> usize {
        self.legacy.running_count_of(tier.tier())
    }

    /// Total nodes currently allocated.
    pub fn allocated_nodes(&self) -> usize {
        self.legacy.cluster.allocated().len()
    }

    /// Renders the managed architecture (including Jade itself).
    pub fn render_architecture(&self) -> String {
        self.registry.render_tree(self.root)
    }
}

impl App for J2eeApp {
    type Msg = Msg;

    #[jade_hot::jade_hot]
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, _dst: jade_sim::Addr, msg: Msg) {
        match msg {
            Msg::Bootstrap => self.bootstrap(ctx),
            Msg::RampTick => self.on_ramp_tick(ctx),
            Msg::MeasureTick => self.on_measure_tick(ctx),
            Msg::ClientThink(c) => self.on_client_think(ctx, c),
            Msg::PoolTick => self.on_pool_tick(ctx),
            Msg::PoolDispatch {
                bucket,
                interaction,
            } => self.on_pool_dispatch(ctx, bucket, interaction),
            Msg::ApacheAccept { req, apache } => self.on_apache_accept(ctx, req, apache),
            Msg::TomcatAccept { req, tomcat } => self.on_tomcat_accept(ctx, req, tomcat),
            Msg::DbDispatch { req } => self.on_db_dispatch(ctx, req),
            Msg::CpuComplete(node) => self.on_cpu_complete(ctx, node),
            Msg::ResponseDelivered { req } => self.on_response(ctx, req),
            Msg::ClientAbandon { req } => self.on_client_abandon(ctx, req),
            Msg::Legacy(e) => self.on_legacy_event(ctx, e),
            Msg::SensorTick(i) => self.on_sensor_tick(ctx, i),
            Msg::DetectorTick => self.on_detector_tick(ctx),
            Msg::DeployStep { server } => self.on_deploy_step(ctx, server),
            Msg::UndeployStop { server } => self.on_undeploy_stop(ctx, server),
            Msg::RollingRestart(tier) => self.start_rolling_restart(ctx, tier),
            Msg::RollingNext => self.on_rolling_next(ctx),
            Msg::RollingStop { server } => self.on_rolling_stop(ctx, server),
            Msg::CrashNode(node) => self.on_crash_node(ctx, node),
            Msg::FailServer(server) => {
                let _ = self.legacy.fail_server(server);
                self.flush_legacy_outbox(ctx);
            }
        }
    }
}
