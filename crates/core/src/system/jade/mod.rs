//! Jade: the management layer of the managed system (paper §3).
//!
//! [`Jade`] owns the component registry, the front-ends and replicas it
//! deployed, its own managers (components too, "Jade administrates
//! itself", §3.4), the reconfiguration table, the arbitrator, the rolling
//! restart, the heartbeat table and the probe buffers. It sees the legacy
//! layer only through sensors and wrapper controllers, and the request
//! path only through the crossings `Requests` offers. Its handlers are
//! spread over `manage` (probes, control loops, actuators, repair),
//! `admin` (the rolling restart) and `reconfig` (the table).

mod admin;
mod manage;
mod reconfig;

pub use reconfig::{ReconfigKind, ReconfigPhase, Reconfiguration};

use super::{FrontEnds, HotMetricIds, ManagedTier, Shared};
use crate::arbitration::Arbitrator;
use crate::config::SystemConfig;
use crate::control::{AdaptiveThresholds, CpuAvgSensor, InhibitionWindow, ThresholdReactor};
use jade_cluster::{ClusterError, NodeId};
use jade_fractal::{ComponentId, InterfaceDecl, Registry};
use jade_rubis::load_dataset;
use jade_sim::{SimDuration, SimTime};
use jade_tiers::{LegacyEvent, LegacyLayer, ServerId, ServerWrapper};
use std::collections::BTreeMap;

/// The management daemon every managed node runs (Table 1's intrusivity).
const DAEMON: &str = "jade-daemon";

/// One tier's self-optimization control loop (sensor + reactor; the
/// actuator is the scale-up/down workflow of `manage`).
#[derive(Clone, Debug)]
struct TierManager {
    /// CPU sensor with the tier's smoothing window.
    sensor: CpuAvgSensor,
    /// Threshold decision logic.
    reactor: ThresholdReactor,
    /// Optional adaptive thresholds (paper §7 extension).
    adaptive: Option<AdaptiveThresholds>,
}

/// The management layer and its autonomic managers.
#[derive(Clone)]
pub struct Jade {
    registry: Registry<LegacyLayer, ServerWrapper>,
    /// Root composite of the managed architecture.
    root: ComponentId,
    /// Composite holding the (optional) static web tier.
    web_tier: ComponentId,
    /// Composite holding the application tier.
    app_tier: ComponentId,
    /// Composite holding the database tier.
    db_tier: ComponentId,
    /// L4 switch front-end (web-tier topologies), PLB front-end and
    /// C-JDBC controller, each `(server, component)`.
    l4: Option<(ServerId, ComponentId)>,
    plb: Option<(ServerId, ComponentId)>,
    cjdbc: Option<(ServerId, ComponentId)>,
    comp_of_server: BTreeMap<ServerId, ComponentId>,
    tomcat_seq: u32,
    mysql_seq: u32,
    /// The self-optimization managers, indexed by `tier as usize`.
    managers: [TierManager; 2],
    inhibition: InhibitionWindow,
    /// The policy-arbitration manager, when enabled (paper §7).
    arbitrator: Option<Arbitrator>,
    /// In-flight reconfigurations, one slot per managed tier.
    reconfigs: [Option<Reconfiguration>; 2],
    /// A rolling restart in progress, if any (its steps are operations
    /// of `reconfigs`).
    rolling: Option<admin::RollingRestart>,
    /// Each tier's latest spatial CPU average, the sensors' input.
    latest_cpu: [f64; 2],
    /// Last heartbeat received from each node's management daemon,
    /// indexed densely by `NodeId.0` (the node pool is fixed at
    /// configuration time; `None` = never heard from).
    last_heartbeat: Vec<Option<SimTime>>,
    /// Recycled dense per-node CPU sample array of the probe tick:
    /// `probe_samples[i]` is the utilization of `NodeId(i)`.
    probe_samples: Vec<f64>,
    /// Recycled node-id list of each tier (probe tick).
    probe_nodes: [Vec<NodeId>; 2],
    /// Recycled allocated-node list (probe tick).
    probe_allocated: Vec<NodeId>,
    /// Interned metric handles for the probe tick (lazy).
    hot_ids: Option<HotMetricIds>,
}

/// Synchronously processes the legacy outbox until it is empty — used
/// during bootstrap, where boot and sync delays are folded into time zero
/// (the paper's runs start with the system already up).
#[cold]
fn bootstrap_drain(legacy: &mut LegacyLayer) {
    for _ in 0..1000 {
        let events = legacy.drain_outbox();
        if events.is_empty() {
            return;
        }
        for (_, e) in events {
            match e {
                LegacyEvent::ServerBooted(id) => {
                    let _ = legacy.finish_boot(id);
                }
                LegacyEvent::ReplayBatchDone { cjdbc, backend } => {
                    let _ = legacy.cjdbc_replay_batch_done(cjdbc, backend);
                }
                LegacyEvent::BackendActivated { .. }
                | LegacyEvent::ServerStopped(_)
                | LegacyEvent::ServerFailed(_) => {}
            }
        }
    }
    panic!("bootstrap did not converge");
}

/// Takes a free node and installs `package` on it, followed by the
/// management daemon on a managed system: the one way Jade takes a node.
/// Returns the node and the installation latency; a failed install gives
/// the node back through [`release_node`].
#[cold]
fn take_node(
    legacy: &mut LegacyLayer,
    managed: bool,
    package: &str,
) -> Result<(NodeId, SimDuration), ClusterError> {
    let node = legacy.cluster.allocate()?;
    let mut latency = SimDuration::ZERO;
    for pkg in std::iter::once(package).chain(managed.then_some(DAEMON)) {
        match legacy.sis.install(&mut legacy.cluster, node, pkg) {
            Ok(l) => latency += l,
            Err(e) => {
                release_node(legacy, node, package);
                return Err(e);
            }
        }
    }
    Ok((node, latency))
}

/// Gives a node back to the pool ("release the nodes hosting these
/// replicas if no longer used", §4.1): uninstalls `package` and the
/// management daemon, then releases it. Removing an absent package is a
/// no-op, and releasing a node twice errs harmlessly.
#[cold]
fn release_node(legacy: &mut LegacyLayer, node: NodeId, package: &str) {
    for pkg in [package, DAEMON] {
        let _ = legacy.sis.uninstall(&mut legacy.cluster, node, pkg);
    }
    let _ = legacy.cluster.release(node);
}

impl Jade {
    /// The management layer of a not yet deployed system: the tier
    /// composites and Jade's own managers.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        let mut registry: Registry<LegacyLayer, ServerWrapper> = Registry::new();
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
        let managers = [
            ("self-optimization-app", cfg.jade.app_loop),
            ("self-optimization-db", cfg.jade.db_loop),
        ]
        .map(|(name, loop_cfg)| {
            let mgr_comp = registry.new_composite(name, vec![]);
            for part in ["sensor", "reactor", "actuator"] {
                let c = registry.new_primitive(&format!("{name}.{part}"), vec![], None);
                registry.add_child(mgr_comp, c).expect("fresh manager part");
            }
            registry.add_child(jade_root, mgr_comp).expect("fresh");
            let reactor = ThresholdReactor::new(
                loop_cfg.min_threshold,
                loop_cfg.max_threshold,
                loop_cfg.min_replicas,
                loop_cfg.max_replicas,
            );
            TierManager {
                sensor: CpuAvgSensor::with_period(loop_cfg.window, cfg.jade.probe_period),
                reactor,
                adaptive: cfg.jade.adaptive.then(|| AdaptiveThresholds::new(reactor)),
            }
        });

        Jade {
            registry,
            root,
            web_tier,
            app_tier,
            db_tier,
            l4: None,
            plb: None,
            cjdbc: None,
            comp_of_server: BTreeMap::new(),
            tomcat_seq: 0,
            mysql_seq: 0,
            managers,
            inhibition: InhibitionWindow::new(cfg.jade.inhibition),
            arbitrator: cfg.jade.arbitration.then(Arbitrator::new),
            reconfigs: [None; 2],
            rolling: None,
            latest_cpu: [0.0; 2],
            last_heartbeat: Vec::new(),
            probe_samples: Vec::new(),
            probe_nodes: [Vec::new(), Vec::new()],
            probe_allocated: Vec::new(),
            hot_ids: None,
        }
    }

    // ------------------------------------------------------------------
    // Introspection used by experiments and tests
    // ------------------------------------------------------------------

    /// The component registry: the managed architecture and Jade's own.
    pub fn registry(&self) -> &Registry<LegacyLayer, ServerWrapper> {
        &self.registry
    }

    /// The PLB front-end `(server, component)`.
    pub fn plb(&self) -> Option<(ServerId, ComponentId)> {
        self.plb
    }

    /// The C-JDBC controller `(server, component)`.
    pub fn cjdbc(&self) -> Option<(ServerId, ComponentId)> {
        self.cjdbc
    }

    /// The policy-arbitration manager, when enabled (paper §7).
    pub fn arbitrator(&self) -> Option<&Arbitrator> {
        self.arbitrator.as_ref()
    }

    /// Renders the managed architecture (including Jade itself).
    pub fn render_architecture(&self) -> String {
        self.registry.render_tree(self.root)
    }

    /// The front-ends requests enter through.
    pub(crate) fn front_ends(&self) -> FrontEnds {
        FrontEnds {
            l4: self.l4.map(|(s, _)| s),
            plb: self.plb.map(|(s, _)| s),
            cjdbc: self.cjdbc.map(|(s, _)| s),
        }
    }

    // ------------------------------------------------------------------
    // Deployment (paper §3.3: interpretation of the ADL)
    // ------------------------------------------------------------------

    /// Creates a replica of `tier` (legacy process + management
    /// component) on `node`, not started. A MySQL replica restores the
    /// dump; a Tomcat records its JDBC binding to the C-JDBC front-end
    /// (Figure 2's tier bindings).
    #[cold]
    fn create_replica(
        &mut self,
        legacy: &mut LegacyLayer,
        tier: ManagedTier,
        node: NodeId,
    ) -> (ServerId, ComponentId) {
        let server = if tier == ManagedTier::Database {
            self.mysql_seq += 1;
            legacy.create_mysql(&format!("MySQL{}", self.mysql_seq), node)
        } else {
            self.tomcat_seq += 1;
            legacy.create_tomcat(&format!("Tomcat{}", self.tomcat_seq), node)
        };
        let comp = self.adopt(legacy, server);
        if let (ManagedTier::Application, Some((_, cj_comp))) = (tier, self.cjdbc) {
            let _ = self
                .registry
                .bind(legacy, comp, "jdbc-itf", cj_comp, "jdbc");
        }
        (server, comp)
    }

    /// Gives a freshly created server process its component (§3.2's
    /// wrapper): named after the process, with its kind's interfaces,
    /// tagged with its `server-id` (and `port`), contained in its tier's
    /// composite. A C-JDBC, PLB or L4 switch becomes its tier's
    /// front-end. Apache's mod_jk `ajp-itf` is a collection interface:
    /// one Apache may balance over several Tomcats (Figure 2).
    #[cold]
    fn adopt(&mut self, legacy: &mut LegacyLayer, server: ServerId) -> ComponentId {
        use jade_tiers::LegacyServer as Kind;
        use InterfaceDecl as Itf;
        let sv = legacy.server(server).expect("freshly created server");
        let name = &sv.process().name;
        let (itf, client, parent) = match sv {
            Kind::Apache(_) => ("http", Some(("ajp-itf", "ajp")), self.web_tier),
            Kind::Tomcat(_) => ("ajp", Some(("jdbc-itf", "jdbc")), self.app_tier),
            Kind::Mysql(_) => ("mysql", None, self.db_tier),
            Kind::Cjdbc { .. } => ("jdbc", Some(("backends", "mysql")), self.db_tier),
            Kind::Plb { .. } => ("http", Some(("workers", "ajp")), self.app_tier),
            Kind::L4Switch { .. } => ("http", Some(("workers", "http")), self.web_tier),
        };
        let port = sv.port_attr();
        // A Tomcat may run without a database front-end; every other
        // client interface is a collection.
        let client = client.map(|(name, sig)| match sv {
            Kind::Tomcat(_) => Itf::optional_client(name, sig),
            _ => Itf::collection_client(name, sig),
        });
        let itfs = std::iter::once(Itf::server(itf, itf))
            .chain(client)
            .collect();
        let front = match sv {
            Kind::Cjdbc { .. } => Some(&mut self.cjdbc),
            Kind::Plb { .. } => Some(&mut self.plb),
            Kind::L4Switch { .. } => Some(&mut self.l4),
            _ => None,
        };
        let comp = self
            .registry
            .new_primitive(name, itfs, ServerWrapper { server });
        if let Some(front) = front {
            *front = Some((server, comp));
        }
        let attrs = std::iter::once(("server-id", server.0 as i64));
        for (attr, value) in attrs.chain(port.map(|p| ("port", i64::from(p)))) {
            self.registry
                .set_attr(legacy, comp, attr, value)
                .expect("fresh component");
        }
        self.registry
            .add_child(parent, comp)
            .expect("tier composite");
        self.comp_of_server.insert(server, comp);
        comp
    }

    /// Deploys the initial architecture synchronously (bootstrap).
    #[cold]
    pub(crate) fn deploy_initial(&mut self, sh: &mut Shared<'_, '_>) {
        let (cfg, legacy) = (sh.cfg, &mut *sh.legacy);
        let take = |legacy: &mut LegacyLayer, package: &str| {
            take_node(legacy, cfg.jade.managed, package)
                .expect("initial deployment must fit the node pool")
                .0
        };
        // The base image every MySQL replica restores.
        let mut dump_rng = jade_sim::SimRng::seed_from_u64(cfg.seed ^ 0xDA7A);
        legacy.set_mysql_base(load_dataset(cfg.dataset, &mut dump_rng));

        // C-JDBC controller.
        let cj_node = take(legacy, "cjdbc");
        let cj_server =
            legacy.create_cjdbc("C-JDBC", cj_node, cfg.description.database.read_policy);
        let cj_comp = self.adopt(legacy, cj_server);

        // PLB front-end.
        let plb_node = take(legacy, "plb");
        let plb_server =
            legacy.create_plb("PLB", plb_node, cfg.description.application.balance_policy);
        let plb_comp = self.adopt(legacy, plb_server);

        // Initial replicas.
        let mut tomcats = Vec::new();
        for _ in 0..cfg.description.application.replicas {
            let node = take(legacy, "tomcat");
            tomcats.push(self.create_replica(legacy, ManagedTier::Application, node));
        }
        let mut mysqls = Vec::new();
        for _ in 0..cfg.description.database.replicas {
            let node = take(legacy, "mysql");
            mysqls.push(self.create_replica(legacy, ManagedTier::Database, node));
        }

        // Optional static web tier: an L4 switch in front of replicated
        // Apache servers (paper Figure 2).
        let mut apaches = Vec::new();
        if let Some(web) = cfg.description.web {
            let l4_node = take(legacy, "plb"); // same software class
            let l4_server = legacy.create_l4switch("L4-switch", l4_node, web.balance_policy);
            self.adopt(legacy, l4_server);
            for n in 1..=web.replicas {
                let node = take(legacy, "apache");
                let server = legacy.create_apache(&format!("Apache{n}"), node);
                apaches.push((server, self.adopt(legacy, server)));
            }
        }

        // Start everything (boot events folded into t=0)…
        let fronts = [Some(cj_comp), Some(plb_comp), self.l4.map(|(_, c)| c)];
        let replicas = tomcats.iter().chain(&mysqls).chain(&apaches);
        for comp in fronts
            .into_iter()
            .flatten()
            .chain(replicas.map(|&(_, c)| c))
        {
            self.registry
                .start(legacy, comp)
                .expect("start deployed component");
        }
        bootstrap_drain(legacy);

        // …then wire the tiers. Binding a running MySQL triggers its
        // (empty) recovery-log replay; drain again to activate.
        for &(_, comp) in &mysqls {
            self.registry
                .bind(legacy, cj_comp, "backends", comp, "mysql")
                .expect("bind backend");
        }
        bootstrap_drain(legacy);
        for &(_, comp) in &tomcats {
            self.registry
                .bind(legacy, plb_comp, "workers", comp, "ajp")
                .expect("bind worker");
        }
        // Web tier wiring: L4 → Apaches, each Apache → every Tomcat
        // (mod_jk balances across the servlet replicas).
        if let Some((_, l4_comp)) = self.l4 {
            for &(_, apache_comp) in &apaches {
                self.registry
                    .bind(legacy, l4_comp, "workers", apache_comp, "http")
                    .expect("bind apache worker");
                for &(_, tomcat_comp) in &tomcats {
                    self.registry
                        .bind(legacy, apache_comp, "ajp-itf", tomcat_comp, "ajp")
                        .expect("bind mod_jk worker");
                }
            }
        }
        bootstrap_drain(legacy);
        // Mark the composites started (children are already running, so
        // the cascade is idempotent); the architecture then introspects
        // as one started composite, as in the paper's Figure 2.
        self.registry
            .start(legacy, self.root)
            .expect("start root composite");
        bootstrap_drain(legacy);
    }
}

#[cfg(test)]
mod tests {
    //! Jade driven alone: the system's own entry points with an empty
    //! request path (no client ever arrives), each tier's sensed load
    //! pinned to a synthetic value, heartbeats from the probe tick (or
    //! their absence after a node crash) and `LegacyEvent`s from injected
    //! failures.

    use super::*;
    use crate::system::{J2eeApp, Msg};
    use jade_rubis::WorkloadRamp;
    use jade_sim::{Addr, App, Ctx, Engine};
    use jade_tiers::Tier;

    /// The managed system with each tier's sensed CPU load pinned: after
    /// every event the probe tick's measurement is overwritten by `loads`.
    struct LoadPinned {
        app: J2eeApp,
        loads: [f64; 2],
    }

    impl App for LoadPinned {
        type Msg = Msg;
        fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, dst: Addr, msg: Msg) {
            self.app.handle(ctx, dst, msg);
            self.app.jade.latest_cpu = self.loads;
        }
    }

    /// A bootstrapped managed system without clients whose sensors read
    /// `loads` (application, database).
    fn jade_rig(tune: impl FnOnce(&mut SystemConfig), loads: [f64; 2]) -> Engine<LoadPinned> {
        let mut cfg = SystemConfig::paper_managed();
        cfg.ramp = WorkloadRamp::constant(0);
        tune(&mut cfg);
        let seed = cfg.seed;
        let app = J2eeApp::new(cfg);
        let mut eng = Engine::new(LoadPinned { app, loads }, seed);
        eng.schedule(SimTime::ZERO, Addr::ROOT, Msg::Bootstrap);
        eng
    }

    /// Two Tomcats held at two by their bounds, with both tiers' loads
    /// inside their bands: a rolling restart is the only operation.
    fn two_tomcats(cfg: &mut SystemConfig) {
        cfg.description.application.replicas = 2;
        cfg.jade.app_loop.min_replicas = 2;
        cfg.jade.app_loop.max_replicas = 2;
    }

    /// A replica that fails while its rolling step drains aborts the step
    /// at once: the table frees, and the restart ends with one replica
    /// left.
    #[test]
    fn rolling_step_aborts_when_its_draining_replica_fails() {
        let mut eng = jade_rig(two_tomcats, [0.5, 0.5]);
        let tier = ManagedTier::Application;
        eng.schedule(
            SimTime::from_secs(10),
            Addr::ROOT,
            Msg::RollingRestart(tier),
        );
        eng.run_until(SimTime::from_secs(11));
        let op = *eng.app().app.jade.in_flight(tier).expect("a step drains");
        assert_eq!(op.kind, ReconfigKind::RollingStep);
        assert_eq!(op.phase, ReconfigPhase::Draining);
        eng.schedule(
            SimTime::from_secs(12),
            Addr::ROOT,
            Msg::FailServer(op.server),
        );
        eng.run_until(SimTime::from_secs(12));
        let app = &eng.app().app;
        let log = &app.reconfig_log;
        assert_eq!(app.jade.in_flight(tier), None, "{log:?}");
        assert_eq!(eng.metrics().counter("reconfig.aborted"), 1, "{log:?}");
        assert_eq!(
            log.last().map(|(t, l)| (t.as_secs_f64(), l.as_str())),
            Some((
                12.0,
                "rolling restart of Application complete: 0 replicas bounced"
            ))
        );
        assert_eq!(app.stats.total_completed() + app.stats.total_failed(), 0);
    }

    /// Under arbitration the database manager queues a second scale-up
    /// while its first one deploys; the load then falls back into the
    /// band, so when the pump reaches the request its manager no longer
    /// decides it, and it is dropped as stale instead of run.
    #[test]
    fn queued_resize_is_dropped_once_its_manager_stops_deciding_it() {
        let mut eng = jade_rig(
            |cfg| {
                cfg.jade.arbitration = true;
                cfg.jade.db_loop.window = SimDuration::from_secs(2);
            },
            [0.5, 0.9],
        );
        eng.run_until(SimTime::from_secs(5));
        let jade = &eng.app().app.jade;
        let op = jade
            .in_flight(ManagedTier::Database)
            .expect("first scale-up");
        assert_eq!(op.phase, ReconfigPhase::Installing);
        assert_eq!(jade.arbitrator().map(Arbitrator::pending), Some(1));
        eng.app_mut().loads = [0.5, 0.5];
        eng.run_until(SimTime::from_secs(120));
        let app = &eng.app().app;
        let log = &app.reconfig_log;
        let scale_ups = log
            .iter()
            .filter(|(_, l)| l.starts_with("scale-up"))
            .count();
        assert_eq!(scale_ups, 1, "{log:?}");
        assert_eq!(eng.metrics().counter("arbitration.stale"), 1, "{log:?}");
        assert_eq!(app.jade.arbitrator().map(Arbitrator::pending), Some(0));
        assert!(!app.jade.reconfiguring());
        assert_eq!(app.running_replicas(ManagedTier::Database), 2);
    }

    /// The node of the Tomcat not being bounced crashes during a rolling
    /// step. Its heartbeat stops, so the repair comes once the failure
    /// timeout has passed, while the step still holds the tier: the
    /// redeploy is owed and starts the instant the step ends.
    #[test]
    fn replica_lost_beside_a_rolling_step_is_redeployed_when_it_ends() {
        let mut eng = jade_rig(
            |cfg| {
                two_tomcats(cfg);
                cfg.jade.self_repair = true;
            },
            [0.5, 0.5],
        );
        let tier = ManagedTier::Application;
        eng.schedule(
            SimTime::from_secs(10),
            Addr::ROOT,
            Msg::RollingRestart(tier),
        );
        eng.run_until(SimTime::from_secs(11));
        let app = &eng.app().app;
        let bounced = app.jade.in_flight(tier).expect("a step drains").server;
        let lost = app
            .legacy
            .running_servers_of(Tier::Application)
            .into_iter()
            .find(|&s| s != bounced)
            .expect("a second Tomcat");
        let node = app.legacy.server(lost).expect("lost").process().node;
        eng.schedule(SimTime::from_secs(11), Addr::ROOT, Msg::CrashNode(node));
        eng.run_until(SimTime::from_secs(60));
        let app = &eng.app().app;
        let log = &app.reconfig_log;
        let at = |line: &str| {
            log.iter()
                .find(|(_, l)| l.contains(line))
                .map(|(t, _)| t.as_secs_f64())
                .unwrap_or_else(|| panic!("no {line:?} in {log:?}"))
        };
        let timeout = app.cfg.jade.failure_timeout.as_secs_f64();
        assert_eq!(at("self-recovery: repairing"), 11.0 + timeout, "{log:?}");
        let back = at("back in rotation");
        assert_eq!(at("scale-up Application: deploying"), back, "{log:?}");
        assert!(log
            .iter()
            .any(|(_, l)| l == "rolling restart of Application complete: 1 replicas bounced"));
        assert_eq!(app.running_replicas(tier), 2, "{log:?}");
        assert_eq!(eng.metrics().counter("reconfig.aborted"), 0);
    }
}
