//! The legacy layer: every server process of the J2EE architecture plus
//! the cluster substrate, aggregated behind one value.
//!
//! This is the environment type `E` that the Fractal wrappers
//! ([`crate::wrappers`]) reflect control operations onto — the Rust
//! counterpart of the JVM processes, shell scripts and configuration files
//! Jade manipulated. The simulation application (jade-core) owns a
//! [`LegacyLayer`] and routes virtual-time events through it.
//!
//! Operations that take real time (server boot, recovery-log replay) do
//! not block: they push a delayed [`LegacyEvent`] into an outbox that the
//! enclosing simulation drains into its event queue.

use crate::apache::ApacheServer;
use crate::balancer::{BalancePolicy, HttpBalancer};
use crate::cjdbc::{BackendStatus, CjdbcController, CjdbcError, ReadPolicy};
use crate::mysql::MysqlServer;
use crate::recovery::SyncPlan;
use crate::server::{ServerId, ServerProcess, ServerState, Tier};
use crate::tomcat::TomcatServer;
use jade_cluster::{ClusterManager, Network, NodeId, SoftwareInstallationService};
use jade_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One legacy server process of any tier.
#[derive(Debug)]
pub enum LegacyServer {
    /// Apache httpd.
    Apache(ApacheServer),
    /// Tomcat servlet container.
    Tomcat(TomcatServer),
    /// MySQL replica.
    Mysql(MysqlServer),
    /// C-JDBC database load balancer + consistency manager.
    Cjdbc {
        /// Common process state.
        process: ServerProcess,
        /// JDBC listen port.
        port: u16,
        /// Controller state (membership, recovery log, scheduling).
        ctrl: CjdbcController,
        /// CPU demand on the C-JDBC node to route one query.
        routing_demand: SimDuration,
    },
    /// PLB HTTP load balancer.
    Plb {
        /// Common process state.
        process: ServerProcess,
        /// HTTP listen port.
        port: u16,
        /// Worker rotation.
        balancer: HttpBalancer,
    },
    /// L4 switch in front of replicated Apache servers.
    L4Switch {
        /// Common process state.
        process: ServerProcess,
        /// Worker rotation.
        balancer: HttpBalancer,
    },
}

impl LegacyServer {
    /// Common process record.
    pub fn process(&self) -> &ServerProcess {
        match self {
            LegacyServer::Apache(s) => &s.process,
            LegacyServer::Tomcat(s) => &s.process,
            LegacyServer::Mysql(s) => &s.process,
            LegacyServer::Cjdbc { process, .. } => process,
            LegacyServer::Plb { process, .. } => process,
            LegacyServer::L4Switch { process, .. } => process,
        }
    }

    /// Mutable process record.
    pub fn process_mut(&mut self) -> &mut ServerProcess {
        match self {
            LegacyServer::Apache(s) => &mut s.process,
            LegacyServer::Tomcat(s) => &mut s.process,
            LegacyServer::Mysql(s) => &mut s.process,
            LegacyServer::Cjdbc { process, .. } => process,
            LegacyServer::Plb { process, .. } => process,
            LegacyServer::L4Switch { process, .. } => process,
        }
    }

    /// Software package implementing this server.
    pub fn package(&self) -> &'static str {
        match self {
            LegacyServer::Apache(_) => "apache",
            LegacyServer::Tomcat(_) => "tomcat",
            LegacyServer::Mysql(_) => "mysql",
            LegacyServer::Cjdbc { .. } => "cjdbc",
            LegacyServer::Plb { .. } => "plb",
            LegacyServer::L4Switch { .. } => "plb", // same class of software
        }
    }

    /// Listen port, where meaningful.
    pub fn port(&self) -> u16 {
        match self {
            LegacyServer::Apache(s) => s.port,
            LegacyServer::Tomcat(s) => s.port,
            LegacyServer::Mysql(s) => s.port,
            LegacyServer::Cjdbc { port, .. } => *port,
            LegacyServer::Plb { port, .. } => *port,
            LegacyServer::L4Switch { .. } => 80,
        }
    }
}

/// Deferred consequences of legacy operations, delivered by the enclosing
/// simulation after the given delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegacyEvent {
    /// A starting server finished booting (caller must invoke
    /// [`LegacyLayer::finish_boot`]).
    ServerBooted(ServerId),
    /// A server stopped; in-flight requests on it are lost.
    ServerStopped(ServerId),
    /// A server failed (crash).
    ServerFailed(ServerId),
    /// A recovery-log replay batch finished transferring/executing; the
    /// caller must invoke [`LegacyLayer::cjdbc_replay_batch_done`].
    ReplayBatchDone {
        /// The C-JDBC controller server.
        cjdbc: ServerId,
        /// The backend being synchronized.
        backend: ServerId,
    },
    /// A backend finished state reconciliation and is now active.
    BackendActivated {
        /// The C-JDBC controller server.
        cjdbc: ServerId,
        /// The newly active backend.
        backend: ServerId,
    },
}

/// Errors from legacy-layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LegacyError {
    /// Unknown server id.
    NoSuchServer(ServerId),
    /// The server is the wrong kind for the operation.
    WrongKind(ServerId),
    /// Life-cycle violation.
    BadState(ServerId, ServerState),
    /// Required software not installed on the node.
    NotInstalled(ServerId, &'static str),
    /// Node is down.
    NodeDown(NodeId),
    /// Forwarded C-JDBC error.
    Cjdbc(CjdbcError),
    /// Forwarded balancer error.
    Balancer(crate::balancer::BalancerError),
    /// Forwarded cluster error.
    Cluster(jade_cluster::ClusterError),
}

impl std::fmt::Display for LegacyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LegacyError::NoSuchServer(id) => write!(f, "no such server {id:?}"),
            LegacyError::WrongKind(id) => write!(f, "server {id:?} has the wrong kind"),
            LegacyError::BadState(id, s) => write!(f, "server {id:?} is in state {s:?}"),
            LegacyError::NotInstalled(id, pkg) => {
                write!(f, "server {id:?}: package '{pkg}' is not installed")
            }
            LegacyError::NodeDown(n) => write!(f, "node {n:?} is down"),
            LegacyError::Cjdbc(e) => write!(f, "c-jdbc: {e}"),
            LegacyError::Balancer(e) => write!(f, "balancer: {e}"),
            LegacyError::Cluster(e) => write!(f, "cluster: {e}"),
        }
    }
}

impl std::error::Error for LegacyError {}

impl From<CjdbcError> for LegacyError {
    fn from(e: CjdbcError) -> Self {
        LegacyError::Cjdbc(e)
    }
}
impl From<crate::balancer::BalancerError> for LegacyError {
    fn from(e: crate::balancer::BalancerError) -> Self {
        LegacyError::Balancer(e)
    }
}
impl From<jade_cluster::ClusterError> for LegacyError {
    fn from(e: jade_cluster::ClusterError) -> Self {
        LegacyError::Cluster(e)
    }
}

/// The whole legacy world.
#[derive(Debug)]
pub struct LegacyLayer {
    /// Node pool (Cluster Manager substrate).
    pub cluster: ClusterManager,
    /// LAN model.
    pub net: Network,
    /// Software Installation Service.
    pub sis: SoftwareInstallationService,
    /// Per-node configuration artifacts.
    pub configs: crate::config::ConfigStore,
    /// Dense table indexed by `ServerId.0`; a removed server leaves a
    /// `None` (ids are never recycled), so index order is creation order.
    servers: Vec<Option<LegacyServer>>,
    outbox: Vec<(SimDuration, LegacyEvent)>,
    pending_replays: BTreeMap<(ServerId, ServerId), SyncPlan>,
    /// Base database image restored into every new MySQL replica before
    /// it joins the cluster. A replica built from it has log position 0,
    /// so the log brings it up to date: until the first checkpoint the
    /// retained log is the whole history (`base image + log = current
    /// state`); afterwards position 0 is truncated and the join is served
    /// by `checkpoint + retained log = current state`. Rebuilding the
    /// C-JDBC controller re-snapshots this image from a current replica
    /// (the lost log can no longer bridge from the original dataset dump).
    mysql_base: crate::storage::Database,
    /// The cluster-wide database schema (statements are prepared against
    /// it once; the C-JDBC recovery log renders through it).
    schema: Arc<crate::sql::Schema>,
    /// Time to transfer + execute one recovery-log entry during resync.
    pub replay_cost_per_entry: SimDuration,
    /// Fixed cost to set up a resync session.
    pub replay_setup_cost: SimDuration,
}

impl LegacyLayer {
    /// Creates a legacy layer over a cluster.
    pub fn new(cluster: ClusterManager, net: Network, sis: SoftwareInstallationService) -> Self {
        LegacyLayer {
            cluster,
            net,
            sis,
            configs: crate::config::ConfigStore::new(),
            servers: Vec::new(),
            outbox: Vec::new(),
            pending_replays: BTreeMap::new(),
            mysql_base: crate::storage::Database::new(crate::sql::Schema::empty()),
            schema: crate::sql::Schema::empty(),
            replay_cost_per_entry: SimDuration::from_micros(500),
            replay_setup_cost: SimDuration::from_secs(2),
        }
    }

    /// Sets the cluster schema and the base image restored into new MySQL
    /// replicas by executing a statement dump into a fresh database. The
    /// dump is consumed: its rows move into the image.
    pub fn set_mysql_dump(
        &mut self,
        schema: Arc<crate::sql::Schema>,
        dump: Vec<crate::sql::Statement>,
    ) {
        let mut db = crate::storage::Database::new(Arc::clone(&schema));
        for stmt in dump {
            let _ = db.execute_owned(stmt);
        }
        self.schema = schema;
        self.mysql_base = db;
    }

    /// Re-snapshots the base image from a live replica's current state
    /// (used when the recovery log was lost with its controller).
    pub fn set_mysql_base_from(&mut self, source: ServerId) -> Result<(), LegacyError> {
        self.mysql_base = self.mysql(source)?.db.clone();
        Ok(())
    }

    /// The id the next created server gets. Ids are sequential and never
    /// recycled, so `ServerId.0` doubles as a small dense index interned
    /// at create-server time: the server table here and per-server side
    /// tables (e.g. the app layer's accept queues) are flat `Vec`s indexed
    /// by it instead of maps.
    fn fresh_id(&self) -> ServerId {
        ServerId(jade_sim::id_u32(self.servers.len()))
    }

    /// Appends a server built with [`LegacyLayer::fresh_id`] to the table.
    fn insert(&mut self, server: LegacyServer) -> ServerId {
        let id = server.process().id;
        debug_assert_eq!(id, self.fresh_id());
        self.servers.push(Some(server));
        id
    }

    /// Servers that have not been removed, in id (= creation) order.
    fn live_servers(&self) -> impl Iterator<Item = &LegacyServer> {
        self.servers.iter().flatten()
    }

    /// One past the largest `ServerId.0` ever assigned — the length a
    /// dense `Vec` indexed by server id must have to cover every server.
    pub fn server_index_bound(&self) -> usize {
        self.servers.len()
    }

    /// Drains deferred events; the simulation schedules them.
    pub fn drain_outbox(&mut self) -> Vec<(SimDuration, LegacyEvent)> {
        std::mem::take(&mut self.outbox)
    }

    // ------------------------------------------------------------------
    // Server creation / removal
    // ------------------------------------------------------------------

    /// Creates a stopped Apache process on `node`.
    pub fn create_apache(&mut self, name: &str, node: NodeId) -> ServerId {
        let id = self.fresh_id();
        self.insert(LegacyServer::Apache(ApacheServer::new(id, name, node)))
    }

    /// Creates a stopped Tomcat process on `node`.
    pub fn create_tomcat(&mut self, name: &str, node: NodeId) -> ServerId {
        let id = self.fresh_id();
        self.insert(LegacyServer::Tomcat(TomcatServer::new(id, name, node)))
    }

    /// Creates a stopped MySQL process on `node`, restoring the base
    /// image into its storage.
    pub fn create_mysql(&mut self, name: &str, node: NodeId) -> ServerId {
        let id = self.fresh_id();
        let mut server = MysqlServer::new(id, name, node);
        server.db = self.mysql_base.clone();
        self.insert(LegacyServer::Mysql(server))
    }

    /// Creates a stopped C-JDBC controller on `node`.
    pub fn create_cjdbc(&mut self, name: &str, node: NodeId, policy: ReadPolicy) -> ServerId {
        let id = self.fresh_id();
        self.insert(LegacyServer::Cjdbc {
            process: ServerProcess::new(id, name, node, Tier::Balancer),
            port: 25322,
            ctrl: CjdbcController::new(policy, Arc::clone(&self.schema)),
            routing_demand: SimDuration::from_micros(200),
        })
    }

    /// Creates a stopped PLB load balancer on `node`.
    pub fn create_plb(&mut self, name: &str, node: NodeId, policy: BalancePolicy) -> ServerId {
        let id = self.fresh_id();
        self.insert(LegacyServer::Plb {
            process: ServerProcess::new(id, name, node, Tier::Balancer),
            port: 8080,
            balancer: HttpBalancer::new(policy),
        })
    }

    /// Creates a stopped L4 switch on `node`.
    pub fn create_l4switch(&mut self, name: &str, node: NodeId, policy: BalancePolicy) -> ServerId {
        let id = self.fresh_id();
        self.insert(LegacyServer::L4Switch {
            process: ServerProcess::new(id, name, node, Tier::Balancer),
            balancer: HttpBalancer::new(policy),
        })
    }

    /// Destroys a stopped server process.
    pub fn remove_server(&mut self, id: ServerId) -> Result<(), LegacyError> {
        let s = self.server(id)?;
        let state = s.process().state;
        if state != ServerState::Stopped && state != ServerState::Failed {
            return Err(LegacyError::BadState(id, state));
        }
        if let Some(slot) = self.servers.get_mut(id.0 as usize) {
            *slot = None;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Shared access to a server.
    pub fn server(&self, id: ServerId) -> Result<&LegacyServer, LegacyError> {
        self.servers
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(LegacyError::NoSuchServer(id))
    }

    /// Mutable access to a server.
    pub fn server_mut(&mut self, id: ServerId) -> Result<&mut LegacyServer, LegacyError> {
        self.servers
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(LegacyError::NoSuchServer(id))
    }

    /// Running servers of a tier.
    pub fn running_servers_of(&self, tier: Tier) -> Vec<ServerId> {
        self.live_servers()
            .filter(|s| s.process().tier == tier && s.process().state.is_running())
            .map(|s| s.process().id)
            .collect()
    }

    /// Nodes hosting running servers of a tier (the node set a CPU sensor
    /// aggregates over).
    pub fn nodes_of_tier(&self, tier: Tier) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        self.nodes_of_tier_into(tier, &mut nodes);
        nodes
    }

    /// [`LegacyLayer::nodes_of_tier`] into a caller-owned buffer, so a
    /// periodic probe can reuse its scratch instead of allocating. The
    /// resulting order (sorted, deduped) is identical.
    pub fn nodes_of_tier_into(&self, tier: Tier, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.live_servers()
                .filter(|s| s.process().tier == tier && s.process().state.is_running())
                .map(|s| s.process().node),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Number of running servers of a tier, without materializing the id
    /// list.
    pub fn running_count_of(&self, tier: Tier) -> usize {
        self.live_servers()
            .filter(|s| s.process().tier == tier && s.process().state.is_running())
            .count()
    }

    /// Typed accessor: Tomcat.
    pub fn tomcat_mut(&mut self, id: ServerId) -> Result<&mut TomcatServer, LegacyError> {
        match self.server_mut(id)? {
            LegacyServer::Tomcat(t) => Ok(t),
            _ => Err(LegacyError::WrongKind(id)),
        }
    }

    /// Typed accessor: MySQL.
    pub fn mysql_mut(&mut self, id: ServerId) -> Result<&mut MysqlServer, LegacyError> {
        match self.server_mut(id)? {
            LegacyServer::Mysql(m) => Ok(m),
            _ => Err(LegacyError::WrongKind(id)),
        }
    }

    /// Typed accessor: MySQL (shared).
    pub fn mysql(&self, id: ServerId) -> Result<&MysqlServer, LegacyError> {
        match self.server(id)? {
            LegacyServer::Mysql(m) => Ok(m),
            _ => Err(LegacyError::WrongKind(id)),
        }
    }

    /// Typed accessor: the C-JDBC controller.
    pub fn cjdbc_mut(&mut self, id: ServerId) -> Result<&mut CjdbcController, LegacyError> {
        match self.server_mut(id)? {
            LegacyServer::Cjdbc { ctrl, .. } => Ok(ctrl),
            _ => Err(LegacyError::WrongKind(id)),
        }
    }

    /// Typed accessor: the C-JDBC controller (shared).
    pub fn cjdbc(&self, id: ServerId) -> Result<&CjdbcController, LegacyError> {
        match self.server(id)? {
            LegacyServer::Cjdbc { ctrl, .. } => Ok(ctrl),
            _ => Err(LegacyError::WrongKind(id)),
        }
    }

    /// Typed accessor: a balancer (PLB or L4 switch).
    pub fn balancer_mut(&mut self, id: ServerId) -> Result<&mut HttpBalancer, LegacyError> {
        match self.server_mut(id)? {
            LegacyServer::Plb { balancer, .. } | LegacyServer::L4Switch { balancer, .. } => {
                Ok(balancer)
            }
            _ => Err(LegacyError::WrongKind(id)),
        }
    }

    /// Host name of the node a server runs on.
    pub fn host_of(&self, id: ServerId) -> Result<String, LegacyError> {
        let node = self.server(id)?.process().node;
        Ok(self
            .cluster
            .node(node)
            .map(|n| n.name().to_owned())
            .unwrap_or_else(|_| format!("{node:?}")))
    }

    // ------------------------------------------------------------------
    // Life-cycle
    // ------------------------------------------------------------------

    /// Starts a server: requires its package installed and the node up.
    /// The server enters `Starting` and a [`LegacyEvent::ServerBooted`]
    /// fires after the package's boot latency.
    pub fn start_server(&mut self, id: ServerId) -> Result<(), LegacyError> {
        let (node, pkg, state) = {
            let s = self.server(id)?;
            (s.process().node, s.package(), s.process().state)
        };
        if state != ServerState::Stopped {
            return Err(LegacyError::BadState(id, state));
        }
        let n = self.cluster.node(node)?;
        if !n.is_up() {
            return Err(LegacyError::NodeDown(node));
        }
        if !n.has_package(pkg) {
            return Err(LegacyError::NotInstalled(id, pkg));
        }
        let boot = self.sis.startup_latency(pkg);
        self.server_mut(id)?.process_mut().state = ServerState::Starting;
        self.outbox.push((boot, LegacyEvent::ServerBooted(id)));
        Ok(())
    }

    /// Completes a boot (`Starting` → `Running`). Called when the
    /// `ServerBooted` event is delivered; a server stopped mid-boot stays
    /// stopped.
    pub fn finish_boot(&mut self, id: ServerId) -> Result<bool, LegacyError> {
        let p = self.server_mut(id)?.process_mut();
        if p.state == ServerState::Starting {
            p.state = ServerState::Running;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Stops a server (graceful shutdown script). Emits `ServerStopped`
    /// immediately; the simulation fails whatever was in flight.
    pub fn stop_server(&mut self, id: ServerId) -> Result<(), LegacyError> {
        let state = self.server(id)?.process().state;
        match state {
            ServerState::Stopped => Ok(()), // idempotent
            ServerState::Failed => {
                self.server_mut(id)?.process_mut().state = ServerState::Stopped;
                Ok(())
            }
            ServerState::Running | ServerState::Starting => {
                self.server_mut(id)?.process_mut().state = ServerState::Stopped;
                if let LegacyServer::Tomcat(t) = self.server_mut(id)? {
                    t.active = 0;
                }
                self.outbox
                    .push((SimDuration::ZERO, LegacyEvent::ServerStopped(id)));
                Ok(())
            }
        }
    }

    /// Marks a server failed (process crash), emitting `ServerFailed`.
    pub fn fail_server(&mut self, id: ServerId) -> Result<(), LegacyError> {
        self.server_mut(id)?.process_mut().state = ServerState::Failed;
        self.outbox
            .push((SimDuration::ZERO, LegacyEvent::ServerFailed(id)));
        Ok(())
    }

    /// Crashes a node: fails every server hosted on it and aborts all its
    /// CPU jobs, returning the aborted job ids.
    #[cold]
    pub fn crash_node(&mut self, node: NodeId, now: SimTime) -> Vec<jade_sim::JobId> {
        let victims: Vec<ServerId> = self
            .live_servers()
            .filter(|s| s.process().node == node)
            .map(|s| s.process().id)
            .collect();
        for id in victims {
            let _ = self.fail_server(id);
        }
        match self.cluster.node_mut(node) {
            Ok(n) => n.crash(now),
            Err(_) => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // C-JDBC operations (membership + routing + state reconciliation)
    // ------------------------------------------------------------------

    /// Registers a MySQL replica as a (disabled) backend.
    pub fn cjdbc_register_backend(
        &mut self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<(), LegacyError> {
        self.mysql_mut(backend)?; // type check
        self.cjdbc_mut(cjdbc)?.register_backend(backend);
        Ok(())
    }

    /// Unregisters a backend.
    pub fn cjdbc_unregister_backend(
        &mut self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<(), LegacyError> {
        self.cjdbc_mut(cjdbc)?.unregister_backend(backend);
        Ok(())
    }

    /// Begins enabling a backend: computes the recovery-log backlog and
    /// schedules the first replay batch. The backend must be `Running`.
    pub fn cjdbc_enable_backend(
        &mut self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<(), LegacyError> {
        let state = self.server(backend)?.process().state;
        if !state.is_running() {
            return Err(LegacyError::BadState(backend, state));
        }
        let plan = self.cjdbc_mut(cjdbc)?.begin_enable(backend)?;
        // The simulated replay time follows the full statement backlog
        // even when the plan carries a checkpoint snapshot: the snapshot
        // path cuts host-side work, not modeled latency (digest-neutral).
        let delay =
            self.replay_setup_cost + self.replay_cost_per_entry.mul_f64(plan.backlog as f64);
        self.pending_replays.insert((cjdbc, backend), plan);
        self.outbox
            .push((delay, LegacyEvent::ReplayBatchDone { cjdbc, backend }));
        Ok(())
    }

    /// Completes one replay batch: applies the buffered statements to the
    /// backend's storage, then either schedules the next batch (writes
    /// arrived during replay) or activates the backend.
    pub fn cjdbc_replay_batch_done(
        &mut self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<(), LegacyError> {
        // The sync session is only valid while this controller still
        // exists and still considers the backend Syncing. A batch from a
        // dead controller (repaired mid-sync) must be dropped, not
        // applied — the replacement controller restarted reconciliation
        // from a restored state.
        let still_syncing = self.cjdbc(cjdbc).ok().and_then(|c| c.status(backend).ok())
            == Some(BackendStatus::Syncing);
        if !still_syncing {
            self.pending_replays.remove(&(cjdbc, backend));
            return Ok(());
        }
        let plan = self
            .pending_replays
            .remove(&(cjdbc, backend))
            .unwrap_or_default();
        {
            let m = self.mysql_mut(backend)?;
            if let Some((_, snapshot)) = &plan.snapshot {
                // Checkpoint restore: replace the replica's state with
                // the snapshot (O(#tables) Arc clones) and apply only the
                // delta tail past it, instead of replaying the history.
                m.db = crate::storage::Database::from_snapshot(snapshot);
            }
            for entry in &plan.entries {
                match &entry.delta {
                    // Apply the physical effect the primary captured —
                    // no statement re-evaluation.
                    Some(delta) => {
                        let _ = m.db.apply_delta(delta);
                    }
                    // No captured delta (the write errored on the
                    // primary): re-execute the logged statement,
                    // tolerating individual errors the same way C-JDBC
                    // does.
                    None => {
                        let _ = m.db.execute(&entry.statement);
                    }
                }
            }
        }
        match self.cjdbc_mut(cjdbc)?.finish_replay(backend)? {
            Some(next) => {
                let delay = self.replay_cost_per_entry.mul_f64(next.backlog as f64);
                self.pending_replays.insert((cjdbc, backend), next);
                self.outbox
                    .push((delay, LegacyEvent::ReplayBatchDone { cjdbc, backend }));
            }
            None => {
                self.outbox.push((
                    SimDuration::ZERO,
                    LegacyEvent::BackendActivated { cjdbc, backend },
                ));
            }
        }
        Ok(())
    }

    /// Aborts an in-progress backend synchronization, discarding the
    /// pending replay batch (the backend returns to `Disabled` at its
    /// last applied index).
    pub fn cjdbc_abort_enable(
        &mut self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<(), LegacyError> {
        self.cjdbc_mut(cjdbc)?.abort_enable(backend)?;
        self.pending_replays.remove(&(cjdbc, backend));
        Ok(())
    }

    /// Disables an active backend (checkpointing its log position).
    pub fn cjdbc_disable_backend(
        &mut self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<(), LegacyError> {
        self.cjdbc_mut(cjdbc)?.disable_backend(backend)?;
        Ok(())
    }

    /// Routes a read to one active backend and executes it there as a
    /// count-only probe, returning the backend and the CPU demand to
    /// charge.
    pub fn cjdbc_execute_read(
        &mut self,
        cjdbc: ServerId,
        query: crate::request::DbQuery<'_>,
        rng: &mut SimRng,
    ) -> Result<(ServerId, SimDuration), LegacyError> {
        debug_assert!(!query.step.is_write());
        let state = self.server(cjdbc)?.process().state;
        if !state.is_running() {
            return Err(LegacyError::BadState(cjdbc, state));
        }
        let backend = self.cjdbc_mut(cjdbc)?.route_read(rng)?;
        let _ = self
            .mysql(backend)?
            .db
            .read_step_summary(query.step, query.params);
        Ok((backend, query.demand))
    }

    /// Broadcasts a write to all active backends, appending it to the
    /// recovery log; fills `out` (a caller-recycled buffer) with the
    /// broadcast set — every backend in it is charged the query's demand.
    /// The deterministic primary (`out[0]`) executes the step once and
    /// captures a physical [`crate::storage::WriteDelta`]; the remaining
    /// replicas apply the delta — sharing the primary's row allocations —
    /// instead of re-evaluating anything. The step's prepared statement is
    /// materialized once, for the recovery log (whose entries are
    /// statements, paper §4.1).
    // jade-audit: allow(hot-alloc, hot-panic): the Arcs are the one
    // materialization of the write's statement and delta, shared by
    // reference across every replica and the recovery log; out[1..] is
    // safe because route_write_into guarantees a non-empty broadcast list
    // (primary first).
    pub fn cjdbc_execute_write_into(
        &mut self,
        cjdbc: ServerId,
        query: crate::request::DbQuery<'_>,
        out: &mut Vec<ServerId>,
    ) -> Result<(), LegacyError> {
        debug_assert!(query.step.is_write());
        let state = self.server(cjdbc)?.process().state;
        if !state.is_running() {
            return Err(LegacyError::BadState(cjdbc, state));
        }
        let primary = self
            .cjdbc(cjdbc)?
            .write_primary()
            .ok_or(CjdbcError::NoActiveBackend)?;
        // On capture failure the write is still logged and broadcast (the
        // cluster-wide outcome of a failed write is deterministic too) —
        // without a delta, so every replica re-executes it and fails
        // identically.
        let delta = self
            .mysql_mut(primary)?
            .db
            .execute_step_capture(query.step, query.params)
            .ok()
            .map(|(_, delta)| Arc::new(delta));
        let stmt = Arc::new(query.step.statement(query.params));
        self.cjdbc_mut(cjdbc)?
            .route_write_into(Arc::clone(&stmt), delta.clone(), out)?;
        debug_assert_eq!(out.first(), Some(&primary), "primary broadcasts first");
        for &b in &out[1..] {
            let m = self.mysql_mut(b)?;
            match &delta {
                Some(delta) => {
                    let _ = m.db.apply_delta(delta);
                }
                None => {
                    let _ = m.db.execute(&stmt);
                }
            }
        }
        // Checkpoint cadence: every `snapshot_interval` writes, store a
        // copy-on-write snapshot of the (identical) cluster state. It
        // replaces the previous one and the log drops the entries it
        // covers: late joiners sync from {checkpoint, retained tail}.
        if self.cjdbc(cjdbc)?.snapshot_due() {
            let snapshot = self.mysql(primary)?.db.snapshot();
            self.cjdbc_mut(cjdbc)?.install_snapshot(snapshot);
        }
        Ok(())
    }

    /// Restores `target`'s database from a dump of `source` (C-JDBC's
    /// backup/restore path, used when the recovery log cannot cover the
    /// gap — e.g. after losing the controller while `target` was
    /// synchronizing).
    pub fn mysql_restore_from(
        &mut self,
        source: ServerId,
        target: ServerId,
    ) -> Result<(), LegacyError> {
        let snapshot = self.mysql(source)?.db.clone();
        self.mysql_mut(target)?.db = snapshot;
        Ok(())
    }

    /// Marks a query complete on a backend (pending accounting).
    pub fn cjdbc_note_complete(&mut self, cjdbc: ServerId, backend: ServerId) {
        if let Ok(ctrl) = self.cjdbc_mut(cjdbc) {
            ctrl.note_complete(backend);
        }
    }

    /// Status of a backend as seen by the controller.
    pub fn cjdbc_backend_status(
        &self,
        cjdbc: ServerId,
        backend: ServerId,
    ) -> Result<BackendStatus, LegacyError> {
        Ok(self.cjdbc(cjdbc)?.status(backend)?)
    }

    // ------------------------------------------------------------------
    // HTTP balancer routing
    // ------------------------------------------------------------------

    /// Routes an HTTP request through a balancer to a *running* worker,
    /// skipping workers that are down (PLB health checking). Fails when
    /// the balancer process itself is not running.
    pub fn balancer_route_running(
        &mut self,
        balancer_id: ServerId,
        rng: &mut SimRng,
    ) -> Result<ServerId, LegacyError> {
        self.balancer_route_running_with_nodes(balancer_id, rng)
            .map(|(worker, _, _)| worker)
    }

    /// [`balancer_route_running`], additionally returning the balancer's
    /// and the chosen worker's nodes `(worker, balancer_node,
    /// worker_node)` — resolved from the probes routing already performs,
    /// so callers that need the network path don't re-look both servers
    /// up.
    ///
    /// [`balancer_route_running`]: LegacyLayer::balancer_route_running
    pub fn balancer_route_running_with_nodes(
        &mut self,
        balancer_id: ServerId,
        rng: &mut SimRng,
    ) -> Result<(ServerId, NodeId, NodeId), LegacyError> {
        let (state, balancer_node) = {
            let p = self.server(balancer_id)?.process();
            (p.state, p.node)
        };
        if !state.is_running() {
            return Err(LegacyError::BadState(balancer_id, state));
        }
        let attempts = self.balancer_mut(balancer_id)?.len().max(1);
        for _ in 0..attempts {
            let worker = self.balancer_mut(balancer_id)?.route(rng)?;
            let wp = self.server(worker)?.process();
            if wp.state.is_running() {
                return Ok((worker, balancer_node, wp.node));
            }
        }
        Err(LegacyError::Balancer(
            crate::balancer::BalancerError::NoWorker,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Operand, PlanStep, StepOp};
    use crate::request::DbQuery;
    use crate::sql::{Schema, TableId, Value};
    use jade_cluster::{NodeSpec, SoftwareRepository};

    fn test_schema() -> Arc<Schema> {
        Schema::builder().table("t", &["a"]).build()
    }

    fn layer(nodes: usize) -> LegacyLayer {
        let cluster = ClusterManager::homogeneous(nodes, NodeSpec::default(), 128);
        let sis = SoftwareInstallationService::new(SoftwareRepository::j2ee_catalogue());
        LegacyLayer::new(cluster, Network::lan_100mbps(), sis)
    }

    fn install(l: &mut LegacyLayer, node: NodeId, pkg: &str) {
        l.sis
            .install(&mut l.cluster, node, pkg)
            .map(|_| ())
            .unwrap_or_else(|e| panic!("install {pkg}: {e}"));
    }

    #[test]
    fn start_requires_installed_package() {
        let mut l = layer(2);
        let t = l.create_tomcat("Tomcat1", NodeId(0));
        assert!(matches!(
            l.start_server(t),
            Err(LegacyError::NotInstalled(_, "tomcat"))
        ));
        install(&mut l, NodeId(0), "tomcat");
        l.start_server(t).unwrap();
        assert_eq!(l.server(t).unwrap().process().state, ServerState::Starting);
        let events = l.drain_outbox();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, LegacyEvent::ServerBooted(t));
        assert!(l.finish_boot(t).unwrap());
        assert!(l.server(t).unwrap().process().state.is_running());
    }

    #[test]
    fn stop_mid_boot_cancels_running_transition() {
        let mut l = layer(1);
        let t = l.create_tomcat("Tomcat1", NodeId(0));
        install(&mut l, NodeId(0), "tomcat");
        l.start_server(t).unwrap();
        l.stop_server(t).unwrap();
        // The booted event fires later but must not resurrect the server.
        assert!(!l.finish_boot(t).unwrap());
        assert_eq!(l.server(t).unwrap().process().state, ServerState::Stopped);
    }

    #[test]
    fn tier_queries_see_only_running_servers() {
        let mut l = layer(3);
        let t1 = l.create_tomcat("Tomcat1", NodeId(0));
        let _t2 = l.create_tomcat("Tomcat2", NodeId(1));
        install(&mut l, NodeId(0), "tomcat");
        l.start_server(t1).unwrap();
        l.finish_boot(t1).unwrap();
        assert_eq!(l.running_servers_of(Tier::Application), vec![t1]);
        assert_eq!(l.nodes_of_tier(Tier::Application), vec![NodeId(0)]);
    }

    #[test]
    fn crash_node_fails_hosted_servers() {
        let mut l = layer(1);
        let t = l.create_tomcat("Tomcat1", NodeId(0));
        install(&mut l, NodeId(0), "tomcat");
        l.start_server(t).unwrap();
        l.finish_boot(t).unwrap();
        l.drain_outbox();
        l.crash_node(NodeId(0), SimTime::from_secs(1));
        assert_eq!(l.server(t).unwrap().process().state, ServerState::Failed);
        let events = l.drain_outbox();
        assert!(events
            .iter()
            .any(|(_, e)| *e == LegacyEvent::ServerFailed(t)));
    }

    fn step(op: StepOp, demand_ms: u64) -> PlanStep {
        PlanStep {
            op,
            demand: SimDuration::from_millis(demand_ms),
        }
    }

    /// Broadcasts `INSERT INTO t (a) VALUES (i)` through the controller.
    fn write(l: &mut LegacyLayer, cj: ServerId, i: i64) -> Vec<ServerId> {
        broadcast_insert(l, cj, test_schema().must_table("t"), i)
    }

    /// Broadcasts `INSERT INTO <table> (a) VALUES (i)` through the
    /// controller, returning the broadcast set.
    fn broadcast_insert(
        l: &mut LegacyLayer,
        cj: ServerId,
        table: TableId,
        i: i64,
    ) -> Vec<ServerId> {
        let row = vec![Operand::Param(0)];
        let insert = step(StepOp::Insert { table, row }, 5);
        let query = DbQuery {
            step: &insert,
            params: &[Value::Int(i)],
            demand: insert.demand,
        };
        let mut targets = Vec::new();
        l.cjdbc_execute_write_into(cj, query, &mut targets).unwrap();
        targets
    }

    /// Deploys a C-JDBC with `n` active MySQL backends over a base image
    /// holding the (empty) table `t`.
    fn db_cluster(l: &mut LegacyLayer, n: usize) -> (ServerId, Vec<ServerId>) {
        l.set_mysql_dump(test_schema(), vec![test_schema().create_table("t")]);
        let cj = deploy_cjdbc(l);
        let backends = (1..=n).map(|i| join_mysql_replica(l, cj, i)).collect();
        (cj, backends)
    }

    /// Starts a C-JDBC controller on a fresh node.
    fn deploy_cjdbc(l: &mut LegacyLayer) -> ServerId {
        let cj_node = l.cluster.allocate().unwrap();
        install(l, cj_node, "cjdbc");
        let cj = l.create_cjdbc("C-JDBC", cj_node, ReadPolicy::LeastPending);
        l.start_server(cj).unwrap();
        l.finish_boot(cj).unwrap();
        cj
    }

    /// Boots MySQL replica `i` on a fresh node and enables it as a backend
    /// of `cj` (synchronously draining boot/replay events until it is
    /// active).
    fn join_mysql_replica(l: &mut LegacyLayer, cj: ServerId, i: usize) -> ServerId {
        let node = l.cluster.allocate().unwrap();
        install(l, node, "mysql");
        let m = l.create_mysql(&format!("MySQL{i}"), node);
        l.start_server(m).unwrap();
        l.finish_boot(m).unwrap();
        l.cjdbc_register_backend(cj, m).unwrap();
        l.cjdbc_enable_backend(cj, m).unwrap();
        loop {
            let events = l.drain_outbox();
            if events.is_empty() {
                break;
            }
            let mut done = false;
            for (_, e) in events {
                match e {
                    LegacyEvent::ReplayBatchDone { cjdbc, backend } => {
                        l.cjdbc_replay_batch_done(cjdbc, backend).unwrap();
                    }
                    LegacyEvent::BackendActivated { .. } => done = true,
                    _ => {}
                }
            }
            if done {
                break;
            }
        }
        m
    }

    #[test]
    fn writes_keep_replicas_identical() {
        let mut l = layer(6);
        let (cj, backends) = db_cluster(&mut l, 3);
        for i in 0..10 {
            assert_eq!(write(&mut l, cj, i), backends, "primary first, all active");
        }
        let digests: Vec<u64> = backends
            .iter()
            .map(|&b| l.mysql(b).unwrap().digest())
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn late_backend_converges_via_recovery_log() {
        let mut l = layer(6);
        let (cj, backends) = db_cluster(&mut l, 1);
        for i in 0..20 {
            write(&mut l, cj, i);
        }
        // New replica joins late.
        let node = l.cluster.allocate().unwrap();
        install(&mut l, node, "mysql");
        let m2 = l.create_mysql("MySQL2", node);
        l.start_server(m2).unwrap();
        l.finish_boot(m2).unwrap();
        l.drain_outbox();
        l.cjdbc_register_backend(cj, m2).unwrap();
        l.cjdbc_enable_backend(cj, m2).unwrap();
        // More writes land during the replay window.
        for i in 100..105 {
            write(&mut l, cj, i);
        }
        // Process replay batches until activation.
        let mut activated = false;
        for _ in 0..10 {
            let events = l.drain_outbox();
            if events.is_empty() {
                break;
            }
            for (_, e) in events {
                match e {
                    LegacyEvent::ReplayBatchDone { cjdbc, backend } => {
                        l.cjdbc_replay_batch_done(cjdbc, backend).unwrap();
                    }
                    LegacyEvent::BackendActivated { backend, .. } => {
                        assert_eq!(backend, m2);
                        activated = true;
                    }
                    _ => {}
                }
            }
            if activated {
                break;
            }
        }
        assert!(activated, "backend must activate");
        assert_eq!(
            l.mysql(backends[0]).unwrap().digest(),
            l.mysql(m2).unwrap().digest(),
            "late joiner must converge to the cluster state"
        );
    }

    /// A write that fails on the primary (its table is in the schema but
    /// the dump never created it) captures no delta. It is still logged
    /// and broadcast, every replica re-executes it and fails identically,
    /// and a backend joining later replays it from its statement.
    #[test]
    fn failed_primary_write_is_logged_broadcast_and_replayed() {
        let schema = Schema::builder()
            .table("t", &["a"])
            .table("u", &["a"])
            .build();
        let (t, u) = (schema.must_table("t"), schema.must_table("u"));
        let mut l = layer(6);
        l.set_mysql_dump(Arc::clone(&schema), vec![schema.create_table("t")]);
        let cj = deploy_cjdbc(&mut l);
        let backends: Vec<ServerId> = (1..=3).map(|i| join_mysql_replica(&mut l, cj, i)).collect();
        broadcast_insert(&mut l, cj, t, 1);
        let head = l.cjdbc(cj).unwrap().recovery_log().head();
        assert_eq!(broadcast_insert(&mut l, cj, u, 2), backends);
        let log = l.cjdbc(cj).unwrap().recovery_log();
        assert_eq!(log.head(), head + 1, "the failed write is logged");
        assert!(log.entries_from(head).unwrap()[0].delta.is_none());
        broadcast_insert(&mut l, cj, t, 3);
        let digest = l.mysql(backends[0]).unwrap().digest();
        for &b in &backends {
            assert_eq!(l.mysql(b).unwrap().digest(), digest);
        }
        // No checkpoint yet: the joiner replays the whole log, the failed
        // write included.
        assert_eq!(l.cjdbc(cj).unwrap().recovery_log().first_retained(), 0);
        let joiner = join_mysql_replica(&mut l, cj, 4);
        assert_eq!(l.mysql(joiner).unwrap().digest(), digest);
    }

    #[test]
    fn reads_are_distributed_and_execute() {
        let mut l = layer(6);
        let (cj, _) = db_cluster(&mut l, 2);
        write(&mut l, cj, 1);
        let mut rng = SimRng::seed_from_u64(1);
        let table = test_schema().must_table("t");
        let count = step(StepOp::Count { table }, 2);
        let read = DbQuery {
            step: &count,
            params: &[],
            demand: count.demand,
        };
        let (b1, d) = l.cjdbc_execute_read(cj, read, &mut rng).unwrap();
        assert_eq!(d, SimDuration::from_millis(2));
        let (b2, _) = l.cjdbc_execute_read(cj, read, &mut rng).unwrap();
        // Least-pending: two successive reads go to different backends.
        assert_ne!(b1, b2);
    }

    #[test]
    fn balancer_routing_skips_stopped_workers() {
        let mut l = layer(4);
        let plb_node = l.cluster.allocate().unwrap();
        install(&mut l, plb_node, "plb");
        let plb = l.create_plb("PLB", plb_node, BalancePolicy::RoundRobin);
        l.start_server(plb).unwrap();
        l.finish_boot(plb).unwrap();
        let mut tomcats = Vec::new();
        for i in 0..2 {
            let n = l.cluster.allocate().unwrap();
            install(&mut l, n, "tomcat");
            let t = l.create_tomcat(&format!("Tomcat{}", i + 1), n);
            l.start_server(t).unwrap();
            l.finish_boot(t).unwrap();
            l.balancer_mut(plb).unwrap().add_worker(t).unwrap();
            tomcats.push(t);
        }
        l.stop_server(tomcats[0]).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..5 {
            assert_eq!(l.balancer_route_running(plb, &mut rng).unwrap(), tomcats[1]);
        }
    }

    #[test]
    fn remove_server_requires_stopped() {
        let mut l = layer(1);
        let t = l.create_tomcat("Tomcat1", NodeId(0));
        install(&mut l, NodeId(0), "tomcat");
        l.start_server(t).unwrap();
        l.finish_boot(t).unwrap();
        assert!(matches!(l.remove_server(t), Err(LegacyError::BadState(..))));
        l.stop_server(t).unwrap();
        l.remove_server(t).unwrap();
        assert!(l.server(t).is_err());
        // The id is not recycled: the table keeps a hole that lookups and
        // tier queries skip.
        let t2 = l.create_tomcat("Tomcat2", NodeId(0));
        assert_eq!(t2, ServerId(t.0 + 1));
        assert!(matches!(l.server_mut(t), Err(LegacyError::NoSuchServer(_))));
        l.start_server(t2).unwrap();
        l.finish_boot(t2).unwrap();
        assert_eq!(l.running_servers_of(Tier::Application), vec![t2]);
        assert_eq!(l.server_index_bound(), 2);
    }
}
