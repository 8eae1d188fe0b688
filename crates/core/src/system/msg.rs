//! Messages and per-request state of the simulated J2EE system.

use jade_cluster::NodeId;
use jade_sim::{EventToken, JobId, SimTime};
use jade_tiers::{InteractionPlan, LegacyEvent, RequestId, ServerId};

/// Events routed through the discrete-event engine.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Initial synchronous deployment + scheduling of periodic ticks.
    Bootstrap,
    /// Adjust the emulated-client pool to the ramp.
    RampTick,
    /// Sample node CPUs / memory, record series, charge daemon overhead.
    MeasureTick,
    /// A client finished thinking and issues its next interaction.
    ClientThink(u32),
    /// Aggregate-mode issuance tick: draw which idle sessions finish
    /// thinking this period and schedule their dispatches.
    PoolTick,
    /// An aggregate-mode session's dispatch offset elapsed: materialize
    /// the request and route it into the system.
    PoolDispatch {
        /// Idle bucket the session returns to on completion — its new
        /// navigation state under Markov navigation, the fresh bucket
        /// under the stateless i.i.d. mix.
        bucket: u32,
        /// Index of the issued interaction in `INTERACTIONS`.
        interaction: u32,
    },
    /// An HTTP request reached an Apache replica (web-tier topologies).
    ApacheAccept {
        /// The request.
        req: RequestId,
        /// The chosen web server.
        apache: ServerId,
    },
    /// An HTTP request reached a Tomcat replica.
    TomcatAccept {
        /// The request.
        req: RequestId,
        /// The chosen replica.
        tomcat: ServerId,
    },
    /// A SQL operation reaches the C-JDBC controller (after LAN delay).
    DbDispatch {
        /// The request whose next SQL op is dispatched.
        req: RequestId,
    },
    /// A node's processor-sharing CPU reached its next completion time.
    CpuComplete(NodeId),
    /// The response reached the client.
    ResponseDelivered {
        /// The completed request.
        req: RequestId,
    },
    /// The client's patience expired (configured abandonment timeout).
    ClientAbandon {
        /// The request being abandoned if still in flight.
        req: RequestId,
    },
    /// A deferred legacy-layer event.
    Legacy(LegacyEvent),
    /// One control loop's sensor/reactor tick (index of its tier in
    /// [`ManagedTier::ALL`]).
    SensorTick(usize),
    /// Self-recovery failure-detector tick.
    DetectorTick,
    /// Continue a staged replica deployment (after installation latency).
    DeployStep {
        /// Server being deployed.
        server: ServerId,
    },
    /// Stop a drained replica (scale-down, after the grace period).
    UndeployStop {
        /// Server being retired.
        server: ServerId,
    },
    /// Administration request: restart every replica of a tier, one at a
    /// time, without interrupting the service (rolling restart).
    RollingRestart(ManagedTier),
    /// Continue the rolling restart with the next replica.
    RollingNext,
    /// Stop-and-restart the drained replica of the rolling restart.
    RollingStop {
        /// Replica being bounced.
        server: ServerId,
    },
    /// Failure injection: crash a node.
    CrashNode(NodeId),
    /// Failure injection: crash a single server process (its node
    /// survives, so the local daemon reports the failure immediately).
    FailServer(ServerId),
}

/// What a CPU job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOwner {
    /// Apache serving a static document or forwarding a dynamic request.
    ApacheServe(RequestId),
    /// Servlet execution before the first query.
    ServletPre(RequestId),
    /// Page generation after the last query.
    ServletPost(RequestId),
    /// A read executing on a database backend.
    DbRead {
        /// Owning request.
        req: RequestId,
        /// C-JDBC controller.
        cjdbc: ServerId,
        /// Executing backend.
        backend: ServerId,
    },
    /// One broadcast write executing on a database backend.
    DbWrite {
        /// Owning request.
        req: RequestId,
        /// C-JDBC controller.
        cjdbc: ServerId,
        /// Executing backend.
        backend: ServerId,
    },
    /// Management-daemon overhead (intrusivity model).
    Daemon,
    /// Request-routing work on a load-balancer node (PLB / C-JDBC). Fire
    /// and forget: it burns CPU concurrently with the routed request.
    Routing,
}

impl JobOwner {
    /// The request the job belongs to, when it belongs to one.
    pub fn request(self) -> Option<RequestId> {
        match self {
            JobOwner::ApacheServe(req) | JobOwner::ServletPre(req) | JobOwner::ServletPost(req) => {
                Some(req)
            }
            JobOwner::DbRead { req, .. } | JobOwner::DbWrite { req, .. } => Some(req),
            JobOwner::Daemon | JobOwner::Routing => None,
        }
    }
}

/// Progress of one in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPhase {
    /// Being served (or forwarded) by the web tier.
    WebServe,
    /// Waiting in a Tomcat accept queue.
    Queued,
    /// Executing the pre-query servlet work.
    ServletPre,
    /// Executing SQL (index tracked separately).
    Sql,
    /// Executing the post-query page generation.
    ServletPost,
    /// Response in flight back to the client.
    Responding,
}

/// Per-request bookkeeping, stored in the in-flight slab.
#[derive(Clone, Debug)]
pub struct RequestState {
    /// Issuing client.
    pub client: u32,
    /// Creation-order stamp, monotonic across the run. Slab slots are
    /// recycled, so bulk-failure paths sort victims by this to preserve
    /// the old map's creation-order iteration.
    pub seq: u64,
    /// Issue time (latency reference).
    pub started: SimTime,
    /// The interaction's work plan.
    pub plan: InteractionPlan,
    /// Web server handling the request (web-tier topologies).
    pub apache: Option<ServerId>,
    /// Servlet replica processing the request (dynamic requests).
    pub tomcat: Option<ServerId>,
    /// Current phase.
    pub phase: RequestPhase,
    /// Next SQL op index.
    pub sql_idx: usize,
    /// Outstanding broadcast-write jobs.
    pub pending_db: usize,
    /// Every CPU job submitted for this request, in submission order.
    /// Generational `JobId`s go stale when a job completes, so failure
    /// paths simply skip ids whose slab slot no longer matches.
    pub jobs: Vec<JobId>,
    /// The pending `ClientAbandon` patience timer, cancelled on
    /// completion or failure.
    pub abandon: Option<EventToken>,
}

/// Tier targeted by a reconfiguration (mirrors `jade_tiers::Tier` for the
/// two managed tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagedTier {
    /// Tomcat tier.
    Application,
    /// MySQL tier.
    Database,
}

impl ManagedTier {
    /// Both tiers, in the order of per-tier arrays and of the
    /// `SensorTick` indexes.
    pub const ALL: [ManagedTier; 2] = [ManagedTier::Application, ManagedTier::Database];

    /// This tier's entry of a per-tier array (ordered as
    /// [`ManagedTier::ALL`]).
    pub(crate) fn of<T>(self, per_tier: &[T; 2]) -> &T {
        match (self, per_tier) {
            (ManagedTier::Application, [app, _]) => app,
            (ManagedTier::Database, [_, db]) => db,
        }
    }

    /// Mutable [`ManagedTier::of`].
    pub(crate) fn of_mut<T>(self, per_tier: &mut [T; 2]) -> &mut T {
        match (self, per_tier) {
            (ManagedTier::Application, [app, _]) => app,
            (ManagedTier::Database, [_, db]) => db,
        }
    }

    /// The legacy-layer tier.
    pub fn tier(self) -> jade_tiers::Tier {
        match self {
            ManagedTier::Application => jade_tiers::Tier::Application,
            ManagedTier::Database => jade_tiers::Tier::Database,
        }
    }

    /// Software package of the tier's server.
    pub fn package(self) -> &'static str {
        match self {
            ManagedTier::Application => "tomcat",
            ManagedTier::Database => "mysql",
        }
    }

    /// Metric-series name of the replica count (Figure 5).
    pub fn replicas_series(self) -> &'static str {
        match self {
            ManagedTier::Application => "replicas.app",
            ManagedTier::Database => "replicas.db",
        }
    }

    /// Metric-series name of the smoothed CPU (sensor output).
    pub fn smoothed_series(self) -> &'static str {
        match self {
            ManagedTier::Application => "cpu.app.smoothed",
            ManagedTier::Database => "cpu.db.smoothed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Msg;

    /// Every queued event carries one `Msg` and a fork copies the whole
    /// queue, so a payload that grows the message past two words costs
    /// every event and every fork.
    #[test]
    fn msg_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Msg>(), 16);
    }
}
