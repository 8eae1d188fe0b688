//! The request path: the RUBiS client emulator driving the multi-tier
//! request path of paper §2, Figure 1, and the CPU jobs requests charge.
//!
//! [`Requests`] owns every client, in-flight request, accept queue and
//! CPU-job owner, and the buffers they recycle. Jade reaches in only
//! through the `pub(crate)` crossings at the bottom of this file.

use super::msg::{JobOwner, Msg, RequestPhase, RequestState};
use super::{FrontEnds, HotMetricIds, Shared};
use crate::config::{ClientMode, SystemConfig};
use jade_cluster::NodeId;
use jade_rubis::{EmulatedClient, KeySpace};
use jade_sim::{Addr, Ctx, GenSlab, JobId, SimDuration, SlabKey};
use jade_tiers::{RequestId, ServerId};
use std::collections::VecDeque;

/// Approximate HTTP request size on the wire.
const REQUEST_BYTES: u64 = 600;
/// Bound on a Tomcat connector's accept queue; beyond it connections are
/// refused (the client retries after thinking).
const ACCEPT_QUEUE_LIMIT: usize = 512;

/// One emulated client and its scheduling state.
#[derive(Clone, Debug)]
struct ClientSlot {
    client: EmulatedClient,
    /// Part of the current target population.
    active: bool,
    /// Has a request or think-timer in flight (prevents double-scheduling).
    busy: bool,
}

/// The clients and every request on its way through the tiers.
#[derive(Clone)]
pub(crate) struct Requests {
    clients: Vec<ClientSlot>,
    /// Aggregate-mode client population (`Some` iff `cfg.client_mode` is
    /// [`ClientMode::Aggregate`]); `clients` stays empty in that mode.
    pool: Option<jade_rubis::ClientPool>,
    /// Recycled issuance buffer of the aggregate pool tick:
    /// `(dispatch offset, return bucket, interaction index)`.
    pool_scratch: Vec<(SimDuration, u32, u32)>,
    ks: KeySpace,
    transitions: jade_rubis::TransitionMatrix,
    mix: jade_rubis::InteractionMix,
    /// In-flight requests in a generational slab: the public `RequestId`
    /// is the packed `{generation, slot}` key, so every per-event lookup
    /// is O(1) array indexing and a stale id (e.g. an abandon timer that
    /// outlived its request) provably misses instead of hitting whatever
    /// request reused the slot.
    inflight: GenSlab<RequestState>,
    /// Per-Tomcat accept queues, indexed densely by `ServerId.0` (server
    /// ids are interned sequentially at create-server time and never
    /// recycled — see `LegacyLayer::server_index_bound`).
    accept_queues: Vec<VecDeque<RequestId>>,
    /// Creation-order stamp for the next request (slab slots recycle, so
    /// ordering needs its own counter).
    next_request_seq: u64,
    /// CPU-job owners in a generational slab keyed by the packed `JobId`.
    job_owner: GenSlab<JobOwner>,
    /// Recycled buffer for draining CPU completions on each timer fire
    /// (the hottest per-event path), so the drain never allocates.
    completion_scratch: Vec<JobId>,
    /// Recycled compiled-run buffers (parameter values + per-step
    /// demands) of retired requests, reused by the workload generator for
    /// new plans — zero steady-state allocation on the hot path.
    param_recycle: Vec<(Vec<jade_tiers::sql::Value>, Vec<SimDuration>)>,
    /// Recycled broadcast-target buffer for the DB write path: each write
    /// fills it via `cjdbc_execute_write_into` instead of allocating a
    /// fresh targets `Vec` (zero steady-state allocation).
    db_write_targets: Vec<ServerId>,
    /// Recycled per-request job lists of retired requests.
    jobs_recycle: Vec<Vec<JobId>>,
    /// Interned metric handles for the hot recording paths (lazy).
    hot_ids: Option<HotMetricIds>,
}

/// Moves `node`'s one `CpuComplete` timer (keyed by `NodeId.0` in the
/// kernel's keyed lane) to the CPU's next completion instant, or clears it
/// when the CPU has nothing left to finish.
fn rearm_cpu(sh: &mut Shared<'_, '_>, node: NodeId) {
    let now = sh.ctx.now();
    let next = sh
        .legacy
        .cluster
        .node_mut(node)
        .ok()
        .and_then(|n| n.cpu.next_completion(now));
    match next {
        Some(t) => sh
            .ctx
            .arm_timer(node.0, t, Addr::ROOT, Msg::CpuComplete(node)),
        None => sh.ctx.disarm_timer(node.0),
    }
}

impl Requests {
    /// An empty request path: no client yet, no request in flight.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        Requests {
            clients: Vec::new(),
            pool: matches!(cfg.client_mode, ClientMode::Aggregate { .. })
                .then(jade_rubis::ClientPool::new),
            pool_scratch: Vec::new(),
            ks: cfg.dataset.into(),
            transitions: jade_rubis::TransitionMatrix::bidding_mix(),
            mix: if cfg.browsing_mix {
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
            hot_ids: None,
        }
    }

    fn hot_ids(&mut self, ctx: &mut Ctx<'_, Msg>) -> HotMetricIds {
        HotMetricIds::cached(&mut self.hot_ids, ctx.metrics())
    }

    // ------------------------------------------------------------------
    // Request slab plumbing
    // ------------------------------------------------------------------

    fn request(&self, req: RequestId) -> Option<&RequestState> {
        self.inflight.get(SlabKey::from_raw(req.0))
    }

    fn request_mut(&mut self, req: RequestId) -> Option<&mut RequestState> {
        self.inflight.get_mut(SlabKey::from_raw(req.0))
    }

    fn request_live(&self, req: RequestId) -> bool {
        self.inflight.contains(SlabKey::from_raw(req.0))
    }

    fn remove_request(&mut self, req: RequestId) -> Option<RequestState> {
        self.inflight.remove(SlabKey::from_raw(req.0))
    }

    /// Returns a retired request's buffers to the recycling pools.
    // jade-audit: allow(unbounded-growth): recycling pool — drained by
    // on_client_think/new_request, which pop a retired buffer before
    // allocating a fresh one; residency is bounded by the number of
    // concurrently live requests.
    fn recycle_request(&mut self, state: RequestState) {
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
    fn recycle_plan(&mut self, plan: jade_tiers::InteractionPlan) {
        let jade_tiers::SqlProgram::Compiled(run) = plan.sql;
        let (mut params, mut demands) = (run.params, run.demands);
        params.clear();
        demands.clear();
        self.param_recycle.push((params, demands));
    }

    /// The accept queue of `server`, growing the dense table on demand.
    // jade-audit: allow(hot-panic): the resize_with on the preceding
    // line guarantees idx < accept_queues.len().
    fn accept_queue_mut(&mut self, server: ServerId) -> &mut VecDeque<RequestId> {
        let idx = server.0 as usize;
        if idx >= self.accept_queues.len() {
            self.accept_queues.resize_with(idx + 1, VecDeque::new);
        }
        &mut self.accept_queues[idx]
    }

    // ------------------------------------------------------------------
    // Client pool
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic, unbounded-growth): the client slab
    // grows monotonically to the configured ramp target and is indexed
    // by dense ids minted at push time; retired clients are deactivated
    // in place, never removed.
    pub(crate) fn on_ramp_tick(&mut self, sh: &mut Shared<'_, '_>) {
        let now = sh.ctx.now();
        let target = sh.cfg.ramp.clients_at(now);
        if let Some(pool) = self.pool.as_mut() {
            // Aggregate mode: the population is a set of counts; ramping
            // is pure bookkeeping on the pool (growth adds fresh sessions,
            // shrinkage retires idle ones and books in-flight debt).
            pool.set_target(u64::from(target));
        } else {
            let think = sh.cfg.think_time.as_secs_f64();
            let stagger =
                |rng: &mut jade_sim::SimRng| SimDuration::from_secs_f64(rng.f64() * think);
            let target = target as usize;
            // Grow: reactivate parked clients, then create new ones.
            let mut active: usize = self.clients.iter().filter(|c| c.active).count();
            for (i, slot) in self.clients.iter_mut().enumerate() {
                if active >= target {
                    break;
                }
                if !slot.active {
                    slot.active = true;
                    active += 1;
                    if !slot.busy {
                        slot.busy = true;
                        let delay = stagger(sh.ctx.rng());
                        sh.ctx
                            .send_after(delay, Addr::ROOT, Msg::ClientThink(i as u32));
                    }
                }
            }
            while active < target {
                let id = jade_sim::id_u32(self.clients.len());
                let rng = sh.ctx.rng().fork();
                self.clients.push(ClientSlot {
                    client: EmulatedClient::new(id, rng, sh.cfg.think_time),
                    active: true,
                    busy: true,
                });
                let delay = stagger(sh.ctx.rng());
                sh.ctx.send_after(delay, Addr::ROOT, Msg::ClientThink(id));
                active += 1;
            }
            // Shrink: park the highest-numbered clients; they retire at
            // the end of their current cycle.
            let parked = active.saturating_sub(target);
            for slot in self
                .clients
                .iter_mut()
                .rev()
                .filter(|c| c.active)
                .take(parked)
            {
                slot.active = false;
            }
        }
        let ids = self.hot_ids(sh.ctx);
        sh.ctx
            .metrics()
            .record_series_id(ids.clients, now, f64::from(target));
        sh.ctx
            .send_after(sh.cfg.ramp_tick, Addr::ROOT, Msg::RampTick);
    }

    /// Schedules the client's next think-cycle: one timer per idle
    /// client, the bulk of the pending set at paper scale.
    // jade-audit: allow(hot-panic): client ids are minted by
    // on_ramp_tick as dense indexes into the clients slab and never
    // escape the valid range.
    fn schedule_think(&mut self, ctx: &mut Ctx<'_, Msg>, client: u32) {
        let slot = &mut self.clients[client as usize];
        if !slot.active {
            slot.busy = false;
            return;
        }
        slot.busy = true;
        let think = slot.client.think_time();
        ctx.send_after(think, Addr::ROOT, Msg::ClientThink(client));
    }

    // jade-audit: allow(hot-panic): client ids are dense slab indexes
    // minted by on_ramp_tick (see schedule_think).
    pub(crate) fn on_client_think(
        &mut self,
        sh: &mut Shared<'_, '_>,
        fronts: FrontEnds,
        client: u32,
    ) {
        // Reuse a retired request's compiled-run buffers for the new plan.
        let (params, demands) = self.param_recycle.pop().unwrap_or_default();
        let slot = &mut self.clients[client as usize];
        if !slot.active {
            slot.busy = false;
            self.param_recycle.push((params, demands));
            return;
        }
        let plan = if sh.cfg.markov_navigation {
            slot.client.next_interaction_markov_into(
                &self.transitions,
                &mut self.ks,
                params,
                demands,
            )
        } else {
            slot.client
                .next_interaction_in_mix_into(&self.mix, &mut self.ks, params, demands)
        };
        self.dispatch_interaction(sh, fronts, client, plan);
    }

    /// One aggregate issuance tick: every idle session fires with the
    /// binomial probability implied by the tick length and the
    /// exponential think-time mean; each issuer draws a uniform dispatch
    /// offset within the tick and its navigation transition (in the
    /// pool's documented bucket order), and the materialization is
    /// deferred to [`Msg::PoolDispatch`].
    // jade-audit: allow(hot-panic): the expect encodes the mode
    // invariant tested by the let-else on the preceding lines — the
    // aggregate pool exists exactly when client_mode is Aggregate.
    pub(crate) fn on_pool_tick(&mut self, sh: &mut Shared<'_, '_>) {
        let ClientMode::Aggregate { tick } = sh.cfg.client_mode else {
            return;
        };
        let dt = tick.as_secs_f64();
        let p = 1.0 - (-dt / sh.cfg.think_time.as_secs_f64()).exp();
        let pool = self
            .pool
            .as_mut()
            .expect("pool tick implies aggregate mode");
        let out = &mut self.pool_scratch;
        out.clear();
        {
            let markov = sh.cfg.markov_navigation;
            let transitions = &self.transitions;
            let mix = &self.mix;
            pool.tick(p, sh.ctx.rng(), |rng, bucket| {
                let offset = SimDuration::from_secs_f64(rng.f64() * dt);
                let (ret, interaction) = if markov {
                    // A fresh session enters at Home without a draw,
                    // exactly like `EmulatedClient`; the issued
                    // interaction *is* the session's new state.
                    let s = if bucket == jade_rubis::FRESH_BUCKET {
                        transitions.home()
                    } else {
                        transitions.next(bucket, rng)
                    };
                    (s as u32, s as u32)
                } else {
                    // The i.i.d. mix tracks no state: sample the
                    // interaction, return to the fresh bucket.
                    let t = mix.sample_index(rng);
                    (jade_rubis::FRESH_BUCKET as u32, t as u32)
                };
                out.push((offset, ret, interaction));
            });
        }
        for &(offset, bucket, interaction) in out.iter() {
            sh.ctx.send_after(
                offset,
                Addr::ROOT,
                Msg::PoolDispatch {
                    bucket,
                    interaction,
                },
            );
        }
        sh.ctx.send_after(tick, Addr::ROOT, Msg::PoolTick);
    }

    /// An aggregate session's think time elapsed: materialize the plan
    /// (this is the only point an aggregate session pays per-session
    /// cost) and route it like any per-client request. The request
    /// carries the return bucket in its `client` field.
    pub(crate) fn on_pool_dispatch(
        &mut self,
        sh: &mut Shared<'_, '_>,
        fronts: FrontEnds,
        bucket: u32,
        interaction: u32,
    ) {
        let (params, demands) = self.param_recycle.pop().unwrap_or_default();
        let plan = jade_rubis::interactions::generate_plan_compiled_into(
            interaction as usize,
            &mut self.ks,
            sh.ctx.rng(),
            params,
            demands,
        );
        self.dispatch_interaction(sh, fronts, bucket, plan);
    }

    /// Returns the session behind `client` to its idle state after a
    /// request left the system: per-client mode re-arms the think
    /// timer, aggregate mode re-counts the session in its bucket.
    fn session_idle(&mut self, ctx: &mut Ctx<'_, Msg>, client: u32) {
        if let Some(pool) = self.pool.as_mut() {
            pool.complete(client as usize);
        } else {
            self.schedule_think(ctx, client);
        }
    }

    /// Routes a freshly generated interaction into the system — through
    /// the web tier when deployed, else via the PLB front-end straight
    /// to a Tomcat. Shared by both emulation modes; `client` is the
    /// issuing client index (per-client) or return bucket (aggregate).
    fn dispatch_interaction(
        &mut self,
        sh: &mut Shared<'_, '_>,
        fronts: FrontEnds,
        client: u32,
        plan: jade_tiers::InteractionPlan,
    ) {
        // With a web tier deployed, every request enters through the L4
        // switch and an Apache replica (paper Figure 2); otherwise it goes
        // straight through the PLB front-end to a Tomcat, and one routing
        // pass resolves the worker plus both endpoint nodes. `hops` is
        // `None` for an Apache, the PLB → Tomcat node pair otherwise.
        let routed = match (fronts.l4, fronts.plb) {
            (Some(l4), _) => sh
                .legacy
                .balancer_route_running(l4, sh.ctx.rng())
                .ok()
                .map(|apache| (apache, None)),
            (None, Some(plb)) => sh
                .legacy
                .balancer_route_running_with_nodes(plb, sh.ctx.rng())
                .ok()
                .map(|(tomcat, plb_node, tomcat_node)| (tomcat, Some((plb_node, tomcat_node)))),
            (None, None) => None,
        };
        let Some((entry, hops)) = routed else {
            self.recycle_plan(plan);
            sh.stats.record_failure(sh.ctx.now());
            self.session_idle(sh.ctx, client);
            return;
        };
        let req = self.new_request(sh, client, plan);
        let Some((plb_node, tomcat_node)) = hops else {
            let apache = entry;
            if let Some(st) = self.request_mut(req) {
                st.apache = Some(apache);
                st.phase = RequestPhase::WebServe;
            }
            let delay = sh.legacy.net.client_delay(REQUEST_BYTES);
            sh.ctx
                .send_after(delay, Addr::ROOT, Msg::ApacheAccept { req, apache });
            return;
        };
        // Client → front-end → replica network path.
        let delay = sh.legacy.net.client_delay(REQUEST_BYTES)
            + sh.legacy.net.delay(plb_node, tomcat_node, REQUEST_BYTES);
        // The front-end spends a little CPU forwarding the connection
        // (concurrently with the request's own path).
        let forward = SimDuration::from_micros(100);
        self.submit_job(sh, plb_node, JobOwner::Routing, forward);
        let tomcat = entry;
        sh.ctx
            .send_after(delay, Addr::ROOT, Msg::TomcatAccept { req, tomcat });
    }

    // jade-audit: allow(unbounded-growth): inflight is a slab keyed by
    // RequestId; on_response/fail_request remove the entry when the
    // request completes, so residency equals concurrently open requests.
    fn new_request(
        &mut self,
        sh: &mut Shared<'_, '_>,
        client: u32,
        plan: jade_tiers::InteractionPlan,
    ) -> RequestId {
        let seq = self.next_request_seq;
        self.next_request_seq += 1;
        let jobs = self.jobs_recycle.pop().unwrap_or_default();
        let key = self.inflight.insert(RequestState {
            client,
            seq,
            started: sh.ctx.now(),
            plan,
            apache: None,
            tomcat: None,
            phase: RequestPhase::Queued,
            sql_idx: 0,
            pending_db: 0,
            jobs,
            abandon: None,
        });
        let req = RequestId(key.raw());
        // Impatient clients abandon requests that take too long. The
        // timer token is kept in the slot so completion can cancel it.
        if let Some(patience) = sh.cfg.client_patience {
            let tok = sh
                .ctx
                .send_after(patience, Addr::ROOT, Msg::ClientAbandon { req });
            if let Some(state) = self.inflight.get_mut(key) {
                state.abandon = Some(tok);
            }
        }
        req
    }

    /// The client's patience ran out: abandon the request if it is still
    /// in flight. A stale id (the request completed and its slot was
    /// reused) misses the generation check and is ignored.
    pub(crate) fn on_client_abandon(&mut self, sh: &mut Shared<'_, '_>, req: RequestId) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        // This timer just fired; don't cancel it again in fail_request.
        state.abandon = None;
        let ids = self.hot_ids(sh.ctx);
        sh.ctx.metrics().incr_id(ids.abandoned, 1);
        self.fail_request(sh, req);
    }

    /// An HTTP request reached an Apache: charge the (small) web-tier CPU
    /// cost; static documents are answered directly, dynamic requests are
    /// forwarded to a Tomcat via mod_jk when the job completes.
    pub(crate) fn on_apache_accept(
        &mut self,
        sh: &mut Shared<'_, '_>,
        req: RequestId,
        apache: ServerId,
    ) {
        if !self.request_live(req) {
            return;
        }
        let (running, node, demand) = match sh.legacy.server(apache) {
            Ok(jade_tiers::LegacyServer::Apache(a)) => (
                a.process.state.is_running(),
                a.process.node,
                a.static_demand,
            ),
            _ => (false, NodeId(0), SimDuration::ZERO),
        };
        if !running {
            self.fail_request(sh, req);
            return;
        }
        self.submit_job(sh, node, JobOwner::ApacheServe(req), demand);
    }

    /// The Apache job finished: respond (static) or forward (dynamic).
    // jade-audit: allow(hot-panic): a request in ApachePre phase always
    // carries the apache that accepted it (set by dispatch).
    fn on_apache_done(&mut self, sh: &mut Shared<'_, '_>, req: RequestId) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        // Static documents never leave the web tier (paper §2: "the web
        // server directly returns that document to the client").
        if state.plan.sql.is_empty() {
            state.phase = RequestPhase::Responding;
            let bytes = state.plan.response_bytes;
            let delay = sh.legacy.net.client_delay(bytes);
            sh.ctx
                .send_after(delay, Addr::ROOT, Msg::ResponseDelivered { req });
            return;
        }
        let apache = state.apache.expect("web-served request has an apache");
        let tomcat = match sh.legacy.server_mut(apache) {
            Ok(jade_tiers::LegacyServer::Apache(a)) => a.next_worker(),
            _ => None,
        };
        let tomcat = match tomcat {
            Some(t)
                if sh
                    .legacy
                    .server(t)
                    .map(|s| s.process().state.is_running())
                    .unwrap_or(false) =>
            {
                t
            }
            _ => {
                self.fail_request(sh, req);
                return;
            }
        };
        let hop = sh.legacy.net.hop_latency;
        sh.ctx
            .send_after(hop, Addr::ROOT, Msg::TomcatAccept { req, tomcat });
    }

    // ------------------------------------------------------------------
    // Application tier
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic): the tomcat id was resolved by the
    // routing step one message earlier and server slots are only retired
    // by repair paths, which first fail the requests bound to them.
    pub(crate) fn on_tomcat_accept(
        &mut self,
        sh: &mut Shared<'_, '_>,
        req: RequestId,
        tomcat: ServerId,
    ) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        state.tomcat = Some(tomcat);
        let running = sh
            .legacy
            .server(tomcat)
            .map(|s| s.process().state.is_running())
            .unwrap_or(false);
        if !running {
            self.fail_request(sh, req);
            return;
        }
        let has_capacity = sh
            .legacy
            .tomcat_mut(tomcat)
            .expect("tomcat exists")
            .has_capacity();
        if has_capacity {
            self.start_servlet(sh, req);
        } else {
            let queue = self.accept_queue_mut(tomcat);
            if queue.len() < ACCEPT_QUEUE_LIMIT {
                queue.push_back(req);
            } else {
                self.fail_request(sh, req); // connection refused
            }
        }
    }

    /// Allocates a worker thread and starts the pre-query servlet work.
    // jade-audit: allow(hot-panic): callers (serve_accept_queue /
    // on_tomcat_accept) have already verified the request exists and is
    // bound to a live tomcat; the expects restate those checks.
    fn start_servlet(&mut self, sh: &mut Shared<'_, '_>, req: RequestId) {
        let (tomcat, demand) = {
            let state = self.request_mut(req).expect("checked in caller");
            state.phase = RequestPhase::ServletPre;
            (
                state.tomcat.expect("accepted request has a tomcat"),
                state.plan.pre_demand,
            )
        };
        let node = {
            let t = sh.legacy.tomcat_mut(tomcat).expect("tomcat exists");
            t.active += 1;
            t.process.node
        };
        self.submit_job(sh, node, JobOwner::ServletPre(req), demand);
    }

    /// When a worker thread frees up, admit the next queued request.
    fn serve_accept_queue(&mut self, sh: &mut Shared<'_, '_>, tomcat: ServerId) {
        loop {
            let next = match self.accept_queues.get_mut(tomcat.0 as usize) {
                Some(q) => q.pop_front(),
                None => return,
            };
            let Some(req) = next else { return };
            if self.request_live(req) {
                self.start_servlet(sh, req);
                return;
            }
            // Request vanished (failed) while queued; try the next one.
        }
    }

    // ------------------------------------------------------------------
    // Database tier
    // ------------------------------------------------------------------

    /// Dispatches the request's next SQL op to C-JDBC — or, when the plan
    /// is exhausted, starts the post-query page generation.
    #[jade_hot::jade_hot]
    pub(crate) fn on_db_dispatch(
        &mut self,
        sh: &mut Shared<'_, '_>,
        fronts: FrontEnds,
        req: RequestId,
    ) {
        let Some(state) = self.request(req) else {
            return;
        };
        // jade-audit: allow(hot-panic): tomcat is assigned before the first DbDispatch is scheduled
        let tomcat = state.tomcat.expect("SQL phase implies a tomcat");
        if state.sql_idx >= state.plan.sql.len() {
            let demand = state.plan.post_demand;
            let node = match sh.legacy.server(tomcat) {
                Ok(s) if s.process().state.is_running() => s.process().node,
                _ => {
                    self.fail_request(sh, req);
                    return;
                }
            };
            if let Some(st) = self.request_mut(req) {
                st.phase = RequestPhase::ServletPost;
            }
            self.submit_job(sh, node, JobOwner::ServletPost(req), demand);
            return;
        }
        // jade-audit: allow(hot-panic): sql_idx < plan.sql.len() checked by the early-return above
        let is_write = state.plan.sql.is_write_at(state.sql_idx);
        let Some(cjdbc) = fronts.cjdbc else {
            self.fail_request(sh, req);
            return;
        };
        // C-JDBC burns CPU on its own node routing every query (the paper
        // gave the database load balancer a dedicated machine).
        if let Ok(jade_tiers::LegacyServer::Cjdbc {
            process,
            routing_demand,
            ..
        }) = sh.legacy.server(cjdbc)
        {
            let (cj_node, demand) = (process.node, *routing_demand);
            self.submit_job(sh, cj_node, JobOwner::Routing, demand);
        }
        // The query is executed by reference straight out of the slab slot
        // (a compiled step borrows its shared program and the request's
        // parameter buffer); `inflight` and the legacy layer are disjoint,
        // so no clone. A write runs on the primary and is applied to every
        // replica as a delta, listed in the recycled broadcast buffer (no
        // targets `Vec` is allocated in steady state); a read runs on the
        // one backend C-JDBC picks.
        let mut targets = std::mem::take(&mut self.db_write_targets);
        let executed = {
            let state = self
                .inflight
                .get(SlabKey::from_raw(req.0))
                // jade-audit: allow(hot-panic): request(req) returned Some at function entry
                .expect("request checked live above");
            // jade-audit: allow(hot-panic): sql_idx < plan.sql.len() checked by the early-return above
            let query = state.plan.sql.query_at(state.sql_idx);
            if is_write {
                sh.legacy
                    .cjdbc_execute_write_into(cjdbc, query, &mut targets)
                    .map(|()| (None, query.demand))
            } else {
                let read = sh.legacy.cjdbc_execute_read(cjdbc, query, sh.ctx.rng());
                read.map(|(backend, demand)| (Some(backend), demand))
            }
        };
        match executed {
            Ok((read_from, demand)) => {
                let backends = if is_write {
                    targets.as_slice()
                } else {
                    read_from.as_slice()
                };
                if let Some(st) = self.request_mut(req) {
                    st.pending_db = backends.len();
                }
                for &backend in backends {
                    let node = sh
                        .legacy
                        .server(backend)
                        .map(|s| s.process().node)
                        // jade-audit: allow(hot-panic): C-JDBC routes and broadcasts only to live backends
                        .expect("active backend exists");
                    let owner = if is_write {
                        JobOwner::DbWrite {
                            req,
                            cjdbc,
                            backend,
                        }
                    } else {
                        JobOwner::DbRead {
                            req,
                            cjdbc,
                            backend,
                        }
                    };
                    self.submit_job(sh, node, owner, demand);
                }
            }
            Err(_) => self.fail_request(sh, req),
        }
        self.db_write_targets = targets;
    }

    /// A database job finished; advance the request when all replicas of
    /// the current op are done.
    fn on_db_job_done(
        &mut self,
        sh: &mut Shared<'_, '_>,
        req: RequestId,
        cjdbc: ServerId,
        backend: ServerId,
    ) {
        sh.legacy.cjdbc_note_complete(cjdbc, backend);
        let Some(state) = self.request_mut(req) else {
            return;
        };
        state.pending_db = state.pending_db.saturating_sub(1);
        if state.pending_db > 0 {
            return;
        }
        state.sql_idx += 1;
        state.phase = RequestPhase::Sql;
        // LAN hop back to the servlet and on to the next query.
        let hop = sh.legacy.net.hop_latency;
        sh.ctx.send_after(hop, Addr::ROOT, Msg::DbDispatch { req });
    }

    // ------------------------------------------------------------------
    // Completion / failure
    // ------------------------------------------------------------------

    /// The post-query servlet work finished: free the worker thread and
    /// ship the response.
    // jade-audit: allow(hot-panic): a request in Servlet phase always
    // carries its tomcat binding (set by start_servlet).
    fn on_servlet_done(&mut self, sh: &mut Shared<'_, '_>, req: RequestId) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        state.phase = RequestPhase::Responding;
        let tomcat = state.tomcat.expect("servlet phase implies a tomcat");
        let via_web = state.apache.is_some();
        let bytes = state.plan.response_bytes;
        if let Ok(t) = sh.legacy.tomcat_mut(tomcat) {
            t.active = t.active.saturating_sub(1);
        }
        self.serve_accept_queue(sh, tomcat);
        // The response travels back through the web tier when present.
        let mut delay = sh.legacy.net.client_delay(bytes);
        if via_web {
            delay += sh.legacy.net.hop_latency;
        }
        sh.ctx
            .send_after(delay, Addr::ROOT, Msg::ResponseDelivered { req });
    }

    // jade-audit: allow(hot-panic): the responding request's client id
    // is a dense index into the clients slab (see schedule_think).
    pub(crate) fn on_response(&mut self, sh: &mut Shared<'_, '_>, req: RequestId) {
        let Some(state) = self.remove_request(req) else {
            return;
        };
        // The client answered; its patience timer is moot.
        if let Some(tok) = state.abandon {
            sh.ctx.cancel(tok);
        }
        let latency = sh.ctx.now() - state.started;
        sh.stats
            .record_completion_of(sh.ctx.now(), latency, state.plan.name);
        let ids = self.hot_ids(sh.ctx);
        sh.ctx.metrics().record_latency_id(ids.latency, latency);
        sh.ctx.metrics().incr_id(ids.completed, 1);
        let client = state.client;
        self.recycle_request(state);
        if self.pool.is_none() {
            self.clients[client as usize].client.note_completed();
        }
        self.session_idle(sh.ctx, client);
    }

    /// Fails a request: aborts its CPU jobs, releases its worker thread,
    /// notifies statistics and sends the client back to thinking.
    // jade-audit: allow(hot-alloc): the format! sits inside a lazy
    // ctx.trace closure, rendered only when Warn-level tracing is
    // enabled — never on the measurement path.
    fn fail_request(&mut self, sh: &mut Shared<'_, '_>, req: RequestId) {
        let Some(mut state) = self.remove_request(req) else {
            return;
        };
        if let Some(tok) = state.abandon.take() {
            sh.ctx.cancel(tok);
        }
        // Abort any CPU job still owned by this request. `state.jobs` is
        // in submission order; completed jobs left stale generational ids
        // behind, which the slab remove simply rejects.
        let mut jobs = std::mem::take(&mut state.jobs);
        for job in jobs.drain(..) {
            let Some(owner) = self.job_owner.remove(SlabKey::from_raw(job.0)) else {
                continue;
            };
            let node = match owner {
                JobOwner::ApacheServe(_) => state
                    .apache
                    .and_then(|a| sh.legacy.server(a).ok())
                    .map(|s| s.process().node),
                JobOwner::ServletPre(_) | JobOwner::ServletPost(_) => state
                    .tomcat
                    .and_then(|t| sh.legacy.server(t).ok())
                    .map(|s| s.process().node),
                JobOwner::DbRead { backend, cjdbc, .. }
                | JobOwner::DbWrite { backend, cjdbc, .. } => {
                    sh.legacy.cjdbc_note_complete(cjdbc, backend);
                    sh.legacy.server(backend).ok().map(|s| s.process().node)
                }
                JobOwner::Daemon | JobOwner::Routing => None,
            };
            if let Some(node) = node {
                if let Ok(n) = sh.legacy.cluster.node_mut(node) {
                    n.cpu.abort(sh.ctx.now(), job);
                }
                rearm_cpu(sh, node);
            }
        }
        state.jobs = jobs;
        // Release the worker thread if the request held one.
        if matches!(
            state.phase,
            RequestPhase::ServletPre | RequestPhase::Sql | RequestPhase::ServletPost
        ) {
            if let Some(tomcat) = state.tomcat {
                if let Ok(t) = sh.legacy.tomcat_mut(tomcat) {
                    t.active = t.active.saturating_sub(1);
                }
                self.serve_accept_queue(sh, tomcat);
            }
        }
        sh.stats.record_failure_of(sh.ctx.now(), state.plan.name);
        let ids = self.hot_ids(sh.ctx);
        sh.ctx.metrics().incr_id(ids.failed, 1);
        sh.ctx.trace(jade_sim::TraceLevel::Warn, "request", || {
            format!(
                "request {req:?} ({}) failed in phase {:?}",
                state.plan.name, state.phase
            )
        });
        let client = state.client;
        self.recycle_request(state);
        self.session_idle(sh.ctx, client);
    }

    /// Routes CPU-job completions to their owners.
    pub(crate) fn on_cpu_complete(&mut self, sh: &mut Shared<'_, '_>, node: NodeId) {
        // Drain into the recycled scratch buffer (taken out of `self` so
        // the borrow checker allows the handler calls below to use it).
        let mut done = std::mem::take(&mut self.completion_scratch);
        done.clear();
        if let Ok(n) = sh.legacy.cluster.node_mut(node) {
            n.cpu.collect_completions_into(sh.ctx.now(), &mut done);
        }
        for job in done.drain(..) {
            let Some(owner) = self.job_owner.remove(SlabKey::from_raw(job.0)) else {
                continue;
            };
            match owner {
                JobOwner::ServletPre(req) => {
                    if let Some(state) = self.request_mut(req) {
                        state.phase = RequestPhase::Sql;
                        state.sql_idx = 0;
                    }
                    let hop = sh.legacy.net.hop_latency;
                    sh.ctx.send_after(hop, Addr::ROOT, Msg::DbDispatch { req });
                }
                JobOwner::ServletPost(req) => self.on_servlet_done(sh, req),
                JobOwner::ApacheServe(req) => self.on_apache_done(sh, req),
                JobOwner::DbRead {
                    req,
                    cjdbc,
                    backend,
                }
                | JobOwner::DbWrite {
                    req,
                    cjdbc,
                    backend,
                } => self.on_db_job_done(sh, req, cjdbc, backend),
                JobOwner::Daemon | JobOwner::Routing => {}
            }
        }
        self.completion_scratch = done;
        rearm_cpu(sh, node);
    }

    // ------------------------------------------------------------------
    // Crossings: what Jade's actuators ask of the request path
    // ------------------------------------------------------------------

    /// Charges `demand` of CPU on `node` to `owner` (Jade's daemon uses it
    /// for its intrusivity, Table 1).
    // jade-audit: allow(unbounded-growth): job_owner is a slab keyed by
    // JobId; on_cpu_complete and fail_aborted_jobs remove the entry when
    // the job finishes or its node dies, so residency equals in-flight
    // CPU jobs.
    pub(crate) fn submit_job(
        &mut self,
        sh: &mut Shared<'_, '_>,
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
        if let Ok(n) = sh.legacy.cluster.node_mut(node) {
            n.cpu.submit(sh.ctx.now(), id, demand);
        }
        rearm_cpu(sh, node);
    }

    /// Fails every in-flight request processed by `server` (queued,
    /// executing, or mid-SQL): the server stopped or failed.
    #[cold]
    pub(crate) fn fail_requests_on_server(&mut self, sh: &mut Shared<'_, '_>, server: ServerId) {
        // Slab iteration is slot order; sort by the creation-order stamp
        // so victims fail oldest-first like the old ordered-map scan.
        let mut victims: Vec<(u64, RequestId)> = self
            .inflight
            .iter()
            .filter(|(_, s)| s.tomcat == Some(server) || s.apache == Some(server))
            .map(|(k, s)| (s.seq, RequestId(k.raw())))
            .collect();
        victims.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, req) in victims {
            self.fail_request(sh, req);
        }
        self.clear_accept_queue(server);
    }

    /// Drops any queued requests of `server` without growing the table
    /// (a repaired Tomcat's queue).
    pub(crate) fn clear_accept_queue(&mut self, server: ServerId) {
        if let Some(q) = self.accept_queues.get_mut(server.0 as usize) {
            q.clear();
        }
    }

    /// Aborts all CPU jobs on a stopped replica's node, failing the
    /// requests they belonged to.
    #[cold]
    pub(crate) fn abort_node_jobs(&mut self, sh: &mut Shared<'_, '_>, node: NodeId) {
        let aborted = match sh.legacy.cluster.node_mut(node) {
            Ok(n) => n.cpu.abort_all(sh.ctx.now()),
            Err(_) => Vec::new(),
        };
        self.fail_aborted_jobs(sh, node, aborted);
    }

    /// Disarms a dead (or stopped) node's CPU timer and fails the requests
    /// its aborted jobs belonged to.
    #[cold]
    pub(crate) fn fail_aborted_jobs(
        &mut self,
        sh: &mut Shared<'_, '_>,
        node: NodeId,
        aborted: Vec<JobId>,
    ) {
        sh.ctx.disarm_timer(node.0);
        for job in aborted {
            let owner = self.job_owner.remove(SlabKey::from_raw(job.0));
            if let Some(req) = owner.and_then(JobOwner::request) {
                self.fail_request(sh, req);
            }
        }
    }
}
