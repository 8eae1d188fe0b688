//! Client pool and request flow: the RUBiS client emulator driving the
//! multi-tier request path of paper §2, Figure 1.

use super::msg::{JobOwner, Msg, RequestPhase, RequestState};
use super::{ClientSlot, J2eeApp};
use jade_rubis::EmulatedClient;
use jade_sim::{Addr, Ctx, SimDuration, SlabKey};
use jade_tiers::{RequestId, ServerId};

/// Approximate HTTP request size on the wire.
const REQUEST_BYTES: u64 = 600;
/// Bound on a Tomcat connector's accept queue; beyond it connections are
/// refused (the client retries after thinking).
const ACCEPT_QUEUE_LIMIT: usize = 512;

impl J2eeApp {
    // ------------------------------------------------------------------
    // Client pool
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic, unbounded-growth): the client slab
    // grows monotonically to the configured ramp target and is indexed
    // by dense ids minted at push time; retired clients are deactivated
    // in place, never removed.
    pub(crate) fn on_ramp_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Aggregate mode: the population is a set of counts; ramping is
        // pure bookkeeping on the pool (growth adds fresh sessions,
        // shrinkage retires idle ones and books in-flight debt).
        if let Some(pool) = self.pool.as_mut() {
            let target = u64::from(self.cfg.ramp.clients_at(ctx.now()));
            pool.set_target(target);
            let now = ctx.now();
            let ids = self.hot_ids(ctx);
            ctx.metrics()
                .record_series_id(ids.clients, now, target as f64);
            ctx.send_after_coarse(self.cfg.ramp_tick, Addr::ROOT, Msg::RampTick);
            return;
        }
        let target = self.cfg.ramp.clients_at(ctx.now()) as usize;
        // Grow: reactivate parked clients, then create new ones.
        let mut active: usize = self.clients.iter().filter(|c| c.active).count();
        for i in 0..self.clients.len() {
            if active >= target {
                break;
            }
            if !self.clients[i].active {
                self.clients[i].active = true;
                active += 1;
                if !self.clients[i].busy {
                    self.clients[i].busy = true;
                    let stagger = SimDuration::from_secs_f64(
                        ctx.rng().f64() * self.cfg.think_time.as_secs_f64(),
                    );
                    ctx.send_after_coarse(stagger, Addr::ROOT, Msg::ClientThink(i as u32));
                }
            }
        }
        while active < target {
            let id = jade_sim::id_u32(self.clients.len());
            let rng = ctx.rng().fork();
            self.clients.push(ClientSlot {
                client: EmulatedClient::new(id, rng, self.cfg.think_time),
                active: true,
                busy: true,
            });
            let stagger =
                SimDuration::from_secs_f64(ctx.rng().f64() * self.cfg.think_time.as_secs_f64());
            ctx.send_after_coarse(stagger, Addr::ROOT, Msg::ClientThink(id));
            active += 1;
        }
        // Shrink: park the highest-numbered clients; they retire at the
        // end of their current cycle.
        if active > target {
            let mut excess = active - target;
            for slot in self.clients.iter_mut().rev() {
                if excess == 0 {
                    break;
                }
                if slot.active {
                    slot.active = false;
                    excess -= 1;
                }
            }
        }
        let now = ctx.now();
        let ids = self.hot_ids(ctx);
        ctx.metrics()
            .record_series_id(ids.clients, now, target as f64);
        ctx.send_after_coarse(self.cfg.ramp_tick, Addr::ROOT, Msg::RampTick);
    }

    /// Schedules the client's next think-cycle. Think timers are the
    /// bulk of the pending set — one per idle client — so they ride the
    /// timer wheel, not the min-heap.
    // jade-audit: allow(hot-panic): client ids are minted by
    // on_ramp_tick as dense indexes into the clients slab and never
    // escape the valid range.
    pub(crate) fn schedule_think(&mut self, ctx: &mut Ctx<'_, Msg>, client: u32) {
        let slot = &mut self.clients[client as usize];
        if !slot.active {
            slot.busy = false;
            return;
        }
        slot.busy = true;
        let think = slot.client.think_time();
        ctx.send_after_coarse(think, Addr::ROOT, Msg::ClientThink(client));
    }

    // jade-audit: allow(hot-panic): client ids are dense slab indexes
    // minted by on_ramp_tick (see schedule_think).
    pub(crate) fn on_client_think(&mut self, ctx: &mut Ctx<'_, Msg>, client: u32) {
        // Reuse a retired request's compiled-run buffers for the new plan.
        let (params, demands) = self.param_recycle.pop().unwrap_or_default();
        let slot = &mut self.clients[client as usize];
        if !slot.active {
            slot.busy = false;
            self.param_recycle.push((params, demands));
            return;
        }
        let plan = if self.cfg.markov_navigation {
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
        self.dispatch_interaction(ctx, client, plan);
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
    pub(crate) fn on_pool_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let crate::config::ClientMode::Aggregate { tick } = self.cfg.client_mode else {
            return;
        };
        let dt = tick.as_secs_f64();
        let p = 1.0 - (-dt / self.cfg.think_time.as_secs_f64()).exp();
        let mut pool = self.pool.take().expect("pool tick implies aggregate mode");
        let mut out = std::mem::take(&mut self.pool_scratch);
        out.clear();
        {
            let markov = self.cfg.markov_navigation;
            let transitions = &self.transitions;
            let mix = &self.mix;
            pool.tick(p, ctx.rng(), |rng, bucket| {
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
        for &(offset, bucket, interaction) in &out {
            ctx.send_after_coarse(
                offset,
                Addr::ROOT,
                Msg::PoolDispatch {
                    bucket,
                    interaction,
                },
            );
        }
        self.pool_scratch = out;
        self.pool = Some(pool);
        ctx.send_after_coarse(tick, Addr::ROOT, Msg::PoolTick);
    }

    /// An aggregate session's think time elapsed: materialize the plan
    /// (this is the only point an aggregate session pays per-session
    /// cost) and route it like any per-client request. The request
    /// carries the return bucket in its `client` field.
    pub(crate) fn on_pool_dispatch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        bucket: u32,
        interaction: u32,
    ) {
        let (params, demands) = self.param_recycle.pop().unwrap_or_default();
        let plan = jade_rubis::interactions::generate_plan_compiled_into(
            interaction as usize,
            &mut self.ks,
            ctx.rng(),
            params,
            demands,
        );
        self.dispatch_interaction(ctx, bucket, plan);
    }

    /// Returns the session behind `client` to its idle state after a
    /// request left the system: per-client mode re-arms the think
    /// timer, aggregate mode re-counts the session in its bucket.
    pub(crate) fn session_idle(&mut self, ctx: &mut Ctx<'_, Msg>, client: u32) {
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
        ctx: &mut Ctx<'_, Msg>,
        client: u32,
        plan: jade_tiers::InteractionPlan,
    ) {
        // With a web tier deployed, every request enters through the L4
        // switch and an Apache replica (paper Figure 2); otherwise it goes
        // straight through the PLB front-end to a Tomcat.
        if let Some((l4_server, _)) = self.l4 {
            let apache = {
                let rng = ctx.rng();
                self.legacy.balancer_route_running(l4_server, rng)
            };
            let apache = match apache {
                Ok(a) => a,
                Err(_) => {
                    self.recycle_plan(plan);
                    self.stats.record_failure(ctx.now());
                    self.session_idle(ctx, client);
                    return;
                }
            };
            let req = self.new_request(ctx, client, plan);
            if let Some(st) = self.request_mut(req) {
                st.apache = Some(apache);
                st.phase = RequestPhase::WebServe;
            }
            let delay = self.legacy.net.client_delay(REQUEST_BYTES);
            ctx.send_after(delay, Addr::ROOT, Msg::ApacheAccept { req, apache });
            return;
        }

        let Some((plb_server, _)) = self.plb else {
            self.recycle_plan(plan);
            self.stats.record_failure(ctx.now());
            self.session_idle(ctx, client);
            return;
        };
        // One routing pass resolves the worker plus both endpoint nodes,
        // instead of re-probing the server table for each.
        let routed = {
            let rng = ctx.rng();
            self.legacy
                .balancer_route_running_with_nodes(plb_server, rng)
        };
        let (tomcat, plb_node, tomcat_node) = match routed {
            Ok(r) => r,
            Err(_) => {
                self.recycle_plan(plan);
                self.stats.record_failure(ctx.now());
                self.session_idle(ctx, client);
                return;
            }
        };
        let req = self.new_request(ctx, client, plan);
        // Client → front-end → replica network path.
        let delay = self.legacy.net.client_delay(REQUEST_BYTES)
            + self.legacy.net.delay(plb_node, tomcat_node, REQUEST_BYTES);
        // The front-end spends a little CPU forwarding the connection
        // (concurrently with the request's own path).
        self.submit_job(
            ctx,
            plb_node,
            JobOwner::Routing,
            SimDuration::from_micros(100),
        );
        ctx.send_after(delay, Addr::ROOT, Msg::TomcatAccept { req, tomcat });
    }

    // jade-audit: allow(unbounded-growth): inflight is a slab keyed by
    // RequestId; on_response/fail_request remove the entry when the
    // request completes, so residency equals concurrently open requests.
    fn new_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: u32,
        plan: jade_tiers::InteractionPlan,
    ) -> RequestId {
        let seq = self.next_request_seq;
        self.next_request_seq += 1;
        let jobs = self.jobs_recycle.pop().unwrap_or_default();
        let key = self.inflight.insert(RequestState {
            client,
            seq,
            started: ctx.now(),
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
        if let Some(patience) = self.cfg.client_patience {
            let tok = ctx.send_after_coarse(patience, Addr::ROOT, Msg::ClientAbandon { req });
            if let Some(state) = self.inflight.get_mut(key) {
                state.abandon = Some(tok);
            }
        }
        req
    }

    /// The client's patience ran out: abandon the request if it is still
    /// in flight. A stale id (the request completed and its slot was
    /// reused) misses the generation check and is ignored.
    pub(crate) fn on_client_abandon(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        // This timer just fired; don't cancel it again in fail_request.
        state.abandon = None;
        let ids = self.hot_ids(ctx);
        ctx.metrics().incr_id(ids.abandoned, 1);
        self.fail_request(ctx, req);
    }

    /// An HTTP request reached an Apache: charge the (small) web-tier CPU
    /// cost; static documents are answered directly, dynamic requests are
    /// forwarded to a Tomcat via mod_jk when the job completes.
    pub(crate) fn on_apache_accept(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: RequestId,
        apache: ServerId,
    ) {
        if !self.request_live(req) {
            return;
        }
        let (running, node, demand) = match self.legacy.server(apache) {
            Ok(jade_tiers::LegacyServer::Apache(a)) => (
                a.process.state.is_running(),
                a.process.node,
                a.static_demand,
            ),
            _ => (false, jade_cluster::NodeId(0), SimDuration::ZERO),
        };
        if !running {
            self.fail_request(ctx, req);
            return;
        }
        self.submit_job(ctx, node, JobOwner::ApacheServe(req), demand);
    }

    /// The Apache job finished: respond (static) or forward (dynamic).
    // jade-audit: allow(hot-panic): a request in ApachePre phase always
    // carries the apache that accepted it (set by dispatch).
    pub(crate) fn on_apache_done(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        // Static documents never leave the web tier (paper §2: "the web
        // server directly returns that document to the client").
        if state.plan.sql.is_empty() {
            state.phase = RequestPhase::Responding;
            let bytes = state.plan.response_bytes;
            let delay = self.legacy.net.client_delay(bytes);
            ctx.send_after(delay, Addr::ROOT, Msg::ResponseDelivered { req });
            return;
        }
        let apache = state.apache.expect("web-served request has an apache");
        let tomcat = match self.legacy.server_mut(apache) {
            Ok(jade_tiers::LegacyServer::Apache(a)) => a.next_worker(),
            _ => None,
        };
        let tomcat = match tomcat {
            Some(t)
                if self
                    .legacy
                    .server(t)
                    .map(|s| s.process().state.is_running())
                    .unwrap_or(false) =>
            {
                t
            }
            _ => {
                self.fail_request(ctx, req);
                return;
            }
        };
        let hop = self.legacy.net.hop_latency;
        ctx.send_after(hop, Addr::ROOT, Msg::TomcatAccept { req, tomcat });
    }

    // ------------------------------------------------------------------
    // Application tier
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic): the tomcat id was resolved by the
    // routing step one message earlier and server slots are only retired
    // by repair paths, which first fail the requests bound to them.
    pub(crate) fn on_tomcat_accept(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: RequestId,
        tomcat: ServerId,
    ) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        state.tomcat = Some(tomcat);
        let running = self
            .legacy
            .server(tomcat)
            .map(|s| s.process().state.is_running())
            .unwrap_or(false);
        if !running {
            self.fail_request(ctx, req);
            return;
        }
        let has_capacity = self
            .legacy
            .tomcat_mut(tomcat)
            .expect("tomcat exists")
            .has_capacity();
        if has_capacity {
            self.start_servlet(ctx, req);
        } else {
            let queue = self.accept_queue_mut(tomcat);
            if queue.len() < ACCEPT_QUEUE_LIMIT {
                queue.push_back(req);
            } else {
                self.fail_request(ctx, req); // connection refused
            }
        }
    }

    /// Allocates a worker thread and starts the pre-query servlet work.
    // jade-audit: allow(hot-panic): callers (serve_accept_queue /
    // on_tomcat_accept) have already verified the request exists and is
    // bound to a live tomcat; the expects restate those checks.
    fn start_servlet(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let (tomcat, demand) = {
            let state = self.request_mut(req).expect("checked in caller");
            state.phase = RequestPhase::ServletPre;
            (
                state.tomcat.expect("accepted request has a tomcat"),
                state.plan.pre_demand,
            )
        };
        let node = {
            let t = self.legacy.tomcat_mut(tomcat).expect("tomcat exists");
            t.active += 1;
            t.process.node
        };
        self.submit_job(ctx, node, JobOwner::ServletPre(req), demand);
    }

    /// When a worker thread frees up, admit the next queued request.
    pub(crate) fn serve_accept_queue(&mut self, ctx: &mut Ctx<'_, Msg>, tomcat: ServerId) {
        loop {
            let next = match self.accept_queues.get_mut(tomcat.0 as usize) {
                Some(q) => q.pop_front(),
                None => return,
            };
            let Some(req) = next else { return };
            if self.request_live(req) {
                self.start_servlet(ctx, req);
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
    pub(crate) fn on_db_dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let Some(state) = self.request(req) else {
            return;
        };
        // jade-audit: allow(hot-panic): tomcat is assigned before the first DbDispatch is scheduled
        let tomcat = state.tomcat.expect("SQL phase implies a tomcat");
        if state.sql_idx >= state.plan.sql.len() {
            let demand = state.plan.post_demand;
            let node = match self.legacy.server(tomcat) {
                Ok(s) if s.process().state.is_running() => s.process().node,
                _ => {
                    self.fail_request(ctx, req);
                    return;
                }
            };
            if let Some(st) = self.request_mut(req) {
                st.phase = RequestPhase::ServletPost;
            }
            self.submit_job(ctx, node, JobOwner::ServletPost(req), demand);
            return;
        }
        // jade-audit: allow(hot-panic): sql_idx < plan.sql.len() checked by the early-return above
        let is_write = state.plan.sql.is_write_at(state.sql_idx);
        let Some((cjdbc, _)) = self.cjdbc else {
            self.fail_request(ctx, req);
            return;
        };
        // C-JDBC burns CPU on its own node routing every query (the paper
        // gave the database load balancer a dedicated machine).
        if let Ok(jade_tiers::LegacyServer::Cjdbc {
            process,
            routing_demand,
            ..
        }) = self.legacy.server(cjdbc)
        {
            let (cj_node, demand) = (process.node, *routing_demand);
            self.submit_job(ctx, cj_node, JobOwner::Routing, demand);
        }
        // The query is executed by reference straight out of the slab slot
        // (a compiled step borrows its shared program and the request's
        // parameter buffer); `inflight` and `legacy` are disjoint fields,
        // so no clone.
        if is_write {
            // Recycled broadcast buffer: the primary executes once, the
            // replicas apply its delta, and no targets `Vec` is allocated
            // in steady state.
            let mut targets = std::mem::take(&mut self.db_write_targets);
            let (executed, demand) = {
                let state = self
                    .inflight
                    .get(SlabKey::from_raw(req.0))
                    // jade-audit: allow(hot-panic): request(req) returned Some at function entry
                    .expect("request checked live above");
                // jade-audit: allow(hot-panic): sql_idx < plan.sql.len() checked by the early-return above
                let query = state.plan.sql.query_at(state.sql_idx);
                (
                    self.legacy
                        .cjdbc_execute_write_into(cjdbc, query, &mut targets),
                    query.demand,
                )
            };
            match executed {
                Ok(()) => {
                    if let Some(st) = self.request_mut(req) {
                        st.pending_db = targets.len();
                    }
                    for &backend in &targets {
                        let node = self
                            .legacy
                            .server(backend)
                            .map(|s| s.process().node)
                            // jade-audit: allow(hot-panic): cjdbc_execute_write_into targets only live backends
                            .expect("active backend exists");
                        self.submit_job(
                            ctx,
                            node,
                            JobOwner::DbWrite {
                                req,
                                cjdbc,
                                backend,
                            },
                            demand,
                        );
                    }
                }
                Err(_) => self.fail_request(ctx, req),
            }
            self.db_write_targets = targets;
        } else {
            let routed = {
                let state = self
                    .inflight
                    .get(SlabKey::from_raw(req.0))
                    // jade-audit: allow(hot-panic): request(req) returned Some at function entry
                    .expect("request checked live above");
                // jade-audit: allow(hot-panic): sql_idx < plan.sql.len() checked by the early-return above
                let query = state.plan.sql.query_at(state.sql_idx);
                let rng = ctx.rng();
                self.legacy.cjdbc_execute_read(cjdbc, query, rng)
            };
            match routed {
                Ok((backend, demand)) => {
                    if let Some(st) = self.request_mut(req) {
                        st.pending_db = 1;
                    }
                    let node = self
                        .legacy
                        .server(backend)
                        .map(|s| s.process().node)
                        // jade-audit: allow(hot-panic): cjdbc_execute_read routes only to live backends
                        .expect("active backend exists");
                    self.submit_job(
                        ctx,
                        node,
                        JobOwner::DbRead {
                            req,
                            cjdbc,
                            backend,
                        },
                        demand,
                    );
                }
                Err(_) => self.fail_request(ctx, req),
            }
        }
    }

    /// A database job finished; advance the request when all replicas of
    /// the current op are done.
    pub(crate) fn on_db_job_done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: RequestId,
        cjdbc: ServerId,
        backend: ServerId,
    ) {
        self.legacy.cjdbc_note_complete(cjdbc, backend);
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
        let hop = self.legacy.net.hop_latency;
        ctx.send_after(hop, Addr::ROOT, Msg::DbDispatch { req });
    }

    // ------------------------------------------------------------------
    // Completion / failure
    // ------------------------------------------------------------------

    /// The post-query servlet work finished: free the worker thread and
    /// ship the response.
    // jade-audit: allow(hot-panic): a request in Servlet phase always
    // carries its tomcat binding (set by start_servlet).
    pub(crate) fn on_servlet_done(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let Some(state) = self.request_mut(req) else {
            return;
        };
        state.phase = RequestPhase::Responding;
        let tomcat = state.tomcat.expect("servlet phase implies a tomcat");
        let via_web = state.apache.is_some();
        let bytes = state.plan.response_bytes;
        if let Ok(t) = self.legacy.tomcat_mut(tomcat) {
            t.active = t.active.saturating_sub(1);
        }
        self.serve_accept_queue(ctx, tomcat);
        // The response travels back through the web tier when present.
        let mut delay = self.legacy.net.client_delay(bytes);
        if via_web {
            delay += self.legacy.net.hop_latency;
        }
        ctx.send_after(delay, Addr::ROOT, Msg::ResponseDelivered { req });
    }

    // jade-audit: allow(hot-panic): the responding request's client id
    // is a dense index into the clients slab (see schedule_think).
    pub(crate) fn on_response(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let Some(state) = self.remove_request(req) else {
            return;
        };
        // The client answered; its patience timer is moot.
        if let Some(tok) = state.abandon {
            ctx.cancel(tok);
        }
        let latency = ctx.now() - state.started;
        self.stats
            .record_completion_of(ctx.now(), latency, state.plan.name);
        let ids = self.hot_ids(ctx);
        ctx.metrics().record_latency_id(ids.latency, latency);
        ctx.metrics().incr_id(ids.completed, 1);
        let client = state.client;
        self.recycle_request(state);
        if self.pool.is_some() {
            self.session_idle(ctx, client);
        } else {
            self.clients[client as usize].client.note_completed();
            self.schedule_think(ctx, client);
        }
    }

    /// Fails a request: aborts its CPU jobs, releases its worker thread,
    /// notifies statistics and sends the client back to thinking.
    // jade-audit: allow(hot-alloc): the format! sits inside a lazy
    // ctx.trace closure, rendered only when Warn-level tracing is
    // enabled — never on the measurement path.
    pub(crate) fn fail_request(&mut self, ctx: &mut Ctx<'_, Msg>, req: RequestId) {
        let Some(mut state) = self.remove_request(req) else {
            return;
        };
        if let Some(tok) = state.abandon.take() {
            ctx.cancel(tok);
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
                    .and_then(|a| self.legacy.server(a).ok())
                    .map(|s| s.process().node),
                JobOwner::ServletPre(_) | JobOwner::ServletPost(_) => state
                    .tomcat
                    .and_then(|t| self.legacy.server(t).ok())
                    .map(|s| s.process().node),
                JobOwner::DbRead { backend, cjdbc, .. }
                | JobOwner::DbWrite { backend, cjdbc, .. } => {
                    self.legacy.cjdbc_note_complete(cjdbc, backend);
                    self.legacy.server(backend).ok().map(|s| s.process().node)
                }
                JobOwner::Daemon | JobOwner::Routing => None,
            };
            if let Some(node) = node {
                if let Ok(n) = self.legacy.cluster.node_mut(node) {
                    n.cpu.abort(ctx.now(), job);
                }
                self.rearm_cpu(ctx, node);
            }
        }
        state.jobs = jobs;
        // Release the worker thread if the request held one.
        if matches!(
            state.phase,
            RequestPhase::ServletPre | RequestPhase::Sql | RequestPhase::ServletPost
        ) {
            if let Some(tomcat) = state.tomcat {
                if let Ok(t) = self.legacy.tomcat_mut(tomcat) {
                    t.active = t.active.saturating_sub(1);
                }
                self.serve_accept_queue(ctx, tomcat);
            }
        }
        self.stats.record_failure_of(ctx.now(), state.plan.name);
        let ids = self.hot_ids(ctx);
        ctx.metrics().incr_id(ids.failed, 1);
        ctx.trace(jade_sim::TraceLevel::Warn, "request", || {
            format!(
                "request {req:?} ({}) failed in phase {:?}",
                state.plan.name, state.phase
            )
        });
        let client = state.client;
        self.recycle_request(state);
        self.session_idle(ctx, client);
    }

    /// Routes CPU-job completions to their owners.
    pub(crate) fn on_cpu_complete(&mut self, ctx: &mut Ctx<'_, Msg>, node: jade_cluster::NodeId) {
        // Drain into the recycled scratch buffer (taken out of `self` so
        // the borrow checker allows the handler calls below to use it).
        let mut done = std::mem::take(&mut self.completion_scratch);
        done.clear();
        if let Ok(n) = self.legacy.cluster.node_mut(node) {
            n.cpu.collect_completions_into(ctx.now(), &mut done);
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
                    let hop = self.legacy.net.hop_latency;
                    ctx.send_after(hop, Addr::ROOT, Msg::DbDispatch { req });
                }
                JobOwner::ServletPost(req) => self.on_servlet_done(ctx, req),
                JobOwner::ApacheServe(req) => self.on_apache_done(ctx, req),
                JobOwner::DbRead {
                    req,
                    cjdbc,
                    backend,
                }
                | JobOwner::DbWrite {
                    req,
                    cjdbc,
                    backend,
                } => self.on_db_job_done(ctx, req, cjdbc, backend),
                JobOwner::Daemon | JobOwner::Routing => {}
            }
        }
        self.completion_scratch = done;
        self.rearm_cpu(ctx, node);
    }
}
