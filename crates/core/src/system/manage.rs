//! Jade's run-time management: probes, control loops, reconfiguration
//! workflows (the actuators of paper §4.1) and failure handling.

use super::msg::{JobOwner, ManagedTier, Msg};
use super::reconfig::{Outcome, ReconfigKind, ReconfigPhase, Reconfiguration};
use super::J2eeApp;
use crate::control::Decision;
use jade_cluster::NodeId;
use jade_sim::{Addr, Ctx, JobId, SimDuration, SlabKey};
use jade_tiers::{LegacyEvent, RequestId, ServerId, Tier};

/// Extra installation latency for restoring the database dump onto a new
/// MySQL replica.
const DB_DUMP_RESTORE: SimDuration = SimDuration::from_secs(5);

impl J2eeApp {
    /// Components of the Apache replicas (web-tier topologies).
    pub(crate) fn apache_components(&self) -> Vec<jade_fractal::ComponentId> {
        let l4_comp = self.l4.map(|(_, c)| c);
        self.registry
            .children(self.web_tier)
            .into_iter()
            .filter(|&c| Some(c) != l4_comp)
            .collect()
    }

    pub(crate) fn log_reconfig(&mut self, ctx: &mut Ctx<'_, Msg>, text: String) {
        ctx.trace(jade_sim::TraceLevel::Info, "manager", || text.clone());
        self.reconfig_log.push((ctx.now(), text));
        ctx.metrics().incr("reconfigurations", 1);
    }

    pub(crate) fn record_replica_series(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let ids = self.hot_ids(ctx);
        let app = self.running_replicas(ManagedTier::Application) as f64;
        let db = self.running_replicas(ManagedTier::Database) as f64;
        let now = ctx.now();
        ctx.metrics()
            .record_series_batch(now, &[(ids.replicas_app, app), (ids.replicas_db, db)]);
    }

    // ------------------------------------------------------------------
    // Probes (MeasureTick): the harness-level measurement that both the
    // figures and Jade's sensors read.
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic): samples[] is a dense per-node array
    // resized to the cluster's node count at the top of the tick, and
    // tier node lists only hold NodeIds minted by the same cluster.
    pub(crate) fn on_measure_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        // Sample every node once into a dense per-node array
        // (`samples[i]` = utilization of `NodeId(i)`); aggregate per
        // managed tier. All buffers are recycled fields, swapped out for
        // the duration of the tick (the heartbeat loop below needs
        // `&mut self`), so the steady-state tick allocates nothing. Tier
        // node lists stay sorted by id, so every spatial sum visits the
        // same samples in the same order as the map-based probe did.
        let mut samples = std::mem::take(&mut self.probe_samples);
        let mut app_nodes = std::mem::take(&mut self.probe_app_nodes);
        let mut db_nodes = std::mem::take(&mut self.probe_db_nodes);
        let mut allocated = std::mem::take(&mut self.probe_allocated);
        self.legacy
            .nodes_of_tier_into(Tier::Application, &mut app_nodes);
        self.legacy
            .nodes_of_tier_into(Tier::Database, &mut db_nodes);
        self.legacy.cluster.sample_cpus_into(now, &mut samples);
        let avg = |nodes: &[NodeId]| -> f64 {
            if nodes.is_empty() {
                0.0
            } else {
                nodes.iter().map(|&n| samples[n.0 as usize]).sum::<f64>() / nodes.len() as f64
            }
        };
        self.latest_app_cpu = avg(&app_nodes);
        self.latest_db_cpu = avg(&db_nodes);

        // Memory and node-allocation series (Table 1, Figure 5 context).
        self.legacy.cluster.fill_allocated(&mut allocated);
        let mem_avg = if allocated.is_empty() {
            0.0
        } else {
            allocated
                .iter()
                .filter_map(|&n| self.legacy.cluster.node(n).ok())
                .map(|n| n.memory_utilization())
                .sum::<f64>()
                / allocated.len() as f64
        };
        let cpu_all_avg = avg(&allocated);
        // One batched append per probe tick: every sample shares `now`.
        let ids = self.hot_ids(ctx);
        ctx.metrics().record_series_batch(
            now,
            &[
                (ids.cpu_app, self.latest_app_cpu),
                (ids.cpu_db, self.latest_db_cpu),
                (ids.mem_avg, mem_avg),
                (ids.cpu_all, cpu_all_avg),
                (ids.nodes_allocated, allocated.len() as f64),
            ],
        );
        self.record_replica_series(ctx);

        // Intrusivity: the management daemon consumes a little CPU on
        // every managed node, every probe period (Table 1) — and its
        // report doubles as the node's heartbeat for failure detection.
        if self.cfg.jade.managed {
            let demand = self.cfg.jade.daemon_demand;
            for &node in &allocated {
                let up = self
                    .legacy
                    .cluster
                    .node(node)
                    .map(|n| n.is_up())
                    .unwrap_or(false);
                if up {
                    self.record_heartbeat(node, now);
                    self.submit_job(ctx, node, JobOwner::Daemon, demand);
                }
            }
        }
        // Return the scratch buffers for the next tick.
        self.probe_samples = samples;
        self.probe_app_nodes = app_nodes;
        self.probe_db_nodes = db_nodes;
        self.probe_allocated = allocated;
        // Arbitration pump: execute at most one queued reconfiguration
        // when the system is quiescent.
        self.pump_arbitrator(ctx);
        ctx.send_after_coarse(self.cfg.jade.probe_period, Addr::ROOT, Msg::MeasureTick);
    }

    /// Executes the next arbitrated reconfiguration once none is in
    /// flight (each probe tick, and before a rolling restart's next step).
    /// Repairs outrank the inhibition window; resizes wait for it,
    /// and run only if the tier's manager still decides them: one queued
    /// behind another resize may no longer be wanted (`arbitration.stale`).
    pub(crate) fn pump_arbitrator(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let permits = self.inhibition.permits(ctx.now());
        if self.reconfiguring() {
            return;
        }
        let Some(arb) = self.arbitrator.as_mut() else {
            return;
        };
        if !permits && !arb.repair_pending() {
            return;
        }
        let Some(req) = arb.next() else { return };
        use crate::arbitration::Action;
        let (tier, decision) = match req.action {
            Action::ScaleUp(tier) => (tier, Decision::ScaleUp),
            Action::ScaleDown(tier) => (tier, Decision::ScaleDown),
            Action::Repair(server) => return self.repair_server(ctx, server),
        };
        if self.manager_decision(tier) == decision {
            self.execute_decision(ctx, tier, decision);
        } else {
            ctx.metrics().incr("arbitration.stale", 1);
        }
    }

    /// What `tier`'s manager decides from its latest smoothed load and the
    /// current replica count (`Stay` before the sensor has a value).
    fn manager_decision(&self, tier: ManagedTier) -> Decision {
        use crate::control::Sensor as _;
        let Some(mgr) = self.managers.iter().find(|m| m.tier == tier) else {
            return Decision::Stay;
        };
        let Some(load) = mgr.sensor.value() else {
            return Decision::Stay;
        };
        let replicas = self.running_replicas(tier);
        match mgr.adaptive.as_ref() {
            Some(a) => a.decide(load, replicas),
            None => mgr.reactor.decide(load, replicas),
        }
    }

    /// Carries out a resize decision; adaptive thresholds learn from it.
    fn execute_decision(&mut self, ctx: &mut Ctx<'_, Msg>, tier: ManagedTier, decision: Decision) {
        let now = ctx.now();
        if let Some(mgr) = self.managers.iter_mut().find(|m| m.tier == tier) {
            if let Some(a) = mgr.adaptive.as_mut() {
                a.note_executed(decision, now);
            }
        }
        match decision {
            Decision::ScaleUp => self.scale_up(ctx, tier),
            Decision::ScaleDown => self.scale_down(ctx, tier),
            Decision::Stay => {}
        }
    }

    // ------------------------------------------------------------------
    // Control loops (SensorTick)
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic): idx is carried by the SensorTick
    // message that this manager armed for itself at deploy time, so it
    // always names a live slot of the fixed two-entry managers array.
    pub(crate) fn on_sensor_tick(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        let now = ctx.now();
        let period = self.cfg.jade.probe_period;
        let tier = self.managers[idx].tier;
        let spatial = if self.cfg.jade.latency_driver {
            // Paper §4.2: "a sensor specific to optimization may provide
            // an estimator of the response-time to client requests."
            // Normalized so the usual thresholds apply.
            (self.stats.recent_mean_latency_ms(now) / self.cfg.jade.latency_saturation_ms)
                .clamp(0.0, 1.0)
        } else {
            match tier {
                ManagedTier::Application => self.latest_app_cpu,
                ManagedTier::Database => self.latest_db_cpu,
            }
        };
        let smoothed = {
            use crate::control::Sensor as _;
            self.managers[idx].sensor.observe(now, spatial)
        };
        if let Some(v) = smoothed {
            ctx.metrics().record_series(tier.smoothed_series(), now, v);
        }
        let decision = if self.cfg.jade.managed {
            self.manager_decision(tier)
        } else {
            Decision::Stay
        };
        if decision != Decision::Stay {
            if let Some(arb) = self.arbitrator.as_mut() {
                // Arbitration mode: submit; the pump executes under the
                // global serialization rules.
                let action = if decision == Decision::ScaleUp {
                    crate::arbitration::Action::ScaleUp(tier)
                } else {
                    crate::arbitration::Action::ScaleDown(tier)
                };
                let _ = arb.submit(crate::arbitration::Request {
                    source: crate::arbitration::Source::SelfOptimization,
                    action,
                    submitted: now,
                });
            } else if self.inhibition.permits(now) && !self.tier_busy(tier) {
                self.execute_decision(ctx, tier, decision);
            }
        }
        ctx.send_after_coarse(period, Addr::ROOT, Msg::SensorTick(idx));
    }

    // ------------------------------------------------------------------
    // Actuators: resize workflows (paper §4.1's "main operations
    // performed by the reactor")
    // ------------------------------------------------------------------

    /// Starts deploying one more replica: allocate a free node, install
    /// the required software, then (after the installation latency) start
    /// the server and wire it into the load balancer.
    #[cold]
    pub(crate) fn scale_up(&mut self, ctx: &mut Ctx<'_, Msg>, tier: ManagedTier) {
        // Guard against stale (e.g. arbitrated) requests.
        if let Some(mgr) = self.managers.iter().find(|m| m.tier == tier) {
            if self.running_replicas(tier) >= mgr.reactor.max_replicas {
                return;
            }
        }
        let Ok(node) = self.legacy.cluster.allocate() else {
            ctx.metrics().incr("scaleup.blocked", 1);
            return;
        };
        let mut latency = SimDuration::ZERO;
        let mut packages = vec![tier.package()];
        if self.cfg.jade.managed {
            packages.push("jade-daemon");
        }
        for pkg in packages {
            match self.legacy.sis.install(&mut self.legacy.cluster, node, pkg) {
                Ok(l) => latency += l,
                Err(e) => {
                    // Roll back the allocation; the reactor will retry.
                    let _ = self.legacy.cluster.release(node);
                    self.log_reconfig(ctx, format!("scale-up {tier:?} failed: {e}"));
                    return;
                }
            }
        }
        if tier == ManagedTier::Database {
            latency += DB_DUMP_RESTORE;
        }
        let (server, comp) = match tier {
            ManagedTier::Application => self.create_tomcat_replica(node),
            ManagedTier::Database => self.create_mysql_replica(node),
        };
        self.begin_reconfiguration(
            tier,
            ReconfigKind::Resize,
            server,
            comp,
            ReconfigPhase::Installing,
            ctx.now(),
        );
        self.inhibition.note_reconfiguration(ctx.now());
        let name = self.registry.name(comp).unwrap_or_default();
        self.log_reconfig(
            ctx,
            format!("scale-up {tier:?}: deploying {name} on node {}", node.0 + 1),
        );
        ctx.send_after(latency, Addr::ROOT, Msg::DeployStep { server });
    }

    /// Installation finished: start the replica (boot latency follows).
    #[cold]
    pub(crate) fn on_deploy_step(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        let Some((tier, op)) = self.reconfiguration_at(server, ReconfigPhase::Installing) else {
            return;
        };
        self.advance_reconfiguration(tier, ReconfigPhase::Booting);
        if self.registry.start(&mut self.legacy, op.comp).is_err() {
            self.end_reconfiguration(ctx, tier, Outcome::Aborted);
        }
        self.flush_legacy_outbox(ctx);
    }

    /// Removes the most recently added replica of a tier: unbind it from
    /// the load balancer, let in-flight work drain, then stop it and
    /// release the node.
    #[cold]
    pub(crate) fn scale_down(&mut self, ctx: &mut Ctx<'_, Msg>, tier: ManagedTier) {
        let Some(victim) = self
            .legacy
            .running_servers_of(tier.tier())
            .into_iter()
            .max()
        else {
            return;
        };
        let Some(&victim_comp) = self.comp_of_server.get(&victim) else {
            return;
        };
        if !self.detach_replica(tier, victim_comp) {
            return;
        }
        let now = ctx.now();
        self.begin_reconfiguration(
            tier,
            ReconfigKind::Resize,
            victim,
            victim_comp,
            ReconfigPhase::Draining,
            now,
        );
        self.inhibition.note_reconfiguration(now);
        let name = self.registry.name(victim_comp).unwrap_or_default();
        self.log_reconfig(ctx, format!("scale-down {tier:?}: retiring {name}"));
        ctx.send_after(
            self.cfg.drain_grace,
            Addr::ROOT,
            Msg::UndeployStop { server: victim },
        );
        self.flush_legacy_outbox(ctx);
    }

    /// Drain grace elapsed: stop the retired replica, destroy its
    /// component and release its node. This ends the retirement even when
    /// the replica failed while draining and the repair manager already
    /// destroyed it.
    #[cold]
    pub(crate) fn on_undeploy_stop(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        let Some((tier, _)) = self.reconfiguration_at(server, ReconfigPhase::Draining) else {
            return;
        };
        let node = self.legacy.server(server).map(|s| s.process().node);
        let released = match (self.comp_of_server.get(&server), node) {
            (Some(&comp), Ok(node)) => {
                // Stopping accepts a running, stopped or failed replica.
                let _ = self.registry.stop(&mut self.legacy, comp);
                self.flush_legacy_outbox(ctx);
                // Abort whatever is still running on that node and fail the
                // affected requests.
                self.abort_node_jobs(ctx, node);
                // Release the machine back to the pool ("release the nodes
                // hosting these replicas if no longer used", §4.1);
                // removing an absent package is a no-op.
                for pkg in [tier.package(), "jade-daemon"] {
                    let _ = self
                        .legacy
                        .sis
                        .uninstall(&mut self.legacy.cluster, node, pkg);
                }
                self.dismantle_replica(tier, server, comp, node);
                Some(node)
            }
            _ => None,
        };
        self.end_reconfiguration(ctx, tier, Outcome::Done);
        if let Some(node) = released {
            self.log_reconfig(ctx, format!("released node {}", node.0 + 1));
        }
    }

    /// Takes a replica out of rotation: unbinds it from its tier's
    /// balancer and, for a Tomcat, from every Apache's mod_jk set. True
    /// when the balancer held it (the Apaches hold exactly what it holds).
    pub(crate) fn detach_replica(
        &mut self,
        tier: ManagedTier,
        comp: jade_fractal::ComponentId,
    ) -> bool {
        let lb = match tier {
            ManagedTier::Application => self.plb.map(|(_, c)| ("workers", c)),
            ManagedTier::Database => self.cjdbc.map(|(_, c)| ("backends", c)),
        };
        let detached = lb.is_some_and(|(itf, lb_comp)| {
            self.registry
                .unbind(&mut self.legacy, lb_comp, itf, Some(comp))
                .is_ok()
        });
        if tier == ManagedTier::Application {
            for apache_comp in self.apache_components() {
                let _ = self
                    .registry
                    .unbind(&mut self.legacy, apache_comp, "ajp-itf", Some(comp));
            }
        }
        detached
    }

    /// Puts a replica (back) into rotation, the counterpart of
    /// [`J2eeApp::detach_replica`]. A bind that errs in the wrapper is
    /// still recorded, and a balancer repair re-binds every recorded
    /// worker and backend (any other error means the balancer is gone).
    fn attach_replica(&mut self, tier: ManagedTier, comp: jade_fractal::ComponentId) {
        let lb = match tier {
            ManagedTier::Application => self.plb.map(|(_, c)| ("workers", c, "ajp")),
            ManagedTier::Database => self.cjdbc.map(|(_, c)| ("backends", c, "mysql")),
        };
        if let Some((itf, lb_comp, server_itf)) = lb {
            let _ = self
                .registry
                .bind(&mut self.legacy, lb_comp, itf, comp, server_itf);
        }
        if tier == ManagedTier::Application {
            for apache_comp in self.apache_components() {
                let _ = self
                    .registry
                    .bind(&mut self.legacy, apache_comp, "ajp-itf", comp, "ajp");
            }
        }
    }

    /// A deployed or bounced replica serves again: its operation is done.
    /// The kind only selects the journal line, written before whatever
    /// the tier's end starts.
    fn finish_join(&mut self, ctx: &mut Ctx<'_, Msg>, tier: ManagedTier, op: Reconfiguration) {
        let line = match (op.kind, tier) {
            (ReconfigKind::RollingStep, _) => format!(
                "rolling restart: {} back in rotation",
                self.registry.name(op.comp).unwrap_or_default()
            ),
            (ReconfigKind::Resize, ManagedTier::Application) => {
                format!("replica {:?} joined the application tier", op.server)
            }
            (ReconfigKind::Resize, ManagedTier::Database) => {
                format!("backend {:?} synchronized and activated", op.server)
            }
        };
        self.log_reconfig(ctx, line);
        self.end_reconfiguration(ctx, tier, Outcome::Done);
    }

    /// Destroys a stopped or failed replica: drops its JDBC binding,
    /// removes it from the architecture and the legacy layer, and returns
    /// its node to the pool. Each step undoes what deployment did, and a
    /// step with nothing left to undo (binding already gone, node already
    /// released) errs harmlessly.
    #[cold]
    fn dismantle_replica(
        &mut self,
        tier: ManagedTier,
        server: ServerId,
        comp: jade_fractal::ComponentId,
        node: NodeId,
    ) {
        let tier_comp = match tier {
            ManagedTier::Application => self.app_tier,
            ManagedTier::Database => self.db_tier,
        };
        // A Tomcat replica holds a client binding to C-JDBC; drop it.
        if tier == ManagedTier::Application {
            let _ = self
                .registry
                .unbind(&mut self.legacy, comp, "jdbc-itf", None);
        }
        let _ = self.registry.remove_child(tier_comp, comp);
        let _ = self.registry.remove(comp);
        self.comp_of_server.remove(&server);
        // A destroyed database replica's trace is dropped for good (an
        // unbind only disables it, preserving the checkpoint for re-use).
        if tier == ManagedTier::Database {
            if let Some((cj_server, _)) = self.cjdbc {
                let _ = self.legacy.cjdbc_unregister_backend(cj_server, server);
            }
        }
        let _ = self.legacy.remove_server(server);
        let _ = self.legacy.cluster.release(node);
    }

    // ------------------------------------------------------------------
    // Legacy events
    // ------------------------------------------------------------------

    /// Schedules the legacy layer's deferred events into the engine.
    pub(crate) fn flush_legacy_outbox(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for (delay, e) in self.legacy.drain_outbox() {
            ctx.send_after(delay, Addr::ROOT, Msg::Legacy(e));
        }
    }

    #[cold]
    pub(crate) fn on_legacy_event(&mut self, ctx: &mut Ctx<'_, Msg>, e: LegacyEvent) {
        ctx.trace(jade_sim::TraceLevel::Debug, "legacy", || format!("{e:?}"));
        match e {
            LegacyEvent::ServerBooted(server) => {
                let became_running = self.legacy.finish_boot(server).unwrap_or(false);
                if !became_running {
                    return;
                }
                // The join of a deployed or bounced replica: a database
                // backend then replays the recovery log (state
                // reconciliation, §4.1) and joins on BackendActivated.
                if let Some((tier, op)) = self.reconfiguration_at(server, ReconfigPhase::Booting) {
                    self.attach_replica(tier, op.comp);
                    match tier {
                        ManagedTier::Application => self.finish_join(ctx, tier, op),
                        ManagedTier::Database => {
                            self.advance_reconfiguration(tier, ReconfigPhase::Syncing)
                        }
                    }
                }
                self.flush_legacy_outbox(ctx);
            }
            LegacyEvent::ReplayBatchDone { cjdbc, backend } => {
                // Errs only for a batch outdated by a failed backend or a
                // replaced controller; the join ends elsewhere then.
                let _ = self.legacy.cjdbc_replay_batch_done(cjdbc, backend);
                self.flush_legacy_outbox(ctx);
            }
            LegacyEvent::BackendActivated { backend, .. } => {
                if let Some((tier, op)) = self.reconfiguration_at(backend, ReconfigPhase::Syncing) {
                    self.finish_join(ctx, tier, op);
                }
            }
            LegacyEvent::ServerStopped(server) => {
                self.fail_requests_on_server(ctx, server);
            }
            LegacyEvent::ServerFailed(server) => {
                // Keep the management layer's view consistent.
                if let Some(&comp) = self.comp_of_server.get(&server) {
                    let _ = self.registry.mark_failed(comp);
                }
                // A failed database backend drops out of the C-JDBC
                // broadcast set with an untrusted checkpoint.
                if let Some((cj_server, _)) = self.cjdbc {
                    let _ = self
                        .legacy
                        .cjdbc_mut(cj_server)
                        .and_then(|c| c.fail_backend(server).map_err(Into::into));
                }
                self.fail_requests_on_server(ctx, server);
                // A replica that fails before it serves aborts its
                // deployment or rolling step, in any phase (the repair
                // manager tears the wreck down); a scale-down victim that
                // fails while draining still retires on UndeployStop.
                if let Some((tier, op)) = self.reconfiguration_on(server) {
                    if op.kind == ReconfigKind::RollingStep || op.phase != ReconfigPhase::Draining {
                        self.end_reconfiguration(ctx, tier, Outcome::Aborted);
                    }
                }
            }
        }
    }

    /// Fails every in-flight request processed by `server` (queued,
    /// executing, or mid-SQL).
    #[cold]
    pub(crate) fn fail_requests_on_server(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
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
            self.fail_request(ctx, req);
        }
        self.clear_accept_queue(server);
    }

    /// Aborts all CPU jobs on a node, failing the requests they belonged
    /// to.
    #[cold]
    pub(crate) fn abort_node_jobs(&mut self, ctx: &mut Ctx<'_, Msg>, node: NodeId) {
        let aborted = match self.legacy.cluster.node_mut(node) {
            Ok(n) => n.cpu.abort_all(ctx.now()),
            Err(_) => Vec::new(),
        };
        self.fail_aborted_jobs(ctx, node, aborted);
    }

    /// Disarms a dead node's CPU timer and fails the requests its aborted
    /// jobs belonged to.
    #[cold]
    fn fail_aborted_jobs(&mut self, ctx: &mut Ctx<'_, Msg>, node: NodeId, aborted: Vec<JobId>) {
        ctx.disarm_timer(node.0);
        for job in aborted {
            let owner = self.job_owner.remove(SlabKey::from_raw(job.0));
            if let Some(req) = owner.and_then(JobOwner::request) {
                self.fail_request(ctx, req);
            }
        }
    }

    // ------------------------------------------------------------------
    // Failure injection + self-recovery
    // ------------------------------------------------------------------

    /// Crashes a node: every hosted server fails, every job aborts.
    #[cold]
    pub(crate) fn on_crash_node(&mut self, ctx: &mut Ctx<'_, Msg>, node: NodeId) {
        let aborted = self.legacy.crash_node(node, ctx.now());
        self.fail_aborted_jobs(ctx, node, aborted);
        self.log_reconfig(ctx, format!("node {} crashed", node.0 + 1));
        self.flush_legacy_outbox(ctx);
    }

    /// The self-recovery manager's detector: spot failed replicas and
    /// repair the architecture (paper §3.4's self-recovery loop; the
    /// repair algorithm follows reference \[4\]: remove the failed element
    /// and redeploy an equivalent one on a fresh node).
    ///
    /// Detection is heartbeat-based, not omniscient: a *process* failure
    /// on a live node is reported by the node's local daemon within one
    /// probe period, but a *node* failure is only suspected once the
    /// node's heartbeat has been missing for `failure_timeout`.
    // jade-audit: allow(hot-alloc): the failed-server snapshot is
    // collected once per detector period (seconds of simulated time) and
    // is usually empty; it decouples detection from the repairs that
    // mutate the server set while iterating.
    pub(crate) fn on_detector_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let timeout = self.cfg.jade.failure_timeout;
        // Walk the dense server table by index; removed servers read as
        // `Err` and repairs only run once the scan is over.
        let failed: Vec<ServerId> = (0..self.legacy.server_index_bound())
            .map(|i| ServerId(jade_sim::id_u32(i)))
            .filter(|&s| {
                let Ok(sv) = self.legacy.server(s) else {
                    return false;
                };
                if sv.process().state != jade_tiers::ServerState::Failed {
                    return false;
                }
                let node = sv.process().node;
                let node_up = self
                    .legacy
                    .cluster
                    .node(node)
                    .map(|n| n.is_up())
                    .unwrap_or(false);
                if node_up {
                    true // local daemon saw the process die
                } else {
                    // Dead node: suspect only after the heartbeat gap.
                    self.last_heartbeat
                        .get(node.0 as usize)
                        .copied()
                        .flatten()
                        .map(|hb| now.since(hb) >= timeout)
                        .unwrap_or(true)
                }
            })
            .collect();
        for server in failed {
            if let Some(arb) = self.arbitrator.as_mut() {
                // Submit to the arbitrator (repairs outrank optimization;
                // re-submissions on later ticks collapse as duplicates).
                let _ = arb.submit(crate::arbitration::Request {
                    source: crate::arbitration::Source::SelfRecovery,
                    action: crate::arbitration::Action::Repair(server),
                    submitted: now,
                });
            } else {
                self.repair_server(ctx, server);
            }
        }
        ctx.send_after_coarse(self.cfg.jade.probe_period, Addr::ROOT, Msg::DetectorTick);
    }

    /// Repairs one failed replica: detach it from its balancer, destroy
    /// it, release its (crashed) node and deploy a replacement.
    #[cold]
    fn repair_server(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        let Some(&comp) = self.comp_of_server.get(&server) else {
            return; // not a managed replica (or already repaired)
        };
        let tier = match self.legacy.server(server).map(|s| s.process().tier) {
            Ok(Tier::Application) => ManagedTier::Application,
            Ok(Tier::Database) => ManagedTier::Database,
            Ok(Tier::Balancer) => {
                self.repair_balancer(ctx, server);
                return;
            }
            _ => return, // web-tier failures are outside this manager
        };
        let node = self
            .legacy
            .server(server)
            .map(|s| s.process().node)
            .expect("failed server exists");
        self.log_reconfig(
            ctx,
            format!(
                "self-recovery: repairing {} (tier {tier:?})",
                self.registry.name(comp).unwrap_or_default()
            ),
        );
        // A joiner or a draining victim is already out of rotation.
        self.detach_replica(tier, comp);
        if tier == ManagedTier::Application {
            self.clear_accept_queue(server);
        }
        // Destroy the broken replica.
        let _ = self.registry.stop(&mut self.legacy, comp);
        self.dismantle_replica(tier, server, comp, node);
        self.flush_legacy_outbox(ctx);
        // Redeploy (repair has priority over the inhibition window) unless
        // the tier is busy: a retiring victim is not replaced, and a
        // replica lost beside another operation is left to the optimiser,
        // or, during a rolling restart, redeployed once the tier frees.
        match self.in_flight(tier) {
            None => self.scale_up(ctx, tier),
            Some(op) if op.server != server => self.defer_redeploy(tier),
            Some(_) => {}
        }
        self.record_replica_series(ctx);
    }

    /// Repairs a failed load balancer — the single points of failure of
    /// the architecture (reference \[4\] repairs any managed element, not
    /// only replicas).
    ///
    /// * **PLB / L4 switch**: a fresh instance is deployed on a new node
    ///   and re-bound to every running worker.
    /// * **C-JDBC**: a fresh controller is deployed and every running
    ///   MySQL replica re-registers. The crashed controller's recovery
    ///   log is lost, but all replicas were mutually consistent when it
    ///   died (write broadcast is atomic w.r.t. membership), so the new
    ///   empty log is a valid checkpoint of the current state; each
    ///   replica activates after an (empty) replay.
    #[cold]
    fn repair_balancer(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        let Some(&comp) = self.comp_of_server.get(&server) else {
            return;
        };
        let name = self.registry.name(comp).unwrap_or_default();
        let old_node = self
            .legacy
            .server(server)
            .map(|s| s.process().node)
            .expect("failed balancer exists");
        // Which front-end is it?
        let is_plb = self.plb.map(|(s, _)| s) == Some(server);
        let is_cjdbc = self.cjdbc.map(|(s, _)| s) == Some(server);
        let is_l4 = self.l4.map(|(s, _)| s) == Some(server);
        if !(is_plb || is_cjdbc || is_l4) {
            return;
        }
        self.log_reconfig(ctx, format!("self-recovery: repairing balancer {name}"));

        // Remember the worker/backend set before tearing the wreck down —
        // and, for C-JDBC, which backends were *Active* (their state is
        // current) versus Syncing/Disabled (stale: the log that would
        // have caught them up died with the controller).
        let itf = if is_cjdbc { "backends" } else { "workers" };
        let bound: Vec<jade_fractal::ComponentId> = self
            .registry
            .bindings_of(comp, itf)
            .into_iter()
            .map(|ep| ep.component)
            .collect();
        let backend_server = |app: &Self, c: jade_fractal::ComponentId| -> Option<ServerId> {
            app.registry
                .get_attr(c, "server-id")
                .ok()
                .and_then(|v| v.as_int())
                .map(|i| ServerId(jade_sim::id_u32(i)))
        };
        let mut active_backends: Vec<(jade_fractal::ComponentId, ServerId)> = Vec::new();
        let mut stale_backends: Vec<(jade_fractal::ComponentId, ServerId)> = Vec::new();
        if is_cjdbc {
            if let Ok(ctrl) = self.legacy.cjdbc(server) {
                let statuses: Vec<(jade_fractal::ComponentId, Option<jade_tiers::BackendStatus>)> =
                    bound
                        .iter()
                        .map(|&c| {
                            let st = backend_server(self, c).and_then(|sid| ctrl.status(sid).ok());
                            (c, st)
                        })
                        .collect();
                for (c, st) in statuses {
                    if let Some(sid) = backend_server(self, c) {
                        if st == Some(jade_tiers::BackendStatus::Active) {
                            active_backends.push((c, sid));
                        } else {
                            stale_backends.push((c, sid));
                        }
                    }
                }
            }
        }
        for &target in &bound {
            let _ = self
                .registry
                .unbind(&mut self.legacy, comp, itf, Some(target));
        }
        // In-flight requests through the dead front-end are already lost;
        // clean the wreck out of the architecture.
        let parent = if is_cjdbc {
            self.db_tier
        } else if is_plb {
            self.app_tier
        } else {
            self.web_tier
        };
        let _ = self.registry.stop(&mut self.legacy, comp);
        let _ = self.registry.remove_child(parent, comp);
        // Tomcats keep a jdbc-itf binding toward a dead C-JDBC: drop them.
        if is_cjdbc {
            for (src, src_itf) in self.registry.incoming_bindings(comp) {
                let _ = self
                    .registry
                    .unbind(&mut self.legacy, src, &src_itf, Some(comp));
            }
        }
        let _ = self.registry.remove(comp);
        self.comp_of_server.remove(&server);
        let _ = self.legacy.remove_server(server);
        if self.legacy.cluster.is_allocated(old_node) {
            let _ = self.legacy.cluster.release(old_node);
        }

        // Deploy the replacement.
        let Ok(node) = self.legacy.cluster.allocate() else {
            ctx.metrics().incr("scaleup.blocked", 1);
            self.log_reconfig(
                ctx,
                format!("balancer {name} repair blocked: pool exhausted"),
            );
            return;
        };
        let mut pkgs: Vec<&str> = vec![if is_cjdbc { "cjdbc" } else { "plb" }];
        if self.cfg.jade.managed {
            pkgs.push("jade-daemon");
        }
        for pkg in pkgs {
            let _ = self.legacy.sis.install(&mut self.legacy.cluster, node, pkg);
        }
        if is_cjdbc {
            let new_server =
                self.legacy
                    .create_cjdbc("C-JDBC", node, self.cfg.description.database.read_policy);
            let new_comp = self.adopt_cjdbc(new_server);
            let _ = self.registry.start(&mut self.legacy, new_comp);
            self.legacy.finish_boot(new_server).ok();
            // Backends that were Active held the current state: they can
            // simply re-register against the fresh (empty) log. Backends
            // that were still synchronizing are *stale* — the log entries
            // they were missing died with the controller — so their state
            // is first restored from a dump of an Active survivor
            // (C-JDBC's backup/restore path) before re-registering.
            let running = |app: &Self, sid: ServerId| {
                app.legacy
                    .server(sid)
                    .map(|s| s.process().state.is_running())
                    .unwrap_or(false)
            };
            let restore_source = active_backends
                .iter()
                .map(|&(_, sid)| sid)
                .find(|&sid| running(self, sid))
                // No Active survivor: anoint the first live stale replica
                // as the reference so the cluster at least restarts
                // mutually consistent (writes beyond its state are lost —
                // the price of losing the controller and every current
                // replica at once).
                .or_else(|| {
                    stale_backends
                        .iter()
                        .map(|&(_, sid)| sid)
                        .find(|&sid| running(self, sid))
                });
            // The fresh controller's log starts empty, so the base image
            // future replicas restore must advance to the reference
            // replica's current state (base + log = current).
            if let Some(src) = restore_source {
                let _ = self.legacy.set_mysql_base_from(src);
            }
            for &(c, sid) in &stale_backends {
                if !running(self, sid) {
                    continue; // dead too; its own repair handles it
                }
                if let Some(src) = restore_source.filter(|&src| src != sid) {
                    let _ = self.legacy.mysql_restore_from(src, sid);
                    self.log_reconfig(
                        ctx,
                        format!("restored stale backend {sid:?} from a dump of {src:?}"),
                    );
                }
                let _ = self
                    .registry
                    .bind(&mut self.legacy, new_comp, "backends", c, "mysql");
            }
            for &(c, _) in &active_backends {
                let _ = self
                    .registry
                    .bind(&mut self.legacy, new_comp, "backends", c, "mysql");
            }
            // Restore the Tomcats' architectural JDBC bindings.
            for (&s, &c) in self.comp_of_server.clone().iter() {
                if self
                    .legacy
                    .server(s)
                    .map(|sv| sv.process().tier == Tier::Application)
                    .unwrap_or(false)
                {
                    let _ = self
                        .registry
                        .bind(&mut self.legacy, c, "jdbc-itf", new_comp, "jdbc");
                }
            }
        } else {
            let policy = if is_plb {
                self.cfg.description.application.balance_policy
            } else {
                self.cfg
                    .description
                    .web
                    .map(|w| w.balance_policy)
                    .unwrap_or(self.cfg.description.application.balance_policy)
            };
            let new_server = if is_plb {
                self.legacy.create_plb("PLB", node, policy)
            } else {
                self.legacy.create_l4switch("L4-switch", node, policy)
            };
            let new_comp = self.adopt_balancer(new_server, is_plb);
            let _ = self.registry.start(&mut self.legacy, new_comp);
            self.legacy.finish_boot(new_server).ok();
            let server_itf = if is_plb { "ajp" } else { "http" };
            for &target in &bound {
                let _ =
                    self.registry
                        .bind(&mut self.legacy, new_comp, "workers", target, server_itf);
            }
        }
        self.flush_legacy_outbox(ctx);
        self.log_reconfig(
            ctx,
            format!("balancer {name} redeployed on node {}", node.0 + 1),
        );
    }
}
