//! Jade's run-time management: probes, control loops, reconfiguration
//! workflows (the actuators of paper §4.1) and failure handling.

use super::reconfig::{Outcome, ReconfigKind, ReconfigPhase, Reconfiguration};
use super::{release_node, take_node, HotMetricIds, Jade, ManagedTier, Shared};
use crate::control::Decision;
use crate::system::requests::Requests;
use crate::system::{JobOwner, Msg};
use jade_cluster::{ClusterError, NodeId};
use jade_fractal::{ComponentId, Registry};
use jade_sim::{Addr, SimDuration};
use jade_tiers::{LegacyEvent, LegacyLayer, ServerId, Tier};

/// Extra installation latency for restoring the database dump onto a new
/// MySQL replica.
const DB_DUMP_RESTORE: SimDuration = SimDuration::from_secs(5);

impl Jade {
    /// Components of the Apache replicas (web-tier topologies).
    fn apache_components(&self) -> Vec<ComponentId> {
        let l4_comp = self.l4.map(|(_, c)| c);
        self.registry
            .children(self.web_tier)
            .into_iter()
            .filter(|&c| Some(c) != l4_comp)
            .collect()
    }

    pub(crate) fn record_replica_series(&mut self, sh: &mut Shared<'_, '_>) {
        let ids = HotMetricIds::cached(&mut self.hot_ids, sh.ctx.metrics());
        let app = sh.legacy.running_count_of(Tier::Application) as f64;
        let db = sh.legacy.running_count_of(Tier::Database) as f64;
        let now = sh.ctx.now();
        sh.ctx
            .metrics()
            .record_series_batch(now, &[(ids.replicas_app, app), (ids.replicas_db, db)]);
    }

    // ------------------------------------------------------------------
    // Probes (MeasureTick): the harness-level measurement that both the
    // figures and Jade's sensors read.
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic): samples[] is a dense per-node array
    // resized to the cluster's node count by the sampling call, tier node
    // lists only hold NodeIds minted by the same cluster, and the
    // heartbeat table is resized right before it is written.
    pub(crate) fn on_measure_tick(&mut self, sh: &mut Shared<'_, '_>, requests: &mut Requests) {
        let now = sh.ctx.now();
        // Sample every node once into a dense per-node array
        // (`samples[i]` = utilization of `NodeId(i)`); aggregate per
        // managed tier. All buffers are recycled fields, so the
        // steady-state tick allocates nothing. Tier node lists stay sorted
        // by id, so every spatial sum visits the same samples in the same
        // order as the map-based probe did.
        sh.legacy
            .cluster
            .sample_cpus_into(now, &mut self.probe_samples);
        let samples = &self.probe_samples;
        let avg = |nodes: &[NodeId]| -> f64 {
            if nodes.is_empty() {
                0.0
            } else {
                nodes.iter().map(|&n| samples[n.0 as usize]).sum::<f64>() / nodes.len() as f64
            }
        };
        for tier in ManagedTier::ALL {
            let nodes = tier.of_mut(&mut self.probe_nodes);
            sh.legacy.nodes_of_tier_into(tier.tier(), nodes);
            *tier.of_mut(&mut self.latest_cpu) = avg(nodes);
        }

        // Memory and node-allocation series (Table 1, Figure 5 context).
        let allocated = &mut self.probe_allocated;
        sh.legacy.cluster.fill_allocated(allocated);
        let mem_avg = if allocated.is_empty() {
            0.0
        } else {
            allocated
                .iter()
                .filter_map(|&n| sh.legacy.cluster.node(n).ok())
                .map(|n| n.memory_utilization())
                .sum::<f64>()
                / allocated.len() as f64
        };
        let cpu_all_avg = avg(allocated);
        // One batched append per probe tick: every sample shares `now`.
        let ids = HotMetricIds::cached(&mut self.hot_ids, sh.ctx.metrics());
        let [app_cpu, db_cpu] = self.latest_cpu;
        sh.ctx.metrics().record_series_batch(
            now,
            &[
                (ids.cpu_app, app_cpu),
                (ids.cpu_db, db_cpu),
                (ids.mem_avg, mem_avg),
                (ids.cpu_all, cpu_all_avg),
                (ids.nodes_allocated, allocated.len() as f64),
            ],
        );
        self.record_replica_series(sh);

        // Intrusivity: the management daemon consumes a little CPU on
        // every managed node, every probe period (Table 1) — and its
        // report doubles as the node's heartbeat for failure detection.
        // The heartbeat table reaches pool size once and never
        // reallocates again.
        if sh.cfg.jade.managed {
            let demand = sh.cfg.jade.daemon_demand;
            for &node in &self.probe_allocated {
                if sh.legacy.cluster.node(node).is_ok_and(|n| n.is_up()) {
                    let slot = node.0 as usize;
                    if slot >= self.last_heartbeat.len() {
                        self.last_heartbeat.resize(slot + 1, None);
                    }
                    self.last_heartbeat[slot] = Some(now);
                    requests.submit_job(sh, node, JobOwner::Daemon, demand);
                }
            }
        }
        // Arbitration pump: execute at most one queued reconfiguration
        // when the system is quiescent.
        self.pump_arbitrator(sh, requests);
        sh.ctx
            .send_after(sh.cfg.jade.probe_period, Addr::ROOT, Msg::MeasureTick);
    }

    /// Executes the next arbitrated reconfiguration once none is in
    /// flight (each probe tick, and before a rolling restart's next step).
    /// Repairs outrank the inhibition window; resizes wait for it,
    /// and run only if the tier's manager still decides them: one queued
    /// behind another resize may no longer be wanted (`arbitration.stale`).
    pub(crate) fn pump_arbitrator(&mut self, sh: &mut Shared<'_, '_>, requests: &mut Requests) {
        let permits = self.inhibition.permits(sh.ctx.now());
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
            Action::Repair(server) => return self.repair_server(sh, requests, server),
        };
        if self.manager_decision(sh.legacy, tier) == decision {
            self.execute_decision(sh, tier, decision);
        } else {
            sh.ctx.metrics().incr("arbitration.stale", 1);
        }
    }

    /// What `tier`'s manager decides from its latest smoothed load and the
    /// current replica count (`Stay` before the sensor has a value).
    fn manager_decision(&self, legacy: &LegacyLayer, tier: ManagedTier) -> Decision {
        use crate::control::Sensor as _;
        let mgr = tier.of(&self.managers);
        let Some(load) = mgr.sensor.value() else {
            return Decision::Stay;
        };
        let replicas = legacy.running_count_of(tier.tier());
        match mgr.adaptive.as_ref() {
            Some(a) => a.decide(load, replicas),
            None => mgr.reactor.decide(load, replicas),
        }
    }

    /// Carries out a resize decision; adaptive thresholds learn from it.
    fn execute_decision(&mut self, sh: &mut Shared<'_, '_>, tier: ManagedTier, decision: Decision) {
        if let Some(a) = tier.of_mut(&mut self.managers).adaptive.as_mut() {
            a.note_executed(decision, sh.ctx.now());
        }
        match decision {
            Decision::ScaleUp => self.scale_up(sh, tier),
            Decision::ScaleDown => self.scale_down(sh, tier),
            Decision::Stay => {}
        }
    }

    // ------------------------------------------------------------------
    // Control loops (SensorTick)
    // ------------------------------------------------------------------

    // jade-audit: allow(hot-panic): idx is carried by the SensorTick
    // message that bootstrap armed for each entry of ManagedTier::ALL and
    // that each tick re-arms unchanged, so it always indexes that array.
    pub(crate) fn on_sensor_tick(&mut self, sh: &mut Shared<'_, '_>, idx: usize) {
        let now = sh.ctx.now();
        let tier = ManagedTier::ALL[idx];
        let spatial = if sh.cfg.jade.latency_driver {
            // Paper §4.2: "a sensor specific to optimization may provide
            // an estimator of the response-time to client requests."
            // Normalized so the usual thresholds apply.
            (sh.stats.recent_mean_latency_ms(now) / sh.cfg.jade.latency_saturation_ms)
                .clamp(0.0, 1.0)
        } else {
            *tier.of(&self.latest_cpu)
        };
        let smoothed = {
            use crate::control::Sensor as _;
            tier.of_mut(&mut self.managers).sensor.observe(now, spatial)
        };
        if let Some(v) = smoothed {
            sh.ctx
                .metrics()
                .record_series(tier.smoothed_series(), now, v);
        }
        let decision = if sh.cfg.jade.managed {
            self.manager_decision(sh.legacy, tier)
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
                self.execute_decision(sh, tier, decision);
            }
        }
        sh.ctx
            .send_after(sh.cfg.jade.probe_period, Addr::ROOT, Msg::SensorTick(idx));
    }

    // ------------------------------------------------------------------
    // Actuators: resize workflows (paper §4.1's "main operations
    // performed by the reactor")
    // ------------------------------------------------------------------

    /// Starts deploying one more replica: allocate a free node, install
    /// the required software, then (after the installation latency) start
    /// the server and wire it into the load balancer.
    #[cold]
    pub(crate) fn scale_up(&mut self, sh: &mut Shared<'_, '_>, tier: ManagedTier) {
        // Guard against stale (e.g. arbitrated) requests.
        let max_replicas = tier.of(&self.managers).reactor.max_replicas;
        if sh.legacy.running_count_of(tier.tier()) >= max_replicas {
            return;
        }
        let (node, mut latency) = match take_node(sh.legacy, sh.cfg.jade.managed, tier.package()) {
            Ok(taken) => taken,
            Err(ClusterError::PoolExhausted) => {
                sh.ctx.metrics().incr("scaleup.blocked", 1);
                return;
            }
            // The node went back to the pool; the reactor will retry.
            Err(e) => return sh.log_reconfig(format!("scale-up {tier:?} failed: {e}")),
        };
        if tier == ManagedTier::Database {
            latency += DB_DUMP_RESTORE;
        }
        let (server, comp) = self.create_replica(sh.legacy, tier, node);
        self.begin_reconfiguration(
            tier,
            ReconfigKind::Resize,
            server,
            comp,
            ReconfigPhase::Installing,
            sh.ctx.now(),
        );
        self.inhibition.note_reconfiguration(sh.ctx.now());
        let name = self.registry.name(comp).unwrap_or_default();
        sh.log_reconfig(format!(
            "scale-up {tier:?}: deploying {name} on node {}",
            node.0 + 1
        ));
        sh.ctx
            .send_after(latency, Addr::ROOT, Msg::DeployStep { server });
    }

    /// Installation finished: start the replica (boot latency follows).
    #[cold]
    pub(crate) fn on_deploy_step(&mut self, sh: &mut Shared<'_, '_>, server: ServerId) {
        let Some((tier, op)) = self.reconfiguration_at(server, ReconfigPhase::Installing) else {
            return;
        };
        self.advance_reconfiguration(tier, ReconfigPhase::Booting);
        if self.registry.start(sh.legacy, op.comp).is_err() {
            self.end_reconfiguration(sh, tier, Outcome::Aborted);
        }
        sh.flush_outbox();
    }

    /// Removes the most recently added replica of a tier: unbind it from
    /// the load balancer, let in-flight work drain, then stop it and
    /// release the node.
    #[cold]
    fn scale_down(&mut self, sh: &mut Shared<'_, '_>, tier: ManagedTier) {
        let Some(victim) = sh.legacy.running_servers_of(tier.tier()).into_iter().max() else {
            return;
        };
        let Some(&victim_comp) = self.comp_of_server.get(&victim) else {
            return;
        };
        if !self.rotate(sh.legacy, tier, victim_comp, false) {
            return;
        }
        let now = sh.ctx.now();
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
        sh.log_reconfig(format!("scale-down {tier:?}: retiring {name}"));
        sh.ctx.send_after(
            sh.cfg.drain_grace,
            Addr::ROOT,
            Msg::UndeployStop { server: victim },
        );
        sh.flush_outbox();
    }

    /// Drain grace elapsed: stop the retired replica, destroy its
    /// component and release its node. This ends the retirement even when
    /// the replica failed while draining and the repair manager already
    /// destroyed it.
    #[cold]
    pub(crate) fn on_undeploy_stop(
        &mut self,
        sh: &mut Shared<'_, '_>,
        requests: &mut Requests,
        server: ServerId,
    ) {
        let Some((tier, _)) = self.reconfiguration_at(server, ReconfigPhase::Draining) else {
            return;
        };
        let node = sh.legacy.server(server).map(|s| s.process().node);
        let released = match (self.comp_of_server.get(&server), node) {
            (Some(&comp), Ok(node)) => {
                // Stopping accepts a running, stopped or failed replica.
                let _ = self.registry.stop(sh.legacy, comp);
                sh.flush_outbox();
                // Abort whatever is still running on that node and fail the
                // affected requests.
                requests.abort_node_jobs(sh, node);
                self.dismantle_replica(sh.legacy, tier, server, comp, node);
                Some(node)
            }
            _ => None,
        };
        self.end_reconfiguration(sh, tier, Outcome::Done);
        if let Some(node) = released {
            sh.log_reconfig(format!("released node {}", node.0 + 1));
        }
    }

    /// Puts a replica into rotation (`join`) or takes it out: binds it to
    /// (unbinds it from) its tier's balancer and, for a Tomcat, every
    /// Apache's mod_jk set. True when the balancer took the operation:
    /// leaving, that it held the replica (the Apaches hold exactly what it
    /// holds). A bind that errs in the wrapper is still recorded, and a
    /// balancer repair re-binds every recorded worker and backend.
    pub(crate) fn rotate(
        &mut self,
        legacy: &mut LegacyLayer,
        tier: ManagedTier,
        comp: ComponentId,
        join: bool,
    ) -> bool {
        let mut link = |registry: &mut Registry<LegacyLayer>, holder, itf, sig| {
            let linked = if join {
                registry.bind(legacy, holder, itf, comp, sig)
            } else {
                registry.unbind(legacy, holder, itf, Some(comp))
            };
            linked.is_ok()
        };
        let (lb, itf, sig) = match tier {
            ManagedTier::Application => (self.plb, "workers", "ajp"),
            ManagedTier::Database => (self.cjdbc, "backends", "mysql"),
        };
        let held = lb.is_some_and(|(_, lb_comp)| link(&mut self.registry, lb_comp, itf, sig));
        if tier == ManagedTier::Application {
            for apache_comp in self.apache_components() {
                link(&mut self.registry, apache_comp, "ajp-itf", "ajp");
            }
        }
        held
    }

    /// A deployed or bounced replica serves again: its operation is done.
    /// The kind only selects the journal line, written before whatever
    /// the tier's end starts.
    fn finish_join(&mut self, sh: &mut Shared<'_, '_>, tier: ManagedTier, op: Reconfiguration) {
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
        sh.log_reconfig(line);
        self.end_reconfiguration(sh, tier, Outcome::Done);
    }

    /// Destroys a stopped or failed replica: drops its JDBC binding,
    /// removes it from the architecture and the legacy layer, and gives
    /// its node back through [`release_node`]. Each step undoes what
    /// deployment did, and a step with nothing left to undo (binding
    /// already gone, node already released) errs harmlessly.
    #[cold]
    fn dismantle_replica(
        &mut self,
        legacy: &mut LegacyLayer,
        tier: ManagedTier,
        server: ServerId,
        comp: ComponentId,
        node: NodeId,
    ) {
        let tier_comp = match tier {
            ManagedTier::Application => self.app_tier,
            ManagedTier::Database => self.db_tier,
        };
        // A Tomcat replica holds a client binding to C-JDBC; drop it.
        if tier == ManagedTier::Application {
            let _ = self.registry.unbind(legacy, comp, "jdbc-itf", None);
        }
        let _ = self.registry.remove_child(tier_comp, comp);
        let _ = self.registry.remove(comp);
        self.comp_of_server.remove(&server);
        // A destroyed database replica's trace is dropped for good (an
        // unbind only disables it, preserving the checkpoint for re-use).
        if tier == ManagedTier::Database {
            if let Some((cj_server, _)) = self.cjdbc {
                let _ = legacy.cjdbc_unregister_backend(cj_server, server);
            }
        }
        let _ = legacy.remove_server(server);
        release_node(legacy, node, tier.package());
    }

    // ------------------------------------------------------------------
    // Legacy events
    // ------------------------------------------------------------------

    #[cold]
    pub(crate) fn on_legacy_event(
        &mut self,
        sh: &mut Shared<'_, '_>,
        requests: &mut Requests,
        e: LegacyEvent,
    ) {
        sh.ctx
            .trace(jade_sim::TraceLevel::Debug, "legacy", || format!("{e:?}"));
        match e {
            LegacyEvent::ServerBooted(server) => {
                let became_running = sh.legacy.finish_boot(server).unwrap_or(false);
                if !became_running {
                    return;
                }
                // The join of a deployed or bounced replica: a database
                // backend then replays the recovery log (state
                // reconciliation, §4.1) and joins on BackendActivated.
                if let Some((tier, op)) = self.reconfiguration_at(server, ReconfigPhase::Booting) {
                    self.rotate(sh.legacy, tier, op.comp, true);
                    match tier {
                        ManagedTier::Application => self.finish_join(sh, tier, op),
                        ManagedTier::Database => {
                            self.advance_reconfiguration(tier, ReconfigPhase::Syncing)
                        }
                    }
                }
                sh.flush_outbox();
            }
            LegacyEvent::ReplayBatchDone { cjdbc, backend } => {
                // Errs only for a batch outdated by a failed backend or a
                // replaced controller; the join ends elsewhere then.
                let _ = sh.legacy.cjdbc_replay_batch_done(cjdbc, backend);
                sh.flush_outbox();
            }
            LegacyEvent::BackendActivated { backend, .. } => {
                if let Some((tier, op)) = self.reconfiguration_at(backend, ReconfigPhase::Syncing) {
                    self.finish_join(sh, tier, op);
                }
            }
            LegacyEvent::ServerStopped(server) => {
                requests.fail_requests_on_server(sh, server);
            }
            LegacyEvent::ServerFailed(server) => {
                // Keep the management layer's view consistent.
                if let Some(&comp) = self.comp_of_server.get(&server) {
                    let _ = self.registry.mark_failed(comp);
                }
                // A failed database backend drops out of the C-JDBC
                // broadcast set with an untrusted checkpoint.
                if let Some((cj_server, _)) = self.cjdbc {
                    let _ = sh
                        .legacy
                        .cjdbc_mut(cj_server)
                        .and_then(|c| c.fail_backend(server).map_err(Into::into));
                }
                requests.fail_requests_on_server(sh, server);
                // A replica that fails before it serves aborts its
                // deployment or rolling step, in any phase (the repair
                // manager tears the wreck down); a scale-down victim that
                // fails while draining still retires on UndeployStop.
                if let Some((tier, op)) = self.reconfiguration_on(server) {
                    if op.kind == ReconfigKind::RollingStep || op.phase != ReconfigPhase::Draining {
                        self.end_reconfiguration(sh, tier, Outcome::Aborted);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Failure injection + self-recovery
    // ------------------------------------------------------------------

    /// Crashes a node: every hosted server fails, every job aborts.
    #[cold]
    pub(crate) fn on_crash_node(
        &mut self,
        sh: &mut Shared<'_, '_>,
        requests: &mut Requests,
        node: NodeId,
    ) {
        let aborted = sh.legacy.crash_node(node, sh.ctx.now());
        requests.fail_aborted_jobs(sh, node, aborted);
        sh.log_reconfig(format!("node {} crashed", node.0 + 1));
        sh.flush_outbox();
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
    pub(crate) fn on_detector_tick(&mut self, sh: &mut Shared<'_, '_>, requests: &mut Requests) {
        let now = sh.ctx.now();
        let timeout = sh.cfg.jade.failure_timeout;
        // Walk the dense server table by index; removed servers read as
        // `Err` and repairs only run once the scan is over.
        let failed: Vec<ServerId> = (0..sh.legacy.server_index_bound())
            .map(|i| ServerId(jade_sim::id_u32(i)))
            .filter(|&s| {
                let Ok(p) = sh.legacy.server(s).map(|sv| sv.process()) else {
                    return false;
                };
                // A live node's daemon saw the process die; a dead node is
                // suspected only after the heartbeat gap.
                let node_up = sh.legacy.cluster.node(p.node).is_ok_and(|n| n.is_up());
                let heard = self.last_heartbeat.get(p.node.0 as usize).copied();
                let silent = heard.flatten().is_none_or(|hb| now.since(hb) >= timeout);
                p.state == jade_tiers::ServerState::Failed && (node_up || silent)
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
                self.repair_server(sh, requests, server);
            }
        }
        sh.ctx
            .send_after(sh.cfg.jade.probe_period, Addr::ROOT, Msg::DetectorTick);
    }

    /// Repairs one failed replica: detach it from its balancer, destroy
    /// it, release its node and deploy a replacement.
    #[cold]
    fn repair_server(
        &mut self,
        sh: &mut Shared<'_, '_>,
        requests: &mut Requests,
        server: ServerId,
    ) {
        let Some(&comp) = self.comp_of_server.get(&server) else {
            return; // not a managed replica (or already repaired)
        };
        let tier = match sh.legacy.server(server).map(|s| s.process().tier) {
            Ok(Tier::Application) => ManagedTier::Application,
            Ok(Tier::Database) => ManagedTier::Database,
            Ok(Tier::Balancer) => return self.repair_balancer(sh, server),
            _ => return, // web-tier failures are outside this manager
        };
        let node = sh
            .legacy
            .server(server)
            .map(|s| s.process().node)
            .expect("failed server exists");
        sh.log_reconfig(format!(
            "self-recovery: repairing {} (tier {tier:?})",
            self.registry.name(comp).unwrap_or_default()
        ));
        // A joiner or a draining victim is already out of rotation.
        self.rotate(sh.legacy, tier, comp, false);
        if tier == ManagedTier::Application {
            requests.clear_accept_queue(server);
        }
        // Destroy the broken replica.
        let _ = self.registry.stop(sh.legacy, comp);
        self.dismantle_replica(sh.legacy, tier, server, comp, node);
        sh.flush_outbox();
        // Redeploy (repair has priority over the inhibition window) unless
        // the tier is busy: a retiring victim is not replaced, and a
        // replica lost beside another operation is left to the optimiser,
        // or, during a rolling restart, redeployed once the tier frees.
        match self.in_flight(tier) {
            None => self.scale_up(sh, tier),
            Some(op) if op.server != server => self.defer_redeploy(tier),
            Some(_) => {}
        }
        self.record_replica_series(sh);
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
    fn repair_balancer(&mut self, sh: &mut Shared<'_, '_>, server: ServerId) {
        let Some(&comp) = self.comp_of_server.get(&server) else {
            return;
        };
        let name = self.registry.name(comp).unwrap_or_default();
        let (old_node, package) = sh
            .legacy
            .server(server)
            .map(|s| (s.process().node, s.package()))
            .expect("failed balancer exists");
        // Which front-end is it?
        let is_plb = self.plb.map(|(s, _)| s) == Some(server);
        let is_cjdbc = self.cjdbc.map(|(s, _)| s) == Some(server);
        let is_l4 = self.l4.map(|(s, _)| s) == Some(server);
        if !(is_plb || is_cjdbc || is_l4) {
            return;
        }
        sh.log_reconfig(format!("self-recovery: repairing balancer {name}"));

        // Remember the worker/backend set before tearing the wreck down —
        // and, for C-JDBC, which backends were *Active* (their state is
        // current) versus Syncing/Disabled (stale: the log that would
        // have caught them up died with the controller).
        let itf = if is_cjdbc { "backends" } else { "workers" };
        let bound: Vec<ComponentId> = self
            .registry
            .bindings_of(comp, itf)
            .into_iter()
            .map(|ep| ep.component)
            .collect();
        let mut active_backends: Vec<(ComponentId, ServerId)> = Vec::new();
        let mut stale_backends: Vec<(ComponentId, ServerId)> = Vec::new();
        if let (true, Ok(ctrl)) = (is_cjdbc, sh.legacy.cjdbc(server)) {
            for &c in &bound {
                let Some(sid) = self
                    .registry
                    .get_attr(c, "server-id")
                    .ok()
                    .and_then(|v| v.as_int())
                    .map(|i| ServerId(jade_sim::id_u32(i)))
                else {
                    continue;
                };
                if ctrl.status(sid).ok() == Some(jade_tiers::BackendStatus::Active) {
                    active_backends.push((c, sid));
                } else {
                    stale_backends.push((c, sid));
                }
            }
        }
        for &target in &bound {
            let _ = self.registry.unbind(sh.legacy, comp, itf, Some(target));
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
        let _ = self.registry.stop(sh.legacy, comp);
        let _ = self.registry.remove_child(parent, comp);
        // Tomcats keep a jdbc-itf binding toward a dead C-JDBC: drop them.
        if is_cjdbc {
            for (src, src_itf) in self.registry.incoming_bindings(comp) {
                let _ = self.registry.unbind(sh.legacy, src, &src_itf, Some(comp));
            }
        }
        let _ = self.registry.remove(comp);
        self.comp_of_server.remove(&server);
        let _ = sh.legacy.remove_server(server);
        release_node(sh.legacy, old_node, package);

        // Deploy the replacement; a node whose install failed went back
        // to the pool.
        let node = match take_node(sh.legacy, sh.cfg.jade.managed, package) {
            Ok((node, _)) => node,
            Err(e) => {
                sh.ctx.metrics().incr("scaleup.blocked", 1);
                if e == ClusterError::PoolExhausted {
                    sh.log_reconfig(format!("balancer {name} repair blocked: pool exhausted"));
                }
                return;
            }
        };
        if is_cjdbc {
            let new_server =
                sh.legacy
                    .create_cjdbc("C-JDBC", node, sh.cfg.description.database.read_policy);
            let new_comp = self.adopt(sh.legacy, new_server);
            let _ = self.registry.start(sh.legacy, new_comp);
            sh.legacy.finish_boot(new_server).ok();
            // Backends that were Active held the current state: they can
            // simply re-register against the fresh (empty) log. Backends
            // that were still synchronizing are *stale* — the log entries
            // they were missing died with the controller — so their state
            // is first restored from a dump of an Active survivor
            // (C-JDBC's backup/restore path) before re-registering.
            let running = |legacy: &LegacyLayer, sid: ServerId| {
                legacy
                    .server(sid)
                    .map(|s| s.process().state.is_running())
                    .unwrap_or(false)
            };
            let restore_source = active_backends
                .iter()
                .map(|&(_, sid)| sid)
                .find(|&sid| running(sh.legacy, sid))
                // No Active survivor: anoint the first live stale replica
                // as the reference so the cluster at least restarts
                // mutually consistent (writes beyond its state are lost —
                // the price of losing the controller and every current
                // replica at once).
                .or_else(|| {
                    stale_backends
                        .iter()
                        .map(|&(_, sid)| sid)
                        .find(|&sid| running(sh.legacy, sid))
                });
            // The fresh controller's log starts empty, so the base image
            // future replicas restore must advance to the reference
            // replica's current state (base + log = current).
            if let Some(src) = restore_source {
                let _ = sh.legacy.set_mysql_base_from(src);
            }
            for &(c, sid) in &stale_backends {
                if !running(sh.legacy, sid) {
                    continue; // dead too; its own repair handles it
                }
                if let Some(src) = restore_source.filter(|&src| src != sid) {
                    let _ = sh.legacy.mysql_restore_from(src, sid);
                    sh.log_reconfig(format!(
                        "restored stale backend {sid:?} from a dump of {src:?}"
                    ));
                }
                let _ = self
                    .registry
                    .bind(sh.legacy, new_comp, "backends", c, "mysql");
            }
            for &(c, _) in &active_backends {
                let _ = self
                    .registry
                    .bind(sh.legacy, new_comp, "backends", c, "mysql");
            }
            // Restore the Tomcats' architectural JDBC bindings.
            for (&s, &c) in self.comp_of_server.clone().iter() {
                if sh
                    .legacy
                    .server(s)
                    .map(|sv| sv.process().tier == Tier::Application)
                    .unwrap_or(false)
                {
                    let _ = self
                        .registry
                        .bind(sh.legacy, c, "jdbc-itf", new_comp, "jdbc");
                }
            }
        } else {
            let policy = if is_plb {
                sh.cfg.description.application.balance_policy
            } else {
                sh.cfg
                    .description
                    .web
                    .map(|w| w.balance_policy)
                    .unwrap_or(sh.cfg.description.application.balance_policy)
            };
            let new_server = if is_plb {
                sh.legacy.create_plb("PLB", node, policy)
            } else {
                sh.legacy.create_l4switch("L4-switch", node, policy)
            };
            let new_comp = self.adopt(sh.legacy, new_server);
            let _ = self.registry.start(sh.legacy, new_comp);
            sh.legacy.finish_boot(new_server).ok();
            let server_itf = if is_plb { "ajp" } else { "http" };
            for &target in &bound {
                let _ = self
                    .registry
                    .bind(sh.legacy, new_comp, "workers", target, server_itf);
            }
        }
        sh.flush_outbox();
        sh.log_reconfig(format!("balancer {name} redeployed on node {}", node.0 + 1));
    }
}
