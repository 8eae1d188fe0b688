//! Administration programs built on the uniform management interface —
//! the paper's raison d'être: "relying on this management layer,
//! sophisticated administration programs can be implemented, without
//! having to deal with complex, proprietary configuration interfaces"
//! (§3.2).
//!
//! The rolling restart bounces every replica of a tier, one at a time,
//! keeping the service up throughout. Each bounce is a rolling step, an
//! operation of the reconfiguration table like any resize: unbind from
//! the balancer and drain (`Draining`) → stop and start (`Booting`) →
//! (database: recovery-log resynchronization, `Syncing`) → rebind through
//! the deployment's join path. So a step and a resize of the same tier
//! exclude each other, the restart waits while its tier is busy, and the
//! operation's end resumes it; a step whose replica fails, in any phase,
//! is aborted and the restart moves on; a repair goes before the next step.

use super::reconfig::{Outcome, ReconfigKind, ReconfigPhase};
use super::{Jade, ManagedTier, Shared};
use crate::system::requests::Requests;
use crate::system::Msg;
use jade_fractal::ComponentId;
use jade_sim::Addr;
use jade_tiers::ServerId;
use std::collections::VecDeque;

/// What is left of a rolling restart between its steps.
#[derive(Clone, Debug)]
pub(crate) struct RollingRestart {
    /// Tier being restarted.
    pub(crate) tier: ManagedTier,
    /// Replicas still to bounce, with their components.
    pub(crate) queue: VecDeque<(ServerId, ComponentId)>,
    /// Replicas bounced so far.
    pub(crate) done: usize,
    /// Repaired replicas whose redeploy waits for the tier to free.
    pub(crate) redeploys: usize,
}

impl Jade {
    /// Begins a rolling restart of a tier. Refused when one is already in
    /// progress or the tier runs fewer than two replicas; when the tier
    /// has a reconfiguration in flight, the first step waits for its end.
    #[cold]
    pub(crate) fn start_rolling_restart(&mut self, sh: &mut Shared<'_, '_>, tier: ManagedTier) {
        if self.rolling.is_some() {
            sh.log_reconfig("rolling restart refused: one is already running".into());
            return;
        }
        let running = sh.legacy.running_servers_of(tier.tier());
        let replicas: VecDeque<(ServerId, ComponentId)> = self
            .comp_of_server
            .iter()
            .filter(|(server, _)| running.contains(server))
            .map(|(&server, &comp)| (server, comp))
            .collect();
        if replicas.len() < 2 {
            sh.log_reconfig(format!(
                "rolling restart of {tier:?} refused: needs >= 2 replicas to stay up"
            ));
            return;
        }
        sh.log_reconfig(format!(
            "rolling restart of {tier:?}: {} replicas",
            replicas.len()
        ));
        self.rolling = Some(RollingRestart {
            tier,
            queue: replicas,
            done: 0,
            redeploys: 0,
        });
        sh.ctx.send_now(Addr::ROOT, Msg::RollingNext);
    }

    /// Takes the next replica out of rotation once the tier is idle, or
    /// ends the restart when no replica is left to bounce or bouncing one
    /// would leave none in rotation. Under arbitration a queued repair
    /// runs first.
    #[cold]
    pub(crate) fn on_rolling_next(&mut self, sh: &mut Shared<'_, '_>, requests: &mut Requests) {
        let Some(tier) = self.rolling.as_ref().map(|r| r.tier) else {
            return;
        };
        if self.arbitrator.as_ref().is_some_and(|a| a.repair_pending()) {
            self.pump_arbitrator(sh, requests);
        }
        if self.tier_busy(tier) {
            return; // that operation's end sends the next RollingNext
        }
        let running = sh.legacy.running_servers_of(tier.tier());
        let Some(rolling) = self.rolling.as_mut() else {
            return;
        };
        // A replica retired, failed or repaired since the restart began
        // is skipped.
        rolling.queue.retain(|(server, _)| running.contains(server));
        let next = rolling.queue.pop_front().filter(|_| running.len() >= 2);
        let Some((server, comp)) = next else {
            let done = rolling.done;
            self.rolling = None;
            sh.log_reconfig(format!(
                "rolling restart of {tier:?} complete: {done} replicas bounced"
            ));
            return;
        };
        // Out of rotation: unbind from the front-end (and mod_jk sets).
        self.rotate(sh.legacy, tier, comp, false);
        sh.flush_outbox();
        self.begin_reconfiguration(
            tier,
            ReconfigKind::RollingStep,
            server,
            comp,
            ReconfigPhase::Draining,
            sh.ctx.now(),
        );
        let name = self.registry.name(comp).unwrap_or_default();
        sh.log_reconfig(format!("rolling restart: draining {name}"));
        sh.ctx
            .send_after(sh.cfg.drain_grace, Addr::ROOT, Msg::RollingStop { server });
    }

    /// A replica of `tier` was repaired while another operation held the
    /// tier. During a rolling restart of `tier` its redeploy is owed, and
    /// [`Jade::end_reconfiguration`] starts it once the tier frees.
    pub(crate) fn defer_redeploy(&mut self, tier: ManagedTier) {
        if let Some(rolling) = self.rolling.as_mut().filter(|r| r.tier == tier) {
            rolling.redeploys += 1;
        }
    }

    /// Drain grace elapsed: bounce the replica (stop + start). The boot
    /// event rebinds it through the deployment's join path.
    #[cold]
    pub(crate) fn on_rolling_stop(
        &mut self,
        sh: &mut Shared<'_, '_>,
        requests: &mut Requests,
        server: ServerId,
    ) {
        let Some((tier, op)) = self.reconfiguration_at(server, ReconfigPhase::Draining) else {
            return; // the step was aborted: its replica failed meanwhile
        };
        let node = sh
            .legacy
            .server(server)
            .map(|s| s.process().node)
            .expect("rolling server exists");
        self.advance_reconfiguration(tier, ReconfigPhase::Booting);
        // Stopping accepts a running, stopped or failed replica.
        let _ = self.registry.stop(sh.legacy, op.comp);
        sh.flush_outbox();
        requests.abort_node_jobs(sh, node);
        if self.registry.start(sh.legacy, op.comp).is_err() {
            self.end_reconfiguration(sh, tier, Outcome::Aborted);
        }
        sh.flush_outbox();
    }
}
