//! Administration programs built on the uniform management interface —
//! the paper's raison d'être: "relying on this management layer,
//! sophisticated administration programs can be implemented, without
//! having to deal with complex, proprietary configuration interfaces"
//! (§3.2).
//!
//! The rolling restart bounces every replica of a tier, one at a time,
//! keeping the service up throughout: unbind from the balancer → drain →
//! stop → start → (database: recovery-log resynchronization) → rebind →
//! next replica.

use super::msg::{ManagedTier, Msg};
use super::{J2eeApp, RollingRestart};
use jade_sim::{Addr, Ctx};
use jade_tiers::ServerId;
use std::collections::VecDeque;

impl J2eeApp {
    /// Begins a rolling restart of a tier. Ignored when one is already in
    /// progress or the tier has a reconfiguration running.
    #[cold]
    pub(crate) fn start_rolling_restart(&mut self, ctx: &mut Ctx<'_, Msg>, tier: ManagedTier) {
        if self.rolling.is_some() {
            self.log_reconfig(
                ctx,
                "rolling restart refused: one is already running".into(),
            );
            return;
        }
        let mut replicas = self.legacy.running_servers_of(tier.tier());
        replicas.sort_unstable();
        if replicas.len() < 2 {
            self.log_reconfig(
                ctx,
                format!("rolling restart of {tier:?} refused: needs >= 2 replicas to stay up"),
            );
            return;
        }
        self.log_reconfig(
            ctx,
            format!("rolling restart of {tier:?}: {} replicas", replicas.len()),
        );
        self.rolling = Some(RollingRestart {
            tier,
            queue: replicas.into_iter().collect::<VecDeque<_>>(),
            current: None,
            done: 0,
        });
        ctx.send_now(Addr::ROOT, Msg::RollingNext);
    }

    /// Takes the next replica out of rotation.
    #[cold]
    pub(crate) fn on_rolling_next(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(rolling) = self.rolling.as_mut() else {
            return;
        };
        debug_assert!(rolling.current.is_none());
        let Some(server) = rolling.queue.pop_front() else {
            let done = rolling.done;
            let tier = rolling.tier;
            self.rolling = None;
            self.log_reconfig(
                ctx,
                format!("rolling restart of {tier:?} complete: {done} replicas bounced"),
            );
            return;
        };
        let tier = rolling.tier;
        rolling.current = Some(server);
        let Some(&comp) = self.comp_of_server.get(&server) else {
            self.rolling.as_mut().expect("set above").current = None;
            ctx.send_now(Addr::ROOT, Msg::RollingNext);
            return;
        };
        // Out of rotation: unbind from the front-end (and mod_jk sets).
        self.detach_replica(tier, comp);
        self.flush_legacy_outbox(ctx);
        let name = self.registry.name(comp).unwrap_or_default();
        self.log_reconfig(ctx, format!("rolling restart: draining {name}"));
        ctx.send_after(
            self.cfg.drain_grace,
            Addr::ROOT,
            Msg::RollingStop { server },
        );
    }

    /// Drain grace elapsed: bounce the replica (stop + start).
    #[cold]
    pub(crate) fn on_rolling_stop(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        if self.rolling.as_ref().and_then(|r| r.current) != Some(server) {
            return; // operation cancelled (e.g. the replica failed meanwhile)
        }
        let Some(&comp) = self.comp_of_server.get(&server) else {
            return;
        };
        let node = self
            .legacy
            .server(server)
            .map(|s| s.process().node)
            .expect("rolling server exists");
        let _ = self.registry.stop(&mut self.legacy, comp);
        self.flush_legacy_outbox(ctx);
        self.abort_node_jobs(ctx, node);
        // Start again; the boot event re-enters the rotation via
        // `on_rolling_booted`.
        let _ = self.registry.start(&mut self.legacy, comp);
        self.flush_legacy_outbox(ctx);
    }

    /// A rolling replica finished rebooting: wire it back in.
    pub(crate) fn on_rolling_booted(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        let Some(rolling) = self.rolling.as_ref() else {
            return;
        };
        if rolling.current != Some(server) {
            return;
        }
        let tier = rolling.tier;
        let Some(&comp) = self.comp_of_server.get(&server) else {
            return;
        };
        match tier {
            ManagedTier::Application => {
                if let Some((_, plb_comp)) = self.plb {
                    let _ = self
                        .registry
                        .bind(&mut self.legacy, plb_comp, "workers", comp, "ajp");
                }
                for apache_comp in self.apache_components() {
                    let _ =
                        self.registry
                            .bind(&mut self.legacy, apache_comp, "ajp-itf", comp, "ajp");
                }
                self.finish_rolling_step(ctx, server);
            }
            ManagedTier::Database => {
                // Rebinding triggers recovery-log resynchronization; the
                // step completes on BackendActivated.
                if let Some((_, cj_comp)) = self.cjdbc {
                    let _ =
                        self.registry
                            .bind(&mut self.legacy, cj_comp, "backends", comp, "mysql");
                }
                self.flush_legacy_outbox(ctx);
            }
        }
    }

    /// The bounced replica is serving again: proceed to the next one.
    #[cold]
    pub(crate) fn finish_rolling_step(&mut self, ctx: &mut Ctx<'_, Msg>, server: ServerId) {
        let Some(rolling) = self.rolling.as_mut() else {
            return;
        };
        if rolling.current != Some(server) {
            return;
        }
        rolling.current = None;
        rolling.done += 1;
        let name = self
            .comp_of_server
            .get(&server)
            .and_then(|&c| self.registry.name(c).ok())
            .unwrap_or_default();
        self.log_reconfig(ctx, format!("rolling restart: {name} back in rotation"));
        ctx.send_now(Addr::ROOT, Msg::RollingNext);
    }
}
