//! The one record of "a reconfiguration is in flight".
//!
//! Each managed tier has at most one operation in flight (a resize, the
//! redeploy of a repair, or one step of a rolling restart), kept here and
//! nowhere else: whether a tier is busy and whether the arbitration slot
//! is taken are read off this table. Handlers check an event against the
//! operation's current phase, so a stale or mismatched event is ignored,
//! and every operation leaves the table through
//! [`Jade::end_reconfiguration`] — on success, or aborted when its
//! server fails before it serves. That exit also resumes a rolling
//! restart waiting for the tier.

use super::{Jade, ManagedTier, Shared};
use crate::system::Msg;
use jade_fractal::ComponentId;
use jade_sim::{Addr, SimTime};
use jade_tiers::ServerId;

/// What an operation does to its replica: the handlers that branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigKind {
    /// Deploys a replica (scale-up, repair) or retires one (scale-down).
    Resize,
    /// Bounces a replica for a rolling restart: out of rotation, stopped,
    /// started, back in.
    RollingStep,
}

/// Step an in-flight reconfiguration has reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigPhase {
    /// Software being installed on the new replica's node.
    Installing,
    /// The new (or bounced) replica's server process booting.
    Booting,
    /// A new (or bounced) database backend replaying the recovery log.
    Syncing,
    /// A retired (or bounced) replica draining before it is stopped.
    Draining,
}

/// One in-flight reconfiguration of a managed tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconfiguration {
    /// Resize or rolling step.
    pub kind: ReconfigKind,
    /// The replica being deployed, retired or bounced.
    pub server: ServerId,
    /// Its management component.
    pub comp: ComponentId,
    /// Current step.
    pub phase: ReconfigPhase,
    /// When the operation began.
    pub started: SimTime,
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The replica joined (or, retiring, was released).
    Done,
    /// The operation was given up; counted in `reconfig.aborted`.
    Aborted,
}

impl Jade {
    /// The operation in flight on `tier`, if any.
    pub fn in_flight(&self, tier: ManagedTier) -> Option<&Reconfiguration> {
        tier.of(&self.reconfigs).as_ref()
    }

    /// True while any reconfiguration is in flight: the arbitration slot
    /// is taken.
    pub fn reconfiguring(&self) -> bool {
        self.reconfigs.iter().any(Option::is_some)
    }

    pub(crate) fn tier_busy(&self, tier: ManagedTier) -> bool {
        self.in_flight(tier).is_some()
    }

    /// The operation deploying, retiring or bouncing `server`, with its
    /// tier.
    pub(crate) fn reconfiguration_on(
        &self,
        server: ServerId,
    ) -> Option<(ManagedTier, Reconfiguration)> {
        ManagedTier::ALL.into_iter().find_map(|tier| {
            self.in_flight(tier)
                .filter(|op| op.server == server)
                .map(|&op| (tier, op))
        })
    }

    /// The operation on `server` when it is in `phase`: a stale or
    /// mismatched event finds none and is ignored.
    pub(crate) fn reconfiguration_at(
        &self,
        server: ServerId,
        phase: ReconfigPhase,
    ) -> Option<(ManagedTier, Reconfiguration)> {
        self.reconfiguration_on(server)
            .filter(|(_, op)| op.phase == phase)
    }

    /// Opens an operation on an idle tier (callers gate on
    /// [`Jade::tier_busy`], or on [`Jade::reconfiguring`] under
    /// arbitration).
    pub(crate) fn begin_reconfiguration(
        &mut self,
        tier: ManagedTier,
        kind: ReconfigKind,
        server: ServerId,
        comp: ComponentId,
        phase: ReconfigPhase,
        started: SimTime,
    ) {
        let entry = tier.of_mut(&mut self.reconfigs);
        debug_assert!(entry.is_none(), "{tier:?} already reconfiguring");
        *entry = Some(Reconfiguration {
            kind,
            server,
            comp,
            phase,
            started,
        });
    }

    /// Moves `tier`'s operation on to `phase`.
    pub(crate) fn advance_reconfiguration(&mut self, tier: ManagedTier, phase: ReconfigPhase) {
        if let Some(op) = tier.of_mut(&mut self.reconfigs) {
            op.phase = phase;
        }
    }

    /// The one exit: removes `tier`'s operation from the table. A
    /// finished one records the new replica count, and a rolling restart
    /// of `tier` (waiting for the tier, or between two steps) moves on,
    /// after the redeploy it owes a replica repaired meanwhile.
    pub(crate) fn end_reconfiguration(
        &mut self,
        sh: &mut Shared<'_, '_>,
        tier: ManagedTier,
        outcome: Outcome,
    ) {
        let Some(op) = tier.of_mut(&mut self.reconfigs).take() else {
            return;
        };
        match outcome {
            Outcome::Done => self.record_replica_series(sh),
            Outcome::Aborted => sh.ctx.metrics().incr("reconfig.aborted", 1),
        }
        if let Some(rolling) = self.rolling.as_mut().filter(|r| r.tier == tier) {
            let bounced = op.kind == ReconfigKind::RollingStep && outcome == Outcome::Done;
            rolling.done += usize::from(bounced);
            sh.ctx.send_now(Addr::ROOT, Msg::RollingNext);
            if rolling.redeploys > 0 {
                rolling.redeploys -= 1;
                self.scale_up(sh, tier);
            }
        }
    }
}
