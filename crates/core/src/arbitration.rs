//! Policy arbitration between autonomic managers (paper §7, future work):
//! "Managers have their own goal and control loops and therefore require a
//! way to arbitrate potential conflicts."
//!
//! The arbitrator is a serialization point between the self-optimization
//! and self-recovery managers. Managers *submit* reconfiguration requests
//! instead of acting directly; the arbitrator
//!
//! * serializes execution (one reconfiguration at a time, matching the
//!   paper's observation that concurrent reconfigurations conflict): the
//!   system pops a request only while its reconfiguration table is empty,
//!   so the slot is derived from the operations in flight and freed by
//!   the same exit that ends them, success or abort,
//! * prioritizes repair over optimization (a broken replica must be fixed
//!   before resizing decisions mean anything): a queued repair is popped
//!   first and, unlike a resize, is not held back by the inhibition
//!   window,
//! * coalesces conflicting requests: a pending scale-up and scale-down on
//!   the same tier cancel out, duplicates collapse, and a repair on a
//!   tier invalidates pending optimization requests for it (the repair
//!   changes the capacity the optimizer reasoned about).

use crate::system::ManagedTier;
use jade_sim::SimTime;
use jade_tiers::ServerId;
use std::collections::VecDeque;

/// Which manager produced a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The self-optimization manager of a tier.
    SelfOptimization,
    /// The self-recovery manager.
    SelfRecovery,
}

/// A requested reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Add one replica to the tier.
    ScaleUp(ManagedTier),
    /// Remove one replica from the tier.
    ScaleDown(ManagedTier),
    /// Repair a failed replica.
    Repair(ServerId),
}

impl Action {
    /// True when `self` and `other` pull the same tier in opposite
    /// directions.
    fn opposes(&self, other: &Action) -> bool {
        matches!(
            (self, other),
            (Action::ScaleUp(a), Action::ScaleDown(b)) | (Action::ScaleDown(a), Action::ScaleUp(b))
                if a == b
        )
    }
}

/// A submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Originating manager.
    pub source: Source,
    /// Requested reconfiguration.
    pub action: Action,
    /// Submission time (FIFO within a priority class).
    pub submitted: SimTime,
}

impl Request {
    fn priority(&self) -> u8 {
        match self.source {
            Source::SelfRecovery => 1,
            Source::SelfOptimization => 0,
        }
    }
}

/// Outcome of submitting a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued for execution.
    Queued,
    /// Dropped as a duplicate of a pending request.
    Duplicate,
    /// Cancelled out against an opposing pending request (which was also
    /// removed).
    Cancelled,
    /// Dropped because a pending repair supersedes it.
    Superseded,
}

/// The arbitration manager.
#[derive(Clone, Debug, Default)]
pub struct Arbitrator {
    queue: VecDeque<Request>,
    submitted: u64,
    dropped: u64,
    executed: u64,
}

impl Arbitrator {
    /// Creates an idle arbitrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a request, applying the conflict rules.
    pub fn submit(&mut self, req: Request) -> SubmitOutcome {
        self.submitted += 1;
        if self.queue.iter().any(|r| r.action == req.action) {
            self.dropped += 1;
            return SubmitOutcome::Duplicate;
        }
        // Pending repair on the same tier supersedes optimization.
        if req.source == Source::SelfOptimization && self.repair_pending() {
            self.dropped += 1;
            return SubmitOutcome::Superseded;
        }
        if let Some(pos) = self
            .queue
            .iter()
            .position(|r| r.action.opposes(&req.action))
        {
            // Opposing intents cancel: the system is already where both
            // managers jointly want it.
            self.queue.remove(pos);
            self.dropped += 2;
            return SubmitOutcome::Cancelled;
        }
        // Repairs invalidate pending optimization of the same tier — the
        // capacity they reasoned about is about to change.
        if req.source == Source::SelfRecovery {
            let before = self.queue.len();
            self.queue.retain(|r| r.source != Source::SelfOptimization);
            self.dropped += (before - self.queue.len()) as u64;
        }
        self.queue.push_back(req);
        SubmitOutcome::Queued
    }

    /// Pops the next request to execute: highest priority first, FIFO
    /// within a class. The caller pops only while no reconfiguration is
    /// in flight.
    #[allow(clippy::should_implement_trait)] // not an iterator: the caller gates it
    pub fn next(&mut self) -> Option<Request> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.priority()
                    .cmp(&b.priority())
                    // FIFO within a class: earlier submission (and lower
                    // index) wins, so invert the index comparison.
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i)?;
        let req = self.queue.remove(best)?;
        self.executed += 1;
        Some(req)
    }

    /// True while a repair is queued: [`Arbitrator::next`] pops it first.
    pub fn repair_pending(&self) -> bool {
        self.queue.iter().any(|r| r.source == Source::SelfRecovery)
    }

    /// Pending queue length.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Counters: `(submitted, dropped, executed)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.submitted, self.dropped, self.executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(action: Action, t: u64) -> Request {
        Request {
            source: Source::SelfOptimization,
            action,
            submitted: SimTime::from_secs(t),
        }
    }

    fn rec(server: u32, t: u64) -> Request {
        Request {
            source: Source::SelfRecovery,
            action: Action::Repair(ServerId(server)),
            submitted: SimTime::from_secs(t),
        }
    }

    #[test]
    fn serializes_execution() {
        let mut a = Arbitrator::new();
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 0));
        a.submit(opt(Action::ScaleUp(ManagedTier::Application), 1));
        let first = a.next().expect("first request");
        assert_eq!(first.action, Action::ScaleUp(ManagedTier::Database));
        // One request per pop; the system holds the slot in between.
        let second = a.next().expect("second request");
        assert_eq!(second.action, Action::ScaleUp(ManagedTier::Application));
        assert!(a.next().is_none());
    }

    #[test]
    fn recovery_preempts_optimization() {
        let mut a = Arbitrator::new();
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 0));
        a.submit(rec(7, 1));
        let first = a.next().unwrap();
        assert_eq!(first.source, Source::SelfRecovery);
    }

    #[test]
    fn repair_supersedes_pending_and_future_optimization() {
        let mut a = Arbitrator::new();
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 0));
        assert_eq!(a.submit(rec(7, 1)), SubmitOutcome::Queued);
        // The pending optimization was invalidated…
        assert_eq!(a.pending(), 1);
        // …and new optimization is refused while the repair is pending.
        assert_eq!(
            a.submit(opt(Action::ScaleDown(ManagedTier::Application), 2)),
            SubmitOutcome::Superseded
        );
    }

    #[test]
    fn opposing_requests_cancel() {
        let mut a = Arbitrator::new();
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 0));
        assert_eq!(
            a.submit(opt(Action::ScaleDown(ManagedTier::Database), 1)),
            SubmitOutcome::Cancelled
        );
        assert_eq!(a.pending(), 0);
        // Different tiers do not cancel.
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 2));
        assert_eq!(
            a.submit(opt(Action::ScaleDown(ManagedTier::Application), 3)),
            SubmitOutcome::Queued
        );
        assert_eq!(a.pending(), 2);
    }

    #[test]
    fn duplicates_collapse() {
        let mut a = Arbitrator::new();
        assert_eq!(
            a.submit(opt(Action::ScaleUp(ManagedTier::Database), 0)),
            SubmitOutcome::Queued
        );
        assert_eq!(
            a.submit(opt(Action::ScaleUp(ManagedTier::Database), 1)),
            SubmitOutcome::Duplicate
        );
        assert_eq!(a.pending(), 1);
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let mut a = Arbitrator::new();
        a.submit(rec(1, 0));
        a.submit(rec(2, 1));
        assert!(a.repair_pending());
        assert_eq!(a.next().unwrap().action, Action::Repair(ServerId(1)));
        assert_eq!(a.next().unwrap().action, Action::Repair(ServerId(2)));
    }

    #[test]
    fn counters_track_activity() {
        let mut a = Arbitrator::new();
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 0));
        a.submit(opt(Action::ScaleUp(ManagedTier::Database), 1)); // dup
        a.next();
        let (submitted, dropped, executed) = a.counters();
        assert_eq!((submitted, dropped, executed), (2, 1, 1));
    }
}
