//! Reactors (paper §3.4): "Analysis/decision components (or reactors)
//! represent the actual reconfiguration algorithm … the decision logic
//! implemented to trigger such a reconfiguration is based on thresholds on
//! CPU loads provided by sensors" (§4.1).
//!
//! "The objective is to keep the CPU usage value between these two
//! thresholds. … if this value is over the maximum threshold … the control
//! loop deploys a new replica on a free node. … if this value is under the
//! minimum threshold … the control loop removes one node" (§5.2).

use jade_sim::{SimDuration, SimTime};

/// A reconfiguration decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Load within the optimal region: no action.
    Stay,
    /// Deploy one more replica.
    ScaleUp,
    /// Remove one replica.
    ScaleDown,
}

/// Threshold-based decision logic with replica bounds.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdReactor {
    /// Upper CPU threshold triggering replica addition.
    pub max_threshold: f64,
    /// Lower CPU threshold triggering replica removal.
    pub min_threshold: f64,
    /// Never scale below this replica count.
    pub min_replicas: usize,
    /// Never scale above this replica count.
    pub max_replicas: usize,
}

impl ThresholdReactor {
    /// Creates a reactor; panics on inconsistent thresholds.
    pub fn new(
        min_threshold: f64,
        max_threshold: f64,
        min_replicas: usize,
        max_replicas: usize,
    ) -> Self {
        assert!(
            0.0 <= min_threshold && min_threshold < max_threshold && max_threshold <= 1.0,
            "need 0 <= min < max <= 1"
        );
        assert!(1 <= min_replicas && min_replicas <= max_replicas);
        ThresholdReactor {
            max_threshold,
            min_threshold,
            min_replicas,
            max_replicas,
        }
    }

    /// Decides from the smoothed load and the current replica count.
    pub fn decide(&self, smoothed_load: f64, replicas: usize) -> Decision {
        if smoothed_load > self.max_threshold && replicas < self.max_replicas {
            Decision::ScaleUp
        } else if smoothed_load < self.min_threshold && replicas > self.min_replicas {
            Decision::ScaleDown
        } else {
            Decision::Stay
        }
    }
}

/// Oscillation guard shared by all control loops (paper §5.2): "in order
/// to prevent oscillations, a reconfiguration started by one of the
/// control loops inhibits any new reconfiguration for a short period (one
/// minute)".
#[derive(Debug, Clone, Copy)]
pub struct InhibitionWindow {
    /// Length of the inhibition period.
    pub period: SimDuration,
    last_reconfiguration: Option<SimTime>,
}

impl InhibitionWindow {
    /// Creates an open window with the given period.
    pub fn new(period: SimDuration) -> Self {
        InhibitionWindow {
            period,
            last_reconfiguration: None,
        }
    }

    /// True when a new reconfiguration may start at `t`.
    pub fn permits(&self, t: SimTime) -> bool {
        match self.last_reconfiguration {
            None => true,
            Some(last) => t.since(last) >= self.period,
        }
    }

    /// Records that a reconfiguration started at `t`.
    pub fn note_reconfiguration(&mut self, t: SimTime) {
        self.last_reconfiguration = Some(t);
    }
}

/// Adaptive thresholds (paper §7 future work: "improving the
/// self-optimizing algorithm by setting incrementally and dynamically its
/// parameters"). After each scale-up that is quickly followed by a
/// scale-down (a churn event), the band is widened to damp the loop;
/// sustained stability slowly narrows it back toward the configured band.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveThresholds {
    /// The configured (tightest) band.
    pub base: ThresholdReactor,
    /// Current widening applied symmetrically to the band, in load units.
    pub widening: f64,
    /// Widening added per churn event.
    pub step: f64,
    /// Maximum widening.
    pub max_widening: f64,
    /// Last scale direction and time, for churn detection.
    last_action: Option<(Decision, SimTime)>,
    /// Reconfigurations counted as churn when closer than this.
    pub churn_window: SimDuration,
}

impl AdaptiveThresholds {
    /// Wraps a base reactor.
    pub fn new(base: ThresholdReactor) -> Self {
        AdaptiveThresholds {
            base,
            widening: 0.0,
            step: 0.05,
            max_widening: 0.2,
            last_action: None,
            churn_window: SimDuration::from_secs(300),
        }
    }

    /// The effective reactor with the current widening applied.
    pub fn effective(&self) -> ThresholdReactor {
        ThresholdReactor {
            max_threshold: (self.base.max_threshold + self.widening).min(0.98),
            min_threshold: (self.base.min_threshold - self.widening).max(0.02),
            ..self.base
        }
    }

    /// Decides from the current (possibly widened) band. Pure — call
    /// [`AdaptiveThresholds::note_executed`] when the reconfiguration is
    /// actually carried out, so that decisions blocked by the inhibition
    /// window do not pollute the churn statistics.
    pub fn decide(&self, smoothed_load: f64, replicas: usize) -> Decision {
        self.effective().decide(smoothed_load, replicas)
    }

    /// Learns from an *executed* reconfiguration: a quick reversal widens
    /// the band; calm same-direction actions slowly narrow it back.
    pub fn note_executed(&mut self, d: Decision, t: SimTime) {
        if d == Decision::Stay {
            return;
        }
        if let Some((prev, when)) = self.last_action {
            let reversal = (prev == Decision::ScaleUp && d == Decision::ScaleDown)
                || (prev == Decision::ScaleDown && d == Decision::ScaleUp);
            if reversal && t.since(when) < self.churn_window {
                self.widening = (self.widening + self.step).min(self.max_widening);
            } else {
                self.widening = (self.widening - self.step / 2.0).max(0.0);
            }
        }
        self.last_action = Some((d, t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn reactor() -> ThresholdReactor {
        ThresholdReactor::new(0.3, 0.75, 1, 4)
    }

    #[test]
    fn keeps_load_in_the_optimal_region() {
        let r = reactor();
        assert_eq!(r.decide(0.5, 2), Decision::Stay);
        assert_eq!(r.decide(0.8, 2), Decision::ScaleUp);
        assert_eq!(r.decide(0.1, 2), Decision::ScaleDown);
    }

    #[test]
    fn respects_replica_bounds() {
        let r = reactor();
        assert_eq!(r.decide(0.9, 4), Decision::Stay, "at max replicas");
        assert_eq!(r.decide(0.05, 1), Decision::Stay, "at min replicas");
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_thresholds() {
        ThresholdReactor::new(0.8, 0.3, 1, 4);
    }

    #[test]
    fn inhibition_blocks_for_one_period() {
        let mut w = InhibitionWindow::new(SimDuration::from_secs(60));
        assert!(w.permits(t(0)));
        w.note_reconfiguration(t(10));
        assert!(!w.permits(t(30)));
        assert!(!w.permits(t(69)));
        assert!(w.permits(t(70)));
    }

    #[test]
    fn adaptive_widens_on_churn_and_narrows_when_calm() {
        let mut a = AdaptiveThresholds::new(reactor());
        // Scale up then immediately down: churn → widen.
        assert_eq!(a.decide(0.9, 2), Decision::ScaleUp);
        a.note_executed(Decision::ScaleUp, t(0));
        assert_eq!(a.decide(0.1, 3), Decision::ScaleDown);
        a.note_executed(Decision::ScaleDown, t(30));
        assert!(a.widening > 0.0);
        let widened = a.effective();
        assert!(widened.max_threshold > 0.75);
        assert!(widened.min_threshold < 0.3);
        // Calm, same-direction actions narrow again.
        a.note_executed(Decision::ScaleUp, t(1000));
        a.note_executed(Decision::ScaleUp, t(2000));
        assert!(a.widening < 0.05 + 1e-9);
    }

    #[test]
    fn adaptive_ignores_blocked_decisions() {
        let mut a = AdaptiveThresholds::new(reactor());
        a.note_executed(Decision::ScaleUp, t(0));
        // Many blocked (never-executed) decisions change nothing.
        for _ in 0..100 {
            let _ = a.decide(0.9, 2);
        }
        assert_eq!(a.widening, 0.0);
        // The eventual executed reversal still widens.
        a.note_executed(Decision::ScaleDown, t(50));
        assert!(a.widening > 0.0);
    }
}
