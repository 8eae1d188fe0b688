//! Emulated web clients (the RUBiS "benchmarking tool that emulates web
//! client behaviors and generates a tunable workload", paper §5.2).
//!
//! Each client loops: think (negative-exponential think time, TPC-W
//! style), issue one interaction, wait for the response. The think-time
//! mean is calibrated so 80 clients produce the ~12 req/s of Table 1.

use crate::interactions::generate_plan_compiled_into;
use crate::schema::KeySpace;
use crate::transitions::{StateId, TransitionMatrix};
use jade_sim::{SimDuration, SimRng};
use jade_tiers::request::InteractionPlan;
use jade_tiers::sql::Value;

/// Mean think time between a response and the next request.
pub const DEFAULT_THINK_TIME: SimDuration = SimDuration::from_millis(6_500);

/// One emulated client.
#[derive(Clone, Debug)]
pub struct EmulatedClient {
    /// Client index (stable across the run).
    pub id: u32,
    rng: SimRng,
    mean_think: SimDuration,
    /// Requests issued so far.
    pub issued: u64,
    /// Responses received so far.
    pub completed: u64,
    /// Current page in the Markov navigation model (None = fresh session).
    nav_state: Option<StateId>,
}

impl EmulatedClient {
    /// Creates a client with its own RNG stream.
    pub fn new(id: u32, rng: SimRng, mean_think: SimDuration) -> Self {
        EmulatedClient {
            id,
            rng,
            mean_think,
            issued: 0,
            completed: 0,
            nav_state: None,
        }
    }

    /// Samples the next think time.
    pub fn think_time(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exp(self.mean_think.as_secs_f64()))
    }

    /// Generates the next interaction from an i.i.d. weighted mix (the
    /// bidding or the browsing mix) into recycled parameter/demand
    /// buffers (see [`generate_plan_compiled_into`]), so steady-state
    /// generation allocates nothing.
    pub fn next_interaction_in_mix_into(
        &mut self,
        mix: &crate::interactions::InteractionMix,
        ks: &mut KeySpace,
        params: Vec<Value>,
        demands: Vec<SimDuration>,
    ) -> InteractionPlan {
        self.issued += 1;
        let t = mix.sample_index(&mut self.rng);
        generate_plan_compiled_into(t, ks, &mut self.rng, params, demands)
    }

    /// Generates the next interaction by navigating the transition-table
    /// state machine (the real RUBiS emulator's behaviour), into recycled
    /// parameter/demand buffers (see [`generate_plan_compiled_into`]; a
    /// [`StateId`] is the interaction's index into `INTERACTIONS`).
    /// Sessions start at `Home`.
    pub fn next_interaction_markov_into(
        &mut self,
        matrix: &TransitionMatrix,
        ks: &mut KeySpace,
        params: Vec<Value>,
        demands: Vec<SimDuration>,
    ) -> InteractionPlan {
        self.issued += 1;
        let s = match self.nav_state {
            Some(s) => matrix.next(s, &mut self.rng),
            None => matrix.home(),
        };
        self.nav_state = Some(s);
        generate_plan_compiled_into(s, ks, &mut self.rng, params, demands)
    }

    /// Records a completed response.
    pub fn note_completed(&mut self) {
        self.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatasetSpec;

    #[test]
    fn think_times_average_to_the_mean() {
        let mut c = EmulatedClient::new(0, SimRng::seed_from_u64(1), DEFAULT_THINK_TIME);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| c.think_time().as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 6.5).abs() < 0.2, "mean think {mean}");
    }

    #[test]
    fn clients_are_independent_streams() {
        let mut root = SimRng::seed_from_u64(7);
        let mut a = EmulatedClient::new(0, root.fork(), DEFAULT_THINK_TIME);
        let mut b = EmulatedClient::new(1, root.fork(), DEFAULT_THINK_TIME);
        let ta: Vec<u64> = (0..8).map(|_| a.think_time().as_micros()).collect();
        let tb: Vec<u64> = (0..8).map(|_| b.think_time().as_micros()).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn issue_and_complete_counters() {
        let mut ks: KeySpace = DatasetSpec::tiny().into();
        let mix = crate::interactions::InteractionMix::bidding();
        let mut c = EmulatedClient::new(0, SimRng::seed_from_u64(2), DEFAULT_THINK_TIME);
        for _ in 0..2 {
            let _ = c.next_interaction_in_mix_into(&mix, &mut ks, Vec::new(), Vec::new());
        }
        c.note_completed();
        assert_eq!(c.issued, 2);
        assert_eq!(c.completed, 1);
    }
}

#[cfg(test)]
mod markov_tests {
    use super::*;
    use crate::schema::DatasetSpec;

    #[test]
    fn markov_sessions_start_at_home() {
        let mut ks: KeySpace = DatasetSpec::tiny().into();
        let m = TransitionMatrix::bidding_mix();
        let mut c = EmulatedClient::new(0, SimRng::seed_from_u64(3), DEFAULT_THINK_TIME);
        let first = c.next_interaction_markov_into(&m, &mut ks, Vec::new(), Vec::new());
        assert_eq!(first.name, "Home");
        // Subsequent steps follow the chain (and never panic).
        for _ in 0..200 {
            let _ = c.next_interaction_markov_into(&m, &mut ks, Vec::new(), Vec::new());
        }
        assert_eq!(c.issued, 201);
    }
}
