//! Client navigation as a Markov state machine.
//!
//! The real RUBiS client emulator drives each session through a
//! *transition table*: from the page a client is on, it picks the next
//! interaction with page-specific probabilities (browsers go from
//! `BrowseCategories` to `SearchItemsInCategory`, bidders from `ViewItem`
//! to `PutBidAuth`, and so on), with a "back" edge modelling the browser
//! button. This module implements that navigation model; the i.i.d.
//! weighted mix of [`crate::interactions::InteractionMix`] remains
//! available as the simpler default.
//!
//! The matrix below is a condensed version of RUBiS's default
//! `transitions.txt` (bidding mix): states are the 26 interactions, rows
//! list `(next-state, weight)` pairs.

use crate::interactions::{InteractionType, INTERACTIONS};
use jade_sim::SimRng;

/// Index of an interaction in [`INTERACTIONS`].
pub type StateId = usize;

fn state(name: &str) -> StateId {
    INTERACTIONS
        .iter()
        .position(|t| t.name == name)
        .unwrap_or_else(|| panic!("unknown interaction '{name}'"))
}

/// One row of the transition table.
#[derive(Debug, Clone)]
struct Row {
    next: Vec<(StateId, f64)>,
}

/// The navigation state machine.
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    rows: Vec<Row>,
    home: StateId,
}

impl Default for TransitionMatrix {
    fn default() -> Self {
        Self::bidding_mix()
    }
}

impl TransitionMatrix {
    /// The default bidding mix: ~85 % browsing, ~15 % read-write, matching
    /// RUBiS's shipped transition table in spirit.
    pub fn bidding_mix() -> Self {
        let mut rows: Vec<Row> = (0..INTERACTIONS.len())
            .map(|_| Row { next: Vec::new() })
            .collect();
        let mut edge = |from: &str, to: &str, w: f64| {
            let f = state(from);
            rows[f].next.push((state(to), w));
        };

        // Entry page.
        edge("Home", "Browse", 6.0);
        edge("Home", "Register", 1.0);
        edge("Home", "AboutMe", 1.0);
        edge("Home", "Sell", 1.0);

        edge("Register", "RegisterUser", 4.0);
        edge("Register", "Home", 1.0);
        edge("RegisterUser", "Browse", 3.0);
        edge("RegisterUser", "Home", 1.0);

        // Browsing loop — the bulk of the traffic.
        edge("Browse", "BrowseCategories", 6.0);
        edge("Browse", "BrowseRegions", 2.0);
        edge("Browse", "Home", 1.0);
        edge("BrowseCategories", "SearchItemsInCategory", 8.0);
        edge("BrowseCategories", "Browse", 1.0);
        edge("SearchItemsInCategory", "ViewItem", 5.0);
        edge("SearchItemsInCategory", "SearchItemsInCategory", 3.0);
        edge("SearchItemsInCategory", "Browse", 2.0);
        edge("BrowseRegions", "BrowseCategoriesInRegion", 5.0);
        edge("BrowseRegions", "Browse", 1.0);
        edge("BrowseCategoriesInRegion", "SearchItemsInRegion", 6.0);
        edge("BrowseCategoriesInRegion", "Browse", 1.0);
        edge("SearchItemsInRegion", "ViewItem", 5.0);
        edge("SearchItemsInRegion", "SearchItemsInRegion", 3.0);
        edge("SearchItemsInRegion", "Browse", 2.0);

        // Item inspection.
        edge("ViewItem", "ViewBidHistory", 2.0);
        edge("ViewItem", "ViewUserInfo", 2.0);
        edge("ViewItem", "PutBidAuth", 2.5);
        edge("ViewItem", "BuyNowAuth", 1.0);
        edge("ViewItem", "Browse", 4.0);
        edge("ViewBidHistory", "ViewItem", 2.0);
        edge("ViewBidHistory", "Browse", 1.0);
        edge("ViewUserInfo", "PutCommentAuth", 1.0);
        edge("ViewUserInfo", "ViewItem", 1.5);
        edge("ViewUserInfo", "Browse", 1.0);

        // Bidding.
        edge("PutBidAuth", "PutBid", 4.0);
        edge("PutBidAuth", "ViewItem", 1.0);
        edge("PutBid", "StoreBid", 3.0);
        edge("PutBid", "ViewItem", 1.0);
        edge("StoreBid", "Browse", 2.0);
        edge("StoreBid", "ViewItem", 1.0);

        // Buy-now.
        edge("BuyNowAuth", "BuyNow", 4.0);
        edge("BuyNowAuth", "ViewItem", 1.0);
        edge("BuyNow", "StoreBuyNow", 2.0);
        edge("BuyNow", "ViewItem", 1.0);
        edge("StoreBuyNow", "Browse", 1.0);
        edge("StoreBuyNow", "Home", 1.0);

        // Comments.
        edge("PutCommentAuth", "PutComment", 3.0);
        edge("PutCommentAuth", "ViewItem", 1.0);
        edge("PutComment", "StoreComment", 3.0);
        edge("PutComment", "ViewItem", 1.0);
        edge("StoreComment", "Browse", 1.0);
        edge("StoreComment", "Home", 1.0);

        // Selling.
        edge("Sell", "SelectCategoryToSellItem", 3.0);
        edge("Sell", "Home", 1.0);
        edge("SelectCategoryToSellItem", "SellItemForm", 3.0);
        edge("SelectCategoryToSellItem", "Sell", 1.0);
        edge("SellItemForm", "RegisterItem", 3.0);
        edge("SellItemForm", "Sell", 1.0);
        edge("RegisterItem", "Browse", 1.0);
        edge("RegisterItem", "Sell", 1.0);

        // AboutMe.
        edge("AboutMe", "ViewItem", 1.0);
        edge("AboutMe", "Browse", 1.0);
        edge("AboutMe", "Home", 1.0);

        TransitionMatrix {
            rows,
            home: state("Home"),
        }
    }

    /// The session entry state (`Home`).
    pub fn home(&self) -> StateId {
        self.home
    }

    /// Samples the next state from `from`. Dead-end states (none in the
    /// default table) restart at `Home`, as a session timeout would.
    ///
    /// Consumes exactly **one** uniform draw, and performs the same
    /// floating-point arithmetic in the same edge order as
    /// [`SimRng::weighted`] over the row's weights — so the sampled
    /// trajectory is bit-identical to the original `Vec`-collecting
    /// implementation, without its per-call allocation. The aggregate
    /// client pool relies on this fixed draw discipline: per-tick state
    /// transitions consume RNG in documented state-index order, one draw
    /// per issuing session (see `crate::pool`), which is what makes
    /// aggregate-mode runs deterministic and seed-comparable.
    pub fn next(&self, from: StateId, rng: &mut SimRng) -> StateId {
        let row = &self.rows[from];
        if row.next.is_empty() {
            return self.home;
        }
        let total: f64 = row.next.iter().map(|&(_, w)| w).sum();
        debug_assert!(total > 0.0, "row weights must be positive");
        let mut x = rng.f64() * total;
        for &(next, w) in &row.next {
            x -= w;
            if x <= 0.0 {
                return next;
            }
        }
        row.next[row.next.len() - 1].0
    }

    /// The interaction type of a state.
    pub fn interaction(&self, s: StateId) -> &'static InteractionType {
        &INTERACTIONS[s]
    }

    /// Empirical stationary distribution over interactions, computed by
    /// walking the chain (used by tests and calibration to compare
    /// against the i.i.d. mix).
    pub fn stationary(&self, steps: usize, rng: &mut SimRng) -> Vec<f64> {
        let mut counts = vec![0u64; INTERACTIONS.len()];
        let mut s = self.home;
        for _ in 0..steps {
            counts[s] += 1;
            s = self.next(s, rng);
        }
        counts
            .into_iter()
            .map(|c| c as f64 / steps as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::InteractionKind;

    #[test]
    fn every_state_is_reachable_and_non_absorbing() {
        let m = TransitionMatrix::bidding_mix();
        let mut rng = SimRng::seed_from_u64(11);
        let dist = m.stationary(300_000, &mut rng);
        for (i, p) in dist.iter().enumerate() {
            assert!(
                *p > 0.0,
                "state {} unreachable in the chain",
                INTERACTIONS[i].name
            );
        }
    }

    #[test]
    fn transitions_reference_valid_states() {
        let m = TransitionMatrix::bidding_mix();
        for row in &m.rows {
            for &(next, w) in &row.next {
                assert!(next < INTERACTIONS.len());
                assert!(w > 0.0);
            }
        }
    }

    #[test]
    fn stationary_mix_is_mostly_reads() {
        let m = TransitionMatrix::bidding_mix();
        let mut rng = SimRng::seed_from_u64(5);
        let dist = m.stationary(300_000, &mut rng);
        let write_share: f64 = dist
            .iter()
            .enumerate()
            .filter(|(i, _)| INTERACTIONS[*i].kind == InteractionKind::ReadWrite)
            .map(|(_, p)| p)
            .sum();
        assert!(
            (0.03..=0.25).contains(&write_share),
            "write share {write_share:.3} out of the bidding-mix band"
        );
    }

    #[test]
    fn searches_dominate_like_the_iid_mix() {
        // The chain's stationary distribution should agree with the
        // weighted mix on the load-bearing fact: search interactions are
        // the most frequent database work.
        let m = TransitionMatrix::bidding_mix();
        let mut rng = SimRng::seed_from_u64(6);
        let dist = m.stationary(300_000, &mut rng);
        let search =
            dist[super::state("SearchItemsInCategory")] + dist[super::state("SearchItemsInRegion")];
        assert!(search > 0.15, "search share {search:.3}");
    }

    /// Pins the sampling discipline of `next`: exactly one uniform draw
    /// per call, consumed against the row's edges in declaration order,
    /// bit-identical to `SimRng::weighted` over the same weights. The
    /// aggregate client pool documents (and the determinism digests
    /// depend on) this draw order — a refactor that collects weights
    /// differently, walks edges in another order, or adds a draw must
    /// fail here.
    #[test]
    fn next_draw_order_is_pinned() {
        let m = TransitionMatrix::bidding_mix();
        // Reference: the original Vec-collecting implementation.
        let reference = |m: &TransitionMatrix, from: StateId, rng: &mut SimRng| -> StateId {
            let row = &m.rows[from];
            let weights: Vec<f64> = row.next.iter().map(|&(_, w)| w).collect();
            row.next[rng.weighted(&weights)].0
        };
        let mut a = SimRng::seed_from_u64(0xD0C);
        let mut b = SimRng::seed_from_u64(0xD0C);
        let (mut s_a, mut s_b) = (m.home(), m.home());
        for step in 0..10_000 {
            s_a = m.next(s_a, &mut a);
            s_b = reference(&m, s_b, &mut b);
            assert_eq!(s_a, s_b, "trajectories diverged at step {step}");
        }
        // Equal *states* could in principle survive an extra draw; equal
        // RNG positions cannot. One draw per call, exactly.
        assert_eq!(a.next_u64(), b.next_u64(), "draw counts differ");
    }

    #[test]
    fn next_is_deterministic_per_seed() {
        let m = TransitionMatrix::bidding_mix();
        let walk = |seed: u64| -> Vec<StateId> {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut s = m.home();
            (0..64)
                .map(|_| {
                    s = m.next(s, &mut rng);
                    s
                })
                .collect()
        };
        assert_eq!(walk(3), walk(3));
        assert_ne!(walk(3), walk(4));
    }
}
