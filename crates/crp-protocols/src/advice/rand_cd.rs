//! Randomized contention resolution with collision detection and `b` bits
//! of advice (the upper bound matching Theorem 3.7).
//!
//! Willard's strategy binary-searches the `⌈log n⌉` geometric size guesses
//! in `O(log log n)` expected rounds.  Range advice (from
//! [`crp_predict::RangeOracle`]) restricts the search to a block of
//! `⌈log n⌉ / 2^b` guesses, so the search takes
//! `O(log(log n / 2^b)) = O(log log n − b)` rounds; with
//! `b ≥ log log n` bits the correct range is pinned exactly and the
//! protocol runs at the known-size optimum.

use crp_channel::CollisionHistory;
use crp_predict::{Advice, RangeOracle};

use crate::baselines::WillardSearch;
use crate::error::ProtocolError;
use crate::traits::CdStrategy;

/// Willard's binary search restricted to the advice's candidate ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvisedWillard {
    search: WillardSearch,
}

impl AdvisedWillard {
    /// Creates the advised search for a universe of size `universe_size`
    /// given the shared advice.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `universe_size < 2`.
    pub fn new(universe_size: usize, advice: &Advice) -> Result<Self, ProtocolError> {
        if universe_size < 2 {
            return Err(ProtocolError::InvalidParameter {
                what: format!("advised willard requires n >= 2, got {universe_size}"),
            });
        }
        let (low, high) = RangeOracle::candidate_ranges(universe_size, advice);
        Ok(Self {
            search: WillardSearch::new(low, high)?,
        })
    }

    /// The candidate range interval `[low, high]` being searched.
    pub fn candidate_ranges(&self) -> (usize, usize) {
        self.search.interval()
    }

    /// Worst-case number of probes: `⌈log(⌈log n⌉ / 2^b)⌉ + 1`.
    pub fn worst_case_rounds(&self) -> usize {
        self.search.worst_case_rounds()
    }
}

impl CdStrategy for AdvisedWillard {
    fn probability(&self, history: &CollisionHistory) -> Option<f64> {
        self.search.probability(history)
    }

    fn name(&self) -> &str {
        "advised-willard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_protocol, StrategyProtocol};
    use crp_predict::AdviceOracle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn advice_for(universe: usize, k: usize, budget: usize) -> Advice {
        let participants: Vec<usize> = (0..k).collect();
        RangeOracle.advise(universe, &participants, budget).unwrap()
    }

    #[test]
    fn worst_case_rounds_shrink_with_advice() {
        let n = 1 << 16; // 16 ranges -> log log n = 4
        let k = 700;
        let mut rounds = Vec::new();
        for budget in 0..=4 {
            let protocol = AdvisedWillard::new(n, &advice_for(n, k, budget)).unwrap();
            rounds.push(protocol.worst_case_rounds());
        }
        assert_eq!(rounds[0], 5); // log2(16) + 1
        for pair in rounds.windows(2) {
            assert!(pair[1] <= pair[0]);
        }
        assert_eq!(*rounds.last().unwrap(), 1);
    }

    #[test]
    fn full_advice_behaves_like_the_known_size_protocol() {
        let n = 1 << 16;
        let k = 700;
        let protocol = AdvisedWillard::new(n, &advice_for(n, k, 4)).unwrap();
        let (lo, hi) = protocol.candidate_ranges();
        assert_eq!(lo, hi);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let trials = 300;
        let resolved = (0..trials)
            .filter(|_| {
                try_run_protocol(&StrategyProtocol::new(protocol), k, 1, &mut rng)
                    .unwrap()
                    .resolved
            })
            .count();
        // Single round with probability 2^-⌈log k⌉ succeeds with constant
        // probability (Lemma 2.13 gives >= 1/8; empirically ~0.35).
        assert!(
            resolved as f64 / trials as f64 > 0.15,
            "resolved {resolved}/{trials}"
        );
    }

    #[test]
    fn resolution_probability_within_budgeted_rounds_is_constant() {
        let n = 1 << 16;
        let k = 12_345;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for budget in [0usize, 1, 2, 3] {
            let protocol = AdvisedWillard::new(n, &advice_for(n, k, budget)).unwrap();
            let horizon = protocol.worst_case_rounds();
            let trials = 300;
            let resolved = (0..trials)
                .filter(|_| {
                    try_run_protocol(&StrategyProtocol::new(protocol), k, horizon, &mut rng)
                        .unwrap()
                        .resolved
                })
                .count();
            assert!(
                resolved as f64 / trials as f64 > 0.2,
                "budget {budget}: resolved only {resolved}/{trials} within {horizon} rounds"
            );
        }
    }

    #[test]
    fn zero_advice_is_plain_willard() {
        let n = 4096;
        let protocol = AdvisedWillard::new(n, &Advice::empty()).unwrap();
        assert_eq!(protocol.candidate_ranges(), (1, 12));
        assert_eq!(protocol.name(), "advised-willard");
    }

    #[test]
    fn constructor_validates_universe() {
        assert!(AdvisedWillard::new(1, &Advice::empty()).is_err());
    }
}
