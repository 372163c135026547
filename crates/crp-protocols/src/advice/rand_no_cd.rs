//! Randomized contention resolution without collision detection, with `b`
//! bits of advice (the upper bound matching Theorem 3.6).
//!
//! The classical decay strategy cycles through the `⌈log n⌉` geometric size
//! guesses and therefore needs `Θ(log n)` expected rounds.  Range advice
//! (from [`crp_predict::RangeOracle`]) tells every participant which block
//! of `⌈log n⌉ / 2^b` guesses contains the true size range; the truncated
//! decay strategy cycles through just that block, for an expected round
//! complexity of `Θ(log n / 2^b)`.

use crp_channel::{ChannelMode, CollisionHistory};
use crp_info::range_index_for_size;
use crp_predict::{Advice, RangeOracle};

use crate::error::ProtocolError;
use crate::protocol::{Behavior, Protocol, UniformPolicy};

/// Truncated decay: the decay strategy restricted to the candidate
/// geometric ranges selected by `b` bits of range advice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvisedDecay {
    /// Candidate geometric ranges (1-based, inclusive).
    low: usize,
    high: usize,
}

impl AdvisedDecay {
    /// Creates the truncated decay schedule for a universe of size
    /// `universe_size` given the shared advice.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `universe_size < 2`.
    pub fn new(universe_size: usize, advice: &Advice) -> Result<Self, ProtocolError> {
        if universe_size < 2 {
            return Err(ProtocolError::InvalidParameter {
                what: format!("advised decay requires n >= 2, got {universe_size}"),
            });
        }
        let (low, high) = RangeOracle::candidate_ranges(universe_size, advice);
        Ok(Self { low, high })
    }

    /// The candidate range interval `[low, high]` this schedule sweeps.
    pub fn candidate_ranges(&self) -> (usize, usize) {
        (self.low, self.high)
    }

    /// Number of distinct probabilities in one sweep
    /// (`⌈log n⌉ / 2^b`, rounded up by the advice-interval arithmetic).
    pub fn sweep_length(&self) -> usize {
        self.high - self.low + 1
    }

    /// True if the sweep includes the correct range for a network of `k`
    /// participants.
    pub fn covers_size(&self, k: usize) -> bool {
        let range = range_index_for_size(k.max(2));
        range >= self.low && range <= self.high
    }
}

impl Protocol for AdvisedDecay {
    fn mode(&self) -> ChannelMode {
        ChannelMode::NoCollisionDetection
    }

    fn name(&self) -> &str {
        "advised-decay"
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl UniformPolicy for AdvisedDecay {
    fn probability(&self, round: usize, _history: &CollisionHistory) -> Option<f64> {
        let position = (round - 1) % self.sweep_length();
        let range = self.low + position;
        Some(2f64.powi(-(range as i32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_run_protocol;
    use crp_predict::AdviceOracle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn advice_for(universe: usize, k: usize, budget: usize) -> Advice {
        let participants: Vec<usize> = (0..k).collect();
        RangeOracle.advise(universe, &participants, budget).unwrap()
    }

    #[test]
    fn sweep_shrinks_with_advice_budget() {
        let n = 1 << 16; // 16 ranges
        let k = 700;
        let mut widths = Vec::new();
        for budget in 0..=4 {
            let schedule = AdvisedDecay::new(n, &advice_for(n, k, budget)).unwrap();
            assert!(
                schedule.covers_size(k),
                "budget {budget} lost the true range"
            );
            widths.push(schedule.sweep_length());
        }
        assert_eq!(widths[0], 16);
        for pair in widths.windows(2) {
            assert!(pair[1] <= pair[0]);
        }
        assert_eq!(*widths.last().unwrap(), 1);
    }

    #[test]
    fn expected_rounds_improve_with_advice() {
        let n = 1 << 16;
        let k = 700;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let trials = 400;
        let mean_for = |budget: usize, rng: &mut ChaCha8Rng| {
            let schedule = AdvisedDecay::new(n, &advice_for(n, k, budget)).unwrap();
            let total: usize = (0..trials)
                .map(|_| try_run_protocol(&schedule, k, 50_000, rng).unwrap().rounds)
                .sum();
            total as f64 / trials as f64
        };
        let no_advice = mean_for(0, &mut rng);
        let full_advice = mean_for(4, &mut rng);
        assert!(
            full_advice < no_advice,
            "advice should reduce expected rounds: {full_advice} vs {no_advice}"
        );
        // With the exact range pinned the schedule is a constant-probability
        // protocol: a handful of rounds in expectation.
        assert!(
            full_advice < 6.0,
            "full-advice mean {full_advice} too large"
        );
    }

    #[test]
    fn zero_advice_is_plain_decay_over_all_ranges() {
        let n = 1024;
        let schedule = AdvisedDecay::new(n, &Advice::empty()).unwrap();
        let empty = CollisionHistory::new();
        assert_eq!(schedule.candidate_ranges(), (1, 10));
        assert_eq!(schedule.sweep_length(), 10);
        assert_eq!(schedule.probability(1, &empty), Some(0.5));
        assert_eq!(schedule.probability(10, &empty), Some(2f64.powi(-10)));
        assert_eq!(schedule.probability(11, &empty), Some(0.5));
        assert_eq!(schedule.name(), "advised-decay");
    }

    #[test]
    fn always_resolves_when_the_advice_is_correct() {
        let n = 1 << 12;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for k in [2usize, 60, 500, 3000] {
            let schedule = AdvisedDecay::new(n, &advice_for(n, k, 2)).unwrap();
            assert!(schedule.covers_size(k));
            let exec = try_run_protocol(&schedule, k, 20_000, &mut rng).unwrap();
            assert!(exec.resolved, "k={k} did not resolve");
        }
    }

    #[test]
    fn constructor_validates_universe() {
        assert!(AdvisedDecay::new(1, &Advice::empty()).is_err());
    }
}
