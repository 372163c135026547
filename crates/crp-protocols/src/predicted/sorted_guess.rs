//! The §2.5 algorithm: no collision detection, network-size prediction.
//!
//! Given the predicted condensed distribution `c(Y)`, sort the geometric
//! ranges by decreasing likelihood and visit them in that order, in round
//! `i` transmitting with probability `2^{-π_i}`.  The paper proves that with
//! probability at least `1/16` this succeeds within
//! `O(2^T)` rounds where `T = 2·H(c(X)) + 2·D_KL(c(X) ‖ c(Y))`
//! (Theorem 2.12), which collapses to `O(2^{2H(c(X))})` for accurate
//! predictions (Corollary 2.15).
//!
//! The paper analyses the one-shot pass; for expected-time experiments a
//! cycling variant that repeats the pass forever is also provided (the
//! paper's footnote 6 notes that a cleverer interleaving would be used for
//! good expected time — plain repetition is the simplest such scheme and is
//! what the harness measures).

use crp_info::{CondensedDistribution, SizeDistribution};

use crate::traits::NoCdSchedule;

/// The sorted-guess protocol of §2.5.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedGuess {
    /// Geometric range indices in decreasing order of predicted likelihood.
    visit_order: Vec<usize>,
    /// Whether the pass repeats forever (for expected-time measurements) or
    /// stops after one pass (the paper's one-shot analysis).
    cycling: bool,
    name: String,
}

impl SortedGuess {
    /// Builds the one-shot protocol from a predicted condensed
    /// distribution.
    pub fn new(prediction: &CondensedDistribution) -> Self {
        Self {
            visit_order: prediction.ranges_by_likelihood(),
            cycling: false,
            name: "sorted-guess".to_string(),
        }
    }

    /// Builds the one-shot protocol directly from a predicted size
    /// distribution (condensing it first).
    pub fn from_sizes(prediction: &SizeDistribution) -> Self {
        Self::new(&CondensedDistribution::from_sizes(prediction))
    }

    /// Returns a variant that repeats the likelihood-ordered pass forever,
    /// for expected-round-count experiments.
    pub fn cycling(mut self) -> Self {
        self.cycling = true;
        self.name = "sorted-guess-cycling".to_string();
        self
    }

    /// The order in which geometric ranges are visited.
    pub fn visit_order(&self) -> &[usize] {
        &self.visit_order
    }

    /// Number of rounds in one pass (`⌈log n⌉`).
    pub fn pass_length(&self) -> usize {
        self.visit_order.len()
    }

    /// The 1-based position at which range `range` is visited within a
    /// pass, if it is ever visited.
    pub fn position_of_range(&self, range: usize) -> Option<usize> {
        self.visit_order
            .iter()
            .position(|&r| r == range)
            .map(|i| i + 1)
    }
}

impl NoCdSchedule for SortedGuess {
    fn probability(&self, round: usize) -> Option<f64> {
        let index = if self.cycling {
            (round - 1) % self.visit_order.len()
        } else {
            if round > self.visit_order.len() {
                return None;
            }
            round - 1
        };
        let range = self.visit_order[index];
        Some(2f64.powi(-(range as i32)))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn horizon(&self) -> Option<usize> {
        if self.cycling {
            None
        } else {
            Some(self.visit_order.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_protocol, ScheduleProtocol};
    use crp_info::range_index_for_size;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn visits_most_likely_range_first() {
        let prediction = SizeDistribution::bimodal(1024, 32, 700, 0.9).unwrap();
        let protocol = SortedGuess::from_sizes(&prediction);
        assert_eq!(protocol.visit_order()[0], range_index_for_size(32));
        assert_eq!(protocol.pass_length(), 10);
        assert_eq!(
            protocol.position_of_range(range_index_for_size(32)),
            Some(1)
        );
        assert_eq!(protocol.position_of_range(999), None);
    }

    #[test]
    fn first_round_probability_matches_most_likely_range() {
        let prediction = SizeDistribution::point_mass(1024, 100).unwrap();
        let protocol = SortedGuess::from_sizes(&prediction);
        let range = range_index_for_size(100);
        assert_eq!(protocol.probability(1), Some(2f64.powi(-(range as i32))));
    }

    #[test]
    fn one_shot_schedule_is_finite() {
        let prediction = SizeDistribution::uniform_ranges(256).unwrap();
        let protocol = SortedGuess::from_sizes(&prediction);
        assert_eq!(protocol.horizon(), Some(8));
        assert!(protocol.probability(8).is_some());
        assert_eq!(protocol.probability(9), None);
        assert_eq!(protocol.name(), "sorted-guess");
    }

    #[test]
    fn cycling_schedule_never_ends() {
        let prediction = SizeDistribution::uniform_ranges(256).unwrap();
        let protocol = SortedGuess::from_sizes(&prediction).cycling();
        assert_eq!(protocol.horizon(), None);
        assert_eq!(protocol.probability(9), protocol.probability(1));
        assert_eq!(protocol.name(), "sorted-guess-cycling");
    }

    #[test]
    fn accurate_point_prediction_resolves_fast_with_high_probability() {
        let n = 1 << 14;
        let k = 3000;
        let prediction = SizeDistribution::point_mass(n, k).unwrap();
        let protocol = SortedGuess::from_sizes(&prediction);
        let pass = protocol.pass_length();
        let protocol = ScheduleProtocol(protocol);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let trials = 500;
        let mut resolved_in_first_round = 0;
        for _ in 0..trials {
            let exec = try_run_protocol(&protocol, k, pass, &mut rng).unwrap();
            if exec.resolved && exec.rounds == 1 {
                resolved_in_first_round += 1;
            }
        }
        // Lemma 2.13: the correct range succeeds with probability >= 1/8;
        // in practice it's ~0.35-0.4 for p in (1/(2k), 1/k].
        assert!(
            resolved_in_first_round as f64 / trials as f64 > 0.15,
            "only {resolved_in_first_round}/{trials} resolved in round one"
        );
    }

    #[test]
    fn wrong_prediction_takes_longer_than_right_prediction() {
        let n = 1 << 12;
        let k = 1500;
        let good = SortedGuess::from_sizes(&SizeDistribution::point_mass(n, k).unwrap());
        // Bad prediction: confidently predicts a tiny network.
        let bad = SortedGuess::from_sizes(&SizeDistribution::geometric(n, 0.5).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trials = 400;
        let mean = |p: &SortedGuess, rng: &mut ChaCha8Rng| {
            let total: usize = (0..trials)
                .map(|_| {
                    let cycling = ScheduleProtocol(p.clone().cycling());
                    let exec = try_run_protocol(&cycling, k, 10_000, rng).unwrap();
                    exec.rounds
                })
                .sum();
            total as f64 / trials as f64
        };
        let good_mean = mean(&good, &mut rng);
        let bad_mean = mean(&bad, &mut rng);
        assert!(
            good_mean < bad_mean,
            "good prediction ({good_mean}) should beat bad prediction ({bad_mean})"
        );
    }

    #[test]
    fn cycling_variant_always_resolves_eventually() {
        let n = 4096;
        let prediction = SizeDistribution::uniform_ranges(n).unwrap();
        let protocol = ScheduleProtocol(SortedGuess::from_sizes(&prediction).cycling());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for k in [2usize, 57, 513, 4000] {
            let exec = try_run_protocol(&protocol, k, 50_000, &mut rng).unwrap();
            assert!(exec.resolved, "cycling sorted-guess failed for k={k}");
        }
    }
}
