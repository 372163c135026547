//! Classical baselines: decay, Willard's binary search and the known-size
//! protocol.
//!
//! These are the comparison points the paper measures its predictions
//! against: decay achieves `O(log n)` expected rounds without collision
//! detection, Willard achieves `O(log log n)` with collision detection, and
//! a correct size estimate `k̂ = Θ(k)` achieves `O(1)` rounds.

use crp_channel::{ChannelMode, CollisionHistory};
use crp_info::{log2_ceil, range_index_for_size, range_interval, CondensedDistribution};

use crate::error::ProtocolError;
use crate::protocol::{Behavior, Protocol, UniformPolicy};

/// The decay strategy of Bar-Yehuda, Goldreich and Itai: cycle forever
/// through the geometrically decreasing probabilities
/// `1/2, 1/4, …, 2^{-⌈log n⌉}`.
///
/// One full sweep takes `⌈log n⌉` rounds and contains a probability within
/// a factor of two of `1/k` for every possible `k ≤ n`, which is why the
/// expected round complexity is `O(log n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decay {
    num_ranges: usize,
}

impl Decay {
    /// Creates the decay schedule for a universe of size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `n < 2`.
    pub fn new(n: usize) -> Result<Self, ProtocolError> {
        if n < 2 {
            return Err(ProtocolError::InvalidParameter {
                what: format!("decay requires n >= 2, got {n}"),
            });
        }
        Ok(Self {
            num_ranges: range_index_for_size(n),
        })
    }

    /// Number of distinct probabilities in one sweep (`⌈log n⌉`).
    pub fn sweep_length(&self) -> usize {
        self.num_ranges
    }
}

impl Protocol for Decay {
    fn mode(&self) -> ChannelMode {
        ChannelMode::NoCollisionDetection
    }

    fn name(&self) -> &str {
        "decay"
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl UniformPolicy for Decay {
    fn probability(&self, round: usize, _history: &CollisionHistory) -> Option<f64> {
        let position = (round - 1) % self.num_ranges;
        Some(2f64.powi(-(position as i32 + 1)))
    }
}

/// The known-size baseline: transmit with probability `1/estimate` in every
/// round.
///
/// With `estimate = Θ(k)` the per-round success probability is a constant,
/// so the expected number of rounds is `O(1)` — the best-case bound the
/// paper's predictions try to approach.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedProbability {
    estimate: usize,
}

impl FixedProbability {
    /// Creates the protocol for an estimated participant count `estimate`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `estimate == 0`.
    pub fn new(estimate: usize) -> Result<Self, ProtocolError> {
        if estimate == 0 {
            return Err(ProtocolError::InvalidParameter {
                what: "size estimate must be positive".into(),
            });
        }
        Ok(Self { estimate })
    }

    /// The size estimate `k̂` this protocol was built for.
    pub fn estimate(&self) -> usize {
        self.estimate
    }
}

impl Protocol for FixedProbability {
    fn mode(&self) -> ChannelMode {
        ChannelMode::NoCollisionDetection
    }

    fn name(&self) -> &str {
        "fixed-probability"
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl UniformPolicy for FixedProbability {
    fn probability(&self, _round: usize, _history: &CollisionHistory) -> Option<f64> {
        Some(1.0 / self.estimate as f64)
    }
}

/// The deliberately naive prediction consumer: trust the advice past any
/// divergence bound.
///
/// It reads the prediction's single most likely condensed range, takes
/// that range's top size as `k̂`, and transmits with probability `1/k̂`
/// forever — no decay, no cycling, no hedge against the prediction being
/// wrong.  When the advice is accurate this matches the `O(1)`-round
/// [`FixedProbability`] baseline; when the truth drifts away from the
/// advice, its success probability collapses like `(k/k̂)·e^{−k/k̂}` and it
/// violates the paper's robustness envelope — exactly the failure the
/// fuzzing layer's property oracles exist to catch, which is why this is
/// registered as the standard oracle-bait target.
#[derive(Debug, Clone, PartialEq)]
pub struct BlindTrust {
    schedule: FixedProbability,
}

impl BlindTrust {
    /// Derives `k̂` from the prediction's modal condensed range.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] for a prediction with
    /// no ranges.
    pub fn from_prediction(prediction: &CondensedDistribution) -> Result<Self, ProtocolError> {
        let modal = prediction
            .ranges_by_likelihood()
            .first()
            .copied()
            .ok_or_else(|| ProtocolError::InvalidParameter {
                what: "blind-trust needs a prediction with at least one range".into(),
            })?;
        let (_, high) = range_interval(modal);
        let estimate = high.min(prediction.max_size()).max(2);
        Ok(Self {
            schedule: FixedProbability::new(estimate)?,
        })
    }

    /// The size estimate `k̂` the protocol trusts.
    pub fn estimate(&self) -> usize {
        self.schedule.estimate()
    }
}

impl Protocol for BlindTrust {
    fn mode(&self) -> ChannelMode {
        ChannelMode::NoCollisionDetection
    }

    fn name(&self) -> &str {
        "blind-trust"
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl UniformPolicy for BlindTrust {
    fn probability(&self, round: usize, history: &CollisionHistory) -> Option<f64> {
        self.schedule.probability(round, history)
    }
}

/// Willard's collision-detection strategy: a binary search over the
/// `⌈log n⌉` geometric size guesses.
///
/// The strategy maintains a candidate interval of range indices.  Each
/// round it probes the median range `m` by transmitting with probability
/// `2^{-m}`: a collision means the probability was too high for the actual
/// participant count (the true range is larger), silence means it was too
/// low (the true range is smaller).  The search therefore takes
/// `O(log log n)` rounds.
///
/// The strategy is a pure function of the collision history, as required of
/// uniform algorithms: the candidate interval is recomputed from the
/// history on every call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Willard {
    num_ranges: usize,
}

impl Willard {
    /// Creates Willard's search for a universe of size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `n < 2`.
    pub fn new(n: usize) -> Result<Self, ProtocolError> {
        if n < 2 {
            return Err(ProtocolError::InvalidParameter {
                what: format!("willard requires n >= 2, got {n}"),
            });
        }
        Ok(Self {
            num_ranges: range_index_for_size(n),
        })
    }

    /// Worst-case number of rounds of the search (`⌈log ⌈log n⌉⌉ + 1`).
    pub fn worst_case_rounds(&self) -> usize {
        log2_ceil(self.num_ranges as u64) as usize + 1
    }
}

impl Protocol for Willard {
    fn mode(&self) -> ChannelMode {
        ChannelMode::CollisionDetection
    }

    fn name(&self) -> &str {
        "willard"
    }

    fn horizon(&self) -> Option<usize> {
        Some(self.worst_case_rounds())
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl UniformPolicy for Willard {
    fn probability(&self, _round: usize, history: &CollisionHistory) -> Option<f64> {
        WillardSearch {
            low: 1,
            high: self.num_ranges,
        }
        .probability(history)
    }
}

/// A Willard-style binary search over an explicit candidate range interval.
///
/// This is both the engine behind [`Willard`] and the building block of the
/// §2.6 [`crate::CodedSearch`] phases and the §3 advice-augmented
/// [`crate::AdvisedWillard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WillardSearch {
    low: usize,
    high: usize,
}

impl WillardSearch {
    /// Creates a search over the (1-based, inclusive) range interval
    /// `[low, high]`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `low == 0` or
    /// `low > high`.
    pub fn new(low: usize, high: usize) -> Result<Self, ProtocolError> {
        if low == 0 || low > high {
            return Err(ProtocolError::InvalidParameter {
                what: format!("invalid range interval [{low}, {high}]"),
            });
        }
        Ok(Self { low, high })
    }

    /// The candidate interval this search starts from.
    pub fn interval(&self) -> (usize, usize) {
        (self.low, self.high)
    }

    /// The state of the binary search after consuming `bits` feedback bits
    /// (`true` = collision = the probed probability was too high for the
    /// participant count, so the true range is larger).
    ///
    /// Returns the remaining candidate interval, or `None` if the search
    /// has been exhausted (every range was eliminated).
    pub fn state_after(&self, bits: &[bool]) -> Option<(usize, usize)> {
        let mut low = self.low;
        let mut high = self.high;
        for &collision in bits {
            if low > high {
                return None;
            }
            let median = low + (high - low) / 2;
            if collision {
                // Too many transmitters at probability 2^-median: the true
                // range is above the median.
                low = median + 1;
            } else {
                // Silence: probability too small, the true range is at or
                // below the median; median itself was ruled out only as a
                // *larger* candidate, so keep searching strictly below it.
                if median == 0 {
                    return None;
                }
                high = median.saturating_sub(1);
            }
            if low > high {
                return None;
            }
        }
        Some((low, high))
    }

    /// Number of probes this search needs in the worst case.
    pub fn worst_case_rounds(&self) -> usize {
        let width = self.high - self.low + 1;
        log2_ceil(width as u64) as usize + 1
    }

    /// The probe after `history`: transmit with probability `2^{-m}` for
    /// the median `m` of the remaining interval, or `None` once the
    /// search is exhausted.
    pub fn probability(&self, history: &CollisionHistory) -> Option<f64> {
        let (low, high) = self.state_after(history.bits())?;
        let median = low + (high - low) / 2;
        Some(2f64.powi(-(median as i32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_run_protocol;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn decay_cycles_through_geometric_probabilities() {
        let decay = Decay::new(1024).unwrap();
        let empty = CollisionHistory::new();
        assert_eq!(decay.sweep_length(), 10);
        assert_eq!(decay.probability(1, &empty), Some(0.5));
        assert_eq!(decay.probability(2, &empty), Some(0.25));
        assert_eq!(decay.probability(10, &empty), Some(2f64.powi(-10)));
        // Cycles back to the start.
        assert_eq!(decay.probability(11, &empty), Some(0.5));
        assert_eq!(decay.name(), "decay");
    }

    #[test]
    fn decay_rejects_degenerate_universe() {
        assert!(Decay::new(1).is_err());
    }

    #[test]
    fn blind_trust_trusts_the_modal_range_forever() {
        let truth = crp_info::SizeDistribution::point_mass(1024, 32).unwrap();
        let prediction = CondensedDistribution::from_sizes(&truth);
        let blind = BlindTrust::from_prediction(&prediction).unwrap();
        // Size 32 lives in range (17..=32]; the range's top size is k̂.
        assert_eq!(blind.estimate(), 32);
        assert_eq!(blind.name(), "blind-trust");
        // The schedule never decays or cycles: same probability forever.
        let empty = CollisionHistory::new();
        assert_eq!(blind.probability(1, &empty), Some(1.0 / 32.0));
        assert_eq!(blind.probability(1_000_000, &empty), Some(1.0 / 32.0));
    }

    #[test]
    fn decay_resolves_for_many_sizes() {
        let decay = Decay::new(4096).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for k in [2usize, 10, 100, 1000, 4000] {
            let exec = try_run_protocol(&decay, k, 10_000, &mut rng).unwrap();
            assert!(exec.resolved, "decay failed to resolve with k={k}");
        }
    }

    #[test]
    fn decay_expected_rounds_scales_like_log_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let trials = 300;
        let mean_rounds = |n: usize, k: usize, rng: &mut ChaCha8Rng| {
            let decay = Decay::new(n).unwrap();
            let total: usize = (0..trials)
                .map(|_| try_run_protocol(&decay, k, 100_000, rng).unwrap().rounds)
                .sum();
            total as f64 / trials as f64
        };
        let small = mean_rounds(1 << 8, 200, &mut rng);
        let large = mean_rounds(1 << 16, 50_000, &mut rng);
        // log n doubles from 8 to 16; allow generous slack but require growth.
        assert!(
            large > small,
            "decay rounds should grow with log n: small={small}, large={large}"
        );
        assert!(large < 8.0 * small, "growth should be roughly logarithmic");
    }

    #[test]
    fn fixed_probability_is_constant_time_when_estimate_is_right() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let k = 500;
        let protocol = FixedProbability::new(k).unwrap();
        assert_eq!(protocol.estimate(), k);
        let trials = 400;
        let total: usize = (0..trials)
            .map(|_| {
                try_run_protocol(&protocol, k, 10_000, &mut rng)
                    .unwrap()
                    .rounds
            })
            .sum();
        let mean = total as f64 / trials as f64;
        // Success probability per round is ~1/e, so the mean is ~e.
        assert!(
            mean < 5.0,
            "mean rounds {mean} too large for a correct estimate"
        );
    }

    #[test]
    fn fixed_probability_rejects_zero_estimate() {
        assert!(FixedProbability::new(0).is_err());
        assert_eq!(
            FixedProbability::new(8).unwrap().name(),
            "fixed-probability"
        );
    }

    #[test]
    fn willard_search_state_tracks_binary_search() {
        let search = WillardSearch::new(1, 16).unwrap();
        assert_eq!(search.interval(), (1, 16));
        // No feedback yet: full interval, probe the median 8.
        assert_eq!(search.state_after(&[]), Some((1, 16)));
        // Collision: true range is above 8.
        assert_eq!(search.state_after(&[true]), Some((9, 16)));
        // Then silence at median 12: true range below 12.
        assert_eq!(search.state_after(&[true, false]), Some((9, 11)));
        // Exhausting the interval returns None.
        assert_eq!(
            search.state_after(&[false, false, false, false, false]),
            None
        );
    }

    #[test]
    fn willard_resolves_quickly_with_collision_detection() {
        let n = 1 << 16;
        let willard = Willard::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut resolved = 0;
        let trials = 300;
        let mut total_rounds = 0;
        for _ in 0..trials {
            let exec = try_run_protocol(&willard, 3000, 200, &mut rng).unwrap();
            if exec.resolved {
                resolved += 1;
                total_rounds += exec.rounds;
            }
        }
        // The single-probe binary search succeeds with constant probability;
        // over many trials a solid majority should resolve, and those that
        // do should take O(log log n) ~ 5 rounds.
        assert!(resolved > trials / 3, "only {resolved}/{trials} resolved");
        let mean = total_rounds as f64 / resolved as f64;
        assert!(mean <= 10.0, "mean resolved rounds {mean} too large");
    }

    #[test]
    fn willard_worst_case_rounds_is_log_log_n() {
        let willard = Willard::new(1 << 16).unwrap();
        assert_eq!(willard.worst_case_rounds(), 5);
        assert_eq!(willard.name(), "willard");
        assert!(Willard::new(1).is_err());
    }

    #[test]
    fn willard_search_validation_and_worst_case() {
        assert!(WillardSearch::new(0, 5).is_err());
        assert!(WillardSearch::new(6, 5).is_err());
        let search = WillardSearch::new(3, 3).unwrap();
        assert_eq!(search.worst_case_rounds(), 1);
    }
}
