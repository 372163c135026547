//! Sequence range finding and the RF-Construction (paper Algorithm 1).

use crp_channel::CollisionHistory;
use crp_info::{range_index_for_size, CondensedDistribution};

use crate::protocol::UniformPolicy;

/// A range-finding strategy in sequence form: a list of guesses from
/// `L(n)`, visited in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeFindingSequence {
    guesses: Vec<usize>,
}

impl RangeFindingSequence {
    /// Wraps an explicit guess sequence.
    pub fn new(guesses: Vec<usize>) -> Self {
        Self { guesses }
    }

    /// The guesses, in visit order.
    pub fn guesses(&self) -> &[usize] {
        &self.guesses
    }

    /// Length of the sequence.
    pub fn len(&self) -> usize {
        self.guesses.len()
    }

    /// True if the sequence contains no guesses.
    pub fn is_empty(&self) -> bool {
        self.guesses.is_empty()
    }

    /// The first (1-based) step at which the sequence comes within
    /// `tolerance` of `target`, i.e. solves `(n, tolerance)`-range finding
    /// for that target.
    pub fn solves_at(&self, target: usize, tolerance: usize) -> Option<usize> {
        self.guesses
            .iter()
            .position(|&g| g.abs_diff(target) <= tolerance)
            .map(|i| i + 1)
    }

    /// Expected solving step when the target range is drawn from the
    /// condensed distribution `targets`.  Targets the sequence never solves
    /// contribute `penalty` steps (the analysis only needs a finite stand-in
    /// for "never"; pass the sequence length or larger).
    pub fn expected_steps(
        &self,
        targets: &CondensedDistribution,
        tolerance: usize,
        penalty: usize,
    ) -> f64 {
        let mut expectation = 0.0;
        for range in 1..=targets.num_ranges() {
            let p = targets.probability_of_range(range);
            if p <= 0.0 {
                continue;
            }
            let steps = self.solves_at(range, tolerance).unwrap_or(penalty);
            expectation += p * steps as f64;
        }
        expectation
    }
}

/// The paper's RF-Construction (Algorithm 1): converts a uniform
/// no-collision-detection schedule into a range-finding sequence by
/// interleaving the schedule's implied range guesses `⌈log(1/p_i)⌉` with a
/// cyclic sweep of every range in `L(n)`.  The schedule is queried with
/// the empty history, as on a channel without collision detection.
///
/// The interleaving guarantees every range appears within the first
/// `2⌈log n⌉` entries (Case 2 of Lemma 2.7), while preserving — at most a
/// factor-2 position penalty — the schedule's own good guesses (Case 1).
///
/// `horizon` bounds how many schedule rounds are converted (the paper's
/// algorithm runs over the full schedule `A = p₁ … p_z`).
pub fn rf_construction<S: UniformPolicy + ?Sized>(
    schedule: &S,
    n: usize,
    horizon: usize,
) -> RangeFindingSequence {
    let num_ranges = range_index_for_size(n.max(2));
    let empty = CollisionHistory::new();
    let mut guesses = Vec::with_capacity(2 * horizon);
    let mut sweep = 0usize;
    for round in 1..=horizon {
        let Some(p) = schedule.probability(round, &empty) else {
            break;
        };
        // The schedule's implied guess: the range whose probability 2^-i is
        // closest to p, i.e. ⌈log(1/p)⌉ (clamped into L(n)).
        let implied = if p <= 0.0 {
            num_ranges
        } else {
            let raw = (1.0 / p).log2().ceil() as isize;
            raw.clamp(1, num_ranges as isize) as usize
        };
        guesses.push(implied);
        // The interleaved sweep entry, cycling through all of L(n).
        guesses.push(sweep + 1);
        sweep = (sweep + 1) % num_ranges;
    }
    RangeFindingSequence::new(guesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Decay;
    use crate::predicted::SortedGuess;
    use crp_info::SizeDistribution;

    #[test]
    fn solves_at_finds_the_first_close_guess() {
        let seq = RangeFindingSequence::new(vec![10, 2, 5, 7]);
        assert_eq!(seq.solves_at(5, 0), Some(3));
        assert_eq!(seq.solves_at(6, 1), Some(3));
        assert_eq!(seq.solves_at(3, 1), Some(2));
        assert_eq!(seq.solves_at(20, 2), None);
        assert_eq!(seq.len(), 4);
        assert!(!seq.is_empty());
    }

    #[test]
    fn rf_construction_interleaves_a_full_sweep_early() {
        let n = 1024; // 10 ranges
        let decay = Decay::new(n).unwrap();
        let seq = rf_construction(&decay, n, 40);
        // Within the first 2 * 10 entries every range must appear
        // (the interleaved sweep guarantees it).
        let prefix: Vec<usize> = seq.guesses().iter().take(20).copied().collect();
        for range in 1..=10 {
            assert!(
                prefix.contains(&range),
                "range {range} missing from the first 2 log n entries: {prefix:?}"
            );
        }
    }

    #[test]
    fn rf_construction_preserves_schedule_guesses_at_odd_positions() {
        let n = 256;
        let decay = Decay::new(n).unwrap();
        let seq = rf_construction(&decay, n, 8);
        // Round i of decay transmits with 2^-i, so the implied guess is i.
        for (round, chunk) in seq.guesses().chunks(2).enumerate() {
            assert_eq!(chunk[0], round + 1, "schedule guess at position {round}");
        }
    }

    #[test]
    fn expected_steps_reflects_prediction_quality() {
        let n = 4096;
        let truth = SizeDistribution::point_mass(n, 700).unwrap();
        let truth_condensed = CondensedDistribution::from_sizes(&truth);
        // A protocol built from the correct prediction finds the range fast.
        let good = SortedGuess::from_sizes(&truth);
        let good_seq = rf_construction(&good, n, good.pass_length());
        // A protocol built from a confidently wrong prediction takes longer.
        let wrong = SortedGuess::from_sizes(&SizeDistribution::point_mass(n, 2).unwrap());
        let wrong_seq = rf_construction(&wrong, n, wrong.pass_length());
        let tolerance = 1;
        let penalty = 4 * good_seq.len().max(wrong_seq.len());
        let good_steps = good_seq.expected_steps(&truth_condensed, tolerance, penalty);
        let wrong_steps = wrong_seq.expected_steps(&truth_condensed, tolerance, penalty);
        assert!(
            good_steps <= wrong_steps,
            "good prediction should solve range finding no later ({good_steps} vs {wrong_steps})"
        );
    }

    #[test]
    fn lemma_2_7_factor_two_bound_holds_for_sorted_guess() {
        // For the sorted-guess protocol the schedule's own guess for the
        // most likely range appears in round 1, so the range-finding
        // sequence solves that range within the first 2 positions.
        let n = 2048;
        let prediction = SizeDistribution::point_mass(n, 321).unwrap();
        let protocol = SortedGuess::from_sizes(&prediction);
        let seq = rf_construction(&protocol, n, protocol.pass_length());
        let target = crp_info::range_index_for_size(321);
        assert!(seq.solves_at(target, 0).unwrap() <= 2);
    }

    #[test]
    fn construction_handles_exhausted_schedules() {
        let n = 256;
        let prediction = SizeDistribution::uniform_ranges(n).unwrap();
        let one_shot = SortedGuess::from_sizes(&prediction);
        let seq = rf_construction(&one_shot, n, 100);
        // The schedule has only 8 rounds; the sequence stops at 2 * 8 entries.
        assert_eq!(seq.len(), 16);
    }
}
