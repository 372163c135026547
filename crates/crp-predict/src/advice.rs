//! Perfect-advice oracles (paper §3).
//!
//! The perfect-advice model augments a contention-resolution algorithm `A`
//! with an advice function `f_A : P(V) → {0,1}^b` that sees the exact
//! participant set of the current execution and returns the same `b` bits
//! of advice to every participant.  The question the paper answers is: how
//! much can the best possible `b`-bit advice speed things up?
//!
//! Two oracle families cover all four Table 2 protocols:
//!
//! * [`IdPrefixOracle`] — emits the first `b` bits of the binary
//!   representation of a chosen participant's id.  This is exactly the
//!   paper's tightness construction for the deterministic bounds
//!   (Theorems 3.4 and 3.5): the advice walks `b` steps down the balanced
//!   id tree, leaving `n / 2^b` candidate identities.
//! * [`RangeOracle`] — emits the first `b` bits of the binary
//!   representation of the geometric range index `⌈log k⌉` of the true
//!   participant count.  This is the construction matching the randomized
//!   bounds (Theorems 3.6 and 3.7): it prunes the `⌈log n⌉` geometric size
//!   guesses down to `⌈log n⌉ / 2^b`.

use crp_info::{log2_ceil, range_index_for_size};

use crate::error::PredictError;

/// A bounded-length advice string (the `b` bits handed to every
/// participant).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Advice {
    bits: Vec<bool>,
}

impl Advice {
    /// The empty advice string (the `b = 0` case).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds advice from explicit bits (most significant first).
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Encodes the low `bits` bits of `value`, most significant first.
    pub fn from_value(value: usize, bits: usize) -> Self {
        let bits = (0..bits)
            .rev()
            .map(|shift| (value >> shift) & 1 == 1)
            .collect();
        Self { bits }
    }

    /// Number of advice bits `b`.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if no advice is provided.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw bits, most significant first.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Interprets the advice as an unsigned integer (most significant bit
    /// first).  The empty advice decodes to 0.
    pub fn to_value(&self) -> usize {
        self.prefix_value(self.bits.len())
    }

    /// Interprets the first `count` bits (clamped to the advice length) as
    /// an unsigned integer, most significant bit first, without copying
    /// them.  A zero-bit prefix decodes to 0.
    pub fn prefix_value(&self, count: usize) -> usize {
        self.bits[..count.min(self.bits.len())]
            .iter()
            .fold(0usize, |acc, &bit| (acc << 1) | usize::from(bit))
    }

    /// Renders the advice as a `0`/`1` string.
    pub fn to_bit_string(&self) -> String {
        self.bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }
}

impl std::fmt::Display for Advice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.bits.is_empty() {
            write!(f, "ε")
        } else {
            write!(f, "{}", self.to_bit_string())
        }
    }
}

/// An advice function with perfect knowledge of the participant set.
///
/// `participants` lists the indices (within `0..universe_size`) of the
/// activated nodes, sorted ascending.  Implementations must return at most
/// `budget_bits` bits.
pub trait AdviceOracle {
    /// Produces the advice string for the given participant set.
    ///
    /// # Errors
    ///
    /// Implementations return [`PredictError::AdviceUnavailable`] when the
    /// participant set is empty or otherwise un-encodable.
    fn advise(
        &self,
        universe_size: usize,
        participants: &[usize],
        budget_bits: usize,
    ) -> Result<Advice, PredictError>;
}

/// Advice = the first `b` bits of the id of one designated participant
/// (the smallest id in the set), read from the most significant bit of a
/// `⌈log n⌉`-bit id.
///
/// With `b ≥ ⌈log n⌉` the advice pins down the participant exactly and the
/// problem is solvable in one round; with fewer bits it halves the
/// candidate set per bit, which is the paper's matching upper bound for
/// Theorems 3.4 and 3.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdPrefixOracle;

impl IdPrefixOracle {
    /// Number of bits needed to name any id in a universe of size `n`.
    pub fn id_bits(universe_size: usize) -> usize {
        if universe_size <= 1 {
            0
        } else {
            log2_ceil(universe_size as u64) as usize
        }
    }

    /// The candidate id interval `[low, high)` that remains after hearing
    /// `advice` in a universe of size `n`.
    ///
    /// The prefix fixes the top `advice.len()` bits of the designated id.
    pub fn candidate_interval(universe_size: usize, advice: &Advice) -> (usize, usize) {
        let id_bits = Self::id_bits(universe_size);
        let used = advice.len().min(id_bits);
        let remaining = id_bits - used;
        // Only the first `used` bits of the advice are meaningful here.
        let low = advice.prefix_value(used) << remaining;
        let high = (low + (1usize << remaining)).min(universe_size);
        (low.min(universe_size), high)
    }
}

impl AdviceOracle for IdPrefixOracle {
    fn advise(
        &self,
        universe_size: usize,
        participants: &[usize],
        budget_bits: usize,
    ) -> Result<Advice, PredictError> {
        let &target = participants
            .first()
            .ok_or_else(|| PredictError::AdviceUnavailable {
                what: "participant set is empty".into(),
            })?;
        if target >= universe_size {
            return Err(PredictError::AdviceUnavailable {
                what: format!("participant {target} outside universe of size {universe_size}"),
            });
        }
        let id_bits = Self::id_bits(universe_size);
        let used = budget_bits.min(id_bits);
        // Take the top `used` bits of the id (as a `id_bits`-bit number).
        let shifted = target >> (id_bits - used);
        Ok(Advice::from_value(shifted, used))
    }
}

/// Advice = the first `b` bits of the geometric range index `⌈log k⌉ − 1`
/// (0-based) of the true participant count, read from the most significant
/// bit of a `⌈log ⌈log n⌉⌉`-bit index.
///
/// This prunes the set of `⌈log n⌉` geometric size guesses by a factor of
/// `2^b`, matching the randomized upper bounds of Theorems 3.6 and 3.7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeOracle;

impl RangeOracle {
    /// Number of geometric ranges for a universe of size `n`.
    pub fn num_ranges(universe_size: usize) -> usize {
        range_index_for_size(universe_size.max(2))
    }

    /// Number of bits needed to name any range for a universe of size `n`.
    pub fn range_bits(universe_size: usize) -> usize {
        let ranges = Self::num_ranges(universe_size);
        if ranges <= 1 {
            0
        } else {
            log2_ceil(ranges as u64) as usize
        }
    }

    /// The candidate (1-based) range interval `[low, high]` remaining after
    /// hearing `advice` in a universe of size `n`.
    pub fn candidate_ranges(universe_size: usize, advice: &Advice) -> (usize, usize) {
        let range_bits = Self::range_bits(universe_size);
        let num_ranges = Self::num_ranges(universe_size);
        let used = advice.len().min(range_bits);
        let remaining = range_bits - used;
        let low0 = advice.prefix_value(used) << remaining;
        let high0 = (low0 + (1usize << remaining)).min(num_ranges);
        ((low0 + 1).min(num_ranges), high0.max(1))
    }

    /// The advice for any participant set of size `participants`: the
    /// leading `budget_bits` bits of the geometric range containing that
    /// count.  The oracle reads nothing but the count, so callers that
    /// only know a count need no id list.
    pub fn advise_count(universe_size: usize, participants: usize, budget_bits: usize) -> Advice {
        let range0 = range_index_for_size(participants.max(2)) - 1;
        let range_bits = Self::range_bits(universe_size);
        let used = budget_bits.min(range_bits);
        Advice::from_value(range0 >> (range_bits - used), used)
    }
}

impl AdviceOracle for RangeOracle {
    fn advise(
        &self,
        universe_size: usize,
        participants: &[usize],
        budget_bits: usize,
    ) -> Result<Advice, PredictError> {
        if participants.is_empty() {
            return Err(PredictError::AdviceUnavailable {
                what: "participant set is empty".into(),
            });
        }
        Ok(Self::advise_count(
            universe_size,
            participants.len(),
            budget_bits,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advice_value_round_trip() {
        let advice = Advice::from_value(0b1011, 4);
        assert_eq!(advice.len(), 4);
        assert_eq!(advice.to_value(), 0b1011);
        assert_eq!(advice.to_bit_string(), "1011");
        assert_eq!(advice.to_string(), "1011");
        assert_eq!(Advice::empty().to_value(), 0);
        assert_eq!(Advice::empty().to_string(), "ε");
    }

    #[test]
    fn prefix_value_folds_only_the_leading_bits() {
        let advice = Advice::from_value(0b1011, 4);
        assert_eq!(advice.prefix_value(0), 0);
        assert_eq!(advice.prefix_value(1), 0b1);
        assert_eq!(advice.prefix_value(3), 0b101);
        assert_eq!(advice.prefix_value(4), 0b1011);
        assert_eq!(advice.prefix_value(9), 0b1011, "count is clamped");
        assert_eq!(Advice::empty().prefix_value(3), 0);
    }

    #[test]
    fn advice_from_value_truncates_to_requested_bits() {
        let advice = Advice::from_value(0b111111, 3);
        assert_eq!(advice.len(), 3);
        assert_eq!(advice.to_value(), 0b111);
    }

    #[test]
    fn id_prefix_full_budget_identifies_the_participant() {
        let oracle = IdPrefixOracle;
        let n = 256;
        let advice = oracle
            .advise(n, &[137, 200], IdPrefixOracle::id_bits(n))
            .unwrap();
        let (lo, hi) = IdPrefixOracle::candidate_interval(n, &advice);
        assert_eq!((lo, hi), (137, 138));
    }

    #[test]
    fn id_prefix_partial_budget_halves_candidates_per_bit() {
        let oracle = IdPrefixOracle;
        let n = 1024;
        let target = 700;
        for b in 0..=10 {
            let advice = oracle.advise(n, &[target], b).unwrap();
            let (lo, hi) = IdPrefixOracle::candidate_interval(n, &advice);
            assert!(
                lo <= target && target < hi,
                "b={b}: {target} not in [{lo},{hi})"
            );
            assert_eq!(hi - lo, n >> b, "b={b}: wrong candidate count");
        }
    }

    #[test]
    fn id_prefix_budget_beyond_id_bits_is_clamped() {
        let oracle = IdPrefixOracle;
        let advice = oracle.advise(64, &[5], 100).unwrap();
        assert_eq!(advice.len(), 6);
        let (lo, hi) = IdPrefixOracle::candidate_interval(64, &advice);
        assert_eq!((lo, hi), (5, 6));
    }

    #[test]
    fn id_prefix_rejects_empty_and_out_of_universe() {
        let oracle = IdPrefixOracle;
        assert!(oracle.advise(64, &[], 3).is_err());
        assert!(oracle.advise(64, &[64], 3).is_err());
    }

    #[test]
    fn range_oracle_narrows_to_the_true_range() {
        let oracle = RangeOracle;
        let n = 1 << 16;
        let k = 300; // range index 9 (256 < 300 <= 512)
        let participants: Vec<usize> = (0..k).collect();
        let full_bits = RangeOracle::range_bits(n);
        let advice = oracle.advise(n, &participants, full_bits).unwrap();
        let (lo, hi) = RangeOracle::candidate_ranges(n, &advice);
        let true_range = range_index_for_size(k);
        assert!(lo <= true_range && true_range <= hi);
        assert_eq!(lo, hi, "full advice pins the range exactly");
    }

    #[test]
    fn range_oracle_candidate_count_shrinks_with_budget() {
        let n = 1 << 16; // 16 ranges, 4 range bits
        let oracle = RangeOracle;
        let participants: Vec<usize> = (0..1000).collect();
        let mut last_width = usize::MAX;
        for b in 0..=RangeOracle::range_bits(n) {
            let advice = oracle.advise(n, &participants, b).unwrap();
            let (lo, hi) = RangeOracle::candidate_ranges(n, &advice);
            let width = hi - lo + 1;
            assert!(width <= last_width);
            let true_range = range_index_for_size(1000);
            assert!(lo <= true_range && true_range <= hi, "b={b}");
            last_width = width;
        }
        assert_eq!(last_width, 1);
    }

    #[test]
    fn range_oracle_rejects_empty_set() {
        assert!(RangeOracle.advise(64, &[], 2).is_err());
    }

    #[test]
    fn zero_budget_advice_is_empty_and_uninformative() {
        let id_advice = IdPrefixOracle.advise(128, &[77], 0).unwrap();
        assert!(id_advice.is_empty());
        let (lo, hi) = IdPrefixOracle::candidate_interval(128, &id_advice);
        assert_eq!((lo, hi), (0, 128));
        let range_advice = RangeOracle.advise(128, &[0, 1, 2], 0).unwrap();
        assert!(range_advice.is_empty());
        let (rlo, rhi) = RangeOracle::candidate_ranges(128, &range_advice);
        assert_eq!((rlo, rhi), (1, RangeOracle::num_ranges(128)));
    }
}
