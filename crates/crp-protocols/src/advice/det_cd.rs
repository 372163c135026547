//! Deterministic contention resolution with collision detection and `b`
//! bits of advice (the upper bound matching Theorem 3.5).
//!
//! The classical no-advice solution assigns the `n` potential participants
//! to the leaves of a balanced binary tree and descends from the root using
//! the collision detector: in each step the active nodes in the left half
//! of the current interval transmit; a collision or lone transmission means
//! the left half contains active nodes (descend left, or finish), silence
//! means it does not (descend right).  This takes `⌈log n⌉` rounds.  The
//! advice (an id prefix from [`crp_predict::IdPrefixOracle`]) pre-descends
//! the first `b` steps of that walk, leaving `⌈log n⌉ − b` rounds.

use crp_channel::{Feedback, NodeProtocol, ParticipantId};
use crp_predict::{Advice, IdPrefixOracle};
use rand::RngCore;

use super::check_in_universe;
use crate::error::ProtocolError;

/// Per-node state of the deterministic collision-detection advice protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicCdAdvice {
    id: ParticipantId,
    /// Current candidate interval `[low, high)` of ids that may contain the
    /// node that will eventually transmit alone.
    low: usize,
    high: usize,
    resolved: bool,
    /// Set once the node learns its id can no longer be the designated
    /// transmitter (it stops transmitting but keeps listening).
    eliminated: bool,
}

impl DeterministicCdAdvice {
    /// Creates the protocol instance for node `id` in a universe of size
    /// `universe_size`, given the shared advice.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if the id is outside the
    /// universe.
    pub fn new(
        universe_size: usize,
        id: ParticipantId,
        advice: &Advice,
    ) -> Result<Self, ProtocolError> {
        check_in_universe(universe_size, id)?;
        Ok(Self::from_interval(
            id,
            IdPrefixOracle::candidate_interval(universe_size, advice),
        ))
    }

    /// Creates the instance for an id already checked against the
    /// universe, given the candidate interval the shared advice leaves, so
    /// one execution computes that interval once for all of its nodes.
    pub(crate) fn from_interval(id: ParticipantId, (low, high): (usize, usize)) -> Self {
        Self {
            id,
            low,
            high,
            resolved: false,
            eliminated: false,
        }
    }

    /// Worst-case number of rounds: `⌈log(n / 2^b)⌉ + 1`.
    pub fn worst_case_rounds(&self) -> usize {
        let width = (self.high - self.low).max(1);
        (usize::BITS - (width - 1).leading_zeros()) as usize + 1
    }

    /// The candidate interval currently being searched.
    pub fn interval(&self) -> (usize, usize) {
        (self.low, self.high)
    }

    /// True if this node's id lies in the current candidate interval.
    fn in_interval(&self) -> bool {
        let idx = self.id.index();
        idx >= self.low && idx < self.high
    }

    /// True if this node should transmit in the next round: its id is in
    /// the lower half of the current interval (or the interval is a single
    /// id equal to its own).
    fn should_transmit(&self) -> bool {
        if !self.in_interval() || self.eliminated {
            return false;
        }
        let width = self.high - self.low;
        if width <= 1 {
            return true;
        }
        let mid = self.low + width / 2;
        self.id.index() < mid
    }
}

impl NodeProtocol for DeterministicCdAdvice {
    fn decide(&mut self, _round: usize, _rng: &mut dyn RngCore) -> bool {
        !self.resolved && self.should_transmit()
    }

    fn observe(&mut self, _round: usize, feedback: Feedback) {
        if feedback.is_resolved() {
            self.resolved = true;
            return;
        }
        let width = self.high - self.low;
        if width <= 1 {
            // A singleton interval that did not resolve means no active node
            // holds that id; the deterministic walk is stuck (this cannot
            // happen when the advice designates an active participant).
            self.eliminated = true;
            return;
        }
        let mid = self.low + width / 2;
        match feedback {
            Feedback::CollisionDetected => {
                // Two or more active ids in the lower half: recurse there.
                self.high = mid;
            }
            Feedback::SilenceDetected => {
                // No active id in the lower half: recurse into the upper half.
                self.low = mid;
            }
            Feedback::Resolved | Feedback::NothingHeard => {}
        }
    }

    fn finished(&self) -> bool {
        self.resolved || self.eliminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_channel::{try_execute, ChannelMode, ExecutionConfig};
    use crp_predict::AdviceOracle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build_nodes(
        universe: usize,
        active: &[usize],
        budget_bits: usize,
    ) -> Vec<DeterministicCdAdvice> {
        let advice = IdPrefixOracle
            .advise(universe, active, budget_bits)
            .unwrap();
        active
            .iter()
            .map(|&id| DeterministicCdAdvice::new(universe, ParticipantId(id), &advice).unwrap())
            .collect()
    }

    #[test]
    fn resolves_within_log_n_minus_b_rounds() {
        let universe = 1024; // log n = 10
        let active = vec![300, 301, 302, 800, 900];
        for budget in [0usize, 2, 5, 8] {
            let mut nodes = build_nodes(universe, &active, budget);
            let worst = nodes[0].worst_case_rounds();
            assert!(
                worst <= 10 - budget + 1,
                "budget {budget}: worst case {worst} exceeds log n - b + 1"
            );
            let config = ExecutionConfig::new(ChannelMode::CollisionDetection, worst.max(1));
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
            assert!(exec.resolved, "budget {budget} failed");
            assert!(
                exec.rounds <= worst,
                "budget {budget}: {} > {worst}",
                exec.rounds
            );
        }
    }

    #[test]
    fn full_advice_resolves_immediately() {
        let universe = 512;
        let active = vec![200, 480];
        let mut nodes = build_nodes(universe, &active, 9);
        let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(exec.resolved);
        assert_eq!(exec.rounds, 1);
    }

    #[test]
    fn descent_follows_collisions_toward_crowded_halves() {
        // All active ids in the lower quadrant: the walk keeps descending
        // left after collisions until a single id remains.
        let universe = 64;
        let active = vec![1, 2, 3, 4, 5];
        let mut nodes = build_nodes(universe, &active, 0);
        let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 10).with_trace();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(exec.resolved);
        assert!(
            exec.trace.collisions() > 0,
            "expected at least one collision"
        );
    }

    #[test]
    fn silence_steers_the_walk_into_the_upper_half() {
        // The only active ids live in the upper half of the universe, so the
        // first probe (lower half transmits) is silent.
        let universe = 64;
        let active = vec![50, 60];
        let mut nodes = build_nodes(universe, &active, 0);
        let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 10).with_trace();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(exec.resolved);
        assert!(exec.trace.silences() > 0);
    }

    #[test]
    fn single_active_node_is_found_regardless_of_position() {
        let universe = 256;
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for &id in &[0usize, 17, 128, 255] {
            let mut nodes = build_nodes(universe, &[id], 0);
            let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 16);
            let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
            assert!(exec.resolved, "failed to find lone participant {id}");
        }
    }

    #[test]
    fn constructor_validates_the_id() {
        assert!(DeterministicCdAdvice::new(16, ParticipantId(20), &Advice::empty()).is_err());
        let node = DeterministicCdAdvice::new(16, ParticipantId(3), &Advice::empty()).unwrap();
        assert_eq!(node.interval(), (0, 16));
        assert_eq!(node.worst_case_rounds(), 5);
    }
}
