//! Deterministic contention resolution without collision detection, with
//! `b` bits of advice (the upper bound matching Theorem 3.4).
//!
//! The advice (from [`crp_predict::IdPrefixOracle`]) is the first `b` bits
//! of a designated active participant's id, which narrows the candidate
//! identities to an interval of `n / 2^b` ids.  The protocol then gives
//! each remaining candidate id one dedicated round, in ascending order; a
//! node transmits exactly in the round of its own id.  The designated
//! participant is guaranteed to be in the interval, so the protocol always
//! resolves within `n / 2^b` rounds — and because the designated id is the
//! *smallest* active id in the interval, the first transmission is always
//! solo even if other active nodes also fall inside the interval... which
//! they might; those nodes transmit in *their own* later rounds, so the
//! designated participant's round still has exactly one transmitter.

use crp_channel::{Feedback, NodeProtocol, ParticipantId};
use crp_predict::{Advice, IdPrefixOracle};
use rand::RngCore;

use super::check_in_universe;
use crate::error::ProtocolError;

/// Per-node state of the deterministic no-collision-detection advice
/// protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicNoCdAdvice {
    /// This node's id.
    id: ParticipantId,
    /// First candidate id in the advice interval.
    interval_start: usize,
    /// One-past-last candidate id in the advice interval.
    interval_end: usize,
    /// Whether this node already heard that the problem is resolved.
    resolved: bool,
}

impl DeterministicNoCdAdvice {
    /// Creates the protocol instance for node `id` in a universe of size
    /// `universe_size`, given the advice every participant received.
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
    pub(crate) fn from_interval(
        id: ParticipantId,
        (interval_start, interval_end): (usize, usize),
    ) -> Self {
        Self {
            id,
            interval_start,
            interval_end,
            resolved: false,
        }
    }

    /// Number of rounds the protocol needs in the worst case
    /// (`n / 2^b`, the width of the candidate interval).
    pub fn worst_case_rounds(&self) -> usize {
        self.interval_end - self.interval_start
    }

    /// The dedicated (1-based) round of this node, if its id lies in the
    /// candidate interval.
    pub fn own_round(&self) -> Option<usize> {
        let idx = self.id.index();
        if idx >= self.interval_start && idx < self.interval_end {
            Some(idx - self.interval_start + 1)
        } else {
            None
        }
    }
}

impl NodeProtocol for DeterministicNoCdAdvice {
    fn decide(&mut self, round: usize, _rng: &mut dyn RngCore) -> bool {
        !self.resolved && self.own_round() == Some(round)
    }

    fn observe(&mut self, _round: usize, feedback: Feedback) {
        if feedback.is_resolved() {
            self.resolved = true;
        }
    }

    fn finished(&self) -> bool {
        self.resolved || self.own_round().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::execute_tallied;
    use crp_channel::{try_execute, ChannelMode, ExecutionConfig};
    use crp_predict::AdviceOracle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds one protocol instance per active participant.
    fn build_nodes(
        universe: usize,
        active: &[usize],
        budget_bits: usize,
    ) -> Vec<DeterministicNoCdAdvice> {
        let advice = IdPrefixOracle
            .advise(universe, active, budget_bits)
            .unwrap();
        active
            .iter()
            .map(|&id| DeterministicNoCdAdvice::new(universe, ParticipantId(id), &advice).unwrap())
            .collect()
    }

    #[test]
    fn resolves_within_the_candidate_interval_width() {
        let universe = 256;
        let active = vec![100, 130, 200];
        for budget in [0usize, 2, 4, 8] {
            let mut nodes = build_nodes(universe, &active, budget);
            let worst = nodes[0].worst_case_rounds();
            assert_eq!(worst, universe >> budget.min(8));
            let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, worst.max(1));
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
            assert!(exec.resolved, "budget {budget} failed to resolve");
            assert!(exec.rounds <= worst);
        }
    }

    #[test]
    fn full_advice_resolves_in_one_round() {
        let universe = 1024;
        let active = vec![777, 900];
        let mut nodes = build_nodes(universe, &active, 10);
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(exec.resolved);
        assert_eq!(exec.rounds, 1);
    }

    #[test]
    fn zero_advice_degenerates_to_a_full_scan() {
        let universe = 64;
        let active = vec![63];
        let mut nodes = build_nodes(universe, &active, 0);
        assert_eq!(nodes[0].worst_case_rounds(), 64);
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 64);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let exec = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(exec.resolved);
        assert_eq!(exec.rounds, 64, "id 63 transmits in the last scan round");
    }

    #[test]
    fn the_designated_round_has_a_single_transmitter() {
        // Two active nodes in the same advice interval: each transmits only
        // in its own dedicated round, so there is never a collision.
        let universe = 128;
        let active = vec![40, 41];
        let nodes = build_nodes(universe, &active, 3);
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (exec, transmitters) = execute_tallied(nodes, &config, &mut rng);
        assert!(exec.resolved);
        assert!(transmitters.iter().all(|&t| t < 2), "{transmitters:?}");
    }

    #[test]
    fn nodes_outside_the_interval_never_transmit() {
        let universe = 256;
        // The designated (smallest) participant is 10; participant 200 is
        // far outside the 32-wide advice interval for budget 3.
        let active = vec![10, 200];
        let nodes = build_nodes(universe, &active, 3);
        assert!(nodes[1].own_round().is_none());
        assert!(nodes[1].finished());
    }

    #[test]
    fn constructor_validates_the_id() {
        let advice = Advice::empty();
        assert!(DeterministicNoCdAdvice::new(16, ParticipantId(16), &advice).is_err());
        assert!(DeterministicNoCdAdvice::new(16, ParticipantId(15), &advice).is_ok());
    }
}
