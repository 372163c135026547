//! Protocol kinds and the uniform protocol traits.
//!
//! The paper analyses *uniform* algorithms (§2.1): without collision
//! detection a uniform algorithm is a fixed sequence of probabilities
//! `p₁, p₂, …`; with collision detection it is a function from collision
//! histories to probabilities.  [`NoCdSchedule`] and [`CdStrategy`] are
//! those two classes; they run through the [`crate::ScheduleProtocol`] and
//! [`crate::StrategyProtocol`] adapters.  The per-node (non-uniform)
//! protocols of §3 implement `crp_channel::NodeProtocol` directly instead.

use crp_channel::{ChannelMode, CollisionHistory};

/// Which channel assumption a protocol is designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Designed for channels without collision detection.
    NoCollisionDetection,
    /// Requires collision detection.
    CollisionDetection,
}

impl ProtocolKind {
    /// The matching channel mode.
    pub fn channel_mode(self) -> ChannelMode {
        match self {
            ProtocolKind::NoCollisionDetection => ChannelMode::NoCollisionDetection,
            ProtocolKind::CollisionDetection => ChannelMode::CollisionDetection,
        }
    }
}

/// A uniform algorithm for the no-collision-detection setting: a
/// predetermined sequence of transmission probabilities.
pub trait NoCdSchedule {
    /// The probability every participant uses in (1-based) round `round`,
    /// or `None` if the schedule is exhausted (one-shot protocols).
    fn probability(&self, round: usize) -> Option<f64>;

    /// Human-readable protocol name (used in experiment tables).
    fn name(&self) -> &str;

    /// Length of the schedule if it is finite (one-shot protocols return
    /// the number of rounds after which [`NoCdSchedule::probability`] is
    /// `None`); `None` means the schedule is unbounded.
    fn horizon(&self) -> Option<usize> {
        None
    }

    /// The single probability this schedule emits in *every* round, when
    /// it has one (constant-rate protocols such as the known-size
    /// baseline).  Batched trial kernels use this to skip the per-round
    /// dynamic dispatch entirely; the returned value must be bit-identical
    /// to what [`NoCdSchedule::probability`] returns for every round.
    /// Defaults to `None` (not constant).
    fn constant_probability(&self) -> Option<f64> {
        None
    }
}

/// A uniform algorithm for the collision-detection setting: a function from
/// the collision history observed so far to the next probability.
pub trait CdStrategy {
    /// The probability every participant uses in the round following
    /// `history`, or `None` if the strategy has given up (one-shot
    /// protocols).
    fn probability(&self, history: &CollisionHistory) -> Option<f64>;

    /// Human-readable protocol name (used in experiment tables).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_protocol, ScheduleProtocol, StrategyProtocol};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct ConstantSchedule(f64);
    impl NoCdSchedule for ConstantSchedule {
        fn probability(&self, _round: usize) -> Option<f64> {
            Some(self.0)
        }
        fn name(&self) -> &str {
            "constant"
        }
    }

    struct HalvingStrategy;
    impl CdStrategy for HalvingStrategy {
        fn probability(&self, history: &CollisionHistory) -> Option<f64> {
            // Halve the probability after every collision, reset on silence.
            let collisions = history.bits().iter().rev().take_while(|&&b| b).count();
            Some(0.5f64.powi(collisions as i32 + 1))
        }
        fn name(&self) -> &str {
            "halving"
        }
    }

    #[test]
    fn protocol_kind_maps_to_channel_mode() {
        assert_eq!(
            ProtocolKind::CollisionDetection.channel_mode(),
            ChannelMode::CollisionDetection
        );
        assert_eq!(
            ProtocolKind::NoCollisionDetection.channel_mode(),
            ChannelMode::NoCollisionDetection
        );
    }

    #[test]
    fn run_schedule_resolves_single_participant() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let schedule = ScheduleProtocol(ConstantSchedule(0.8));
        let exec = try_run_protocol(&schedule, 1, 100, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn run_cd_strategy_adapts_to_collisions() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // 8 participants starting at p=1/2: collisions push the probability
        // down until a lone transmitter emerges.
        let strategy = StrategyProtocol::new(HalvingStrategy);
        let exec = try_run_protocol(&strategy, 8, 500, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn degenerate_configurations_yield_typed_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let schedule = ScheduleProtocol(ConstantSchedule(0.5));
        let strategy = StrategyProtocol::new(HalvingStrategy);
        assert!(try_run_protocol(&schedule, 0, 100, &mut rng).is_err());
        assert!(try_run_protocol(&schedule, 4, 0, &mut rng).is_err());
        assert!(try_run_protocol(&strategy, 0, 100, &mut rng).is_err());
        assert!(try_run_protocol(&strategy, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn default_horizon_is_unbounded() {
        assert_eq!(ConstantSchedule(0.5).horizon(), None);
        assert_eq!(ConstantSchedule(0.5).name(), "constant");
        assert_eq!(HalvingStrategy.name(), "halving");
    }
}
