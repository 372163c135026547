//! The channel's detection mode and the feedback it gives.

use crate::round::{Feedback, RoundOutcome};

/// Whether the channel provides collision detection.
///
/// The paper analyses both assumptions; every protocol in `crp-protocols`
/// declares which mode it needs and the executor checks the pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelMode {
    /// All participants can distinguish collision from silence.
    CollisionDetection,
    /// Collisions are indistinguishable from silence for listeners.
    NoCollisionDetection,
}

impl ChannelMode {
    /// True if this mode provides collision detection.
    pub fn has_collision_detection(self) -> bool {
        matches!(self, ChannelMode::CollisionDetection)
    }

    /// What every participant observes for a round with `outcome` on a
    /// channel in this mode.  Transmitters and listeners hear the same.
    ///
    /// * A successful round is announced to everyone as
    ///   [`Feedback::Resolved`] (the problem is defined to end there).
    /// * With collision detection, collision and silence are reported
    ///   faithfully.
    /// * Without collision detection, collision and silence both appear as
    ///   [`Feedback::NothingHeard`].  (A transmitter involved in a collision
    ///   also learns nothing beyond the fact that it did not succeed, which
    ///   is exactly what `NothingHeard` conveys.)
    pub fn feedback(self, outcome: RoundOutcome) -> Feedback {
        match (outcome, self) {
            (RoundOutcome::Success, _) => Feedback::Resolved,
            (RoundOutcome::Collision, ChannelMode::CollisionDetection) => {
                Feedback::CollisionDetected
            }
            (RoundOutcome::Silence, ChannelMode::CollisionDetection) => Feedback::SilenceDetected,
            (
                RoundOutcome::Collision | RoundOutcome::Silence,
                ChannelMode::NoCollisionDetection,
            ) => Feedback::NothingHeard,
        }
    }
}

impl std::fmt::Display for ChannelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelMode::CollisionDetection => write!(f, "collision detection"),
            ChannelMode::NoCollisionDetection => write!(f, "no collision detection"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_is_faithful_with_collision_detection_only() {
        use Feedback::*;
        use RoundOutcome::*;
        for (outcome, with_cd, without_cd) in [
            (Collision, CollisionDetected, NothingHeard),
            (Silence, SilenceDetected, NothingHeard),
            (Success, Resolved, Resolved),
        ] {
            let cd = ChannelMode::CollisionDetection;
            let no_cd = ChannelMode::NoCollisionDetection;
            assert_eq!(cd.feedback(outcome), with_cd);
            assert_eq!(no_cd.feedback(outcome), without_cd);
        }
    }

    #[test]
    fn mode_display_and_predicate() {
        assert!(ChannelMode::CollisionDetection.has_collision_detection());
        assert!(!ChannelMode::NoCollisionDetection.has_collision_detection());
        assert_eq!(
            ChannelMode::CollisionDetection.to_string(),
            "collision detection"
        );
    }
}
