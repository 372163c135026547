//! Per-round channel outcomes and the feedback observed by participants.

/// The ground-truth result of a single synchronous round on the shared
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundOutcome {
    /// No participant transmitted.
    Silence,
    /// Exactly one participant transmitted — contention is resolved.
    Success,
    /// Two or more participants transmitted; all messages were lost.
    Collision,
}

impl RoundOutcome {
    /// Classifies a round from the number of simultaneous transmitters.
    pub fn from_transmitter_count(count: usize) -> Self {
        match count {
            0 => RoundOutcome::Silence,
            1 => RoundOutcome::Success,
            _ => RoundOutcome::Collision,
        }
    }

    /// True if this outcome solves contention resolution.
    pub fn is_success(self) -> bool {
        matches!(self, RoundOutcome::Success)
    }
}

/// What every participant observes at the end of a round: a function of
/// the round's [`RoundOutcome`] and the channel mode alone, never of
/// whether the participant itself transmitted (see
/// [`crate::ChannelMode::feedback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feedback {
    /// The round resolved contention (a single transmitter was heard).
    Resolved,
    /// Collision detection reported a collision.
    CollisionDetected,
    /// Collision detection reported silence (nobody transmitted).
    SilenceDetected,
    /// No collision detector: the participant heard nothing useful
    /// (the round was either silent or a collision).
    NothingHeard,
}

impl Feedback {
    /// True if this feedback tells the participant the problem is solved.
    pub fn is_resolved(self) -> bool {
        matches!(self, Feedback::Resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_from_count_matches_model() {
        for (count, outcome) in [
            (0, RoundOutcome::Silence),
            (1, RoundOutcome::Success),
            (2, RoundOutcome::Collision),
            (100, RoundOutcome::Collision),
        ] {
            assert_eq!(RoundOutcome::from_transmitter_count(count), outcome);
        }
    }

    #[test]
    fn only_success_is_success() {
        assert!(RoundOutcome::Success.is_success());
        assert!(!RoundOutcome::Silence.is_success());
        assert!(!RoundOutcome::Collision.is_success());
    }

    #[test]
    fn only_resolved_feedback_resolves() {
        assert!(Feedback::Resolved.is_resolved());
        assert!(!Feedback::CollisionDetected.is_resolved());
        assert!(!Feedback::SilenceDetected.is_resolved());
        assert!(!Feedback::NothingHeard.is_resolved());
    }
}
