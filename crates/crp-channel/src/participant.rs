//! Participant identities.

/// Identifier of a potential participant, i.e. an element of the universe
/// `V = {0, 1, …, n − 1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ParticipantId(pub usize);

impl ParticipantId {
    /// The raw index of this participant within the universe.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participant_id_display_and_index() {
        let id = ParticipantId(7);
        assert_eq!(id.to_string(), "p7");
        assert_eq!(id.index(), 7);
    }
}
