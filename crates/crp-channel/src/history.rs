//! Collision histories.
//!
//! In the collision-detection model, a uniform algorithm is a function from
//! the history of collisions/silences observed so far to the next broadcast
//! probability (paper §2.1).  The paper encodes a history of `r` rounds as a
//! bit string `b₁b₂…b_r` with `b_i = 1` when round `i` was a collision.
//! [`CollisionHistory`] is that bit string.

/// The collision/silence history observed by all participants under
/// collision detection, as a bit string (`true` = collision).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CollisionHistory {
    bits: Vec<bool>,
}

impl CollisionHistory {
    /// The empty history (before the first round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a history from explicit bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Number of rounds recorded.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True before any round has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw bits, oldest round first.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Appends one round's observation: `true` for collision, `false` for
    /// silence.
    pub fn push(&mut self, collision: bool) {
        self.bits.push(collision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_appends_oldest_round_first() {
        let mut h = CollisionHistory::new();
        assert!(h.is_empty());
        for bit in [true, false, true] {
            h.push(bit);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h, CollisionHistory::from_bits(vec![true, false, true]));
        assert_eq!(h.bits(), &[true, false, true]);
    }
}
