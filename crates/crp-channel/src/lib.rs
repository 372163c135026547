//! Multiple-access channel simulator for the *Contention Resolution with
//! Predictions* reproduction.
//!
//! The paper's model: an unknown, non-empty subset `P ⊆ V` of `|V| = n`
//! possible participants is activated and connected to a shared channel.
//! Time proceeds in synchronous rounds.  In each round every participant
//! either transmits or listens.  If exactly one participant transmits, the
//! problem is solved.  If two or more transmit, all messages are lost; with
//! *collision detection* every participant learns that a collision happened,
//! without collision detection colliding rounds are indistinguishable from
//! silent rounds for listeners.
//!
//! A round is stateless in that model: its outcome depends only on how
//! many participants transmit, and what every participant hears depends
//! only on that outcome and on the channel's [`ChannelMode`].  This crate
//! implements it exactly.  [`RoundOutcome::from_transmitter_count`]
//! classifies a round and [`ChannelMode::feedback`] gives the one
//! [`Feedback`] everyone observes.  Two executors run protocols on it:
//! [`try_execute`] drives one [`NodeProtocol`] per participant, and
//! [`try_execute_uniform_schedule`] drives a uniform protocol in `O(1)` per
//! round, feeding back a [`CollisionHistory`] under collision detection.
//!
//! # Example
//!
//! ```
//! use crp_channel::{ChannelMode, Feedback, RoundOutcome};
//!
//! // Two participants transmit in the same round: a collision, which
//! // sounds like silence without collision detection.
//! let outcome = RoundOutcome::from_transmitter_count(2);
//! assert_eq!(outcome, RoundOutcome::Collision);
//! let cd = ChannelMode::CollisionDetection.feedback(outcome);
//! assert_eq!(cd, Feedback::CollisionDetected);
//! let no_cd = ChannelMode::NoCollisionDetection.feedback(outcome);
//! assert_eq!(no_cd, Feedback::NothingHeard);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod error;
mod execution;
mod history;
mod participant;
mod round;

pub use channel::ChannelMode;
pub use error::ChannelError;
pub use execution::{
    classify_uniform_draw, sample_uniform_outcome, try_execute, try_execute_uniform_schedule,
    uniform_outcome_thresholds, Execution, ExecutionConfig, NodeProtocol,
};
pub use history::CollisionHistory;
pub use participant::ParticipantId;
pub use round::{Feedback, RoundOutcome};
