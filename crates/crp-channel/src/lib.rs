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
//! This crate implements that model exactly as a discrete-event simulator:
//!
//! * [`RoundOutcome`] / [`Feedback`] — the channel's per-round result and
//!   what each participant observes under either detection assumption.
//! * [`Channel`] — the slotted channel itself, parameterised by
//!   [`ChannelMode`].
//! * [`ParticipantSet`] and [`Adversary`] — who participates; the adversary
//!   picks *which* ids participate once the size has been drawn from the
//!   prediction distribution (for uniform algorithms the identities are
//!   irrelevant, but full per-node protocols see real ids).
//! * [`Execution`] / [`try_execute`] — drives a per-node protocol against
//!   the channel until contention is resolved (or a round cap is hit) and
//!   records a [`Trace`]; [`try_execute_uniform_schedule`] does the same
//!   for uniform protocols in `O(1)` per round.  Both return a typed
//!   error for an invalid configuration.
//!
//! # Example
//!
//! ```
//! use crp_channel::{Channel, ChannelMode, RoundOutcome};
//!
//! let mut channel = Channel::new(ChannelMode::CollisionDetection);
//! // Two participants transmit in the same round: a collision.
//! let outcome = channel.resolve_round(&[true, true, false]);
//! assert_eq!(outcome, RoundOutcome::Collision);
//! assert_eq!(channel.rounds_elapsed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod channel;
mod error;
mod execution;
mod history;
mod participant;
mod round;
mod trace;

pub use adversary::{Adversary, AdversaryStrategy};
pub use channel::{Channel, ChannelMode};
pub use error::ChannelError;
pub use execution::{
    classify_uniform_draw, sample_uniform_outcome, try_execute, try_execute_uniform_schedule,
    uniform_outcome_thresholds, Execution, ExecutionConfig, NodeProtocol,
};
pub use history::CollisionHistory;
pub use participant::{ParticipantId, ParticipantSet};
pub use round::{Feedback, RoundOutcome};
pub use trace::{RoundRecord, Trace};
