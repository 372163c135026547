//! Contention-resolution protocols — the core of the *Contention Resolution
//! with Predictions* (PODC 2021) reproduction.
//!
//! # What lives here
//!
//! * **Classical baselines** (no predictions):
//!   [`Decay`] (Bar-Yehuda, Goldreich, Itai), [`Willard`]'s collision-
//!   detection binary search and the known-size [`FixedProbability`]
//!   protocol.  These are the `b = 0` / worst-case comparison points.
//! * **Prediction-augmented protocols** (paper §2):
//!   [`SortedGuess`] — the §2.5 no-collision-detection strategy that visits
//!   the geometric size ranges in decreasing order of predicted likelihood;
//!   [`CodedSearch`] — the §2.6 collision-detection strategy that builds an
//!   optimal prefix code for the predicted condensed distribution and
//!   searches the ranges phase-by-phase in order of codeword length.
//! * **Perfect-advice protocols** (paper §3): deterministic and randomized
//!   algorithms, with and without collision detection, that match the
//!   paper's Table 2 upper bounds given `b` bits of advice from the
//!   oracles in `crp-predict`.
//! * **Range-finding machinery** (paper §2.3–2.4): the RF-Construction
//!   (Algorithm 1), the collision-detection tree construction, and the
//!   target-distance coding scheme — the reductions the lower bounds are
//!   built on, implemented so that the Source-Coding-Theorem inequalities
//!   can be checked numerically.
//! * **Strongly selective families** (paper §3.2): constructions and the
//!   verification predicate used by the non-interactive lower bound.
//!
//! # The unified `Protocol` API
//!
//! Every algorithm above is reachable through one object-safe trait,
//! [`Protocol`], and one catalogue, the static [`REGISTRY`] table: a
//! protocol is constructed from a *name plus parameters*
//! ([`ProtocolSpec`]) and then driven uniformly on the
//! [`crp_channel::ChannelMode`] it declares.  Each uniform algorithm
//! implements [`UniformPolicy`] itself — a probability as a function of
//! the round and the collision history, the history being empty without
//! collision detection — and each per-node algorithm is a
//! [`NodeFactory`].
//!
//! # Example
//!
//! ```
//! use crp_info::{CondensedDistribution, SizeDistribution};
//! use crp_protocols::{try_run_protocol, ProtocolSpec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1024;
//! // The learned prediction says the network is usually ~32 devices.
//! let prediction = SizeDistribution::bimodal(n, 32, 512, 0.9)?;
//! let protocol = ProtocolSpec::new("sorted-guess-cycling")
//!     .universe(n)
//!     .prediction(CondensedDistribution::from_sizes(&prediction))
//!     .build()?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // The true network happens to have 30 active devices.
//! let outcome = try_run_protocol(protocol.as_ref(), 30, 4 * n, &mut rng)?;
//! assert!(outcome.resolved);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
mod baselines;
mod error;
pub mod predicted;
mod protocol;
pub mod rangefinding;
mod registry;
mod selective_family;

pub use advice::{
    AdvisedDecay, AdvisedWillard, DeterministicCdAdvice, DeterministicNoCdAdvice,
    NonInteractiveScheme,
};
pub use baselines::{BlindTrust, Decay, FixedProbability, Willard};
pub use error::ProtocolError;
pub use predicted::{CodeChoice, CodedSearch, SortedGuess};
pub use protocol::{
    try_run_protocol, try_run_protocol_with, Behavior, NodeFactory, Protocol, UniformPolicy,
};
pub use registry::{
    DeterministicAdviceProtocol, ProtocolEntry, ProtocolParams, ProtocolSpec, REGISTRY,
};
pub use selective_family::{
    binary_representation_family, is_strongly_selective, singleton_family, SelectiveFamily,
};
