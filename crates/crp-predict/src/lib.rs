//! Prediction substrate for the *Contention Resolution with Predictions*
//! reproduction.
//!
//! The paper imagines that predictions "might be generated in practice by
//! machine learning models able to observe the behavior of a given
//! environment over time".  Its theorems, however, are parameterised only
//! by the *distribution* handed to the algorithm — its condensed entropy
//! `H(c(X))` and its KL divergence from the true distribution — and, in the
//! perfect-advice model of §3, by the number of advice bits `b`.  This crate
//! provides everything needed to generate such predictions with controlled
//! quality:
//!
//! * [`ScenarioLibrary`] / [`Scenario`] — named distribution families
//!   (point mass, uniform, geometric, Zipf, bimodal, uniform-over-ranges)
//!   used as the ground-truth size processes in the experiments.
//! * [`noise`] — perturbation models that turn a true distribution `X` into
//!   a prediction `Y` whose divergence `D_KL(c(X) ‖ c(Y))` can be dialled up
//!   or down (constant-factor noise, mass shifts, support shifts).
//! * [`LearnedPredictor`] — the "ML model" substitute: a histogram
//!   estimator trained on samples of the true process, with Laplace
//!   smoothing.  More training samples ⇒ lower divergence, matching the
//!   paper's "improves for free as the models improve" narrative.
//! * [`advice`] — perfect-advice oracles: functions with full knowledge of
//!   the participant set that emit the best possible `b`-bit advice for the
//!   §3 protocols.
//! * [`TraceModel`] / [`Trace`] — the fuzzing layer's generative adversary
//!   models: seeded state machines emitting adversarial arrival/advice
//!   traces with a canonical hash-stable wire form, compiled down to
//!   ordinary [`Scenario`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
mod error;
mod learned;
pub mod noise;
mod scenario;
mod trace;

pub use advice::{Advice, AdviceOracle, IdPrefixOracle, RangeOracle};
pub use error::PredictError;
pub use learned::LearnedPredictor;
pub use scenario::{Scenario, ScenarioLibrary};
pub use trace::{
    read_trace_file, AdversaryKind, Trace, TraceEvent, TraceModel, MAX_FIDELITY,
    MAX_TRACE_FILE_BYTES, MAX_TRACE_STEPS,
};
