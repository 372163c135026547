//! Model-based scenario fuzzing for the contention-resolution
//! reproduction.
//!
//! The repository's sweeps check the paper's claims on a *fixed* scenario
//! library; this crate searches for counterexamples instead.  A seeded
//! generative **trace model** ([`TraceModel`], re-exported from
//! `crp-predict`) plays an adversary against the arrival process and the
//! advice channel, emitting [`Trace`]s — little programs of truth
//! updates, noisy observations and drifts — with a canonical,
//! hash-stable wire form.  Each trace compiles to a scenario and is
//! evaluated through the ordinary sweep stack (any backend, including a
//! chaos-planned fleet), and **property oracles** check the paper's
//! envelopes on the resulting grid.  Failures are **minimised** by a
//! deterministic delta-debugging shrinker and checked into a
//! content-addressed reproducer corpus that a test replays forever
//! after.
//!
//! The layers:
//!
//! * [`property`] — the [`property::Property`] trait and the shipped
//!   oracles: [`property::ThroughputFloor`] (consistency near accurate
//!   advice), [`property::RobustnessFloor`] (graceful degradation under
//!   arbitrary divergence) and [`property::MonotoneDegradation`] (better
//!   advice never hurts), plus the [`property::AllOf`] combinator.
//! * [`campaign`] — [`campaign::FuzzConfig`] and
//!   [`campaign::run_campaign`]: seeded trace generation round-robinned
//!   over adversary models, each trace evaluated as a two-row grid
//!   against its zero-divergence *accurate twin*.
//! * [`shrink`] — [`shrink::shrink_trace`]: deterministic ddmin over
//!   trace events plus per-field scalar shrinking and universe halving.
//! * [`corpus`] — [`corpus::Corpus`]: shrunk reproducers as
//!   content-addressed `fuzz-<hash12>.trace` files.
//! * [`error`] — the [`FuzzError`] type.
//!
//! The `crp_fuzz` binary fronts all of this; the fixed-seed CI smoke job
//! asserts that the shipped protocols clear every oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod error;
pub mod property;
pub mod shrink;

pub use campaign::{
    campaign_trace, evaluate_trace, run_campaign, trace_matrix, CampaignReport, FailingTrace,
    FuzzConfig, TraceEvaluation,
};
pub use corpus::{Corpus, TRACE_EXTENSION};
pub use error::FuzzError;
pub use property::{
    property_by_name, AllOf, MonotoneDegradation, Property, RobustnessFloor, ThroughputFloor,
    Violation, PROPERTY_NAMES,
};
pub use shrink::{shrink_trace, ShrinkOutcome};

// The trace model lives in `crp-predict` (scenarios are its domain);
// re-export it so fuzzing callers need only this crate.
pub use crp_predict::{AdversaryKind, Trace, TraceEvent, TraceModel, MAX_FIDELITY};
