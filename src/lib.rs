//! # Contention Resolution with Predictions
//!
//! A full reproduction of *"Contention Resolution with Predictions"*
//! (Gilbert, Newport, Vaidya, Weaver — PODC 2021) as a Rust workspace:
//! the multiple-access channel model, the information-theoretic machinery
//! the paper's bounds are built on, the prediction-augmented and
//! perfect-advice protocols, and the Monte-Carlo harness that regenerates
//! the paper's result tables.
//!
//! This crate is a thin facade that re-exports the workspace crates under
//! stable module names:
//!
//! * [`info`] (`crp-info`) — size distributions, condensed distributions,
//!   entropy, KL divergence, Huffman / Shannon–Fano codes.
//! * [`channel`] (`crp-channel`) — the stateless round model (a round's
//!   outcome from its transmitter count; the one feedback every
//!   participant hears, with or without collision detection) and its two
//!   executors, per-node and uniform.
//! * [`predict`] (`crp-predict`) — scenario library, noise models, the
//!   learned histogram predictor and perfect-advice oracles.
//! * [`protocols`] (`crp-protocols`) — decay, Willard, the §2.5 / §2.6
//!   prediction-augmented algorithms, the §3 advice algorithms, the
//!   range-finding lower-bound machinery, and the unified
//!   [`protocols::Protocol`] API with its name-based
//!   [`protocols::ProtocolRegistry`].
//! * [`fleet`] (`crp-fleet`) — fleet dispatch: the framed worker wire
//!   protocol (v3: capacity pipelining, scenario-by-hash blobs, ping
//!   health checks, metrics pulls), long-lived stdio/TCP workers, and the
//!   straggler-retrying job dispatcher behind [`sim::FleetBackend`].
//! * [`serve`] (`crp-serve`) — the persistent sweep service: a
//!   warm-fleet daemon with a content-addressed result cache, fronted
//!   by `crp_experiments serve` / `submit`.
//! * [`sim`] (`crp-sim`) — the Monte-Carlo experiment harness, fronted by
//!   the builder-style [`sim::Simulation`].
//! * [`fuzz`] (`crp-fuzz`) — model-based scenario fuzzing: seeded
//!   adversarial trace models, property oracles encoding the paper's
//!   envelopes, a deterministic shrinker, declarative chaos plans, and
//!   the content-addressed reproducer corpus, fronted by
//!   `crp_experiments fuzz` / the `crp_fuzz` binary.
//!
//! # Quickstart
//!
//! Protocols are constructed *by name* through the registry and run
//! through the `Simulation` builder, which validates the configuration —
//! participant counts, round budgets, protocol/channel-mode compatibility
//! — before a single trial executes:
//!
//! ```
//! use contention_predictions::info::{CondensedDistribution, SizeDistribution};
//! use contention_predictions::protocols::ProtocolSpec;
//! use contention_predictions::sim::Simulation;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A learned prediction: the network usually has ~64 active stations.
//! let prediction = SizeDistribution::bimodal(4096, 64, 2048, 0.9)?;
//!
//! // Tonight the network actually has 70 active stations.
//! let stats = Simulation::builder()
//!     .protocol(
//!         ProtocolSpec::new("sorted-guess-cycling")
//!             .universe(4096)
//!             .prediction(CondensedDistribution::from_sizes(&prediction)),
//!     )
//!     .participants(70)
//!     .max_rounds(4096)
//!     .trials(200)
//!     .seed(1)
//!     .run()?;
//! assert!(stats.success_rate() > 0.99);
//! # Ok(())
//! # }
//! ```
//!
//! Run `cargo run --bin crp_experiments -- list` to enumerate every
//! registered protocol, and see `README.md` for the architecture overview.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Information-theory substrate (re-export of `crp-info`).
pub use crp_info as info;

/// Multiple-access channel simulator (re-export of `crp-channel`).
pub use crp_channel as channel;

/// Prediction substrate (re-export of `crp-predict`).
pub use crp_predict as predict;

/// Contention-resolution protocols (re-export of `crp-protocols`).
pub use crp_protocols as protocols;

/// Fleet dispatch: framed worker protocol, long-lived stdio/TCP workers
/// and the straggler-retrying dispatcher (re-export of `crp-fleet`).
pub use crp_fleet as fleet;

/// The persistent sweep service: warm-fleet daemon, content-addressed
/// result cache, and the framed submit/progress/result client protocol
/// (re-export of `crp-serve`).
pub use crp_serve as serve;

/// Monte-Carlo experiment harness (re-export of `crp-sim`).
pub use crp_sim as sim;

/// Model-based scenario fuzzing: adversarial trace models, property
/// oracles over sweep results, the deterministic shrinker and the
/// reproducer corpus (re-export of `crp-fuzz`).
pub use crp_fuzz as fuzz;
