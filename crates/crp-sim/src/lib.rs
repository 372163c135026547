//! Monte-Carlo experiment harness for the *Contention Resolution with
//! Predictions* reproduction.
//!
//! The harness has five layers:
//!
//! * [`SweepMatrix`] — the declarative sweep engine: a (protocol ×
//!   scenario × trial-budget) grid compiled to validated [`Simulation`]
//!   cells and executed through the sharded runner, with markdown / CSV
//!   export.  Every experiment module declares its grid this way.
//! * [`Simulation`] — the builder-style front-end: pick a protocol by
//!   registry spec, choose a workload (fixed `k`, an explicit placement,
//!   or a sampled ground truth), and run a validated Monte-Carlo batch.
//!   All misconfigurations — zero participants, zero round budgets,
//!   protocol/channel-mode mismatches — are typed [`SimError`]s raised at
//!   build time, never panics.  A simulation is one *cell*, described by
//!   one [`ShardSpec`]; a sweep is many.
//! * The sharded runner — one path under both: each cell's trials
//!   split into thread-count-independent shards ([`ShardPlan`]) with
//!   per-trial `ChaCha8Rng` streams, run by the cell's trial kernel (a
//!   batched fast path or the scalar executor, see [`KernelChoice`]),
//!   folded into mergeable accumulators and merged in shard order.
//!   Execution is delegated to an object-safe [`ShardBackend`] —
//!   [`SerialBackend`] inline, [`ThreadBackend`] (scoped worker threads
//!   stealing shards from a shared queue), or [`FleetBackend`]
//!   (persistent local or remote `crp_experiments worker` processes fed
//!   [`ShardSpec`] messages) — and the statistics are bit-identical for
//!   any backend and any worker count.  The protocol is built once per
//!   cell and shared across every trial.
//! * Statistics and reports — the mergeable streaming accumulator
//!   ([`TrialAccumulator`]: Welford moments, exact min/max, a
//!   log-bucketed [`QuantileSketch`]), the finalised [`TrialStats`] view,
//!   and markdown / CSV rendering through [`Table`].
//! * [`experiments`] — one module per table / figure of the paper; the
//!   `crp_experiments` binary runs them all (its `list` subcommand prints
//!   the protocol registry, its `sweep` subcommand runs arbitrary
//!   registry-name × scenario-name grids, its `serve` / `submit` pair
//!   runs them through the [`service`] daemon).
//!
//! Library code never reads the environment: the binaries parse the
//! `CRP_*` variables once with [`EnvConfig::from_env`] and resolve
//! flag > environment > default into a [`RunnerConfig`] with
//! [`RunnerFlags::resolve`].
//!
//! # Example
//!
//! ```
//! use crp_protocols::ProtocolSpec;
//! use crp_sim::Simulation;
//!
//! # fn main() -> Result<(), crp_sim::SimError> {
//! let stats = Simulation::builder()
//!     .protocol(ProtocolSpec::new("decay").universe(1024))
//!     .participants(70)
//!     .max_rounds(10_000)
//!     .trials(200)
//!     .seed(1)
//!     .run()?;
//! assert!(stats.success_rate() > 0.99);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
pub mod experiments;
mod report;
mod runner;
pub mod service;
mod simulation;
mod stats;
mod sweep;

use std::error::Error;
use std::fmt;

use crp_channel::ChannelMode;

pub use env::{EnvConfig, RunnerFlags};
pub use report::{fmt_f64, Table};
pub use runner::{
    run_shard_worker_with, sample_contending_size, BackendChoice, FleetBackend, JobDoneFn,
    KernelChoice, RunnerConfig, SerialBackend, ShardBackend, ShardJob, ShardPlan, ShardSpec,
    ThreadBackend,
};
pub use simulation::{Simulation, SimulationBuilder};
pub use stats::{QuantileSketch, StreamAccumulator, SummaryStats, TrialAccumulator, TrialStats};
pub use sweep::{
    SweepCell, SweepCellResult, SweepMatrix, SweepPopulation, SweepProgress, SweepProtocol,
    SweepResults,
};

/// Errors produced by the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A parameter of an experiment or simulation was outside its valid
    /// range (zero participants, zero trials, zero round budget, …).
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// A [`Simulation`] was built without a protocol spec.
    MissingProtocol,
    /// The selected protocol cannot run on the requested channel mode
    /// (e.g. a collision-detection strategy on a no-CD channel).
    ModeMismatch {
        /// The protocol's registry / display name.
        protocol: String,
        /// The mode the protocol requires.
        required: ChannelMode,
        /// The mode the caller requested.
        requested: ChannelMode,
    },
    /// A substrate construction (distribution, prediction, protocol)
    /// failed.
    Substrate(String),
    /// A shard backend could not execute its jobs: a worker could not be
    /// started, reached or failed, or a wire message was malformed.
    Backend {
        /// Human-readable description of the failure.
        what: String,
    },
    /// A `CRP_*` environment variable (see [`EnvConfig::NAMES`]) was
    /// unknown or carried a value that is not UTF-8 or cannot be used,
    /// or a trace destination could not be opened.  Surfaced as a typed
    /// error instead of being silently ignored, so a mistyped override
    /// fails loudly.
    Config {
        /// The environment variable (or flag).
        var: String,
        /// The offending value, verbatim.
        value: String,
        /// Why it was rejected.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            SimError::MissingProtocol => write!(f, "no protocol selected: call protocol(spec)"),
            SimError::ModeMismatch {
                protocol,
                required,
                requested,
            } => write!(
                f,
                "protocol {protocol:?} requires channel mode {required:?} but {requested:?} \
                 was requested"
            ),
            SimError::Substrate(msg) => write!(f, "substrate error: {msg}"),
            SimError::Backend { what } => write!(f, "backend error: {what}"),
            SimError::Config { var, value, what } => {
                write!(f, "invalid {var}={value:?}: {what}")
            }
        }
    }
}

impl Error for SimError {}

impl From<crp_info::InfoError> for SimError {
    fn from(err: crp_info::InfoError) -> Self {
        SimError::Substrate(err.to_string())
    }
}

impl From<crp_predict::PredictError> for SimError {
    fn from(err: crp_predict::PredictError) -> Self {
        SimError::Substrate(err.to_string())
    }
}

impl From<crp_protocols::ProtocolError> for SimError {
    fn from(err: crp_protocols::ProtocolError) -> Self {
        SimError::Substrate(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_display_and_conversions() {
        let err = SimError::InvalidParameter {
            what: "trials must be positive".into(),
        };
        assert!(err.to_string().contains("trials"));
        let err: SimError = crp_info::InfoError::EmptySupport.into();
        assert!(matches!(err, SimError::Substrate(_)));
        assert!(err.to_string().contains("empty"));
        assert!(SimError::MissingProtocol.to_string().contains("protocol"));
        let err = SimError::ModeMismatch {
            protocol: "willard".into(),
            required: ChannelMode::CollisionDetection,
            requested: ChannelMode::NoCollisionDetection,
        };
        assert!(err.to_string().contains("willard"));
        let err = SimError::Backend {
            what: "worker went away".into(),
        };
        assert!(err.to_string().contains("worker went away"));
    }
}
