//! The persistent sweep service: a daemon that keeps a warm fleet of
//! workers between CLI invocations and memoises every result in a
//! content-addressed cache.
//!
//! The paper's evaluation is a grid of protocol × scenario sweeps, and
//! adversarial-scenario studies re-run those grids constantly — mostly
//! recomputing cells that have been computed before.  This crate removes
//! both recurring costs:
//!
//! * **Process lifecycle** — [`SweepServer`] owns a
//!   [`crp_fleet::Dispatcher`] whose worker connections stay warm across
//!   submissions, so back-to-back sweeps never re-pay process spawn,
//!   handshake, or scenario shipping.
//! * **Recomputation** — every job is keyed by the
//!   [`crp_fleet::content_hash`] of the one payload a worker runs, every
//!   sweep cell by the hash of its ordered job keys — addresses the
//!   daemon computes itself, never takes from a client — and the
//!   [`ResultCache`] persists each cell's merged answer as a bit-exact
//!   blob.  A resubmitted (or overlapping) sweep settles its cached cells
//!   without touching a worker, returning *bit-identical* statistics
//!   because the blobs are the exact accumulator bytes the cell's merge
//!   once produced.
//!
//! Like `crp-fleet` underneath it, the crate is payload-agnostic: jobs,
//! answers and blobs are opaque strings, cells are merged by a
//! caller-supplied function, answers are vetted by a caller-supplied
//! validator, and a caller-supplied canonicalizer fixes the one spelling
//! of each job it will dispatch.  `crp-sim` layers its `ShardSpec` / `TrialAccumulator`
//! semantics on top, which keeps the dependency arrow `crp-sim` →
//! `crp-serve` → `crp-fleet` and lets the `crp_experiments` binary host
//! both the daemon (`serve`) and the client (`submit`).
//!
//! The layers:
//!
//! * [`cache`] — [`ResultCache`]: the on-disk content-addressed store
//!   (atomic writes, self-verifying entries, typed corruption errors).
//! * [`wire`] — the framed service protocol: versioned
//!   [`wire::ServeMessage`] frames (`submit` / `progress` / `result`)
//!   and the [`wire::Submission`] / [`wire::SubmissionOutcome`] body
//!   codecs.
//! * [`server`] — [`SweepServer`]: the accept loops and the
//!   cell-cache-then-dispatch submission executor.
//! * [`client`] — [`ServeClient`]: connect, submit, stream progress,
//!   collect the result.
//! * [`obs`] — the `serve.*` counter names, cache instrumentation,
//!   the per-tenant `serve.tenant.<id>.*` accounting (bounded to
//!   [`obs::TENANT_CAP`] ids plus one overflow id), and the shared
//!   cache-summary formatter behind both the `submit` CLI line and the
//!   daemon's framed `stats` report.
//! * [`watch`] — the `stats --watch` rate computer: counter deltas
//!   between successive reports rendered as deterministic per-second
//!   rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod obs;
pub mod server;
pub mod watch;
pub mod wire;

use std::error::Error;
use std::fmt;

pub use cache::ResultCache;
pub use client::ServeClient;
pub use obs::{
    cache_summary, cache_summary_from, record_submission, record_tenant_submission,
    sanitize_tenant, tenant_summary,
};
pub use server::{AnswerCheck, Canonicalizer, CellMerger, SubmissionHooks, SweepServer};
pub use watch::{counters_from_report, rates_line};
pub use wire::{
    CellOutcome, ServeMessage, Submission, SubmissionCell, SubmissionOutcome, SERVICE_VERSION,
};

use crp_fleet::FleetError;

/// Errors produced by the sweep service, its cache, and its clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An I/O operation (socket, cache file) failed.
    Io(String),
    /// A service frame or body was malformed.
    Malformed(String),
    /// A cache entry exists but is corrupt or truncated; the caller
    /// recomputes and overwrites it.
    CorruptCache {
        /// The entry's content key.
        key: String,
        /// What was wrong with it.
        what: String,
    },
    /// The underlying fleet transport or dispatcher failed.
    Fleet(String),
    /// The server answered a submission with a typed error.
    Server(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(what) => write!(f, "sweep service I/O error: {what}"),
            ServeError::Malformed(what) => write!(f, "malformed service message: {what}"),
            ServeError::CorruptCache { key, what } => {
                write!(f, "corrupt cache entry {key}: {what}")
            }
            ServeError::Fleet(what) => write!(f, "fleet dispatch failed: {what}"),
            ServeError::Server(what) => write!(f, "the sweep server reported: {what}"),
        }
    }
}

impl Error for ServeError {}

impl From<crp_obs::LineError> for ServeError {
    fn from(err: crp_obs::LineError) -> Self {
        ServeError::Malformed(err.to_string())
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err.to_string())
    }
}

impl From<FleetError> for ServeError {
    fn from(err: FleetError) -> Self {
        match err {
            FleetError::Io(what) => ServeError::Io(what),
            FleetError::Malformed(what) => ServeError::Malformed(what),
            other => ServeError::Fleet(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_failure() {
        assert!(ServeError::Io("broken".into())
            .to_string()
            .contains("broken"));
        assert!(ServeError::CorruptCache {
            key: "abc".into(),
            what: "truncated".into(),
        }
        .to_string()
        .contains("truncated"));
        let err: ServeError = FleetError::Closed.into();
        assert!(matches!(err, ServeError::Fleet(_)));
        let err: ServeError = FleetError::Malformed("bad".into()).into();
        assert!(matches!(err, ServeError::Malformed(_)));
    }
}
