//! Fleet dispatch: long-lived workers, a straggler-retrying dispatcher,
//! and a framed wire protocol over stdio or TCP.
//!
//! The crate is deliberately *payload-agnostic*: jobs are opaque strings
//! shipped to workers, answers are opaque strings shipped back, and a
//! worker is anything that serves the framed protocol with a
//! `Fn(&str) -> Result<String, String>` handler.  `crp-sim` layers its
//! `ShardSpec` / `TrialAccumulator` codec on top to get a remote shard
//! backend; nothing here knows about shards, which keeps the dependency
//! arrow pointing one way (`crp-sim` → `crp-fleet`) and lets the
//! `crp_experiments` binary host the worker mode.
//!
//! The layers, bottom up:
//!
//! * [`frame`] — length-prefixed framing over any byte stream (a header
//!   line carrying the payload size, then exactly that many bytes), with
//!   truncation and oversize rejection: one incremental decoder, fed by
//!   the dispatcher's event loop and by [`frame::FrameReader`] on
//!   blocking streams.
//! * [`hash`] — content addressing: a self-contained SHA-256 and the
//!   canonical hex digest shared by the blob protocol, the dispatcher,
//!   and the `crp-serve` result cache.
//! * [`cell`] — the job line: job `i` of an `n`-job cell is the cell's
//!   payload plus one `job <i> of <n>` line, written by
//!   [`cell::job_payload`] and split off by [`cell::split_job`], so a
//!   submission carries each cell once and each worker still gets a
//!   self-contained job.
//! * [`protocol`] — the messages inside frames: a versioned
//!   [`protocol::Message::Hello`] handshake (exactly one version is
//!   spoken; any other is a typed error), `job` / `done` / `failed`
//!   requests and answers keyed by job id, a `ping` / `pong` health
//!   check, content-addressed `scenario-put` blob shipping, and the
//!   `metrics` / `metrics-report` registry pull.
//! * [`worker`] — the long-lived worker loop: [`worker::serve`] answers a
//!   stream of jobs over any `(Read, Write)` pair — N jobs per process
//!   instead of one, executed concurrently so pings are answered even
//!   mid-job, and a panicking job answered as a failure — out of a
//!   caller-owned [`worker::ScenarioStore`] of received blobs, with
//!   [`worker::ServeOptions`] carrying the capacity and the fault
//!   injection the failure tests use.  [`worker::serve_stdio`] binds it
//!   to a subprocess's stdio; [`tcp::TcpWorker`] binds it to a listening
//!   socket and [`tcp::join_fleet`] to a dialed-out one.
//! * [`endpoint`] — [`endpoint::WorkerEndpoint`]: where a worker lives
//!   (a local subprocess to spawn, or a `host:port` to dial), the
//!   dispatcher's fixed handshake, health-check and straggler timings,
//!   and the [`endpoint::FleetManifest`] (`local:4,host:9000`) the
//!   `CRP_FLEET` environment variable and `--fleet` flag carry.
//! * [`chaos`] — [`chaos::ChaosPlan`]: typed, declarative schedules of
//!   the fault injections above (`0:die@2,1:wedge@5`), compiled down
//!   onto `--fault` arguments of a pool's local endpoints so fuzz
//!   campaigns and sweeps can declare — and minimise — infrastructure
//!   faults like any other input.
//! * [`dispatch`] — [`dispatch::Dispatcher`]: schedules a batch of
//!   [`dispatch::JobPayload`]s over a pool of endpoints on one
//!   single-threaded readiness event loop multiplexing every connection
//!   over non-blocking I/O: queued jobs go to the least-loaded
//!   connection, up to the capacity its worker's hello advertised;
//!   [`dispatch::BlobSet`] blobs ship once per worker; the outstanding
//!   jobs of **dead, wedged or straggling workers are re-dispatched**;
//!   completions are deduplicated by job id; workers may join
//!   elastically ([`dispatch::Dispatcher::listen_for_workers`]); and
//!   connections (with their spawned workers) stay warm across batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod chaos;
pub mod dispatch;
pub mod endpoint;
pub(crate) mod event_loop;
pub mod frame;
pub mod hash;
pub mod obs;
pub mod protocol;
pub mod tcp;
pub mod worker;

use std::error::Error;
use std::fmt;

pub use cell::{job_payload, split_job, JobLine};
pub use chaos::{ChaosEvent, ChaosPlan, FaultKind};
pub use dispatch::{BlobSet, Dispatcher, JobPayload};
pub use endpoint::{FleetEntry, FleetManifest, WorkerEndpoint};
pub use frame::{write_frame, FrameReader, MAX_FRAME_BYTES};
pub use hash::{content_hash, is_content_hash};
pub use obs::{FleetMetrics, FleetSnapshot, WorkerHealth, WorkerMetrics};
pub use protocol::{Message, PROTOCOL_VERSION};
pub use tcp::{join_fleet, TcpWorker};
pub use worker::{serve, serve_stdio, JobHandler, ScenarioStore, ServeOptions};

/// Errors produced by the fleet transport and dispatcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// An I/O operation on a transport failed.
    Io(String),
    /// The peer closed the stream mid-conversation.
    Closed,
    /// A frame or message was malformed (truncated, oversized, bad
    /// header, unknown message, wrong job id).
    Malformed(String),
    /// The handshake failed (missing hello, protocol version mismatch).
    Handshake(String),
    /// A fleet manifest entry could not be parsed.
    Manifest {
        /// The offending manifest entry.
        entry: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A polling connection went silent: no answer, and a health-check
    /// ping got no pong within its deadline.  The worker is presumed
    /// wedged and its in-flight jobs are re-dispatched.
    Unresponsive {
        /// Milliseconds of silence before the worker was given up on.
        silent_ms: u64,
    },
    /// A worker endpoint could not be reached (spawn or dial failure).
    Connect {
        /// Human-readable endpoint description.
        endpoint: String,
        /// The underlying failure.
        reason: String,
    },
    /// A worker answered a job with a deterministic failure (the job
    /// itself is bad, so re-dispatching it cannot help).
    Job {
        /// The failing job id.
        id: u64,
        /// The worker-reported failure message.
        message: String,
    },
    /// A job could not be completed on any worker.
    Exhausted {
        /// The job id that ran out of workers.
        id: u64,
        /// Attempts made before giving up.
        attempts: usize,
        /// The last transport or connect failure observed.
        last: String,
    },
    /// A chaos-plan entry or a `worker --fault` schedule was malformed,
    /// or a plan could not be applied to the pool.
    Chaos {
        /// The offending plan entry (`WORKER:FAULT@JOBS`) or fault
        /// schedule (`FAULT@JOBS`).
        entry: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(what) => write!(f, "fleet transport I/O error: {what}"),
            FleetError::Closed => write!(f, "the peer closed the fleet stream"),
            FleetError::Malformed(what) => write!(f, "malformed fleet frame: {what}"),
            FleetError::Handshake(what) => write!(f, "fleet handshake failed: {what}"),
            FleetError::Manifest { entry, reason } => {
                write!(f, "invalid fleet manifest entry {entry:?}: {reason}")
            }
            FleetError::Unresponsive { silent_ms } => write!(
                f,
                "fleet worker unresponsive: no frame or pong for {silent_ms}ms"
            ),
            FleetError::Connect { endpoint, reason } => {
                write!(f, "cannot reach fleet worker {endpoint}: {reason}")
            }
            FleetError::Job { id, message } => {
                write!(f, "fleet job {id} failed on the worker: {message}")
            }
            FleetError::Exhausted { id, attempts, last } => write!(
                f,
                "fleet job {id} failed on every worker ({attempts} attempts; last error: {last})"
            ),
            FleetError::Chaos { entry, reason } => {
                write!(f, "invalid chaos-plan entry {entry:?}: {reason}")
            }
        }
    }
}

impl Error for FleetError {}

impl From<crp_obs::LineError> for FleetError {
    fn from(err: crp_obs::LineError) -> Self {
        FleetError::Malformed(err.to_string())
    }
}

impl From<std::io::Error> for FleetError {
    fn from(err: std::io::Error) -> Self {
        FleetError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_failure() {
        assert!(FleetError::Closed.to_string().contains("closed"));
        assert!(FleetError::Io("broken pipe".into())
            .to_string()
            .contains("broken pipe"));
        assert!(FleetError::Malformed("bad header".into())
            .to_string()
            .contains("bad header"));
        assert!(FleetError::Handshake("version 9".into())
            .to_string()
            .contains("version 9"));
        let err = FleetError::Manifest {
            entry: "local:x".into(),
            reason: "bad count".into(),
        };
        assert!(err.to_string().contains("local:x"));
        let err = FleetError::Exhausted {
            id: 3,
            attempts: 4,
            last: "connection refused".into(),
        };
        assert!(err.to_string().contains("connection refused"));
        let err: FleetError = std::io::Error::other("oops").into();
        assert!(matches!(err, FleetError::Io(_)));
        let err = FleetError::Chaos {
            entry: "0:die@x".into(),
            reason: "job count must be a non-negative integer".into(),
        };
        assert!(err.to_string().contains("0:die@x"));
    }
}
