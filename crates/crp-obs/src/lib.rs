//! # crp-obs
//!
//! The workspace's observability layer: a lock-free
//! [`MetricsRegistry`] of named counters, gauges, and log-bucketed
//! latency histograms, plus a structured JSONL trace-event sink
//! ([`TraceSink`]) behind a zero-cost-when-disabled guard
//! ([`trace_enabled`]).
//!
//! The crate is std-only and dependency-free so it can sit underneath
//! every runtime crate (crp-fleet, crp-serve, crp-sim).  Two
//! invariants the rest of the workspace leans on:
//!
//! * **Metrics never perturb results.**  Instrumentation touches
//!   atomics and (when tracing is on) an output file; it never touches
//!   RNG streams, shard ordering, or merge order, so `TrialStats` are
//!   bit-identical with tracing on or off.
//! * **Snapshots are deterministic.**  [`MetricsSnapshot`] renders
//!   with names sorted and merges order-independently, so a report
//!   assembled from per-worker pieces is byte-identical no matter the
//!   interleaving — the property the daemon `stats` report and the
//!   CLI cache summary share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hex;
mod metrics;
mod span;
mod trace;

pub use hex::{hex64, parse_hex64};
pub use metrics::{
    bucket_index, bucket_value, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use span::{
    current_span, is_span_id, set_current_span, span_from_hash, SpanContext, SPAN_HEX_LEN,
};
pub use trace::{
    active_trace_path, check_trace_line, derive_worker_trace_path, emit, init_trace,
    install_trace_sink, trace_enabled, trace_line_fields, TraceEvent, TraceSink,
};

use std::sync::OnceLock;

/// Errors the observability layer reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// An I/O failure opening or writing a trace sink, or a malformed
    /// trace line.
    Io {
        /// What went wrong.
        what: String,
    },
    /// A wire payload (a [`MetricsSnapshot`] codec body) that could not
    /// be decoded.
    Malformed {
        /// What was wrong with the payload.
        what: String,
    },
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io { what } => write!(f, "{what}"),
            ObsError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for ObsError {}

/// The process-wide metrics registry every runtime crate records
/// into.  Separate registries (for tests, or per-submission deltas)
/// are just [`MetricsRegistry::new`].
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}
