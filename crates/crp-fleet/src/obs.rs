//! Fleet-side observability: per-worker health counters feeding an
//! on-demand [`FleetSnapshot`], plus the workspace-global `fleet.*`
//! counters and trace events.
//!
//! The dispatcher reports through one per-pool health record it owns,
//! keyed by the worker's peer label (a fixed endpoint's pool label, or a
//! joined worker's address), so a snapshot
//! spans fixed endpoints and elastically joined workers alike and
//! accumulates across batches — the view a long-running serve daemon's
//! `stats` request renders.
//!
//! Nothing here touches job payloads, RNG streams, or completion
//! order: counters are plain additions under a short mutex and trace
//! events are guarded by [`crp_obs::trace_enabled`], so statistics
//! stay bit-identical with observability on or off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crp_obs::{MetricsSnapshot, SpanContext, TraceEvent};

/// The health counters of one worker, as accumulated by the
/// dispatcher since it was created.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerHealth {
    /// The worker's peer label (a local worker's pool index, a TCP
    /// worker's address, or a joined worker's address).
    pub endpoint: String,
    /// Jobs sent to this worker.
    pub dispatched: u64,
    /// Answers accepted from this worker.
    pub completed: u64,
    /// Jobs requeued off this worker (transport failures, validation
    /// rejections, unresponsiveness).
    pub requeued: u64,
    /// Health-check pings sent to this worker.
    pub pings: u64,
    /// Jobs currently in flight on this worker (0 between batches).
    pub in_flight: i64,
}

/// An on-demand, point-in-time view of per-worker fleet health.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetSnapshot {
    /// Per-worker health, sorted by endpoint description.
    pub workers: Vec<WorkerHealth>,
}

impl FleetSnapshot {
    /// Renders the snapshot as a deterministic text report, one line
    /// per worker in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for worker in &self.workers {
            let _ = writeln!(
                out,
                "worker {} dispatched={} completed={} requeued={} pings={} in_flight={}",
                worker.endpoint,
                worker.dispatched,
                worker.completed,
                worker.requeued,
                worker.pings,
                worker.in_flight,
            );
        }
        out
    }
}

/// One worker's shipped metrics, as pulled by
/// [`crate::Dispatcher::worker_metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMetrics {
    /// The worker's peer label, as in [`WorkerHealth::endpoint`].
    pub endpoint: String,
    /// The worker's decoded metrics snapshot — `None` when the worker
    /// is not connected or failed to answer the pull (rendered as
    /// `metrics: unavailable`).
    pub snapshot: Option<MetricsSnapshot>,
}

/// A fleet-wide metrics pull: every known worker's shipped snapshot
/// plus the merged rollup, rendered deterministically for the `stats`
/// report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetMetrics {
    /// Per-worker shipped metrics, sorted by endpoint description.
    pub workers: Vec<WorkerMetrics>,
}

impl FleetMetrics {
    /// How many workers shipped a snapshot.
    pub fn reporting(&self) -> usize {
        self.workers.iter().filter(|w| w.snapshot.is_some()).count()
    }

    /// The fleet-wide rollup: every reporting worker's snapshot merged
    /// (counters summed, gauges maxed, histograms merged bucket-wise).
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for worker in &self.workers {
            if let Some(snapshot) = &worker.snapshot {
                merged.merge(snapshot);
            }
        }
        merged
    }

    /// Renders the pull as a deterministic text report: a header line,
    /// the merged rollup (each line prefixed `rollup `), then each
    /// worker's own snapshot (indented) or `metrics: unavailable`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let reporting = self.reporting();
        let _ = writeln!(
            out,
            "fleet metrics: {reporting} reporting, {} unavailable",
            self.workers.len() - reporting
        );
        for line in self.rollup().render().lines() {
            let _ = writeln!(out, "rollup {line}");
        }
        for worker in &self.workers {
            match &worker.snapshot {
                Some(snapshot) => {
                    let _ = writeln!(out, "worker {} metrics:", worker.endpoint);
                    for line in snapshot.render().lines() {
                        let _ = writeln!(out, "  {line}");
                    }
                }
                None => {
                    let _ = writeln!(out, "worker {} metrics: unavailable", worker.endpoint);
                }
            }
        }
        out
    }
}

/// The dispatcher's accumulator behind [`FleetSnapshot`]: a peer-keyed
/// map the event loop reports into.
#[derive(Debug)]
pub(crate) struct FleetObs {
    workers: Mutex<BTreeMap<String, WorkerHealth>>,
}

impl FleetObs {
    /// A record listing each of `peers` — the pool's fixed endpoints —
    /// from the start, so a worker that has not been sent a job yet
    /// still reports its (zero) health.
    pub(crate) fn new(peers: impl IntoIterator<Item = String>) -> Self {
        let workers = peers
            .into_iter()
            .map(|peer| {
                let health = WorkerHealth {
                    endpoint: peer.clone(),
                    ..Default::default()
                };
                (peer, health)
            })
            .collect();
        Self {
            workers: Mutex::new(workers),
        }
    }

    fn with(&self, peer: &str, update: impl FnOnce(&mut WorkerHealth)) {
        let mut workers = self.workers.lock().expect("no dispatcher panics");
        let entry = workers
            .entry(peer.to_string())
            .or_insert_with(|| WorkerHealth {
                endpoint: peer.to_string(),
                ..Default::default()
            });
        update(entry);
    }

    /// A job was sent to `peer`.  A span stamped on the dispatch event
    /// is what lets `trace-join` tie the dispatcher's timeline to the
    /// worker's `shard.execute` events for the same job.
    pub(crate) fn dispatched(&self, peer: &str, job: u64, span: Option<&SpanContext>) {
        crp_obs::global().inc("fleet.dispatch");
        if crp_obs::trace_enabled() {
            let event = TraceEvent::new("fleet.dispatch")
                .u64("job", job)
                .str("endpoint", peer);
            crp_obs::emit(&match span {
                Some(span) => span.stamp(event),
                None => event,
            });
        }
        self.with(peer, |w| {
            w.dispatched += 1;
            w.in_flight += 1;
        });
    }

    /// `peer` answered a job `micros` after its last claim.
    pub(crate) fn completed(&self, peer: &str, micros: u64) {
        crp_obs::global().observe("fleet.job_micros", micros);
        self.with(peer, |w| {
            w.completed += 1;
            w.in_flight -= 1;
        });
    }

    /// `peer` reported a permanent job failure (the job settled, so it
    /// leaves the in-flight count without a requeue).
    pub(crate) fn failed(&self, peer: &str) {
        self.with(peer, |w| w.in_flight -= 1);
    }

    /// `count` of `peer`'s outstanding jobs settled elsewhere and were
    /// abandoned on this connection.
    pub(crate) fn abandoned(&self, peer: &str, count: u64) {
        self.with(peer, |w| w.in_flight -= count as i64);
    }

    /// A job was pulled back off `peer` for another worker.
    pub(crate) fn requeued(&self, peer: &str, job: u64, reason: &str) {
        crp_obs::global().inc("fleet.requeue");
        if crp_obs::trace_enabled() {
            crp_obs::emit(
                &TraceEvent::new("fleet.requeue")
                    .u64("job", job)
                    .str("endpoint", peer)
                    .str("reason", reason),
            );
        }
        self.with(peer, |w| {
            w.requeued += 1;
            w.in_flight -= 1;
        });
    }

    /// A health-check ping went out to `peer`.
    pub(crate) fn pinged(&self, peer: &str) {
        crp_obs::global().inc("fleet.ping");
        if crp_obs::trace_enabled() {
            crp_obs::emit(&TraceEvent::new("fleet.ping").str("endpoint", peer));
        }
        self.with(peer, |w| w.pings += 1);
    }

    /// The current per-worker health, sorted by endpoint description.
    pub(crate) fn snapshot(&self) -> FleetSnapshot {
        let workers = self.workers.lock().expect("no dispatcher panics");
        FleetSnapshot {
            workers: workers.values().cloned().collect(),
        }
    }
}
