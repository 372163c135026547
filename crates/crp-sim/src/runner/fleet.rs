//! The fleet shard backend: shard jobs dispatched to long-lived workers
//! over the `crp-fleet` transport.
//!
//! [`FleetBackend`] keeps a pool of persistent workers — local
//! `crp_experiments worker --stdio` subprocesses, remote
//! `crp_experiments worker --listen host:port` processes dialled over
//! TCP, or a mix of both from a [`FleetManifest`] — and streams every
//! job's [`ShardSpec`] wire message to whichever worker is free: each
//! cell is encoded once, and each of its jobs is that cell payload plus
//! its job line ([`crp_fleet::job_payload`]).  The
//! dispatcher re-dispatches the jobs of dead or straggling workers and
//! deduplicates completions by job id; because a shard's accumulator is a
//! deterministic function of its spec, retries and duplicates cannot
//! change the statistics, and the shard-order merge stays bit-identical
//! to the serial backend.

use std::net::SocketAddr;
use std::path::PathBuf;

use crp_fleet::{BlobSet, Dispatcher, FleetError, FleetManifest, JobPayload, WorkerEndpoint};

use crate::runner::backend::{JobDoneFn, ShardBackend, ShardJob};
use crate::runner::plan::RunnerConfig;
use crate::runner::process::worker_binary;
use crate::stats::TrialAccumulator;
use crate::SimError;

/// The arguments that put the worker binary into stdio worker mode.
fn stdio_worker_args() -> Vec<String> {
    vec!["worker".to_string(), "--stdio".to_string()]
}

/// Executes shard jobs on a pool of persistent fleet workers.
///
/// The backend owns its [`Dispatcher`], whose worker connections stay
/// *warm* across [`ShardBackend::execute`] calls: repeated runs through
/// the same backend (a sweep service answering submissions, a bench
/// re-running a grid) reuse the same live worker processes, their
/// scenario stores, and their shipped blobs.
pub struct FleetBackend {
    dispatcher: Dispatcher,
}

impl FleetBackend {
    /// A pool of `workers` persistent local subprocesses (clamped to at
    /// least 1), resolving the worker binary automatically.
    ///
    /// # Errors
    ///
    /// [`SimError::Backend`] when the worker binary cannot be located.
    pub fn local(workers: usize) -> Result<Self, SimError> {
        Ok(Self::local_with_command(workers, worker_binary()?))
    }

    /// Like [`FleetBackend::local`], with an explicit worker binary (how
    /// integration tests point the pool at `CARGO_BIN_EXE_crp_experiments`).
    pub fn local_with_command(workers: usize, command: impl Into<PathBuf>) -> Self {
        let command = command.into();
        Self::with_endpoints(
            (0..workers.max(1))
                .map(|_| WorkerEndpoint::local(command.clone(), stdio_worker_args()))
                .collect(),
        )
    }

    /// A pool described by a [`FleetManifest`]: `local:N` entries become
    /// N spawned subprocesses, `host:port` entries are dialled over TCP.
    ///
    /// # Errors
    ///
    /// [`SimError::Backend`] when the manifest names local workers and
    /// the worker binary cannot be located.
    pub fn from_manifest(manifest: &FleetManifest) -> Result<Self, SimError> {
        let needs_local = manifest
            .entries()
            .iter()
            .any(|entry| matches!(entry, crp_fleet::FleetEntry::Local { .. }));
        let program = if needs_local {
            worker_binary()?
        } else {
            PathBuf::new()
        };
        Ok(Self::with_endpoints(
            manifest.endpoints(program, stdio_worker_args()),
        ))
    }

    /// The pool a [`RunnerConfig`] selects: its
    /// [`RunnerConfig::fleet`] manifest when set, otherwise
    /// `config.threads` local subprocess workers — with the config's
    /// [`RunnerConfig::chaos`] plan (if any) compiled onto the pool's
    /// local endpoints as `--fault` arguments, and a
    /// [`RunnerConfig::accept_workers`] registration listener bound
    /// when configured.
    ///
    /// # Errors
    ///
    /// [`SimError::Backend`] when a needed worker binary cannot be
    /// located, the chaos plan targets an endpoint it cannot sabotage,
    /// or the registration listener cannot be bound.
    pub fn from_config(config: &RunnerConfig) -> Result<Self, SimError> {
        let backend = match &config.fleet {
            Some(manifest) => Self::from_manifest(manifest),
            None => Self::local(config.threads),
        }?;
        let backend = match &config.chaos {
            None => backend,
            Some(plan) if plan.is_empty() => backend,
            Some(plan) => {
                Self::with_endpoints(plan.apply(backend.endpoints()).map_err(fleet_error)?)
            }
        };
        if let Some(addr) = &config.accept_workers {
            backend.listen_for_workers(addr)?;
        }
        Ok(backend)
    }

    /// A pool over explicit endpoints (the fault-injection tests build
    /// pools mixing healthy and sabotaged workers this way).
    pub fn with_endpoints(endpoints: Vec<WorkerEndpoint>) -> Self {
        Self {
            dispatcher: Dispatcher::new(endpoints),
        }
    }

    /// Opens the elastic-membership registration listener: workers that
    /// run `crp_experiments worker --join <addr>` are folded into
    /// subsequent (or running) batches.  Returns the bound address.
    ///
    /// # Errors
    ///
    /// [`SimError::Backend`] when the address cannot be bound.
    pub fn listen_for_workers(&self, addr: &str) -> Result<SocketAddr, SimError> {
        self.dispatcher
            .listen_for_workers(addr)
            .map_err(fleet_error)
    }

    /// The pool's endpoints.
    pub fn endpoints(&self) -> &[WorkerEndpoint] {
        self.dispatcher.endpoints()
    }
}

fn fleet_error(err: FleetError) -> SimError {
    SimError::Backend {
        what: err.to_string(),
    }
}

impl ShardBackend for FleetBackend {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn execute(
        &self,
        jobs: &[ShardJob<'_>],
        done: JobDoneFn<'_>,
    ) -> Result<Vec<TrialAccumulator>, SimError> {
        // Each cell is encoded once, and each of its jobs ships that
        // payload plus its job line; the masses blobs a cell references
        // by hash travel once per worker (the dispatcher ships a blob to
        // a connection before the first job there that needs it).
        let mut blobs = BlobSet::new();
        // When tracing, every job also carries a deterministic span —
        // derived from the content hash of its payload, never
        // randomness — so the dispatcher's `fleet.dispatch` and the
        // worker's `shard.execute` events correlate across processes.
        // Spans ride outside the payload and never reach the handler's
        // input, so statistics are bit-identical either way.
        let stamp_spans = crp_obs::trace_enabled();
        let payloads: Vec<JobPayload> = jobs
            .chunk_by(|a, b| a.cell == b.cell)
            .flat_map(|cell_jobs| {
                let first = &cell_jobs[0];
                let cell = first
                    .spec
                    .cell_to_wire(first.plan, first.base_seed, &mut blobs);
                cell_jobs.iter().map(move |job| {
                    let payload =
                        crp_fleet::job_payload(&cell.payload, job.shard, job.plan.num_shards());
                    let span = stamp_spans.then(|| crp_obs::SpanContext {
                        id: crp_obs::span_from_hash(&crp_fleet::content_hash(payload.as_bytes())),
                        parent: None,
                    });
                    JobPayload {
                        payload,
                        refs: cell.refs.clone(),
                        span,
                    }
                })
            })
            .collect();
        // Validate inside the dispatcher, before a job settles: a
        // well-framed answer whose accumulator body is corrupt is then
        // retried on another worker instead of failing the whole batch.
        let answers = self
            .dispatcher
            .dispatch(&payloads, &blobs, done, &|_, answer| {
                TrialAccumulator::from_wire(answer).map(|_| ())
            })
            .map_err(fleet_error)?;
        answers
            .iter()
            .map(|answer| {
                TrialAccumulator::from_wire(answer).map_err(|e| SimError::Backend {
                    what: format!("malformed fleet worker accumulator: {e}"),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_pools_expand_local_entries_to_subprocess_endpoints() {
        let manifest = FleetManifest::parse("local:3,127.0.0.1:9311").unwrap();
        let backend = FleetBackend::from_manifest(&manifest);
        // Worker-binary resolution may fail in stripped environments; the
        // interesting property is the expansion, so only assert on
        // success.
        if let Ok(backend) = backend {
            assert_eq!(backend.endpoints().len(), 4);
            assert_eq!(backend.name(), "fleet");
        }
        let remote_only = FleetManifest::parse("127.0.0.1:9311,127.0.0.1:9312").unwrap();
        let backend = FleetBackend::from_manifest(&remote_only).unwrap();
        assert_eq!(
            backend.endpoints(),
            &[
                WorkerEndpoint::tcp("127.0.0.1:9311"),
                WorkerEndpoint::tcp("127.0.0.1:9312"),
            ],
            "remote-only manifests never need the local worker binary"
        );
    }
}
