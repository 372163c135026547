//! The sweep daemon: accept loops sharing a warm [`Dispatcher`] fleet
//! and a [`ResultCache`], executing submissions cache-first.  Up to four
//! client connections are served at once; their submissions take turns,
//! and `stats` requests are answered while a submission runs.
//!
//! A submission carries each cell once: the payload its jobs share and
//! its job count.  For every submission the server computes each content
//! address itself — a job's key is the content hash of its expanded
//! payload (the cell payload plus the job line the server writes), a
//! cell's key the [`cell_hash`] of its job keys — and settles each cell
//! one of two ways:
//!
//! 1. **Cell hit** — a cell whose key is cached returns its merged blob
//!    without touching a single job.
//! 2. **Dispatch** — every job of a missing cell goes to the warm fleet,
//!    after the host canonicalizer has reproduced the cell's job 0 byte
//!    for byte, with the blobs that canonicalizer resolved; the cell's
//!    fresh merge is written back to the cache.  One call vets the whole
//!    cell: its other jobs differ from job 0 only in the index the server
//!    wrote itself.
//!
//! The cache holds merged cells only: one probe and at most one write per
//! cell, never one per job.  A corrupt or truncated cell entry is *never*
//! served: the [`ResultCache`] detects it, the server recomputes all of
//! the cell's jobs, and the overwrite heals the entry.  Because answers
//! are deterministic functions of their payloads, a hit and a recompute
//! are bit-identical — the cache changes wall-clock time, never
//! statistics.
//!
//! The server is payload-agnostic: the host supplies the cell `merge`
//! function, the answer `check` used to vet both worker answers and
//! cache reads, and the job `canonicalize` (`crp_experiments serve`
//! plugs in the `TrialAccumulator` and `ShardSpec` codecs).

use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crp_fleet::frame::{write_frame, FrameReader};
use crp_fleet::{BlobSet, Dispatcher, JobPayload, WorkerEndpoint};

use crate::cache::ResultCache;
use crate::obs::Tenants;
use crate::wire::{
    cell_hash, CellOutcome, ServeMessage, Submission, SubmissionCell, SubmissionOutcome,
    SERVICE_VERSION,
};
use crate::ServeError;

/// Merges one cell's job answers (in submission order) into the cell's
/// result blob.  Supplied by the host; `crp-sim` merges accumulators in
/// shard order here.
pub type CellMerger<'a> = &'a (dyn Fn(&[String]) -> Result<String, String> + Sync);

/// Validates an answer blob — applied to worker answers *before* they
/// settle and to cache reads *before* they are served, so a stale or
/// semantically invalid entry is recomputed instead of returned.
pub type AnswerCheck<'a> = &'a (dyn Fn(&str) -> Result<(), String> + Sync);

/// Re-encodes a job payload in its one canonical spelling, resolving the
/// blob references it makes through the supplied lookup.  The server
/// passes it job 0 of each cell it dispatches: the cell's jobs are
/// dispatched, and its answer cached, only when this reproduces that
/// payload byte for byte — so each job has exactly one key — and they
/// ship with exactly the blobs the lookup resolved.  The other jobs
/// differ from job 0 only in their index, so a canonicalizer must reject
/// a job line whose count does not fit the cell payload.
pub type Canonicalizer<'a> =
    &'a (dyn Fn(&str, &dyn Fn(&str) -> Option<String>) -> Result<String, String> + Sync);

/// The three host-supplied hooks a payload-agnostic server needs
/// (`crp_sim::service::sweep_hooks` supplies the accumulator-codec
/// implementations the CLI uses).
#[derive(Clone, Copy)]
pub struct SubmissionHooks<'a> {
    /// Merges one cell's job answers (in submission order) into the
    /// cell's result blob.
    pub merge: CellMerger<'a>,
    /// Validates an answer blob — worker answers before they settle and
    /// cache reads before they are served.
    pub check: AnswerCheck<'a>,
    /// Re-encodes a job payload in its canonical spelling.
    pub canonicalize: Canonicalizer<'a>,
}

/// How many client connections the daemon serves at once.  Submissions
/// still run one at a time; the other connections answer hellos and
/// `stats` meanwhile, so a client that resubmits as soon as its answer
/// arrives cannot starve an operator's `stats` request.
const CONNECTIONS: usize = 4;

/// A progress sink: `(settled_jobs, total_jobs, cache_hits)`.
pub type ProgressSink<'a> = &'a (dyn Fn(usize, usize, usize) + Sync);

/// The sweep service daemon.
pub struct SweepServer {
    listener: TcpListener,
    dispatcher: Dispatcher,
    cache: Option<ResultCache>,
    tenants: Tenants,
}

impl SweepServer {
    /// Binds the service listener and readies (but does not yet connect)
    /// the worker fleet.  `addr` may use port 0 for tests; read the
    /// bound address back with [`SweepServer::local_addr`].  Without a
    /// cache every submission recomputes (the warm fleet still helps).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        endpoints: Vec<WorkerEndpoint>,
        cache: Option<ResultCache>,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&addr)
            .map_err(|e| ServeError::Io(format!("cannot bind service listener {addr:?}: {e}")))?;
        Ok(Self {
            listener,
            dispatcher: Dispatcher::new(endpoints),
            cache,
            tenants: Tenants::default(),
        })
    }

    /// The actually bound service address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// The warm fleet behind this server.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// Opens the elastic worker-registration listener on the warm
    /// fleet: workers that dial the returned address
    /// (`crp_experiments worker --join host:port`) are folded into the
    /// event loop of every subsequent — or currently dispatching —
    /// submission.  Returns the bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Fleet`] when the address cannot be bound.
    pub fn listen_for_workers(&self, addr: &str) -> Result<SocketAddr, ServeError> {
        self.dispatcher
            .listen_for_workers(addr)
            .map_err(ServeError::from)
    }

    /// Accepts and serves client connections until a client sends
    /// `serve-shutdown`, then stops the workers.  Up to four connections
    /// are served at once, each by its own accept loop; submissions take
    /// turns over the shared warm fleet, so a `stats` request is answered
    /// while a submission runs instead of after it.  Connections still
    /// being served finish before this returns.  Per-connection protocol
    /// errors are reported on stderr and do not stop the daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when an accept loop itself fails.
    pub fn serve(&self, hooks: SubmissionHooks<'_>) -> Result<(), ServeError> {
        // Where a stopping loop dials to wake the others.
        let mut addr = self.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stopping = AtomicBool::new(false);
        let submissions = Mutex::new(());
        let loops: Vec<Result<(), ServeError>> = std::thread::scope(|scope| {
            let loops: Vec<_> = (0..CONNECTIONS)
                .map(|_| scope.spawn(|| self.accept_loop(hooks, &submissions, &stopping, addr)))
                .collect();
            loops
                .into_iter()
                .map(|handle| handle.join().expect("an accept loop panicked"))
                .collect()
        });
        self.dispatcher.shutdown_workers();
        loops.into_iter().collect()
    }

    /// One accept loop of [`SweepServer::serve`]: serves one connection
    /// at a time until any loop stops the daemon (a shutdown request or
    /// a failed accept), and the first to stop wakes the others.
    fn accept_loop(
        &self,
        hooks: SubmissionHooks<'_>,
        submissions: &Mutex<()>,
        stopping: &AtomicBool,
        addr: SocketAddr,
    ) -> Result<(), ServeError> {
        let outcome = loop {
            let accepted = self.listener.accept();
            if stopping.load(Ordering::SeqCst) {
                break Ok(());
            }
            let (stream, peer) = match accepted {
                Ok(accepted) => accepted,
                Err(e) => break Err(ServeError::Io(format!("service accept failed: {e}"))),
            };
            match self.serve_connection(stream, hooks, submissions) {
                Ok(true) => break Ok(()),
                Ok(false) => {}
                Err(err) => eprintln!("crp-serve: connection {peer}: {err}"),
            }
        };
        if !stopping.swap(true, Ordering::SeqCst) {
            // Each connection wakes one loop blocked in `accept`, which
            // then sees `stopping`.
            for _ in 1..CONNECTIONS {
                let _ = TcpStream::connect(addr);
            }
        }
        outcome
    }

    /// Serves one client connection.  Returns `Ok(true)` when the client
    /// asked the daemon to shut down.  Its submissions run while it holds
    /// `submissions`, one at a time across connections.
    fn serve_connection(
        &self,
        stream: TcpStream,
        hooks: SubmissionHooks<'_>,
        submissions: &Mutex<()>,
    ) -> Result<bool, ServeError> {
        stream.set_nodelay(true).ok();
        let mut reader = FrameReader::new(&stream);
        let writer = Mutex::new(&stream);
        let send = |message: &ServeMessage| -> Result<(), ServeError> {
            let mut guard = writer.lock().expect("no server panics");
            write_frame(&mut *guard, &message.encode()).map_err(ServeError::from)
        };
        send(&ServeMessage::Hello {
            version: SERVICE_VERSION,
        })?;
        let mut tenant = self.tenants.admit("anonymous");
        loop {
            let Some(frame) = reader.read_frame()? else {
                return Ok(false);
            };
            match ServeMessage::decode(&frame)? {
                ServeMessage::ClientHello { tenant: raw } => {
                    tenant = self.tenants.admit(&raw);
                }
                ServeMessage::Submit { id, body } => {
                    // Progress write failures are ignored: a vanished
                    // client must not abort the batch mid-dispatch (the
                    // results still land in the cache for next time).
                    let progress = |settled: usize, total: usize, hits: usize| {
                        let _ = send(&ServeMessage::Progress {
                            id,
                            completed: settled,
                            total,
                            hits,
                        });
                    };
                    let outcome = Submission::decode(&body).and_then(|submission| {
                        let _turn = submissions.lock().expect("no submission panics");
                        self.run_submission(&submission, hooks, &progress)
                    });
                    match outcome {
                        Ok(outcome) => {
                            crate::obs::record_tenant_submission(
                                crp_obs::global(),
                                &tenant,
                                outcome.jobs_total as u64,
                                outcome.job_hits as u64,
                                outcome.computed as u64,
                            );
                            send(&ServeMessage::Result {
                                id,
                                body: outcome.encode(),
                            })?
                        }
                        Err(err) => send(&ServeMessage::Error {
                            id,
                            message: err.to_string(),
                        })?,
                    }
                }
                ServeMessage::Stats { id } => send(&ServeMessage::StatsReport {
                    id,
                    body: self.stats_report(),
                })?,
                ServeMessage::Shutdown => return Ok(true),
                other => {
                    return Err(ServeError::Malformed(format!(
                        "server received an unexpected {other:?}"
                    )))
                }
            }
        }
    }

    /// Renders the daemon's live observability report: the shared
    /// cache summary, the per-tenant submission summary, every
    /// workspace counter/gauge/histogram, the per-worker fleet health
    /// snapshot, and the fleet-wide metrics pull (the merged rollup
    /// plus every worker's shipped snapshot).  This is the body of the
    /// `stats-report` frame answering a [`ServeMessage::Stats`]
    /// request.
    pub fn stats_report(&self) -> String {
        let snapshot = crp_obs::global().snapshot();
        let mut body = format!("submit: {}\n", crate::obs::cache_summary_from(&snapshot));
        body.push_str(&crate::obs::tenant_summary(&snapshot));
        body.push_str(&snapshot.render());
        let fleet = self.dispatcher.snapshot();
        if !fleet.workers.is_empty() {
            body.push_str(&fleet.render());
        }
        let metrics = self.dispatcher.worker_metrics();
        if !metrics.workers.is_empty() {
            body.push_str(&metrics.render());
        }
        body
    }

    /// A cell-cache probe that only ever returns a *trustworthy* value: a
    /// missing entry, a [`ServeError::CorruptCache`], or a value failing
    /// the host's `check` all read as a miss (the recompute overwrites
    /// and heals the entry).  Genuine I/O failures propagate.
    fn cache_probe(&self, key: &str, check: AnswerCheck<'_>) -> Result<Option<String>, ServeError> {
        let Some(cache) = &self.cache else {
            return Ok(None);
        };
        match cache.get(key) {
            Ok(Some(value)) => {
                if check(&value).is_ok() {
                    crate::obs::probe_hit(key, value.len());
                    Ok(Some(value))
                } else {
                    crate::obs::probe_heal(key);
                    Ok(None)
                }
            }
            Ok(None) => {
                crate::obs::probe_miss(key);
                Ok(None)
            }
            Err(ServeError::CorruptCache { .. }) => {
                crate::obs::probe_heal(key);
                Ok(None)
            }
            Err(other) => Err(other),
        }
    }

    fn cache_put(&self, key: &str, value: &str) -> Result<(), ServeError> {
        match &self.cache {
            Some(cache) => {
                crp_obs::global().add(crate::obs::CACHE_WRITE_BYTES, value.len() as u64);
                cache.put(key, value)
            }
            None => Ok(()),
        }
    }

    /// Executes one submission: cell cache → warm fleet dispatch of every
    /// job of each missing cell → merge, writing each fresh merge back.
    /// Every key is computed here from the submitted bytes: a job's is the
    /// content hash of its expanded payload, a cell's the [`cell_hash`]
    /// of its job keys.  Each missing cell is canonicalised once, through
    /// its job 0.  `progress` fires as `(settled_jobs, total_jobs,
    /// cache_hits)` — once after the cache scan, then per dispatched
    /// completion.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for a cell whose job 0 the canonicalizer
    /// rejects or respells (raised before anything is dispatched), cache
    /// I/O failures, fleet dispatch failures, and merge failures.
    pub fn run_submission(
        &self,
        submission: &Submission,
        hooks: SubmissionHooks<'_>,
        progress: ProgressSink<'_>,
    ) -> Result<SubmissionOutcome, ServeError> {
        let started = std::time::Instant::now();
        let check = hooks.check;
        let total = submission.job_count();
        let job_keys: Vec<Vec<String>> = submission
            .cells
            .iter()
            .map(SubmissionCell::job_keys)
            .collect();
        let cell_keys: Vec<String> = job_keys.iter().map(|keys| cell_hash(keys)).collect();
        // The submission's trace span is derived from its content — the
        // hash of the ordered cell-key list — so identical submissions
        // carry identical spans across processes and reruns, and
        // stamping never consumes randomness.
        let submission_span = crp_obs::span_from_hash(&cell_hash(&cell_keys));
        if crp_obs::trace_enabled() {
            let mut event = crp_obs::TraceEvent::new("serve.submission")
                .u64("cells", submission.cells.len() as u64)
                .u64("jobs", total as u64);
            event = crp_obs::SpanContext::new(&submission_span).stamp(event);
            crp_obs::emit(&event);
        }

        // Phase 1: settle whole cells from the cache; the others are
        // missing, in cell order.
        let mut cell_cached: Vec<Option<String>> = Vec::with_capacity(submission.cells.len());
        let mut missing: Vec<usize> = Vec::new();
        let mut hits = 0usize;
        for (cell_index, cell_key) in cell_keys.iter().enumerate() {
            let keys = &job_keys[cell_index];
            // Emitted before any of the cell's jobs dispatch, so within
            // this file a job span's parent (the cell span) always
            // appears first — the ordering `trace-check` verifies.
            if crp_obs::trace_enabled() {
                let event = crp_obs::TraceEvent::new("serve.cell")
                    .str("hash", cell_key)
                    .u64("jobs", keys.len() as u64);
                crp_obs::emit(
                    &crp_obs::SpanContext::with_parent(
                        crp_obs::span_from_hash(cell_key),
                        submission_span.clone(),
                    )
                    .stamp(event),
                );
            }
            let cached = self.cache_probe(cell_key, check)?;
            match cached {
                Some(_) => hits += keys.len(),
                None => missing.push(cell_index),
            }
            cell_cached.push(cached);
        }
        progress(hits, total, hits);

        // Phase 2: dispatch the missing cells' jobs to the warm fleet,
        // each cell down the one path `canonical_refs` vets.
        let computed = total - hits;
        let mut fresh = Vec::new().into_iter();
        if computed > 0 {
            let mut payloads = Vec::with_capacity(computed);
            for &cell_index in &missing {
                let cell = &submission.cells[cell_index];
                let keys = &job_keys[cell_index];
                // Job 0 vets the whole cell (see `Canonicalizer`); a cell
                // of no jobs has nothing to vet or dispatch.
                let Some(first) = keys.first() else {
                    continue;
                };
                let refs =
                    canonical_refs(&cell.job(0), first, hooks.canonicalize, &submission.blobs)?;
                // Every dispatched job carries its deterministic span
                // (derived from its key), parented on its cell —
                // unconditionally, because stamping costs two string
                // slices and never influences execution.
                let parent = crp_obs::span_from_hash(&cell_keys[cell_index]);
                for (index, key) in keys.iter().enumerate() {
                    let span = crp_obs::SpanContext {
                        id: crp_obs::span_from_hash(key),
                        parent: Some(parent.clone()),
                    };
                    payloads.push(JobPayload::new(cell.job(index), refs.clone()).with_span(span));
                }
            }
            let settled = Mutex::new(hits);
            fresh = self
                .dispatcher
                .dispatch(
                    &payloads,
                    &submission.blobs,
                    &|_| {
                        let mut settled = settled.lock().expect("no server panics");
                        *settled += 1;
                        progress(*settled, total, hits);
                    },
                    &|_, answer| check(answer),
                )
                .map_err(ServeError::from)?
                .into_iter();
        }

        // Phase 3: merge non-cached cells and persist the merges.  The
        // answers come back in dispatch order, so each missing cell's
        // answers are the next ones, in job order.
        let mut outcomes = Vec::with_capacity(submission.cells.len());
        for ((cell_key, cached), keys) in cell_keys.into_iter().zip(cell_cached).zip(&job_keys) {
            if let Some(blob) = cached {
                outcomes.push(CellOutcome {
                    hash: cell_key,
                    cached: true,
                    blob,
                });
                continue;
            }
            let cell_answers: Vec<String> = fresh.by_ref().take(keys.len()).collect();
            let blob = (hooks.merge)(&cell_answers)
                .map_err(|e| ServeError::Server(format!("merging cell {cell_key} failed: {e}")))?;
            self.cache_put(&cell_key, &blob)?;
            outcomes.push(CellOutcome {
                hash: cell_key,
                cached: false,
                blob,
            });
        }
        crate::obs::record_submission(
            crp_obs::global(),
            total as u64,
            hits as u64,
            computed as u64,
        );
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        crp_obs::global().observe(crate::obs::SUBMIT_MICROS, micros);
        if crp_obs::trace_enabled() {
            let event = crp_obs::TraceEvent::new("serve.submit")
                .u64("jobs", total as u64)
                .u64("hits", hits as u64)
                .u64("computed", computed as u64)
                .u64("micros", micros);
            crp_obs::emit(&crp_obs::SpanContext::new(&submission_span).stamp(event));
        }
        Ok(SubmissionOutcome {
            cells: outcomes,
            jobs_total: total,
            job_hits: hits,
            computed,
        })
    }
}

/// Vets one job before it is dispatched: `canonicalize` must reproduce
/// `payload` byte for byte, so the job has one spelling and therefore
/// one key.  Returns the blob hashes the canonicalizer resolved — the
/// blobs the job ships with.
fn canonical_refs(
    payload: &str,
    key: &str,
    canonicalize: Canonicalizer<'_>,
    blobs: &BlobSet,
) -> Result<Vec<String>, ServeError> {
    let resolved = RefCell::new(Vec::<String>::new());
    let resolve = |hash: &str| {
        let blob = blobs.get(hash)?;
        let mut resolved = resolved.borrow_mut();
        if !resolved.iter().any(|seen| seen == hash) {
            resolved.push(hash.to_string());
        }
        Some(blob.to_string())
    };
    let canonical = canonicalize(payload, &resolve)
        .map_err(|e| ServeError::Malformed(format!("cannot canonicalise job {key}: {e}")))?;
    if canonical != payload {
        return Err(ServeError::Malformed(format!(
            "job {key} is not in canonical form"
        )));
    }
    Ok(resolved.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::ScratchDir;
    use crate::client::ServeClient;
    use crate::wire::{cell_hash, SubmissionCell};
    use crp_fleet::worker::{ScenarioStore, ServeOptions};
    use crp_fleet::TcpWorker;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A deterministic "shard worker": answers `echo:<payload>`, and
    /// counts executions so tests can prove what the cache absorbed.
    fn spawn_counting_worker() -> (String, Arc<AtomicUsize>) {
        let executions = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&executions);
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let handler = move |payload: &str| -> Result<String, String> {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(format!("echo:{payload}"))
            };
            worker.serve_forever(&handler, &ServeOptions::default(), &ScenarioStore::new())
        });
        (addr, executions)
    }

    fn cell(name: &str, jobs: usize) -> SubmissionCell {
        SubmissionCell {
            payload: format!("{name}\n"),
            jobs,
        }
    }

    fn demo_submission() -> Submission {
        Submission {
            blobs: BlobSet::new(),
            cells: vec![cell("cell-a", 2), cell("cell-b", 1)],
        }
    }

    /// The merged blob the echo worker gives for `cell`: every expanded
    /// job, byte for byte, in merge order.
    fn echoed(cell: &SubmissionCell) -> String {
        (0..cell.jobs)
            .map(|index| format!("echo:{}", cell.job(index)))
            .collect::<Vec<_>>()
            .join("+")
    }

    fn merge(answers: &[String]) -> Result<String, String> {
        Ok(answers.join("+"))
    }

    fn check(answer: &str) -> Result<(), String> {
        if answer.starts_with("echo:") || answer.contains("+echo:") {
            Ok(())
        } else {
            Err(format!("unexpected answer {answer:?}"))
        }
    }

    /// The canonical spelling of a test job has no leading whitespace.
    fn trim_canonicalizer(
        payload: &str,
        _resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<String, String> {
        Ok(payload.trim_start().to_string())
    }

    fn hooks() -> SubmissionHooks<'static> {
        SubmissionHooks {
            merge: &merge,
            check: &check,
            canonicalize: &trim_canonicalizer,
        }
    }

    /// A scratch cache directory, removed when the guard drops.
    fn scratch_dir(tag: &str) -> ScratchDir {
        ScratchDir::new(format!("crp-serve-test-{tag}-{}", std::process::id()))
    }

    /// Resolves every `ref <hash>` line of a payload and changes nothing.
    fn resolving_canonicalizer(
        payload: &str,
        resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<String, String> {
        for hash in payload.lines().filter_map(|line| line.strip_prefix("ref ")) {
            resolve(hash).ok_or_else(|| format!("no blob {hash}"))?;
        }
        Ok(payload.to_string())
    }

    #[test]
    fn jobs_ship_exactly_the_blobs_their_canonicalizer_resolved() {
        let mut blobs = BlobSet::new();
        let used = blobs.insert("a referenced blob");
        blobs.insert("a blob no job references");
        let payload = format!("job\nref {used}\nref {used}\n");
        let refs = canonical_refs(&payload, "key", &resolving_canonicalizer, &blobs).unwrap();
        assert_eq!(
            refs,
            vec![used.clone()],
            "each resolved blob once, nothing else"
        );

        let dangling = payload.replace(&used, &crp_fleet::content_hash(b"absent"));
        let err = canonical_refs(&dangling, "key", &resolving_canonicalizer, &blobs).unwrap_err();
        assert!(matches!(err, ServeError::Malformed(_)), "{err}");
    }

    #[test]
    fn submissions_settle_from_cache_on_resubmission() {
        let (addr, executions) = spawn_counting_worker();
        let scratch = scratch_dir("resubmit");
        let server = SweepServer::bind(
            "127.0.0.1:0",
            vec![crp_fleet::WorkerEndpoint::tcp(addr)],
            Some(scratch.cache()),
        )
        .unwrap();
        let submission = demo_submission();

        let first = server
            .run_submission(&submission, hooks(), &|_, _, _| {})
            .unwrap();
        assert_eq!(first.jobs_total, 3);
        assert_eq!(first.job_hits, 0);
        assert_eq!(first.computed, 3);
        assert_eq!(executions.load(Ordering::SeqCst), 3);
        assert_eq!(first.cells[0].blob, echoed(&submission.cells[0]));
        assert!(!first.cells[0].cached);

        // Bit-identical answers, zero worker executions, 100% hits.
        let second = server
            .run_submission(&submission, hooks(), &|_, _, _| {})
            .unwrap();
        assert_eq!(second.job_hits, 3);
        assert_eq!(second.computed, 0);
        assert!(second.cells.iter().all(|c| c.cached));
        assert_eq!(executions.load(Ordering::SeqCst), 3, "nothing recomputed");
        for (a, b) in first.cells.iter().zip(&second.cells) {
            assert_eq!(a.blob, b.blob, "cache hits must be bit-identical");
        }

        // An overlapping submission: one old cell, one new — only the
        // new cell's job is computed.
        let overlapping = Submission {
            blobs: BlobSet::new(),
            cells: vec![cell("cell-a", 2), cell("cell-c", 1)],
        };
        let third = server
            .run_submission(&overlapping, hooks(), &|_, _, _| {})
            .unwrap();
        assert_eq!(third.job_hits, 2);
        assert_eq!(third.computed, 1);
        assert_eq!(executions.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn each_missing_cell_is_canonicalised_once_not_once_per_job() {
        let (addr, executions) = spawn_counting_worker();
        let scratch = scratch_dir("canonicalise-once");
        let server = SweepServer::bind(
            "127.0.0.1:0",
            vec![crp_fleet::WorkerEndpoint::tcp(addr)],
            Some(scratch.cache()),
        )
        .unwrap();
        let calls = AtomicUsize::new(0);
        let counting = |payload: &str, resolve: &dyn Fn(&str) -> Option<String>| {
            calls.fetch_add(1, Ordering::SeqCst);
            trim_canonicalizer(payload, resolve)
        };
        let hooks = SubmissionHooks {
            merge: &merge,
            check: &check,
            canonicalize: &counting,
        };
        let grid = |names: &[&str]| Submission {
            blobs: BlobSet::new(),
            cells: names.iter().map(|name| cell(name, 12)).collect(),
        };

        // Cold: 2 cells of 12 jobs each, one canonicalisation per cell,
        // and every expanded job reaches the worker byte for byte.
        let cold = grid(&["cell-a", "cell-b"]);
        let outcome = server.run_submission(&cold, hooks, &|_, _, _| {}).unwrap();
        assert_eq!((outcome.jobs_total, outcome.computed), (24, 24));
        assert_eq!(executions.load(Ordering::SeqCst), 24);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        for (cell, answer) in cold.cells.iter().zip(&outcome.cells) {
            assert_eq!(answer.blob, echoed(cell));
        }

        // Warm: every cell hits, and nothing is canonicalised.
        let warm = server.run_submission(&cold, hooks, &|_, _, _| {}).unwrap();
        assert_eq!(warm.job_hits, 24);
        assert_eq!(calls.load(Ordering::SeqCst), 2);

        // Overlapping: one cached cell and two new ones, one call each.
        let overlapping = grid(&["cell-a", "cell-c", "cell-d"]);
        let outcome = server
            .run_submission(&overlapping, hooks, &|_, _, _| {})
            .unwrap();
        assert_eq!((outcome.job_hits, outcome.computed), (12, 24));
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!(executions.load(Ordering::SeqCst), 48);
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed_not_served() {
        let (addr, executions) = spawn_counting_worker();
        let scratch = scratch_dir("corrupt-recompute");
        let cache = scratch.cache();
        let server = SweepServer::bind(
            "127.0.0.1:0",
            vec![crp_fleet::WorkerEndpoint::tcp(addr)],
            Some(cache.clone()),
        )
        .unwrap();
        let submission = demo_submission();
        let first = server
            .run_submission(&submission, hooks(), &|_, _, _| {})
            .unwrap();

        // Vandalise one cell entry on disk, and plant a garbage entry
        // under one of its job keys (the daemon never reads job keys).
        let job_keys = submission.cells[0].job_keys();
        let cell_key = cell_hash(&job_keys);
        for key in [&job_keys[0], &cell_key] {
            let path = cache.dir().join(&key[..2]).join(format!("{key}.crp"));
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, b"crp-cache v1\ngarbage").unwrap();
            assert!(
                matches!(cache.get(key), Err(ServeError::CorruptCache { .. })),
                "vandalised entry must read as a typed corruption error"
            );
        }

        let executed_before = executions.load(Ordering::SeqCst);
        let again = server
            .run_submission(&submission, hooks(), &|_, _, _| {})
            .unwrap();
        // Cell b still hits; cell a recomputes both of its jobs (the
        // cache holds merged cells only).
        assert_eq!(again.computed, 2);
        assert_eq!(executions.load(Ordering::SeqCst), executed_before + 2);
        assert_eq!(
            again.cells[0].blob, first.cells[0].blob,
            "recomputed cell is bit-identical to the original"
        );
        // The overwrite healed the entries.
        assert!(cache.get(&cell_key).unwrap().is_some());
    }

    #[test]
    fn the_daemon_serves_clients_over_tcp_and_shuts_down() {
        let (addr, _) = spawn_counting_worker();
        let scratch = scratch_dir("daemon");
        let server = SweepServer::bind(
            "127.0.0.1:0",
            vec![crp_fleet::WorkerEndpoint::tcp(addr)],
            Some(scratch.cache()),
        )
        .unwrap();
        let service_addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.serve(hooks()));

        let submission = demo_submission();
        let mut client = ServeClient::connect(service_addr.as_str()).unwrap();
        let progress_calls = AtomicUsize::new(0);
        let outcome = client
            .submit(&submission, |_, _, _| {
                progress_calls.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(outcome.jobs_total, 3);
        assert_eq!(outcome.computed, 3);
        assert!(progress_calls.load(Ordering::SeqCst) >= 1);

        // Second client, same submission: served from cache.
        drop(client);
        let mut client = ServeClient::connect(service_addr.as_str()).unwrap();
        let outcome = client.submit(&submission, |_, _, _| {}).unwrap();
        assert_eq!(outcome.job_hits, 3);

        // The live stats report renders the shared cache summary, the
        // workspace counters, and the per-worker fleet health.
        let report = client.stats().unwrap();
        assert!(report.contains("job cache hits"), "{report}");
        assert!(
            report.contains(crate::obs::CACHE_CELL_HIT),
            "cell hits from the resubmission must show: {report}"
        );
        assert!(report.contains("counter fleet.dispatch"), "{report}");
        assert!(report.contains("worker "), "{report}");
        client.shutdown_server().unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn stats_are_answered_while_a_submission_runs() {
        // A worker whose jobs announce themselves, then wait for the gate.
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let (started, job_started) = std::sync::mpsc::channel();
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let worker_addr = worker.local_addr().unwrap().to_string();
        let held = Arc::clone(&gate);
        std::thread::spawn(move || {
            let handler = move |payload: &str| -> Result<String, String> {
                let _ = started.send(());
                let (open, opened) = &*held;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = opened.wait(open).unwrap();
                }
                Ok(format!("echo:{payload}"))
            };
            worker.serve_forever(&handler, &ServeOptions::default(), &ScenarioStore::new())
        });
        let release = || {
            let (open, opened) = &*gate;
            *open.lock().unwrap() = true;
            opened.notify_all();
        };
        let server = SweepServer::bind(
            "127.0.0.1:0",
            vec![crp_fleet::WorkerEndpoint::tcp(worker_addr)],
            None,
        )
        .unwrap();
        let service_addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.serve(hooks()));

        let submit_addr = service_addr.clone();
        let submitter = std::thread::spawn(move || {
            ServeClient::connect(submit_addr.as_str())
                .and_then(|mut client| client.submit(&demo_submission(), |_, _, _| {}))
        });
        job_started
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the submission reaches the worker");
        // The submission is now blocked on the gate; a stats request on
        // another connection must not wait for it.
        let stats_addr = service_addr.clone();
        let (report_sent, report) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = report_sent.send(
                ServeClient::connect(stats_addr.as_str()).and_then(|mut client| client.stats()),
            );
        });
        let report = report.recv_timeout(std::time::Duration::from_secs(10));
        release();
        let report = report.expect("the stats request waited for the running submission");
        assert!(report.unwrap().contains("submit: "));
        assert_eq!(submitter.join().unwrap().unwrap().computed, 3);

        ServeClient::connect(service_addr.as_str())
            .unwrap()
            .shutdown_server()
            .unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn tenant_hellos_key_counters_and_stats_carry_fleet_metrics() {
        let (addr, _) = spawn_counting_worker();
        let scratch = scratch_dir("tenant");
        let server = SweepServer::bind(
            "127.0.0.1:0",
            vec![crp_fleet::WorkerEndpoint::tcp(addr)],
            Some(scratch.cache()),
        )
        .unwrap();
        let service_addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.serve(hooks()));

        // The raw tenant name is sanitised server-side.
        let mut client = ServeClient::connect_as(service_addr.as_str(), "team red/7").unwrap();
        client.submit(&demo_submission(), |_, _, _| {}).unwrap();
        let report = client.stats().unwrap();
        assert!(
            report.contains("tenant team-red-7: submits=1 jobs=3"),
            "{report}"
        );
        assert!(
            report.contains("counter serve.tenant.team-red-7.jobs 3"),
            "{report}"
        );
        // The fleet-wide metrics pull: a rollup plus the worker's own
        // shipped snapshot.
        assert!(
            report.contains("fleet metrics: 1 reporting, 0 unavailable"),
            "{report}"
        );
        assert!(report.contains("rollup counter "), "{report}");
        assert!(report.contains(" metrics:\n"), "{report}");
        client.shutdown_server().unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn elastically_joined_workers_serve_submissions() {
        // No fixed endpoints: the whole fleet joins through the
        // registration listener.
        let server = SweepServer::bind("127.0.0.1:0", Vec::new(), None).unwrap();
        let join_addr = server
            .listen_for_workers("127.0.0.1:0")
            .unwrap()
            .to_string();
        std::thread::spawn(move || {
            let handler =
                |payload: &str| -> Result<String, String> { Ok(format!("echo:{payload}")) };
            let _ = crp_fleet::join_fleet(
                join_addr.as_str(),
                &handler,
                &ServeOptions::default(),
                &ScenarioStore::new(),
            );
        });
        let submission = demo_submission();
        let outcome = server
            .run_submission(&submission, hooks(), &|_, _, _| {})
            .unwrap();
        assert_eq!(outcome.computed, 3);
        assert_eq!(outcome.cells[0].blob, echoed(&submission.cells[0]));
    }

    #[test]
    fn bad_submissions_get_a_typed_error_frame() {
        let server = SweepServer::bind("127.0.0.1:0", Vec::new(), None).unwrap();
        let service_addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.serve(hooks()));

        // A respelled job never reaches the (empty) fleet.
        let mut respelled = demo_submission();
        respelled.cells[0].payload.insert(0, ' ');
        let mut client = ServeClient::connect(service_addr.as_str()).unwrap();
        let err = client.submit(&respelled, |_, _, _| {}).unwrap_err();
        assert!(matches!(err, ServeError::Server(_)), "got {err}");
        assert!(err.to_string().contains("not in canonical form"), "{err}");

        // Neither does a cell of no jobs, nor one whose expanded jobs
        // would outgrow a frame: the body decoder refuses both.
        for (jobs, needle) in [
            (0, "line 4: \"0\" is not a job count of at least 1"),
            (usize::MAX, "line 4: the cells so far expand to more than"),
        ] {
            let mut miscounted = demo_submission();
            miscounted.cells[0].jobs = jobs;
            let err = client.submit(&miscounted, |_, _, _| {}).unwrap_err();
            assert!(matches!(err, ServeError::Server(_)), "got {err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
        client.shutdown_server().unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn a_cell_of_no_jobs_merges_nothing_and_dispatches_nothing() {
        // Only a library caller can build one; the body decoder refuses it.
        let server = SweepServer::bind("127.0.0.1:0", Vec::new(), None).unwrap();
        let submission = Submission {
            blobs: BlobSet::new(),
            cells: vec![cell("cell-a", 0)],
        };
        let outcome = server
            .run_submission(&submission, hooks(), &|_, _, _| {})
            .unwrap();
        assert_eq!((outcome.jobs_total, outcome.computed), (0, 0));
        assert_eq!(outcome.cells[0].blob, "");
    }
}
