//! The fleet dispatcher: a batch of opaque jobs scheduled over a pool of
//! worker endpoints.
//!
//! A batch runs on one readiness event loop on the dispatching thread
//! (the crate's `event_loop` module): every endpoint is a non-blocking
//! source, queued jobs go to whichever connection has spare capacity, and
//! the dispatcher handles the failure modes a pool of real processes and
//! sockets adds:
//!
//! * **Dead workers** — a connect failure, a closed stream, or a
//!   malformed answer makes the job go back on the queue for another
//!   worker; the connection is dropped and re-established (local workers
//!   are respawned) up to a per-endpoint limit before the endpoint is
//!   given up.
//! * **Wedged workers** — a connection that goes silent with work in
//!   flight is pinged; a ping that stays unanswered makes the
//!   connection [`FleetError::Unresponsive`] and its jobs are
//!   re-dispatched immediately instead of waiting for the batch tail's
//!   straggler machinery (or forever, on a single-worker pool).
//! * **Stragglers** — once the queue is empty, idle workers re-dispatch
//!   the jobs still outstanding on other workers (preferring the least
//!   duplicated job, and only after a short grace period so an ordinary
//!   batch tail is not duplicated pointlessly).  Whichever copy answers
//!   first wins, and the batch returns as soon as every job settled, so
//!   a wedged worker can delay but never hang [`Dispatcher::dispatch`].
//! * **Poisoned answers** — [`Dispatcher::dispatch`] checks every
//!   answer with the caller's validator before its job settles; a
//!   well-framed reply whose body fails validation is retried elsewhere
//!   like any transport failure.
//! * **Failing jobs** — a worker that rejects a job, or whose handler
//!   panics on it, answers `failed`; that is deterministic, so the batch
//!   ends with [`FleetError::Job`] instead of retrying it.  Once the
//!   lowest-indexed failure and every job below it are settled, the
//!   batch's result is fixed: no further job is dispatched, and the
//!   batch returns as soon as the jobs already in flight are answered.
//! * **Dedup by job id** — every completion is recorded at most once, so
//!   duplicated answers from straggler re-dispatch (or a slow worker
//!   racing its replacement) are dropped and the per-job completion
//!   callback fires exactly once.
//!
//! Two capabilities are layered over that core:
//!
//! * **Pipelining** — the worker's `hello` advertises a capacity, and
//!   the dispatcher keeps up to that many jobs in flight on the
//!   connection; answers are matched by job id, in whatever order they
//!   come back.
//! * **Content-addressed blobs** — a [`JobPayload`] may reference blobs
//!   from a [`BlobSet`] by hash; the dispatcher ships each blob to a
//!   connection once (`scenario-put`) before the first job that needs
//!   it.
//!
//! Connections are *warm*: a [`Dispatcher`] keeps each endpoint's
//! connection (and therefore its spawned local worker process) alive
//! between `dispatch` calls.  This is what lets a long-running sweep
//! service answer back-to-back submissions without re-paying process
//! spawn or blob shipping.
//!
//! Because a job's answer is required to be a deterministic function of
//! its payload (shard answers are — that is the whole bit-identical
//! merge guarantee), *which* worker answers never changes the result,
//! only the wall-clock time.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

use crp_obs::SpanContext;

use crate::endpoint::{DispatchTuning, WorkerEndpoint};
use crate::event_loop::{self, WarmPool};
use crate::hash::content_hash;
use crate::obs::{FleetMetrics, FleetObs, FleetSnapshot, WorkerMetrics};
use crate::FleetError;

/// Validates a worker's answer *before* the job settles: return `Err`
/// and the answer is treated exactly like a transport failure — the
/// connection is dropped and the job re-dispatched — instead of
/// poisoning the batch.  This is how `crp-sim` rejects a well-framed
/// `done` whose accumulator body is corrupt.
pub type AnswerValidator<'a> = &'a (dyn Fn(u64, &str) -> Result<(), String> + Sync);

/// One dispatchable job: the payload a worker executes, the [`BlobSet`]
/// entries it references by content hash (shipped to a worker before
/// the first job that needs them), and an optional trace span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPayload {
    /// The payload the worker's handler receives.
    pub payload: String,
    /// The content hashes `payload` references (empty for a
    /// self-contained payload).
    pub refs: Vec<String>,
    /// The job's trace span, carried in the job frame so the worker's
    /// trace events correlate with the dispatcher's.  Never affects
    /// scheduling or answers.
    pub span: Option<SpanContext>,
}

impl JobPayload {
    /// A job whose payload references `refs` from the batch's
    /// [`BlobSet`].
    pub fn new(payload: impl Into<String>, refs: Vec<String>) -> Self {
        Self {
            payload: payload.into(),
            refs,
            span: None,
        }
    }

    /// Attaches a trace span (builder style).
    pub fn with_span(mut self, span: SpanContext) -> Self {
        self.span = Some(span);
        self
    }
}

/// The content-addressed blobs a batch's payloads reference, iterated in
/// hash order so anything encoded from a set is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlobSet {
    blobs: BTreeMap<String, String>,
}

impl BlobSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `blob` under its [`content_hash`] and returns the hash
    /// (idempotent — the same bytes always land on the same key).
    pub fn insert(&mut self, blob: impl Into<String>) -> String {
        let blob = blob.into();
        let hash = content_hash(blob.as_bytes());
        self.blobs.entry(hash.clone()).or_insert(blob);
        hash
    }

    /// The blob stored under `hash`, if any.
    pub fn get(&self, hash: &str) -> Option<&str> {
        self.blobs.get(hash).map(String::as_str)
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Iterates over `(hash, blob)` pairs in ascending hash order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.blobs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// Schedules batches of jobs over a pool of [`WorkerEndpoint`]s,
/// keeping each endpoint's connection warm between batches.
pub struct Dispatcher {
    pub(crate) endpoints: Vec<WorkerEndpoint>,
    pub(crate) max_attempts: usize,
    pub(crate) tuning: DispatchTuning,
    /// The event loop's warm connections, registration listener, and
    /// elastically joined workers, carried across `dispatch` calls.
    pub(crate) warm: Mutex<WarmPool>,
    /// Per-worker health counters behind [`Dispatcher::snapshot`],
    /// accumulated across batches.
    pub(crate) obs: FleetObs,
}

/// One batch's scheduling state, owned outright by the event loop.
pub(crate) struct State {
    /// Jobs waiting for a (first or retry) dispatch.
    pub(crate) queue: VecDeque<usize>,
    /// How many workers are currently running each job.
    pub(crate) in_flight: Vec<usize>,
    /// Calls actually made per job (connect failures do not count).
    pub(crate) attempts: Vec<usize>,
    /// When each job was last claimed, for the straggler grace period.
    pub(crate) claimed_at: Vec<Option<Instant>>,
    /// Successful answers, in job order.
    pub(crate) results: Vec<Option<String>>,
    /// Permanent failures (worker-reported, or retries exhausted).
    pub(crate) failures: Vec<Option<FleetError>>,
    /// The most recent transport-level failure, for diagnostics.
    pub(crate) last_transport_error: Option<String>,
}

impl State {
    pub(crate) fn new(jobs: usize) -> Self {
        Self {
            queue: (0..jobs).collect(),
            in_flight: vec![0; jobs],
            attempts: vec![0; jobs],
            claimed_at: vec![None; jobs],
            results: vec![None; jobs],
            failures: vec![None; jobs],
            last_transport_error: None,
        }
    }

    pub(crate) fn is_settled(&self, job: usize) -> bool {
        self.results[job].is_some() || self.failures[job].is_some()
    }

    /// True once the batch's result can no longer change: the lowest job
    /// without an answer has failed, so its failure is what
    /// [`Dispatcher::dispatch`] reports whatever the jobs above it do.
    pub(crate) fn failure_is_final(&self) -> bool {
        self.results
            .iter()
            .zip(&self.failures)
            .find(|(result, _)| result.is_none())
            .is_some_and(|(_, failure)| failure.is_some())
    }

    /// Marks a claim: one more attempt, one more copy in flight.
    pub(crate) fn claim(&mut self, job: usize) {
        self.attempts[job] += 1;
        self.in_flight[job] += 1;
        self.claimed_at[job] = Some(Instant::now());
    }

    /// Records a transport failure mid-job: re-dispatches it while
    /// attempts remain, otherwise (and only once no copy is still in
    /// flight) declares the job failed.
    pub(crate) fn requeue_or_fail(&mut self, job: usize, error: &FleetError, max_attempts: usize) {
        self.in_flight[job] -= 1;
        self.last_transport_error = Some(error.to_string());
        if !self.is_settled(job) {
            if self.attempts[job] < max_attempts {
                self.queue.push_back(job);
            } else if self.in_flight[job] == 0 {
                self.failures[job] = Some(FleetError::Exhausted {
                    id: job as u64,
                    attempts: self.attempts[job],
                    last: error.to_string(),
                });
            }
        }
    }
}

impl Dispatcher {
    /// A dispatcher over the given pool.  Each job is attempted at most
    /// `max(3, 2 × pool size)` times before it is declared failed.  The
    /// handshake, health-check and straggler timings are fixed
    /// constants.
    pub fn new(endpoints: Vec<WorkerEndpoint>) -> Self {
        let max_attempts = (2 * endpoints.len()).max(3);
        let warm = Mutex::new(WarmPool::with_fixed(endpoints.len()));
        Self {
            endpoints,
            max_attempts,
            tuning: DispatchTuning::default(),
            warm,
            obs: FleetObs::default(),
        }
    }

    /// Overrides the per-job attempt cap.
    #[cfg(test)]
    pub(crate) fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Overrides the timing knobs (handshake, pings, straggler grace).
    #[cfg(test)]
    pub(crate) fn with_tuning(mut self, tuning: DispatchTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The pool this dispatcher schedules over.
    pub fn endpoints(&self) -> &[WorkerEndpoint] {
        &self.endpoints
    }

    /// An on-demand view of per-worker health: jobs dispatched,
    /// completed, requeued, pings sent, and jobs currently in flight —
    /// accumulated since this dispatcher was created, spanning fixed
    /// and elastically joined workers.
    pub fn snapshot(&self) -> FleetSnapshot {
        self.obs.snapshot()
    }

    /// Pulls every warm worker's shipped [`crp_obs::MetricsSnapshot`]
    /// with a `metrics`/`metrics-report` round trip and returns the
    /// per-worker results plus the merged fleet-wide rollup.  Workers
    /// that are not connected or fail the pull are reported with
    /// `snapshot: None` (rendered as `metrics: unavailable`) — a metrics
    /// pull never tears a healthy batch down, and the failed connection
    /// is simply dropped to be re-established on the next dispatch.
    ///
    /// A running batch holds its connections outside the warm pool, so
    /// a pull concurrent with `dispatch` reports those workers
    /// unavailable instead of racing the batch for them.
    pub fn worker_metrics(&self) -> FleetMetrics {
        let decode = |endpoint: String, body: Option<String>| WorkerMetrics {
            snapshot: body.and_then(|body| crp_obs::MetricsSnapshot::decode(&body).ok()),
            endpoint,
        };
        let mut workers: Vec<WorkerMetrics> = Vec::new();
        let mut warm = self.warm.lock().expect("no dispatcher panics");
        for (index, slot) in warm.fixed.iter_mut().enumerate() {
            let endpoint = self.endpoints[index].describe();
            match slot.as_mut().map(|conn| conn.fetch_metrics(&self.tuning)) {
                Some(Ok(body)) => workers.push(decode(endpoint, body)),
                Some(Err(_)) => {
                    *slot = None;
                    workers.push(decode(endpoint, None));
                }
                None => workers.push(decode(endpoint, None)),
            }
        }
        let mut dead: Vec<usize> = Vec::new();
        for (index, conn) in warm.joined.iter_mut().enumerate() {
            let endpoint = conn.peer().to_string();
            match conn.fetch_metrics(&self.tuning) {
                Ok(body) => workers.push(decode(endpoint, body)),
                Err(_) => {
                    dead.push(index);
                    workers.push(decode(endpoint, None));
                }
            }
        }
        for index in dead.into_iter().rev() {
            warm.joined.remove(index);
        }
        workers.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        FleetMetrics { workers }
    }

    /// Opens a registration listener for elastic membership: workers
    /// that dial `addr` (see `crp_fleet::join_fleet` or
    /// `crp_experiments worker --join`) are folded into the event loop
    /// of every subsequent — or currently running — `dispatch` call.  A
    /// joined worker that disconnects mid-batch has its in-flight jobs
    /// requeued exactly like a dead fixed worker.  Returns the bound
    /// address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`FleetError::Connect`] when the address cannot be bound.
    pub fn listen_for_workers(&self, addr: &str) -> Result<SocketAddr, FleetError> {
        let listener = std::net::TcpListener::bind(addr).map_err(|e| FleetError::Connect {
            endpoint: addr.to_string(),
            reason: format!("bind worker registration listener: {e}"),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| FleetError::Connect {
                endpoint: addr.to_string(),
                reason: format!("set registration listener non-blocking: {e}"),
            })?;
        let bound = listener.local_addr().map_err(|e| FleetError::Connect {
            endpoint: addr.to_string(),
            reason: format!("query registration listener address: {e}"),
        })?;
        self.warm.lock().expect("no dispatcher panics").listener = Some(listener);
        Ok(bound)
    }

    /// Closes every warm connection, politely shutting spawned local
    /// workers down.  Called automatically on drop; call it explicitly
    /// to cold-stop a fleet without dropping the dispatcher.
    pub fn shutdown_workers(&self) {
        self.warm.lock().expect("no dispatcher panics").shutdown();
    }

    /// Runs every job to completion on the pool and returns the answers
    /// in job order.  Blobs the jobs reference ship from `blobs`, once
    /// per connection.  Every answer must pass `validate` before its job
    /// settles; a rejected answer is retried on another worker like any
    /// transport failure.  `done(job)` is invoked exactly once per
    /// completed job, in completion order, from the dispatching thread.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job: [`FleetError::Job`]
    /// when a worker rejected the payload deterministically (or its
    /// handler panicked on it), otherwise [`FleetError::Exhausted`]
    /// describing the transport failures that used up the job's attempts
    /// (or left the pool unreachable).
    pub fn dispatch(
        &self,
        jobs: &[JobPayload],
        blobs: &BlobSet,
        done: &(dyn Fn(usize) + Sync),
        validate: AnswerValidator<'_>,
    ) -> Result<Vec<String>, FleetError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        if self.endpoints.is_empty() && !self.has_elastic_sources() {
            return Err(FleetError::Connect {
                endpoint: "fleet pool".to_string(),
                reason: "no worker endpoints configured".to_string(),
            });
        }
        let state = event_loop::run(self, jobs, blobs, done, validate);
        for job in 0..jobs.len() {
            if let Some(error) = &state.failures[job] {
                return Err(error.clone());
            }
            if state.results[job].is_none() {
                // Every endpoint was given up before this job ran.
                return Err(FleetError::Exhausted {
                    id: job as u64,
                    attempts: state.attempts[job],
                    last: state
                        .last_transport_error
                        .clone()
                        .unwrap_or_else(|| "no workers reachable".to_string()),
                });
            }
        }
        Ok(state
            .results
            .into_iter()
            .map(|slot| slot.expect("every unsettled job was reported above"))
            .collect())
    }

    /// True when an empty fixed pool can still find workers: a
    /// registration listener is open, or joined workers are parked warm
    /// from a previous batch.
    fn has_elastic_sources(&self) -> bool {
        let warm = self.warm.lock().expect("no dispatcher panics");
        warm.listener.is_some() || !warm.joined.is_empty()
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tcp::TcpWorker;
    use crate::worker::{ScenarioStore, ServeOptions};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Self-contained jobs (no blob references), one per payload.
    fn plain_jobs(payloads: &[impl AsRef<str>]) -> Vec<JobPayload> {
        payloads
            .iter()
            .map(|payload| JobPayload::new(payload.as_ref(), Vec::new()))
            .collect()
    }

    /// Dispatches self-contained jobs, accepting every answer.
    pub(crate) fn dispatch_plain(
        dispatcher: &Dispatcher,
        payloads: &[impl AsRef<str>],
    ) -> Result<Vec<String>, FleetError> {
        let jobs = plain_jobs(payloads);
        dispatcher.dispatch(&jobs, &BlobSet::new(), &|_| {}, &|_, _| Ok(()))
    }

    /// An echo worker whose handler can also reject (`fail:<message>`),
    /// panic (`panic:<message>`), sleep every time (`sleep:<ms>:<text>`)
    /// or straggle
    /// (`slow-once:<ms>:<text>` sleeps on its *first* execution in this
    /// process only, so a re-dispatched copy of the same payload answers
    /// promptly — the answer text stays identical either way, like a
    /// shard answer does).
    fn scripted(payload: &str) -> Result<String, String> {
        static SLOWED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        if let Some(message) = payload.strip_prefix("fail:") {
            return Err(message.to_string());
        }
        if let Some(message) = payload.strip_prefix("panic:") {
            panic!("{message}");
        }
        let payload = if let Some(rest) = payload.strip_prefix("slow-once:") {
            let (ms, text) = rest.split_once(':').expect("slow-once:<ms>:<text>");
            if !SLOWED.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(ms.parse().expect("sleep ms")));
            }
            text
        } else if let Some(rest) = payload.strip_prefix("sleep:") {
            let (ms, text) = rest.split_once(':').expect("sleep:<ms>:<text>");
            std::thread::sleep(Duration::from_millis(ms.parse().expect("sleep ms")));
            text
        } else {
            payload
        };
        Ok(format!("echo:{payload}"))
    }

    fn spawn_worker_with(options: ServeOptions) -> String {
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            worker.serve_forever(&scripted, &options, &ScenarioStore::new())
        });
        addr
    }

    fn spawn_worker() -> String {
        spawn_worker_with(ServeOptions::default())
    }

    fn dead_endpoint() -> WorkerEndpoint {
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        WorkerEndpoint::tcp(format!("127.0.0.1:{port}"))
    }

    #[test]
    fn a_pool_answers_a_batch_in_job_order() {
        let endpoints = (0..3)
            .map(|_| WorkerEndpoint::tcp(spawn_worker()))
            .collect();
        let payloads: Vec<String> = (0..20).map(|i| format!("job-{i}")).collect();
        let completions = AtomicUsize::new(0);
        let answers = Dispatcher::new(endpoints)
            .dispatch(
                &plain_jobs(&payloads),
                &BlobSet::new(),
                &|_| {
                    completions.fetch_add(1, Ordering::Relaxed);
                },
                &|_, _| Ok(()),
            )
            .unwrap();
        let expected: Vec<String> = (0..20).map(|i| format!("echo:job-{i}")).collect();
        assert_eq!(answers, expected);
        assert_eq!(
            completions.load(Ordering::Relaxed),
            20,
            "done fires exactly once per job, duplicates are dropped"
        );
    }

    #[test]
    fn warm_connections_survive_across_batches() {
        // One TCP worker, two dispatches through the same dispatcher:
        // the second batch reuses the health-checked warm connection.
        let dispatcher = Dispatcher::new(vec![WorkerEndpoint::tcp(spawn_worker())]);
        let first = dispatch_plain(&dispatcher, &["a"]).unwrap();
        assert_eq!(first, vec!["echo:a".to_string()]);
        let second = dispatch_plain(&dispatcher, &["b"]).unwrap();
        assert_eq!(second, vec!["echo:b".to_string()]);
    }

    #[test]
    fn a_capacity_4_worker_gets_its_pipeline_filled() {
        // Four 300ms jobs on ONE capacity-4 connection: pipelined writes
        // plus the worker's concurrent execution finish them together;
        // a one-at-a-time conversation would need ~1200ms.
        let addr = spawn_worker_with(ServeOptions {
            capacity: 4,
            ..Default::default()
        });
        let payloads: Vec<String> = (0..4).map(|i| format!("sleep:300:p{i}")).collect();
        let dispatcher = Dispatcher::new(vec![WorkerEndpoint::tcp(addr)]);
        let start = Instant::now();
        let answers = dispatch_plain(&dispatcher, &payloads).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            answers,
            (0..4).map(|i| format!("echo:p{i}")).collect::<Vec<_>>()
        );
        assert!(
            elapsed < Duration::from_millis(900),
            "capacity-4 pipelining should overlap the four sleeps (took {elapsed:?})"
        );
    }

    #[test]
    fn an_unresponsive_worker_is_a_typed_error_not_a_hang() {
        // The worker accepts the job and then goes silent without
        // closing its socket.  Read timeouts alone would poll forever;
        // the ping health check must declare it unresponsive.
        let addr = spawn_worker_with(ServeOptions {
            wedge_after: Some(0),
            ..Default::default()
        });
        let dispatcher = Dispatcher::new(vec![WorkerEndpoint::tcp(addr)]).with_max_attempts(1);
        let err = dispatch_plain(&dispatcher, &["stuck"]).unwrap_err();
        match err {
            FleetError::Exhausted { last, .. } => {
                assert!(last.contains("unresponsive"), "last error: {last}");
            }
            other => panic!("expected exhaustion via unresponsiveness, got {other}"),
        }
    }

    #[test]
    fn jobs_of_a_wedged_worker_are_requeued_onto_the_healthy_one() {
        let wedged = spawn_worker_with(ServeOptions {
            wedge_after: Some(0),
            ..Default::default()
        });
        let healthy = spawn_worker();
        let payloads: Vec<String> = (0..6).map(|i| format!("w{i}")).collect();
        let dispatcher = Dispatcher::new(vec![
            WorkerEndpoint::tcp(wedged),
            WorkerEndpoint::tcp(healthy),
        ]);
        let answers = dispatch_plain(&dispatcher, &payloads).unwrap();
        assert_eq!(
            answers,
            (0..6).map(|i| format!("echo:w{i}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn referenced_blobs_ship_once_per_worker() {
        // A worker whose handler resolves `resolve:<hash>` out of its
        // scenario store — the fleet-level shape of scenario-by-hash
        // shipping.
        let store = Arc::new(ScenarioStore::new());
        let handler_store = Arc::clone(&store);
        let serve_store = Arc::clone(&store);
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let handler = move |payload: &str| -> Result<String, String> {
                let hash = payload.strip_prefix("resolve:").expect("resolve:<hash>");
                handler_store
                    .get(hash)
                    .map(|blob| format!("resolved:{blob}"))
                    .ok_or_else(|| format!("unknown blob {hash}"))
            };
            worker.serve_forever(&handler, &ServeOptions::default(), &serve_store)
        });

        let mut blobs = BlobSet::new();
        let hash = blobs.insert("the-masses");
        let jobs: Vec<JobPayload> = (0..3)
            .map(|_| JobPayload::new(format!("resolve:{hash}"), vec![hash.clone()]))
            .collect();
        let answers = Dispatcher::new(vec![WorkerEndpoint::tcp(addr)])
            .dispatch(&jobs, &blobs, &|_| {}, &|_, _| Ok(()))
            .unwrap();
        assert_eq!(answers, vec!["resolved:the-masses".to_string(); 3]);
        assert_eq!(store.len(), 1, "one scenario-put for three jobs");
    }

    #[test]
    fn a_dead_endpoint_does_not_lose_jobs() {
        let endpoints = vec![dead_endpoint(), WorkerEndpoint::tcp(spawn_worker())];
        let payloads: Vec<String> = (0..8).map(|i| format!("j{i}")).collect();
        let answers = dispatch_plain(&Dispatcher::new(endpoints), &payloads).unwrap();
        assert_eq!(answers[7], "echo:j7");
        assert_eq!(answers.len(), 8);
    }

    #[test]
    fn stragglers_are_redispatched_and_duplicates_deduped() {
        // Worker A gets stuck on the slow job; worker B drains the rest
        // of the queue and then re-dispatches the straggler.  The batch
        // must complete in well under the slow worker's sleep.
        let endpoints = vec![
            WorkerEndpoint::tcp(spawn_worker()),
            WorkerEndpoint::tcp(spawn_worker()),
        ];
        let mut payloads = vec!["slow-once:4000:tortoise".to_string()];
        payloads.extend((0..6).map(|i| format!("hare-{i}")));
        let completions = AtomicUsize::new(0);
        let start = std::time::Instant::now();
        let answers = Dispatcher::new(endpoints)
            .dispatch(
                &plain_jobs(&payloads),
                &BlobSet::new(),
                &|_| {
                    completions.fetch_add(1, Ordering::Relaxed);
                },
                &|_, _| Ok(()),
            )
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(3500),
            "the straggling copy must not gate completion (took {:?})",
            start.elapsed()
        );
        assert_eq!(answers[0], "echo:tortoise");
        assert_eq!(completions.load(Ordering::Relaxed), payloads.len());
    }

    #[test]
    fn worker_reported_failures_are_permanent_and_lowest_index_wins() {
        let endpoints = vec![WorkerEndpoint::tcp(spawn_worker())];
        let payloads = ["fine", "fail:second is bad", "fail:third is bad"];
        let err = dispatch_plain(&Dispatcher::new(endpoints), &payloads).unwrap_err();
        match err {
            FleetError::Job { id, message } => {
                assert_eq!(id, 1);
                assert_eq!(message, "second is bad");
            }
            other => panic!("expected a worker-reported job failure, got {other}"),
        }
    }

    #[test]
    fn a_batch_stops_dispatching_once_its_lowest_failure_is_final() {
        // Fifty jobs on one capacity-1 worker: job 0 fails at once and
        // every other job sleeps 20 ms.  Once job 0 has failed, nothing
        // the other jobs do can change the batch's result, so they must
        // not run: the batch returns at once instead of after ~1 s.
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let handler = move |payload: &str| {
                counted.fetch_add(1, Ordering::SeqCst);
                scripted(payload)
            };
            worker.serve_forever(&handler, &ServeOptions::default(), &ScenarioStore::new())
        });
        let mut payloads = vec!["fail:the first job is bad".to_string()];
        payloads.extend((1..50).map(|i| format!("sleep:20:s{i}")));
        let start = Instant::now();
        let err = dispatch_plain(&Dispatcher::new(vec![WorkerEndpoint::tcp(addr)]), &payloads)
            .unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, FleetError::Job { id: 0, .. }), "got {err}");
        assert!(
            elapsed < Duration::from_millis(500),
            "the batch ran on after its result was fixed (took {elapsed:?})"
        );
        let runs = runs.load(Ordering::SeqCst);
        assert!(runs <= 2, "the handler ran {runs} times for a failed batch");
    }

    #[test]
    fn a_panicking_handler_fails_its_batch_instead_of_hanging_it() {
        // The handler panics on the middle job.  The worker answers it
        // `failed` with the panic message, so the batch ends with a typed
        // job error.  The dispatch runs on a helper thread, so a job that
        // is never answered fails this test instead of hanging it.
        let endpoints = vec![WorkerEndpoint::tcp(spawn_worker())];
        let (sender, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let dispatcher = Dispatcher::new(endpoints);
            let _ = sender.send(dispatch_plain(&dispatcher, &["ok", "panic:boom", "ok2"]));
        });
        match outcome.recv_timeout(Duration::from_secs(30)) {
            Ok(Err(FleetError::Job { id, message })) => {
                assert_eq!(id, 1);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected a typed job failure within 30 s, got {other:?}"),
        }
    }

    #[test]
    fn an_unreachable_pool_is_a_typed_error_not_a_hang() {
        let dispatcher = Dispatcher::new(vec![dead_endpoint(), dead_endpoint()]);
        let err = dispatch_plain(&dispatcher, &["x"]).unwrap_err();
        assert!(matches!(err, FleetError::Exhausted { .. }), "got {err}");
        let err = dispatch_plain(&Dispatcher::new(Vec::new()), &["x"]).unwrap_err();
        assert!(matches!(err, FleetError::Connect { .. }));
    }

    #[test]
    fn rejected_answers_are_retried_like_transport_failures() {
        // The validator refuses the first answer it sees for job 0, so
        // the dispatcher must drop that connection and recompute the job
        // — the final answer set is still complete and correct.
        let endpoints = vec![
            WorkerEndpoint::tcp(spawn_worker()),
            WorkerEndpoint::tcp(spawn_worker()),
        ];
        let payloads: Vec<String> = (0..4).map(|i| format!("v{i}")).collect();
        let rejected_once = std::sync::atomic::AtomicBool::new(false);
        let answers = Dispatcher::new(endpoints)
            .dispatch(
                &plain_jobs(&payloads),
                &BlobSet::new(),
                &|_| {},
                &|id, _| {
                    if id == 0 && !rejected_once.swap(true, Ordering::SeqCst) {
                        Err("first answer rejected".to_string())
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap();
        assert_eq!(answers[0], "echo:v0");
        assert_eq!(answers.len(), 4);
        assert!(rejected_once.load(Ordering::SeqCst));

        // A validator that never accepts exhausts the job's attempts
        // into a typed error instead of settling a poisoned answer.
        let err = Dispatcher::new(vec![WorkerEndpoint::tcp(spawn_worker())])
            .dispatch(&plain_jobs(&["x"]), &BlobSet::new(), &|_| {}, &|_, _| {
                Err("no".into())
            })
            .unwrap_err();
        assert!(matches!(err, FleetError::Exhausted { .. }), "got {err}");
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let answers =
            dispatch_plain(&Dispatcher::new(vec![dead_endpoint()]), &[] as &[&str]).unwrap();
        assert!(answers.is_empty());
    }

    /// A worker that joins via the registration listener, answers
    /// exactly one job, then hangs up — an elastic *leave* with work
    /// possibly still in flight.
    fn join_answer_one_then_leave(addr: String) {
        use crate::frame::{write_frame, FrameReader};
        use crate::protocol::Message;
        let stream = std::net::TcpStream::connect(addr).expect("dispatcher listener is up");
        let mut reader = FrameReader::new(&stream);
        let mut writer = &stream;
        write_frame(
            &mut writer,
            &Message::Hello {
                version: crate::protocol::PROTOCOL_VERSION,
                capacity: 2,
            }
            .encode(),
        )
        .expect("hello goes out");
        while let Ok(Some(frame)) = reader.read_frame() {
            match Message::decode(&frame) {
                Ok(Message::Job { id, payload, .. }) => {
                    let _ = write_frame(
                        &mut writer,
                        &Message::Done {
                            id,
                            payload: format!("echo:{payload}"),
                        }
                        .encode(),
                    );
                    // Hang up with the pipeline possibly non-empty: the
                    // dispatcher must requeue whatever was outstanding.
                    return;
                }
                Ok(Message::Ping { id }) => {
                    let _ = write_frame(&mut writer, &Message::Pong { id }.encode());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn workers_join_elastically_and_a_leaver_is_requeued() {
        // No fixed endpoints at all: the whole pool is elastic.
        let dispatcher = Dispatcher::new(Vec::new());
        let addr = dispatcher
            .listen_for_workers("127.0.0.1:0")
            .unwrap()
            .to_string();
        // A capacity-2 worker joins, answers one job and leaves — its
        // still-outstanding job must be requeued, not lost.
        {
            let addr = addr.clone();
            std::thread::spawn(move || join_answer_one_then_leave(addr));
        }
        // A healthy worker joins 200ms into the batch and drains it.
        {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                let _ = crate::tcp::join_fleet(
                    &addr,
                    &scripted,
                    &ServeOptions::default(),
                    &ScenarioStore::new(),
                );
            });
        }
        let payloads: Vec<String> = (0..8).map(|i| format!("e{i}")).collect();
        let completions = AtomicUsize::new(0);
        let answers = dispatcher
            .dispatch(
                &plain_jobs(&payloads),
                &BlobSet::new(),
                &|_| {
                    completions.fetch_add(1, Ordering::Relaxed);
                },
                &|_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(
            answers,
            (0..8).map(|i| format!("echo:e{i}")).collect::<Vec<_>>()
        );
        assert_eq!(completions.load(Ordering::Relaxed), 8);
    }

    /// A hand-rolled echo worker whose hello advertises `version` and
    /// `capacity` verbatim — greetings the stock [`ServeOptions`] worker
    /// (current version, capacity clamped at write time) cannot produce.
    fn spawn_hello_worker(version: u32, capacity: usize) -> String {
        use crate::frame::{write_frame, FrameReader};
        use crate::protocol::Message;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut reader = FrameReader::new(&stream);
                    let mut writer = &stream;
                    let hello = Message::Hello { version, capacity };
                    if write_frame(&mut writer, &hello.encode()).is_err() {
                        return;
                    }
                    while let Ok(Some(frame)) = reader.read_frame() {
                        match Message::decode(&frame) {
                            Ok(Message::Job { id, payload, .. }) => {
                                let _ = write_frame(
                                    &mut writer,
                                    &Message::Done {
                                        id,
                                        payload: format!("echo:{payload}"),
                                    }
                                    .encode(),
                                );
                            }
                            Ok(Message::Ping { id }) => {
                                let _ = write_frame(&mut writer, &Message::Pong { id }.encode());
                            }
                            Ok(Message::Shutdown) | Err(_) => return,
                            _ => {}
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn worker_metrics_merge_a_rollup_and_flag_unconnected_workers_unavailable() {
        // Two live workers plus an endpoint nothing listens on.  After a
        // batch, a metrics pull must report the two live snapshots
        // (merged into the rollup) and flag the unconnected endpoint
        // unavailable — without disturbing the warm connections.
        let a = spawn_worker();
        let b = spawn_worker();
        // A generous pull timeout: under a fully loaded test host a
        // worker thread can legitimately stall past the 2s default,
        // and this test asserts on *protocol* availability, not
        // scheduling latency.
        let tuning = DispatchTuning {
            ping_timeout: Duration::from_secs(30),
            ..Default::default()
        };
        let dispatcher = Dispatcher::new(vec![
            WorkerEndpoint::tcp(a),
            WorkerEndpoint::tcp(b),
            dead_endpoint(),
        ])
        .with_tuning(tuning);
        let payloads: Vec<String> = (0..9).map(|i| format!("m{i}")).collect();
        dispatch_plain(&dispatcher, &payloads).unwrap();
        // A pull reports whichever connections are warm right now; on a
        // loaded host a batch can finish before every handshake does,
        // leaving a worker legitimately unavailable.  Re-dispatch until
        // both live workers are warm — what stays pinned is that the
        // unconnected endpoint NEVER reports and the live workers
        // eventually both do.
        let mut metrics = dispatcher.worker_metrics();
        for round in 0..50 {
            if metrics.reporting() >= 2 {
                break;
            }
            let warmup: Vec<String> = (0..3).map(|i| format!("warm{round}-{i}")).collect();
            dispatch_plain(&dispatcher, &warmup).unwrap();
            metrics = dispatcher.worker_metrics();
        }
        assert_eq!(metrics.workers.len(), 3, "every endpoint is listed");
        assert_eq!(metrics.reporting(), 2, "both live workers ship snapshots");
        let rendered = metrics.render();
        assert!(
            rendered.starts_with("fleet metrics: 2 reporting, 1 unavailable\n"),
            "render: {rendered}"
        );
        assert!(
            rendered.contains("metrics: unavailable"),
            "the unconnected endpoint renders as unavailable: {rendered}"
        );
        // The pull is repeatable and the pool still answers afterwards.
        assert_eq!(dispatcher.worker_metrics().reporting(), 2);
        let again = dispatch_plain(&dispatcher, &["after"]).unwrap();
        assert_eq!(again, vec!["echo:after".to_string()]);
    }

    #[test]
    fn capacity_zero_hellos_are_a_typed_handshake_error() {
        // A worker that will run no job is refused at the handshake: the
        // endpoint never becomes usable and the batch exhausts.
        let addr = spawn_hello_worker(crate::protocol::PROTOCOL_VERSION, 0);
        let err =
            dispatch_plain(&Dispatcher::new(vec![WorkerEndpoint::tcp(addr)]), &["a"]).unwrap_err();
        match err {
            FleetError::Exhausted { last, .. } => {
                assert!(last.contains("handshake"), "{last}");
                assert!(last.contains("capacity 0"), "{last}");
            }
            other => panic!("expected a handshake exhaustion, got {other}"),
        }
    }

    #[test]
    fn older_protocol_hellos_are_a_typed_handshake_error() {
        // Dispatcher and worker are one binary, so a peer greeting with
        // any other protocol version is refused, never negotiated down:
        // the endpoint never becomes usable and the batch exhausts with
        // a handshake error naming the version.
        for version in [1, 2] {
            let addr = spawn_hello_worker(version, 1);
            let err = dispatch_plain(&Dispatcher::new(vec![WorkerEndpoint::tcp(addr)]), &["a"])
                .unwrap_err();
            match err {
                FleetError::Exhausted { last, .. } => {
                    assert!(last.contains("handshake"), "v{version}: {last}");
                    assert!(last.contains(&format!("v{version},")), "v{version}: {last}");
                }
                other => panic!("v{version}: expected a handshake exhaustion, got {other}"),
            }
        }
    }
}
