//! The multiplexed event-loop dispatcher: one thread, all endpoints.
//!
//! [`run`] drives an entire batch from the dispatching thread itself.
//! Every endpoint is a non-blocking source — TCP sockets via
//! `set_nonblocking`, subprocess stdio pipes via the feeder channel a
//! [`crate::endpoint`] helper spawns (drained with `try_recv`) — and
//! one loop round-robins accept / read / schedule / write over all of
//! them.  Each connection's bytes go through the crate's one frame
//! decoder (`frame::FrameDecoder`), fed whatever the non-blocking read
//! returned.  No thread is spawned or joined per worker per batch, which
//! is what makes fleets of hundreds of tiny-shard workers practical (see
//! the `fleet_scale` bench).
//!
//! The crate forbids `unsafe`, so there is no raw `poll(2)` over fds;
//! readiness is approximated by draining every source each round and
//! sleeping adaptively (from 100µs, doubling up to 2ms) when a round
//! made no progress.  With tens or hundreds of sources the loop is
//! effectively always busy and the sleep never matters; on an idle tail
//! it bounds wakeup latency to ~2ms.
//!
//! Each batch owns one [`State`] — attempt accounting, straggler
//! re-dispatch, ping health checks, capacity pipelining, blob shipping,
//! and validation all run over it — and two pool features sit on top:
//!
//! * **Capacity** — a connection may hold up to its hello capacity in
//!   jobs, and fresh jobs go to the least-loaded eligible connection
//!   (load compared as a fraction of that capacity).
//! * **Elastic membership** — when [`crate::Dispatcher::listen_for_workers`]
//!   opened a registration listener, workers dialing it mid-run are
//!   accepted into the loop like any other connection (a worker speaks
//!   hello first, so a dialed-in connection is byte-identical to an
//!   accepted one); a joined worker that leaves has its in-flight jobs
//!   requeued exactly like a dead fixed worker.
//!
//! Because a job's answer is a deterministic function of its payload and
//! results merge in job order, none of this changes any result bit —
//! only wall-clock time.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdin};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use crate::dispatch::{AnswerValidator, BlobSet, Dispatcher, JobPayload, State};
use crate::endpoint::{negotiate_hello, spawn_pipe_feeder, DispatchTuning, WorkerEndpoint};
use crate::frame::{write_frame, FrameDecoder};
use crate::obs::FleetObs;
use crate::protocol::Message;
use crate::FleetError;

/// Per-endpoint cap on transport failures (failed connects, dropped
/// connections) in one batch before the loop stops retrying that
/// endpoint.
const RECONNECT_LIMIT: usize = 3;

/// The idle sleep after a round that made no progress starts here and
/// doubles up to [`MAX_IDLE`], which bounds the wakeup latency of an
/// idle tail.
const MIN_IDLE: Duration = Duration::from_micros(100);
const MAX_IDLE: Duration = Duration::from_millis(2);

/// The byte transport under one event-loop connection.
enum Transport {
    /// A non-blocking TCP socket (reads and writes both ride
    /// `WouldBlock`).
    Tcp(TcpStream),
    /// A subprocess's stdio: stdout drained non-blockingly off the
    /// feeder channel, stdin written blockingly (frames are small and a
    /// subprocess pipe has kernel buffering, so a blocking write only
    /// stalls against a worker that stopped reading — which the ping
    /// machinery then catches).
    Pipe {
        chunks: Receiver<std::io::Result<Vec<u8>>>,
        stdin: ChildStdin,
    },
}

/// One live connection inside the event loop: transport, incremental
/// decoder, a write-behind outbox, hello state, and the pipelining /
/// ping bookkeeping.
pub(crate) struct LoopConn {
    transport: Transport,
    /// The spawned subprocess of a local endpoint, if any (killed on
    /// drop, reaped on [`LoopConn::shutdown`]).
    child: Option<Child>,
    decoder: FrameDecoder,
    /// Bytes queued for the peer but not yet accepted by the kernel.
    outbox: Vec<u8>,
    /// Clean end-of-stream seen (remaining decoder frames still drain).
    eof: bool,
    /// Hello received and negotiated.
    ready: bool,
    hello_deadline: Instant,
    capacity: usize,
    known_blobs: HashSet<String>,
    /// Jobs written to this connection and awaiting answers.
    outstanding: Vec<usize>,
    last_heard: Instant,
    ping_sent: Option<Instant>,
    next_ping: u64,
    /// Human-readable peer description for diagnostics.
    peer: String,
}

impl LoopConn {
    fn with_transport(
        transport: Transport,
        child: Option<Child>,
        peer: String,
        tuning: &DispatchTuning,
    ) -> Self {
        Self {
            transport,
            child,
            decoder: FrameDecoder::default(),
            outbox: Vec::new(),
            eof: false,
            ready: false,
            hello_deadline: Instant::now() + tuning.handshake_timeout,
            capacity: 1,
            known_blobs: HashSet::new(),
            outstanding: Vec::new(),
            last_heard: Instant::now(),
            ping_sent: None,
            next_ping: 0,
            peer,
        }
    }

    /// Connects a fixed endpoint as a non-blocking source: a local
    /// endpoint is spawned with its stdout routed through the feeder
    /// channel, a TCP endpoint is dialed and switched to non-blocking.
    fn from_endpoint(
        endpoint: &WorkerEndpoint,
        tuning: &DispatchTuning,
    ) -> Result<Self, FleetError> {
        let connect_error = |reason: String| FleetError::Connect {
            endpoint: endpoint.describe(),
            reason,
        };
        match endpoint {
            WorkerEndpoint::Local { .. } => {
                let mut child = endpoint
                    .spawn_local()
                    .map_err(|e| connect_error(e.to_string()))?;
                let stdout = child.stdout.take().expect("stdout was piped");
                let stdin = child.stdin.take().expect("stdin was piped");
                Ok(Self::with_transport(
                    Transport::Pipe {
                        chunks: spawn_pipe_feeder(stdout),
                        stdin,
                    },
                    Some(child),
                    endpoint.describe(),
                    tuning,
                ))
            }
            WorkerEndpoint::Tcp { .. } => {
                let stream = endpoint
                    .dial_tcp(tuning)
                    .map_err(|e| connect_error(e.to_string()))?;
                stream
                    .set_nonblocking(true)
                    .map_err(|e| connect_error(e.to_string()))?;
                Ok(Self::with_transport(
                    Transport::Tcp(stream),
                    None,
                    endpoint.describe(),
                    tuning,
                ))
            }
        }
    }

    /// Wraps a worker that dialed the registration listener.  Workers
    /// speak hello first, so an accepted stream is indistinguishable
    /// from one the dispatcher dialed.
    fn from_joined(
        stream: TcpStream,
        peer: String,
        tuning: &DispatchTuning,
    ) -> Result<Self, FleetError> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).map_err(FleetError::from)?;
        Ok(Self::with_transport(
            Transport::Tcp(stream),
            None,
            format!("joined worker {peer}"),
            tuning,
        ))
    }

    fn note_heard(&mut self) {
        self.last_heard = Instant::now();
        self.ping_sent = None;
    }

    /// Drains every byte the transport has ready into the decoder
    /// without blocking.  Returns whether any bytes arrived; a clean
    /// end-of-stream sets `eof` instead of erroring so already-buffered
    /// answers are still delivered first.
    fn drain_transport(&mut self) -> Result<bool, FleetError> {
        let mut progressed = false;
        match &mut self.transport {
            Transport::Tcp(stream) => {
                let mut buffer = [0u8; 8192];
                loop {
                    match stream.read(&mut buffer) {
                        Ok(0) => {
                            self.eof = true;
                            break;
                        }
                        Ok(n) => {
                            self.decoder.feed(&buffer[..n]);
                            progressed = true;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            Transport::Pipe { chunks, .. } => loop {
                match chunks.try_recv() {
                    Ok(Ok(chunk)) => {
                        self.decoder.feed(&chunk);
                        progressed = true;
                    }
                    Ok(Err(error)) => return Err(error.into()),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.eof = true;
                        break;
                    }
                }
            },
        }
        Ok(progressed)
    }

    /// The next decoded message, `Ok(None)` when the buffered bytes hold
    /// no complete frame.
    fn next_message(&mut self) -> Result<Option<Message>, FleetError> {
        match self.decoder.next_frame()? {
            None => Ok(None),
            Some(frame) => {
                self.note_heard();
                Message::decode(&frame).map(Some)
            }
        }
    }

    /// Queues one claimed job: any referenced blobs this connection has
    /// not seen are shipped first (`scenario-put` is idempotent and
    /// unacknowledged), then the job frame with its span.
    fn queue_job(
        &mut self,
        job: usize,
        jobs: &[JobPayload],
        blobs: &BlobSet,
    ) -> Result<(), FleetError> {
        let claimed = &jobs[job];
        for hash in &claimed.refs {
            if self.known_blobs.contains(hash) {
                continue;
            }
            let blob = blobs.get(hash).ok_or_else(|| {
                FleetError::Malformed(format!(
                    "job {job} references blob {hash} missing from the batch blob set"
                ))
            })?;
            write_frame(
                &mut self.outbox,
                &Message::ScenarioPut {
                    hash: hash.clone(),
                    blob: blob.to_string(),
                }
                .encode(),
            )?;
            self.known_blobs.insert(hash.clone());
        }
        write_frame(
            &mut self.outbox,
            &Message::Job {
                id: job as u64,
                payload: claimed.payload.clone(),
                span: claimed.span.clone(),
            }
            .encode(),
        )?;
        self.outstanding.push(job);
        Ok(())
    }

    /// The peer description (for per-worker metrics labelling).
    pub(crate) fn peer(&self) -> &str {
        &self.peer
    }

    /// Pulls the worker's current metrics-snapshot wire body with a
    /// `metrics`/`metrics-report` round trip, polling the non-blocking
    /// transport until the report (or the ping timeout).  `Ok(None)` on
    /// a not-yet-ready connection — that worker is reported as
    /// `metrics: unavailable`.  Called only on warm (idle) connections
    /// between batches, so the only interleaved frames are stale pongs
    /// or metrics reports.
    ///
    /// # Errors
    ///
    /// [`FleetError::Unresponsive`] when no report arrives in
    /// [`DispatchTuning::ping_timeout`]; any transport error otherwise
    /// (the connection must then be dropped).
    pub(crate) fn fetch_metrics(
        &mut self,
        tuning: &DispatchTuning,
    ) -> Result<Option<String>, FleetError> {
        if !self.ready {
            return Ok(None);
        }
        let id = self.next_ping;
        self.next_ping += 1;
        write_frame(&mut self.outbox, &Message::Metrics { id }.encode())?;
        let deadline = Instant::now() + tuning.ping_timeout;
        loop {
            self.flush()?;
            self.drain_transport()?;
            while let Some(message) = self.next_message()? {
                match message {
                    Message::MetricsReport { id: got, body } if got == id => return Ok(Some(body)),
                    // Stale answers from a previous round trip.
                    Message::Pong { .. } | Message::MetricsReport { .. } => {}
                    other => {
                        return Err(FleetError::Malformed(format!(
                            "expected a metrics report, got {other:?}"
                        )))
                    }
                }
            }
            if self.eof {
                return Err(FleetError::Closed);
            }
            if Instant::now() >= deadline {
                return Err(FleetError::Unresponsive {
                    silent_ms: tuning.ping_timeout.as_millis() as u64,
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The ping state machine: silence past `ping_after` with work in
    /// flight sends a ping; a ping unanswered for `ping_timeout` is
    /// [`FleetError::Unresponsive`].
    fn ping_if_silent(&mut self, tuning: &DispatchTuning) -> Result<(), FleetError> {
        if let Some(sent) = self.ping_sent {
            if sent.elapsed() >= tuning.ping_timeout {
                return Err(FleetError::Unresponsive {
                    silent_ms: self.last_heard.elapsed().as_millis() as u64,
                });
            }
        } else if self.last_heard.elapsed() >= tuning.ping_after {
            let id = self.next_ping;
            self.next_ping += 1;
            write_frame(&mut self.outbox, &Message::Ping { id }.encode())?;
            self.ping_sent = Some(Instant::now());
        }
        Ok(())
    }

    /// Pushes outbox bytes to the peer: TCP writes as much as the kernel
    /// accepts (the rest stays queued), pipe writes complete.
    fn flush(&mut self) -> Result<(), FleetError> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        match &mut self.transport {
            Transport::Tcp(stream) => {
                while !self.outbox.is_empty() {
                    match stream.write(&self.outbox) {
                        Ok(0) => {
                            return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into())
                        }
                        Ok(n) => {
                            self.outbox.drain(..n);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            Transport::Pipe { stdin, .. } => {
                stdin.write_all(&self.outbox)?;
                stdin.flush()?;
                self.outbox.clear();
            }
        }
        Ok(())
    }

    /// Best-effort goodbye so a worker exits instead of being killed by
    /// [`Drop`] — the warm pool's cold-stop path.
    pub(crate) fn shutdown(mut self) {
        let _ = write_frame(&mut self.outbox, &Message::Shutdown.encode());
        if let Transport::Tcp(stream) = &self.transport {
            // Switch back to blocking so the goodbye actually leaves.
            let _ = stream.set_nonblocking(false);
        }
        let _ = self.flush();
        if let Some(mut child) = self.child.take() {
            let _ = child.wait();
        }
    }
}

impl Drop for LoopConn {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The event-loop state a [`Dispatcher`] carries *between* batches: the
/// registration listener, one warm connection slot per fixed endpoint,
/// and the still-connected elastically joined workers.
pub(crate) struct WarmPool {
    /// The elastic-membership listener, if
    /// [`Dispatcher::listen_for_workers`] opened one.
    pub(crate) listener: Option<TcpListener>,
    /// Warm connection per fixed endpoint, by endpoint index.
    pub(crate) fixed: Vec<Option<LoopConn>>,
    /// Warm connections of joined workers.
    pub(crate) joined: Vec<LoopConn>,
}

impl WarmPool {
    pub(crate) fn with_fixed(endpoints: usize) -> Self {
        Self {
            listener: None,
            fixed: (0..endpoints).map(|_| None).collect(),
            joined: Vec::new(),
        }
    }

    /// Politely shuts every warm worker down and closes the listener.
    pub(crate) fn shutdown(&mut self) {
        for conn in self.fixed.iter_mut().filter_map(Option::take) {
            conn.shutdown();
        }
        for conn in self.joined.drain(..) {
            conn.shutdown();
        }
        self.listener = None;
    }
}

/// One scheduling slot of the loop: a fixed endpoint (reconnected with
/// backoff up to [`RECONNECT_LIMIT`] failures) or an elastically joined
/// worker (`endpoint: None`; never reconnected — the worker re-dials).
struct Slot {
    endpoint: Option<usize>,
    conn: Option<LoopConn>,
    failures: usize,
    retry_at: Instant,
}

/// Tears a connection down: its outstanding jobs are requeued (or
/// declared exhausted), the failure is recorded, and the slot backs off
/// before any reconnect.
fn fail_conn(
    slot: &mut Slot,
    error: &FleetError,
    state: &mut State,
    max_attempts: usize,
    obs: &FleetObs,
) {
    if let Some(conn) = slot.conn.take() {
        for &job in &conn.outstanding {
            state.requeue_or_fail(job, error, max_attempts);
            obs.requeued(&conn.peer, job as u64, &error.to_string());
        }
    }
    state.last_transport_error = Some(error.to_string());
    slot.failures += 1;
    slot.retry_at = Instant::now() + Duration::from_millis(20 * slot.failures as u64);
}

/// Reads and handles everything one connection has ready: the hello (if
/// still pending), answers, failures, pongs.  Returns whether anything
/// arrived; an `Err` means the connection is unusable and the caller
/// must [`fail_conn`] it.
fn pump(
    conn: &mut LoopConn,
    state: &mut State,
    done: &(dyn Fn(usize) + Sync),
    validate: AnswerValidator<'_>,
    max_attempts: usize,
    obs: &FleetObs,
) -> Result<bool, FleetError> {
    let mut progressed = conn.drain_transport()?;
    while let Some(message) = conn.next_message()? {
        progressed = true;
        if !conn.ready {
            conn.capacity = negotiate_hello(message)?;
            conn.ready = true;
            continue;
        }
        match message {
            Message::Done { id, payload } if conn.outstanding.contains(&(id as usize)) => {
                let job = id as usize;
                conn.outstanding.retain(|&j| j != job);
                // A well-framed answer whose body fails validation is as
                // untrustworthy as garbage bytes: this job's attempt is
                // spent and the connection goes down.
                if let Err(reason) = validate(id, &payload) {
                    let error = FleetError::Malformed(format!(
                        "answer to job {job} failed validation: {reason}"
                    ));
                    state.requeue_or_fail(job, &error, max_attempts);
                    obs.requeued(&conn.peer, id, &error.to_string());
                    return Err(error);
                }
                let micros =
                    state.claimed_at[job].map_or(0, |claimed| claimed.elapsed().as_micros() as u64);
                state.in_flight[job] -= 1;
                obs.completed(&conn.peer, micros);
                if !state.is_settled(job) {
                    state.results[job] = Some(payload);
                    // Completions are delivered from the loop thread, so
                    // they are serialised.
                    done(job);
                }
            }
            Message::Failed { id, message } if conn.outstanding.contains(&(id as usize)) => {
                let job = id as usize;
                conn.outstanding.retain(|&j| j != job);
                state.in_flight[job] -= 1;
                obs.failed(&conn.peer);
                if !state.is_settled(job) {
                    state.failures[job] = Some(FleetError::Job { id, message });
                }
            }
            // Pongs (health checks) and stale metrics reports carry no
            // job result.
            Message::Pong { .. } | Message::MetricsReport { .. } => {}
            other => {
                return Err(FleetError::Malformed(format!(
                    "expected an answer to an outstanding job, got {other:?}"
                )))
            }
        }
    }
    if conn.eof {
        conn.decoder.finish()?;
        return Err(FleetError::Closed);
    }
    Ok(progressed)
}

/// Runs one batch on the event loop and returns its final [`State`],
/// from which the dispatcher assembles answers or the lowest-indexed
/// error.
pub(crate) fn run(
    dispatcher: &Dispatcher,
    jobs: &[JobPayload],
    blobs: &BlobSet,
    done: &(dyn Fn(usize) + Sync),
    validate: AnswerValidator<'_>,
) -> State {
    let tuning = dispatcher.tuning;
    let max_attempts = dispatcher.max_attempts;
    let obs = &dispatcher.obs;
    let mut state = State::new(jobs.len());

    // Adopt the warm pool: the registration listener, per-endpoint warm
    // connections, and previously joined workers.  Warm connections get
    // their silence clock reset so the idle time between batches is not
    // mistaken for unresponsiveness.
    let (listener, mut slots) = {
        let mut warm = dispatcher.warm.lock().expect("no dispatcher panics");
        let listener = warm.listener.take();
        let mut slots: Vec<Slot> = (0..dispatcher.endpoints.len())
            .map(|index| Slot {
                endpoint: Some(index),
                conn: warm.fixed[index].take().map(|mut conn| {
                    conn.note_heard();
                    conn
                }),
                failures: 0,
                retry_at: Instant::now(),
            })
            .collect();
        for mut conn in warm.joined.drain(..) {
            conn.note_heard();
            slots.push(Slot {
                endpoint: None,
                conn: Some(conn),
                failures: 0,
                retry_at: Instant::now(),
            });
        }
        (listener, slots)
    };

    let mut idle = MIN_IDLE;
    // While the pool is empty but a listener is open, how long to keep
    // waiting for a worker to join before giving the batch up.
    let mut join_grace_start: Option<Instant> = None;

    loop {
        let mut progressed = false;

        // Accept elastically joining workers.
        if let Some(listener) = &listener {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        match LoopConn::from_joined(stream, peer.to_string(), &tuning) {
                            Ok(conn) => {
                                slots.push(Slot {
                                    endpoint: None,
                                    conn: Some(conn),
                                    failures: 0,
                                    retry_at: Instant::now(),
                                });
                                progressed = true;
                            }
                            Err(error) => {
                                state.last_transport_error = Some(error.to_string());
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        state.last_transport_error = Some(e.to_string());
                        break;
                    }
                }
            }
        }

        // Reconnect fixed endpoints whose backoff expired.  Connecting
        // *before* claiming means a connect failure never burns a job
        // attempt.
        let now = Instant::now();
        for slot in &mut slots {
            let Some(index) = slot.endpoint else { continue };
            if slot.conn.is_some() || slot.failures >= RECONNECT_LIMIT || slot.retry_at > now {
                continue;
            }
            match LoopConn::from_endpoint(&dispatcher.endpoints[index], &tuning) {
                Ok(conn) => {
                    slot.conn = Some(conn);
                    progressed = true;
                }
                Err(error) => {
                    state.last_transport_error = Some(error.to_string());
                    slot.failures += 1;
                    slot.retry_at = now + Duration::from_millis(20 * slot.failures as u64);
                }
            }
        }

        // Read phase: handle everything every connection has ready.
        for slot in &mut slots {
            if slot.conn.is_none() {
                continue;
            }
            match pump(
                slot.conn.as_mut().expect("checked above"),
                &mut state,
                done,
                validate,
                max_attempts,
                obs,
            ) {
                Ok(p) => progressed |= p,
                Err(error) => fail_conn(slot, &error, &mut state, max_attempts, obs),
            }
        }

        // Deadline phase: hello timeouts and ping health checks.
        let now = Instant::now();
        for slot in &mut slots {
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            if !conn.ready {
                if now >= conn.hello_deadline {
                    let error = FleetError::Handshake(format!(
                        "timed out waiting for the hello of {}",
                        conn.peer
                    ));
                    fail_conn(slot, &error, &mut state, max_attempts, obs);
                }
                continue;
            }
            if conn.outstanding.is_empty() {
                continue;
            }
            let was_pinging = conn.ping_sent.is_some();
            match conn.ping_if_silent(&tuning) {
                Ok(()) => {
                    if !was_pinging && conn.ping_sent.is_some() {
                        obs.pinged(&conn.peer);
                    }
                }
                Err(error) => fail_conn(slot, &error, &mut state, max_attempts, obs),
            }
        }

        // Fail fast: once the lowest failure is final the batch's result
        // is fixed, so nothing more is claimed — not a queued job, not a
        // straggler copy — and the loop only waits for the jobs already
        // in flight, so their connections park warm.
        let failed = state.failure_is_final();
        if failed {
            state.queue.clear();
        }

        // Fill phase: queued jobs go to the least-loaded eligible
        // connection (load as a fraction of its capacity, compared by
        // cross-multiplication), skipping connections that already
        // hold the job — a duplicate id on one stream would read as a
        // protocol violation.  Jobs nobody can take yet return to the
        // queue front in order.
        let mut held: Vec<usize> = Vec::new();
        while let Some(job) = state.queue.pop_front() {
            if state.is_settled(job) {
                continue;
            }
            let mut best: Option<usize> = None;
            let mut any_spare = false;
            for (i, slot) in slots.iter().enumerate() {
                let Some(conn) = slot.conn.as_ref() else {
                    continue;
                };
                if !conn.ready || conn.outstanding.len() >= conn.capacity {
                    continue;
                }
                any_spare = true;
                if conn.outstanding.contains(&job) {
                    continue;
                }
                let better = best.is_none_or(|b| {
                    let best_conn = slots[b].conn.as_ref().expect("best slot is live");
                    conn.outstanding.len() * best_conn.capacity
                        < best_conn.outstanding.len() * conn.capacity
                });
                if better {
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    state.claim(job);
                    let slot = &mut slots[i];
                    let conn = slot.conn.as_mut().expect("picked a live slot");
                    match conn.queue_job(job, jobs, blobs) {
                        Ok(()) => {
                            obs.dispatched(&conn.peer, job as u64, jobs[job].span.as_ref());
                            progressed = true;
                        }
                        Err(error) => {
                            state.requeue_or_fail(job, &error, max_attempts);
                            fail_conn(slot, &error, &mut state, max_attempts, obs);
                        }
                    }
                }
                None => {
                    held.push(job);
                    if !any_spare {
                        break;
                    }
                }
            }
        }
        for job in held.into_iter().rev() {
            state.queue.push_front(job);
        }

        // Straggler phase: once the queue is dry, fully idle connections
        // speculatively duplicate the least-duplicated job still in
        // flight elsewhere, after the grace period — whichever copy
        // answers first wins.
        if state.queue.is_empty() && !failed {
            let now = Instant::now();
            for slot in &mut slots {
                let idle_conn = slot
                    .conn
                    .as_ref()
                    .is_some_and(|conn| conn.ready && conn.outstanding.is_empty());
                if !idle_conn {
                    continue;
                }
                let mut pick: Option<usize> = None;
                for job in 0..jobs.len() {
                    if state.is_settled(job)
                        || state.in_flight[job] == 0
                        || state.attempts[job] >= max_attempts
                    {
                        continue;
                    }
                    let ready_at = state.claimed_at[job]
                        .map_or(now, |claimed| claimed + tuning.straggler_grace);
                    if ready_at > now {
                        continue;
                    }
                    let better = pick.is_none_or(|best| {
                        (state.in_flight[job], state.attempts[job], job)
                            < (state.in_flight[best], state.attempts[best], best)
                    });
                    if better {
                        pick = Some(job);
                    }
                }
                let Some(job) = pick else { break };
                state.claim(job);
                let conn = slot.conn.as_mut().expect("idle slot is live");
                match conn.queue_job(job, jobs, blobs) {
                    Ok(()) => {
                        obs.dispatched(&conn.peer, job as u64, jobs[job].span.as_ref());
                        progressed = true;
                    }
                    Err(error) => {
                        state.requeue_or_fail(job, &error, max_attempts);
                        fail_conn(slot, &error, &mut state, max_attempts, obs);
                    }
                }
            }
        }

        // Write phase: push the outboxes out.
        for slot in &mut slots {
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            if let Err(error) = conn.flush() {
                fail_conn(slot, &error, &mut state, max_attempts, obs);
            }
        }

        if (0..jobs.len()).all(|job| state.is_settled(job)) {
            break;
        }
        let mut live = slots.iter().flat_map(|slot| &slot.conn);
        if failed && live.all(|conn| conn.outstanding.is_empty()) {
            break;
        }

        // Hopelessness: nothing connected and nothing left to connect.
        // With a registration listener open, wait one handshake timeout
        // for a worker to join before giving the batch up.
        let now = Instant::now();
        let any_live = slots.iter().any(|slot| slot.conn.is_some());
        let any_connectable = slots.iter().any(|slot| {
            slot.endpoint.is_some() && slot.conn.is_none() && slot.failures < RECONNECT_LIMIT
        });
        if !any_live && !any_connectable {
            if listener.is_none() {
                break;
            }
            let since = *join_grace_start.get_or_insert(now);
            if now.duration_since(since) >= tuning.handshake_timeout {
                break;
            }
        } else {
            join_grace_start = None;
        }

        // Joined workers that died never reconnect; drop their slots so
        // a long sweep with churn does not accumulate dead weight.
        slots.retain(|slot| slot.endpoint.is_some() || slot.conn.is_some());

        if progressed {
            idle = MIN_IDLE;
        } else {
            std::thread::sleep(idle);
            idle = (idle * 2).min(MAX_IDLE);
        }
    }

    // Park the warm state back on the dispatcher: ready connections with
    // nothing in flight survive to the next batch; connections with
    // stale answers still coming are dropped (their workers re-dial or
    // are respawned).
    let mut warm = dispatcher.warm.lock().expect("no dispatcher panics");
    warm.listener = listener;
    for slot in slots {
        if let Some(conn) = slot.conn {
            if conn.ready && conn.outstanding.is_empty() {
                match slot.endpoint {
                    Some(index) => warm.fixed[index] = Some(conn),
                    None => warm.joined.push(conn),
                }
            } else {
                // Dropped with stale straggler answers still owed: the
                // jobs settled elsewhere, so only the health counters
                // need to forget them.
                obs.abandoned(&conn.peer, conn.outstanding.len() as u64);
            }
        }
    }
    state
}
