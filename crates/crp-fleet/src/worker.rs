//! The long-lived worker loop.
//!
//! A worker serves a *stream* of jobs on one connection — N jobs per
//! process instead of one spawn per job — which amortises process
//! spawn, binary load and allocator warm-up over the whole batch.  The
//! loop itself is transport agnostic: [`serve`] takes any
//! `(Read, Write)` pair, [`serve_stdio`] binds it to the process's stdio
//! (the local-pool transport), and [`crate::TcpWorker`] and
//! [`crate::join_fleet`] bind it to a socket (the remote transports).
//! Every one of them serves out of a caller-owned [`ScenarioStore`].
//!
//! Two behaviours live here:
//!
//! * **Concurrent answering** — the read loop never blocks on a job:
//!   each job executes on its own scoped thread and its answer is
//!   written under a lock whenever it finishes.  Pings are therefore
//!   answered immediately even mid-job (the dispatcher's health checks
//!   stay meaningful), and a dispatcher that pipelines several jobs up
//!   to the advertised hello capacity genuinely gets them executed in
//!   parallel.  A handler that panics is answered `failed` with the
//!   panic message, so every job the loop accepts gets an answer.
//! * **Scenario blobs** — `scenario-put` stores a content-addressed
//!   blob (hash-verified) in the connection's [`ScenarioStore`].  Job
//!   handlers resolve payload references out of the same store, so a
//!   scenario's masses ship once per worker instead of once per shard.
//!
//! The loop knows nothing of what a payload means: the handler is the
//! caller's, and so is any state it keeps between jobs.  The
//! `crp_experiments worker` handler keeps a spec cache beside its store,
//! so each cell spec is compiled once per worker process, not once per
//! job; since one handler serves every connection and job thread, the
//! cache is shared the way the store is.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

use crate::chaos::FaultKind;
use crate::frame::{write_frame, FrameReader};
use crate::hash::content_hash;
use crate::protocol::{Message, PROTOCOL_VERSION};
use crate::FleetError;

/// A job handler: opaque payload in, opaque answer (or a deterministic
/// failure message) out.
pub type JobHandler<'a> = &'a (dyn Fn(&str) -> Result<String, String> + Sync);

/// A worker-side store of content-addressed blobs, fed by
/// `scenario-put` messages and read by job handlers resolving payload
/// references.  For TCP workers one store outlives all connections, so
/// every dispatcher connection shares the blobs already received.
#[derive(Debug, Default)]
pub struct ScenarioStore {
    blobs: Mutex<HashMap<String, String>>,
}

impl ScenarioStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The blob stored under `hash`, if any.
    pub fn get(&self, hash: &str) -> Option<String> {
        self.blobs
            .lock()
            .expect("no store panics")
            .get(hash)
            .cloned()
    }

    /// Stores `blob` under `hash` (idempotent).
    pub fn insert(&self, hash: String, blob: String) {
        self.blobs
            .lock()
            .expect("no store panics")
            .insert(hash, blob);
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.lock().expect("no store panics").len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Options of one serve loop: the advertised capacity and the
/// fault-injection knobs the dispatcher's failure tests, chaos plans and
/// CI smoke jobs drive via `worker --capacity N` and
/// `worker --fault FAULT@JOBS`.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Kill the whole process (exit code 17) when the N-th job *arrives*,
    /// after writing a deliberately truncated frame — a worker dying
    /// mid-stream (`--fault die@N`).
    pub die_after: Option<usize>,
    /// Answer every job from the N-th onwards with bytes that are not a
    /// frame at all — a worker gone haywire (`--fault garbage@N`).
    pub garbage_after: Option<usize>,
    /// Answer every job from the N-th onwards with a *well-framed* `done`
    /// whose body is nonsense — a worker whose answers frame correctly
    /// but fail payload validation (`--fault mangle@N`).
    pub mangle_after: Option<usize>,
    /// Stop reading and answering entirely when the N-th job arrives — a
    /// wedged worker that holds its connection open but goes silent, the
    /// failure mode the dispatcher's ping health check exists to catch
    /// (`--fault wedge@N`).
    pub wedge_after: Option<usize>,
    /// How many jobs the dispatcher may keep in flight on one connection
    /// (advertised in the hello, clamped to at least 1).
    pub capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            die_after: None,
            garbage_after: None,
            mangle_after: None,
            wedge_after: None,
            capacity: 1,
        }
    }
}

impl ServeOptions {
    /// Schedules one fault from its `FAULT@JOBS` form (the value of
    /// `worker --fault`, e.g. `die@2`), parsed by the same code as a
    /// [`crate::ChaosPlan`] entry.
    ///
    /// # Errors
    ///
    /// [`FleetError::Chaos`] for an unknown fault, a missing or
    /// malformed `@JOBS`, or a fault kind already scheduled.
    pub fn schedule_fault(&mut self, text: &str) -> Result<(), FleetError> {
        let (kind, after_jobs) = FaultKind::parse_schedule(text, text)?;
        let slot = match kind {
            FaultKind::Die => &mut self.die_after,
            FaultKind::Garbage => &mut self.garbage_after,
            FaultKind::Mangle => &mut self.mangle_after,
            FaultKind::Wedge => &mut self.wedge_after,
        };
        if slot.is_some() {
            return Err(FleetError::Chaos {
                entry: text.to_string(),
                reason: format!(
                    "{:?} is already scheduled; one schedule per fault kind",
                    kind.name()
                ),
            });
        }
        *slot = Some(after_jobs);
        Ok(())
    }
}

/// Serves one connection out of a caller-owned blob store: sends the
/// hello handshake, then answers jobs (and pings, blob shipments and
/// metrics pulls) until the peer shuts the stream down.  Returns the
/// number of jobs accepted.
///
/// Jobs execute on scoped threads so the read loop keeps draining pings
/// and pipelined jobs while earlier jobs compute; answers may therefore
/// leave in completion order, not arrival order (the dispatcher matches
/// them by id).  A job whose handler panics is answered `failed` with
/// the panic message: the answer is a function of the payload, so the
/// dispatcher reports it rather than retrying it elsewhere.
///
/// # Errors
///
/// [`FleetError`] for transport failures and malformed or unexpected
/// incoming messages (including a `scenario-put` whose blob does not
/// hash to its claimed address).
pub fn serve(
    reader: impl Read,
    writer: &mut (impl Write + Send),
    handler: JobHandler<'_>,
    options: &ServeOptions,
    store: &ScenarioStore,
) -> Result<usize, FleetError> {
    write_frame(
        writer,
        &Message::Hello {
            version: PROTOCOL_VERSION,
            capacity: options.capacity.max(1),
        }
        .encode(),
    )?;
    let writer: Mutex<&mut (dyn Write + Send)> = Mutex::new(writer);
    /// Writes one message under the writer lock.
    fn send(writer: &Mutex<&mut (dyn Write + Send)>, message: &Message) -> Result<(), FleetError> {
        let mut guard = writer.lock().expect("no serve panics");
        write_frame(&mut *guard, &message.encode())
    }
    // The first write failure a job thread hits; surfaced from the main
    // loop because scoped threads cannot return early out of it.
    let write_error: Mutex<Option<FleetError>> = Mutex::new(None);
    let mut reader = FrameReader::new(reader);
    let mut served = 0usize;
    std::thread::scope(|scope| {
        loop {
            if let Some(error) = write_error.lock().expect("no serve panics").take() {
                return Err(error);
            }
            let Some(payload) = reader.read_frame()? else {
                return Ok(served);
            };
            match Message::decode(&payload)? {
                Message::Job { id, payload, span } => {
                    if options.die_after == Some(served) {
                        // Die mid-answer: a frame header promising more bytes
                        // than ever arrive, then a hard exit.  The dispatcher
                        // must treat this worker as dead and re-dispatch.
                        let mut writer = writer.lock().expect("no serve panics");
                        let _ = writer.write_all(b"frame 4096\ntruncat");
                        let _ = writer.flush();
                        std::process::exit(17);
                    }
                    if options.wedge_after == Some(served) {
                        // Go silent without closing anything: the socket
                        // stays open, nothing is read or written again.
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                    if matches!(options.garbage_after, Some(n) if served >= n) {
                        let mut guard = writer.lock().expect("no serve panics");
                        guard.write_all(b"!!fleet-garbage!!\n")?;
                        guard.flush()?;
                        served += 1;
                        continue;
                    }
                    if matches!(options.mangle_after, Some(n) if served >= n) {
                        send(
                            &writer,
                            &Message::Done {
                                id,
                                payload: "!!mangled-answer!!".to_string(),
                            },
                        )?;
                        served += 1;
                        continue;
                    }
                    served += 1;
                    let writer = &writer;
                    let write_error = &write_error;
                    scope.spawn(move || {
                        // The job's trace context rides the frame head;
                        // park it in the execution thread so the
                        // instrumentation deep in the handler (e.g. the
                        // simulator's `shard.execute` event) can stamp it.
                        crp_obs::set_current_span(span);
                        // A panic is caught so the job still gets an
                        // answer.  The closure borrows only the handler and
                        // this job's payload, so the unwind leaves none of
                        // the loop's state half-updated.
                        let answer = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                            handler(&payload)
                        })) {
                            Ok(Ok(payload)) => Message::Done { id, payload },
                            Ok(Err(message)) => Message::Failed { id, message },
                            Err(panic) => Message::Failed {
                                id,
                                message: format!(
                                    "the job handler panicked: {}",
                                    panic_message(panic.as_ref())
                                ),
                            },
                        };
                        crp_obs::set_current_span(None);
                        if let Err(error) = send(writer, &answer) {
                            write_error
                                .lock()
                                .expect("no serve panics")
                                .get_or_insert(error);
                        }
                    });
                }
                Message::Ping { id } => send(&writer, &Message::Pong { id })?,
                Message::ScenarioPut { hash, blob } => {
                    let actual = content_hash(blob.as_bytes());
                    if actual != hash {
                        return Err(FleetError::Malformed(format!(
                            "scenario-put blob hashes to {actual}, not its claimed {hash}"
                        )));
                    }
                    store.insert(hash, blob);
                }
                Message::Metrics { id } => {
                    // Ship the whole process-wide registry: the worker's
                    // job/ shard counters live there, and snapshots merge
                    // order-independently on the dispatcher side.
                    let body = crp_obs::global().snapshot().encode();
                    send(&writer, &Message::MetricsReport { id, body })?;
                }
                Message::Shutdown => return Ok(served),
                other => {
                    return Err(FleetError::Malformed(format!(
                        "worker received an unexpected {other:?}"
                    )))
                }
            }
        }
    })
}

/// The message a panic was raised with, if it carried one.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

/// Serves the process's stdin/stdout — the transport of a
/// dispatcher-spawned local pool worker — out of a caller-owned store
/// (so the handler can resolve blob references out of it).
///
/// # Errors
///
/// As [`serve`].
pub fn serve_stdio(
    handler: JobHandler<'_>,
    options: &ServeOptions,
    store: &ScenarioStore,
) -> Result<usize, FleetError> {
    // `Stdout` (not the non-`Send` `StdoutLock`) — every write locks
    // internally, and the serve loop serialises writers anyway.
    let mut stdout = std::io::stdout();
    serve(
        std::io::stdin().lock(),
        &mut stdout,
        handler,
        options,
        store,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo(payload: &str) -> Result<String, String> {
        if let Some(message) = payload.strip_prefix("panic:") {
            panic!("{message}");
        }
        match payload.strip_prefix("fail:") {
            Some(message) => Err(message.to_string()),
            None => Ok(format!("echo:{payload}")),
        }
    }

    /// Runs a scripted conversation against the serve loop over `store`
    /// and returns the worker's decoded answers (skipping the hello).
    fn converse_with(
        messages: &[Message],
        store: &ScenarioStore,
    ) -> (Result<usize, FleetError>, Vec<Message>) {
        let mut request_bytes = Vec::new();
        for message in messages {
            write_frame(&mut request_bytes, &message.encode()).unwrap();
        }
        let mut response_bytes = Vec::new();
        let served = serve(
            request_bytes.as_slice(),
            &mut response_bytes,
            &echo,
            &ServeOptions::default(),
            store,
        );
        let mut responses = Vec::new();
        let mut response_reader = FrameReader::new(response_bytes.as_slice());
        while let Some(frame) = response_reader.read_frame().unwrap() {
            responses.push(Message::decode(&frame).unwrap());
        }
        let hello = responses.remove(0);
        assert!(
            matches!(
                hello,
                Message::Hello {
                    version: PROTOCOL_VERSION,
                    ..
                }
            ),
            "unexpected hello {hello:?}"
        );
        (served, responses)
    }

    fn converse(messages: &[Message]) -> (Result<usize, FleetError>, Vec<Message>) {
        converse_with(messages, &ScenarioStore::new())
    }

    #[test]
    fn worker_answers_a_stream_of_jobs_on_one_connection() {
        let (served, responses) = converse(&[
            Message::Job {
                id: 5,
                payload: "alpha".into(),
                span: None,
            },
            Message::Ping { id: 42 },
            Message::Job {
                id: 6,
                payload: "beta\nwith body".into(),
                span: None,
            },
            Message::Job {
                id: 7,
                payload: "fail:bad spec".into(),
                span: None,
            },
            Message::Shutdown,
        ]);
        assert_eq!(served.unwrap(), 3, "three jobs on one connection");
        // Jobs execute concurrently, so answers may interleave; compare
        // as sets keyed by id.
        let expect = vec![
            Message::Done {
                id: 5,
                payload: "echo:alpha".into(),
            },
            Message::Pong { id: 42 },
            Message::Done {
                id: 6,
                payload: "echo:beta\nwith body".into(),
            },
            Message::Failed {
                id: 7,
                message: "bad spec".into(),
            },
        ];
        assert_eq!(responses.len(), expect.len());
        for message in expect {
            assert!(responses.contains(&message), "missing {message:?}");
        }
    }

    #[test]
    fn a_panicking_handler_is_answered_with_failed() {
        let (served, responses) = converse(&[
            Message::Job {
                id: 1,
                payload: "panic:boom".into(),
                span: None,
            },
            Message::Job {
                id: 2,
                payload: "after".into(),
                span: None,
            },
            Message::Shutdown,
        ]);
        assert_eq!(served.unwrap(), 2, "the loop survives the panic");
        assert_eq!(responses.len(), 2);
        assert!(
            responses.iter().any(|message| matches!(
                message,
                Message::Failed { id: 1, message } if message.contains("panicked: boom")
            )),
            "{responses:?}"
        );
        assert!(responses.contains(&Message::Done {
            id: 2,
            payload: "echo:after".into(),
        }));
    }

    #[test]
    fn worker_stops_cleanly_on_eof() {
        let (served, responses) = converse(&[Message::Job {
            id: 1,
            payload: "only".into(),
            span: None,
        }]);
        assert_eq!(served.unwrap(), 1);
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn worker_rejects_messages_only_a_dispatcher_may_send() {
        let (served, _) = converse(&[Message::Pong { id: 9 }]);
        assert!(matches!(served, Err(FleetError::Malformed(_))));
    }

    #[test]
    fn scenario_blobs_are_stored_and_hash_verified() {
        let blob = "sampled 3fe0000000000000".to_string();
        let hash = content_hash(blob.as_bytes());
        let store = ScenarioStore::new();
        let (served, responses) = converse_with(
            &[
                Message::ScenarioPut {
                    hash: hash.clone(),
                    blob: blob.clone(),
                },
                Message::Shutdown,
            ],
            &store,
        );
        assert_eq!(served.unwrap(), 0, "blob traffic is not a job");
        assert!(responses.is_empty(), "scenario-put is unacknowledged");
        assert_eq!(store.get(&hash), Some(blob.clone()));

        // A blob whose bytes do not hash to the claimed address is a
        // protocol violation, not a silent cache poisoning.
        let store = ScenarioStore::new();
        let (served, _) = converse_with(
            &[Message::ScenarioPut {
                hash: content_hash(b"something else"),
                blob,
            }],
            &store,
        );
        assert!(matches!(served, Err(FleetError::Malformed(_))));
        assert!(store.is_empty());
    }

    #[test]
    fn workers_answer_metrics_pulls() {
        let (served, responses) = converse(&[Message::Metrics { id: 9 }, Message::Shutdown]);
        assert_eq!(served.unwrap(), 0, "a metrics pull is not a job");
        match &responses[..] {
            [Message::MetricsReport { id: 9, body }] => {
                // The body is the canonical snapshot codec (contents vary
                // with whatever other tests recorded into the global
                // registry, so only decodability is asserted).
                crp_obs::MetricsSnapshot::decode(body).unwrap();
            }
            other => panic!("expected one metrics-report, got {other:?}"),
        }
    }

    #[test]
    fn job_spans_reach_the_handler_thread() {
        let seen = Mutex::new(None);
        let handler = |payload: &str| {
            *seen.lock().unwrap() = crp_obs::current_span();
            Ok(format!("echo:{payload}"))
        };
        let mut request = Vec::new();
        write_frame(
            &mut request,
            &Message::Job {
                id: 1,
                payload: "x".into(),
                span: Some(crp_obs::SpanContext {
                    id: "ab12cd34ef56ab78".into(),
                    parent: Some("0011223344556677".into()),
                }),
            }
            .encode(),
        )
        .unwrap();
        write_frame(&mut request, &Message::Shutdown.encode()).unwrap();
        let mut sink = Vec::new();
        serve(
            request.as_slice(),
            &mut sink,
            &handler,
            &ServeOptions::default(),
            &ScenarioStore::new(),
        )
        .unwrap();
        let span = seen.lock().unwrap().clone().expect("handler saw a span");
        assert_eq!(span.id, "ab12cd34ef56ab78");
        assert_eq!(span.parent.as_deref(), Some("0011223344556677"));
    }

    #[test]
    fn the_store_outlives_connections() {
        let store = ScenarioStore::new();
        let hash = content_hash(b"persistent");
        let mut request = Vec::new();
        write_frame(
            &mut request,
            &Message::ScenarioPut {
                hash: hash.clone(),
                blob: "persistent".to_string(),
            }
            .encode(),
        )
        .unwrap();
        write_frame(&mut request, &Message::Shutdown.encode()).unwrap();
        let mut sink = Vec::new();
        serve(
            request.as_slice(),
            &mut sink,
            &echo,
            &ServeOptions::default(),
            &store,
        )
        .unwrap();
        assert_eq!(
            store.get(&hash).as_deref(),
            Some("persistent"),
            "the caller-owned store keeps blobs"
        );
    }

    #[test]
    fn garbage_injection_answers_with_unframable_bytes() {
        let mut request_bytes = Vec::new();
        write_frame(
            &mut request_bytes,
            &Message::Job {
                id: 0,
                payload: "x".into(),
                span: None,
            }
            .encode(),
        )
        .unwrap();
        let mut response_bytes = Vec::new();
        serve(
            request_bytes.as_slice(),
            &mut response_bytes,
            &echo,
            &ServeOptions {
                garbage_after: Some(0),
                ..Default::default()
            },
            &ScenarioStore::new(),
        )
        .unwrap();
        let mut response_reader = FrameReader::new(response_bytes.as_slice());
        // The hello is fine...
        assert!(response_reader.read_frame().unwrap().is_some());
        // ...but the answer is not a frame.
        assert!(response_reader.read_frame().is_err());
    }

    #[test]
    fn fault_args_schedule_the_serve_options() {
        let mut options = ServeOptions::default();
        options.schedule_fault("die@2").unwrap();
        options.schedule_fault("garbage@0").unwrap();
        options.schedule_fault("mangle@3").unwrap();
        options.schedule_fault("wedge@1").unwrap();
        assert_eq!(options.die_after, Some(2));
        assert_eq!(options.garbage_after, Some(0));
        assert_eq!(options.mangle_after, Some(3));
        assert_eq!(options.wedge_after, Some(1));
        assert_eq!(options.capacity, 1, "faults leave the capacity alone");

        for (bad, needle) in [
            ("explode@2", "unknown fault"),
            ("die", "FAULT@JOBS"),
            ("die@", "job count"),
            ("die@x", "job count"),
            ("0:die@2", "unknown fault"),
        ] {
            match ServeOptions::default().schedule_fault(bad) {
                Err(FleetError::Chaos { entry, reason }) => {
                    assert_eq!(entry, bad);
                    assert!(reason.contains(needle), "{bad:?}: {reason}");
                }
                other => panic!("{bad:?} scheduled to {other:?}"),
            }
        }
        let mut options = ServeOptions::default();
        options.schedule_fault("die@1").unwrap();
        match options.schedule_fault("die@5") {
            Err(FleetError::Chaos { reason, .. }) => {
                assert!(reason.contains("already scheduled"), "{reason}");
            }
            other => panic!("a duplicate kind scheduled to {other:?}"),
        }
        assert_eq!(options.die_after, Some(1), "the first schedule stands");
    }
}
