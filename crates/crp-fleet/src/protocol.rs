//! The messages inside fleet frames.
//!
//! Every frame payload is UTF-8 text: a head line naming the message
//! (and carrying its job id where applicable), then an optional body.
//! Bodies are opaque to this crate — `crp-sim` puts its `ShardSpec` and
//! `TrialAccumulator` wire text there unchanged.
//!
//! The conversation on one connection:
//!
//! ```text
//! worker     -> dispatcher   hello v3 capacity 4        (handshake)
//! dispatcher -> worker       scenario-put ab12..\n<blob> (blob shipped once)
//! dispatcher -> worker       job 17 span cd34..\n<payload> (trace span rides along)
//! dispatcher -> worker       job 18\n<payload>          (pipelined up to the capacity)
//! worker     -> dispatcher   done 17\n<payload>         (or: failed 17\n<message>)
//! dispatcher -> worker       ping 99
//! worker     -> dispatcher   pong 99                    (health check, answered mid-job)
//! dispatcher -> worker       metrics 7                  (registry pull)
//! worker     -> dispatcher   metrics-report 7\n<snapshot>
//! worker     -> dispatcher   done 18\n<payload>
//! dispatcher -> worker       shutdown                   (or just closes the stream)
//! ```
//!
//! `scenario-put` ships a content-addressed blob (a scenario's masses
//! travel once per worker and later jobs reference them by hash); it is
//! fire-and-forget, so it pipelines with jobs in flight.  Dispatcher and
//! worker are the same binary, so there is exactly one protocol
//! version: a hello carrying any other version is a typed handshake
//! error, never a negotiated-down conversation.

use crp_obs::{parse_int, Fields, Head, SpanContext};

use crate::hash::is_content_hash;
use crate::FleetError;

/// Version of the fleet wire protocol; sent in the [`Message::Hello`]
/// handshake.  The dispatcher accepts exactly this version and rejects
/// any other with a typed error instead of misparsing frames.
pub const PROTOCOL_VERSION: u32 = 3;

/// One fleet protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → dispatcher, first message on every connection.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
        /// How many jobs the worker is willing to run concurrently on
        /// this connection; the dispatcher keeps up to this many in
        /// flight.
        capacity: usize,
    },
    /// Dispatcher → worker: execute this payload.
    Job {
        /// Dispatcher-chosen id echoed back in the answer.
        id: u64,
        /// Opaque job description.
        payload: String,
        /// The job's trace context (absent on unstamped jobs): its
        /// deterministic span id and parent, derived from content hashes
        /// on the dispatching side (see `crp_obs::span_from_hash`), never
        /// from randomness.  Workers stamp both onto the trace events
        /// they emit while executing the job, which is what lets
        /// `trace-join` correlate dispatcher and worker files causally.
        span: Option<SpanContext>,
    },
    /// Worker → dispatcher: the job's successful answer.
    Done {
        /// Echo of the job id.
        id: u64,
        /// Opaque answer.
        payload: String,
    },
    /// Worker → dispatcher: the job failed deterministically (the payload
    /// itself is bad; re-dispatching cannot help).
    Failed {
        /// Echo of the job id.
        id: u64,
        /// Human-readable failure.
        message: String,
    },
    /// Dispatcher → worker health check.
    Ping {
        /// Echoed in the matching [`Message::Pong`].
        id: u64,
    },
    /// Worker → dispatcher health-check answer.
    Pong {
        /// Echo of the ping id.
        id: u64,
    },
    /// Dispatcher → worker: store this content-addressed blob so later
    /// job payloads can reference it by hash.  Fire-and-forget — the
    /// worker verifies the hash and answers nothing.
    ScenarioPut {
        /// The blob's [`crate::hash::content_hash`].
        hash: String,
        /// The opaque blob bytes (UTF-8 text in practice).
        blob: String,
    },
    /// Dispatcher → worker: report the worker's process-wide
    /// metrics registry.
    Metrics {
        /// Echoed in the matching [`Message::MetricsReport`].
        id: u64,
    },
    /// Worker → dispatcher: the answer to [`Message::Metrics`] — a
    /// `MetricsSnapshot` in its canonical wire encoding.
    MetricsReport {
        /// Echo of the request id.
        id: u64,
        /// The snapshot wire body (`crp_obs::MetricsSnapshot::encode`).
        body: String,
    },
    /// Dispatcher → worker: finish up and close the connection.
    Shutdown,
}

impl Message {
    /// Encodes the message into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Hello { version, capacity } => {
                format!("hello v{version} capacity {capacity}")
            }
            Message::Job { id, payload, span } => {
                let mut head = format!("job {id}");
                if let Some(span) = span {
                    head.push_str(" span ");
                    head.push_str(&span.id);
                    if let Some(parent) = &span.parent {
                        head.push_str(" parent ");
                        head.push_str(parent);
                    }
                }
                format!("{head}\n{payload}")
            }
            Message::Done { id, payload } => format!("done {id}\n{payload}"),
            Message::Failed { id, message } => format!("failed {id}\n{message}"),
            Message::Ping { id } => format!("ping {id}"),
            Message::Pong { id } => format!("pong {id}"),
            Message::ScenarioPut { hash, blob } => format!("scenario-put {hash}\n{blob}"),
            Message::Metrics { id } => format!("metrics {id}"),
            Message::MetricsReport { id, body } => format!("metrics-report {id}\n{body}"),
            Message::Shutdown => "shutdown".to_string(),
        }
        .into_bytes()
    }

    /// Decodes a frame payload: exactly the bytes [`Message::encode`]
    /// writes.
    ///
    /// # Errors
    ///
    /// [`FleetError::Malformed`] for non-UTF-8 payloads, unknown message
    /// names, missing, extra or non-canonical fields (a hello without its
    /// capacity included), and a body on a message that takes none or a
    /// missing one.
    pub fn decode(bytes: &[u8]) -> Result<Self, FleetError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| FleetError::Malformed(format!("message is not UTF-8: {e}")))?;
        let mut head = Head::parse(text)?;
        // ` <word> <span id>`, when the head line goes on.
        let span_id = |fields: &mut Fields<'_>, word: &str| match fields.opt()? {
            None => Ok(None),
            Some(token) if token == word => fields
                .parse("a span id", |id| {
                    crp_obs::is_span_id(id).then(|| id.to_string())
                })
                .map(Some),
            Some(other) => Err(fields.error(format!("unexpected job trailer {other:?}"))),
        };
        let message = match head.name {
            "hello" => Message::Hello {
                version: head.fields.parse("a version v<n>", |token| {
                    parse_int(token.strip_prefix('v')?)
                })?,
                capacity: {
                    head.fields.keyword("capacity")?;
                    head.fields.int()?
                },
            },
            "job" => {
                let id = head.fields.int()?;
                let span = match span_id(&mut head.fields, "span")? {
                    None => None,
                    Some(span) => Some(SpanContext {
                        id: span,
                        parent: span_id(&mut head.fields, "parent")?,
                    }),
                };
                let payload = head.body()?.to_string();
                Message::Job { id, payload, span }
            }
            "done" => Message::Done {
                id: head.fields.int()?,
                payload: head.body()?.to_string(),
            },
            "failed" => Message::Failed {
                id: head.fields.int()?,
                message: head.body()?.to_string(),
            },
            "ping" => Message::Ping {
                id: head.fields.int()?,
            },
            "pong" => Message::Pong {
                id: head.fields.int()?,
            },
            "scenario-put" => Message::ScenarioPut {
                hash: head.fields.parse("a content hash", |token| {
                    is_content_hash(token).then(|| token.to_string())
                })?,
                blob: head.body()?.to_string(),
            },
            "metrics" => Message::Metrics {
                id: head.fields.int()?,
            },
            "metrics-report" => Message::MetricsReport {
                id: head.fields.int()?,
                body: head.body()?.to_string(),
            },
            "shutdown" => Message::Shutdown,
            other => return Err(FleetError::Malformed(format!("unknown message {other:?}"))),
        };
        head.finish()?;
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip() {
        let messages = [
            Message::Hello {
                version: PROTOCOL_VERSION,
                capacity: 4,
            },
            Message::Job {
                id: 17,
                payload: "crp-shard-spec v1\nprotocol decay\nend\n".to_string(),
                span: None,
            },
            Message::Job {
                id: 21,
                payload: "crp-shard-spec v1\nprotocol decay\nend\n".to_string(),
                span: Some(SpanContext {
                    id: "ab12cd34ef56ab78".to_string(),
                    parent: None,
                }),
            },
            Message::Job {
                id: 22,
                payload: "payload".to_string(),
                span: Some(SpanContext {
                    id: "ab12cd34ef56ab78".to_string(),
                    parent: Some("0011223344556677".to_string()),
                }),
            },
            Message::Done {
                id: 17,
                payload: "crp-shard-accumulator v1\ntrials 3\nend\n".to_string(),
            },
            Message::Failed {
                id: 9,
                message: "unknown protocol \"nope\"".to_string(),
            },
            Message::Ping { id: 1 },
            Message::Pong { id: 1 },
            Message::ScenarioPut {
                hash: crate::hash::content_hash(b"masses"),
                blob: "sampled 3fe0\nwith a second line".to_string(),
            },
            Message::Metrics { id: 7 },
            Message::MetricsReport {
                id: 7,
                body: "crp-metrics-snapshot v1\ncounters 0\ngauges 0\nhistograms 0\nend\n"
                    .to_string(),
            },
            Message::Shutdown,
        ];
        for message in messages {
            assert_eq!(Message::decode(&message.encode()).unwrap(), message);
        }
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for bad in [
            b"".as_slice(),
            b"job",
            b"job x\npayload",
            b"done",
            b"hello",
            b"hello v3",
            b"hello 1",
            b"hello vx",
            b"hello v1 cap 2",
            b"hello v1 capacity x",
            b"warp 9",
            b"job 1 span\npayload",
            b"job 1 span SHOUTYHEXDIGITS\npayload",
            b"job 1 span ab12cd34ef56ab78 parent\npayload",
            b"job 1 span ab12cd34ef56ab78 parent nope\npayload",
            b"job 1 parent ab12cd34ef56ab78\npayload",
            b"job 1 span ab12cd34ef56ab78 extra\npayload",
            b"metrics",
            b"metrics-report",
            b"scenario-put",
            b"scenario-put nothash\nblob",
            b"scenario-have short",
            b"scenario-state 0000000000000000000000000000000000000000000000000000000000000000 maybe",
            &[0xFF, 0xFE],
        ] {
            assert!(
                matches!(Message::decode(bad), Err(FleetError::Malformed(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn bodies_preserve_embedded_newlines() {
        let payload = "a\nb\n\nc";
        let encoded = Message::Job {
            id: 0,
            payload: payload.to_string(),
            span: None,
        }
        .encode();
        match Message::decode(&encoded).unwrap() {
            Message::Job { payload: got, .. } => assert_eq!(got, payload),
            other => panic!("decoded {other:?}"),
        }
    }
}
