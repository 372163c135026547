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

use crate::hash::is_content_hash;
use crate::FleetError;

/// Version of the fleet wire protocol; sent in the [`Message::Hello`]
/// handshake.  The dispatcher accepts exactly this version and rejects
/// any other with a typed error instead of misparsing frames.
pub const PROTOCOL_VERSION: u32 = 3;

/// The trace context a `job` head line carries: the job's
/// deterministic span id plus its parent span, both derived from
/// content hashes on the dispatching side (see `crp_obs::span_from_hash`),
/// never from randomness.  Workers stamp both onto the trace events
/// they emit while executing the job, which is what lets `trace-join`
/// correlate dispatcher and worker files causally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpan {
    /// The job's span id (16 lowercase hex digits).
    pub id: String,
    /// The enclosing span (a cell, on the serve path), when known.
    pub parent: Option<String>,
}

/// One fleet protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → dispatcher, first message on every connection.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
        /// How many jobs the worker is willing to run concurrently on
        /// this connection; the dispatcher keeps up to this many (times
        /// the endpoint's weight) in flight.
        capacity: usize,
    },
    /// Dispatcher → worker: execute this payload.
    Job {
        /// Dispatcher-chosen id echoed back in the answer.
        id: u64,
        /// Opaque job description.
        payload: String,
        /// The job's trace context (absent on unstamped jobs).
        span: Option<JobSpan>,
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

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`FleetError::Malformed`] for non-UTF-8 payloads, unknown message
    /// names, and missing or unparsable ids.
    pub fn decode(bytes: &[u8]) -> Result<Self, FleetError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| FleetError::Malformed(format!("message is not UTF-8: {e}")))?;
        let (head, body) = match text.split_once('\n') {
            Some((head, body)) => (head, body),
            None => (text, ""),
        };
        let mut tokens = head.split_ascii_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| FleetError::Malformed("empty message".to_string()))?;
        let mut id = |label: &str| -> Result<u64, FleetError> {
            tokens
                .next()
                .ok_or_else(|| FleetError::Malformed(format!("{label} is missing its id")))?
                .parse::<u64>()
                .map_err(|e| FleetError::Malformed(format!("bad {label} id: {e}")))
        };
        match name {
            "hello" => {
                let version = tokens
                    .next()
                    .and_then(|token| token.strip_prefix('v'))
                    .and_then(|token| token.parse::<u32>().ok())
                    .ok_or_else(|| {
                        FleetError::Malformed(format!("bad hello version in {head:?}"))
                    })?;
                let capacity = match (tokens.next(), tokens.next()) {
                    (Some("capacity"), Some(token)) => token
                        .parse::<usize>()
                        .map_err(|e| FleetError::Malformed(format!("bad hello capacity: {e}")))?,
                    (None, _) => 1,
                    _ => {
                        return Err(FleetError::Malformed(format!(
                            "unexpected hello trailer in {head:?}"
                        )))
                    }
                };
                Ok(Message::Hello { version, capacity })
            }
            "job" => {
                let id = id("job")?;
                let span = match tokens.next() {
                    None => None,
                    Some("span") => {
                        let span_id = span_token(&mut tokens, "job span")?;
                        let parent = match tokens.next() {
                            None => None,
                            Some("parent") => Some(span_token(&mut tokens, "job parent")?),
                            Some(other) => {
                                return Err(FleetError::Malformed(format!(
                                    "unexpected job trailer token {other:?}"
                                )))
                            }
                        };
                        Some(JobSpan {
                            id: span_id,
                            parent,
                        })
                    }
                    Some(other) => {
                        return Err(FleetError::Malformed(format!(
                            "unexpected job trailer token {other:?}"
                        )))
                    }
                };
                Ok(Message::Job {
                    id,
                    payload: body.to_string(),
                    span,
                })
            }
            "done" => Ok(Message::Done {
                id: id("done")?,
                payload: body.to_string(),
            }),
            "failed" => Ok(Message::Failed {
                id: id("failed")?,
                message: body.to_string(),
            }),
            "ping" => Ok(Message::Ping { id: id("ping")? }),
            "pong" => Ok(Message::Pong { id: id("pong")? }),
            "scenario-put" => Ok(Message::ScenarioPut {
                hash: hash_token(&mut tokens, "scenario-put")?,
                blob: body.to_string(),
            }),
            "metrics" => Ok(Message::Metrics { id: id("metrics")? }),
            "metrics-report" => Ok(Message::MetricsReport {
                id: id("metrics-report")?,
                body: body.to_string(),
            }),
            "shutdown" => Ok(Message::Shutdown),
            other => Err(FleetError::Malformed(format!("unknown message {other:?}"))),
        }
    }
}

/// Pulls a span-id token off a head line, rejecting anything that is
/// not 16 lowercase hex digits.
fn span_token(
    tokens: &mut std::str::SplitAsciiWhitespace<'_>,
    label: &str,
) -> Result<String, FleetError> {
    let token = tokens
        .next()
        .ok_or_else(|| FleetError::Malformed(format!("{label} is missing its span id")))?;
    if !crp_obs::is_span_id(token) {
        return Err(FleetError::Malformed(format!(
            "{label} id {token:?} is not a canonical span id"
        )));
    }
    Ok(token.to_string())
}

/// Pulls a content-hash token off a head line, rejecting anything that
/// is not a canonical digest.
fn hash_token(
    tokens: &mut std::str::SplitAsciiWhitespace<'_>,
    label: &str,
) -> Result<String, FleetError> {
    let token = tokens
        .next()
        .ok_or_else(|| FleetError::Malformed(format!("{label} is missing its hash")))?;
    if !is_content_hash(token) {
        return Err(FleetError::Malformed(format!(
            "{label} hash {token:?} is not a canonical content hash"
        )));
    }
    Ok(token.to_string())
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
                span: Some(JobSpan {
                    id: "ab12cd34ef56ab78".to_string(),
                    parent: None,
                }),
            },
            Message::Job {
                id: 22,
                payload: "payload".to_string(),
                span: Some(JobSpan {
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
    fn hello_without_capacity_defaults_to_one() {
        let hello = Message::decode(b"hello v1").unwrap();
        assert_eq!(
            hello,
            Message::Hello {
                version: 1,
                capacity: 1
            }
        );
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for bad in [
            b"".as_slice(),
            b"job",
            b"job x\npayload",
            b"done",
            b"hello",
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
