//! The framed service protocol between `submit` clients and the sweep
//! daemon, riding on [`crp_fleet::frame`] like the worker protocol does.
//!
//! A connection's conversation:
//!
//! ```text
//! server -> client   serve-hello v1
//! client -> server   submit 1\n<submission body>
//! server -> client   progress 1 4 16 2        (completed / total / cache hits)
//! server -> client   ...
//! server -> client   result 1\n<result body>  (or: error 1\n<message>)
//! ```
//!
//! Bodies are versioned text with byte-exact payload sections, so job
//! payloads and result blobs may contain anything.  A submission body
//! declares no hashes: the daemon computes every content address itself
//! — blob hashes while decoding, job keys as the
//! [`crp_fleet::content_hash`] of each payload, and cell keys with
//! [`cell_hash`] — so nothing a client writes can disagree with the
//! bytes it addresses.

use crp_fleet::hash::{content_hash, is_content_hash};
use crp_fleet::BlobSet;

use crate::ServeError;

/// Version of the client ↔ daemon service protocol (independent of the
/// dispatcher ↔ worker fleet protocol underneath).
pub const SERVICE_VERSION: u32 = 1;

/// One service message, as carried in a fleet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeMessage {
    /// Server → client, first frame on every connection — so a client
    /// that accidentally dials a *worker* port (whose greeting is a
    /// plain `hello`) fails fast with a typed error.
    Hello {
        /// The server's [`SERVICE_VERSION`].
        version: u32,
    },
    /// Client → server: run this submission.
    Submit {
        /// Client-chosen id echoed in every answer frame.
        id: u64,
        /// An encoded [`Submission`].
        body: String,
    },
    /// Server → client: live progress of a running submission.
    Progress {
        /// Echo of the submission id.
        id: u64,
        /// Jobs settled so far (cache hits and computed).
        completed: usize,
        /// Total jobs in the submission.
        total: usize,
        /// How many of the settled jobs came from the cache.
        hits: usize,
    },
    /// Server → client: the submission's outcome.
    Result {
        /// Echo of the submission id.
        id: u64,
        /// An encoded [`SubmissionOutcome`].
        body: String,
    },
    /// Server → client: the submission failed as a whole.
    Error {
        /// Echo of the submission id.
        id: u64,
        /// Human-readable failure.
        message: String,
    },
    /// Client → server: dump the daemon's live observability state
    /// (cache counters, submission timings, per-worker fleet health).
    Stats {
        /// Client-chosen id echoed in the report frame.
        id: u64,
    },
    /// Server → client: the text report a [`ServeMessage::Stats`]
    /// request asked for — the deterministic render of the daemon's
    /// metrics snapshot plus the fleet health snapshot.
    StatsReport {
        /// Echo of the stats request id.
        id: u64,
        /// The rendered report.
        body: String,
    },
    /// Client → server, optional, at most once per connection: name the
    /// tenant this connection submits on behalf of.  The server keys its
    /// `serve.tenant.<id>.*` counters by it; connections that never send
    /// one are accounted to the `anonymous` tenant, so pre-existing
    /// clients keep working unchanged.
    ClientHello {
        /// The tenant identifier (the server sanitises it to
        /// `[A-Za-z0-9_-]`, capped at 32 characters).
        tenant: String,
    },
    /// Client → server: stop the daemon (CI teardown and tests; a
    /// production deployment just kills the process).
    Shutdown,
}

impl ServeMessage {
    /// Encodes the message into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServeMessage::Hello { version } => format!("serve-hello v{version}"),
            ServeMessage::Submit { id, body } => format!("submit {id}\n{body}"),
            ServeMessage::Progress {
                id,
                completed,
                total,
                hits,
            } => format!("progress {id} {completed} {total} {hits}"),
            ServeMessage::Result { id, body } => format!("result {id}\n{body}"),
            ServeMessage::Error { id, message } => format!("error {id}\n{message}"),
            ServeMessage::Stats { id } => format!("stats {id}"),
            ServeMessage::StatsReport { id, body } => format!("stats-report {id}\n{body}"),
            ServeMessage::ClientHello { tenant } => format!("client-hello {tenant}"),
            ServeMessage::Shutdown => "serve-shutdown".to_string(),
        }
        .into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for non-UTF-8 payloads, unknown message
    /// names, and missing or unparsable fields.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| ServeError::Malformed(format!("message is not UTF-8: {e}")))?;
        let (head, body) = match text.split_once('\n') {
            Some((head, body)) => (head, body),
            None => (text, ""),
        };
        let mut tokens = head.split_ascii_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| ServeError::Malformed("empty service message".to_string()))?;
        let mut field = |label: &str| -> Result<u64, ServeError> {
            tokens
                .next()
                .ok_or_else(|| ServeError::Malformed(format!("{label} is missing a field")))?
                .parse::<u64>()
                .map_err(|e| ServeError::Malformed(format!("bad {label} field: {e}")))
        };
        match name {
            "serve-hello" => {
                let version = tokens
                    .next()
                    .and_then(|token| token.strip_prefix('v'))
                    .and_then(|token| token.parse::<u32>().ok())
                    .ok_or_else(|| {
                        ServeError::Malformed(format!("bad serve-hello version in {head:?}"))
                    })?;
                Ok(ServeMessage::Hello { version })
            }
            "submit" => Ok(ServeMessage::Submit {
                id: field("submit")?,
                body: body.to_string(),
            }),
            "progress" => Ok(ServeMessage::Progress {
                id: field("progress")?,
                completed: field("progress")? as usize,
                total: field("progress")? as usize,
                hits: field("progress")? as usize,
            }),
            "result" => Ok(ServeMessage::Result {
                id: field("result")?,
                body: body.to_string(),
            }),
            "error" => Ok(ServeMessage::Error {
                id: field("error")?,
                message: body.to_string(),
            }),
            "stats" => Ok(ServeMessage::Stats {
                id: field("stats")?,
            }),
            "stats-report" => Ok(ServeMessage::StatsReport {
                id: field("stats-report")?,
                body: body.to_string(),
            }),
            "client-hello" => Ok(ServeMessage::ClientHello {
                tenant: tokens
                    .next()
                    .ok_or_else(|| {
                        ServeError::Malformed("client-hello is missing a tenant".to_string())
                    })?
                    .to_string(),
            }),
            "serve-shutdown" => Ok(ServeMessage::Shutdown),
            // A fleet worker's greeting, reported specifically because
            // pointing `submit` at a worker port is an easy mistake.
            "hello" => Err(ServeError::Malformed(
                "the peer speaks the fleet *worker* protocol, not the sweep service; \
                 is this a worker port?"
                    .to_string(),
            )),
            other => Err(ServeError::Malformed(format!(
                "unknown service message {other:?}"
            ))),
        }
    }
}

/// One cell of a submission: the payloads its workers run, in merge
/// order.  A job's key is the [`content_hash`] of its payload and the
/// cell's key is [`cell_hash`] of its job keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionCell {
    /// The cell's job payloads, in merge order.
    pub jobs: Vec<String>,
}

impl SubmissionCell {
    /// The cell's job keys, in merge order.
    pub fn job_keys(&self) -> Vec<String> {
        self.jobs
            .iter()
            .map(|payload| content_hash(payload.as_bytes()))
            .collect()
    }
}

/// A complete sweep submission: cells plus the blob table their payloads
/// reference by hash.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Submission {
    /// The referenced blobs, each shipped to a worker at most once.
    pub blobs: BlobSet,
    /// The cells, in grid order.
    pub cells: Vec<SubmissionCell>,
}

/// The canonical cache key of a cell: the content hash of its ordered
/// job-key list (newline-terminated lines).  Any change to any job —
/// protocol spec, masses, plan, seed, shard count or order — changes a
/// job key and therefore the cell key.
pub fn cell_hash(job_keys: &[String]) -> String {
    let mut text = String::with_capacity(job_keys.len() * 65);
    for key in job_keys {
        text.push_str(key);
        text.push('\n');
    }
    content_hash(text.as_bytes())
}

/// A byte-exact cursor over a body: head lines via [`Cursor::line`],
/// payload sections via [`Cursor::take`].
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self { rest: text }
    }

    fn line(&mut self) -> Result<&'a str, ServeError> {
        let (line, rest) = self
            .rest
            .split_once('\n')
            .ok_or_else(|| ServeError::Malformed("body ended mid-line".to_string()))?;
        self.rest = rest;
        Ok(line)
    }

    /// Takes exactly `n` bytes followed by a newline.
    fn take(&mut self, n: usize) -> Result<&'a str, ServeError> {
        if self.rest.len() < n.saturating_add(1) {
            return Err(ServeError::Malformed(format!(
                "body truncated: a {n}-byte section overruns the end"
            )));
        }
        if !self.rest.is_char_boundary(n) {
            return Err(ServeError::Malformed(
                "section length splits a UTF-8 character".to_string(),
            ));
        }
        let (section, rest) = self.rest.split_at(n);
        let rest = rest.strip_prefix('\n').ok_or_else(|| {
            ServeError::Malformed("payload section is not newline-terminated".to_string())
        })?;
        self.rest = rest;
        Ok(section)
    }

    fn expect_end(&self) -> Result<(), ServeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ServeError::Malformed(format!(
                "trailing bytes after the end marker: {:?}…",
                self.rest.chars().take(32).collect::<String>()
            )))
        }
    }
}

fn parse_count(token: Option<&str>, label: &str) -> Result<usize, ServeError> {
    token
        .ok_or_else(|| ServeError::Malformed(format!("missing {label}")))?
        .parse::<usize>()
        .map_err(|e| ServeError::Malformed(format!("bad {label}: {e}")))
}

fn parse_hash(token: Option<&str>, label: &str) -> Result<String, ServeError> {
    let token = token.ok_or_else(|| ServeError::Malformed(format!("missing {label}")))?;
    if !is_content_hash(token) {
        return Err(ServeError::Malformed(format!(
            "{label} {token:?} is not a canonical content hash"
        )));
    }
    Ok(token.to_string())
}

/// The header line of a submission body.
const SUBMISSION_HEADER: &str = "crp-serve-submission v2";

/// Parses a `<label> <count>` head line.
fn parse_labelled_count(line: &str, label: &str) -> Result<usize, ServeError> {
    match line.split_once(' ') {
        Some((head, count)) if head == label => parse_count(Some(count), &format!("{label} count")),
        _ => Err(ServeError::Malformed(format!("expected a {label} line"))),
    }
}

impl Submission {
    /// Encodes the submission into a `submit` body.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(SUBMISSION_HEADER);
        out.push('\n');
        out.push_str(&format!("blobs {}\n", self.blobs.len()));
        for (_, blob) in self.blobs.iter() {
            out.push_str(&format!("blob {}\n", blob.len()));
            out.push_str(blob);
            out.push('\n');
        }
        out.push_str(&format!("cells {}\n", self.cells.len()));
        for cell in &self.cells {
            out.push_str(&format!("cell {}\n", cell.jobs.len()));
            for payload in &cell.jobs {
                out.push_str(&format!("job {}\n", payload.len()));
                out.push_str(payload);
                out.push('\n');
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a `submit` body, hashing every blob into the blob table as
    /// it goes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] describing the first offending line or
    /// section.
    pub fn decode(body: &str) -> Result<Self, ServeError> {
        let mut cursor = Cursor::new(body);
        let header = cursor.line()?;
        if header != SUBMISSION_HEADER {
            return Err(ServeError::Malformed(format!(
                "unexpected submission header {header:?}"
            )));
        }
        let mut blobs = BlobSet::new();
        for _ in 0..parse_labelled_count(cursor.line()?, "blobs")? {
            let len = parse_labelled_count(cursor.line()?, "blob")?;
            blobs.insert(cursor.take(len)?);
        }
        let mut cells = Vec::new();
        for _ in 0..parse_labelled_count(cursor.line()?, "cells")? {
            let mut jobs = Vec::new();
            for _ in 0..parse_labelled_count(cursor.line()?, "cell")? {
                let len = parse_labelled_count(cursor.line()?, "job")?;
                jobs.push(cursor.take(len)?.to_string());
            }
            cells.push(SubmissionCell { jobs });
        }
        if cursor.line()? != "end" {
            return Err(ServeError::Malformed("missing end marker".to_string()));
        }
        cursor.expect_end()?;
        Ok(Self { blobs, cells })
    }

    /// Total number of jobs across all cells.
    pub fn job_count(&self) -> usize {
        self.cells.iter().map(|cell| cell.jobs.len()).sum()
    }
}

/// One cell of a [`SubmissionOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Echo of the submitted cell hash.
    pub hash: String,
    /// True when the whole cell came out of the result cache.
    pub cached: bool,
    /// The cell's merged answer blob, bit-exact.
    pub blob: String,
}

/// The outcome of a submission: per-cell merged blobs plus cache
/// statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubmissionOutcome {
    /// One outcome per submitted cell, in submission order.
    pub cells: Vec<CellOutcome>,
    /// Total jobs in the submission.
    pub jobs_total: usize,
    /// Jobs settled from the cache (including jobs of cached cells).
    pub job_hits: usize,
    /// Jobs actually dispatched to workers.
    pub computed: usize,
}

impl SubmissionOutcome {
    /// Encodes the outcome into a `result` body.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("crp-serve-result v1\n");
        out.push_str(&format!(
            "jobs {} hits {} computed {}\n",
            self.jobs_total, self.job_hits, self.computed
        ));
        out.push_str(&format!("cells {}\n", self.cells.len()));
        for cell in &self.cells {
            out.push_str(&format!(
                "cell {} cached {} bytes {}\n",
                cell.hash,
                if cell.cached { 1 } else { 0 },
                cell.blob.len()
            ));
            out.push_str(&cell.blob);
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses a `result` body.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] describing the first offending line or
    /// section.
    pub fn decode(body: &str) -> Result<Self, ServeError> {
        let mut cursor = Cursor::new(body);
        let header = cursor.line()?;
        if header != "crp-serve-result v1" {
            return Err(ServeError::Malformed(format!(
                "unexpected result header {header:?}"
            )));
        }
        let mut tokens = cursor.line()?.split_ascii_whitespace();
        let (jobs_total, job_hits, computed) = match (
            tokens.next(),
            tokens.next(),
            tokens.next(),
            tokens.next(),
            tokens.next(),
            tokens.next(),
        ) {
            (Some("jobs"), total, Some("hits"), hits, Some("computed"), computed) => (
                parse_count(total, "jobs total")?,
                parse_count(hits, "job hits")?,
                parse_count(computed, "computed count")?,
            ),
            _ => return Err(ServeError::Malformed("bad result stats line".to_string())),
        };
        let mut tokens = cursor.line()?.split_ascii_whitespace();
        if tokens.next() != Some("cells") {
            return Err(ServeError::Malformed("expected a cells line".to_string()));
        }
        let cell_count = parse_count(tokens.next(), "cell count")?;
        let mut cells = Vec::new();
        for _ in 0..cell_count {
            let mut tokens = cursor.line()?.split_ascii_whitespace();
            if tokens.next() != Some("cell") {
                return Err(ServeError::Malformed("expected a cell line".to_string()));
            }
            let hash = parse_hash(tokens.next(), "cell hash")?;
            if tokens.next() != Some("cached") {
                return Err(ServeError::Malformed("expected cached flag".to_string()));
            }
            let cached = match tokens.next() {
                Some("1") => true,
                Some("0") => false,
                other => return Err(ServeError::Malformed(format!("bad cached flag {other:?}"))),
            };
            if tokens.next() != Some("bytes") {
                return Err(ServeError::Malformed("expected cell bytes".to_string()));
            }
            let len = parse_count(tokens.next(), "cell blob length")?;
            cells.push(CellOutcome {
                hash,
                cached,
                blob: cursor.take(len)?.to_string(),
            });
        }
        if cursor.line()? != "end" {
            return Err(ServeError::Malformed("missing end marker".to_string()));
        }
        cursor.expect_end()?;
        Ok(Self {
            cells,
            jobs_total,
            job_hits,
            computed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_submission() -> Submission {
        let mut blobs = BlobSet::new();
        let blob_hash = blobs.insert("sampled 3fe0000000000000 3fd0000000000000");
        let job = |text: &str| format!("{text}\nref {blob_hash}\n");
        Submission {
            blobs,
            cells: vec![
                SubmissionCell {
                    jobs: vec![job("spec a shard 0 …"), job("spec a shard 1")],
                },
                SubmissionCell {
                    jobs: vec![job("spec b shard 0")],
                },
            ],
        }
    }

    #[test]
    fn service_messages_round_trip() {
        let messages = [
            ServeMessage::Hello {
                version: SERVICE_VERSION,
            },
            ServeMessage::Submit {
                id: 7,
                body: demo_submission().encode(),
            },
            ServeMessage::Progress {
                id: 7,
                completed: 3,
                total: 16,
                hits: 2,
            },
            ServeMessage::Result {
                id: 7,
                body: "crp-serve-result v1\n…".to_string(),
            },
            ServeMessage::Error {
                id: 7,
                message: "cache on fire".to_string(),
            },
            ServeMessage::ClientHello {
                tenant: "team-red".to_string(),
            },
            ServeMessage::Shutdown,
        ];
        for message in messages {
            assert_eq!(ServeMessage::decode(&message.encode()).unwrap(), message);
        }
    }

    #[test]
    fn a_worker_hello_is_reported_as_a_port_mixup() {
        let err = ServeMessage::decode(b"hello v2 capacity 1").unwrap_err();
        assert!(err.to_string().contains("worker"), "{err}");
    }

    #[test]
    fn submissions_round_trip_byte_exactly() {
        let submission = demo_submission();
        let body = submission.encode();
        assert!(body.starts_with("crp-serve-submission v2\n"));
        let decoded = Submission::decode(&body).unwrap();
        assert_eq!(decoded, submission);
        assert_eq!(decoded.encode(), body);
        assert_eq!(decoded.job_count(), 3);
        // The decoder keys every blob by the hash it computed itself.
        let blob = "sampled 3fe0000000000000 3fd0000000000000";
        assert_eq!(
            decoded.blobs.get(&content_hash(blob.as_bytes())),
            Some(blob)
        );
        assert_eq!(
            decoded.cells[0].job_keys(),
            vec![
                content_hash(decoded.cells[0].jobs[0].as_bytes()),
                content_hash(decoded.cells[0].jobs[1].as_bytes()),
            ]
        );
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let body = demo_submission().encode();
        assert!(!body.is_ascii(), "the body must exercise char boundaries");
        for cut in (0..body.len()).filter(|&cut| body.is_char_boundary(cut)) {
            assert!(
                Submission::decode(&body[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
        assert!(Submission::decode(&format!("{body}trailing…")).is_err());
        let v1 = body.replacen("crp-serve-submission v2", "crp-serve-submission v1", 1);
        assert!(Submission::decode(&v1).is_err());
    }

    #[test]
    fn outcomes_round_trip() {
        let outcome = SubmissionOutcome {
            cells: vec![
                CellOutcome {
                    hash: content_hash(b"cell-a"),
                    cached: true,
                    blob: "crp-shard-accumulator v1\ntrials 3\nend\n".to_string(),
                },
                CellOutcome {
                    hash: content_hash(b"cell-b"),
                    cached: false,
                    blob: "blob with\nnewlines".to_string(),
                },
            ],
            jobs_total: 5,
            job_hits: 2,
            computed: 3,
        };
        assert_eq!(
            SubmissionOutcome::decode(&outcome.encode()).unwrap(),
            outcome
        );
    }

    #[test]
    fn cell_hash_is_order_sensitive() {
        let a = content_hash(b"a");
        let b = content_hash(b"b");
        assert_ne!(
            cell_hash(&[a.clone(), b.clone()]),
            cell_hash(&[b, a]),
            "job order is part of a cell's identity"
        );
    }
}
