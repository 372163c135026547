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
use crp_obs::{parse_int, Head, LineReader};

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

    /// Decodes a frame payload: exactly the bytes [`ServeMessage::encode`]
    /// writes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for non-UTF-8 payloads, unknown message
    /// names, missing, extra or non-canonical fields, and a body on a
    /// message that takes none or a missing one.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| ServeError::Malformed(format!("message is not UTF-8: {e}")))?;
        let mut head = Head::parse(text)?;
        let message = match head.name {
            "serve-hello" => ServeMessage::Hello {
                version: head.fields.parse("a version v<n>", |token| {
                    parse_int(token.strip_prefix('v')?)
                })?,
            },
            "submit" => ServeMessage::Submit {
                id: head.fields.int()?,
                body: head.body()?.to_string(),
            },
            "progress" => ServeMessage::Progress {
                id: head.fields.int()?,
                completed: head.fields.int()?,
                total: head.fields.int()?,
                hits: head.fields.int()?,
            },
            "result" => ServeMessage::Result {
                id: head.fields.int()?,
                body: head.body()?.to_string(),
            },
            "error" => ServeMessage::Error {
                id: head.fields.int()?,
                message: head.body()?.to_string(),
            },
            "stats" => ServeMessage::Stats {
                id: head.fields.int()?,
            },
            "stats-report" => ServeMessage::StatsReport {
                id: head.fields.int()?,
                body: head.body()?.to_string(),
            },
            "client-hello" => ServeMessage::ClientHello {
                tenant: head.fields.token()?.to_string(),
            },
            "serve-shutdown" => ServeMessage::Shutdown,
            // A fleet worker's greeting, reported specifically because
            // pointing `submit` at a worker port is an easy mistake.
            "hello" => {
                return Err(ServeError::Malformed(
                    "the peer speaks the fleet *worker* protocol, not the sweep service; \
                     is this a worker port?"
                        .to_string(),
                ))
            }
            other => {
                return Err(ServeError::Malformed(format!(
                    "unknown service message {other:?}"
                )))
            }
        };
        head.finish()?;
        Ok(message)
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

/// The header line of a submission body.
const SUBMISSION_HEADER: &str = "crp-serve-submission v2";

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
    /// it goes: exactly the bytes [`Submission::encode`] writes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] naming the first offending line or
    /// section, including blobs that repeat or do not ascend by hash.
    pub fn decode(body: &str) -> Result<Self, ServeError> {
        // Every counted item takes at least one byte of the body.
        let max = body.len();
        let mut reader = LineReader::new(body);
        reader.header(SUBMISSION_HEADER)?;
        let mut blobs = BlobSet::new();
        let mut last: Option<String> = None;
        for _ in 0..reader.count("blobs", max)? {
            let len = reader.count("blob", max)?;
            let hash = blobs.insert(reader.take(len)?);
            if last.is_some_and(|last| last >= hash) {
                return Err(reader
                    .error(format!("blob {hash} is repeated or out of hash order"))
                    .into());
            }
            last = Some(hash);
        }
        let mut cells = Vec::new();
        for _ in 0..reader.count("cells", max)? {
            let mut jobs = Vec::new();
            for _ in 0..reader.count("cell", max)? {
                let len = reader.count("job", max)?;
                jobs.push(reader.take(len)?.to_string());
            }
            cells.push(SubmissionCell { jobs });
        }
        reader.end()?;
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
    /// Jobs settled from the cache: every job of each cached cell.
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

    /// Parses a `result` body: exactly the bytes
    /// [`SubmissionOutcome::encode`] writes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] naming the first offending line or
    /// section.
    pub fn decode(body: &str) -> Result<Self, ServeError> {
        let mut reader = LineReader::new(body);
        reader.header("crp-serve-result v1")?;
        let mut fields = reader.fields("jobs")?;
        let jobs_total = fields.int()?;
        fields.keyword("hits")?;
        let job_hits = fields.int()?;
        fields.keyword("computed")?;
        let computed = fields.int()?;
        fields.finish()?;
        let mut cells = Vec::new();
        for _ in 0..reader.count("cells", body.len())? {
            let mut fields = reader.fields("cell")?;
            let hash = fields.parse("a content hash", |token| {
                is_content_hash(token).then(|| token.to_string())
            })?;
            fields.keyword("cached")?;
            let cached =
                fields.parse("0 or 1", |token| parse_int::<u8>(token).filter(|&f| f < 2))?;
            fields.keyword("bytes")?;
            let len = fields.int()?;
            fields.finish()?;
            cells.push(CellOutcome {
                hash,
                cached: cached == 1,
                blob: reader.take(len)?.to_string(),
            });
        }
        reader.end()?;
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
