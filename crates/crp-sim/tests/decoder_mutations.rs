//! One mutation harness over every line-based wire decoder.
//!
//! Each decoder gets seeds from its real encoder, then every mutation of
//! every seed: truncation at each char boundary, one bit flip at each
//! bit, each decimal field replaced by `u64::MAX` and by `u64::MAX + 1`,
//! each line duplicated, and each adjacent pair of lines swapped.  The
//! oracle:
//!
//! * no mutation panics;
//! * every truncation of a line body (not of a frame message or a blob)
//!   is rejected;
//! * every mutation that decodes re-encodes to exactly the mutated bytes,
//!   so each format has exactly one spelling.
//!
//! A shard-spec blob is mutated in place of its original: the mutated
//! blob is re-keyed and the `ref` line naming it rewritten, so the spec
//! decoder sees it exactly as a worker would.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crp_fleet::{content_hash, BlobSet, Message};
use crp_info::{CondensedDistribution, SizeDistribution};
use crp_obs::{MetricsRegistry, MetricsSnapshot, SpanContext};
use crp_predict::{AdversaryKind, ScenarioLibrary, Trace, TraceModel};
use crp_protocols::ProtocolSpec;
use crp_serve::{CellOutcome, ResultCache, ServeMessage, Submission, SubmissionOutcome};
use crp_sim::service::compile_submission;
use crp_sim::{ShardPlan, ShardSpec, SweepMatrix, SweepProtocol, TrialAccumulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// What one decode attempt did.
enum Decoded {
    /// The input is not UTF-8 and the decoder takes `&str`.
    Skipped,
    Rejected,
    /// It decoded, and re-encoding the value gave these bytes.
    Reencoded(Vec<u8>),
}

/// Decodes an input and, when it decodes, re-encodes the value.
type Run = Box<dyn Fn(&[u8]) -> Decoded>;

/// One decoder and one seed its encoder wrote.
struct Case {
    name: String,
    /// A line body, whose every truncation must be rejected.
    body: bool,
    seed: Vec<u8>,
    run: Run,
}

/// A case for a decoder over `&str`: `codec` decodes and re-encodes.
fn text_case(
    name: impl Into<String>,
    body: bool,
    seed: String,
    codec: impl Fn(&str) -> Option<String> + 'static,
) -> Case {
    Case {
        name: name.into(),
        body,
        seed: seed.into_bytes(),
        run: Box::new(move |bytes| match std::str::from_utf8(bytes) {
            Err(_) => Decoded::Skipped,
            Ok(text) => codec(text).map_or(Decoded::Rejected, |out| Decoded::Reencoded(out.into())),
        }),
    }
}

/// The lines of `bytes`, each with its `\n` (the last may lack one).
fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes.split_inclusive(|&byte| byte == b'\n').collect()
}

/// Every mutation of `seed`, labelled, and whether it is a truncation.
fn mutations(seed: &[u8]) -> Vec<(String, Vec<u8>, bool)> {
    let mut out = Vec::new();
    let text = std::str::from_utf8(seed).expect("seeds are UTF-8");
    for cut in (0..seed.len()).filter(|&cut| text.is_char_boundary(cut)) {
        out.push((format!("truncated at {cut}"), seed[..cut].to_vec(), true));
    }
    for bit in 0..seed.len() * 8 {
        let mut flipped = seed.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bit {bit} flipped"), flipped, false));
    }
    let mut start = 0;
    for token in seed.split(|&byte| byte == b' ' || byte == b'\n') {
        let digits = token.strip_prefix(b"-").unwrap_or(token);
        if !digits.is_empty() && digits.iter().all(u8::is_ascii_digit) {
            for big in ["18446744073709551615", "18446744073709551616"] {
                let mut replaced = seed[..start].to_vec();
                replaced.extend_from_slice(big.as_bytes());
                replaced.extend_from_slice(&seed[start + token.len()..]);
                out.push((format!("field at {start} set to {big}"), replaced, false));
            }
        }
        start += token.len() + 1;
    }
    let lines = lines(seed);
    for at in 0..lines.len() {
        let mut doubled = lines.clone();
        doubled.insert(at, lines[at]);
        out.push((format!("line {at} duplicated"), doubled.concat(), false));
        if at + 1 < lines.len() {
            let mut swapped = lines.clone();
            swapped.swap(at, at + 1);
            out.push((
                format!("lines {at} and {} swapped", at + 1),
                swapped.concat(),
                false,
            ));
        }
    }
    out
}

/// Runs every mutation of every case; returns the oracle violations.
fn violations(cases: &[Case]) -> Vec<String> {
    let mut found = Vec::new();
    for case in cases {
        match (case.run)(&case.seed) {
            Decoded::Reencoded(bytes) if bytes == case.seed => {}
            _ => found.push(format!("{}: the seed does not round-trip", case.name)),
        }
        for (label, mutated, truncation) in mutations(&case.seed) {
            let shown = String::from_utf8_lossy(&mutated);
            match catch_unwind(AssertUnwindSafe(|| (case.run)(&mutated))) {
                Err(_) => found.push(format!("{}: {label} panicked: {shown:?}", case.name)),
                Ok(Decoded::Reencoded(bytes)) if bytes != mutated => found.push(format!(
                    "{}: {label} decoded but re-encodes as {:?}: {shown:?}",
                    case.name,
                    String::from_utf8_lossy(&bytes)
                )),
                Ok(Decoded::Reencoded(_)) if truncation && case.body => {
                    found.push(format!("{}: {label} decoded: {shown:?}", case.name))
                }
                Ok(_) => {}
            }
        }
    }
    found
}

/// The payload case and one case per blob of a shard spec's job.
fn spec_cases(name: &str, spec: &ShardSpec) -> Vec<Case> {
    let mut blobs = BlobSet::new();
    let plan = ShardPlan::with_shard_size(700, 256);
    let payload = spec.to_wire(plan, 3, 1, &mut blobs).payload;
    // Decodes `payload` against `blobs` and re-encodes both.
    fn codec(payload: &str, blobs: &BlobSet) -> Option<(String, BlobSet)> {
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        let (spec, plan, seed, shard) = ShardSpec::from_wire(payload, &resolve).ok()?;
        let mut reencoded = BlobSet::new();
        let job = spec.to_wire(plan, seed, shard, &mut reencoded);
        Some((job.payload, reencoded))
    }
    let mut cases = Vec::new();
    for (hash, blob) in blobs.iter() {
        let (hash, payload) = (hash.to_string(), payload.clone());
        let others: Vec<String> = blobs
            .iter()
            .filter(|&(other, _)| other != hash)
            .map(|(_, blob)| blob.to_string())
            .collect();
        let blob_codec = move |blob: &str| {
            let mut mutated = BlobSet::new();
            let rekeyed = mutated.insert(blob);
            for other in &others {
                mutated.insert(other.as_str());
            }
            let payload = payload.replace(&format!("ref {hash}"), &format!("ref {rekeyed}"));
            let (reencoded, reblobs) = codec(&payload, &mutated)?;
            Some(if reencoded == payload && reblobs == mutated {
                blob.to_string()
            } else {
                format!("{reencoded}{reblobs:?}")
            })
        };
        cases.push(text_case(
            format!("{name} blob"),
            false,
            blob.to_string(),
            blob_codec,
        ));
    }
    cases.push(text_case(name, true, payload, move |text| {
        codec(text, &blobs).map(|(payload, _)| payload)
    }));
    cases
}

fn accumulator() -> TrialAccumulator {
    let mut accumulator = TrialAccumulator::new();
    for (index, rounds) in [1u64, 5, 130, 300, 900, 2].into_iter().enumerate() {
        accumulator.record(index % 3 != 0, rounds);
    }
    accumulator
}

fn busy_snapshot() -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    registry.add("jobs", 42);
    registry.inc("hits");
    registry.gauge("depth").set(-3);
    registry.gauge("pool").set(-1);
    for value in [0, 1, 200, 4096, u64::MAX] {
        registry.observe("latency", value);
    }
    let _ = registry.histogram("idle");
    registry.snapshot()
}

/// A two-cell submission; each cell has one job per 256 trials.
fn submission(trials: usize) -> Submission {
    let library = ScenarioLibrary::new(16).unwrap();
    let matrix = SweepMatrix::new()
        .scenarios([library.bimodal(), library.adversarial_drift()])
        .protocol(
            SweepProtocol::from_scenario("decay", |s| {
                ProtocolSpec::new("decay").universe(s.distribution().max_size())
            })
            .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
        )
        .trials(trials)
        .seed(11);
    compile_submission(&matrix).unwrap().0
}

fn outcome() -> SubmissionOutcome {
    SubmissionOutcome {
        cells: vec![
            CellOutcome {
                hash: content_hash(b"cell-a"),
                cached: true,
                blob: accumulator().to_wire(),
            },
            CellOutcome {
                hash: content_hash(b"cell-b"),
                cached: false,
                blob: "a\nblob".to_string(),
            },
        ],
        jobs_total: 3,
        job_hits: 1,
        computed: 2,
    }
}

/// A cache-entry case under `root`: mutations are written over the
/// entry file.
fn cache_case(root: &std::path::Path) -> Case {
    let (cache, rewritten) = (
        ResultCache::open(root.join("entries")).unwrap(),
        ResultCache::open(root.join("rewritten")).unwrap(),
    );
    let key = content_hash(b"a question");
    cache.put(&key, &accumulator().to_wire()).unwrap();
    let entry = |cache: &ResultCache| cache.dir().join(&key[..2]).join(format!("{key}.crp"));
    let (path, rewritten_path) = (entry(&cache), entry(&rewritten));
    Case {
        name: "cache entry".to_string(),
        body: true,
        seed: std::fs::read(&path).unwrap(),
        run: Box::new(move |bytes| {
            std::fs::write(&path, bytes).unwrap();
            match cache.get(&key) {
                Ok(Some(value)) => {
                    rewritten.put(&key, &value).unwrap();
                    Decoded::Reencoded(std::fs::read(&rewritten_path).unwrap())
                }
                _ => Decoded::Rejected,
            }
        }),
    }
}

fn message_cases() -> Vec<Case> {
    let span = |parent: Option<&str>| {
        Some(SpanContext {
            id: "ab12cd34ef56ab78".to_string(),
            parent: parent.map(str::to_string),
        })
    };
    let job = |span| Message::Job {
        id: 17,
        payload: "crp-shard-spec v1\nend\n".to_string(),
        span,
    };
    let fleet = [
        Message::Hello {
            version: 3,
            capacity: 4,
        },
        job(None),
        job(span(None)),
        job(span(Some("0011223344556677"))),
        Message::Done {
            id: 17,
            payload: "crp-shard-accumulator v1\nend\n".to_string(),
        },
        Message::Failed {
            id: 9,
            message: "no such protocol".to_string(),
        },
        Message::Ping { id: 1 },
        Message::Pong { id: 1 },
        Message::ScenarioPut {
            hash: content_hash(b"masses"),
            blob: "sampled 3ff0000000000000".to_string(),
        },
        Message::Metrics { id: 7 },
        Message::MetricsReport {
            id: 7,
            body: MetricsSnapshot::new().encode(),
        },
        Message::Shutdown,
    ];
    let service = [
        ServeMessage::Hello { version: 1 },
        ServeMessage::Submit {
            id: 7,
            body: "crp-serve-submission v3\nend\n".to_string(),
        },
        ServeMessage::Progress {
            id: 7,
            completed: 3,
            total: 16,
            hits: 2,
        },
        ServeMessage::Result {
            id: 7,
            body: "crp-serve-result v1\nend\n".to_string(),
        },
        ServeMessage::Error {
            id: 7,
            message: "cache on fire".to_string(),
        },
        ServeMessage::Stats { id: 8 },
        ServeMessage::StatsReport {
            id: 8,
            body: "counter jobs 3\n".to_string(),
        },
        ServeMessage::ClientHello {
            tenant: "team-red".to_string(),
        },
        ServeMessage::Shutdown,
    ];
    let decoded = |encoded: Option<Vec<u8>>| encoded.map_or(Decoded::Rejected, Decoded::Reencoded);
    let fleet = fleet.into_iter().map(move |message| Case {
        name: format!("fleet {message:?}"),
        body: false,
        seed: message.encode(),
        run: Box::new(move |bytes| decoded(Message::decode(bytes).ok().map(|m| m.encode()))),
    });
    let service = service.into_iter().map(move |message| Case {
        name: format!("service {message:?}"),
        body: false,
        seed: message.encode(),
        run: Box::new(move |bytes| decoded(ServeMessage::decode(bytes).ok().map(|m| m.encode()))),
    });
    fleet.chain(service).collect()
}

#[test]
fn every_decoder_accepts_exactly_its_encoders_bytes_and_never_panics() {
    let truth = SizeDistribution::bimodal(64, 4, 40, 0.7).unwrap();
    let sampled = ShardSpec::sampled(
        ProtocolSpec::new("sorted-guess-cycling")
            .universe(64)
            .advice_bits(2)
            .participants(5)
            .prediction(CondensedDistribution::from_sizes(&truth)),
        truth,
        4096,
    );
    let fixed = ShardSpec::fixed(ProtocolSpec::new("decay").universe(64), 8, 100);
    let placed = ShardSpec::placed(
        ProtocolSpec::new("decay").universe(64),
        vec![3, 17, 42],
        100,
    );
    let trace = TraceModel::new(AdversaryKind::Adaptive, 64)
        .unwrap()
        .generate(&mut ChaCha8Rng::seed_from_u64(5), 6);

    let mut cases = Vec::new();
    cases.extend(spec_cases("sampled spec", &sampled));
    cases.extend(spec_cases("fixed spec", &fixed));
    cases.extend(spec_cases("placed spec", &placed));
    cases.push(text_case(
        "accumulator",
        true,
        accumulator().to_wire(),
        |text| TrialAccumulator::from_wire(text).ok().map(|a| a.to_wire()),
    ));
    cases.push(text_case(
        "snapshot",
        true,
        busy_snapshot().encode(),
        |text| MetricsSnapshot::decode(text).ok().map(|s| s.encode()),
    ));
    for trials in [20, 700] {
        cases.push(text_case(
            format!("submission of {trials}-trial cells"),
            true,
            submission(trials).encode(),
            |text| Submission::decode(text).ok().map(|s| s.encode()),
        ));
    }
    // The job line on its own: split off, then written back.
    let job = crp_fleet::job_payload("cell\n", 4, 12);
    cases.push(text_case("job line", true, job, |text| {
        let (cell, job) = crp_fleet::split_job(text);
        let job = job.ok()?;
        Some(crp_fleet::job_payload(cell, job.index, job.count))
    }));
    cases.push(text_case("outcome", true, outcome().encode(), |text| {
        SubmissionOutcome::decode(text).ok().map(|o| o.encode())
    }));
    let root = std::env::temp_dir().join(format!("crp-decoder-mutations-{}", std::process::id()));
    cases.push(cache_case(&root));
    cases.push(text_case("trace", true, trace.to_wire(), |text| {
        Trace::from_wire(text).ok().map(|t| t.to_wire())
    }));
    cases.extend(message_cases());

    let found = violations(&cases);
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        found.is_empty(),
        "{} violations, the first few:\n{}",
        found.len(),
        found[..found.len().min(12)].join("\n")
    );
}

#[test]
fn trace_line_checks_never_panic() {
    let line = r#"{"ts_us":12,"event":"fleet.dispatch","span":"ab12cd34ef56ab78","parent":"0011223344556677","jobs":3,"what":"a \"quoted\" name"}"#;
    assert!(crp_obs::check_trace_line(line).is_ok());
    for (label, mutated, _) in mutations(line.as_bytes()) {
        let Ok(text) = std::str::from_utf8(&mutated) else {
            continue;
        };
        let outcome = catch_unwind(|| crp_obs::check_trace_line(text));
        assert!(outcome.is_ok(), "{label} panicked: {text:?}");
    }
}

/// Asserts `error` names `line`, for the input `label` describes.
fn names_line(label: &str, error: impl std::fmt::Display, line: usize) {
    let error = error.to_string();
    assert!(
        error.contains(&format!("line {line}: ")),
        "{label}: {error}"
    );
}

#[test]
fn out_of_model_participants_and_shards_are_typed_errors_naming_their_line() {
    // A 64-id universe, and a 700-trial plan of 256-trial shards: shards
    // 0, 1 and 2.
    let spec = ShardSpec::fixed(
        ProtocolSpec::new("fixed-probability")
            .universe(64)
            .participants(8),
        8,
        100,
    );
    let plan = ShardPlan::with_shard_size(700, 256);
    let payload = spec.to_wire(plan, 3, 1, &mut BlobSet::new()).payload;
    let no_blobs = |_: &str| None;
    let with = |from: &str, to: &str| {
        let mutated = payload.replacen(from, to, 1);
        assert_ne!(mutated, payload, "{from} -> {to}");
        ShardSpec::from_wire(&mutated, &no_blobs)
    };
    // A participant count is the size of a set drawn from the universe.
    assert!(with("participants 8\n", "participants 64\n").is_ok());
    for k in ["0", "65", "4611686018427387904"] {
        let error = with("participants 8\n", &format!("participants {k}\n")).unwrap_err();
        names_line(&format!("participants {k}"), &error, 5);
        assert!(
            error.to_string().contains(&format!("participants {k} ")),
            "{error}"
        );
    }
    // The last shard of the plan decodes; one past it does not.
    assert!(with("\njob 1 of 3\n", "\njob 2 of 3\n").is_ok());
    let error = with("\njob 1 of 3\n", "\njob 3 of 3\n").unwrap_err();
    names_line("shard 3", &error, 12);
    assert!(
        error
            .to_string()
            .contains("\"3\" is not a shard of a 3-shard plan"),
        "{error}"
    );
}

#[test]
fn job_lines_and_cell_job_counts_are_typed_errors_naming_their_line() {
    // A 3-shard plan, whose job 1 closes with its job line on line 12.
    let spec = ShardSpec::fixed(ProtocolSpec::new("decay").universe(64), 8, 100);
    let plan = ShardPlan::with_shard_size(700, 256);
    let payload = spec.to_wire(plan, 3, 1, &mut BlobSet::new()).payload;
    assert!(
        payload.ends_with("\nbase-seed 3\njob 1 of 3\n"),
        "{payload}"
    );
    let no_blobs = |_: &str| None;
    let cell = payload.strip_suffix("job 1 of 3\n").unwrap();
    for (label, mutated, line, needle) in [
        (
            "a count under the plan",
            format!("{cell}job 1 of 2\n"),
            12,
            "a 2-job cell does not match its 3-shard plan",
        ),
        (
            "a count over the plan",
            format!("{cell}job 1 of 4\n"),
            12,
            "a 4-job cell does not match its 3-shard plan",
        ),
        (
            "an oversized count",
            format!("{cell}job 1 of 18446744073709551615\n"),
            12,
            "does not match its 3-shard plan",
        ),
        (
            "a count past usize",
            format!("{cell}job 1 of 18446744073709551616\n"),
            12,
            "is not usize",
        ),
        ("no job line", cell.to_string(), 11, "truncated"),
        (
            "a padded index",
            format!("{cell}job 01 of 3\n"),
            12,
            "\"01\" is not usize",
        ),
        (
            "a duplicated job line",
            format!("{payload}job 1 of 3\n"),
            12,
            "content after the last line",
        ),
        (
            "the job line swapped with the seed",
            payload.replacen("base-seed 3\njob 1 of 3\n", "job 1 of 3\nbase-seed 3\n", 1),
            11,
            "expected a \"base-seed\" line",
        ),
    ] {
        let error = ShardSpec::from_wire(&mutated, &no_blobs).unwrap_err();
        names_line(label, &error, line);
        assert!(error.to_string().contains(needle), "{label}: {error}");
    }

    // A submission states each cell's job count once; the daemon writes
    // the job lines, so the body decoder bounds the count before any
    // job exists.
    let body = submission(700).encode();
    let cell_line = body
        .lines()
        .position(|line| line.starts_with("cell jobs 3 "))
        .expect("a 700-trial cell has 3 jobs")
        + 1;
    for (label, from, to, needle) in [
        (
            "no jobs",
            "cell jobs 3 ",
            "cell jobs 0 ",
            "is not a job count of at least 1",
        ),
        (
            "a count past the frame cap",
            "cell jobs 3 ",
            "cell jobs 18446744073709551615 ",
            "expand to more than",
        ),
    ] {
        let error = Submission::decode(&body.replacen(from, to, 1)).unwrap_err();
        names_line(label, &error, cell_line);
        assert!(error.to_string().contains(needle), "{label}: {error}");
    }
}

#[test]
fn respellings_are_typed_errors_naming_their_line() {
    let spec = ShardSpec::fixed(ProtocolSpec::new("decay").universe(64), 8, 100);
    let plan = ShardPlan::with_shard_size(700, 256);
    let payload = spec.to_wire(plan, 3, 1, &mut BlobSet::new()).payload;
    let no_blobs = |_: &str| None;
    for (label, respelled, line) in [
        ("junk after the job line", format!("{payload}junk\n"), 13),
        ("CRLF", payload.replace('\n', "\r\n"), 1),
        (
            "universe64",
            payload.replacen("universe ", "universe", 1),
            3,
        ),
        (
            "max-rounds +100",
            payload.replacen("rounds 1", "rounds +1", 1),
            8,
        ),
        (
            "max-rounds 0100",
            payload.replacen("rounds 1", "rounds 01", 1),
            8,
        ),
        (
            "shard-size 0",
            payload.replacen("size 256", "size 0", 1),
            10,
        ),
    ] {
        assert_ne!(respelled, payload, "{label}");
        names_line(
            label,
            ShardSpec::from_wire(&respelled, &no_blobs).unwrap_err(),
            line,
        );
    }

    let wire = accumulator().to_wire();
    for (label, respelled, line) in [
        ("junk after end", format!("{wire}junk\n"), 8),
        ("doubled space", wire.replacen("trials ", "trials  ", 1), 2),
    ] {
        names_line(
            label,
            TrialAccumulator::from_wire(&respelled).unwrap_err(),
            line,
        );
    }

    // Blob sections must ascend by hash, once each: the order the
    // encoder writes.
    let mut blobs = [("a", content_hash(b"a")), ("b", content_hash(b"b"))];
    blobs.sort_by(|x, y| x.1.cmp(&y.1));
    let [(low, _), (high, _)] = blobs;
    let body = |first: &str, second: &str| {
        format!(
            "crp-serve-submission v3\nblobs 2\nblob 1\n{first}\nblob 1\n{second}\ncells 0\nend\n"
        )
    };
    assert!(Submission::decode(&body(low, high)).is_ok());
    for (label, first, second) in [("descending", high, low), ("repeated", low, low)] {
        names_line(
            label,
            Submission::decode(&body(first, second)).unwrap_err(),
            6,
        );
    }

    // Names ascend within a section, and `-0` is no spelling of a gauge.
    let snapshot = |counters: &str, gauges: &str| {
        format!("crp-metrics-snapshot v1\n{counters}{gauges}histograms 0\nend\n")
    };
    let two = |a: &str, b: &str| format!("counters 2\ncounter {a} 1\ncounter {b} 2\n");
    assert!(MetricsSnapshot::decode(&snapshot(&two("a", "b"), "gauges 0\n")).is_ok());
    for (label, counters, gauges, line) in [
        ("descending", two("b", "a"), "gauges 0\n", 4),
        ("repeated", two("a", "a"), "gauges 0\n", 4),
        (
            "-0",
            "counters 0\n".to_string(),
            "gauges 1\ngauge g -0\n",
            4,
        ),
    ] {
        let err = MetricsSnapshot::decode(&snapshot(&counters, gauges)).unwrap_err();
        names_line(label, err, line);
    }
}
