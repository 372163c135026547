//! The structured trace-event sink: timestamped JSONL events behind a
//! zero-cost-when-disabled guard.
//!
//! Instrumented code guards every event behind [`trace_enabled`] — a
//! single relaxed atomic load — so a build with tracing off pays one
//! predictable branch per event site and allocates nothing.  When a
//! sink is installed (via `--trace-out PATH` or `CRP_TRACE` on the CLI,
//! both resolved to [`init_trace`]), each event renders
//! as one JSON line with a **stable field order**: `ts_us` first, then
//! `event`, then the remaining fields in insertion order.  Floats are
//! encoded as IEEE-754 bit-pattern hex strings ([`crate::hex64`] of
//! `f64::to_bits`), the same hash-stable discipline the fleet and
//! serve wire codecs use, so a trace file diffs cleanly across runs
//! and platforms.
//!
//! Event names are dotted lowercase paths (`sweep.cell`,
//! `shard.execute`, `kernel.select`, `fleet.dispatch`,
//! `fleet.requeue`, `fleet.ping`, `cache.hit`, `cache.miss`,
//! `cache.heal`, `serve.submit`).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::ObsError;

/// Whether a trace sink is installed and enabled.  The guard every
/// instrumentation site checks before building an event.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink: a line writer plus the epoch `ts_us` counts
/// from.
static SINK: OnceLock<TraceSink> = OnceLock::new();

/// The file path of the installed sink, when it was opened from a path
/// (rather than a caller-supplied writer).  Worker spawning reads this
/// to derive per-worker sibling paths.
static ACTIVE_PATH: OnceLock<String> = OnceLock::new();

/// The path of the installed trace sink, when tracing is enabled and
/// the sink was opened from a path (via [`init_trace`]).  `None` for
/// writer-backed sinks and when tracing is off.
pub fn active_trace_path() -> Option<String> {
    if trace_enabled() {
        ACTIVE_PATH.get().cloned()
    } else {
        None
    }
}

/// The derived trace path for spawned worker `n` of a process tracing
/// to `base` — each subprocess writes its own sibling JSONL file, so
/// two processes never interleave lines in one file.  `trace-join`
/// discovers these siblings automatically.
pub fn derive_worker_trace_path(base: &str, n: usize) -> String {
    format!("{base}.worker-{n}")
}

/// A destination for trace events.  Normally installed process-wide
/// with [`install_trace_sink`]; owning one directly is useful in tests.
pub struct TraceSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    epoch: Instant,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    /// A sink writing to `writer`, timestamping from "now".
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            writer: Mutex::new(BufWriter::new(writer)),
            epoch: Instant::now(),
        }
    }

    /// A sink appending JSON lines to the file at `path` (created if
    /// absent, truncated if present).
    pub fn to_file(path: &str) -> Result<Self, ObsError> {
        let file = File::create(path).map_err(|err| ObsError::Io {
            what: format!("cannot open trace file {path}: {err}"),
        })?;
        Ok(Self::new(Box::new(file)))
    }

    /// Writes one event as a JSON line, flushed immediately so a
    /// crashed process leaves a readable trace.
    pub fn write(&self, event: &TraceEvent) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let line = event.render(ts_us);
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.write_all(b"\n");
            let _ = writer.flush();
        }
    }
}

/// True when a trace sink is installed: the zero-cost guard.  Callers
/// skip building the event entirely when this returns false.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-wide trace destination and enables
/// tracing.  At most one sink can ever be installed per process; a
/// second installation is a typed error.
pub fn install_trace_sink(sink: TraceSink) -> Result<(), ObsError> {
    SINK.set(sink).map_err(|_| ObsError::Io {
        what: "a trace sink is already installed in this process".to_string(),
    })?;
    TRACE_ENABLED.store(true, Ordering::Release);
    Ok(())
}

/// Opens `path` and installs it as the process-wide trace sink.
pub fn init_trace(path: &str) -> Result<(), ObsError> {
    install_trace_sink(TraceSink::to_file(path)?)?;
    let _ = ACTIVE_PATH.set(path.to_string());
    Ok(())
}

/// Emits `event` to the installed sink; a no-op when tracing is
/// disabled.  Prefer guarding the event *construction* behind
/// [`trace_enabled`] so disabled call sites allocate nothing.
pub fn emit(event: &TraceEvent) {
    if !trace_enabled() {
        return;
    }
    if let Some(sink) = SINK.get() {
        sink.write(event);
    }
}

/// One structured trace event: a dotted event name plus ordered
/// fields, rendered as a single JSON object per line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    name: &'static str,
    /// Pre-rendered `"key":value` JSON pairs, in insertion order.
    fields: Vec<(String, String)>,
}

/// Appends `text` to `out` with JSON string escaping (quote,
/// backslash, and control characters).
fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl TraceEvent {
    /// A new event named `name` (a dotted lowercase path, e.g.
    /// `fleet.dispatch`).
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            fields: Vec::new(),
        }
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let mut rendered = String::with_capacity(value.len() + 2);
        push_json_string(&mut rendered, value);
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field as its IEEE-754 bit pattern in hex — the
    /// hash-stable encoding the wire codecs use ([`crate::hex64`] of
    /// `f64::to_bits`), wrapped in a JSON string.
    pub fn f64_bits(mut self, key: &str, value: f64) -> Self {
        self.fields.push((
            key.to_string(),
            format!("\"{}\"", crate::hex64(value.to_bits())),
        ));
        self
    }

    /// The event name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Renders the event as one JSON object with the stable field
    /// order: `ts_us`, `event`, then fields in insertion order.
    pub fn render(&self, ts_us: u64) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"ts_us\":");
        out.push_str(&ts_us.to_string());
        out.push_str(",\"event\":");
        push_json_string(&mut out, self.name);
        for (key, value) in &self.fields {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            out.push_str(value);
        }
        out.push('}');
        out
    }
}

/// Parses one rendered trace line into its `(key, value)` members, in
/// order.  String values keep their surrounding quotes (escapes are
/// not resolved — trace values never need them for the fields tools
/// consume); numeric values are their digit text.  This is the shared
/// scanner under [`check_trace_line`] and the CLI `trace-join`.
///
/// # Errors
///
/// [`ObsError::Io`] when the line is not a flat JSON object of
/// string/unsigned-integer members.
pub fn trace_line_fields(line: &str) -> Result<Vec<(String, String)>, ObsError> {
    let fail = |what: &str| {
        Err(ObsError::Io {
            what: format!("invalid trace line ({what}): {line}"),
        })
    };
    let Some(body) = line
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
    else {
        return fail("not a JSON object");
    };
    // A hand-rolled member scanner is enough here: values are only
    // strings (no embedded braces outside escapes) and numbers.
    let mut members: Vec<(String, String)> = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let Some(after_quote) = rest.strip_prefix('"') else {
            return fail("expected a quoted key");
        };
        let Some(end) = after_quote.find('"') else {
            return fail("unterminated key");
        };
        let key = &after_quote[..end];
        let Some(after_colon) = after_quote[end + 1..].strip_prefix(':') else {
            return fail("expected ':' after key");
        };
        let (value, tail) = if let Some(string_body) = after_colon.strip_prefix('"') {
            let mut escaped = false;
            let mut close = None;
            for (index, ch) in string_body.char_indices() {
                if escaped {
                    escaped = false;
                } else if ch == '\\' {
                    escaped = true;
                } else if ch == '"' {
                    close = Some(index);
                    break;
                }
            }
            let Some(close) = close else {
                return fail("unterminated string value");
            };
            (
                format!("\"{}\"", &string_body[..close]),
                &string_body[close + 1..],
            )
        } else {
            let end = after_colon.find(',').unwrap_or(after_colon.len());
            let digits = &after_colon[..end];
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return fail("expected a string or unsigned integer value");
            }
            (digits.to_string(), &after_colon[end..])
        };
        members.push((key.to_string(), value));
        rest = match tail.strip_prefix(',') {
            Some(next) => next,
            None if tail.is_empty() => tail,
            None => return fail("expected ',' between members"),
        };
        if rest.is_empty() && tail.starts_with(',') {
            return fail("trailing comma");
        }
    }
    Ok(members)
}

/// Validates one rendered trace line against the schema: a flat JSON
/// object whose first two members are a numeric `ts_us` and a string
/// `event`, followed by string/number members only.  A `span` member,
/// when present, must be a canonical span id ([`crate::is_span_id`]);
/// a `parent` member additionally requires a `span`.  Returns the
/// event name on success; used by the CLI `trace-check` helper and the
/// CI smoke job.
pub fn check_trace_line(line: &str) -> Result<String, ObsError> {
    let fail = |what: &str| {
        Err(ObsError::Io {
            what: format!("invalid trace line ({what}): {line}"),
        })
    };
    let members = trace_line_fields(line)?;
    let find = |key: &str| {
        members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, value)| value.as_str())
    };
    for key in ["span", "parent"] {
        if let Some(value) = find(key) {
            let Some(id) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                return fail(&format!("{key} must be a string"));
            };
            if !crate::is_span_id(id) {
                return fail(&format!("{key} {id:?} is not a span id"));
            }
        }
    }
    if find("parent").is_some() && find("span").is_none() {
        return fail("an event with a parent must carry its own span");
    }
    match (members.first(), members.get(1)) {
        (Some((first_key, first_value)), Some((second_key, second_value)))
            if first_key == "ts_us"
                && first_value.bytes().all(|b| b.is_ascii_digit())
                && second_key == "event"
                && second_value.starts_with('"') =>
        {
            Ok(second_value.trim_matches('"').to_string())
        }
        _ => fail("first members must be numeric ts_us then string event"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_with_stable_field_order() {
        let event = TraceEvent::new("fleet.dispatch")
            .u64("job", 7)
            .str("endpoint", "local:0")
            .f64_bits("rate", 0.5);
        assert_eq!(
            event.render(1234),
            "{\"ts_us\":1234,\"event\":\"fleet.dispatch\",\"job\":7,\
             \"endpoint\":\"local:0\",\"rate\":\"3fe0000000000000\"}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let event = TraceEvent::new("cache.miss").str("key", "a\"b\\c\nd");
        assert_eq!(
            event.render(0),
            "{\"ts_us\":0,\"event\":\"cache.miss\",\"key\":\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn rendered_lines_pass_the_checker() {
        let event = TraceEvent::new("serve.submit")
            .u64("cells", 4)
            .str("id", "sub-1")
            .f64_bits("p", 1.0);
        let line = event.render(42);
        assert_eq!(check_trace_line(&line).unwrap(), "serve.submit");
    }

    #[test]
    fn the_checker_rejects_malformed_lines() {
        for bad in [
            "not json",
            "{}",
            "{\"event\":\"x\",\"ts_us\":1}",
            "{\"ts_us\":\"1\",\"event\":\"x\"}",
            "{\"ts_us\":1,\"event\":2}",
            "{\"ts_us\":1,\"event\":\"x\",\"v\":1.5}",
        ] {
            assert!(check_trace_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn the_checker_validates_span_fields() {
        let stamped = crate::SpanContext::with_parent("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb")
            .stamp(TraceEvent::new("shard.execute").u64("shard", 0))
            .render(1);
        assert_eq!(check_trace_line(&stamped).unwrap(), "shard.execute");
        for bad in [
            // Malformed span id shapes.
            "{\"ts_us\":1,\"event\":\"x\",\"span\":\"short\"}",
            "{\"ts_us\":1,\"event\":\"x\",\"span\":\"AAAAAAAAAAAAAAAA\"}",
            "{\"ts_us\":1,\"event\":\"x\",\"span\":7}",
            "{\"ts_us\":1,\"event\":\"x\",\"span\":\"aaaaaaaaaaaaaaaa\",\"parent\":\"zz\"}",
            // A parent without its own span.
            "{\"ts_us\":1,\"event\":\"x\",\"parent\":\"aaaaaaaaaaaaaaaa\"}",
        ] {
            assert!(check_trace_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn worker_trace_paths_derive_as_siblings() {
        assert_eq!(
            derive_worker_trace_path("trace.jsonl", 0),
            "trace.jsonl.worker-0"
        );
        assert_eq!(
            derive_worker_trace_path("/tmp/t.jsonl", 12),
            "/tmp/t.jsonl.worker-12"
        );
    }

    #[test]
    fn sink_writes_one_line_per_event() {
        // A private sink (not the process-wide one) so parallel tests
        // cannot interleave.
        let path = std::env::temp_dir().join(format!("crp-obs-sink-{}.jsonl", std::process::id()));
        let sink = TraceSink::to_file(path.to_str().unwrap()).unwrap();
        sink.write(&TraceEvent::new("kernel.select").str("kernel", "batched"));
        sink.write(&TraceEvent::new("shard.execute").u64("shard", 3));
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events: Vec<String> = text
            .lines()
            .map(|line| check_trace_line(line).unwrap())
            .collect();
        assert_eq!(events, ["kernel.select", "shard.execute"]);
    }
}
