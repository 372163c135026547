//! Deterministic trace spans: content-hash-derived ids that correlate
//! trace events across processes.
//!
//! A span id is the first [`SPAN_HEX_LEN`] hex digits of an existing
//! content hash — a job's payload hash, a cell's hash, a submission's
//! hash-of-hashes — never a random value, so the same work always
//! carries the same span no matter which process or run emitted the
//! event.  Parentage mirrors the content-addressing hierarchy
//! (submission → cell → job) and is what `trace-join` orders merged
//! timelines by; wall clocks from different hosts are never compared.
//!
//! The *current* span is a thread-local the fleet worker sets around
//! each job execution; instrumentation sites deep in the simulator
//! ([`crate::trace_enabled`]-guarded, as always) read it back with
//! [`current_span`] and stamp their events.  Nothing here touches RNG
//! streams or merge order, so `TrialStats` stay bit-identical with
//! span stamping on or off.

use std::cell::RefCell;

use crate::TraceEvent;

/// Length of a span id: the first 16 hex digits (64 bits) of a content
/// hash — short enough to read, long enough that sibling jobs in one
/// sweep never collide in practice.
pub const SPAN_HEX_LEN: usize = 16;

/// One span: the event's own id plus its parent in the
/// submission → cell → job hierarchy (absent at the root, or when the
/// producer had no enclosing span).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// The span id: [`SPAN_HEX_LEN`] lowercase hex digits.
    pub id: String,
    /// The parent span id, when the producer knows one.
    pub parent: Option<String>,
}

impl SpanContext {
    /// A root span (no parent).
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            parent: None,
        }
    }

    /// A child span.
    pub fn with_parent(id: impl Into<String>, parent: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            parent: Some(parent.into()),
        }
    }

    /// Stamps `span` (and `parent`, when present) onto a trace event.
    pub fn stamp(&self, event: TraceEvent) -> TraceEvent {
        let event = event.str("span", &self.id);
        match &self.parent {
            Some(parent) => event.str("parent", parent),
            None => event,
        }
    }
}

thread_local! {
    /// The span of the job this thread is currently executing, if any.
    static CURRENT: RefCell<Option<SpanContext>> = const { RefCell::new(None) };
}

/// Sets (or clears, with `None`) the current thread's span.  The fleet
/// worker calls this around each job execution so instrumentation deep
/// in the simulator can stamp its events.
pub fn set_current_span(span: Option<SpanContext>) {
    CURRENT.with(|cell| *cell.borrow_mut() = span);
}

/// The current thread's span, if one is set.
pub fn current_span() -> Option<SpanContext> {
    CURRENT.with(|cell| cell.borrow().clone())
}

/// True when `token` has the canonical span-id shape:
/// [`SPAN_HEX_LEN`] lowercase hex digits.
pub fn is_span_id(token: &str) -> bool {
    // SPAN_HEX_LEN digits are exactly one canonical 64-bit hex token.
    crate::parse_hex64(token).is_some()
}

/// Derives a span id from a content hash (or any lowercase-hex digest):
/// its first [`SPAN_HEX_LEN`] digits.  Shorter inputs are taken whole —
/// callers pass canonical 64-digit content hashes in practice.
pub fn span_from_hash(hash: &str) -> String {
    hash.get(..SPAN_HEX_LEN).unwrap_or(hash).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_derive_deterministically_from_hashes() {
        let hash = "ab12cd34ef56ab78ab12cd34ef56ab78ab12cd34ef56ab78ab12cd34ef56ab78";
        let id = span_from_hash(hash);
        assert_eq!(id, "ab12cd34ef56ab78");
        assert!(is_span_id(&id));
        assert_eq!(span_from_hash(hash), id, "same hash, same span");
    }

    #[test]
    fn span_id_shape_is_enforced() {
        assert!(is_span_id("0123456789abcdef"));
        for bad in [
            "",
            "0123456789abcde",   // too short
            "0123456789abcdef0", // too long
            "0123456789ABCDEF",  // uppercase
            "0123456789abcdeg",  // not hex
        ] {
            assert!(!is_span_id(bad), "accepted {bad:?}");
        }
    }

    #[test]
    fn the_current_span_is_thread_local_and_restorable() {
        assert_eq!(current_span(), None);
        set_current_span(Some(SpanContext::with_parent(
            "aaaaaaaaaaaaaaaa",
            "bbbbbbbbbbbbbbbb",
        )));
        assert_eq!(
            current_span().unwrap().parent.as_deref(),
            Some("bbbbbbbbbbbbbbbb")
        );
        let other = std::thread::spawn(current_span).join().unwrap();
        assert_eq!(other, None, "spans do not leak across threads");
        set_current_span(None);
        assert_eq!(current_span(), None);
    }

    #[test]
    fn stamping_appends_span_then_parent() {
        let ctx = SpanContext::with_parent("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb");
        let line = ctx
            .stamp(TraceEvent::new("shard.execute").u64("shard", 1))
            .render(7);
        assert_eq!(
            line,
            "{\"ts_us\":7,\"event\":\"shard.execute\",\"shard\":1,\
             \"span\":\"aaaaaaaaaaaaaaaa\",\"parent\":\"bbbbbbbbbbbbbbbb\"}"
        );
        let root = SpanContext::new("cccccccccccccccc");
        assert!(!root
            .stamp(TraceEvent::new("serve.submission"))
            .render(0)
            .contains("parent"));
    }
}
