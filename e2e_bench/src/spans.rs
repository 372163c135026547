//! In-memory spans recorded around the calls into each layer, and the
//! self-time rule: a span's self time is its duration minus the part of
//! its interval that its child spans cover.
//!
//! Recording is switched on and off at run time; while off, opening a
//! span costs one atomic load and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One closed (or still open) span; times are nanoseconds since the
/// log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `client.compile`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch (equal to `start_ns` while
    /// open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe, switchable span recorder.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty, disabled log.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off.  The flag publishes no other data.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` while recording is off.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled() {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`SpanLog::begin`] (a `None` id is a
    /// no-op).
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span log poisoned by a panic")[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let value = f();
        self.end(id);
        value
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self times, in nanoseconds.
    pub self_ns: u64,
}

/// Length of the union of `intervals` after clipping each to
/// `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    if hi <= lo {
        return 0;
    }
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.clamp(cursor, hi);
        let end = end.clamp(lo, hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// The self time of every span: its duration minus the union of its
/// direct children's intervals, clipped to its own interval (children
/// that overlap each other are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered_ns(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Totals and self times per span name, in name order.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.duration_ns();
        layer.self_ns += self_ns;
    }
    layers
}

/// Renders spans as JSON lines (`id`, `name`, `parent`, `start_ns`,
/// `end_ns`) for offline inspection.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.start_ns, span.end_ns
        );
    }
    out
}
