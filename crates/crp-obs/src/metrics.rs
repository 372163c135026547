//! A lock-free metrics registry: named counters, gauges, and
//! log-bucketed latency histograms.
//!
//! The hot path — incrementing a counter, moving a gauge, recording a
//! histogram sample — is a single atomic RMW on a pre-registered cell;
//! the registry's interior mutex guards only the *name → cell* map, so
//! it is touched once per metric name, not once per observation.
//! Snapshots are plain owned data: mergeable (bucket-wise addition,
//! like the trial sketches they mirror) and rendered deterministically
//! with names in sorted order, so two snapshots that agree on every
//! observation render byte-identically regardless of the thread or
//! fleet interleaving that produced them.
//!
//! Histograms bucket with [`bucket_index`], which the simulator's
//! `QuantileSketch` calls too: values below 128 occupy one exact bucket
//! each; larger values share log-spaced buckets with 128 linear
//! sub-buckets per power of two (HdrHistogram-style), for a 1/256
//! worst-case relative error at any quantile.  Unlike the sketch, the
//! bucket array here is fixed-size (7424 slots covers all of `u64`) so
//! recording never allocates and never takes a lock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hex::hex64;
use crate::lines::{Fields, LineError, LineReader};
use crate::ObsError;

/// Linear buckets below this value; log-spaced with this many
/// sub-buckets per octave above it.
const PRECISION: usize = 128;

/// The number of log buckets, enough for every `u64`: the largest index,
/// of octave `m = 63`, is `(63 - 6) * 128 + 127`.  Every decoder of a
/// bucket list caps it here, since [`bucket_value`] of a larger index
/// overflows.
pub const BUCKETS: usize = (63 - 6) * PRECISION + PRECISION;

/// The log bucket of `value`: values below 128 get one exact bucket
/// each, larger values one of 128 linear sub-buckets of their power of
/// two.  The one bucketing discipline of the workspace — histograms here
/// and the crp-sim `QuantileSketch` both use it, so they share its 1/256
/// worst-case relative error.
pub fn bucket_index(value: u64) -> usize {
    if value < PRECISION as u64 {
        value as usize
    } else {
        // `value` is in the octave [2^m, 2^{m+1}) with m >= 7; the top
        // seven bits below the leading one select the sub-bucket.
        let m = 63 - value.leading_zeros() as u64;
        let sub = ((value >> (m - 7)) & 127) as usize;
        (m as usize - 6) * PRECISION + sub
    }
}

/// The representative (lower-midpoint) value of bucket `index` (see
/// [`bucket_index`]).
pub fn bucket_value(index: usize) -> u64 {
    if index < PRECISION {
        index as u64
    } else {
        let m = index / PRECISION + 6;
        let sub = (index % PRECISION) as u64;
        let lo = (1u64 << m) + (sub << (m - 7));
        let width = 1u64 << (m - 7);
        lo + (width - 1) / 2
    }
}

/// A monotonically increasing event count.  Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (queue depth, jobs in flight).
/// Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Moves the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared storage of one histogram: a fixed bucket array plus
/// sum/min/max, all atomics, so recording is lock-free and
/// allocation-free.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        Self {
            buckets,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed latency/size histogram.  Cloning shares the cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.total.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An owned, mergeable copy of one histogram's state.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Bucket occupancy, trimmed after the last non-empty bucket.
    counts: Vec<u64>,
    /// Number of recorded samples.
    pub total: u64,
    /// Sum of all samples (wrapping at `u64::MAX`, like the cells).
    pub sum: u64,
    /// Smallest sample, or `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample, or 0 when empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The representative value at quantile `q` in `[0, 1]`, or `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let clamped = q.clamp(0.0, 1.0);
        let rank = ((clamped * (self.total - 1) as f64).round() as u64).min(self.total - 1);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return Some(bucket_value(index));
            }
        }
        None
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

/// A registry of named metrics.  Handle lookup takes the interior
/// mutex; observations on a handle are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registered on first use.  Cache the
    /// returned handle on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Convenience: adds `delta` to the counter named `name` (one map
    /// lock per call — fine off the hot path).
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Convenience: adds one to the counter named `name`.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Convenience: records `value` into the histogram named `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// An owned copy of every metric's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, cell)| {
                let core = &*cell.0;
                let mut counts: Vec<u64> = core
                    .buckets
                    .iter()
                    .map(|bucket| bucket.load(Ordering::Relaxed))
                    .collect();
                while counts.last() == Some(&0) {
                    counts.pop();
                }
                let snapshot = HistogramSnapshot {
                    counts,
                    total: core.total.load(Ordering::Relaxed),
                    sum: core.sum.load(Ordering::Relaxed),
                    min: core.min.load(Ordering::Relaxed),
                    max: core.max.load(Ordering::Relaxed),
                };
                (name.clone(), snapshot)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// An owned, mergeable view of a registry at one instant.
///
/// Merging sums counters, takes the maximum of gauges (a merged gauge
/// reads as the peak level), and adds histograms bucket-wise — all
/// order-independent, so a snapshot merged from per-worker pieces is
/// identical no matter the completion order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge named `name`, or 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// All counters, in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .map(|(name, &value)| (name.as_str(), value))
    }

    /// All gauges, in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges
            .iter()
            .map(|(name, &value)| (name.as_str(), value))
    }

    /// All histograms, in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms
            .iter()
            .map(|(name, snapshot)| (name.as_str(), snapshot))
    }

    /// Merges another snapshot into this one: counters sum, gauges
    /// take the maximum, histograms add bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let entry = self.gauges.entry(name.clone()).or_insert(i64::MIN);
            *entry = (*entry).max(*value);
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }

    /// Renders the snapshot as a deterministic text report: one line
    /// per metric, names in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value}");
        }
        for (name, histogram) in &self.histograms {
            if histogram.total == 0 {
                let _ = writeln!(out, "histogram {name} count=0");
                continue;
            }
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} min={} max={} p50={} p90={} p99={}",
                histogram.total,
                histogram.sum,
                histogram.min,
                histogram.max,
                histogram.quantile(0.50).unwrap_or(0),
                histogram.quantile(0.90).unwrap_or(0),
                histogram.quantile(0.99).unwrap_or(0),
            );
        }
        out
    }

    /// Encodes the snapshot into its canonical wire text — the body of
    /// a fleet `metrics-report` frame.
    ///
    /// The format follows the `ShardSpec` codec discipline: line-based,
    /// headed and terminated, with every histogram scalar as its raw
    /// 64-bit pattern in `{:016x}` hex so values that happen to be
    /// IEEE-754 bit patterns (signed zeros, subnormals, infinities fed
    /// through `f64::to_bits`) survive byte-exactly.  Encoding a decoded
    /// snapshot reproduces the input bytes: maps iterate sorted and
    /// bucket lines are emitted sparsely in index order.
    pub fn encode(&self) -> String {
        let mut out = String::from("crp-metrics-snapshot v1\n");
        let _ = writeln!(out, "counters {}", self.counters.len());
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        let _ = writeln!(out, "gauges {}", self.gauges.len());
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value}");
        }
        let _ = writeln!(out, "histograms {}", self.histograms.len());
        for (name, histogram) in &self.histograms {
            let occupied = histogram.counts.iter().filter(|&&count| count != 0).count();
            let _ = writeln!(
                out,
                "histogram {name} {} {} {} {} buckets {occupied}",
                hex64(histogram.total),
                hex64(histogram.sum),
                hex64(histogram.min),
                hex64(histogram.max),
            );
            for (index, &count) in histogram.counts.iter().enumerate() {
                if count != 0 {
                    let _ = writeln!(out, "bucket {index} {count}");
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Decodes the canonical wire text produced by
    /// [`MetricsSnapshot::encode`]: exactly the bytes `encode` writes.
    ///
    /// # Errors
    ///
    /// [`ObsError::Malformed`] naming the first offending line: a wrong
    /// header, truncation (section counts must match and the `end` line
    /// must close the body, with nothing after it), names that repeat or
    /// do not ascend within their section, non-canonical integers or hex
    /// scalars, more than [`BUCKETS`] buckets, bucket indices out of
    /// range or order, and zero bucket counts.
    pub fn decode(text: &str) -> Result<Self, ObsError> {
        Self::read(text).map_err(|e| ObsError::Malformed {
            what: e.to_string(),
        })
    }

    fn read(text: &str) -> Result<Self, LineError> {
        let mut reader = LineReader::new(text);
        reader.header("crp-metrics-snapshot v1")?;
        let counters = named(&mut reader, "counter", |fields, _| fields.int())?;
        let gauges = named(&mut reader, "gauge", |fields, _| fields.int())?;
        let histograms = named(&mut reader, "histogram", |fields, reader| {
            let (total, sum) = (fields.hex64()?, fields.hex64()?);
            let (min, max) = (fields.hex64()?, fields.hex64()?);
            fields.keyword("buckets")?;
            let mut counts: Vec<u64> = Vec::new();
            for _ in 0..fields.count(BUCKETS)? {
                let (index, count) = reader.field("bucket", |f| Ok((f.int()?, f.int()?)))?;
                if index >= BUCKETS || index < counts.len() || count == 0 {
                    return Err(reader.error("bucket indices ascend below BUCKETS, counts above 0"));
                }
                counts.resize(index, 0);
                counts.push(count);
            }
            Ok(HistogramSnapshot {
                counts,
                total,
                sum,
                min,
                max,
            })
        })?;
        reader.end()?;
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }
}

/// A counted section of `label <name> …` lines (the count line is
/// `label` plus `s`) whose values `read` takes.  Names ascend strictly,
/// the order `encode` writes, so a repeated or reordered name is no
/// spelling of a snapshot.
fn named<'a, V>(
    reader: &mut LineReader<'a>,
    label: &str,
    read: impl Fn(&mut Fields<'a>, &mut LineReader<'a>) -> Result<V, LineError>,
) -> Result<BTreeMap<String, V>, LineError> {
    let mut map = BTreeMap::new();
    for _ in 0..reader.count(&format!("{label}s"), usize::MAX)? {
        let mut fields = reader.fields(label)?;
        let name = fields.token()?;
        if map
            .last_key_value()
            .is_some_and(|(last, _): (&String, _)| last.as_str() >= name)
        {
            return Err(fields.error(format!("name {name:?} is repeated or out of order")));
        }
        let value = read(&mut fields, reader)?;
        fields.finish()?;
        map.insert(name.to_string(), value);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = MetricsRegistry::new();
        registry.inc("a");
        registry.add("a", 4);
        registry.gauge("depth").set(7);
        registry.gauge("depth").add(-2);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("a"), 5);
        assert_eq!(snapshot.gauge("depth"), 5);
        assert_eq!(snapshot.counter("missing"), 0);
    }

    #[test]
    fn histogram_bucketing_matches_the_sketch_discipline() {
        // Exact below the precision boundary.
        for value in [0u64, 1, 64, 127] {
            assert_eq!(bucket_value(bucket_index(value)), value);
        }
        // 1/256 worst-case relative error above it.
        for value in [128u64, 1000, 123_456, u64::MAX / 3] {
            let rep = bucket_value(bucket_index(value));
            let err = rep.abs_diff(value) as f64 / value as f64;
            assert!(err <= 1.0 / 256.0, "value {value} rep {rep} err {err}");
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("lat");
        for value in 0..100u64 {
            histogram.record(value);
        }
        let snapshot = registry.snapshot();
        let lat = snapshot.histogram("lat").unwrap();
        assert_eq!(lat.total, 100);
        assert_eq!(lat.min, 0);
        assert_eq!(lat.max, 99);
        assert_eq!(lat.quantile(0.5), Some(50));
        assert_eq!(lat.quantile(1.0), Some(99));

        // Merging two halves equals recording the whole.
        let left = MetricsRegistry::new();
        let right = MetricsRegistry::new();
        for value in 0..50u64 {
            left.observe("lat", value);
        }
        for value in 50..100u64 {
            right.observe("lat", value);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged.histogram("lat"), Some(lat));
    }

    #[test]
    fn the_wire_codec_round_trips_and_rejects_truncation() {
        let registry = MetricsRegistry::new();
        registry.add("jobs", 41);
        registry.gauge("depth").set(-3);
        registry.observe("lat", 0);
        registry.observe("lat", 70_000);
        let snapshot = registry.snapshot();
        let wire = snapshot.encode();
        let decoded = MetricsSnapshot::decode(&wire).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded.encode(), wire, "re-encoding is byte-identical");

        // The empty snapshot is representable.
        let empty = MetricsSnapshot::new().encode();
        assert_eq!(
            empty,
            "crp-metrics-snapshot v1\ncounters 0\ngauges 0\nhistograms 0\nend\n"
        );
        assert!(MetricsSnapshot::decode(&empty).unwrap().is_empty());

        // Dropping any line (including `end`) breaks the decode.
        let lines: Vec<&str> = wire.lines().collect();
        for keep in 0..lines.len() {
            let truncated = lines[..keep].join("\n");
            assert!(
                MetricsSnapshot::decode(&truncated).is_err(),
                "decoded a snapshot truncated to {keep} lines"
            );
        }
        assert!(MetricsSnapshot::decode(&format!("{wire}counters 0\n")).is_err());
    }

    #[test]
    fn snapshot_merge_is_order_independent_and_render_deterministic() {
        let a = {
            let r = MetricsRegistry::new();
            r.add("jobs", 3);
            r.gauge("depth").set(2);
            r.observe("lat", 10);
            r.snapshot()
        };
        let b = {
            let r = MetricsRegistry::new();
            r.add("jobs", 4);
            r.add("extra", 1);
            r.gauge("depth").set(5);
            r.observe("lat", 200);
            r.snapshot()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.render(), ba.render());
        assert_eq!(ab.counter("jobs"), 7);
        assert_eq!(ab.gauge("depth"), 5);
        assert!(ab.render().starts_with("counter extra 1\ncounter jobs 7\n"));
    }
}
