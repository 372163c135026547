//! Summary statistics over Monte-Carlo trial outcomes.
//!
//! Two representations exist:
//!
//! * [`TrialAccumulator`] — a *mergeable streaming* accumulator (Welford
//!   mean/variance, exact min/max, and a fixed-size log-bucketed quantile
//!   sketch).  Shards of a Monte-Carlo batch each fold into their own
//!   accumulator and are merged in shard order, so the full sample vector
//!   is never materialised.  Merging is deterministic: folding the same
//!   shards in the same order always produces bit-identical results,
//!   regardless of how many threads computed the shards.
//! * [`TrialStats`] / [`SummaryStats`] — the finalised read-only view the
//!   report layer and all downstream experiment code consume, unchanged
//!   from the collect-then-sort era.

use crp_obs::{parse_int, Fields, LineError, LineReader, BUCKETS};

/// A fixed-size streaming quantile sketch over non-negative integers.
///
/// Values below 128 occupy one exact bucket each; larger values share
/// log-spaced buckets with 128 linear sub-buckets per power of two
/// (HdrHistogram-style) — the [`crp_obs::bucket_index`] discipline the
/// metrics histograms use, so a reconstructed value is within
/// `1/256 ≈ 0.4%` of the original.  The sketch is mergeable (bucket-wise
/// addition), deterministic, and its size is bounded by the value range,
/// never by the number of samples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSketch {
    /// Bucket occupancy counts, grown lazily up to the largest recorded
    /// value's bucket.
    counts: Vec<u64>,
    /// Total number of recorded values.
    total: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let index = crp_obs::bucket_index(value);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merges another sketch into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
    }

    /// The value at rank `rank` (0-based, by ascending value), or `None`
    /// for an out-of-range rank.
    fn value_at_rank(&self, rank: u64) -> Option<u64> {
        if rank >= self.total {
            return None;
        }
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return Some(crp_obs::bucket_value(index));
            }
        }
        None
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation
    /// between the neighbouring order statistics, mirroring
    /// [`SummaryStats::from_samples`].  Returns `None` for an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let position = q * (self.total - 1) as f64;
        let lo_rank = position.floor() as u64;
        let hi_rank = position.ceil() as u64;
        let lo = self.value_at_rank(lo_rank)? as f64;
        if lo_rank == hi_rank {
            return Some(lo);
        }
        let hi = self.value_at_rank(hi_rank)? as f64;
        let frac = position - lo_rank as f64;
        Some(lo * (1.0 - frac) + hi * frac)
    }
}

/// A mergeable streaming accumulator over one stream of integer samples:
/// count, Welford mean/M2, exact min/max, and a quantile sketch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamAccumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: u64,
    max: u64,
    sketch: QuantileSketch,
}

impl StreamAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value as f64 - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value as f64 - self.mean;
        self.m2 += delta * delta2;
        self.sketch.record(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    ///
    /// Merging is a deterministic function of the two operands, so folding
    /// a fixed sequence of accumulators in a fixed order always yields
    /// bit-identical results.
    pub fn merge(&mut self, other: &StreamAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sketch.merge(&other.sketch);
    }

    /// Finalises the stream into a [`SummaryStats`] view, or `None` if the
    /// stream is empty.
    ///
    /// A sketch quantile is a bucket's midpoint, which can lie outside
    /// the samples (every sample 16384 reads 16447), so each quantile is
    /// clamped to the exact `[min, max]`.  Clamping is monotone, so the
    /// quantiles stay ordered.
    pub fn finalize(&self) -> Option<SummaryStats> {
        if self.count == 0 {
            return None;
        }
        let variance = if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        };
        let quantile = |q: f64| {
            self.sketch
                .quantile(q)
                .expect("non-empty stream has quantiles")
                .clamp(self.min as f64, self.max as f64)
        };
        Some(SummaryStats {
            count: self.count as usize,
            mean: self.mean,
            std_dev: variance.max(0.0).sqrt(),
            median: quantile(0.5),
            p10: quantile(0.1),
            p90: quantile(0.9),
            min: self.min as f64,
            max: self.max as f64,
        })
    }
}

/// A mergeable streaming accumulator over contention-resolution trial
/// outcomes: the streaming replacement for collecting every per-trial round
/// count into a vector.
///
/// Each runner shard folds its outcomes into its own accumulator; the
/// driver merges the shard accumulators deterministically in shard order
/// and finalises into the read-only [`TrialStats`] view.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrialAccumulator {
    trials: u64,
    resolved: StreamAccumulator,
    overall: StreamAccumulator,
}

impl TrialAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial outcome.
    pub fn record(&mut self, resolved: bool, rounds: u64) {
        self.trials += 1;
        self.overall.record(rounds);
        if resolved {
            self.resolved.record(rounds);
        }
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of resolved trials.
    pub fn resolved(&self) -> u64 {
        self.resolved.count()
    }

    /// Merges another accumulator into this one.
    ///
    /// The merge is deterministic: for a fixed operand order the result is
    /// bit-identical no matter which threads produced the operands.  It is
    /// also associative up to floating-point rounding, and exactly
    /// order-insensitive for the integer fields (counts, min/max, sketch
    /// buckets).
    pub fn merge(&mut self, other: &TrialAccumulator) {
        self.trials += other.trials;
        self.resolved.merge(&other.resolved);
        self.overall.merge(&other.overall);
    }

    /// Finalises into the read-only [`TrialStats`] view.
    pub fn finalize(&self) -> TrialStats {
        TrialStats {
            trials: self.trials as usize,
            resolved: self.resolved.count() as usize,
            rounds_when_resolved: self.resolved.finalize(),
            rounds_overall: self.overall.finalize(),
        }
    }

    /// Serialises the accumulator into the line-based wire format the
    /// multi-process shard backend ships over worker stdout.
    ///
    /// Floating-point fields are encoded as IEEE-754 bit patterns (hex), so
    /// [`TrialAccumulator::from_wire`] reconstructs a *bit-identical*
    /// accumulator — the property that keeps [`TrialStats`] byte-for-byte
    /// equal no matter which process computed a shard.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str("crp-shard-accumulator v1\n");
        out.push_str(&format!("trials {}\n", self.trials));
        wire_stream(&mut out, "resolved", &self.resolved);
        wire_stream(&mut out, "overall", &self.overall);
        out.push_str("end\n");
        out
    }

    /// Parses the wire format produced by [`TrialAccumulator::to_wire`]:
    /// exactly the bytes `to_wire` writes.
    ///
    /// # Errors
    ///
    /// A description naming the first malformed line: anything
    /// `to_wire` would not write, and a sketch whose bucket list is
    /// longer than [`crp_obs::BUCKETS`] or whose buckets do not sum,
    /// without overflow, to its stream's sample count.
    pub fn from_wire(input: &str) -> Result<Self, String> {
        let read = || {
            let mut reader = LineReader::new(input);
            reader.header("crp-shard-accumulator v1")?;
            let trials = reader.field("trials", Fields::int)?;
            let resolved = read_stream(&mut reader, "resolved")?;
            let overall = read_stream(&mut reader, "overall")?;
            reader.end()?;
            Ok::<_, LineError>(Self {
                trials,
                resolved,
                overall,
            })
        };
        read().map_err(|e| e.to_string())
    }
}

/// Appends one `StreamAccumulator` as two wire lines (moments + sketch).
fn wire_stream(out: &mut String, label: &str, stream: &StreamAccumulator) {
    out.push_str(&format!(
        "{label} {} {} {} {} {}\n",
        stream.count,
        crp_obs::hex64(stream.mean.to_bits()),
        crp_obs::hex64(stream.m2.to_bits()),
        stream.min,
        stream.max
    ));
    out.push_str(&format!("{label}-counts {}", stream.sketch.total));
    for &count in &stream.sketch.counts {
        out.push_str(&format!(" {count}"));
    }
    out.push('\n');
}

/// Reads the two lines [`wire_stream`] writes.
fn read_stream(reader: &mut LineReader<'_>, label: &str) -> Result<StreamAccumulator, LineError> {
    let mut fields = reader.fields(label)?;
    let count = fields.int()?;
    let mean = f64::from_bits(fields.hex64()?);
    let m2 = f64::from_bits(fields.hex64()?);
    let (min, max) = (fields.int()?, fields.int()?);
    fields.finish()?;
    let mut fields = reader.fields(&format!("{label}-counts"))?;
    let total = fields.int()?;
    let counts = fields.list(BUCKETS, "a bucket count", parse_int::<u64>)?;
    let sum = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
    if sum != Some(total) || total != count {
        return Err(reader.error(format!(
            "the {label} buckets must sum to the stream's {count} samples"
        )));
    }
    Ok(StreamAccumulator {
        count,
        mean,
        m2,
        min,
        max,
        sketch: QuantileSketch { counts, total },
    })
}

/// Summary statistics of a sample of per-trial round counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl SummaryStats {
    /// Computes summary statistics from raw samples.
    ///
    /// Returns `None` for an empty sample.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("round counts are finite"));
        let quantile = |q: f64| -> f64 {
            let pos = q * (count - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        };
        Some(Self {
            count,
            mean,
            std_dev: variance.sqrt(),
            median: quantile(0.5),
            p10: quantile(0.1),
            p90: quantile(0.9),
            min: sorted[0],
            max: sorted[count - 1],
        })
    }

    /// The half-width of an approximate 95% confidence interval for the
    /// mean (`1.96 · s / √n`).
    pub fn confidence_95(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            1.96 * self.std_dev / (self.count as f64).sqrt()
        }
    }
}

/// Outcome statistics of a batch of contention-resolution trials.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStats {
    /// Total number of trials run.
    pub trials: usize,
    /// Number of trials that resolved contention within their round budget.
    pub resolved: usize,
    /// Round-count statistics over *resolved* trials only (the paper's §2
    /// algorithms are one-shot, constant-probability attempts, so the
    /// interesting quantity is how fast resolution happens when it does).
    pub rounds_when_resolved: Option<SummaryStats>,
    /// Round-count statistics over all trials, counting unresolved trials
    /// at their full round budget (the natural quantity for the repeating /
    /// expected-time protocols).
    pub rounds_overall: Option<SummaryStats>,
}

impl TrialStats {
    /// Fraction of trials that resolved.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.resolved as f64 / self.trials as f64
        }
    }

    /// Mean rounds over resolved trials, or `NaN` if nothing resolved.
    pub fn mean_rounds_when_resolved(&self) -> f64 {
        self.rounds_when_resolved
            .as_ref()
            .map(|s| s.mean)
            .unwrap_or(f64::NAN)
    }

    /// Mean rounds over all trials (unresolved trials count their budget),
    /// or `NaN` if there were no trials.
    pub fn mean_rounds_overall(&self) -> f64 {
        self.rounds_overall
            .as_ref()
            .map(|s| s.mean)
            .unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_info::SizeDistribution;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Exact interpolated quantile of a sorted sample (the
    /// `SummaryStats::from_samples` definition).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    fn assert_sketch_quantiles_close(samples: &[u64], label: &str) {
        let mut sketch = QuantileSketch::new();
        for &s in samples {
            sketch.record(s);
        }
        let mut sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9] {
            let exact = exact_quantile(&sorted, q);
            let approx = sketch.quantile(q).unwrap();
            let tolerance = (exact.abs() * 0.02).max(1e-9);
            assert!(
                (approx - exact).abs() <= tolerance,
                "{label}: q={q} sketch {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_quantiles_within_two_percent_of_exact_on_geometric_draws() {
        let truth = SizeDistribution::geometric(4096, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let samples: Vec<u64> = (0..10_000).map(|_| truth.sample(&mut rng) as u64).collect();
        assert_sketch_quantiles_close(&samples, "geometric");
    }

    #[test]
    fn sketch_quantiles_within_two_percent_of_exact_on_bimodal_draws() {
        let truth = SizeDistribution::bimodal(4096, 48, 2000, 0.7).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let samples: Vec<u64> = (0..10_000).map(|_| truth.sample(&mut rng) as u64).collect();
        assert_sketch_quantiles_close(&samples, "bimodal");
    }

    #[test]
    fn sketch_is_exact_below_the_linear_limit() {
        let mut sketch = QuantileSketch::new();
        for v in [3u64, 7, 7, 100, 127] {
            sketch.record(v);
        }
        assert_eq!(sketch.quantile(0.0).unwrap(), 3.0);
        assert_eq!(sketch.quantile(0.5).unwrap(), 7.0);
        assert_eq!(sketch.quantile(1.0).unwrap(), 127.0);
        assert!(QuantileSketch::new().quantile(0.5).is_none());
    }

    #[test]
    fn sketch_bucket_round_trip_error_is_bounded() {
        for value in [1u64, 127, 128, 255, 256, 1000, 4096, 1 << 20, u64::MAX / 2] {
            let rep = crp_obs::bucket_value(crp_obs::bucket_index(value));
            let err = (rep as f64 - value as f64).abs() / value as f64;
            assert!(err <= 1.0 / 256.0, "value {value}: rep {rep}, err {err}");
        }
    }

    #[test]
    fn accumulator_merge_agrees_with_single_stream_on_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for case in 0..50 {
            use rand::Rng;
            let len = 1 + rng.gen_range(0usize..200);
            let outcomes: Vec<(bool, u64)> = (0..len)
                .map(|_| (rng.gen_bool(0.8), 1 + rng.gen_range(0u64..50_000)))
                .collect();

            let mut whole = TrialAccumulator::new();
            for &(resolved, rounds) in &outcomes {
                whole.record(resolved, rounds);
            }

            let cut = rng.gen_range(0..=len);
            let mut left = TrialAccumulator::new();
            let mut right = TrialAccumulator::new();
            for &(resolved, rounds) in &outcomes[..cut] {
                left.record(resolved, rounds);
            }
            for &(resolved, rounds) in &outcomes[cut..] {
                right.record(resolved, rounds);
            }
            left.merge(&right);

            let a = whole.finalize();
            let b = left.finalize();
            assert_eq!(a.trials, b.trials, "case {case}");
            assert_eq!(a.resolved, b.resolved, "case {case}");
            let (sa, sb) = (a.rounds_overall.unwrap(), b.rounds_overall.unwrap());
            assert!(
                (sa.mean - sb.mean).abs() < 1e-6 * sa.mean.max(1.0),
                "case {case}"
            );
            assert!(
                (sa.std_dev - sb.std_dev).abs() < 1e-6 * sa.std_dev.max(1.0),
                "case {case}"
            );
            // Integer-derived fields agree exactly.
            assert_eq!(sa.min, sb.min, "case {case}");
            assert_eq!(sa.max, sb.max, "case {case}");
            assert_eq!(sa.median, sb.median, "case {case}");
            assert_eq!(sa.p10, sb.p10, "case {case}");
            assert_eq!(sa.p90, sb.p90, "case {case}");
        }
    }

    #[test]
    fn accumulator_merge_is_associative_on_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for case in 0..50 {
            use rand::Rng;
            let make = |rng: &mut ChaCha8Rng| {
                let mut acc = TrialAccumulator::new();
                for _ in 0..rng.gen_range(0usize..100) {
                    let resolved = rng.gen_bool(0.7);
                    let rounds = 1 + rng.gen_range(0u64..10_000);
                    acc.record(resolved, rounds);
                }
                acc
            };
            let (a, b, c) = (make(&mut rng), make(&mut rng), make(&mut rng));

            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);

            let (fa, fb) = (left.finalize(), right.finalize());
            assert_eq!(fa.trials, fb.trials, "case {case}");
            assert_eq!(fa.resolved, fb.resolved, "case {case}");
            match (&fa.rounds_overall, &fb.rounds_overall) {
                (Some(sa), Some(sb)) => {
                    assert!(
                        (sa.mean - sb.mean).abs() < 1e-9 * sa.mean.abs().max(1.0),
                        "case {case}: means {} vs {}",
                        sa.mean,
                        sb.mean
                    );
                    assert!(
                        (sa.std_dev - sb.std_dev).abs() < 1e-6 * sa.std_dev.abs().max(1.0),
                        "case {case}: std {} vs {}",
                        sa.std_dev,
                        sb.std_dev
                    );
                    // Sketch and min/max merges are exactly associative.
                    assert_eq!(sa.median, sb.median, "case {case}");
                    assert_eq!(sa.min, sb.min, "case {case}");
                    assert_eq!(sa.max, sb.max, "case {case}");
                }
                (None, None) => {}
                other => panic!("case {case}: mismatched streams {other:?}"),
            }
        }
    }

    #[test]
    fn accumulator_finalize_matches_from_samples_moments() {
        let samples = [4u64, 8, 15, 16, 23, 42];
        let mut acc = TrialAccumulator::new();
        for &s in &samples {
            acc.record(true, s);
        }
        let stats = acc.finalize();
        let floats: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        let reference = SummaryStats::from_samples(&floats).unwrap();
        let streamed = stats.rounds_overall.unwrap();
        assert_eq!(streamed.count, reference.count);
        assert!((streamed.mean - reference.mean).abs() < 1e-12);
        assert!((streamed.std_dev - reference.std_dev).abs() < 1e-9);
        assert_eq!(streamed.min, reference.min);
        assert_eq!(streamed.max, reference.max);
        // Quantiles agree exactly here: all values sit in exact buckets.
        assert_eq!(streamed.median, reference.median);
        assert_eq!(stats.resolved, samples.len());
    }

    #[test]
    fn wire_round_trip_is_bit_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for case in 0..20 {
            use rand::Rng;
            let mut acc = TrialAccumulator::new();
            for _ in 0..rng.gen_range(0usize..300) {
                acc.record(rng.gen_bool(0.8), 1 + rng.gen_range(0u64..100_000));
            }
            let round_tripped = TrialAccumulator::from_wire(&acc.to_wire())
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            // Structural equality covers every f64 bit (PartialEq on the
            // raw fields) and the full sketch bucket vector.
            assert_eq!(acc, round_tripped, "case {case}");
            assert_eq!(acc.finalize(), round_tripped.finalize(), "case {case}");
        }
    }

    #[test]
    fn wire_parse_rejects_malformed_messages() {
        assert!(TrialAccumulator::from_wire("").is_err());
        assert!(TrialAccumulator::from_wire("bogus header\n").is_err());
        let mut acc = TrialAccumulator::new();
        acc.record(true, 42);
        let wire = acc.to_wire();
        // Truncated message.
        let truncated: String = wire.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(TrialAccumulator::from_wire(&truncated).is_err());
        // Corrupted bucket total.
        let corrupted = wire.replace("overall-counts 1", "overall-counts 7");
        assert!(TrialAccumulator::from_wire(&corrupted).is_err());
    }

    #[test]
    fn summary_of_known_sample() {
        let stats = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(stats.count, 5);
        assert!((stats.mean - 3.0).abs() < 1e-12);
        assert!((stats.median - 3.0).abs() < 1e-12);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 5.0);
        assert!((stats.std_dev - 1.5811388).abs() < 1e-6);
        assert!(stats.confidence_95() > 0.0);
    }

    #[test]
    fn empty_sample_yields_none() {
        assert!(SummaryStats::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let stats = SummaryStats::from_samples(&[7.0]).unwrap();
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.median, 7.0);
        assert_eq!(stats.p10, 7.0);
        assert_eq!(stats.p90, 7.0);
    }

    #[test]
    fn quantiles_are_ordered() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let stats = SummaryStats::from_samples(&samples).unwrap();
        assert!(stats.p10 <= stats.median);
        assert!(stats.median <= stats.p90);
        assert!(stats.p90 <= stats.max);
    }

    #[test]
    fn a_stream_of_one_repeated_value_reports_that_value() {
        // 16384 is the 64 x 256 round budget a blind-trust trial exhausts;
        // its bucket's midpoint is 16447.
        let mut stream = StreamAccumulator::new();
        for _ in 0..100 {
            stream.record(16384);
        }
        let stats = stream.finalize().unwrap();
        assert_eq!(stats.median, 16384.0);
        assert_eq!(stats.p10, 16384.0);
        assert_eq!(stats.p90, 16384.0);
    }

    #[test]
    fn finalised_quantiles_are_ordered_and_inside_min_max_on_random_streams() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for case in 0..200 {
            let mut stream = StreamAccumulator::new();
            let spread = 1u64 << rng.gen_range(0u32..24);
            let base = rng.gen_range(0u64..1 << 20);
            for _ in 0..1 + rng.gen_range(0usize..300) {
                stream.record(base + rng.gen_range(0u64..spread));
            }
            let s = stream.finalize().unwrap();
            assert!(
                s.min <= s.p10 && s.p10 <= s.median && s.median <= s.p90 && s.p90 <= s.max,
                "case {case}: {s:?}"
            );
        }
    }

    #[test]
    fn trial_stats_rates() {
        let stats = TrialStats {
            trials: 10,
            resolved: 7,
            rounds_when_resolved: SummaryStats::from_samples(&[1.0, 2.0, 3.0]),
            rounds_overall: SummaryStats::from_samples(&[1.0, 2.0, 3.0, 50.0]),
        };
        assert!((stats.success_rate() - 0.7).abs() < 1e-12);
        assert!((stats.mean_rounds_when_resolved() - 2.0).abs() < 1e-12);
        assert!((stats.mean_rounds_overall() - 14.0).abs() < 1e-12);
        let empty = TrialStats {
            trials: 0,
            resolved: 0,
            rounds_when_resolved: None,
            rounds_overall: None,
        };
        assert_eq!(empty.success_rate(), 0.0);
        assert!(empty.mean_rounds_when_resolved().is_nan());
    }
}
