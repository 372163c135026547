//! Sample summaries: medians, nearest-rank percentiles, and the tail
//! percentile rule (the highest percentile of a fixed ladder that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it).

/// Candidate tail percentiles, highest first.  The rungs sit far apart
/// (p75 needs 40 samples, p95 200, p99 1000) so that the sample count of
/// a fixed-length run, which moves with the machine's speed, does not
/// flip the chosen percentile from one run to the next.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 75.0, 50.0];

/// How many samples must lie beyond a percentile for it to count as a
/// measured tail rather than a guess from a handful of points.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The nearest-rank position (1-based) of percentile `pct` among `n`
/// samples: the smallest rank whose share of samples is at least `pct`.
pub fn nearest_rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10_000 = 9990.000000000002)
    // from bumping an exact rank up by one.
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// A tail percentile as reported: which percentile, its value, and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, from [`TAIL_LADDER`].
    pub pct: f64,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// Samples ranked after it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank; `None` when even
/// the median has fewer (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = nearest_rank(n, pct);
        let beyond = n.saturating_sub(rank);
        (n > 0 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[rank - 1],
            beyond,
            samples: n,
        })
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
