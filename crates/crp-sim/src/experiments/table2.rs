//! Experiment T2: reproduces the paper's Table 2 (perfect advice)
//! empirically.
//!
//! Table 2 gives tight bounds on contention resolution with `b` bits of
//! perfect advice:
//!
//! | | deterministic | randomized |
//! |---|---|---|
//! | no collision detection | `Θ(n^{1−b}/log n)` (≈ `n / 2^b` scan) | `Θ(log n / 2^b)` |
//! | collision detection | `Θ(log n − b)` | `Θ(log log n − b)` |
//!
//! For a sweep of advice budgets the experiment measures each of the four
//! matching upper-bound protocols against its theory column.  The
//! deterministic protocols are measured against an adversarial participant
//! placement (worst case); the randomized ones report expected rounds over
//! Monte-Carlo trials.
//!
//! The deterministic rows are exact: the scan takes `n / 2^b` rounds and
//! the tree descent `log n − b + 1` — `log n − b` halvings leave one
//! candidate id, which still needs its own round to transmit alone.

use crp_info::SizeDistribution;
use crp_predict::Scenario;
use crp_protocols::ProtocolSpec;

use crate::report::{fmt_f64, Table};
use crate::runner::RunnerConfig;
use crate::sweep::{SweepMatrix, SweepPopulation, SweepProtocol};
use crate::SimError;

/// One advice-budget row of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Advice budget `b` in bits.
    pub advice_bits: usize,
    /// Theory column `n / 2^b` (deterministic, no CD).
    pub theory_det_no_cd: f64,
    /// Measured worst-case rounds of the deterministic no-CD protocol.
    pub det_no_cd_rounds: f64,
    /// Theory column `log n − b + 1` (deterministic, CD).
    pub theory_det_cd: f64,
    /// Measured worst-case rounds of the deterministic CD protocol.
    pub det_cd_rounds: f64,
    /// Theory column `log n / 2^b` (randomized, no CD).
    pub theory_rand_no_cd: f64,
    /// Measured expected rounds of the randomized no-CD protocol.
    pub rand_no_cd_rounds: f64,
    /// Theory column `max(log log n − b, 1)` (randomized, CD).
    pub theory_rand_cd: f64,
    /// Measured expected rounds (conditioned on success within the budget)
    /// of the randomized CD protocol.
    pub rand_cd_rounds: f64,
}

/// Result of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Universe size `n`.
    pub universe_size: usize,
    /// One row per advice budget.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// Renders the result as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!("Table 2 reproduction (n = {})", self.universe_size),
            &[
                "b",
                "n/2^b",
                "det no-CD rounds",
                "log n - b + 1",
                "det CD rounds",
                "log n / 2^b",
                "rand no-CD E[rounds]",
                "loglog n - b",
                "rand CD rounds",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.advice_bits.to_string(),
                fmt_f64(row.theory_det_no_cd),
                fmt_f64(row.det_no_cd_rounds),
                fmt_f64(row.theory_det_cd),
                fmt_f64(row.det_cd_rounds),
                fmt_f64(row.theory_rand_no_cd),
                fmt_f64(row.rand_no_cd_rounds),
                fmt_f64(row.theory_rand_cd),
                fmt_f64(row.rand_cd_rounds),
            ]);
        }
        table
    }
}

/// Picks a worst-ish-case participant set of size `k` for the deterministic
/// scan protocols: the designated (smallest) id sits at the end of its
/// advice interval so the scan pays its full length.
fn adversarial_participants(universe: usize, k: usize, advice_bits: usize) -> Vec<usize> {
    let interval = universe >> advice_bits.min(universe.trailing_zeros() as usize);
    let designated = interval.saturating_sub(1);
    let mut participants = vec![designated];
    let mut next = designated + interval.max(1);
    while participants.len() < k && next < universe {
        participants.push(next);
        next += 7;
    }
    let mut fill = designated + 1;
    while participants.len() < k && fill < universe {
        if !participants.contains(&fill) {
            participants.push(fill);
        }
        fill += 1;
    }
    participants.sort_unstable();
    participants.dedup();
    participants
}

/// The worst-case rounds of a deterministic protocol's measured stats;
/// failing to resolve within the declared budget is a protocol bug by
/// definition.
fn det_rounds_from_stats(label: &str, stats: &crate::TrialStats) -> Result<f64, SimError> {
    if stats.success_rate() < 1.0 {
        return Err(SimError::InvalidParameter {
            what: format!("deterministic protocol {label} failed to resolve within its budget"),
        });
    }
    Ok(stats.mean_rounds_overall())
}

/// The ground truth used by the randomized rows: uniform over the
/// geometric size range containing `participants`, so every sampled size
/// is consistent with the range advice while the trials still vary.
fn jitter_truth(participants: usize, universe: usize) -> Result<SizeDistribution, SimError> {
    let range = crp_info::range_index_for_size(participants.max(2));
    let (lo, hi) = crp_info::range_interval(range);
    let hi = hi.min(universe).max(lo);
    let weights: Vec<f64> = (1..=hi)
        .map(|size| if size >= lo { 1.0 } else { 0.0 })
        .collect();
    Ok(SizeDistribution::from_weights(weights)?)
}

/// Runs the Table 2 reproduction for a universe of size `universe_size`
/// (must be a power of two ≥ 16) and a true participant count of
/// `participants`, on the shard backend `config` selects.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for non-power-of-two or too-small
/// universes.
pub fn run(
    universe_size: usize,
    participants: usize,
    config: &RunnerConfig,
) -> Result<Table2Result, SimError> {
    if universe_size < 16 || !universe_size.is_power_of_two() {
        return Err(SimError::InvalidParameter {
            what: format!("table 2 requires a power-of-two universe >= 16, got {universe_size}"),
        });
    }
    if participants < 2 || participants > universe_size {
        return Err(SimError::InvalidParameter {
            what: format!(
                "participants must be in [2, n], got {participants} for n = {universe_size}"
            ),
        });
    }
    let log_n = (universe_size as f64).log2();
    let log_log_n = log_n.log2();
    let max_bits = log_n as usize;

    let jitter = jitter_truth(participants, universe_size)?;

    // One scenario (the jittered truth); the advice-budget axis unrolls
    // into four protocol columns per budget.  Deterministic protocols run
    // a single trial against their adversarial placement (they are
    // deterministic, so one run is the worst case for that placement);
    // randomized ones keep the Monte-Carlo budget.
    let mut matrix = SweepMatrix::new()
        .scenario(Scenario::new("jitter", jitter))
        .runner(config.clone());
    for b in 0..=max_bits {
        let adversarial = adversarial_participants(universe_size, participants.min(16), b);
        matrix = matrix
            .protocol(
                SweepProtocol::new(
                    format!("det-no-cd-b{b}"),
                    ProtocolSpec::new("det-advice-no-cd")
                        .universe(universe_size)
                        .advice_bits(b),
                )
                .population(SweepPopulation::Placed(adversarial.clone()))
                .trials(1),
            )
            .protocol(
                SweepProtocol::new(
                    format!("det-cd-b{b}"),
                    ProtocolSpec::new("det-advice-cd")
                        .universe(universe_size)
                        .advice_bits(b),
                )
                .population(SweepPopulation::Placed(adversarial))
                .trials(1),
            )
            // Randomized, no CD: truncated decay with range advice;
            // expected rounds over random participant counts near
            // `participants`.
            .protocol(
                SweepProtocol::new(
                    format!("rand-no-cd-b{b}"),
                    ProtocolSpec::new("advised-decay")
                        .universe(universe_size)
                        .participants(participants)
                        .advice_bits(b),
                )
                .max_rounds(64 * universe_size),
            )
            // Randomized, CD: Willard restricted to the advised ranges;
            // the paper's bound is on the expected rounds of the repeated
            // search, measured here as rounds conditioned on success
            // within the search budget (the protocol's horizon, used as
            // the default).
            .protocol(SweepProtocol::new(
                format!("rand-cd-b{b}"),
                ProtocolSpec::new("advised-willard")
                    .universe(universe_size)
                    .participants(participants)
                    .advice_bits(b),
            ));
    }
    let results = matrix.run()?;

    let mut rows = Vec::new();
    for b in 0..=max_bits {
        let cell = |label: String| {
            results
                .get("jitter", &label)
                .expect("the grid covers every advice budget")
        };
        let det = |label: String| det_rounds_from_stats(&label, &cell(label.clone()).stats);
        rows.push(Table2Row {
            advice_bits: b,
            theory_det_no_cd: (universe_size as f64) / 2f64.powi(b as i32),
            det_no_cd_rounds: det(format!("det-no-cd-b{b}"))?,
            theory_det_cd: log_n - b as f64 + 1.0,
            det_cd_rounds: det(format!("det-cd-b{b}"))?,
            theory_rand_no_cd: (log_n / 2f64.powi(b as i32)).max(1.0),
            rand_no_cd_rounds: cell(format!("rand-no-cd-b{b}")).stats.mean_rounds_overall(),
            theory_rand_cd: (log_log_n - b as f64).max(1.0),
            rand_cd_rounds: cell(format!("rand-cd-b{b}"))
                .stats
                .mean_rounds_when_resolved(),
        });
    }
    Ok(Table2Result {
        universe_size,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_inputs() {
        let config = RunnerConfig::with_trials(10).single_threaded();
        assert!(run(10, 4, &config).is_err());
        assert!(run(64, 1, &config).is_err());
        assert!(run(64, 100, &config).is_err());
    }

    #[test]
    fn table2_shapes_match_the_paper() {
        let config = RunnerConfig::with_trials(150).seeded(5);
        let n = 1 << 10;
        let result = run(n, 60, &config).unwrap();
        assert_eq!(result.rows.len(), 11);

        // More advice never hurts (monotone non-increasing measured rounds,
        // allowing small statistical noise for the randomized rows).
        let first = &result.rows[0];
        let last = result.rows.last().unwrap();
        assert!(last.det_no_cd_rounds <= first.det_no_cd_rounds);
        assert!(last.det_cd_rounds <= first.det_cd_rounds);
        assert!(last.rand_no_cd_rounds <= first.rand_no_cd_rounds + 1.0);

        let md = result.to_table().to_markdown();
        assert!(md.contains("Table 2"));
    }

    #[test]
    fn deterministic_rows_are_exact() {
        // Thm 3.4 and Thm 3.5 rows are exact under the adversarial
        // placement, for every advice budget.
        for n in [16, 256] {
            let config = RunnerConfig::with_trials(20).seeded(5);
            let result = run(n, (n / 16).max(2), &config).unwrap();
            for row in &result.rows {
                let b = row.advice_bits;
                assert_eq!(row.det_no_cd_rounds, row.theory_det_no_cd, "n={n} b={b}");
                assert_eq!(row.theory_det_no_cd, (n >> b) as f64, "n={n} b={b}");
                assert_eq!(row.det_cd_rounds, row.theory_det_cd, "n={n} b={b}");
                let log_n = n.trailing_zeros() as usize;
                assert_eq!(row.theory_det_cd, (log_n - b + 1) as f64, "n={n} b={b}");
            }
        }
    }
}
