//! Experiment F-RF: numerical verification of the lower-bound machinery.
//!
//! The paper's lower bounds (Theorems 2.4 and 2.8) rest on two reductions:
//!
//! 1. a contention-resolution algorithm induces a range-finding strategy
//!    whose expected complexity is at most twice the algorithm's
//!    (Lemmas 2.7 and 2.11);
//! 2. a range-finding strategy yields a uniquely decodable code whose
//!    expected length the Source Coding Theorem lower-bounds by the
//!    entropy of the target distribution (Lemmas 2.5 and 2.9).
//!
//! This experiment builds both constructions from real protocols and
//! checks the resulting inequalities for every scenario in the library.
//! Its last two columns are the condense-before-code ablation: the
//! expected Huffman code length of the condensed distribution against
//! that of the raw size distribution.  Condensing is what keeps the §2.6
//! schedule short.

use crp_info::huffman_code;
use crp_predict::ScenarioLibrary;
use crp_protocols::rangefinding::{
    rf_construction, target_distance_expected_length, RangeFindingTree,
};
use crp_protocols::{Decay, SortedGuess, Willard};

use crate::report::{fmt_f64, Table};
use crate::sweep::SweepMatrix;
use crate::SimError;

/// One scenario row of the lower-bound verification.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeFindingRow {
    /// Scenario name.
    pub scenario: String,
    /// Condensed entropy `H(c(X))`.
    pub entropy: f64,
    /// Expected range-finding steps of the RF-Construction applied to the
    /// sorted-guess protocol built from the same distribution.
    pub sequence_expected_steps: f64,
    /// Expected target-distance code length of that sequence (bits).
    pub sequence_expected_code_bits: f64,
    /// Expected solving depth of the range-finding tree built from
    /// Willard's collision-detection strategy.
    pub tree_expected_depth: f64,
    /// The Lemma 2.9 lower bound instantiated with the tolerance actually
    /// used: `H − (⌈log(2·tol + 1)⌉ + 1)`.  At paper scale the subtracted
    /// term is `O(log log log log n)`; at laptop scale it is a small
    /// explicit constant, which keeps the inequality checkable rather than
    /// hiding it behind asymptotic notation.
    pub tree_lower_bound: f64,
    /// Expected Huffman code length of the condensed distribution (bits).
    pub condensed_huffman_bits: f64,
    /// Expected Huffman code length of the raw size distribution (bits).
    pub raw_huffman_bits: f64,
}

/// Result of the verification experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeFindingResult {
    /// Maximum network size.
    pub max_size: usize,
    /// One row per scenario.
    pub rows: Vec<RangeFindingRow>,
}

impl RangeFindingResult {
    /// Renders the verification as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!("Lower-bound machinery verification (n = {})", self.max_size),
            &[
                "scenario",
                "H(c(X))",
                "RF sequence E[steps]",
                "E[code bits]",
                "RF tree E[depth]",
                "H - log(2 tol + 1) - 1",
                "condensed Huffman E[bits]",
                "raw Huffman E[bits]",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.scenario.clone(),
                fmt_f64(row.entropy),
                fmt_f64(row.sequence_expected_steps),
                fmt_f64(row.sequence_expected_code_bits),
                fmt_f64(row.tree_expected_depth),
                fmt_f64(row.tree_lower_bound),
                fmt_f64(row.condensed_huffman_bits),
                fmt_f64(row.raw_huffman_bits),
            ]);
        }
        table
    }
}

/// Runs the verification for networks of maximum size `max_size`.
///
/// # Errors
///
/// Returns [`SimError`] if the scenario library or a protocol cannot be
/// constructed.
pub fn run(max_size: usize) -> Result<RangeFindingResult, SimError> {
    let library = ScenarioLibrary::new(max_size)?;
    let log_log_n = (max_size as f64).log2().log2().max(1.0);
    let tolerance = log_log_n.ceil() as usize;
    let willard = Willard::new(max_size)?;
    let decay = Decay::new(max_size)?;

    // This experiment is analytic (it evaluates the lower-bound reductions
    // in closed form rather than running trials), but its scenario grid is
    // still declared through the same matrix as the Monte-Carlo sweeps.
    let matrix = SweepMatrix::new().scenarios(library.all());

    let mut rows = Vec::new();
    for scenario in matrix.scenario_axis() {
        let condensed = scenario.condensed();

        // No-CD reduction: RF-Construction applied to the sorted-guess
        // protocol built for this very distribution (plus decay's sweep so
        // the sequence covers every range even for one-shot passes).
        let sorted = SortedGuess::new(&condensed);
        let horizon = sorted.pass_length().max(1) + 2 * decay.sweep_length();
        let sequence = rf_construction(&sorted.clone().cycling(), max_size, horizon);
        let penalty_steps = 4 * sequence.len().max(1);
        let expected_steps = sequence.expected_steps(&condensed, tolerance, penalty_steps);
        let expected_code_bits = target_distance_expected_length(
            &sequence,
            &condensed,
            tolerance,
            2 * (penalty_steps as f64).log2().ceil() as usize,
        );

        // CD reduction: the range-finding tree of Willard's strategy.  The
        // collision-detection argument uses the tighter tolerance
        // Θ(log log log n); the Lemma 2.9 inequality with explicit
        // constants is  E[depth] ≥ H − (⌈log(2·tol + 1)⌉ + 1).
        let cd_tolerance = log_log_n.log2().ceil().max(1.0) as usize;
        let tree = RangeFindingTree::from_strategy(&willard, max_size, 2 * tolerance);
        let tree_depth = tree.expected_depth(&condensed, cd_tolerance, 4 * tree.depth());
        let tolerance_bits = ((2 * cd_tolerance + 1) as f64).log2().ceil() + 1.0;

        let condensed_huffman_bits =
            huffman_code(condensed.probabilities())?.expected_length(condensed.probabilities());
        let raw = scenario.distribution().masses();
        let raw_huffman_bits = huffman_code(raw)?.expected_length(raw);

        rows.push(RangeFindingRow {
            scenario: scenario.name().to_string(),
            entropy: condensed.entropy(),
            sequence_expected_steps: expected_steps,
            sequence_expected_code_bits: expected_code_bits,
            tree_expected_depth: tree_depth,
            tree_lower_bound: condensed.entropy() - tolerance_bits,
            condensed_huffman_bits,
            raw_huffman_bits,
        });
    }
    Ok(RangeFindingResult { max_size, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_coding_inequalities_hold_for_every_scenario() {
        let result = run(1 << 14).unwrap();
        assert_eq!(result.rows.len(), 6);
        for row in &result.rows {
            // Lemma 2.5's engine: the target-distance code is uniquely
            // decodable, so its expected length is at least the entropy
            // minus the per-symbol overhead slack of one bit.
            assert!(
                row.sequence_expected_code_bits + 1.0 + 1e-9 >= row.entropy,
                "{}: code bits {} < H {}",
                row.scenario,
                row.sequence_expected_code_bits,
                row.entropy
            );
            // Lemma 2.9's shape: the tree's expected depth is at least
            // H minus the quadruple-log term.
            assert!(
                row.tree_expected_depth + 1e-9 >= row.tree_lower_bound,
                "{}: tree depth {} < bound {}",
                row.scenario,
                row.tree_expected_depth,
                row.tree_lower_bound
            );
            // Expected range-finding steps are at least 1.
            assert!(row.sequence_expected_steps >= 1.0 - 1e-9);
            // Condensing never lengthens the optimal code: the condensed
            // variable is a function of the raw size, so its entropy (and
            // with it the Huffman length, within one bit) is no larger.
            assert!(
                row.condensed_huffman_bits <= row.raw_huffman_bits + 1.0 + 1e-9,
                "{}: condensed {} bits > raw {} bits",
                row.scenario,
                row.condensed_huffman_bits,
                row.raw_huffman_bits
            );
        }
        assert!(result.to_table().to_markdown().contains("Lower-bound"));
    }
}
