//! Experiment F-BASELINE: prediction-augmented protocols against the
//! classical baselines.
//!
//! The paper's motivation is the gap between the worst-case bounds
//! (`Θ(log n)` for decay without collision detection, `Θ(log log n)` for
//! Willard with it) and the `O(1)` rounds achievable with a correct size
//! estimate.  This experiment sweeps the universe size and measures, under
//! an informative ground-truth distribution with accurate predictions,
//! where the prediction-augmented algorithms land between those extremes.

use crp_info::SizeDistribution;
use crp_predict::{Scenario, ScenarioLibrary};
use crp_protocols::ProtocolSpec;

use crate::report::{fmt_f64, Table};
use crate::runner::RunnerConfig;
use crate::sweep::{SweepMatrix, SweepPopulation, SweepProtocol};
use crate::SimError;

/// Measurements for one universe size.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Universe size `n`.
    pub universe_size: usize,
    /// Expected rounds of decay (no CD, no predictions).
    pub decay_rounds: f64,
    /// Expected rounds of the cycling sorted-guess algorithm with accurate
    /// predictions (no CD).
    pub sorted_guess_rounds: f64,
    /// Mean resolved rounds of Willard's search (CD, no predictions).
    pub willard_rounds: f64,
    /// Mean resolved rounds of coded search with accurate predictions (CD).
    pub coded_search_rounds: f64,
    /// Expected rounds with a perfect size estimate (the `O(1)` floor).
    pub known_size_rounds: f64,
}

/// Result of the baseline comparison sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// One point per universe size.
    pub points: Vec<BaselinePoint>,
}

impl BaselineResult {
    /// Renders the sweep as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Baselines vs prediction-augmented protocols",
            &[
                "n",
                "decay",
                "sorted-guess",
                "willard",
                "coded-search",
                "known-size",
            ],
        );
        for p in &self.points {
            table.push_row(vec![
                p.universe_size.to_string(),
                fmt_f64(p.decay_rounds),
                fmt_f64(p.sorted_guess_rounds),
                fmt_f64(p.willard_rounds),
                fmt_f64(p.coded_search_rounds),
                fmt_f64(p.known_size_rounds),
            ]);
        }
        table
    }
}

/// Runs the baseline comparison over the given universe sizes.
///
/// # Errors
///
/// Returns [`SimError`] if a distribution or protocol cannot be built.
/// The universe size a baseline scenario was generated for.
fn universe_of(scenario: &Scenario) -> usize {
    scenario.distribution().max_size()
}

/// The bimodal workload's primary mode at universe size `n`.
fn primary_mode(n: usize) -> usize {
    (n / 32).max(2)
}

/// Runs the baseline comparison over the given universe sizes on the
/// shard backend `config` selects.
///
/// # Errors
///
/// Returns [`SimError`] if a distribution or protocol cannot be built.
pub fn run(universe_sizes: &[usize], config: &RunnerConfig) -> Result<BaselineResult, SimError> {
    // The scenario axis is the bimodal workload regenerated at each
    // universe size (labelled by `n`); the protocol axis holds the two
    // classical baselines, the two prediction-augmented algorithms, and
    // the known-size floor.
    let mut matrix = SweepMatrix::new()
        .protocol(
            SweepProtocol::from_scenario("decay", |s| {
                ProtocolSpec::new("decay").universe(universe_of(s))
            })
            .max_rounds_with(|s| Some(64 * universe_of(s))),
        )
        .protocol(
            SweepProtocol::from_scenario("sorted-guess", |s| {
                ProtocolSpec::new("sorted-guess-cycling")
                    .universe(universe_of(s))
                    .prediction(s.advice_condensed())
            })
            .max_rounds_with(|s| Some(64 * universe_of(s))),
        )
        // The CD protocols' round budgets default to their horizons
        // (Willard's worst-case search length, coded search's phase sum).
        .protocol(SweepProtocol::from_scenario("willard", |s| {
            ProtocolSpec::new("willard").universe(universe_of(s))
        }))
        .protocol(SweepProtocol::from_scenario("coded-search", |s| {
            ProtocolSpec::new("coded-search")
                .universe(universe_of(s))
                .prediction(s.advice_condensed())
        }))
        // The O(1) floor: a fresh known-size protocol per trial would need
        // the sampled k; instead measure it at the distribution's primary
        // mode, which the bimodal scenario hits 85% of the time.
        .protocol(
            SweepProtocol::from_scenario("known-size", |s| {
                ProtocolSpec::new("fixed-probability")
                    .universe(universe_of(s))
                    .participants(primary_mode(universe_of(s)))
            })
            .population_with(|s| {
                let n = universe_of(s);
                SweepPopulation::Distribution(
                    SizeDistribution::point_mass(n, primary_mode(n))
                        .expect("the primary mode is a valid size"),
                )
            })
            .max_rounds_with(|s| Some(64 * universe_of(s))),
        )
        .runner(config.clone());
    for &n in universe_sizes {
        let library = ScenarioLibrary::new(n)?;
        matrix = matrix.scenario(Scenario::new(
            format!("bimodal-{n}"),
            library.bimodal().distribution().clone(),
        ));
    }
    let results = matrix.run()?;

    let mut points = Vec::new();
    for &n in universe_sizes {
        let cell = |protocol: &str| {
            results
                .get(&format!("bimodal-{n}"), protocol)
                .expect("the grid covers every (size, protocol) pair")
        };
        points.push(BaselinePoint {
            universe_size: n,
            decay_rounds: cell("decay").stats.mean_rounds_overall(),
            sorted_guess_rounds: cell("sorted-guess").stats.mean_rounds_overall(),
            willard_rounds: cell("willard").stats.mean_rounds_when_resolved(),
            coded_search_rounds: cell("coded-search").stats.mean_rounds_when_resolved(),
            known_size_rounds: cell("known-size").stats.mean_rounds_overall(),
        });
    }
    Ok(BaselineResult { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_land_between_worst_case_and_known_size() {
        let config = RunnerConfig::with_trials(250).seeded(31);
        let result = run(&[1 << 10, 1 << 12], &config).unwrap();
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            // The informative prediction beats the no-prediction baseline in
            // the no-CD setting, and never does worse than ~the known-size
            // floor by construction of the scenario.
            assert!(
                p.sorted_guess_rounds <= p.decay_rounds,
                "n={}: sorted-guess {} vs decay {}",
                p.universe_size,
                p.sorted_guess_rounds,
                p.decay_rounds
            );
            assert!(p.known_size_rounds <= p.sorted_guess_rounds + 1.0);
            // CD: coded search with a sharp prediction is at least as fast
            // as Willard's blind search (both measured on resolved trials).
            assert!(p.coded_search_rounds <= p.willard_rounds + 1.0);
        }
        assert!(result.to_table().to_markdown().contains("Baselines"));
    }
}
