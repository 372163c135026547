//! Fuzz campaigns: generate adversarial traces, evaluate them through the
//! sweep stack, and check the property oracles.
//!
//! One campaign iteration is a *trace* drawn from a seeded
//! [`TraceModel`], compiled to a scenario and evaluated as a two-row
//! sweep grid: the fuzzed scenario itself plus its **accurate twin** —
//! the same ground truth with the advice replaced by the truth.  The
//! twin pins the zero-divergence corner of the grid, giving the
//! consistency and monotonicity oracles a per-trace contrast instead of
//! comparing against a global baseline.
//!
//! Everything is a pure function of [`FuzzConfig`]: trace `i` is
//! generated from a SplitMix-derived `ChaCha8Rng` stream of
//! `(seed, i)`, every evaluation seeds its matrix from the campaign
//! seed, and the shrinker is deterministic — so one `(seed, budget)`
//! pair always produces byte-identical reproducers.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crp_predict::{AdversaryKind, Scenario, Trace, TraceModel, MAX_TRACE_STEPS};
use crp_sim::{RunnerConfig, SweepMatrix, SweepProtocol, SweepResults};

use crate::error::FuzzError;
use crate::property::{property_by_name, Property, Violation};
use crate::shrink::shrink_trace;

/// Everything a fuzz campaign depends on.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of traces to generate and check.
    pub budget: usize,
    /// Campaign seed: fixes the generated traces *and* every
    /// evaluation's Monte-Carlo streams.
    pub seed: u64,
    /// Universe size `n` the traces play out in.
    pub universe: usize,
    /// Events per generated trace.
    pub steps: usize,
    /// Monte-Carlo trials per grid cell.
    pub trials: usize,
    /// Registry protocols under test (the grid's columns).
    pub protocols: Vec<String>,
    /// Adversary models traces round-robin over.
    pub adversaries: Vec<AdversaryKind>,
    /// Property oracle to check (a [`crate::property::PROPERTY_NAMES`]
    /// entry).
    pub property: String,
    /// Execution configuration for the evaluations (backend, threads,
    /// fleet, chaos plan); `trials` and `base_seed` are overridden per
    /// evaluation.
    pub runner: RunnerConfig,
    /// Minimise failing traces before reporting them.
    pub shrink: bool,
    /// Evaluation budget of each minimisation.
    pub max_shrink_evals: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            budget: 16,
            seed: 0xF0CC5,
            universe: 256,
            steps: 12,
            trials: 200,
            protocols: vec!["decay".into(), "sorted-guess-cycling".into()],
            adversaries: AdversaryKind::ALL.to_vec(),
            property: "all".into(),
            runner: RunnerConfig::default(),
            shrink: false,
            max_shrink_evals: 512,
        }
    }
}

/// One evaluated trace: the sweep grid it compiled to and the oracle's
/// verdict on it.
#[derive(Debug, Clone)]
pub struct TraceEvaluation {
    /// The executed (scenario × protocol) grid, accurate twin first.
    pub results: SweepResults,
    /// Every property violation the grid exhibits.
    pub violations: Vec<Violation>,
}

/// A trace the oracle rejected, with its (optional) minimisation.
#[derive(Debug, Clone)]
pub struct FailingTrace {
    /// Campaign index of the trace.
    pub index: usize,
    /// Adversary model that generated it.
    pub adversary: AdversaryKind,
    /// The original failing trace.
    pub trace: Trace,
    /// Violations of the original trace.
    pub violations: Vec<Violation>,
    /// The shrunk reproducer, when minimisation ran and succeeded.
    pub minimal: Option<Trace>,
    /// Predicate evaluations the minimisation spent (0 when disabled).
    pub shrink_evals: usize,
}

/// Outcome of a whole campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Traces generated and evaluated.
    pub traces_run: usize,
    /// Traces the oracle rejected.
    pub failures: Vec<FailingTrace>,
}

impl CampaignReport {
    /// True when every trace satisfied the property.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// SplitMix64 finaliser deriving independent per-trace seeds, mirroring
/// the sweep engine's per-cell derivation.
fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The accurate twin of a compiled trace scenario: same ground truth,
/// advice replaced by the truth (divergence exactly zero).
fn accurate_twin(scenario: &Scenario) -> Scenario {
    Scenario::new(
        format!("{}-accurate", scenario.name()),
        scenario.distribution().clone(),
    )
}

/// The grid a trace is evaluated as: `trace` compiled under `label`,
/// after its accurate twin, against every configured protocol, on the
/// configured runner with the campaign's trials and seed.
///
/// # Errors
///
/// Trace compilation errors ([`FuzzError::Predict`]) and unknown
/// protocols ([`FuzzError::Sim`]).
pub fn trace_matrix(
    config: &FuzzConfig,
    trace: &Trace,
    label: &str,
) -> Result<SweepMatrix, FuzzError> {
    let scenario = trace.compile(label)?;
    let mut matrix = SweepMatrix::new()
        .runner(RunnerConfig {
            trials: config.trials,
            base_seed: config.seed,
            ..config.runner.clone()
        })
        .scenario(accurate_twin(&scenario))
        .scenario(scenario)
        .trials(config.trials);
    for name in &config.protocols {
        matrix = matrix.protocol(SweepProtocol::registry(name)?);
    }
    Ok(matrix)
}

/// Runs the grid of [`trace_matrix`] and checks it against `property`.
///
/// # Errors
///
/// As [`trace_matrix`], plus grid execution errors ([`FuzzError::Sim`]).
pub fn evaluate_trace(
    config: &FuzzConfig,
    trace: &Trace,
    label: &str,
    property: &dyn Property,
) -> Result<TraceEvaluation, FuzzError> {
    let results = trace_matrix(config, trace, label)?.run()?;
    let violations = property.check(&results);
    Ok(TraceEvaluation {
        results,
        violations,
    })
}

/// Trace `index` of a campaign, with its adversary (the configured
/// adversaries, round-robin) and the label it is evaluated under: the
/// adversary's model generates it from a `ChaCha8Rng` seeded by
/// `(config.seed, index)`.
///
/// # Errors
///
/// [`FuzzError::InvalidParameter`] when no adversary is configured, and
/// [`FuzzError::Predict`] for a universe the trace model rejects.
pub fn campaign_trace(
    config: &FuzzConfig,
    index: usize,
) -> Result<(AdversaryKind, Trace, String), FuzzError> {
    let adversary = *config
        .adversaries
        .get(index % config.adversaries.len().max(1))
        .ok_or_else(|| FuzzError::InvalidParameter {
            what: "at least one adversary model is required".into(),
        })?;
    let model = TraceModel::new(adversary, config.universe)?;
    let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(config.seed, index as u64));
    let trace = model.generate(&mut rng, config.steps);
    Ok((
        adversary,
        trace,
        format!("fuzz-{}-{index:03}", adversary.name()),
    ))
}

/// Runs a whole campaign: `budget` traces round-robinned over the
/// configured adversaries, each evaluated against the property oracle;
/// failing traces are minimised when `config.shrink` is set.
///
/// # Errors
///
/// Configuration errors surface immediately ([`FuzzError`]); evaluation
/// errors abort the campaign with the failing trace's error.
pub fn run_campaign(config: &FuzzConfig) -> Result<CampaignReport, FuzzError> {
    if config.budget == 0 {
        return Err(FuzzError::InvalidParameter {
            what: "budget must be at least 1".into(),
        });
    }
    if config.protocols.is_empty() {
        return Err(FuzzError::InvalidParameter {
            what: "at least one protocol is required".into(),
        });
    }
    if config.steps > MAX_TRACE_STEPS {
        return Err(FuzzError::InvalidParameter {
            what: format!(
                "steps {} exceeds the cap of {MAX_TRACE_STEPS} per trace",
                config.steps
            ),
        });
    }
    let property = property_by_name(&config.property)?;

    let mut report = CampaignReport::default();
    for index in 0..config.budget {
        let (adversary, trace, label) = campaign_trace(config, index)?;
        let evaluation = evaluate_trace(config, &trace, &label, property.as_ref())?;
        report.traces_run += 1;
        if evaluation.violations.is_empty() {
            continue;
        }
        let (minimal, shrink_evals) = if config.shrink {
            let outcome = shrink_failure(config, &trace, property.as_ref());
            (Some(outcome.0), outcome.1)
        } else {
            (None, 0)
        };
        report.failures.push(FailingTrace {
            index,
            adversary,
            trace,
            violations: evaluation.violations,
            minimal,
            shrink_evals,
        });
    }
    Ok(report)
}

/// Minimises one failing trace against the property (evaluation errors
/// count as "does not fail", so shrinking never leaves the valid space).
pub(crate) fn shrink_failure(
    config: &FuzzConfig,
    trace: &Trace,
    property: &dyn Property,
) -> (Trace, usize) {
    let mut failing = |candidate: &Trace| {
        evaluate_trace(config, candidate, "shrink", property)
            .map(|evaluation| !evaluation.violations.is_empty())
            .unwrap_or(false)
    };
    let outcome = shrink_trace(trace, config.max_shrink_evals, &mut failing);
    (outcome.trace, outcome.evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_protocols_and_empty_budgets_are_typed_errors() {
        let config = FuzzConfig {
            protocols: vec!["no-such-protocol".into()],
            ..FuzzConfig::default()
        };
        assert!(matches!(run_campaign(&config), Err(FuzzError::Sim(_))));
        let config = FuzzConfig {
            budget: 0,
            ..FuzzConfig::default()
        };
        assert!(matches!(
            run_campaign(&config),
            Err(FuzzError::InvalidParameter { .. })
        ));
        let config = FuzzConfig {
            property: "nope".into(),
            ..FuzzConfig::default()
        };
        assert!(matches!(
            run_campaign(&config),
            Err(FuzzError::UnknownProperty { .. })
        ));
        // A trace the corpus could not read back is refused up front.
        let config = FuzzConfig {
            steps: MAX_TRACE_STEPS + 1,
            ..FuzzConfig::default()
        };
        match run_campaign(&config) {
            Err(FuzzError::InvalidParameter { what }) => {
                assert!(what.contains(&MAX_TRACE_STEPS.to_string()), "{what}")
            }
            other => panic!("an oversized step count ran as {other:?}"),
        }
    }

    #[test]
    fn a_tiny_campaign_on_a_sound_protocol_is_clean_and_deterministic() {
        let config = FuzzConfig {
            budget: 2,
            seed: 11,
            universe: 16,
            steps: 4,
            trials: 30,
            protocols: vec!["decay".into()],
            ..FuzzConfig::default()
        };
        let report = run_campaign(&config).unwrap();
        assert_eq!(report.traces_run, 2);
        assert!(report.clean(), "decay violates: {:?}", report.failures);
        // Same config, same verdicts.
        let again = run_campaign(&config).unwrap();
        assert_eq!(again.traces_run, report.traces_run);
        assert!(again.clean());
    }

    #[test]
    fn the_accurate_twin_pins_zero_divergence() {
        let trace = Trace::new(
            32,
            vec![
                crp_predict::TraceEvent::Truth {
                    level: 3,
                    weight: 1.0,
                },
                crp_predict::TraceEvent::Observe { fidelity: 0.5 },
                crp_predict::TraceEvent::Drift { shift: 1 },
            ],
        )
        .unwrap();
        let scenario = trace.compile("drifty").unwrap();
        assert!(scenario.advice_divergence() > 0.0);
        let twin = accurate_twin(&scenario);
        assert_eq!(twin.name(), "drifty-accurate");
        assert_eq!(twin.advice_divergence(), 0.0);
    }
}
