//! Driving protocols against the channel.
//!
//! Two executors are provided, each returning a typed error for an
//! invalid configuration:
//!
//! * [`try_execute`] drives arbitrary *per-node* protocols (each
//!   participant is its own [`NodeProtocol`] value making independent
//!   decisions; one execution's nodes share one concrete type, held
//!   unboxed).  Needed for the deterministic advice-based algorithms of
//!   §3, where behaviour depends on participant identity.
//! * [`try_execute_uniform_schedule`] drives *uniform* protocols, in which
//!   all participants share the same per-round transmission probability (the
//!   class of algorithms the paper's §2 analyses).  For uniform protocols
//!   only the number of transmitters matters, and its distribution is
//!   `Binomial(k, p)`; the executor therefore samples the round outcome
//!   category directly from the exact probabilities
//!   `Pr[silence] = (1−p)^k`, `Pr[success] = k·p·(1−p)^{k−1}` — `O(1)` work
//!   per round regardless of `k`, which keeps the Monte-Carlo harness fast
//!   at `n = 2^20`.

use rand::Rng;
use rand::RngCore;

use crate::channel::{Channel, ChannelMode};
use crate::error::ChannelError;
use crate::history::CollisionHistory;
use crate::round::{Feedback, RoundOutcome};
use crate::trace::{RoundRecord, Trace};

/// A per-node contention-resolution protocol instance.
///
/// One value is created per participant per execution.  The executor calls
/// [`NodeProtocol::decide`] each round to learn whether the node transmits,
/// then [`NodeProtocol::observe`] with the feedback the node would hear on
/// the channel.
pub trait NodeProtocol {
    /// Whether this node transmits in the given (1-based) round.
    fn decide(&mut self, round: usize, rng: &mut dyn RngCore) -> bool;

    /// Observe the feedback for the round that just completed.
    fn observe(&mut self, round: usize, feedback: Feedback);

    /// True if the node has exhausted its schedule and will never transmit
    /// again (used to terminate one-shot executions early).  Defaults to
    /// `false`, i.e. the protocol runs until the round cap.
    fn finished(&self) -> bool {
        false
    }
}

/// Configuration of a single execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Channel detection mode.
    pub mode: ChannelMode,
    /// Hard cap on the number of rounds simulated.
    pub max_rounds: usize,
    /// Whether to record a full per-round [`Trace`] (slower, but useful for
    /// tests and examples).
    pub record_trace: bool,
}

impl ExecutionConfig {
    /// Convenience constructor with trace recording disabled.
    pub fn new(mode: ChannelMode, max_rounds: usize) -> Self {
        Self {
            mode,
            max_rounds,
            record_trace: false,
        }
    }

    /// Returns a copy with trace recording enabled.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// Result of driving a protocol against the channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// True if some round had exactly one transmitter.
    pub resolved: bool,
    /// Number of rounds that elapsed (the resolving round included).
    pub rounds: usize,
    /// Per-round trace (empty unless `record_trace` was set).
    pub trace: Trace,
}

impl Execution {
    /// The 1-based round of resolution, or `None` if unresolved.
    pub fn resolution_round(&self) -> Option<usize> {
        if self.resolved {
            Some(self.rounds)
        } else {
            None
        }
    }
}

/// Drives one per-node protocol object per participant until contention is
/// resolved, every node reports [`NodeProtocol::finished`], or the round cap
/// is reached.
///
/// `nodes[i]` is the protocol instance of the `i`-th participant.  The
/// participant count is `nodes.len()`.  The nodes are one concrete type,
/// so `decide` is statically dispatched; `rng` is handed to every
/// `decide` call as is.
///
/// # Errors
///
/// Returns [`ChannelError::InvalidConfiguration`] if `nodes` is empty or
/// `config.max_rounds == 0`.
pub fn try_execute<P: NodeProtocol>(
    nodes: &mut [P],
    config: &ExecutionConfig,
    rng: &mut dyn RngCore,
) -> Result<Execution, ChannelError> {
    if nodes.is_empty() {
        return Err(ChannelError::InvalidConfiguration {
            what: "execution requires at least one participant".into(),
        });
    }
    if config.max_rounds == 0 {
        return Err(ChannelError::InvalidConfiguration {
            what: "execution requires a positive round cap".into(),
        });
    }

    let mut channel = Channel::new(config.mode);
    let mut trace = Trace::new();
    let mut decisions = vec![false; nodes.len()];

    for round in 1..=config.max_rounds {
        for (node, decision) in nodes.iter_mut().zip(decisions.iter_mut()) {
            *decision = node.decide(round, rng);
        }
        let outcome = channel.resolve_round(&decisions);
        if config.record_trace {
            trace.push(RoundRecord {
                round,
                transmitters: decisions.iter().filter(|&&d| d).count(),
                outcome,
            });
        }
        if outcome.is_success() {
            return Ok(Execution {
                resolved: true,
                rounds: round,
                trace,
            });
        }
        for (node, &decision) in nodes.iter_mut().zip(decisions.iter()) {
            let feedback = channel.feedback_for(outcome, decision);
            node.observe(round, feedback);
        }
        if nodes.iter().all(|n| n.finished()) {
            return Ok(Execution {
                resolved: false,
                rounds: round,
                trace,
            });
        }
    }
    Ok(Execution {
        resolved: false,
        rounds: config.max_rounds,
        trace,
    })
}

/// Drives a *uniform* protocol: all `k` participants transmit with the same
/// probability each round, supplied by `probability_for_round`.
///
/// The closure receives the 1-based round number and the collision history
/// observed so far (always empty in
/// [`ChannelMode::NoCollisionDetection`] mode, because listeners learn
/// nothing there) and returns the transmission probability for that round,
/// or `None` if the schedule is exhausted (one-shot protocols).
///
/// The executor samples the round outcome category directly from the exact
/// binomial probabilities, so the cost per round is independent of `k`.
///
/// # Errors
///
/// Returns [`ChannelError::InvalidConfiguration`] if `k == 0`,
/// `config.max_rounds == 0`, or the protocol produces a probability
/// outside `[0, 1]`.
pub fn try_execute_uniform_schedule<F, R>(
    k: usize,
    mut probability_for_round: F,
    config: &ExecutionConfig,
    rng: &mut R,
) -> Result<Execution, ChannelError>
where
    F: FnMut(usize, &CollisionHistory) -> Option<f64>,
    R: Rng + ?Sized,
{
    if k == 0 {
        return Err(ChannelError::InvalidConfiguration {
            what: "uniform execution requires at least one participant".into(),
        });
    }
    if config.max_rounds == 0 {
        return Err(ChannelError::InvalidConfiguration {
            what: "execution requires a positive round cap".into(),
        });
    }

    let mut history = CollisionHistory::new();
    let mut trace = Trace::new();

    for round in 1..=config.max_rounds {
        let Some(p) = probability_for_round(round, &history) else {
            return Ok(Execution {
                resolved: false,
                rounds: round - 1,
                trace,
            });
        };
        if !(0.0..=1.0).contains(&p) {
            return Err(ChannelError::InvalidConfiguration {
                what: format!("transmission probability {p} outside [0, 1] in round {round}"),
            });
        }
        let outcome = sample_uniform_outcome(k, p, rng);
        if config.record_trace {
            // Transmitter counts other than 0/1 are not reconstructed when
            // sampling the category directly; record 2 as "a collision".
            let transmitters = match outcome {
                RoundOutcome::Silence => 0,
                RoundOutcome::Success => 1,
                RoundOutcome::Collision => 2,
            };
            trace.push(RoundRecord {
                round,
                transmitters,
                outcome,
            });
        }
        if outcome.is_success() {
            return Ok(Execution {
                resolved: true,
                rounds: round,
                trace,
            });
        }
        if config.mode.has_collision_detection() {
            history.push(outcome == RoundOutcome::Collision);
        }
    }
    Ok(Execution {
        resolved: false,
        rounds: config.max_rounds,
        trace,
    })
}

/// The exact outcome-category probabilities of a round in which `k`
/// participants each transmit independently with probability `p ∈ (0, 1)`:
/// `(Pr[silence], Pr[success]) = ((1−p)^k, k·p·(1−p)^{k−1})`.
///
/// A uniform draw `u ∈ [0, 1)` classifies as silence when
/// `u < Pr[silence]`, success when `u < Pr[silence] + Pr[success]`, and
/// collision otherwise — see [`classify_uniform_draw`].  Exposed so batched
/// trial kernels can precompute and memoize the thresholds once per
/// `(p, k)` pair instead of paying the two `powf` calls every round; the
/// edge cases `p ≤ 0` (always silence, **no draw consumed**) and `p ≥ 1`
/// ([`RoundOutcome::from_transmitter_count`], **no draw consumed**) must be
/// handled before calling this.
pub fn uniform_outcome_thresholds(k: usize, p: f64) -> (f64, f64) {
    let kf = k as f64;
    let p_silence = (1.0 - p).powf(kf);
    let p_success = kf * p * (1.0 - p).powf(kf - 1.0);
    (p_silence, p_success)
}

/// Classifies one uniform draw against [`uniform_outcome_thresholds`].
///
/// The comparison chain is exactly the one [`sample_uniform_outcome`]
/// applies, so a kernel that draws `u` from the same RNG stream position
/// reproduces the scalar executor's outcome bit for bit.
pub fn classify_uniform_draw(u: f64, p_silence: f64, p_success: f64) -> RoundOutcome {
    // Branchless: category = (u ≥ s) + (u ≥ s + c) ∈ {0, 1, 2}.
    let category = u8::from(u >= p_silence) + u8::from(u >= p_silence + p_success);
    match category {
        0 => RoundOutcome::Silence,
        1 => RoundOutcome::Success,
        _ => RoundOutcome::Collision,
    }
}

/// Samples the outcome category of a round in which `k` participants each
/// transmit independently with probability `p`.
///
/// Consumes exactly one `f64` draw for `p ∈ (0, 1)` and none otherwise —
/// the draw discipline batched kernels rely on.
pub fn sample_uniform_outcome<R: Rng + ?Sized>(k: usize, p: f64, rng: &mut R) -> RoundOutcome {
    if p <= 0.0 {
        return RoundOutcome::Silence;
    }
    if p >= 1.0 {
        return RoundOutcome::from_transmitter_count(k);
    }
    let (p_silence, p_success) = uniform_outcome_thresholds(k, p);
    let u: f64 = rng.gen();
    classify_uniform_draw(u, p_silence, p_success)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A per-node protocol that transmits with a fixed probability forever.
    struct FixedProbability {
        p: f64,
    }

    impl NodeProtocol for FixedProbability {
        fn decide(&mut self, _round: usize, rng: &mut dyn RngCore) -> bool {
            rng.gen_bool(self.p)
        }
        fn observe(&mut self, _round: usize, _feedback: Feedback) {}
    }

    /// A node that transmits exactly in one designated round.
    struct TransmitOnce {
        round: usize,
        done: bool,
    }

    impl NodeProtocol for TransmitOnce {
        fn decide(&mut self, round: usize, _rng: &mut dyn RngCore) -> bool {
            round == self.round
        }
        fn observe(&mut self, round: usize, _feedback: Feedback) {
            if round >= self.round {
                self.done = true;
            }
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn single_node_with_probability_one_resolves_immediately() {
        let mut nodes = vec![FixedProbability { p: 1.0 }];
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(result.resolved);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.resolution_round(), Some(1));
    }

    #[test]
    fn two_always_transmitting_nodes_never_resolve() {
        let mut nodes = vec![FixedProbability { p: 1.0 }, FixedProbability { p: 1.0 }];
        let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 25).with_trace();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let result = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(!result.resolved);
        assert_eq!(result.rounds, 25);
        assert_eq!(result.trace.collisions(), 25);
        assert_eq!(result.resolution_round(), None);
    }

    #[test]
    fn distinct_transmit_rounds_resolve_at_the_earliest() {
        let mut nodes = vec![
            TransmitOnce {
                round: 3,
                done: false,
            },
            TransmitOnce {
                round: 5,
                done: false,
            },
        ];
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 10).with_trace();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let result = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        assert!(result.resolved);
        assert_eq!(result.rounds, 3);
        assert_eq!(result.trace.silences(), 2);
    }

    #[test]
    fn execution_stops_when_all_nodes_finish() {
        let mut nodes = vec![
            TransmitOnce {
                round: 2,
                done: false,
            },
            TransmitOnce {
                round: 2,
                done: false,
            },
        ];
        let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let result = try_execute(&mut nodes, &config, &mut rng).expect("valid configuration");
        // Both collide in round 2, then both are finished: no point running on.
        assert!(!result.resolved);
        assert_eq!(result.rounds, 2);
    }

    #[test]
    fn uniform_schedule_with_ideal_probability_resolves_quickly() {
        let k = 64;
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 200);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut total_rounds = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let result =
                try_execute_uniform_schedule(k, |_, _| Some(1.0 / k as f64), &config, &mut rng)
                    .unwrap();
            assert!(
                result.resolved,
                "1/k schedule should always resolve quickly"
            );
            total_rounds += result.rounds;
        }
        let mean = total_rounds as f64 / trials as f64;
        // With p = 1/k the per-round success probability is ~1/e, so the
        // expectation is ~e ≈ 2.7 rounds.
        assert!(mean > 1.5 && mean < 5.0, "mean rounds {mean} out of range");
    }

    #[test]
    fn uniform_schedule_exhaustion_ends_execution() {
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let result = try_execute_uniform_schedule(
            8,
            |round, _| if round <= 3 { Some(0.0) } else { None },
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(!result.resolved);
        assert_eq!(result.rounds, 3);
    }

    #[test]
    fn uniform_schedule_sees_collision_history_with_detection() {
        let config = ExecutionConfig::new(ChannelMode::CollisionDetection, 10);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut observed_lengths = Vec::new();
        let _ = try_execute_uniform_schedule(
            4,
            |round, history| {
                observed_lengths.push(history.len());
                // Everyone transmits: guaranteed collisions, never resolves.
                let _ = round;
                Some(1.0)
            },
            &config,
            &mut rng,
        )
        .unwrap();
        // History grows by one collision bit every round.
        assert_eq!(observed_lengths, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_schedule_hides_history_without_detection() {
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let _ = try_execute_uniform_schedule(
            4,
            |_, history| {
                assert!(history.is_empty(), "no-CD schedules must not see history");
                Some(1.0)
            },
            &config,
            &mut rng,
        )
        .unwrap();
    }

    #[test]
    fn sample_uniform_outcome_edge_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(
            sample_uniform_outcome(5, 0.0, &mut rng),
            RoundOutcome::Silence
        );
        assert_eq!(
            sample_uniform_outcome(5, 1.0, &mut rng),
            RoundOutcome::Collision
        );
        assert_eq!(
            sample_uniform_outcome(1, 1.0, &mut rng),
            RoundOutcome::Success
        );
    }

    #[test]
    fn sample_uniform_outcome_statistics_match_binomial() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let k = 10;
        let p = 0.1;
        let trials = 20_000;
        let mut successes = 0;
        for _ in 0..trials {
            if sample_uniform_outcome(k, p, &mut rng) == RoundOutcome::Success {
                successes += 1;
            }
        }
        let expected = k as f64 * p * (1.0 - p).powi(k as i32 - 1);
        let observed = successes as f64 / trials as f64;
        assert!(
            (observed - expected).abs() < 0.02,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn try_execute_rejects_empty_node_list() {
        let mut nodes: Vec<FixedProbability> = vec![];
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = try_execute(&mut nodes, &config, &mut rng).unwrap_err();
        assert!(err.to_string().contains("at least one participant"));
    }

    #[test]
    fn try_execute_rejects_zero_round_cap() {
        let mut nodes = vec![FixedProbability { p: 0.5 }];
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(try_execute(&mut nodes, &config, &mut rng).is_err());
    }

    #[test]
    fn try_uniform_schedule_rejects_bad_probability() {
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = try_execute_uniform_schedule(2, |_, _| Some(1.5), &config, &mut rng).unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"));
    }

    #[test]
    fn try_uniform_schedule_rejects_zero_participants_and_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 5);
        assert!(try_execute_uniform_schedule(0, |_, _| Some(0.5), &config, &mut rng).is_err());
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 0);
        assert!(try_execute_uniform_schedule(2, |_, _| Some(0.5), &config, &mut rng).is_err());
    }
}
