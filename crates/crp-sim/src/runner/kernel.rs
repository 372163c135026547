//! The per-cell trial executor: batched struct-of-arrays kernels and the
//! scalar fallback.
//!
//! The scalar path executes a shard trial-at-a-time: each trial walks its
//! rounds through `dyn`-dispatched protocol calls with two `powf`s and a
//! fresh RNG draw per round.  The batched kernels instead run *all*
//! trials of a shard in lockstep over flat per-trial state (participant
//! counts, round counters, outcome flags in `Vec`s), with monomorphized
//! fast paths for the hot protocol families:
//!
//! * **Uniform policies** (the paper's §2 class) sample the round outcome
//!   category with one uniform draw classified branchlessly against
//!   cumulative probabilities that are memoized per `(p, k)` — the two
//!   `powf`s are paid once per distinct pair instead of every round — and
//!   the draw itself comes from a per-trial block-refilled buffer
//!   ([`DrawBuffer`]).  No-CD policies are additionally queried once per
//!   *shard* per round (their history is always empty), and constant-rate
//!   policies ([`crp_protocols::UniformPolicy::constant_probability`])
//!   skip per-round dispatch entirely.
//! * **Deterministic per-node protocols** (the §3 advice schedules, gated
//!   by [`crp_protocols::NodeFactory::deterministic`]) never read the RNG,
//!   so the kernel executes once per distinct participant set and
//!   replicates the outcome across trials.  Each of those executions is
//!   the factory's own [`crp_protocols::NodeFactory::execute`]: the
//!   advice and its candidate interval are decoded once, and the nodes
//!   run unboxed in one `Vec` of their concrete type.  In the benchmark's
//!   populations every execution resolves in round 1, so building the
//!   nodes, not stepping rounds, is what an execution costs.
//!
//! Everything else — and every cell under [`KernelChoice::Scalar`] — runs
//! on the scalar executor, so every registry protocol runs under every
//! [`KernelChoice`].  A [`CellKernel`] is either one: the one way a shard
//! of a cell executes.
//!
//! **Bit-identity is the non-negotiable contract.**  Both paths consume
//! the same per-trial RNG streams ([`ShardPlan::trial_rng`]) in the same
//! order: a uniform trial draws exactly one `f64` per round with
//! `p ∈ (0, 1)` and none otherwise, and deterministic per-node trials
//! never draw (beyond population sampling).  The kernels therefore produce
//! the same [`TrialAccumulator`] the scalar path does, bit for bit —
//! enforced by the `kernel_equivalence` and `backend_equivalence` tests.

use std::collections::HashMap;
use std::str::FromStr;

use crp_channel::{
    classify_uniform_draw, uniform_outcome_thresholds, CollisionHistory, ParticipantId,
    RoundOutcome,
};
use crp_protocols::{try_run_protocol, try_run_protocol_with, Behavior, Protocol, UniformPolicy};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::runner::plan::ShardPlan;
use crate::runner::sample_contending_size;
use crate::simulation::Population;
use crate::stats::TrialAccumulator;
use crate::SimError;

/// Which trial-kernel path executes shards.
///
/// The choice affects wall-clock time only: kernels are bit-identical to
/// the scalar executor, so [`KernelChoice::Auto`] is the safe default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Use a batched kernel where the protocol supports one, the scalar
    /// executor otherwise (the default).
    #[default]
    Auto,
    /// Always use the scalar trial-at-a-time executor (debugging and
    /// equivalence baselines).
    Scalar,
}

impl KernelChoice {
    /// The stable CLI names, in declaration order.
    pub const NAMES: [&'static str; 2] = ["auto", "scalar"];
}

impl FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelChoice::Auto),
            "scalar" => Ok(KernelChoice::Scalar),
            other => Err(format!(
                "unknown kernel {other:?}; expected one of: {}",
                Self::NAMES.join(", ")
            )),
        }
    }
}

/// The path a cell dispatches to: the scalar executor or a monomorphized
/// fast path.
enum KernelKind<'a> {
    /// The scalar trial-at-a-time executor: every protocol, one trial
    /// after another.
    Scalar { protocol: &'a dyn Protocol },
    /// A uniform policy, run round-major over all trials of the shard.
    Uniform {
        policy: &'a dyn UniformPolicy,
        /// Whether the channel feeds collision history back (per-trial
        /// histories and per-trial policy queries; no-CD policies share
        /// one query per round).
        collision_detection: bool,
        /// The policy's constant per-round probability, when it has one.
        constant: Option<f64>,
    },
    /// A deterministic per-node protocol: executed once per distinct
    /// participant set, outcome replicated.
    Deterministic { protocol: &'a dyn Protocol },
}

/// The trial executor of one cell, built once per cell and shared by
/// every shard job (and worker thread) of that cell.
pub struct CellKernel<'a> {
    kind: KernelKind<'a>,
    population: &'a Population,
    max_rounds: usize,
}

impl<'a> CellKernel<'a> {
    /// Selects the path for a cell: the scalar executor when `choice` is
    /// [`KernelChoice::Scalar`] or the protocol has no fast path
    /// (randomized per-node protocols), a batched kernel otherwise.
    pub(crate) fn select(
        choice: KernelChoice,
        protocol: &'a dyn Protocol,
        population: &'a Population,
        max_rounds: usize,
    ) -> Self {
        let batched = choice == KernelChoice::Auto;
        let kind = match protocol.behavior() {
            Behavior::Uniform(policy) if batched => KernelKind::Uniform {
                policy,
                collision_detection: protocol.kind().channel_mode().has_collision_detection(),
                constant: policy.constant_probability(),
            },
            Behavior::PerNode(factory) if batched && factory.deterministic() => {
                KernelKind::Deterministic { protocol }
            }
            _ => KernelKind::Scalar { protocol },
        };
        Self {
            kind,
            population,
            max_rounds,
        }
    }

    /// True when a batched fast path was selected (false on the scalar
    /// executor).
    pub(crate) fn is_batched(&self) -> bool {
        !matches!(self.kind, KernelKind::Scalar { .. })
    }

    /// A short stable name of the selected path (`"scalar"` or the fast
    /// path's), for diagnostics.
    pub fn name(&self) -> &'static str {
        match &self.kind {
            KernelKind::Scalar { .. } => "scalar",
            KernelKind::Uniform {
                collision_detection: false,
                constant: Some(_),
                ..
            } => "uniform-constant",
            KernelKind::Uniform {
                collision_detection: false,
                ..
            } => "uniform-no-cd",
            KernelKind::Uniform { .. } => "uniform-cd",
            KernelKind::Deterministic { .. } => "deterministic",
        }
    }

    /// Runs one shard: all of the shard's trials, one after another on the
    /// scalar executor or in lockstep on a batched kernel, folded into a
    /// fresh accumulator in trial order.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the shard's first failing trial (e.g. a
    /// policy emitting a probability outside `[0, 1]`, or a factory
    /// rejecting a sampled participant set); a batched kernel fails with
    /// the error the scalar path would produce.
    pub(crate) fn run_shard(
        &self,
        plan: ShardPlan,
        base_seed: u64,
        shard: usize,
    ) -> Result<TrialAccumulator, SimError> {
        let trials = plan.shard_trials(shard);
        let mut state = ShardState::new(self, plan, base_seed, shard, trials);
        match &self.kind {
            KernelKind::Scalar { protocol } => self.run_scalar(*protocol, &mut state)?,
            KernelKind::Uniform {
                policy,
                collision_detection,
                constant,
            } => {
                if *collision_detection {
                    self.run_uniform_cd(*policy, &mut state)?;
                } else {
                    self.run_uniform_no_cd(*policy, *constant, &mut state)?;
                }
            }
            KernelKind::Deterministic { protocol } => {
                self.run_deterministic(*protocol, &mut state)?;
            }
        }
        let mut accumulator = TrialAccumulator::new();
        for t in 0..trials {
            accumulator.record(state.resolved[t], state.rounds[t] as u64);
        }
        Ok(accumulator)
    }

    /// The scalar executor: each trial runs the protocol on its own RNG
    /// stream (after its population draw), stopping at the first failing
    /// trial.
    fn run_scalar(&self, protocol: &dyn Protocol, state: &mut ShardState) -> Result<(), SimError> {
        for t in 0..state.rounds.len() {
            let rng = state.draws[t].rng_mut();
            let execution = match self.population {
                Population::Placed(ids) => {
                    try_run_protocol_with(protocol, ids, self.max_rounds, rng)
                }
                _ => try_run_protocol(protocol, state.k[t], self.max_rounds, rng),
            }
            .map_err(SimError::from)?;
            state.resolved[t] = execution.resolved;
            state.rounds[t] = execution.rounds;
        }
        Ok(())
    }

    /// The uniform no-CD fast path: the policy sees an empty history in
    /// every trial, so each round costs one policy query for the whole
    /// shard (none at all for constant-rate policies), one threshold
    /// memo lookup per distinct `k`, and one buffered draw per active
    /// trial.
    fn run_uniform_no_cd(
        &self,
        policy: &dyn UniformPolicy,
        constant: Option<f64>,
        state: &mut ShardState,
    ) -> Result<(), SimError> {
        let empty = CollisionHistory::new();
        let mut thresholds = ThresholdMemo::new();
        let mut active: Vec<usize> = (0..state.rounds.len()).collect();
        for round in 1..=self.max_rounds {
            if active.is_empty() {
                return Ok(());
            }
            let p = match constant.or_else(|| policy.probability(round, &empty)) {
                Some(p) => p,
                None => {
                    // Schedule exhausted: every still-active trial ends
                    // unresolved after `round - 1` rounds.
                    for &t in &active {
                        state.rounds[t] = round - 1;
                    }
                    return Ok(());
                }
            };
            validate_probability(p, round)?;
            if p <= 0.0 {
                // Guaranteed silence; the scalar path consumes no draw.
                continue;
            }
            let mut i = 0;
            while i < active.len() {
                let t = active[i];
                let outcome = if p >= 1.0 {
                    RoundOutcome::from_transmitter_count(state.k[t])
                } else {
                    let (silence, success) = thresholds.get(state.k[t], p);
                    classify_uniform_draw(state.draws[t].next_f64(), silence, success)
                };
                if outcome.is_success() {
                    state.resolved[t] = true;
                    state.rounds[t] = round;
                    active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        for &t in &active {
            state.rounds[t] = self.max_rounds;
        }
        Ok(())
    }

    /// The uniform CD fast path: histories diverge per trial, so the
    /// policy is queried per active trial per round, but the threshold
    /// memo still eliminates the per-round `powf`s and draws stay
    /// buffered.
    fn run_uniform_cd(
        &self,
        policy: &dyn UniformPolicy,
        state: &mut ShardState,
    ) -> Result<(), SimError> {
        let mut thresholds = ThresholdMemo::new();
        let mut histories: Vec<CollisionHistory> = (0..state.rounds.len())
            .map(|_| CollisionHistory::new())
            .collect();
        let mut active: Vec<usize> = (0..state.rounds.len()).collect();
        for round in 1..=self.max_rounds {
            if active.is_empty() {
                return Ok(());
            }
            let mut i = 0;
            while i < active.len() {
                let t = active[i];
                let Some(p) = policy.probability(round, &histories[t]) else {
                    state.rounds[t] = round - 1;
                    active.swap_remove(i);
                    continue;
                };
                validate_probability(p, round)?;
                let outcome = if p <= 0.0 {
                    RoundOutcome::Silence
                } else if p >= 1.0 {
                    RoundOutcome::from_transmitter_count(state.k[t])
                } else {
                    let (silence, success) = thresholds.get(state.k[t], p);
                    classify_uniform_draw(state.draws[t].next_f64(), silence, success)
                };
                if outcome.is_success() {
                    state.resolved[t] = true;
                    state.rounds[t] = round;
                    active.swap_remove(i);
                } else {
                    histories[t].push(outcome == RoundOutcome::Collision);
                    i += 1;
                }
            }
        }
        for &t in &active {
            state.rounds[t] = self.max_rounds;
        }
        Ok(())
    }

    /// The deterministic per-node fast path: nodes never read the RNG, so
    /// the execution is a pure function of the participant set — run it
    /// once per distinct `k` (or once per shard for fixed populations)
    /// and replicate.  Trials are visited in index order so a failing
    /// participant set surfaces the same trial's error as the scalar
    /// path.
    fn run_deterministic(
        &self,
        protocol: &dyn Protocol,
        state: &mut ShardState,
    ) -> Result<(), SimError> {
        let mut memo: HashMap<usize, (bool, usize)> = HashMap::new();
        for t in 0..state.rounds.len() {
            let k = state.k[t];
            let (resolved, rounds) = match memo.get(&k) {
                Some(&outcome) => outcome,
                None => {
                    let execution = match self.population {
                        Population::Placed(ids) => try_run_protocol_with(
                            protocol,
                            ids,
                            self.max_rounds,
                            state.draws[t].rng_mut(),
                        ),
                        _ => {
                            let ids: Vec<ParticipantId> = (0..k).map(ParticipantId).collect();
                            try_run_protocol_with(
                                protocol,
                                &ids,
                                self.max_rounds,
                                state.draws[t].rng_mut(),
                            )
                        }
                    }
                    .map_err(SimError::from)?;
                    let outcome = (execution.resolved, execution.rounds);
                    memo.insert(k, outcome);
                    outcome
                }
            };
            state.resolved[t] = resolved;
            state.rounds[t] = rounds;
        }
        Ok(())
    }
}

/// Mirrors the scalar executor's probability validation bit for bit,
/// including the error conversion chain (`ChannelError` →
/// `ProtocolError` → `SimError`), so a misbehaving policy fails with the
/// same typed error under either path.
fn validate_probability(p: f64, round: usize) -> Result<(), SimError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        let channel = crp_channel::ChannelError::InvalidConfiguration {
            what: format!("transmission probability {p} outside [0, 1] in round {round}"),
        };
        Err(SimError::from(
            crp_protocols::ProtocolError::InvalidParameter {
                what: channel.to_string(),
            },
        ))
    }
}

/// The struct-of-arrays per-shard state: one slot per trial, indexed by
/// the trial's offset within the shard.
struct ShardState {
    /// Per-trial participant count.
    k: Vec<usize>,
    /// Per-trial rounds elapsed (the budget when unresolved).
    rounds: Vec<usize>,
    /// Per-trial resolution flag.
    resolved: Vec<bool>,
    /// Per-trial buffered RNG streams.
    draws: Vec<DrawBuffer>,
}

impl ShardState {
    /// Seeds every trial's stream and samples its population up front —
    /// in trial order, so each stream is consumed exactly as the scalar
    /// path consumes it (population draws first, outcome draws after).
    fn new(
        kernel: &CellKernel<'_>,
        plan: ShardPlan,
        base_seed: u64,
        shard: usize,
        trials: usize,
    ) -> Self {
        let mut k = Vec::with_capacity(trials);
        let mut draws = Vec::with_capacity(trials);
        for offset in 0..trials {
            let mut rng = ShardPlan::trial_rng(base_seed, plan.trial_index(shard, offset));
            k.push(match kernel.population {
                Population::Fixed(count) => *count,
                Population::Placed(ids) => ids.len(),
                Population::Sampled(truth) => sample_contending_size(truth, &mut rng),
            });
            draws.push(DrawBuffer::new(rng));
        }
        Self {
            k,
            rounds: vec![0; trials],
            resolved: vec![false; trials],
            draws,
        }
    }
}

/// Memoizes [`uniform_outcome_thresholds`] per `(p, k)` — probabilities
/// keyed by their IEEE-754 bits, so distinct-but-equal floats share an
/// entry and the two `powf`s are paid once per pair per shard.
struct ThresholdMemo {
    memo: HashMap<(u64, usize), (f64, f64)>,
}

impl ThresholdMemo {
    fn new() -> Self {
        Self {
            memo: HashMap::new(),
        }
    }

    fn get(&mut self, k: usize, p: f64) -> (f64, f64) {
        *self
            .memo
            .entry((p.to_bits(), k))
            .or_insert_with(|| uniform_outcome_thresholds(k, p))
    }
}

/// Draws per trial are 8 `f64`s ahead of demand: large enough to amortise
/// refills over typical resolution times, small enough that per-trial
/// buffers stay cache-resident across a 256-trial shard.
const DRAW_BLOCK: usize = 8;

/// A per-trial RNG stream with block-refilled `f64` draws.
///
/// Refilling reads the underlying `ChaCha8Rng` with the same sequence of
/// `gen::<f64>()` calls the scalar path makes one at a time, so buffered
/// and unbuffered consumers observe identical draws; over-draw past the
/// trial's end is harmless because the stream is private to the trial.
struct DrawBuffer {
    rng: ChaCha8Rng,
    buffer: [f64; DRAW_BLOCK],
    next: usize,
}

impl DrawBuffer {
    fn new(rng: ChaCha8Rng) -> Self {
        Self {
            rng,
            buffer: [0.0; DRAW_BLOCK],
            next: DRAW_BLOCK,
        }
    }

    /// The next `f64` draw of the trial's stream.
    fn next_f64(&mut self) -> f64 {
        if self.next == DRAW_BLOCK {
            for slot in &mut self.buffer {
                *slot = self.rng.gen();
            }
            self.next = 0;
        }
        let value = self.buffer[self.next];
        self.next += 1;
        value
    }

    /// Direct access to the underlying stream, for paths that must not
    /// buffer (the scalar executor and deterministic executions hand the
    /// RNG to the protocol).  Only valid before any buffered draw was
    /// taken.
    fn rng_mut(&mut self) -> &mut ChaCha8Rng {
        debug_assert_eq!(self.next, DRAW_BLOCK, "stream already buffered");
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kernel_choice_parses_its_cli_names() {
        for name in KernelChoice::NAMES {
            let parsed: KernelChoice = name.parse().unwrap();
            let expected = match name {
                "auto" => KernelChoice::Auto,
                _ => KernelChoice::Scalar,
            };
            assert_eq!(parsed, expected);
        }
        let err = "vectorized".parse::<KernelChoice>().unwrap_err();
        assert!(err.contains("auto, scalar"), "{err}");
    }

    #[test]
    fn kernel_selection_matches_the_protocol_family() {
        let expectations = [
            ("fixed-probability", "uniform-constant"),
            ("decay", "uniform-no-cd"),
            ("willard", "uniform-cd"),
            ("det-advice-no-cd", "deterministic"),
        ];
        for (name, expected) in expectations {
            let protocol = crp_protocols::ProtocolSpec::new(name)
                .universe(256)
                .participants(16)
                .advice_bits(2)
                .build()
                .unwrap();
            let population = Population::Fixed(16);
            let kernel = CellKernel::select(KernelChoice::Auto, protocol.as_ref(), &population, 64);
            assert_eq!(kernel.name(), expected, "{name}");
            assert!(kernel.is_batched());
            // Scalar disables every kernel.
            let scalar =
                CellKernel::select(KernelChoice::Scalar, protocol.as_ref(), &population, 64);
            assert_eq!(scalar.name(), "scalar");
            assert!(!scalar.is_batched());
        }
    }

    #[test]
    fn buffered_draws_match_the_unbuffered_stream() {
        let seed = ChaCha8Rng::seed_from_u64(42);
        let mut direct = seed.clone();
        let mut buffered = DrawBuffer::new(seed);
        for _ in 0..(3 * DRAW_BLOCK + 1) {
            let expected: f64 = direct.gen();
            assert_eq!(expected.to_bits(), buffered.next_f64().to_bits());
        }
    }

    #[test]
    fn threshold_memo_matches_the_direct_computation() {
        let mut memo = ThresholdMemo::new();
        for k in [1usize, 2, 70, 1 << 20] {
            for p in [0.5, 0.125, 1.0 / 3.0] {
                assert_eq!(memo.get(k, p), uniform_outcome_thresholds(k, p));
                // Second lookup hits the memo and must agree.
                assert_eq!(memo.get(k, p), uniform_outcome_thresholds(k, p));
            }
        }
    }
}
