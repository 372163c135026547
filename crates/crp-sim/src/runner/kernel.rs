//! The per-cell trial executor: one loop per execution style.
//!
//! The scalar path executes a shard trial-at-a-time: each trial walks its
//! rounds through `dyn`-dispatched protocol calls with two `powf`s and a
//! fresh RNG draw per round.  The fast paths serve the two execution
//! styles of the paper's protocols:
//!
//! * **Uniform policies** (the paper's §2 class) run *all* trials of a
//!   shard in lockstep, round-major, over flat per-trial state
//!   (participant counts, round counters, outcome flags in `Vec`s).  The
//!   round outcome category comes from one uniform draw classified
//!   branchlessly against cumulative probabilities that are memoized per
//!   `(p, k)` — the two `powf`s are paid once per distinct pair instead
//!   of every round — and the draw itself comes from a per-trial
//!   block-refilled buffer ([`DrawBuffer`]).  Without collision detection
//!   every trial hears the same empty history, so the policy is queried
//!   once per *shard* per round; with it, once per active trial.
//! * **Per-node protocols** run one trial after another, each through
//!   the factory's own [`crp_protocols::NodeFactory::execute`].  When the
//!   factory is deterministic ([`crp_protocols::NodeFactory::deterministic`],
//!   the §3 advice schedules) its nodes never read the RNG, so an
//!   execution is a pure function of the cell and the participant count:
//!   the loop executes once per distinct count *per cell* and replicates
//!   the outcome across trials, through the one [`OutcomeMemo`] the
//!   cell's owner holds — a `CellWork` for an in-process run, a worker's
//!   spec-cache entry across the jobs (and seeds and plans) it serves.
//!   Each execution decodes the advice and its candidate interval once
//!   and runs the nodes unboxed in one `Vec` of their concrete type; in
//!   the benchmark's populations every execution resolves in round 1, so
//!   building the nodes, not stepping rounds, is what an execution costs.
//!
//! Without replication the per-trial loop is the scalar executor: the
//! loop a randomized per-node protocol runs on, and the reference every
//! fast path is compared against ([`CellKernel::reference`], behind
//! `Simulation::run_reference` and `SweepMatrix::run_reference`).  A
//! [`CellKernel`] is the one way a shard executes.
//!
//! **Bit-identity is the non-negotiable contract.**  Both loops consume
//! the same per-trial RNG streams ([`ShardPlan::trial_rng`]) in the same
//! order: a uniform trial draws exactly one `f64` per round with
//! `p ∈ (0, 1)` and none otherwise, and deterministic per-node trials
//! never draw (beyond population sampling).  The fast paths therefore
//! produce the same [`TrialAccumulator`] the scalar path does, bit for
//! bit — enforced by the `kernel_equivalence` and `backend_equivalence`
//! tests.

use std::collections::HashMap;
use std::sync::Mutex;

use crp_channel::{
    classify_uniform_draw, uniform_outcome_thresholds, CollisionHistory, RoundOutcome,
};
use crp_protocols::{try_run_protocol, try_run_protocol_with, Behavior, Protocol, UniformPolicy};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::runner::plan::ShardPlan;
use crate::runner::sample_contending_size;
use crate::simulation::Population;
use crate::stats::TrialAccumulator;
use crate::SimError;

/// The loop a cell's shards run on.
enum KernelKind<'a> {
    /// The per-trial loop: one trial after another through the
    /// protocol's own executor.
    Scalar(&'a dyn Protocol),
    /// The per-trial loop replicating one execution per distinct
    /// participant count: the protocol's nodes never read the RNG.
    Deterministic(&'a dyn Protocol),
    /// A uniform policy, run round-major over all trials of the shard.
    Uniform {
        policy: &'a dyn UniformPolicy,
        /// Whether the channel feeds collision history back (per-trial
        /// histories and per-trial policy queries; without it one query
        /// per round serves the shard).
        collision_detection: bool,
    },
}

/// One compiled cell's deterministic outcomes, `(resolved, rounds)` per
/// participant count.
///
/// A deterministic per-node protocol never reads the RNG, so within a
/// cell — one protocol, one population, one round budget — an execution
/// depends on the participant count alone, never on the seed, the plan
/// or the shard.  One memo therefore serves every shard of the cell, on
/// any thread.  Only successful executions are stored: a count whose
/// execution fails fails again each time a trial draws it, as on the
/// scalar loop.
#[derive(Default)]
pub(crate) struct OutcomeMemo {
    outcomes: Mutex<HashMap<usize, (bool, usize)>>,
}

impl OutcomeMemo {
    fn outcomes(&self) -> std::sync::MutexGuard<'_, HashMap<usize, (bool, usize)>> {
        self.outcomes.lock().expect("no memo user panics")
    }

    /// The number of participant counts stored.
    pub(crate) fn len(&self) -> usize {
        self.outcomes().len()
    }
}

/// The trial executor of one cell, built once per cell and shared by
/// every shard job (and worker thread) of that cell.
pub struct CellKernel<'a> {
    kind: KernelKind<'a>,
    population: &'a Population,
    max_rounds: usize,
}

impl<'a> CellKernel<'a> {
    /// Selects the loop for a cell from its protocol alone: the uniform
    /// loop for a uniform policy, the replicating per-trial loop for a
    /// deterministic per-node factory, and the scalar executor for a
    /// randomized one.  The dispatcher and every worker select the same
    /// way.
    pub(crate) fn select(
        protocol: &'a dyn Protocol,
        population: &'a Population,
        max_rounds: usize,
    ) -> Self {
        let kind = match protocol.behavior() {
            Behavior::Uniform(policy) => KernelKind::Uniform {
                policy,
                collision_detection: protocol.mode().has_collision_detection(),
            },
            Behavior::PerNode(factory) if factory.deterministic() => {
                KernelKind::Deterministic(protocol)
            }
            Behavior::PerNode(_) => KernelKind::Scalar(protocol),
        };
        Self {
            kind,
            population,
            max_rounds,
        }
    }

    /// The scalar trial-at-a-time executor for a cell, whatever its
    /// protocol: the reference the fast paths must reproduce bit for
    /// bit.
    pub(crate) fn reference(
        protocol: &'a dyn Protocol,
        population: &'a Population,
        max_rounds: usize,
    ) -> Self {
        Self {
            kind: KernelKind::Scalar(protocol),
            population,
            max_rounds,
        }
    }

    /// True when a fast path was selected (false on the scalar
    /// executor).
    pub(crate) fn is_batched(&self) -> bool {
        !matches!(self.kind, KernelKind::Scalar(_))
    }

    /// A short stable name of the selected path (`"scalar"`,
    /// `"deterministic"`, `"uniform-no-cd"` or `"uniform-cd"`), for
    /// diagnostics.
    pub fn name(&self) -> &'static str {
        match self.kind {
            KernelKind::Scalar(_) => "scalar",
            KernelKind::Deterministic(_) => "deterministic",
            KernelKind::Uniform {
                collision_detection: false,
                ..
            } => "uniform-no-cd",
            KernelKind::Uniform { .. } => "uniform-cd",
        }
    }

    /// Runs one shard: all of the shard's trials, one after another or
    /// in lockstep, folded into a fresh accumulator in trial order.  The
    /// replicating loop reads and fills `memo`, the cell's; the other
    /// loops never touch it.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the shard's first failing trial (e.g. a
    /// policy emitting a probability outside `[0, 1]`, or a factory
    /// rejecting a sampled participant set); a fast path fails with the
    /// error the scalar path would produce.
    pub(crate) fn run_shard(
        &self,
        plan: ShardPlan,
        base_seed: u64,
        shard: usize,
        memo: &OutcomeMemo,
    ) -> Result<TrialAccumulator, SimError> {
        let trials = plan.shard_trials(shard);
        let mut state = ShardState::new(self, plan, base_seed, shard, trials);
        match self.kind {
            KernelKind::Scalar(protocol) => self.run_per_trial(protocol, None, &mut state)?,
            KernelKind::Deterministic(protocol) => {
                self.run_per_trial(protocol, Some(memo), &mut state)?
            }
            KernelKind::Uniform {
                policy,
                collision_detection: true,
            } => self.run_uniform::<true>(policy, &mut state)?,
            KernelKind::Uniform { policy, .. } => self.run_uniform::<false>(policy, &mut state)?,
        }
        let mut accumulator = TrialAccumulator::new();
        for t in 0..trials {
            accumulator.record(state.resolved[t], state.rounds[t] as u64);
        }
        Ok(accumulator)
    }

    /// The per-trial loop: each trial runs the protocol on its own RNG
    /// stream (after its population draw), in trial order, stopping at
    /// the first failing trial.  With the cell's `memo` an execution is a
    /// pure function of the participant set, so it runs once per distinct
    /// `k` per cell (once per cell for fixed and placed populations) and
    /// every later trial of that `k`, in any shard, takes its outcome.
    /// The memo is not held while an execution runs, so two shards
    /// drawing a new `k` at once may both execute it and store the same
    /// outcome.
    fn run_per_trial(
        &self,
        protocol: &dyn Protocol,
        memo: Option<&OutcomeMemo>,
        state: &mut ShardState,
    ) -> Result<(), SimError> {
        for t in 0..state.rounds.len() {
            let k = state.k[t];
            let (resolved, rounds) = match memo.and_then(|memo| memo.outcomes().get(&k).copied()) {
                Some(outcome) => outcome,
                None => {
                    let rng = state.draws[t].rng_mut();
                    let execution = match self.population {
                        Population::Placed(ids) => {
                            try_run_protocol_with(protocol, ids, self.max_rounds, rng)
                        }
                        _ => try_run_protocol(protocol, k, self.max_rounds, rng),
                    }
                    .map_err(SimError::from)?;
                    let outcome = (execution.resolved, execution.rounds);
                    if let Some(memo) = memo {
                        memo.outcomes().insert(k, outcome);
                    }
                    outcome
                }
            };
            state.resolved[t] = resolved;
            state.rounds[t] = rounds;
        }
        Ok(())
    }

    /// The uniform loop: every active trial of the shard advances one
    /// round at a time.  Without collision detection (`CD` false) the
    /// policy sees an empty history in every trial, so one query per
    /// round serves the shard; with it, histories diverge and each active
    /// trial queries its own.  Either way a round costs one threshold
    /// memo lookup and one buffered draw per active trial.  `CD` is a
    /// const parameter so the no-CD instance carries no per-trial
    /// history work.
    fn run_uniform<const CD: bool>(
        &self,
        policy: &dyn UniformPolicy,
        state: &mut ShardState,
    ) -> Result<(), SimError> {
        let empty = CollisionHistory::new();
        let mut thresholds = ThresholdMemo::new();
        let mut histories = vec![CollisionHistory::new(); state.rounds.len()];
        let mut active: Vec<usize> = (0..state.rounds.len()).collect();
        for round in 1..=self.max_rounds {
            if active.is_empty() {
                return Ok(());
            }
            let shared = match CD {
                false => Some(checked(policy.probability(round, &empty), round)?),
                true => None,
            };
            let mut i = 0;
            while i < active.len() {
                let t = active[i];
                let p = match shared {
                    Some(p) => p,
                    None => checked(policy.probability(round, &histories[t]), round)?,
                };
                let Some(p) = p else {
                    // The policy gave up: the trial ends unresolved after
                    // `round - 1` rounds.
                    state.rounds[t] = round - 1;
                    active.swap_remove(i);
                    continue;
                };
                let outcome = if p <= 0.0 {
                    // Guaranteed silence; the scalar path consumes no draw.
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
                    if CD {
                        histories[t].push(outcome == RoundOutcome::Collision);
                    }
                    i += 1;
                }
            }
        }
        for &t in &active {
            state.rounds[t] = self.max_rounds;
        }
        Ok(())
    }
}

/// A policy's answer for `round`, checked the way the scalar executor
/// checks it, bit for bit, including the error conversion chain
/// (`ChannelError` → `ProtocolError` → `SimError`), so a misbehaving
/// policy fails with the same typed error under either path.
fn checked(p: Option<f64>, round: usize) -> Result<Option<f64>, SimError> {
    match p {
        Some(p) if !(0.0..=1.0).contains(&p) => {
            let channel = crp_channel::ChannelError::InvalidConfiguration {
                what: format!("transmission probability {p} outside [0, 1] in round {round}"),
            };
            Err(SimError::from(
                crp_protocols::ProtocolError::InvalidParameter {
                    what: channel.to_string(),
                },
            ))
        }
        p => Ok(p),
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

    /// Direct access to the underlying stream, for the per-trial loop,
    /// which hands the RNG to the protocol.  Only valid before any
    /// buffered draw was taken.
    fn rng_mut(&mut self) -> &mut ChaCha8Rng {
        debug_assert_eq!(self.next, DRAW_BLOCK, "stream already buffered");
        &mut self.rng
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    #[test]
    fn kernel_selection_matches_the_protocol_family() {
        let expectations = [
            ("fixed-probability", "uniform-no-cd"),
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
            let kernel = CellKernel::select(protocol.as_ref(), &population, 64);
            assert_eq!(kernel.name(), expected, "{name}");
            assert!(kernel.is_batched());
            // The reference is the scalar executor for every protocol.
            let reference = CellKernel::reference(protocol.as_ref(), &population, 64);
            assert_eq!(reference.name(), "scalar");
            assert!(!reference.is_batched());
        }
    }

    #[test]
    fn a_randomized_per_node_factory_runs_on_the_scalar_executor() {
        use crp_channel::{
            try_execute, ChannelMode, Execution, ExecutionConfig, Feedback, NodeProtocol,
            ParticipantId,
        };
        use crp_protocols::{NodeFactory, ProtocolError};
        use rand::RngCore;

        // A randomized per-node protocol must not get the replicating
        // loop: its nodes read the RNG, so execute-once-and-replicate
        // would be wrong.
        struct CoinFlip;
        struct CoinNode;
        impl NodeProtocol for CoinNode {
            fn decide(&mut self, _round: usize, rng: &mut dyn RngCore) -> bool {
                rng.gen::<f64>() < 0.5
            }
            fn observe(&mut self, _round: usize, _feedback: Feedback) {}
        }
        impl NodeFactory for CoinFlip {
            fn execute(
                &self,
                participants: &[ParticipantId],
                config: &ExecutionConfig,
                rng: &mut dyn RngCore,
            ) -> Result<Execution, ProtocolError> {
                let mut nodes: Vec<CoinNode> = participants.iter().map(|_| CoinNode).collect();
                Ok(try_execute(&mut nodes, config, rng)?)
            }
        }
        impl Protocol for CoinFlip {
            fn name(&self) -> &str {
                "coin-flip"
            }
            fn mode(&self) -> ChannelMode {
                ChannelMode::NoCollisionDetection
            }
            fn behavior(&self) -> Behavior<'_> {
                Behavior::PerNode(self)
            }
        }

        let population = Population::Fixed(4);
        let kernel = CellKernel::select(&CoinFlip, &population, 1000);
        assert_eq!(kernel.name(), "scalar");
        assert!(!kernel.is_batched());
        // And it still runs — the scalar executor is the universal fallback.
        let accumulator = kernel
            .run_shard(ShardPlan::new(50), 3, 0, &OutcomeMemo::default())
            .unwrap();
        assert_eq!(accumulator.finalize().trials, 50);
    }

    #[test]
    fn a_failing_trial_surfaces_its_typed_error() {
        // Participant 300 lies outside the 256-id universe: every trial's
        // execution rejects it, on the scalar executor and on the
        // replicating loop alike.  The kernel is built directly, so the
        // builder's universe check does not apply and the failure
        // happens at trial time.
        let protocol = crp_protocols::DeterministicAdviceProtocol::new(
            256,
            2,
            crp_channel::ChannelMode::CollisionDetection,
        );
        let population = Population::Placed(vec![
            crp_channel::ParticipantId(10),
            crp_channel::ParticipantId(300),
        ]);
        let memo = OutcomeMemo::default();
        let run = |kernel: CellKernel<'_>| {
            kernel
                .run_shard(ShardPlan::new(10), 0, 0, &memo)
                .unwrap_err()
        };
        let scalar = run(CellKernel::reference(&protocol, &population, 100));
        match &scalar {
            SimError::Substrate(what) => assert!(what.contains("outside universe"), "{what}"),
            other => panic!("expected a substrate error, got {other:?}"),
        }
        let selected = CellKernel::select(&protocol, &population, 100);
        assert_eq!(selected.name(), "deterministic");
        assert_eq!(scalar, run(selected));
        assert_eq!(memo.len(), 0, "a failed execution is not memoized");
    }

    /// A deterministic per-node factory that counts its executions: `k`
    /// participants resolve in round `k`.
    #[derive(Default)]
    pub(crate) struct Counting {
        pub(crate) executions: Arc<AtomicUsize>,
    }

    impl Counting {
        pub(crate) fn executions(&self) -> usize {
            self.executions.load(Relaxed)
        }
    }

    /// The distinct participant counts the trials of `plan`'s `shards`
    /// draw from `truth` under `seed`.
    pub(crate) fn drawn_counts(
        truth: &crp_info::SizeDistribution,
        plan: ShardPlan,
        seed: u64,
        shards: std::ops::Range<usize>,
    ) -> std::collections::HashSet<usize> {
        shards
            .flat_map(|shard| {
                (0..plan.shard_trials(shard)).map(move |offset| {
                    let mut rng = ShardPlan::trial_rng(seed, plan.trial_index(shard, offset));
                    sample_contending_size(truth, &mut rng)
                })
            })
            .collect()
    }

    impl crp_protocols::NodeFactory for Counting {
        fn execute(
            &self,
            participants: &[crp_channel::ParticipantId],
            config: &crp_channel::ExecutionConfig,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<crp_channel::Execution, crp_protocols::ProtocolError> {
            self.executions.fetch_add(1, Relaxed);
            let k = participants.len();
            Ok(crp_channel::Execution {
                resolved: k <= config.max_rounds,
                rounds: k.min(config.max_rounds),
            })
        }

        fn deterministic(&self) -> bool {
            true
        }
    }

    impl Protocol for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn mode(&self) -> crp_channel::ChannelMode {
            crp_channel::ChannelMode::NoCollisionDetection
        }
        fn behavior(&self) -> Behavior<'_> {
            Behavior::PerNode(self)
        }
    }

    #[test]
    fn the_replicating_loop_executes_each_count_once_per_cell_across_shards() {
        let protocol = Counting::default();
        let truth = crp_info::SizeDistribution::uniform_sizes(40).unwrap();
        let population = Population::Sampled(truth.clone());
        let kernel = CellKernel::select(&protocol, &population, 30);
        assert_eq!(kernel.name(), "deterministic");
        let reference = CellKernel::reference(&protocol, &population, 30);
        let memo = OutcomeMemo::default();
        let (mut executions, mut per_shard) = (0, 0);
        let mut distinct = std::collections::HashSet::new();
        // Two seeds and two plans through one memo: it is the cell's,
        // whatever seed or plan a shard runs under.
        for (seed, plan) in [
            (5, ShardPlan::new(1000)),
            (6, ShardPlan::with_shard_size(700, 64)),
        ] {
            for shard in 0..plan.num_shards() {
                let before = protocol.executions();
                let fast = kernel.run_shard(plan, seed, shard, &memo).unwrap();
                executions += protocol.executions() - before;
                let scalar = reference.run_shard(plan, seed, shard, &OutcomeMemo::default());
                assert_eq!(fast, scalar.unwrap(), "seed {seed}, shard {shard}");
                let counts = drawn_counts(&truth, plan, seed, shard..shard + 1);
                per_shard += counts.len();
                distinct.extend(counts);
            }
        }
        assert_eq!(
            executions,
            distinct.len(),
            "one execution per count per cell"
        );
        assert_eq!(memo.len(), distinct.len());
        assert!(
            distinct.len() < per_shard,
            "a per-shard memo would have executed {per_shard} times, not {}",
            distinct.len()
        );
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
