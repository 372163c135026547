//! The builder-style `Simulation` front-end.
//!
//! One fluent path from "which protocol, which workload" to aggregated
//! Monte-Carlo statistics:
//!
//! ```
//! use crp_protocols::ProtocolSpec;
//! use crp_sim::Simulation;
//!
//! # fn main() -> Result<(), crp_sim::SimError> {
//! let stats = Simulation::builder()
//!     .protocol(ProtocolSpec::new("decay").universe(1024))
//!     .participants(70)
//!     .max_rounds(10_000)
//!     .trials(500)
//!     .seed(7)
//!     .run()?;
//! assert!(stats.success_rate() > 0.99);
//! # Ok(())
//! # }
//! ```
//!
//! The builder validates everything *before* any trial runs and returns
//! typed [`SimError`]s instead of panicking: zero participants, a zero
//! round budget, a missing protocol, and protocol/channel-mode mismatches
//! are all rejected at [`SimulationBuilder::build`] time.

use crp_channel::{ChannelMode, ParticipantId};
use crp_info::SizeDistribution;
use crp_protocols::{Behavior, Protocol, ProtocolSpec};

use crate::runner::backend::{backend_for, run_cells};
use crate::runner::kernel::CellKernel;
use crate::runner::process::ShardSpec;
use crate::runner::{BackendChoice, KernelChoice, RunnerConfig, ShardBackend};
use crate::stats::TrialStats;
use crate::SimError;

/// How the per-trial participant set is chosen: the one population type
/// a simulation holds, a [`ShardSpec`] carries over the wire, and a
/// [`CellKernel`] borrows.
#[derive(Debug, Clone)]
pub(crate) enum Population {
    /// A fixed participant count; uniform protocols ignore identities and
    /// per-node protocols get the ids `0, …, k−1`.
    Fixed(usize),
    /// An explicit id placement (per-node protocols under adversarial
    /// placements).
    Placed(Vec<ParticipantId>),
    /// The participant count is sampled from a ground-truth distribution
    /// each trial (clamped to at least 2, the smallest size with
    /// contention).
    Sampled(SizeDistribution),
}

/// Fluent configuration for a [`Simulation`].
///
/// Obtained from [`Simulation::builder`]; consumed by
/// [`SimulationBuilder::build`] or [`SimulationBuilder::run`].
pub struct SimulationBuilder {
    spec: Option<ProtocolSpec>,
    population: Option<Population>,
    max_rounds: Option<usize>,
    channel_mode: Option<ChannelMode>,
    config: RunnerConfig,
}

impl SimulationBuilder {
    fn new() -> Self {
        Self {
            spec: None,
            population: None,
            max_rounds: None,
            channel_mode: None,
            config: RunnerConfig::default(),
        }
    }

    /// Selects the protocol by registry spec (name plus parameters).
    pub fn protocol(mut self, spec: ProtocolSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Fixes the participant count for every trial.
    pub fn participants(mut self, count: usize) -> Self {
        self.population = Some(Population::Fixed(count));
        self
    }

    /// Fixes an explicit participant-id placement for every trial (needed
    /// for adversarial placements of the per-node §3 protocols).
    pub fn participant_ids(mut self, ids: Vec<usize>) -> Self {
        self.population = Some(Population::Placed(
            ids.into_iter().map(ParticipantId).collect(),
        ));
        self
    }

    /// Samples the participant count from `truth` each trial.
    pub fn truth(mut self, truth: SizeDistribution) -> Self {
        self.population = Some(Population::Sampled(truth));
        self
    }

    /// Caps every trial at `max_rounds` rounds.  Defaults to the
    /// protocol's own horizon when it has one.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Pins the channel mode explicitly.  Only needed to *assert* a mode:
    /// building fails with [`SimError::ModeMismatch`] if the protocol
    /// requires the other mode.
    pub fn channel_mode(mut self, mode: ChannelMode) -> Self {
        self.channel_mode = Some(mode);
        self
    }

    /// Number of Monte-Carlo trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.config.trials = trials;
        self
    }

    /// Base seed; trial `i` derives its own `ChaCha8Rng` stream from
    /// `(seed, i)` (see [`crate::ShardPlan::trial_rng`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.base_seed = seed;
        self
    }

    /// Number of worker threads (1 = run inline).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Selects the shard backend [`Simulation::run`] executes on.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.config.backend = backend;
        self
    }

    /// Selects the trial-kernel path (batched struct-of-arrays fast paths
    /// vs. the scalar executor).  The statistics are bit-identical either
    /// way; see [`KernelChoice`].
    pub fn kernel(mut self, kernel: KernelChoice) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Replaces the whole runner configuration at once.
    pub fn runner(mut self, config: RunnerConfig) -> Self {
        self.config = config;
        self
    }

    /// Validates the configuration and constructs the [`Simulation`].
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingProtocol`] — no protocol spec was supplied.
    ///   (A spec the registry rejects — unknown name, missing
    ///   construction parameter — surfaces as the converted
    ///   [`crp_protocols::ProtocolError`] instead.)
    /// * [`SimError::InvalidParameter`] — no population, zero
    ///   participants, zero trials, a zero round budget, or no budget at
    ///   all for an unbounded protocol; and a population that does not
    ///   fit the spec's universe: more participants than ids, a
    ///   placement with a repeated or out-of-universe id, or a truth
    ///   distribution over sizes beyond the universe.
    /// * [`SimError::ModeMismatch`] — an explicitly pinned channel mode
    ///   contradicts the protocol's [`crp_protocols::Protocol::mode`].
    pub fn build(self) -> Result<Simulation, SimError> {
        let protocol = self.spec.ok_or(SimError::MissingProtocol)?;
        let population = self.population.ok_or_else(|| SimError::InvalidParameter {
            what: "a population is required: call participants(k), participant_ids(ids) or \
                   truth(distribution)"
                .to_string(),
        })?;
        Simulation::validated(
            protocol,
            population,
            self.max_rounds,
            self.channel_mode,
            self.config,
        )
    }

    /// Builds and immediately runs the simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationBuilder::build`] and [`Simulation::run`]
    /// errors.
    pub fn run(self) -> Result<TrialStats, SimError> {
        self.build()?.run()
    }
}

/// The paper draws every participant set from the universe `V` of
/// `universe` ids: a fixed count, an id placement or a sampled size that
/// does not fit it is outside the model, so it is rejected before any
/// trial runs rather than reported as a statistic.
fn check_fits_universe(population: &Population, universe: usize) -> Result<(), SimError> {
    let what = match population {
        Population::Fixed(k) if *k > universe => {
            format!("participants({k}) exceeds the universe of {universe} ids")
        }
        Population::Placed(ids) => {
            let mut sorted: Vec<usize> = ids.iter().map(|id| id.index()).collect();
            sorted.sort_unstable();
            if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
                format!(
                    "participant_ids: id {} is placed twice; ids are distinct members of the \
                     universe of {universe} ids",
                    pair[0]
                )
            } else if let Some(&id) = sorted.last().filter(|&&id| id >= universe) {
                format!("participant_ids: id {id} is outside the universe of {universe} ids")
            } else {
                return Ok(());
            }
        }
        Population::Sampled(truth) if truth.max_size() > universe => format!(
            "truth: sizes up to {} exceed the universe of {universe} ids",
            truth.max_size()
        ),
        _ => return Ok(()),
    };
    Err(SimError::InvalidParameter { what })
}

fn budget_required() -> SimError {
    SimError::InvalidParameter {
        what: "the protocol has no bounded horizon; call max_rounds(..) explicitly".to_string(),
    }
}

/// The worst-case budget a per-node protocol declares for a placement.
fn per_node_budget(protocol: &dyn Protocol, ids: &[ParticipantId]) -> Option<usize> {
    match protocol.behavior() {
        Behavior::PerNode(factory) => factory.round_budget(ids),
        Behavior::Uniform(_) => None,
    }
}

/// A fully validated Monte-Carlo simulation: one protocol, one workload,
/// one runner configuration.
pub struct Simulation {
    /// The cell's one description — registry spec, population and round
    /// budget — which every backend runs and out-of-process backends ship.
    spec: ShardSpec,
    /// The protocol `spec` names, built once and shared by every trial.
    protocol: Box<dyn Protocol>,
    config: RunnerConfig,
}

impl Simulation {
    /// Starts a new builder.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }

    /// The one validating constructor, under both the builder and a
    /// decoded [`ShardSpec`]: builds the protocol, checks the pinned
    /// mode, the population against the universe, the round budget
    /// (defaulting to the protocol's horizon) and the trial count.
    pub(crate) fn validated(
        protocol_spec: ProtocolSpec,
        population: Population,
        max_rounds: Option<usize>,
        channel_mode: Option<ChannelMode>,
        config: RunnerConfig,
    ) -> Result<Self, SimError> {
        let protocol = protocol_spec.build()?;
        let required_mode = protocol.mode();
        if let Some(requested) = channel_mode {
            if requested != required_mode {
                return Err(SimError::ModeMismatch {
                    protocol: protocol.name().to_string(),
                    required: required_mode,
                    requested,
                });
            }
        }

        match &population {
            Population::Fixed(0) => {
                return Err(SimError::InvalidParameter {
                    what: "participants(0): contention resolution needs at least one participant"
                        .to_string(),
                });
            }
            Population::Placed(ids) if ids.is_empty() => {
                return Err(SimError::InvalidParameter {
                    what: "participant_ids([]): the placement must be non-empty".to_string(),
                });
            }
            _ => {}
        }
        check_fits_universe(&population, protocol_spec.params().universe)?;

        let max_rounds = match max_rounds {
            Some(0) => {
                return Err(SimError::InvalidParameter {
                    what: "max_rounds(0): every trial needs a positive round budget".to_string(),
                });
            }
            Some(rounds) => rounds,
            None => match (protocol.horizon(), &population) {
                (Some(horizon), _) => horizon.max(1),
                (None, Population::Placed(ids)) => {
                    per_node_budget(protocol.as_ref(), ids).ok_or_else(budget_required)?
                }
                (None, Population::Fixed(k)) => {
                    let ids: Vec<ParticipantId> = (0..*k).map(ParticipantId).collect();
                    per_node_budget(protocol.as_ref(), &ids).ok_or_else(budget_required)?
                }
                (None, Population::Sampled(_)) => return Err(budget_required()),
            },
        };

        if config.trials == 0 {
            return Err(SimError::InvalidParameter {
                what: "trials(0): at least one trial is required".to_string(),
            });
        }

        Ok(Simulation {
            spec: ShardSpec {
                protocol: protocol_spec,
                population,
                max_rounds,
            },
            protocol,
            config,
        })
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &dyn Protocol {
        self.protocol.as_ref()
    }

    /// The channel mode every trial runs on (always the protocol's own
    /// mode — mismatches are rejected at build time).
    pub fn channel_mode(&self) -> ChannelMode {
        self.protocol.mode()
    }

    /// The per-trial round budget.
    pub fn max_rounds(&self) -> usize {
        self.spec.max_rounds
    }

    /// The runner configuration (trials, seed, threads).
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// The cell's serialisable description: what out-of-process backends
    /// and the sweep service ship for it.
    pub(crate) fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Runs the configured number of trials on the backend the
    /// configuration selects and aggregates the outcomes.
    ///
    /// The protocol is constructed once (at build time) and shared across
    /// all trials and worker threads; each trial only drives it, which
    /// amortises construction over the whole batch.  The statistics are
    /// bit-identical across backends and worker counts.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if any trial fails (e.g. a per-node factory
    /// rejects a sampled participant set), or a [`SimError::Backend`] if
    /// the selected backend cannot be started or its workers fail.
    pub fn run(&self) -> Result<TrialStats, SimError> {
        self.run_on(backend_for(&self.config)?.as_ref())
    }

    /// Like [`Simulation::run`], but on an explicit [`ShardBackend`]
    /// (ignoring the configured [`BackendChoice`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    pub fn run_on(&self, backend: &dyn ShardBackend) -> Result<TrialStats, SimError> {
        let stats = run_cells(backend, &[(self.protocol.name(), self)], &|_| {})?;
        Ok(stats
            .into_iter()
            .next()
            .expect("run_cells returns one TrialStats per cell"))
    }

    /// The trial executor of this cell: the loop the configured
    /// [`KernelChoice`] and the protocol's execution style select.  Built
    /// once per cell and shared, immutably, by every shard job and
    /// worker thread.
    pub(crate) fn cell_kernel(&self) -> CellKernel<'_> {
        CellKernel::select(
            self.config.kernel,
            self.protocol.as_ref(),
            &self.spec.population,
            self.spec.max_rounds,
        )
    }

    /// The name of the fast path this simulation selects
    /// (`"uniform-no-cd"`, `"uniform-cd"` or `"deterministic"`), or
    /// `None` on the scalar executor.  Diagnostics only — the choice
    /// never affects the statistics.
    pub fn kernel_name(&self) -> Option<&'static str> {
        let kernel = self.cell_kernel();
        kernel.is_batched().then(|| kernel.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_info::CondensedDistribution;

    #[test]
    fn builder_runs_a_registry_protocol_end_to_end() {
        let stats = Simulation::builder()
            .protocol(ProtocolSpec::new("decay").universe(1024))
            .participants(70)
            .max_rounds(10_000)
            .trials(300)
            .seed(7)
            .run()
            .unwrap();
        assert!(stats.success_rate() > 0.99);
    }

    #[test]
    fn missing_protocol_is_a_typed_error() {
        let err = Simulation::builder()
            .participants(10)
            .max_rounds(100)
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::MissingProtocol);
    }

    #[test]
    fn zero_participants_is_rejected_at_build_time() {
        let err = Simulation::builder()
            .protocol(ProtocolSpec::new("decay").universe(64))
            .participants(0)
            .max_rounds(100)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }));
    }

    #[test]
    fn zero_round_budget_is_rejected_at_build_time() {
        let err = Simulation::builder()
            .protocol(ProtocolSpec::new("decay").universe(64))
            .participants(4)
            .max_rounds(0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }));
    }

    #[test]
    fn cd_protocol_on_a_no_cd_channel_is_rejected() {
        let err = Simulation::builder()
            .protocol(ProtocolSpec::new("willard").universe(1 << 12))
            .channel_mode(ChannelMode::NoCollisionDetection)
            .participants(40)
            .trials(10)
            .build()
            .map(|_| ())
            .unwrap_err();
        match err {
            SimError::ModeMismatch {
                protocol,
                required,
                requested,
            } => {
                assert_eq!(protocol, "willard");
                assert_eq!(required, ChannelMode::CollisionDetection);
                assert_eq!(requested, ChannelMode::NoCollisionDetection);
            }
            other => panic!("expected ModeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_protocol_without_budget_is_rejected() {
        let prediction = crp_info::SizeDistribution::point_mass(256, 30).unwrap();
        let err = Simulation::builder()
            .protocol(
                ProtocolSpec::new("sorted-guess-cycling")
                    .universe(256)
                    .prediction(CondensedDistribution::from_sizes(&prediction)),
            )
            .participants(30)
            .trials(10)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }));
    }

    #[test]
    fn one_shot_protocols_default_to_their_horizon() {
        let prediction = crp_info::SizeDistribution::point_mass(1024, 60).unwrap();
        let simulation = Simulation::builder()
            .protocol(
                ProtocolSpec::new("sorted-guess")
                    .universe(1024)
                    .prediction(CondensedDistribution::from_sizes(&prediction)),
            )
            .participants(60)
            .trials(50)
            .seed(3)
            .build()
            .unwrap();
        // The §2.5 one-shot pass is bounded by the number of ranges.
        assert_eq!(simulation.max_rounds(), 10);
        assert_eq!(simulation.channel_mode(), ChannelMode::NoCollisionDetection);
        let stats = simulation.run().unwrap();
        assert_eq!(stats.trials, 50);
    }

    #[test]
    fn per_node_protocols_run_under_explicit_placements() {
        let stats = Simulation::builder()
            .protocol(
                ProtocolSpec::new("det-advice-cd")
                    .universe(256)
                    .advice_bits(2),
            )
            .participant_ids(vec![100, 130, 200])
            .trials(1)
            .seed(0)
            .run()
            .unwrap();
        assert!((stats.success_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn populations_outside_the_universe_are_rejected_at_build_time() {
        let build = |spec: ProtocolSpec, builder: SimulationBuilder| {
            builder
                .protocol(spec)
                .max_rounds(100)
                .trials(10)
                .build()
                .map(|_| ())
        };
        let decay = || ProtocolSpec::new("decay").universe(1024);
        let scan = || ProtocolSpec::new("det-advice-no-cd").universe(64);
        let truth = SizeDistribution::uniform_sizes(2048).unwrap();
        let cases = [
            (
                decay(),
                Simulation::builder().participants(1 << 20),
                "1048576",
            ),
            (
                scan(),
                Simulation::builder().participant_ids(vec![5, 5]),
                "5",
            ),
            (
                scan(),
                Simulation::builder().participant_ids(vec![3, 64]),
                "64",
            ),
            (decay(), Simulation::builder().truth(truth), "2048"),
        ];
        for (spec, builder, population) in cases {
            let universe = spec.params().universe.to_string();
            match build(spec, builder) {
                Err(SimError::InvalidParameter { what }) => {
                    assert!(what.contains(population), "{what}");
                    assert!(what.contains(&universe), "{what}");
                }
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
        // Populations that exactly fill the universe are in the model.
        assert!(build(decay(), Simulation::builder().participants(1024)).is_ok());
        assert!(build(scan(), Simulation::builder().participant_ids(vec![0, 63])).is_ok());
        let full = SizeDistribution::uniform_sizes(1024).unwrap();
        assert!(build(decay(), Simulation::builder().truth(full)).is_ok());
    }

    #[test]
    fn sampled_truth_population_runs() {
        let truth = crp_info::SizeDistribution::bimodal(512, 16, 256, 0.9).unwrap();
        let stats = Simulation::builder()
            .protocol(ProtocolSpec::new("decay").universe(512))
            .truth(truth)
            .max_rounds(50_000)
            .trials(200)
            .seed(5)
            .run()
            .unwrap();
        assert!(stats.success_rate() > 0.99);
    }
}
