//! The declarative sweep engine: a (protocol × scenario × trial-budget)
//! experiment matrix compiled to [`Simulation`] cells and executed through
//! the sharded runner.
//!
//! The paper's headline results are Monte-Carlo sweeps over grids of
//! protocols and workloads.  Instead of every experiment hand-rolling its
//! own nested loops, a [`SweepMatrix`] *declares* the grid:
//!
//! * a **scenario axis** — named ground-truth workloads (optionally with
//!   drifted advice), usually from [`crp_predict::ScenarioLibrary`];
//! * a **protocol axis** — [`SweepProtocol`] columns, each a labelled
//!   recipe turning a scenario into a [`crp_protocols::ProtocolSpec`]
//!   (plus optional per-column round-budget, population and trial-count
//!   overrides);
//! * a **trial-budget axis** — one or more Monte-Carlo trial counts.
//!
//! [`SweepMatrix::compile`] flattens the axes into a deterministic list of
//! fully validated [`Simulation`] cells; [`SweepMatrix::run`] executes them
//! and collects a [`SweepResults`] grid of per-cell [`TrialStats`] with
//! markdown and CSV export.  Each cell derives its own seed from the base
//! seed and its grid position, so results are reproducible and independent
//! of execution order.
//!
//! Execution is a *work-stealing sweep scheduler*: every cell of the grid
//! is decomposed into `(cell, shard)` jobs feeding one global queue on the
//! configured [`crate::ShardBackend`], so grids of many small cells keep
//! every worker busy instead of draining cell by cell.  Per-cell
//! accumulators are merged in shard order, which keeps each cell's
//! [`TrialStats`] bit-identical to running that cell alone — on any
//! backend, with any worker count.
//!
//! ```
//! use crp_predict::ScenarioLibrary;
//! use crp_protocols::ProtocolSpec;
//! use crp_sim::{SweepMatrix, SweepProtocol};
//!
//! # fn main() -> Result<(), crp_sim::SimError> {
//! let library = ScenarioLibrary::new(1 << 10)?;
//! let results = SweepMatrix::new()
//!     .scenario(library.bimodal())
//!     .scenario(library.bursty())
//!     .protocol(
//!         SweepProtocol::from_scenario("decay", |s| {
//!             ProtocolSpec::new("decay").universe(s.distribution().max_size())
//!         })
//!         .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
//!     )
//!     .trials(200)
//!     .seed(7)
//!     .run()?;
//! assert_eq!(results.cells().len(), 2);
//! assert!(results.get("bimodal", "decay").unwrap().stats.success_rate() > 0.99);
//! # Ok(())
//! # }
//! ```

use std::sync::Mutex;

use crp_info::SizeDistribution;
use crp_predict::{Scenario, ScenarioLibrary};
use crp_protocols::{ProtocolSpec, REGISTRY};

use crate::report::{fmt_f64, Table};
use crate::runner::backend::{backend_for, run_cells};
use crate::runner::{KernelChoice, RunnerConfig, ShardBackend, ShardPlan};
use crate::simulation::Simulation;
use crate::stats::TrialStats;
use crate::SimError;

/// How a sweep cell chooses its per-trial participant population.
#[derive(Debug, Clone)]
pub enum SweepPopulation {
    /// Sample the participant count from the scenario's ground truth each
    /// trial (the default).
    ScenarioTruth,
    /// A fixed participant count for every trial.
    Fixed(usize),
    /// An explicit participant-id placement (for the deterministic §3
    /// protocols under adversarial placements).
    Placed(Vec<usize>),
    /// Sample the participant count from this distribution instead of the
    /// scenario truth.
    Distribution(SizeDistribution),
}

type SpecFn = Box<dyn Fn(&Scenario) -> ProtocolSpec + Send + Sync>;
type RoundsFn = Box<dyn Fn(&Scenario) -> Option<usize> + Send + Sync>;
type PopulationFn = Box<dyn Fn(&Scenario) -> SweepPopulation + Send + Sync>;

/// One labelled column of the protocol axis: a recipe producing a
/// [`ProtocolSpec`] (and optional execution overrides) for each scenario.
pub struct SweepProtocol {
    label: String,
    spec: SpecFn,
    max_rounds: Option<RoundsFn>,
    population: Option<PopulationFn>,
    trials: Option<usize>,
}

impl SweepProtocol {
    /// A column that uses the same literal spec for every scenario.
    pub fn new(label: impl Into<String>, spec: ProtocolSpec) -> Self {
        Self {
            label: label.into(),
            spec: Box::new(move |_| spec.clone()),
            max_rounds: None,
            population: None,
            trials: None,
        }
    }

    /// A column whose spec is derived from each scenario (e.g. predictions
    /// built from the scenario's advice distribution).
    pub fn from_scenario(
        label: impl Into<String>,
        spec: impl Fn(&Scenario) -> ProtocolSpec + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            spec: Box::new(spec),
            max_rounds: None,
            population: None,
            trials: None,
        }
    }

    /// The column the command line and fuzz campaigns build for a
    /// registry protocol: universe, condensed advice as the prediction,
    /// `participants (n / 16).max(2)` and `advice_bits 2` come from each
    /// scenario, and protocols without a horizon of their own get a
    /// `64·n` round budget.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] when `name` is not in the protocol
    /// registry.
    pub fn registry(name: &str) -> Result<Self, SimError> {
        if !REGISTRY.iter().any(|entry| entry.name == name) {
            return Err(SimError::InvalidParameter {
                what: format!(
                    "unknown protocol {name:?}; run `crp_experiments list` for the registry"
                ),
            });
        }
        let spec_for = {
            let name = name.to_string();
            move |s: &Scenario| {
                let n = s.distribution().max_size();
                ProtocolSpec::new(name.clone())
                    .universe(n)
                    .prediction(s.advice_condensed())
                    .participants((n / 16).max(2))
                    .advice_bits(2)
            }
        };
        // Whether a protocol bounds its own horizon is a property of the
        // protocol type, not of the scenario, so probe it once with a
        // small representative scenario.  A probe that fails to build
        // falls into the 64·n-budget branch; the real build error (if
        // any) surfaces from the matrix's compile step.
        let has_horizon = spec_for(&ScenarioLibrary::new(64)?.bimodal())
            .build()
            .ok()
            .and_then(|protocol| protocol.horizon())
            .is_some();
        Ok(Self::from_scenario(name, spec_for)
            .max_rounds_with(move |s| (!has_horizon).then(|| 64 * s.distribution().max_size())))
    }

    /// Caps every trial of this column at `rounds` rounds (default: the
    /// protocol's own horizon).
    pub fn max_rounds(self, rounds: usize) -> Self {
        self.max_rounds_with(move |_| Some(rounds))
    }

    /// Derives the per-trial round budget from the scenario; returning
    /// `None` falls back to the protocol's own horizon.
    pub fn max_rounds_with(
        mut self,
        rounds: impl Fn(&Scenario) -> Option<usize> + Send + Sync + 'static,
    ) -> Self {
        self.max_rounds = Some(Box::new(rounds));
        self
    }

    /// Overrides the population for this column (default:
    /// [`SweepPopulation::ScenarioTruth`]).
    pub fn population(self, population: SweepPopulation) -> Self {
        self.population_with(move |_| population.clone())
    }

    /// Derives the population override from the scenario.
    pub fn population_with(
        mut self,
        population: impl Fn(&Scenario) -> SweepPopulation + Send + Sync + 'static,
    ) -> Self {
        self.population = Some(Box::new(population));
        self
    }

    /// Overrides the trial budget for this column (e.g. a single trial for
    /// deterministic protocols).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = Some(trials);
        self
    }

    /// The column label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A compiled, fully validated sweep cell: one [`Simulation`] plus the grid
/// coordinates it came from.
pub struct SweepCell {
    /// Scenario-axis label.
    pub scenario: String,
    /// Protocol-axis label.
    pub protocol: String,
    /// Monte-Carlo trial budget of this cell.
    pub trials: usize,
    /// The cell's derived seed.
    pub seed: u64,
    /// The validated simulation ready to run.
    pub simulation: Simulation,
    /// Condensed entropy `H(c(X))` of the scenario truth.
    pub condensed_entropy: f64,
    /// Divergence `D_KL(c(X) ‖ c(Y))` between scenario truth and advice.
    pub advice_divergence: f64,
}

impl SweepCell {
    /// The cell's grid coordinates with the statistics its trials
    /// produced — run locally or merged by a sweep daemon.
    pub(crate) fn into_result(self, stats: TrialStats) -> SweepCellResult {
        SweepCellResult {
            scenario: self.scenario,
            protocol: self.protocol,
            trials: self.trials,
            condensed_entropy: self.condensed_entropy,
            advice_divergence: self.advice_divergence,
            stats,
        }
    }
}

/// Executed results of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellResult {
    /// Scenario-axis label.
    pub scenario: String,
    /// Protocol-axis label.
    pub protocol: String,
    /// Monte-Carlo trial budget of this cell.
    pub trials: usize,
    /// Condensed entropy `H(c(X))` of the scenario truth.
    pub condensed_entropy: f64,
    /// Divergence `D_KL(c(X) ‖ c(Y))` between scenario truth and advice.
    pub advice_divergence: f64,
    /// Aggregated trial statistics.
    pub stats: TrialStats,
}

/// Progress of a sweep, reported once per completed `(cell, shard)` job —
/// from whichever worker finished it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProgress {
    /// Cells whose shards have all finished so far.
    pub completed_cells: usize,
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Shard jobs finished so far, across all cells.
    pub completed_shards: usize,
    /// Total shard jobs in the grid.
    pub total_shards: usize,
    /// Scenario label of the cell the just-finished shard belongs to.
    pub scenario: String,
    /// Protocol label of the cell the just-finished shard belongs to.
    pub protocol: String,
    /// True when the just-finished shard completed its cell.
    pub cell_completed: bool,
}

/// The declarative experiment matrix: scenario, protocol and trial-budget
/// axes that [`SweepMatrix::compile`] flattens into validated
/// [`Simulation`] cells and [`SweepMatrix::run`] executes as one job list.
#[derive(Default)]
pub struct SweepMatrix {
    protocols: Vec<SweepProtocol>,
    scenarios: Vec<Scenario>,
    trial_axis: Vec<usize>,
    config: RunnerConfig,
}

/// SplitMix64 finaliser used to derive independent per-cell seeds.
fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepMatrix {
    /// An empty matrix with the default runner configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one protocol column.
    pub fn protocol(mut self, protocol: SweepProtocol) -> Self {
        self.protocols.push(protocol);
        self
    }

    /// Appends several protocol columns.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = SweepProtocol>) -> Self {
        self.protocols.extend(protocols);
        self
    }

    /// Appends one scenario row.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Appends several scenario rows.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Sets a single trial budget for every cell.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trial_axis = vec![trials];
        self
    }

    /// Sweeps several trial budgets per (scenario, protocol) pair.
    pub fn trial_axis(mut self, trials: impl IntoIterator<Item = usize>) -> Self {
        self.trial_axis = trials.into_iter().collect();
        self
    }

    /// Sets the base seed cells derive their seeds from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.base_seed = seed;
        self
    }

    /// Selects the trial-kernel path every cell executes with.  Like the
    /// backend choice, this affects wall-clock time only — statistics
    /// are bit-identical between the scalar executor and the batched
    /// kernels.
    pub fn kernel(mut self, kernel: KernelChoice) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Replaces the whole runner configuration (trials, seed, threads).
    pub fn runner(mut self, config: RunnerConfig) -> Self {
        self.config = config;
        self
    }

    /// The scenario axis, in declaration order.
    pub fn scenario_axis(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The protocol-axis labels, in declaration order.
    pub fn protocol_labels(&self) -> Vec<&str> {
        self.protocols.iter().map(|p| p.label()).collect()
    }

    /// Number of cells the grid flattens to.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.protocols.len() * self.effective_trial_axis().len()
    }

    /// True if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn effective_trial_axis(&self) -> Vec<usize> {
        if self.trial_axis.is_empty() {
            vec![self.config.trials]
        } else {
            self.trial_axis.clone()
        }
    }

    /// Compiles the axes into a flat, deterministically ordered list of
    /// validated simulation cells (scenario-major, then protocol, then
    /// trial budget).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] produced by a cell that fails
    /// validation (unknown protocol name, missing parameter, mode
    /// mismatch, zero budgets).
    pub fn compile(&self) -> Result<Vec<SweepCell>, SimError> {
        let trial_axis = self.effective_trial_axis();
        let mut cells = Vec::with_capacity(self.len());
        let mut index = 0u64;
        for scenario in &self.scenarios {
            let entropy = scenario.condensed_entropy();
            let divergence = scenario.advice_divergence();
            for protocol in &self.protocols {
                for &axis_trials in &trial_axis {
                    let trials = protocol.trials.unwrap_or(axis_trials);
                    let seed = mix_seed(self.config.base_seed, index);
                    index += 1;

                    let mut builder = Simulation::builder()
                        .protocol((protocol.spec)(scenario))
                        .runner(RunnerConfig {
                            trials,
                            base_seed: seed,
                            ..self.config.clone()
                        });
                    let population = protocol
                        .population
                        .as_ref()
                        .map(|f| f(scenario))
                        .unwrap_or(SweepPopulation::ScenarioTruth);
                    builder = match population {
                        SweepPopulation::ScenarioTruth => {
                            builder.truth(scenario.distribution().clone())
                        }
                        SweepPopulation::Fixed(k) => builder.participants(k),
                        SweepPopulation::Placed(ids) => builder.participant_ids(ids),
                        SweepPopulation::Distribution(truth) => builder.truth(truth),
                    };
                    if let Some(rounds) = protocol.max_rounds.as_ref().and_then(|f| f(scenario)) {
                        builder = builder.max_rounds(rounds);
                    }

                    cells.push(SweepCell {
                        scenario: scenario.name().to_string(),
                        protocol: protocol.label.clone(),
                        trials,
                        seed,
                        simulation: builder.build()?,
                        condensed_entropy: entropy,
                        advice_divergence: divergence,
                    });
                }
            }
        }
        Ok(cells)
    }

    /// Compiles and executes every cell through the work-stealing
    /// scheduler on the configured backend.
    ///
    /// # Errors
    ///
    /// Propagates the first compilation or execution [`SimError`] (in
    /// deterministic grid order: the lowest failing `(cell, shard)` job).
    pub fn run(&self) -> Result<SweepResults, SimError> {
        self.run_with_progress(|_| {})
    }

    /// Like [`SweepMatrix::run`], but invokes `progress` after each
    /// completed `(cell, shard)` job — possibly from a worker thread,
    /// hence the `Sync` bound.
    ///
    /// # Errors
    ///
    /// As [`SweepMatrix::run`].
    pub fn run_with_progress(
        &self,
        progress: impl Fn(SweepProgress) + Sync,
    ) -> Result<SweepResults, SimError> {
        self.run_on_with_progress(backend_for(&self.config)?.as_ref(), progress)
    }

    /// Runs the grid on an explicit [`ShardBackend`] (ignoring the
    /// configured [`crate::BackendChoice`]).
    ///
    /// # Errors
    ///
    /// As [`SweepMatrix::run`].
    pub fn run_on(&self, backend: &dyn ShardBackend) -> Result<SweepResults, SimError> {
        self.run_on_with_progress(backend, |_| {})
    }

    /// The work-stealing sweep scheduler: decomposes every cell of the
    /// grid into `(cell, shard)` jobs feeding one global queue on
    /// `backend`, merges each cell's accumulators in shard order, and
    /// reports per-shard and per-cell completion through `progress`.
    ///
    /// # Errors
    ///
    /// As [`SweepMatrix::run`].
    pub fn run_on_with_progress(
        &self,
        backend: &dyn ShardBackend,
        progress: impl Fn(SweepProgress) + Sync,
    ) -> Result<SweepResults, SimError> {
        let cells = self.compile()?;
        let total_cells = cells.len();

        // Progress bookkeeping under one lock: remaining shards per cell
        // plus the global counters, so every callback observes a
        // consistent snapshot and cell completion fires exactly once.
        let remaining: Vec<usize> = cells
            .iter()
            .map(|cell| ShardPlan::new(cell.simulation.config().trials).num_shards())
            .collect();
        let total_shards = remaining.iter().sum();
        let state: Mutex<(Vec<usize>, usize, usize)> = Mutex::new((remaining, 0, 0));
        let on_done = |index: usize| {
            let cell = &cells[index];
            // The callback runs while the lock is held so deliveries are
            // serialised and the counters observers see are monotonic.
            let mut state = state.lock().expect("no panics while counting progress");
            state.0[index] -= 1;
            let cell_completed = state.0[index] == 0;
            state.1 += 1;
            if cell_completed {
                state.2 += 1;
                crp_obs::global().inc("sim.sweep.cell");
                if crp_obs::trace_enabled() {
                    crp_obs::emit(
                        &crp_obs::TraceEvent::new("sweep.cell")
                            .u64("cell", index as u64)
                            .str("scenario", &cell.scenario)
                            .str("protocol", &cell.protocol),
                    );
                }
            }
            progress(SweepProgress {
                completed_cells: state.2,
                total_cells,
                completed_shards: state.1,
                total_shards,
                scenario: cell.scenario.clone(),
                protocol: cell.protocol.clone(),
                cell_completed,
            });
        };
        let labelled: Vec<(&str, &Simulation)> = cells
            .iter()
            .map(|cell| (cell.protocol.as_str(), &cell.simulation))
            .collect();
        let stats = run_cells(backend, &labelled, &on_done)?;

        let results = cells
            .into_iter()
            .zip(stats)
            .map(|(cell, stats)| cell.into_result(stats))
            .collect();
        Ok(SweepResults { cells: results })
    }
}

/// The executed grid: one [`SweepCellResult`] per cell, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    cells: Vec<SweepCellResult>,
}

impl SweepResults {
    /// Assembles a results grid from already-computed cells — the
    /// sweep-service client path, where cells arrive as cached or
    /// remotely merged accumulators instead of local executions.
    pub fn from_cells(cells: Vec<SweepCellResult>) -> Self {
        Self { cells }
    }

    /// Every cell, in grid order (scenario-major).
    pub fn cells(&self) -> &[SweepCellResult] {
        &self.cells
    }

    /// The first cell at `(scenario, protocol)`, if any.
    pub fn get(&self, scenario: &str, protocol: &str) -> Option<&SweepCellResult> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.protocol == protocol)
    }

    /// Renders the grid in long form: one row per cell.
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let mut table = Table::new(
            title,
            &[
                "scenario",
                "protocol",
                "trials",
                "H(c(X))",
                "D_KL(c(X)||c(Y))",
                "success",
                "rounds (resolved)",
                "rounds (overall)",
                "p90 (overall)",
            ],
        );
        for cell in &self.cells {
            let p90 = cell
                .stats
                .rounds_overall
                .as_ref()
                .map(|s| s.p90)
                .unwrap_or(f64::NAN);
            table.push_row(vec![
                cell.scenario.clone(),
                cell.protocol.clone(),
                cell.trials.to_string(),
                fmt_f64(cell.condensed_entropy),
                fmt_f64(cell.advice_divergence),
                fmt_f64(cell.stats.success_rate()),
                fmt_f64(cell.stats.mean_rounds_when_resolved()),
                fmt_f64(cell.stats.mean_rounds_overall()),
                fmt_f64(p90),
            ]);
        }
        table
    }

    /// Renders the grid as markdown.
    pub fn to_markdown(&self, title: impl Into<String>) -> String {
        self.to_table(title).to_markdown()
    }

    /// Renders the grid as CSV.
    pub fn to_csv(&self) -> String {
        self.to_table("sweep").to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_predict::ScenarioLibrary;

    fn decay_column() -> SweepProtocol {
        SweepProtocol::from_scenario("decay", |s| {
            ProtocolSpec::new("decay").universe(s.distribution().max_size())
        })
        .max_rounds_with(|s| Some(64 * s.distribution().max_size()))
    }

    #[test]
    fn matrix_compiles_to_the_full_cross_product() {
        let library = ScenarioLibrary::new(256).unwrap();
        let matrix = SweepMatrix::new()
            .scenarios([library.bimodal(), library.geometric()])
            .protocol(decay_column())
            .protocol(SweepProtocol::from_scenario("willard", |s| {
                ProtocolSpec::new("willard").universe(s.distribution().max_size())
            }))
            .trial_axis([50, 100])
            .seed(1);
        assert_eq!(matrix.len(), 2 * 2 * 2);
        let cells = matrix.compile().unwrap();
        assert_eq!(cells.len(), 8);
        // Scenario-major, then protocol, then trials.
        assert_eq!(cells[0].scenario, "bimodal");
        assert_eq!(cells[0].protocol, "decay");
        assert_eq!(cells[0].trials, 50);
        assert_eq!(cells[1].trials, 100);
        assert_eq!(cells[2].protocol, "willard");
        assert_eq!(cells[4].scenario, "geometric");
        // Cell seeds are pairwise distinct.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn matrix_runs_and_results_are_addressable() {
        let library = ScenarioLibrary::new(256).unwrap();
        let results = SweepMatrix::new()
            .scenario(library.bimodal())
            .scenario(library.bursty())
            .protocol(decay_column())
            .trials(150)
            .seed(5)
            .run()
            .unwrap();
        assert_eq!(results.cells().len(), 2);
        for cell in results.cells() {
            assert_eq!(cell.stats.trials, 150);
            assert!(
                cell.stats.success_rate() > 0.99,
                "{}/{}",
                cell.scenario,
                cell.protocol
            );
        }
        assert!(results.get("bursty", "decay").is_some());
        assert!(results.get("bursty", "willard").is_none());
        let md = results.to_markdown("Demo sweep");
        assert!(md.contains("Demo sweep"));
        assert!(md.contains("bursty"));
        let csv = results.to_csv();
        assert!(csv.starts_with("scenario,protocol,trials"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn matrix_reruns_are_deterministic() {
        let library = ScenarioLibrary::new(256).unwrap();
        let build = || {
            SweepMatrix::new()
                .scenario(library.geometric())
                .protocol(decay_column())
                .trials(100)
                .seed(9)
        };
        let a = build().run().unwrap();
        let b = build().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn per_column_overrides_apply() {
        let library = ScenarioLibrary::new(256).unwrap();
        let cells = SweepMatrix::new()
            .scenario(library.bimodal())
            .protocol(
                SweepProtocol::from_scenario("det", |s| {
                    ProtocolSpec::new("det-advice-cd")
                        .universe(s.distribution().max_size())
                        .advice_bits(2)
                })
                .population(SweepPopulation::Placed(vec![10, 70, 200]))
                .trials(1),
            )
            .trials(500)
            .compile()
            .unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].trials, 1, "column override beats the axis budget");
    }

    #[test]
    fn compile_surfaces_unknown_protocols() {
        let library = ScenarioLibrary::new(256).unwrap();
        let err = SweepMatrix::new()
            .scenario(library.bimodal())
            .protocol(SweepProtocol::new(
                "nope",
                ProtocolSpec::new("no-such-protocol").universe(256),
            ))
            .trials(10)
            .compile()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::Substrate(_)));
        // A registry column checks the name before any matrix exists.
        let err = SweepProtocol::registry("no-such-protocol")
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("no-such-protocol"), "{err}");
    }

    #[test]
    fn drifted_advice_is_reported_per_cell() {
        let library = ScenarioLibrary::new(512).unwrap();
        let results = SweepMatrix::new()
            .scenario(library.adversarial_drift())
            .protocol(decay_column())
            .trials(50)
            .run()
            .unwrap();
        let cell = results.get("adversarial-drift", "decay").unwrap();
        assert!(cell.advice_divergence > 0.0);
    }

    #[test]
    fn progress_reports_shard_and_cell_completion() {
        use std::sync::Mutex;
        let library = ScenarioLibrary::new(256).unwrap();
        // 300 trials per cell = 2 shards per cell, 2 cells = 4 shard jobs.
        let seen: Mutex<Vec<SweepProgress>> = Mutex::new(Vec::new());
        SweepMatrix::new()
            .scenarios([library.bimodal(), library.geometric()])
            .protocol(decay_column())
            .trials(300)
            .run_with_progress(|p| {
                seen.lock().unwrap().push(p);
            })
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4, "one callback per (cell, shard) job");
        assert!(seen.iter().all(|p| p.total_cells == 2));
        assert!(seen.iter().all(|p| p.total_shards == 4));
        assert_eq!(
            seen.iter().filter(|p| p.cell_completed).count(),
            2,
            "each cell completes exactly once"
        );
        let last = seen.last().unwrap();
        assert_eq!(last.completed_shards, 4);
        assert_eq!(last.completed_cells, 2);
        assert!(last.cell_completed);
    }

    #[test]
    fn work_stealing_scheduler_matches_sequential_cell_execution() {
        // The sweep-level determinism criterion: interleaving every cell's
        // shards through the global queue must leave each cell's stats
        // bit-identical to running that cell's simulation alone.
        let library = ScenarioLibrary::new(256).unwrap();
        let build = || {
            SweepMatrix::new()
                .scenarios([library.bimodal(), library.geometric(), library.bursty()])
                .protocol(decay_column())
                .trials(300)
                .seed(21)
                .runner(RunnerConfig::with_trials(300).seeded(21).with_threads(4))
        };
        let scheduled = build().run().unwrap();
        let cells = build().compile().unwrap();
        for (cell, result) in cells.iter().zip(scheduled.cells()) {
            let alone = cell.simulation.run().unwrap();
            assert_eq!(
                alone, result.stats,
                "{}/{} diverged under work stealing",
                cell.scenario, cell.protocol
            );
        }
    }
}
