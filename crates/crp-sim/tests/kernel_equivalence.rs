//! The acceptance criterion of the batched trial-kernel layer: for every
//! protocol in the standard registry, a simulation's production path
//! ([`Simulation::run`], on the loop its protocol selects) must produce
//! **bit-identical** `TrialStats` to the scalar trial-at-a-time
//! reference ([`Simulation::run_reference`]) — same seed, same per-trial
//! RNG streams, same accumulator fold order, down to the last bit of the
//! Welford moments and sketch quantiles.
//!
//! The kernels earn their speed from monomorphized fast paths (threshold
//! memoization, buffered draws, execute-once-and-replicate), so these
//! tests quantify over every registry protocol — uniform no-CD, uniform
//! CD and deterministic per-node alike — over the fixed, sampled and
//! placed population shapes, and over the command line's sweep grids.

use crp_predict::ScenarioLibrary;
use crp_protocols::{ProtocolSpec, REGISTRY};
use crp_sim::{
    RunnerConfig, Simulation, SimulationBuilder, SweepMatrix, SweepProtocol, ThreadBackend,
};

/// A registry spec with every optional parameter supplied, so each
/// constructor finds what it needs (a prediction for the §2 protocols and
/// `blind-trust`, advice bits for §3, and a participant count for the
/// randomized §3 protocols and as `fixed-probability`'s size estimate).
fn full_spec(name: &str, universe: usize) -> ProtocolSpec {
    let library = ScenarioLibrary::new(universe).unwrap();
    ProtocolSpec::new(name)
        .universe(universe)
        .prediction(library.bimodal().advice_condensed())
        .participants((universe / 16).max(2))
        .advice_bits(2)
}

/// Builds a simulation and asserts its production path agrees with the
/// scalar reference bit for bit.
fn assert_kernel_equivalence(name: &str, builder: SimulationBuilder) {
    let simulation = builder.build().unwrap();
    // PartialEq on TrialStats compares every field bit for bit.
    assert_eq!(
        simulation.run_reference().unwrap(),
        simulation.run().unwrap(),
        "kernel diverged from the scalar reference for {name}"
    );
}

#[test]
fn every_registry_protocol_is_bit_identical_under_the_batched_kernel() {
    let universe = 256;
    let library = ScenarioLibrary::new(universe).unwrap();
    let scenario = library.bimodal();
    for name in REGISTRY.iter().map(|entry| entry.name) {
        // 700 trials = 3 shards, sampled population: the kernel must
        // reproduce the scalar path's population draws and shard merge.
        assert_kernel_equivalence(
            name,
            Simulation::builder()
                .protocol(full_spec(name, universe))
                .truth(scenario.distribution().clone())
                .max_rounds(64 * universe)
                .trials(700)
                .seed(0xFEED),
        );
        // Fixed population, different seed and shard count.
        assert_kernel_equivalence(
            name,
            Simulation::builder()
                .protocol(full_spec(name, universe))
                .participants(12)
                .max_rounds(64 * universe)
                .trials(300)
                .seed(9),
        );
    }
}

#[test]
fn every_registry_protocol_selects_a_batched_fast_path() {
    // The registry's protocols are exactly the families the kernels are
    // monomorphized for; a protocol silently falling back to the scalar
    // executor would be a performance regression.
    let universe = 256;
    for name in REGISTRY.iter().map(|entry| entry.name) {
        let simulation = Simulation::builder()
            .protocol(full_spec(name, universe))
            .participants(12)
            .max_rounds(64 * universe)
            .trials(10)
            .seed(1)
            .build()
            .unwrap();
        let kernel = simulation.kernel_name();
        assert!(kernel.is_some(), "{name} fell back to the scalar executor");
    }
}

#[test]
fn placed_populations_are_bit_identical_under_the_deterministic_kernel() {
    // Explicit placements drive the §3 deterministic protocols; the
    // kernel memoizes one execution and replicates it across trials.
    for name in ["det-advice-no-cd", "det-advice-cd"] {
        assert_kernel_equivalence(
            name,
            Simulation::builder()
                .protocol(ProtocolSpec::new(name).universe(256).advice_bits(2))
                .participant_ids(vec![100, 130, 200])
                .trials(40)
                .seed(7),
        );
    }
}

/// The grid `crp_experiments sweep --size N --trials T --protocols ..
/// --scenarios ..` runs at its default seed: registry columns over
/// library scenarios.
fn cli_grid(size: usize, trials: usize, protocols: &[&str], scenarios: &[&str]) -> SweepMatrix {
    let library = ScenarioLibrary::new(size).unwrap();
    let mut matrix = SweepMatrix::new().runner(RunnerConfig::with_trials(trials).seeded(0xC0FFEE));
    for name in scenarios {
        matrix = matrix.scenario(library.by_name(name).unwrap());
    }
    for name in protocols {
        matrix = matrix.protocol(SweepProtocol::registry(name).unwrap());
    }
    matrix
}

#[test]
fn command_line_sweep_grids_are_bit_identical_to_the_reference() {
    // One column per kernel family at n = 256, on the default thread
    // backend and on 4 threads.
    let mixed = cli_grid(
        256,
        300,
        &[
            "decay",
            "sorted-guess-cycling",
            "willard",
            "det-advice-no-cd",
            "fixed-probability",
            "blind-trust",
        ],
        &["bimodal", "adversarial-drift"],
    );
    let reference = mixed.run_reference().unwrap();
    assert_eq!(reference.cells().len(), 12);
    assert_eq!(reference, mixed.run().unwrap(), "mixed grid diverged");
    assert_eq!(
        reference.to_csv(),
        mixed.run_on(&ThreadBackend::new(4)).unwrap().to_csv(),
        "mixed grid diverged on 4 threads"
    );

    // The deterministic §3 protocols at n = 2^12, 12 shards per cell.
    let deterministic = cli_grid(
        1 << 12,
        3072,
        &["det-advice-no-cd", "det-advice-cd"],
        &["adversarial-drift", "bimodal"],
    );
    assert_eq!(
        deterministic.run_reference().unwrap().to_csv(),
        deterministic.run().unwrap().to_csv(),
        "deterministic grid diverged"
    );
}
