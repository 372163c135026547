//! The acceptance criterion of the batched trial-kernel layer: for every
//! protocol in the standard registry, a simulation executed with
//! [`KernelChoice::Auto`] must produce **bit-identical** `TrialStats`
//! to the scalar trial-at-a-time executor ([`KernelChoice::Scalar`]) —
//! same seed, same per-trial RNG streams, same accumulator fold order,
//! down to the last bit of the Welford moments and sketch quantiles.
//!
//! The kernels earn their speed from monomorphized fast paths (threshold
//! memoization, buffered draws, execute-once-and-replicate), so these
//! tests quantify over every registry protocol — uniform no-CD, uniform
//! CD and deterministic per-node alike — and over the fixed, sampled and
//! placed population shapes.

use crp_predict::ScenarioLibrary;
use crp_protocols::{ProtocolSpec, REGISTRY};
use crp_sim::{KernelChoice, Simulation, SimulationBuilder};

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

/// Builds the same simulation twice — scalar and batched — and asserts
/// the stats agree bit for bit.
fn assert_kernel_equivalence(name: &str, build: impl Fn() -> SimulationBuilder) {
    let scalar = build().kernel(KernelChoice::Scalar).build().unwrap();
    let batched = build().kernel(KernelChoice::Auto).build().unwrap();
    assert_eq!(
        scalar.kernel_name(),
        None,
        "{name}: scalar selects no kernel"
    );
    // PartialEq on TrialStats compares every field bit for bit.
    assert_eq!(
        scalar.run().unwrap(),
        batched.run().unwrap(),
        "kernel diverged from the scalar executor for {name}"
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
        assert_kernel_equivalence(name, || {
            Simulation::builder()
                .protocol(full_spec(name, universe))
                .truth(scenario.distribution().clone())
                .max_rounds(64 * universe)
                .trials(700)
                .seed(0xFEED)
        });
        // Fixed population, different seed and shard count.
        assert_kernel_equivalence(name, || {
            Simulation::builder()
                .protocol(full_spec(name, universe))
                .participants(12)
                .max_rounds(64 * universe)
                .trials(300)
                .seed(9)
        });
    }
}

#[test]
fn every_registry_protocol_selects_a_batched_fast_path() {
    // The registry's protocols are exactly the families the kernels are
    // monomorphized for; a protocol silently falling back to the scalar
    // executor under `auto` would be a performance regression.
    let universe = 256;
    for name in REGISTRY.iter().map(|entry| entry.name) {
        let simulation = Simulation::builder()
            .protocol(full_spec(name, universe))
            .participants(12)
            .max_rounds(64 * universe)
            .kernel(KernelChoice::Auto)
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
        assert_kernel_equivalence(name, || {
            Simulation::builder()
                .protocol(ProtocolSpec::new(name).universe(256).advice_bits(2))
                .participant_ids(vec![100, 130, 200])
                .trials(40)
                .seed(7)
        });
    }
}

#[test]
fn a_custom_protocol_object_falls_back_to_the_scalar_executor() {
    use crp_channel::{
        try_execute, ChannelMode, Execution, ExecutionConfig, Feedback, NodeProtocol, ParticipantId,
    };
    use crp_protocols::{NodeFactory, Protocol, ProtocolError};
    use rand::{Rng, RngCore};

    // A randomized per-node protocol must not select a kernel: its nodes
    // read the RNG, so execute-once-and-replicate would be wrong.
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
        fn behavior(&self) -> crp_protocols::Behavior<'_> {
            crp_protocols::Behavior::PerNode(self)
        }
    }

    let simulation = Simulation::builder()
        .protocol_object(Box::new(CoinFlip))
        .participants(4)
        .max_rounds(1000)
        .kernel(KernelChoice::Auto)
        .trials(50)
        .seed(3)
        .build()
        .unwrap();
    assert_eq!(simulation.kernel_name(), None);
    // And it still runs — the scalar executor is the universal fallback.
    assert_eq!(simulation.run().unwrap().trials, 50);
}
