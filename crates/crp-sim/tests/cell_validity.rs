//! A cell is valid on every backend or on none: the model's rules are
//! applied where a `Simulation` is built, so no backend runs a cell that
//! another would refuse.
//!
//! The fleet backend spawns the real `crp_experiments` binary (cargo
//! exposes its path to integration tests via
//! `CARGO_BIN_EXE_crp_experiments`).

use crp_protocols::ProtocolSpec;
use crp_sim::{FleetBackend, SerialBackend, ShardBackend, SimError, Simulation, ThreadBackend};

/// The worker binary cargo built alongside this test.
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crp_experiments");

#[test]
fn a_cell_outside_the_model_fails_alike_on_every_backend() {
    // `advised-decay` builds for any participant estimate, but 2^62
    // participants over 1024 ids is no participant set of the universe.
    let backends: [(&str, Box<dyn ShardBackend>); 3] = [
        ("serial", Box::new(SerialBackend)),
        ("thread", Box::new(ThreadBackend::new(2))),
        (
            "fleet",
            Box::new(FleetBackend::local_with_command(1, WORKER_BIN)),
        ),
    ];
    for (name, backend) in backends {
        let outcome = Simulation::builder()
            .protocol(
                ProtocolSpec::new("advised-decay")
                    .universe(1024)
                    .participants(1 << 62)
                    .advice_bits(2),
            )
            .participants(8)
            .max_rounds(1_000)
            .trials(10)
            .seed(3)
            .build()
            .and_then(|simulation| simulation.run_on(backend.as_ref()));
        match outcome {
            Err(SimError::InvalidParameter { what }) => assert_eq!(
                what, "participants 4611686018427387904 is outside the universe's 1..=1024",
                "{name}"
            ),
            other => panic!("{name}: {other:?}"),
        }
    }
}
