//! Round-trip coverage of the unified protocol API: every registered
//! protocol name must construct through its spec, run to resolution
//! through the `Simulation` builder, and report the channel mode of its
//! registry entry; incompatible protocol/channel pairings and specs
//! without a universe must be rejected with a typed error.

use contention_predictions::channel::ChannelMode;
use contention_predictions::info::{CondensedDistribution, SizeDistribution};
use contention_predictions::protocols::{ProtocolError, ProtocolSpec, REGISTRY};
use contention_predictions::sim::{SimError, Simulation};

const UNIVERSE: usize = 1 << 10;

/// A spec rich enough for every registry entry: a universe, a mildly
/// informative prediction, an expected participant count and a small
/// advice budget.
fn spec_for(name: &str) -> ProtocolSpec {
    let prediction = SizeDistribution::bimodal(UNIVERSE, 32, 512, 0.9).unwrap();
    ProtocolSpec::new(name)
        .universe(UNIVERSE)
        .prediction(CondensedDistribution::from_sizes(&prediction))
        .participants(32)
        .advice_bits(2)
}

#[test]
fn registry_enumerates_at_least_eight_protocols() {
    assert!(
        REGISTRY.len() >= 8,
        "registry lists only {} protocols",
        REGISTRY.len()
    );
    // The table is sorted by name and lists each name once.
    for pair in REGISTRY.windows(2) {
        assert!(pair[0].name < pair[1].name, "{pair:?}");
    }
}

#[test]
fn every_registered_name_constructs_runs_and_reports_a_consistent_mode() {
    for entry in REGISTRY {
        // Construction by name succeeds with the full parameter set…
        let protocol = spec_for(entry.name)
            .build()
            .unwrap_or_else(|err| panic!("{} failed to construct: {err}", entry.name));
        assert!(!protocol.name().is_empty());
        // …and the built protocol's mode matches the catalogue entry.
        assert_eq!(
            protocol.mode(),
            entry.mode,
            "{} reports a mode inconsistent with its registry entry",
            entry.name
        );

        // A k = 1 participant set has no contention: the lone participant
        // resolves as soon as it transmits.  Run a small batch with a
        // generous budget and require at least one resolution (one-shot
        // protocols only succeed with constant probability per pass).
        let simulation = Simulation::builder()
            .protocol(spec_for(entry.name))
            .participants(1)
            .max_rounds(64 * UNIVERSE)
            .trials(64)
            .seed(11)
            .build()
            .unwrap_or_else(|err| panic!("{} failed to build a simulation: {err}", entry.name));
        // The simulation's channel mode is exactly the protocol's mode.
        assert_eq!(
            simulation.channel_mode(),
            entry.mode,
            "{}: simulation mode diverges from the protocol's mode",
            entry.name
        );
        let stats = simulation
            .run()
            .unwrap_or_else(|err| panic!("{} failed to run: {err}", entry.name));
        assert!(
            stats.resolved > 0,
            "{} never resolved a k = 1 trial in {} attempts",
            entry.name,
            stats.trials
        );
    }
}

#[test]
fn cd_only_protocols_are_rejected_on_a_no_cd_channel() {
    for entry in REGISTRY {
        if entry.mode != ChannelMode::CollisionDetection {
            continue;
        }
        let err = Simulation::builder()
            .protocol(spec_for(entry.name))
            .channel_mode(ChannelMode::NoCollisionDetection)
            .participants(8)
            .trials(4)
            .build()
            .map(|_| ())
            .unwrap_err();
        match err {
            SimError::ModeMismatch {
                protocol,
                required,
                requested,
            } => {
                assert_eq!(required, ChannelMode::CollisionDetection);
                assert_eq!(requested, ChannelMode::NoCollisionDetection);
                assert!(!protocol.is_empty());
            }
            other => panic!("{}: expected ModeMismatch, got {other:?}", entry.name),
        }
    }
}

#[test]
fn no_cd_protocols_are_rejected_on_a_cd_channel() {
    let err = Simulation::builder()
        .protocol(ProtocolSpec::new("decay").universe(UNIVERSE))
        .channel_mode(ChannelMode::CollisionDetection)
        .participants(8)
        .trials(4)
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, SimError::ModeMismatch { .. }));
}

#[test]
fn matching_explicit_modes_are_accepted() {
    let simulation = Simulation::builder()
        .protocol(ProtocolSpec::new("decay").universe(UNIVERSE))
        .channel_mode(ChannelMode::NoCollisionDetection)
        .participants(8)
        .max_rounds(1000)
        .trials(4)
        .build()
        .unwrap();
    assert_eq!(simulation.channel_mode(), ChannelMode::NoCollisionDetection);
}

#[test]
fn every_registered_name_requires_a_universe() {
    // Every other parameter is supplied, so only the missing universe can
    // stop a constructor.
    let prediction = SizeDistribution::bimodal(UNIVERSE, 32, 512, 0.9).unwrap();
    for entry in REGISTRY {
        let built = ProtocolSpec::new(entry.name)
            .prediction(CondensedDistribution::from_sizes(&prediction))
            .participants(32)
            .advice_bits(2)
            .build();
        match built.map(|_| ()) {
            Err(ProtocolError::MissingParameter { protocol, what }) => {
                assert_eq!(protocol, entry.name);
                assert!(what.contains("universe"), "{}: {what}", entry.name);
            }
            other => panic!("{}: expected a missing universe, got {other:?}", entry.name),
        }
    }
}
