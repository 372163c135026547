//! Integration tests spanning the whole workspace: distributions →
//! predictions → protocols (via the registry) → channel → statistics.

use contention_predictions::channel::ChannelMode;
use contention_predictions::info::{CondensedDistribution, SizeDistribution};
use contention_predictions::predict::{LearnedPredictor, ScenarioLibrary};
use contention_predictions::protocols::{try_run_protocol, ProtocolSpec};
use contention_predictions::sim::Simulation;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: usize = 1 << 12;
const TRIALS: usize = 300;

fn run_measured(
    spec: ProtocolSpec,
    truth: &SizeDistribution,
    budget: Option<usize>,
) -> contention_predictions::sim::TrialStats {
    let mut builder = Simulation::builder()
        .protocol(spec)
        .truth(truth.clone())
        .trials(TRIALS)
        .seed(0xFEED);
    if let Some(budget) = budget {
        builder = builder.max_rounds(budget);
    }
    builder.run().expect("integration configurations are valid")
}

#[test]
fn every_uniform_protocol_resolves_every_scenario() {
    // Cycle-style (unbounded) protocols must always resolve, for every
    // scenario in the library and a spread of true sizes.
    let library = ScenarioLibrary::new(N).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let decay = ProtocolSpec::new("decay").universe(N).build().unwrap();
    for scenario in library.all() {
        let sorted = ProtocolSpec::new("sorted-guess-cycling")
            .universe(N)
            .prediction(scenario.condensed())
            .build()
            .unwrap();
        for k in [2usize, 17, 300, 2500] {
            let a = try_run_protocol(sorted.as_ref(), k, 64 * N, &mut rng).unwrap();
            assert!(
                a.resolved,
                "{}: sorted-guess failed for k={k}",
                scenario.name()
            );
            let b = try_run_protocol(decay.as_ref(), k, 64 * N, &mut rng).unwrap();
            assert!(b.resolved, "decay failed for k={k}");
        }
    }
}

#[test]
fn prediction_quality_orders_expected_rounds_end_to_end() {
    // Train two histogram models with very different amounts of data and
    // verify the better-trained one yields faster contention resolution.
    let truth = SizeDistribution::bimodal(N, 50, 2000, 0.8).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    let mut weak = LearnedPredictor::new(N, 1.0).unwrap();
    weak.train(&truth, 3, &mut rng);
    let mut strong = LearnedPredictor::new(N, 1.0).unwrap();
    strong.train(&truth, 3000, &mut rng);
    assert!(strong.divergence_from(&truth) < weak.divergence_from(&truth));

    let weak_stats = run_measured(
        ProtocolSpec::new("sorted-guess-cycling")
            .universe(N)
            .prediction(weak.predicted_condensed()),
        &truth,
        Some(64 * N),
    );
    let strong_stats = run_measured(
        ProtocolSpec::new("sorted-guess-cycling")
            .universe(N)
            .prediction(strong.predicted_condensed()),
        &truth,
        Some(64 * N),
    );
    assert!(
        strong_stats.mean_rounds_overall() <= weak_stats.mean_rounds_overall() + 0.5,
        "strong model ({}) should not be slower than weak model ({})",
        strong_stats.mean_rounds_overall(),
        weak_stats.mean_rounds_overall()
    );
}

#[test]
fn collision_detection_beats_no_collision_detection_at_high_entropy() {
    // With an uninformative prediction the CD algorithm (poly in H) should
    // need far fewer rounds than the no-CD algorithm (exponential in H).
    let library = ScenarioLibrary::new(N).unwrap();
    let scenario = library.uniform_ranges();
    let condensed = scenario.condensed();

    // Both one-shot budgets default to the protocols' own horizons.
    let no_cd = run_measured(
        ProtocolSpec::new("sorted-guess")
            .universe(N)
            .prediction(condensed.clone()),
        scenario.distribution(),
        None,
    );
    let cd = run_measured(
        ProtocolSpec::new("coded-search")
            .universe(N)
            .prediction(condensed),
        scenario.distribution(),
        None,
    );

    assert!(no_cd.success_rate() > 0.2);
    assert!(cd.success_rate() > 0.2);
    assert!(
        cd.mean_rounds_when_resolved() <= no_cd.mean_rounds_when_resolved() + 1.0,
        "CD ({}) should beat no-CD ({}) at maximum entropy",
        cd.mean_rounds_when_resolved(),
        no_cd.mean_rounds_when_resolved()
    );
}

#[test]
fn known_size_is_the_floor_for_all_prediction_protocols() {
    let k = 500;
    let truth = SizeDistribution::point_mass(N, k).unwrap();
    let condensed = CondensedDistribution::from_sizes(&truth);

    let floor = run_measured(
        ProtocolSpec::new("fixed-probability")
            .universe(N)
            .participants(k),
        &truth,
        Some(64 * N),
    );
    let predicted = run_measured(
        ProtocolSpec::new("sorted-guess-cycling")
            .universe(N)
            .prediction(condensed),
        &truth,
        Some(64 * N),
    );

    // The prediction-augmented protocol with a perfect point prediction is
    // within a small constant factor of the known-size floor.
    assert!(predicted.mean_rounds_overall() <= 4.0 * floor.mean_rounds_overall() + 2.0);
}

#[test]
fn willard_and_coded_search_agree_on_point_predictions() {
    // With a point prediction the coded search has a single one-range
    // phase, so its behaviour collapses to the optimal single probe;
    // Willard needs its full binary search.
    let k = 900;
    let truth = SizeDistribution::point_mass(N, k).unwrap();
    let condensed = CondensedDistribution::from_sizes(&truth);

    let coded_stats = run_measured(
        ProtocolSpec::new("coded-search")
            .universe(N)
            .prediction(condensed),
        &truth,
        None,
    );
    let willard_stats = run_measured(ProtocolSpec::new("willard").universe(N), &truth, None);

    assert!(coded_stats.success_rate() > 0.2);
    assert!(willard_stats.success_rate() > 0.2);
    assert!(
        coded_stats.mean_rounds_when_resolved() <= willard_stats.mean_rounds_when_resolved(),
        "point-prediction coded search ({}) should not be slower than Willard ({})",
        coded_stats.mean_rounds_when_resolved(),
        willard_stats.mean_rounds_when_resolved()
    );
}

#[test]
fn advice_protocols_respect_their_table_2_budgets_end_to_end() {
    let universe = 1 << 10;
    let active = vec![131usize, 132, 600, 601, 980];
    let k = active.len();

    for b in 0..=10usize {
        // Deterministic protocols: per-node state machines under a fixed
        // placement; budgets default to the declared worst cases.
        for (name, bound) in [
            ("det-advice-no-cd", (universe >> b.min(10)).max(1)),
            ("det-advice-cd", 10usize.saturating_sub(b).max(1) + 1),
        ] {
            let simulation = Simulation::builder()
                .protocol(ProtocolSpec::new(name).universe(universe).advice_bits(b))
                .participant_ids(active.clone())
                .trials(1)
                .seed(3)
                .build()
                .unwrap();
            assert!(
                simulation.max_rounds() <= bound,
                "{name} at b={b}: budget {} exceeds {bound}",
                simulation.max_rounds()
            );
            let stats = simulation.run().unwrap();
            assert!(
                (stats.success_rate() - 1.0).abs() < 1e-12,
                "{name} failed at b={b}"
            );
        }

        // Randomized protocols: the advice must always keep the true range,
        // so a cycling advised decay resolves every time…
        let stats = Simulation::builder()
            .protocol(
                ProtocolSpec::new("advised-decay")
                    .universe(universe)
                    .participants(k)
                    .advice_bits(b),
            )
            .participants(k)
            .max_rounds(64 * universe)
            .trials(50)
            .seed(4)
            .run()
            .unwrap();
        assert!(
            (stats.success_rate() - 1.0).abs() < 1e-12,
            "advised decay failed at b={b}"
        );

        // …and the restricted Willard search succeeds with constant
        // probability within its own budget: over repetitions it certainly
        // succeeds at least once.
        let stats = Simulation::builder()
            .protocol(
                ProtocolSpec::new("advised-willard")
                    .universe(universe)
                    .participants(k)
                    .advice_bits(b),
            )
            .participants(k)
            .trials(50)
            .seed(5)
            .run()
            .unwrap();
        assert!(
            stats.resolved > 0,
            "advised willard never resolved at b={b}"
        );
    }
}

#[test]
fn facade_reexports_are_usable_together() {
    // Compile-and-run smoke test across every re-exported module.
    let truth = SizeDistribution::geometric(256, 0.2).unwrap();
    let condensed = CondensedDistribution::from_sizes(&truth);
    assert!(condensed.entropy() >= 0.0);
    let library = ScenarioLibrary::new(256).unwrap();
    assert_eq!(library.all().len(), 6);
    let simulation = Simulation::builder()
        .protocol(ProtocolSpec::new("decay").universe(256))
        .truth(truth)
        .max_rounds(10_000)
        .trials(TRIALS)
        .seed(0xFEED)
        .build()
        .unwrap();
    assert_eq!(simulation.channel_mode(), ChannelMode::NoCollisionDetection);
    let stats = simulation.run().unwrap();
    assert!(stats.success_rate() > 0.99);
}
