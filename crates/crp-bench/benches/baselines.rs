//! Bench F-BASELINE: prediction-augmented protocols vs the classical
//! baselines across universe sizes.
//!
//! Prints the decay / Willard / known-size / prediction columns for a
//! sweep of `n`, the series behind the paper's motivating comparison.
//! Every protocol is constructed by name through the registry and run
//! through the `Simulation` builder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_info::SizeDistribution;
use crp_predict::ScenarioLibrary;
use crp_protocols::ProtocolSpec;
use crp_sim::{RunnerConfig, Simulation, TrialStats};

fn measure(
    spec: ProtocolSpec,
    truth: SizeDistribution,
    budget: Option<usize>,
    config: &RunnerConfig,
) -> TrialStats {
    let mut builder = Simulation::builder()
        .protocol(spec)
        .truth(truth)
        .runner(config.clone());
    if let Some(budget) = budget {
        builder = builder.max_rounds(budget);
    }
    builder.run().expect("bench configurations are valid")
}

fn baselines(c: &mut Criterion) {
    let config = RunnerConfig::with_trials(600).seeded(0x77);
    let sizes = [1usize << 10, 1 << 12, 1 << 14, 1 << 16];

    println!("\n=== Baselines vs predictions ===");
    println!(
        "{:>7} {:>8} {:>14} {:>9} {:>14} {:>12}",
        "n", "decay", "sorted-guess", "willard", "coded-search", "known-size"
    );
    for &n in &sizes {
        let library = ScenarioLibrary::new(n).unwrap();
        let scenario = library.bimodal();
        let truth = scenario.distribution().clone();
        let condensed = scenario.condensed();

        let decay = measure(
            ProtocolSpec::new("decay").universe(n),
            truth.clone(),
            Some(64 * n),
            &config,
        );
        let sorted = measure(
            ProtocolSpec::new("sorted-guess-cycling")
                .universe(n)
                .prediction(condensed.clone()),
            truth.clone(),
            Some(64 * n),
            &config,
        );
        let willard = measure(
            ProtocolSpec::new("willard").universe(n),
            truth.clone(),
            None,
            &config,
        );
        let coded = measure(
            ProtocolSpec::new("coded-search")
                .universe(n)
                .prediction(condensed.clone()),
            truth.clone(),
            None,
            &config,
        );
        let mode = (n / 32).max(2);
        let known = measure(
            ProtocolSpec::new("fixed-probability")
                .universe(n)
                .participants(mode),
            SizeDistribution::point_mass(n, mode).unwrap(),
            Some(64 * n),
            &config,
        );

        println!(
            "{n:>7} {:>8.2} {:>14.2} {:>9.2} {:>14.2} {:>12.2}",
            decay.mean_rounds_overall(),
            sorted.mean_rounds_overall(),
            willard.mean_rounds_when_resolved(),
            coded.mean_rounds_when_resolved(),
            known.mean_rounds_overall()
        );
    }

    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    for &n in &sizes[..2] {
        let library = ScenarioLibrary::new(n).unwrap();
        let scenario = library.bimodal();
        group.bench_with_input(BenchmarkId::new("decay", n), &n, |b, &n| {
            // Construct once; the measured loop times only the Monte-Carlo
            // execution, as the pre-registry benches did.
            let quick = RunnerConfig::with_trials(64).seeded(0x77).single_threaded();
            let simulation = Simulation::builder()
                .protocol(ProtocolSpec::new("decay").universe(n))
                .truth(scenario.distribution().clone())
                .max_rounds(16 * n)
                .runner(quick.clone())
                .build()
                .unwrap();
            b.iter(|| simulation.run().unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, baselines);
criterion_main!(benches);
