//! Bench F-KERNEL: the scalar trial-at-a-time reference
//! (`Simulation::run_reference`) vs the batched struct-of-arrays trial
//! kernel the protocol selects (`run_on(&SerialBackend)`), both serial,
//! recorded as `BENCH_kernels.json` at the workspace root so the numbers
//! accumulate a perf history across revisions.
//!
//! The workload is the paper's hot loop — a uniform no-CD protocol
//! (`decay`) swept over a universe-size ladder — measured as *per-round
//! throughput* (simulated protocol rounds per second across all trials).
//! The batched kernel earns its speed from threshold memoization (the
//! two `powf`s per round collapse to a hash lookup), block-buffered RNG
//! draws and one policy query per shard per round; both paths produce
//! bit-identical `TrialStats`, which this bench re-asserts before
//! recording anything.
//!
//! History invariants (enforced, not just recorded): the batched kernel
//! is no slower than the scalar executor on every ladder step, and at
//! least 2x faster at the n = 2^20 headline size (the observed factor
//! is far higher; 2x keeps the assertion robust on noisy CI machines).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_protocols::ProtocolSpec;
use crp_sim::{SerialBackend, Simulation, TrialStats};

/// The universe-size ladder; the last step is the headline size.
const LADDER: [usize; 3] = [10_000, 50_000, 1 << 20];

/// Trials per measured run: enough rounds for stable timing, small
/// enough that the scalar baseline stays in milliseconds.
const TRIALS: usize = 4000;

fn simulation(universe: usize) -> Simulation {
    Simulation::builder()
        .protocol(ProtocolSpec::new("decay").universe(universe))
        .participants((universe / 16).max(2))
        .max_rounds(64 * universe)
        .trials(TRIALS)
        .seed(0xBEEF)
        .build()
        .expect("the bench simulation is valid")
}

/// One path of the bench: the scalar reference or the batched kernel,
/// both on the calling thread.
fn run(simulation: &Simulation, scalar: bool) -> TrialStats {
    if scalar {
        simulation.run_reference()
    } else {
        simulation.run_on(&SerialBackend)
    }
    .expect("the bench simulation runs")
}

/// Runs one path, best of three, returning the stats and the fastest
/// wall-clock seconds (best-of damps scheduler noise, which matters
/// because the history asserts a speedup ratio).
fn measure(universe: usize, scalar: bool) -> (TrialStats, f64) {
    let simulation = simulation(universe);
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..3 {
        let start = Instant::now();
        let run = run(&simulation, scalar);
        best = best.min(start.elapsed().as_secs_f64());
        stats = Some(run);
    }
    (stats.expect("three runs happened"), best)
}

/// Simulated rounds per second: the throughput the kernels optimise.
fn rounds_per_sec(stats: &TrialStats, seconds: f64) -> f64 {
    stats.mean_rounds_overall() * stats.trials as f64 / seconds.max(1e-12)
}

/// Minimal hand-rolled JSON emission (the workspace has no serde).
fn write_json(fields: &[(String, String)]) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))?;
    Ok(path)
}

fn record_history() {
    let mut fields = vec![
        ("bench".to_string(), "\"kernels\"".to_string()),
        ("trials".to_string(), TRIALS.to_string()),
    ];
    let mut headline = 1.0;
    for universe in LADDER {
        let (scalar_stats, scalar_sec) = measure(universe, true);
        let (batched_stats, batched_sec) = measure(universe, false);
        assert_eq!(
            scalar_stats, batched_stats,
            "kernel diverged from the scalar executor at n = {universe}"
        );
        let scalar_rps = rounds_per_sec(&scalar_stats, scalar_sec);
        let batched_rps = rounds_per_sec(&batched_stats, batched_sec);
        let speedup = batched_rps / scalar_rps;
        assert!(
            speedup >= 1.0,
            "batched kernel slower than scalar at n = {universe}: {speedup:.2}x"
        );
        println!(
            "n = {universe}: scalar {scalar_rps:.0} rounds/s, \
             batched {batched_rps:.0} rounds/s ({speedup:.1}x)"
        );
        fields.push((format!("scalar_rps_{universe}"), format!("{scalar_rps:.0}")));
        fields.push((
            format!("batched_rps_{universe}"),
            format!("{batched_rps:.0}"),
        ));
        fields.push((format!("speedup_{universe}"), format!("{speedup:.2}")));
        headline = speedup;
    }
    assert!(
        headline >= 2.0,
        "batched kernel below the 2x floor at the headline size: {headline:.2}x"
    );
    match write_json(&fields) {
        Ok(path) => println!("history written to {}", path.display()),
        Err(err) => println!("could not write BENCH_kernels.json: {err}"),
    }
}

fn trial_kernels(c: &mut Criterion) {
    record_history();
    for universe in LADDER {
        let mut group = c.benchmark_group(format!("trial_kernels/{universe}"));
        group.sample_size(10);
        let simulation = simulation(universe);
        for (name, scalar) in [("scalar", true), ("batched", false)] {
            group.bench_with_input(
                BenchmarkId::new(name, universe),
                &simulation,
                |b, simulation| b.iter(|| black_box(run(simulation, scalar))),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, trial_kernels);
criterion_main!(benches);
