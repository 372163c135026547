//! Bench F-OBS: the cost of the observability layer's *disabled* path,
//! recorded as `BENCH_obs.json` at the workspace root.
//!
//! Every shard the runner executes now pays the instrumentation tax —
//! two `Instant::now` reads, a counter increment, a histogram record,
//! and one relaxed-load trace guard — whether or not a trace sink is
//! installed.  The acceptance bar for the layer is that with tracing
//! disabled this tax stays under 5% of a `trial_kernels`-scale
//! workload.  The bench pins that two ways:
//!
//! * it measures the end-to-end workload (batched kernel, the same
//!   ladder as `trial_kernels`) and counts how many instrumented shard
//!   events actually fired via the global registry;
//! * it measures the disabled-path sequence in isolation (a micro loop
//!   over the exact operations `ShardJob::run_inline` added) and
//!   asserts `per_event_cost x events_per_run <= 5%` of the measured
//!   run time on every ladder step;
//! * it measures the span-propagation probe (the trace guard plus the
//!   thread-local `current_span` read a span-aware site performs) the
//!   same way, and pins it to the same 5% bar.
//!
//! The bench never installs a trace sink, so the criterion groups below
//! time the same disabled path the history asserts on.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_protocols::ProtocolSpec;
use crp_sim::{KernelChoice, Simulation, TrialStats};

/// The universe-size ladder; the last step is the headline size.
const LADDER: [usize; 3] = [10_000, 50_000, 1 << 20];

/// Trials per measured run, matching `trial_kernels`.
const TRIALS: usize = 4000;

fn simulation(universe: usize) -> Simulation {
    Simulation::builder()
        .protocol(ProtocolSpec::new("decay").universe(universe))
        .participants((universe / 16).max(2))
        .max_rounds(64 * universe)
        .trials(TRIALS)
        .seed(0xBEEF)
        .kernel(KernelChoice::Auto)
        .build()
        .expect("the bench simulation is valid")
}

/// Runs one configuration, best of three, returning the stats, the
/// fastest wall-clock seconds, and the number of instrumented shard
/// events one run fires (read back from the global registry, so the
/// count is whatever the runner actually recorded).
fn measure(universe: usize) -> (TrialStats, f64, u64) {
    let simulation = simulation(universe);
    let counter = || crp_obs::global().snapshot().counter("sim.shard.execute");
    let mut best = f64::INFINITY;
    let mut stats = None;
    let mut events = 0;
    for _ in 0..3 {
        let before = counter();
        let start = Instant::now();
        let run = simulation.run().expect("the bench simulation runs");
        best = best.min(start.elapsed().as_secs_f64());
        events = counter() - before;
        stats = Some(run);
    }
    (stats.expect("three runs happened"), best, events)
}

/// Simulated rounds per second: the throughput the workload sustains
/// with the instrumentation compiled in and tracing disabled.
fn rounds_per_sec(stats: &TrialStats, seconds: f64) -> f64 {
    stats.mean_rounds_overall() * stats.trials as f64 / seconds.max(1e-12)
}

/// Nanoseconds per disabled-path instrumentation sequence: the exact
/// per-shard additions — timer start/stop, trace guard, counter tick,
/// histogram record — against a scratch registry.
fn disabled_path_cost_ns() -> f64 {
    let registry = crp_obs::MetricsRegistry::new();
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for index in 0..ITERS {
        let shard_start = Instant::now();
        if crp_obs::trace_enabled() {
            crp_obs::emit(&crp_obs::TraceEvent::new("bench.noop").u64("shard", index));
        }
        let micros = shard_start.elapsed().as_micros() as u64;
        registry.inc("bench.shard.execute");
        registry.observe("bench.shard_micros", micros);
        black_box(micros);
    }
    start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

/// Nanoseconds per span probe on the disabled path: the relaxed-load
/// trace guard plus the thread-local `current_span` read — the two
/// operations a span-aware instrumentation site performs before
/// deciding whether to stamp.  No sink is installed and no span is
/// set on the thread, so this times exactly what an uninstrumented
/// run pays for span propagation being compiled in.
fn span_disabled_path_cost_ns() -> f64 {
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for index in 0..ITERS {
        let stamp = crp_obs::trace_enabled();
        let span = crp_obs::current_span();
        black_box((stamp, span, index));
    }
    start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

/// Minimal hand-rolled JSON emission (the workspace has no serde).
fn write_json(fields: &[(String, String)]) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))?;
    Ok(path)
}

fn record_history() {
    let per_event_ns = disabled_path_cost_ns();
    let span_probe_ns = span_disabled_path_cost_ns();
    let mut fields = vec![
        ("bench".to_string(), "\"obs\"".to_string()),
        ("trials".to_string(), TRIALS.to_string()),
        (
            "disabled_path_ns_per_event".to_string(),
            format!("{per_event_ns:.1}"),
        ),
        (
            "span_disabled_ns_per_event".to_string(),
            format!("{span_probe_ns:.1}"),
        ),
    ];
    for universe in LADDER {
        let (stats, seconds, events) = measure(universe);
        assert_eq!(stats.trials, TRIALS);
        assert!(events > 0, "the runner recorded no shard events");
        let rps = rounds_per_sec(&stats, seconds);
        let overhead = per_event_ns * 1e-9 * events as f64;
        let ratio = overhead / seconds.max(1e-12);
        println!(
            "n = {universe}: {rps:.0} rounds/s, {events} instrumented events, \
             disabled-path overhead {:.4}% of the run",
            ratio * 100.0
        );
        assert!(
            ratio <= 0.05,
            "disabled-path instrumentation exceeds the 5% bar at n = {universe}: \
             {per_event_ns:.0} ns x {events} events over {seconds:.4}s"
        );
        // Span propagation rides the same per-shard sites, so it is
        // pinned to the same bar: guard-plus-probe cost x events must
        // also stay under 5% of the run with tracing disabled.
        let span_ratio = span_probe_ns * 1e-9 * events as f64 / seconds.max(1e-12);
        assert!(
            span_ratio <= 0.05,
            "span-disabled probe exceeds the 5% bar at n = {universe}: \
             {span_probe_ns:.0} ns x {events} events over {seconds:.4}s"
        );
        fields.push((format!("rps_{universe}"), format!("{rps:.0}")));
        fields.push((format!("events_{universe}"), events.to_string()));
        fields.push((format!("overhead_ratio_{universe}"), format!("{ratio:.6}")));
        fields.push((
            format!("span_overhead_ratio_{universe}"),
            format!("{span_ratio:.6}"),
        ));
    }
    match write_json(&fields) {
        Ok(path) => println!("history written to {}", path.display()),
        Err(err) => println!("could not write BENCH_obs.json: {err}"),
    }
}

fn obs_overhead(c: &mut Criterion) {
    record_history();
    for universe in LADDER {
        let mut group = c.benchmark_group(format!("obs_overhead/{universe}"));
        group.sample_size(10);
        let simulation = simulation(universe);
        group.bench_with_input(
            BenchmarkId::new("disabled", universe),
            &simulation,
            |b, simulation| b.iter(|| black_box(simulation.run().unwrap())),
        );
        group.finish();
    }
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
