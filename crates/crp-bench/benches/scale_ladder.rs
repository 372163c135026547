//! Bench F-LADDER: the cost of one sweep as the universe grows, per
//! trial-kernel path and per execution backend.
//!
//! The grid is the `cold-n16k` one at every size: the command line's
//! registry column (`SweepProtocol::registry`) over `bimodal` and
//! `bursty`, 3072 trials per cell (12 shards each, 24 jobs), one fixed
//! seed.  Each universe size n ∈ {2^6, 2^10, 2^14, 2^20} is one group,
//! and each point is one kernel path on one backend:
//!
//! * `uniform-no-cd`: `decay`;
//! * `uniform-cd`: `willard`;
//! * `deterministic`: `det-advice-no-cd`, up to n = 2^14 (its serial
//!   run at 2^20 takes seconds, not milliseconds).
//!
//! The backends are `serial`, `thread` (2 threads) and `fleet` (2 local
//! worker processes, spawned once and kept warm across every point).
//! Each n also has one `reference` point: the `decay` grid run by
//! `SweepMatrix::run_reference`, serially on the scalar trial-at-a-time
//! loop.
//!
//! Each point is timed inside the measured closure and keeps its best
//! run, so one loop feeds the printed table, `BENCH_ladder.json` (one
//! JSON line per point at the workspace root) and the gates:
//!
//! * at every point, the CSV is byte-identical across backends, and the
//!   `reference` point's CSV equals `uniform-no-cd`'s;
//! * at n = 2^14, the fleet runs the `decay` grid in less than
//!   [`FLEET_TO_THREAD_CEILING`] times the `thread` backend's time;
//! * alias-table sampling stays at least 10× faster than rebuilding a
//!   `WeightedIndex` for every draw.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use crp_info::SizeDistribution;
use crp_predict::ScenarioLibrary;
use crp_sim::{
    FleetBackend, SerialBackend, ShardBackend, SweepMatrix, SweepProtocol, SweepResults,
    ThreadBackend,
};
use rand::distributions::Distribution as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The universe sizes, one benchmark group each.
const LADDER: [usize; 4] = [1 << 6, 1 << 10, 1 << 14, 1 << 20];
/// Trials per cell: the `cold-n16k` grid's 12 shards per cell.
const TRIALS_PER_CELL: usize = 3072;
/// The grid's scenarios.
const SCENARIOS: [&str; 2] = ["bimodal", "bursty"];
/// The grid's base seed.
const SEED: u64 = 1;
/// Threads of the `thread` backend and workers of the fleet.
const WORKERS: usize = 2;
/// The size the fleet-to-thread ratio is gated at.
const RATIO_N: usize = 1 << 14;
/// At n = 2^14, the fleet's best `decay` time must stay below this many
/// times the `thread` backend's.  Derived from 10 runs of this bench on
/// a 2-vCPU VM, with each fleet worker compiling each cell spec once,
/// whose ratios read 2.28, 2.80, 2.46, 3.13, 2.65, 2.32, 3.22, 1.93,
/// 3.92 and 2.27: the worst, 3.92 × 1.5 = 5.88, rounded up.  A change
/// that cuts the fleet workers' per-job cost tightens it.
const FLEET_TO_THREAD_CEILING: f64 = 6.0;

/// One kernel path of the ladder.
struct KernelPath {
    name: &'static str,
    protocol: &'static str,
    /// The largest universe the path runs at.
    max_n: usize,
}

const PATHS: [KernelPath; 3] = [
    KernelPath {
        name: "uniform-no-cd",
        protocol: "decay",
        max_n: 1 << 20,
    },
    KernelPath {
        name: "uniform-cd",
        protocol: "willard",
        max_n: 1 << 20,
    },
    KernelPath {
        name: "deterministic",
        protocol: "det-advice-no-cd",
        max_n: 1 << 14,
    },
];

/// One measured point.
struct Point {
    n: usize,
    path: &'static str,
    backend: &'static str,
    best: Duration,
    csv: String,
}

impl Point {
    fn ms(&self) -> f64 {
        self.best.as_secs_f64() * 1e3
    }

    fn trials_per_s(&self) -> f64 {
        (SCENARIOS.len() * TRIALS_PER_CELL) as f64 / self.best.as_secs_f64().max(1e-12)
    }
}

/// Micro-bench of the sampling hot path: 1M draws from a 4096-point
/// distribution through the cached alias table versus the seed
/// implementation's rebuild-the-`WeightedIndex`-per-draw path.  Asserts the
/// alias path is at least 10× faster (in practice it is orders of
/// magnitude: O(1) versus O(n) per draw).
fn sampling_hot_path() {
    const DRAWS: usize = 1_000_000;
    let truth = SizeDistribution::zipf(4096, 1.1).unwrap();

    // Warm the alias table outside the timed region.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    black_box(truth.sample(&mut rng));

    let alias_start = Instant::now();
    let mut alias_sum = 0usize;
    for _ in 0..DRAWS {
        alias_sum += truth.sample(&mut rng);
    }
    let alias_time = alias_start.elapsed();
    black_box(alias_sum);

    // The seed path, reproduced here: rebuild the cumulative table for
    // every single draw.  1M full rebuilds is prohibitively slow, so it is
    // timed over a subsample and scaled.
    const SEED_DRAWS: usize = 10_000;
    let seed_start = Instant::now();
    let mut seed_sum = 0usize;
    for _ in 0..SEED_DRAWS {
        let index = rand::distributions::WeightedIndex::new(truth.masses())
            .expect("masses form a distribution");
        seed_sum += index.sample(&mut rng) + 1;
    }
    let seed_time = seed_start
        .elapsed()
        .mul_f64(DRAWS as f64 / SEED_DRAWS as f64);
    black_box(seed_sum);

    let speedup = seed_time.as_secs_f64() / alias_time.as_secs_f64().max(1e-12);
    println!(
        "\n=== Sampling hot path (4096-point distribution, {DRAWS} draws) ===\n\
         alias table: {alias_time:?}   per-draw WeightedIndex rebuild (scaled): {seed_time:?}   \
         speedup: {speedup:.1}x"
    );
    assert!(
        speedup >= 10.0,
        "alias-table sampling must be at least 10x faster than the seed path, got {speedup:.1}x"
    );
}

/// The `cold-n16k` grid at universe `n`, for one registry protocol.
fn grid(library: &ScenarioLibrary, protocol: &str) -> SweepMatrix {
    SweepMatrix::new()
        .scenarios(SCENARIOS.map(|name| library.by_name(name).expect("a library scenario")))
        .protocol(SweepProtocol::registry(protocol).expect("a registry protocol"))
        .trials(TRIALS_PER_CELL)
        .seed(SEED)
}

/// Times `run` in criterion's loop under `id` and returns the point at
/// `(n, path, backend)` with its best run and the CSV it produced.
fn measure_point(
    group: &mut BenchmarkGroup<'_>,
    n: usize,
    path: &'static str,
    backend: &'static str,
    run: impl Fn() -> SweepResults,
) -> Point {
    let mut best = Duration::MAX;
    let mut csv = String::new();
    group.bench_with_input(
        BenchmarkId::new(format!("{path}/{backend}"), n),
        &(),
        |b, ()| {
            b.iter(|| {
                let start = Instant::now();
                let results = run();
                best = best.min(start.elapsed());
                csv = results.to_csv();
            });
        },
    );
    Point {
        n,
        path,
        backend,
        best,
        csv,
    }
}

/// Panics unless `actual` is byte-identical to `expected`, naming the
/// point and the first line that differs.
fn assert_same_csv(n: usize, what: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    match mismatch {
        Some((index, (want, got))) => panic!(
            "n = {n}: {what}: CSV line {} differs:\n  expected {want}\n  got      {got}",
            index + 1
        ),
        None => panic!(
            "n = {n}: {what}: CSV has {} lines, expected {}",
            actual.lines().count(),
            expected.lines().count()
        ),
    }
}

/// The measured point at `(n, path, backend)`.
fn point<'a>(points: &'a [Point], n: usize, path: &str, backend: &str) -> &'a Point {
    points
        .iter()
        .find(|p| p.n == n && p.path == path && p.backend == backend)
        .expect("the ladder measured this point")
}

fn print_and_record(points: &[Point]) {
    println!(
        "\n=== Scale ladder (2 cells x {TRIALS_PER_CELL} trials, best run per point) ===\n\
         {:>8}  {:<14} {:<7} {:>10} {:>12}",
        "n", "path", "backend", "ms", "trials/s"
    );
    let mut json = String::new();
    for point in points {
        println!(
            "{:>8}  {:<14} {:<7} {:>10.2} {:>12.0}",
            point.n,
            point.path,
            point.backend,
            point.ms(),
            point.trials_per_s()
        );
        writeln!(
            json,
            "{{\"n\": {}, \"path\": \"{}\", \"backend\": \"{}\", \"ms\": {:.3}, \"trials_per_s\": {:.0}}}",
            point.n,
            point.path,
            point.backend,
            point.ms(),
            point.trials_per_s()
        )
        .expect("writing to a String cannot fail");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ladder.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("history written to {}", path.display()),
        Err(err) => println!("could not write BENCH_ladder.json: {err}"),
    }
}

fn scale_ladder(c: &mut Criterion) {
    sampling_hot_path();
    let fleet = FleetBackend::local(WORKERS)
        .expect("the fleet needs the worker binary: cargo build --release --bin crp_experiments");
    let threads = ThreadBackend::new(WORKERS);
    let backends: [(&str, &dyn ShardBackend); 3] = [
        ("serial", &SerialBackend),
        ("thread", &threads),
        ("fleet", &fleet),
    ];
    let mut points = Vec::new();
    for n in LADDER {
        let library = ScenarioLibrary::new(n).expect("a ladder universe is valid");
        let mut group = c.benchmark_group("scale_ladder");
        group.sample_size(3);
        for path in PATHS.iter().filter(|path| n <= path.max_n) {
            let matrix = grid(&library, path.protocol);
            for &(backend_name, backend) in &backends {
                points.push(measure_point(
                    &mut group,
                    n,
                    path.name,
                    backend_name,
                    || matrix.run_on(backend).expect("the ladder grid runs"),
                ));
            }
        }
        let decay = grid(&library, "decay");
        points.push(measure_point(&mut group, n, "reference", "serial", || {
            decay.run_reference().expect("the ladder grid runs")
        }));
        group.finish();

        for measured in points.iter().filter(|p| p.n == n && p.path != "reference") {
            let serial = point(&points, n, measured.path, "serial");
            let what = format!("{} on {} vs serial", measured.path, measured.backend);
            assert_same_csv(n, &what, &serial.csv, &measured.csv);
        }
        assert_same_csv(
            n,
            "reference vs uniform-no-cd",
            &point(&points, n, "uniform-no-cd", "serial").csv,
            &point(&points, n, "reference", "serial").csv,
        );
    }

    print_and_record(&points);
    let fleet_time = point(&points, RATIO_N, "uniform-no-cd", "fleet").best;
    let thread_time = point(&points, RATIO_N, "uniform-no-cd", "thread").best;
    let ratio = fleet_time.as_secs_f64() / thread_time.as_secs_f64().max(1e-12);
    println!("fleet / thread at n = {RATIO_N}: {ratio:.2}x (ceiling {FLEET_TO_THREAD_CEILING}x)");
    assert!(
        ratio < FLEET_TO_THREAD_CEILING,
        "at n = {RATIO_N} the fleet took {fleet_time:?} and the thread backend {thread_time:?}: \
         {ratio:.2}x, not below the ceiling of {FLEET_TO_THREAD_CEILING}x"
    );
}

criterion_group!(benches, scale_ladder);
criterion_main!(benches);
