//! Bench F-CACHE: warm resubmission through the sweep service versus a
//! cold fleet computation.
//!
//! The workload is the service's reason to exist: the same 16-cell grid
//! submitted twice.  The first submission computes every `(cell, shard)`
//! job on a warm 2-worker fleet and fills the content-addressed result
//! cache; the second submission must settle 100% from the cache —
//! returning bit-identical `TrialStats` — and is asserted **≥5× faster**
//! than the cold run.  (In practice the gap is orders of magnitude: a
//! warm resubmission is a handful of cache reads and one TCP round
//! trip.)
//!
//! Everything runs in-process against a real `SweepServer` on loopback
//! TCP with real `crp_experiments worker` subprocesses, exactly like the
//! CLI `serve` / `submit` pair.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crp_fleet::WorkerEndpoint;
use crp_protocols::ProtocolSpec;
use crp_serve::{ResultCache, ServeClient, SweepServer};
use crp_sim::service::{submit_matrix, sweep_hooks};
use crp_sim::{
    RunnerConfig, SerialBackend, SweepMatrix, SweepPopulation, SweepProtocol, SweepResults,
};

/// Grid scale: 4 scenarios × 4 protocol columns = 16 cells of 512
/// trials (2 shards each).
const TRIALS_PER_CELL: usize = 512;
const UNIVERSE: usize = 1 << 8;
const WORKERS: usize = 2;

/// The warm resubmission must be at least this much faster than the
/// cold fleet computation.
const REQUIRED_SPEEDUP: f64 = 5.0;

fn grid() -> SweepMatrix {
    let library = crp_predict::ScenarioLibrary::new(UNIVERSE).expect("bench universe is valid");
    let mut matrix = SweepMatrix::new()
        .scenarios([
            library.bimodal(),
            library.geometric(),
            library.bursty(),
            library.adversarial_drift(),
        ])
        .trials(TRIALS_PER_CELL)
        .runner(RunnerConfig::with_trials(TRIALS_PER_CELL).seeded(29));
    for column in 0..4 {
        matrix = matrix.protocol(
            SweepProtocol::from_scenario(format!("decay-{column}"), |s| {
                ProtocolSpec::new("decay").universe(s.distribution().max_size())
            })
            // A heavy fixed population makes each trial genuinely
            // expensive (many contenders, many collision rounds), so the
            // cold run measures compute, not payload shuffling.
            .population(SweepPopulation::Fixed(UNIVERSE / 2))
            .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
        );
    }
    matrix
}

struct Service {
    addr: String,
    daemon: Option<std::thread::JoinHandle<Result<(), crp_serve::ServeError>>>,
    /// The result cache's directory, removed once the daemon is down.
    cache_dir: std::path::PathBuf,
}

impl Service {
    fn start() -> Result<Self, String> {
        let cache_dir =
            std::env::temp_dir().join(format!("crp-sweep-cache-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = ResultCache::open(&cache_dir).map_err(|e| e.to_string())?;
        // The worker binary resolution may fail in stripped
        // environments; surface it as a skippable error like the fleet
        // bench does.
        let endpoints: Vec<WorkerEndpoint> = crp_sim::FleetBackend::local(WORKERS)
            .map_err(|e| e.to_string())?
            .endpoints()
            .to_vec();
        let server =
            SweepServer::bind("127.0.0.1:0", endpoints, Some(cache)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let daemon = std::thread::spawn(move || server.serve(sweep_hooks()));
        Ok(Self {
            addr,
            daemon: Some(daemon),
            cache_dir,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(client) = ServeClient::connect(self.addr.as_str()) {
            let _ = client.shutdown_server();
        }
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn timed_submit(addr: &str, matrix: &SweepMatrix) -> (Duration, SweepResults, usize, usize) {
    let start = Instant::now();
    let (results, outcome) =
        submit_matrix(addr, matrix, |_, _, _| {}).expect("submission succeeds");
    let elapsed = start.elapsed();
    black_box(&results);
    (elapsed, results, outcome.job_hits, outcome.jobs_total)
}

fn cache_comparison() {
    let service = match Service::start() {
        Ok(service) => service,
        Err(err) => {
            println!("skipping sweep_cache comparison: {err}");
            return;
        }
    };
    let matrix = grid();
    let reference = matrix.run_on(&SerialBackend).expect("serial reference");

    let (cold_time, cold_results, cold_hits, total) = timed_submit(&service.addr, &matrix);
    assert_eq!(cold_hits, 0, "a fresh cache cannot hit");
    let (warm_time, warm_results, warm_hits, _) = timed_submit(&service.addr, &matrix);
    assert_eq!(warm_hits, total, "a resubmission must be 100% cache hits");

    // The cache changes wall-clock time, never a single bit of the
    // statistics.
    assert_eq!(reference, cold_results, "cold service run diverged");
    assert_eq!(reference, warm_results, "warm resubmission diverged");

    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-12);
    println!(
        "\n=== Sweep cache ({} cells, {total} jobs, {WORKERS} workers) ===\n\
         cold fleet run: {cold_time:?}   warm resubmission: {warm_time:?}   \
         speedup: {speedup:.1}x",
        reference.cells().len(),
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "a fully-warm resubmission must be at least {REQUIRED_SPEEDUP}x faster than a cold \
         fleet run (got {speedup:.1}x)"
    );
}

fn sweep_cache(c: &mut Criterion) {
    cache_comparison();
    // Criterion samples of the warm path (the cold path fills the cache
    // once in cache_comparison above; a fresh service here would skew
    // samples with process spawns).
    if let Ok(service) = Service::start() {
        let matrix = grid();
        let _ = submit_matrix(&service.addr, &matrix, |_, _, _| {});
        let mut group = c.benchmark_group("sweep_cache");
        group.sample_size(10);
        group.bench_with_input(
            criterion::BenchmarkId::new("warm-resubmission", WORKERS),
            &matrix,
            |b, m| b.iter(|| submit_matrix(&service.addr, m, |_, _, _| {}).unwrap()),
        );
        group.finish();
    }
}

criterion_group!(benches, sweep_cache);
criterion_main!(benches);
