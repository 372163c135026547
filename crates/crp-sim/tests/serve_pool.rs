//! The sweep daemon's worker pool: `serve` resolves it with
//! [`FleetBackend::pool`], exactly as a fleet sweep does — manifest or
//! `--threads` local workers, with the `--chaos` plan applied — and its
//! `stats` report gives every local worker its own health and metrics
//! lines.

use crp_fleet::ChaosPlan;
use crp_predict::ScenarioLibrary;
use crp_serve::SweepServer;
use crp_sim::service::{compile_submission, results_from_outcome, sweep_hooks};
use crp_sim::{FleetBackend, RunnerConfig, SweepMatrix, SweepProtocol};

/// A 2-cell `decay` grid at n = 256: 600 trials, so 3 jobs per cell.
fn decay_grid(seed: u64) -> SweepMatrix {
    let library = ScenarioLibrary::new(256).unwrap();
    SweepMatrix::new()
        .scenarios([library.bimodal(), library.bursty()])
        .protocol(SweepProtocol::registry("decay").unwrap())
        .trials(600)
        .seed(seed)
}

/// Runs `matrix` as one submission on `server`, checks its results
/// against the scalar reference, and returns the daemon's `stats` report.
fn submit(server: &SweepServer, matrix: &SweepMatrix) -> String {
    let (submission, cells) = compile_submission(matrix).unwrap();
    let outcome = server
        .run_submission(&submission, sweep_hooks(), &|_, _, _| {})
        .unwrap();
    assert_eq!(
        results_from_outcome(cells, &outcome).unwrap(),
        matrix.run_reference().unwrap()
    );
    server.stats_report()
}

/// One worker health line of a `stats` report.
struct Health {
    label: String,
    dispatched: u64,
    completed: u64,
    requeued: u64,
}

/// The worker health lines of a `stats` report, in report order.
fn health_lines(report: &str) -> Vec<Health> {
    report
        .lines()
        .filter_map(|line| {
            let (label, rest) = line.strip_prefix("worker ")?.split_once(" dispatched=")?;
            let counters = format!("dispatched={rest}");
            let counter = |name: &str| -> u64 {
                counters
                    .split(' ')
                    .find_map(|field| field.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
                    .unwrap_or_else(|| panic!("no {name} in {line:?}"))
            };
            Some(Health {
                label: label.to_string(),
                dispatched: counter("dispatched"),
                completed: counter("completed"),
                requeued: counter("requeued"),
            })
        })
        .collect()
}

#[test]
fn a_daemon_with_a_chaos_plan_requeues_the_sabotaged_workers_jobs() {
    let config = RunnerConfig::with_trials(600)
        .with_threads(2)
        .with_chaos(ChaosPlan::parse("0:die@0").unwrap());
    let server =
        SweepServer::bind("127.0.0.1:0", FleetBackend::pool(&config).unwrap(), None).unwrap();
    // Worker 0 dies on every job it is sent, so every job it gets is
    // requeued onto worker 1 and the results stay bit-identical.  Which
    // worker says hello first is a race, so submit until worker 0 has
    // been sent a job.
    for seed in 0..20 {
        let report = submit(&server, &decay_grid(seed));
        let health = health_lines(&report);
        let sabotaged = health
            .iter()
            .find(|worker| worker.label == "local worker #0")
            .expect("worker 0 has a health line");
        if sabotaged.dispatched == 0 {
            continue;
        }
        assert_eq!(sabotaged.completed, 0, "{report}");
        assert_eq!(sabotaged.requeued, sabotaged.dispatched, "{report}");
        return;
    }
    panic!("worker 0 was never sent a job in 20 submissions");
}

#[test]
fn each_local_worker_reports_its_own_health_and_metrics() {
    let config = RunnerConfig::with_trials(600).with_threads(2);
    let server =
        SweepServer::bind("127.0.0.1:0", FleetBackend::pool(&config).unwrap(), None).unwrap();
    let report = submit(&server, &decay_grid(7));
    let health = health_lines(&report);
    let labels: Vec<&str> = health.iter().map(|worker| worker.label.as_str()).collect();
    assert_eq!(labels, ["local worker #0", "local worker #1"], "{report}");
    assert_eq!(
        health.iter().map(|worker| worker.dispatched).sum::<u64>(),
        6,
        "2 cells x 3 jobs: {report}"
    );
    for label in labels {
        assert_eq!(
            report
                .lines()
                .filter(|line| line.starts_with(&format!("worker {label} metrics:")))
                .count(),
            1,
            "{report}"
        );
    }
}

/// The rollup's value of counter `name` in a `stats` report (0 when no
/// worker has counted it).
fn rollup_counter(report: &str, name: &str) -> u64 {
    let prefix = format!("rollup counter {name} ");
    report
        .lines()
        .find_map(|line| line.strip_prefix(&prefix)?.parse().ok())
        .unwrap_or(0)
}

/// Each worker's own value of counter `name`, in report order.
fn worker_counters(report: &str, name: &str) -> Vec<u64> {
    let prefix = format!("  counter {name} ");
    let mut counters = Vec::new();
    for line in report.lines() {
        if line.starts_with("worker ") && line.ends_with(" metrics:") {
            counters.push(0);
        } else if let (Some(value), Some(last)) = (line.strip_prefix(&prefix), counters.last_mut())
        {
            *last = value.parse().unwrap();
        }
    }
    counters
}

#[test]
fn a_warm_pool_compiles_each_spec_once_per_worker_across_seeds() {
    let config = RunnerConfig::with_trials(600).with_threads(2);
    let server =
        SweepServer::bind("127.0.0.1:0", FleetBackend::pool(&config).unwrap(), None).unwrap();
    // Which jobs a worker is sent is a race, so submit fresh seeds until
    // each worker has compiled both cells' spec: one miss per worker and
    // spec, whatever the seed.
    let mut seed = 0;
    let mut report = String::new();
    while worker_counters(&report, "sim.spec_cache.miss") != [2, 2] {
        assert!(
            seed < 20,
            "the workers never both ran both cells:\n{report}"
        );
        report = submit(&server, &decay_grid(seed));
        seed += 1;
    }
    assert_eq!(
        rollup_counter(&report, "sim.spec_cache.miss"),
        4,
        "{report}"
    );
    let hits = rollup_counter(&report, "sim.spec_cache.hit");
    // A new seed compiles nothing: every one of its 6 jobs hits.
    let next = submit(&server, &decay_grid(seed));
    assert_eq!(rollup_counter(&next, "sim.spec_cache.miss"), 4, "{next}");
    assert_eq!(
        rollup_counter(&next, "sim.spec_cache.hit"),
        hits + 6,
        "{next}"
    );
}
