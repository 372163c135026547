//! Bench F-SCALE: the event-loop dispatcher's drain time as the fleet
//! grows.
//!
//! The workload isolates *dispatch overhead*: batches of tiny echo jobs
//! over loopback TCP workers whose compute is effectively free, so the
//! drain time is dominated by what the scheduler itself costs — its
//! readiness bookkeeping.  The event loop multiplexes every endpoint
//! from a single thread, which is the property that lets a dispatcher
//! drive a 100+-worker fleet without 100+ threads, so the per-job cost
//! must not grow with the pool.
//!
//! A small pool (4 workers) and a large one (128 workers) are timed on
//! absolute throughput: the per-job drain time at 128 workers must stay
//! within 2× of the per-job time at 4, and a 128-job drain must finish
//! under 10 ms.  The figures are recorded as `BENCH_dispatch.json` at
//! the workspace root.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crp_fleet::{
    write_frame, BlobSet, Dispatcher, FleetError, FrameReader, JobPayload, Message, WorkerEndpoint,
    PROTOCOL_VERSION,
};

/// The small pool the per-job cost is compared against.
const SMALL_FLEET: usize = 4;
/// The large pool whose per-job cost must not grow.
const LARGE_FLEET: usize = 128;
/// Tiny jobs per batch, per fleet size: enough that every worker sees
/// work, small enough that compute never dominates.
const JOBS_PER_WORKER: usize = 1;
/// Timed repetitions (the minimum is reported, robust to scheduler
/// noise).
const REPETITIONS: usize = 5;
/// The per-job drain time at the large pool may be at most this factor
/// of the per-job time at the small pool.
const PER_JOB_GROWTH_CEILING: f64 = 2.0;
/// A batch of one job per large-pool worker must drain within this.
const LARGE_DRAIN_CEILING: Duration = Duration::from_millis(10);

/// Binds `n` in-process loopback echo workers, each served forever from
/// a detached thread.
///
/// These are deliberately *minimal* frame-level workers — hello, then
/// an inline `job` → `done` echo loop — rather than the full
/// `crp_fleet::serve` worker, which spawns a thread per job so pings
/// are answered mid-job.  A tiny echo needs no such concurrency, and
/// leaving it out keeps the measured drain time the *dispatcher's*
/// overhead instead of worker-side thread churn.
fn spawn_echo_fleet(n: usize) -> Vec<WorkerEndpoint> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
            let addr = listener.local_addr().expect("bound address");
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    std::thread::spawn(move || {
                        stream.set_nodelay(true).ok();
                        let mut reader = FrameReader::new(&stream);
                        let mut writer = &stream;
                        let hello = Message::Hello {
                            version: PROTOCOL_VERSION,
                            capacity: 1,
                        };
                        if write_frame(&mut writer, &hello.encode()).is_err() {
                            return;
                        }
                        while let Ok(Some(frame)) = reader.read_frame() {
                            let answer = match Message::decode(&frame) {
                                Ok(Message::Job { id, payload, .. }) => Message::Done {
                                    id,
                                    payload: format!("echo:{payload}"),
                                },
                                Ok(Message::Ping { id }) => Message::Pong { id },
                                Ok(Message::Shutdown) | Err(_) => return,
                                Ok(_) => continue,
                            };
                            if write_frame(&mut writer, &answer.encode()).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
            WorkerEndpoint::tcp(addr.to_string())
        })
        .collect()
}

/// Dispatches one batch of self-contained jobs, accepting every answer.
fn dispatch(dispatcher: &Dispatcher, jobs: &[JobPayload]) -> Result<Vec<String>, FleetError> {
    dispatcher.dispatch(jobs, &BlobSet::new(), &|_| {}, &|_, _| Ok(()))
}

/// Best-of-N time to drain one batch of tiny jobs on a *warm* pool (the
/// untimed warm-up batch connects every worker and verifies answers).
fn drain_time(dispatcher: &Dispatcher, jobs: &[JobPayload]) -> Duration {
    let answers = dispatch(dispatcher, jobs).expect("echo fleet answers");
    assert_eq!(answers.len(), jobs.len());
    for (job, answer) in jobs.iter().zip(&answers) {
        assert_eq!(
            answer,
            &format!("echo:{}", job.payload),
            "echo fleet must echo"
        );
    }
    (0..REPETITIONS)
        .map(|_| {
            let start = Instant::now();
            black_box(dispatch(dispatcher, jobs).expect("warm batch"));
            start.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

fn batch(workers: usize) -> Vec<JobPayload> {
    (0..workers * JOBS_PER_WORKER)
        .map(|i| JobPayload::new(format!("j{i}"), Vec::new()))
        .collect()
}

/// Minimal hand-rolled JSON emission (the workspace has no serde).
fn write_json(fields: &[(String, String)]) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dispatch.json");
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))?;
    Ok(path)
}

fn scale_measurement() {
    let mut fields = vec![
        ("bench".to_string(), "\"dispatch\"".to_string()),
        ("jobs_per_worker".to_string(), JOBS_PER_WORKER.to_string()),
    ];
    let mut per_job = Vec::new();
    let mut large_drain = Duration::ZERO;
    for workers in [SMALL_FLEET, LARGE_FLEET] {
        let jobs = batch(workers);
        let drain = drain_time(&Dispatcher::new(spawn_echo_fleet(workers)), &jobs);
        let job_us = drain.as_secs_f64() * 1e6 / jobs.len() as f64;
        println!(
            "{workers:>4} workers, {} jobs: event loop {drain:?} ({job_us:.1}us per job)",
            jobs.len(),
        );
        fields.push((format!("event_us_{workers}"), drain.as_micros().to_string()));
        per_job.push(job_us);
        large_drain = drain;
    }
    let jobs_per_s = (LARGE_FLEET * JOBS_PER_WORKER) as f64 / large_drain.as_secs_f64().max(1e-12);
    fields.push((
        format!("jobs_per_s_{LARGE_FLEET}"),
        format!("{jobs_per_s:.0}"),
    ));
    match write_json(&fields) {
        Ok(path) => println!("history written to {}", path.display()),
        Err(err) => println!("could not write BENCH_dispatch.json: {err}"),
    }
    let growth = per_job[1] / per_job[0].max(1e-12);
    assert!(
        growth <= PER_JOB_GROWTH_CEILING,
        "per-job drain time at {LARGE_FLEET} workers is {growth:.2}x the time at \
         {SMALL_FLEET} (ceiling {PER_JOB_GROWTH_CEILING}x)"
    );
    assert!(
        large_drain < LARGE_DRAIN_CEILING,
        "a {LARGE_FLEET}-job drain took {large_drain:?} (ceiling {LARGE_DRAIN_CEILING:?})"
    );
}

fn fleet_scale(c: &mut Criterion) {
    scale_measurement();
    let mut group = c.benchmark_group("fleet_scale");
    group.sample_size(10);
    for workers in [SMALL_FLEET, LARGE_FLEET] {
        let jobs = batch(workers);
        let event = Dispatcher::new(spawn_echo_fleet(workers));
        group.bench_with_input(
            criterion::BenchmarkId::new("event-loop", workers),
            &jobs,
            |b, jobs| b.iter(|| dispatch(&event, jobs).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, fleet_scale);
criterion_main!(benches);
