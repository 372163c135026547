//! End-to-end acceptance of the sweep service: a real `SweepServer`
//! over loopback TCP, dispatching to real `crp_experiments worker`
//! subprocesses, with the content-addressed result cache in the middle.
//!
//! The criteria under test:
//!
//! * a submission's statistics are **bit-identical** to a local
//!   `SerialBackend` run of the same matrix;
//! * a resubmission settles 100% from the cache — zero fleet work —
//!   and is again bit-identical;
//! * a corrupt cache entry is rejected (typed error inside, never a
//!   panic), recomputed, healed, and the result still does not move by
//!   a bit;
//! * an overlapping sweep — the same grid grown by a scenario — serves
//!   its old cells from the cache and computes only its new cells.

use crp_fleet::WorkerEndpoint;
use crp_predict::ScenarioLibrary;
use crp_protocols::ProtocolSpec;
use crp_serve::wire::cell_hash;
use crp_serve::{ResultCache, ServeClient, SweepServer};
use crp_sim::service::{compile_submission, submit_matrix, sweep_hooks};
use crp_sim::{SerialBackend, SweepMatrix, SweepProtocol};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crp_experiments");

fn worker_endpoints(workers: usize) -> Vec<WorkerEndpoint> {
    (0..workers)
        .map(|_| {
            WorkerEndpoint::local(
                WORKER_BIN,
                vec!["worker".to_string(), "--stdio".to_string()],
            )
        })
        .collect()
}

fn demo_matrix() -> SweepMatrix {
    let library = ScenarioLibrary::new(256).unwrap();
    SweepMatrix::new()
        .scenarios([library.bimodal(), library.adversarial_drift()])
        .protocol(
            SweepProtocol::from_scenario("decay", |s| {
                ProtocolSpec::new("decay").universe(s.distribution().max_size())
            })
            .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
        )
        .protocol(
            SweepProtocol::from_scenario("sorted-guess", |s| {
                ProtocolSpec::new("sorted-guess-cycling")
                    .universe(s.distribution().max_size())
                    .prediction(s.advice_condensed())
            })
            .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
        )
        .trials(300)
        .seed(0xCAFE)
}

#[test]
fn service_results_are_bit_identical_cached_and_self_healing() {
    let cache_dir =
        std::env::temp_dir().join(format!("crp-sweep-service-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = ResultCache::open(&cache_dir).unwrap();
    let server =
        SweepServer::bind("127.0.0.1:0", worker_endpoints(2), Some(cache.clone())).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.serve(sweep_hooks()));

    let matrix = demo_matrix();
    let reference = matrix.run_on(&SerialBackend).unwrap();

    // Cold: everything computed on the fleet, results bit-identical to
    // the local serial run.
    let (results, outcome) = submit_matrix(&addr, &matrix, |_, _, _| {}).unwrap();
    assert_eq!(reference, results, "service run diverged from serial");
    assert_eq!(outcome.jobs_total, 8, "4 cells x 2 shards");
    assert_eq!(outcome.job_hits, 0);
    assert_eq!(outcome.computed, 8);

    // Warm: 100% cache hits, zero fleet work, still bit-identical.
    let mut progress_hits = 0;
    let (results, outcome) = submit_matrix(&addr, &matrix, |_, _, hits| {
        progress_hits = hits;
    })
    .unwrap();
    assert_eq!(reference, results, "cache hits diverged from serial");
    assert_eq!(outcome.job_hits, outcome.jobs_total);
    assert_eq!(outcome.computed, 0);
    assert_eq!(progress_hits, outcome.jobs_total);
    assert!(outcome.cells.iter().all(|cell| cell.cached));

    // Vandalise the first cell's cache entry, and plant a garbage entry
    // under one of its job keys (which the daemon never reads): the
    // service must detect the corruption, recompute the cell's jobs,
    // heal the entry, and return the same bits as ever.
    let (submission, _) = compile_submission(&matrix).unwrap();
    let job_keys = submission.cells[0].job_keys();
    let cell_key = cell_hash(&job_keys);
    for key in [&cell_key, &job_keys[0]] {
        let path = cache_dir.join(&key[..2]).join(format!("{key}.crp"));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"crp-cache v1\nvandalised").unwrap();
        assert!(
            matches!(
                cache.get(key),
                Err(crp_serve::ServeError::CorruptCache { .. })
            ),
            "the vandalised entry must surface as a typed corruption error"
        );
    }
    let (results, outcome) = submit_matrix(&addr, &matrix, |_, _, _| {}).unwrap();
    assert_eq!(reference, results, "recomputed cell diverged");
    assert_eq!(
        outcome.computed, 2,
        "the corrupted cell recomputes its 2 jobs"
    );
    assert!(cache.get(&cell_key).unwrap().is_some());

    // Overlap: the same grid plus a third scenario.  Its cells come
    // last, so the 4 old cells keep their indices and seeds and are
    // cell hits; only the 2 new cells' jobs run.
    let overlapping = demo_matrix().scenario(ScenarioLibrary::new(256).unwrap().bursty());
    let overlap_reference = overlapping.run_on(&SerialBackend).unwrap();
    let (results, outcome) = submit_matrix(&addr, &overlapping, |_, _, _| {}).unwrap();
    assert_eq!(overlap_reference, results);
    assert_eq!(overlap_reference.to_csv(), results.to_csv());
    assert_eq!(outcome.jobs_total, 12, "6 cells x 2 shards");
    let cached: Vec<bool> = outcome.cells.iter().map(|cell| cell.cached).collect();
    assert_eq!(cached, [true, true, true, true, false, false]);
    assert_eq!(outcome.job_hits, 8);
    assert_eq!(outcome.computed, 4, "only the 2 new cells' jobs run");
    let (_, outcome) = submit_matrix(&addr, &overlapping, |_, _, _| {}).unwrap();
    assert_eq!(outcome.job_hits, outcome.jobs_total);

    ServeClient::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
