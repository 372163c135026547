//! Fault injection against the fleet dispatcher: workers that die
//! mid-stream and workers that answer garbage must not change a single
//! bit of the statistics — the dispatcher re-dispatches their jobs on
//! the surviving workers and drops whatever duplicated or mangled
//! answers still arrive.
//!
//! The sabotaged workers are the *real* `crp_experiments worker` binary
//! with a crp-fleet fault injection in their (per-endpoint) arguments:
//! `--fault die@N` makes the worker process write a truncated frame and
//! hard-exit when job N arrives; `--fault garbage@N` makes it answer
//! every job from the N-th onwards with bytes that are not a frame at
//! all.

use crp_fleet::WorkerEndpoint;
use crp_predict::ScenarioLibrary;
use crp_protocols::ProtocolSpec;
use crp_sim::{FleetBackend, SerialBackend, Simulation, SweepMatrix, SweepProtocol, TrialStats};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crp_experiments");

fn worker_args() -> Vec<String> {
    vec!["worker".to_string(), "--stdio".to_string()]
}

fn healthy() -> WorkerEndpoint {
    WorkerEndpoint::local(WORKER_BIN, worker_args())
}

fn sabotaged(fault: &str) -> WorkerEndpoint {
    let mut args = worker_args();
    args.extend(["--fault".to_string(), fault.to_string()]);
    WorkerEndpoint::local(WORKER_BIN, args)
}

/// A multi-shard, sampled-population simulation (5 shards), so retries
/// genuinely interleave with healthy completions in the merge.
fn simulation() -> Simulation {
    let library = ScenarioLibrary::new(512).unwrap();
    let scenario = library.bimodal();
    Simulation::builder()
        .protocol(
            ProtocolSpec::new("sorted-guess-cycling")
                .universe(512)
                .prediction(scenario.advice_condensed()),
        )
        .truth(scenario.distribution().clone())
        .max_rounds(64 * 512)
        .trials(1200)
        .seed(0xDECAF)
        .build()
        .unwrap()
}

fn serial_reference() -> TrialStats {
    simulation().run_on(&SerialBackend).unwrap()
}

#[test]
fn a_worker_dying_mid_stream_is_retried_bit_identically() {
    // The dying worker serves one job per process life, then writes a
    // truncated frame and exits; the dispatcher respawns it (up to its
    // reconnect budget) and re-dispatches the lost jobs.
    let fleet = FleetBackend::with_endpoints(vec![sabotaged("die@1"), healthy()]);
    let stats = simulation().run_on(&fleet).unwrap();
    assert_eq!(stats, serial_reference(), "worker death changed the stats");
}

#[test]
fn a_worker_answering_garbage_is_retried_bit_identically() {
    // The garbage worker answers every job with unframable bytes; every
    // one of its jobs must be recomputed by the healthy worker.
    let fleet = FleetBackend::with_endpoints(vec![sabotaged("garbage@0"), healthy()]);
    let stats = simulation().run_on(&fleet).unwrap();
    assert_eq!(
        stats,
        serial_reference(),
        "garbage answers changed the stats"
    );
}

#[test]
fn a_worker_answering_well_framed_nonsense_is_retried_bit_identically() {
    // The mangling worker frames its answers correctly, but their bodies
    // are not accumulators; the dispatcher-side validator must reject
    // them before the job settles and recompute on the healthy worker.
    let fleet = FleetBackend::with_endpoints(vec![sabotaged("mangle@0"), healthy()]);
    let stats = simulation().run_on(&fleet).unwrap();
    assert_eq!(
        stats,
        serial_reference(),
        "mangled answers changed the stats"
    );
}

#[test]
fn a_sweep_survives_both_faults_at_once() {
    let library = ScenarioLibrary::new(256).unwrap();
    let matrix = SweepMatrix::new()
        .scenarios([library.bimodal(), library.adversarial_drift()])
        .protocol(
            SweepProtocol::from_scenario("decay", |s| {
                ProtocolSpec::new("decay").universe(s.distribution().max_size())
            })
            .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
        )
        .trials(600)
        .seed(31);
    let reference = matrix.run_on(&SerialBackend).unwrap();
    let fleet =
        FleetBackend::with_endpoints(vec![sabotaged("die@2"), sabotaged("garbage@1"), healthy()]);
    let results = matrix.run_on(&fleet).unwrap();
    assert_eq!(reference, results, "faulty pool diverged from serial");
}

#[test]
fn a_pool_with_no_surviving_workers_errors_instead_of_hanging() {
    // Garbage-only pool: every attempt fails, the dispatcher runs out of
    // retries and reports a typed backend error.
    let fleet = FleetBackend::with_endpoints(vec![sabotaged("garbage@0")]);
    let err = simulation().run_on(&fleet).unwrap_err();
    assert!(
        matches!(err, crp_sim::SimError::Backend { .. }),
        "got {err:?}"
    );
}
