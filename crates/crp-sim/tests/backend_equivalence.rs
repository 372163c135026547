//! The acceptance criterion of the executor-agnostic backend refactor:
//! `SerialBackend`, `ThreadBackend` (1/2/8 workers) and `FleetBackend`
//! (persistent worker pools — uneven capacity, elastic, pipelined, and
//! one with an injected worker death) must produce **bit-identical**
//! `TrialStats` for the same configuration, equal to the scalar
//! reference (`run_reference`) — for a single `Simulation` and for a
//! whole `SweepMatrix` executed through the work-stealing scheduler.
//!
//! The fleet backends spawn the real `crp_experiments` binary (cargo
//! exposes its path to integration tests via
//! `CARGO_BIN_EXE_crp_experiments`), so these tests exercise the full
//! wire round trip: spec out, accumulator back, framed over long-lived
//! worker stdio.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crp_fleet::WorkerEndpoint;
use crp_predict::ScenarioLibrary;
use crp_protocols::ProtocolSpec;
use crp_sim::{
    FleetBackend, SerialBackend, ShardBackend, Simulation, SweepMatrix, SweepProtocol,
    ThreadBackend,
};

/// The worker binary cargo built alongside this test.
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crp_experiments");

/// Serialises installing the process-wide trace sink against every
/// other test in this binary.  A fleet batch decides whether to stamp
/// spans when it starts, so a sink installed while a sibling's batch is
/// in flight would record that batch's dispatches without spans.  The
/// tracing test takes the write side; every other test reads.
static TRACE_GATE: RwLock<()> = RwLock::new(());

/// A held side of [`TRACE_GATE`].  Once the tracing test installs the
/// sink it stays installed, so every pool spawned afterwards writes
/// `.worker-<n>` sibling traces; releasing the gate removes this
/// process's trace files, a failing test's included.  Each test holds
/// its gate longer than its pools, whose workers are reaped on drop, so
/// no file appears after the last release.
struct Gate<G> {
    _lock: G,
}

impl<G> Drop for Gate<G> {
    fn drop(&mut self) {
        if !crp_obs::trace_enabled() {
            return;
        }
        let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
            return;
        };
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(&trace_file_name())
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// The tracing test's trace file, under the system temp dir.
fn trace_file_name() -> String {
    format!("crp-backend-equivalence-trace-{}.jsonl", std::process::id())
}

fn shared() -> Gate<RwLockReadGuard<'static, ()>> {
    Gate {
        _lock: TRACE_GATE
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    }
}

fn exclusive() -> Gate<RwLockWriteGuard<'static, ()>> {
    Gate {
        _lock: TRACE_GATE
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    }
}

/// A fleet pool of two persistent local workers, one of which is
/// sabotaged to die after its first job — the dispatcher must respawn /
/// re-dispatch without changing a single bit of the statistics.
fn fleet_with_dying_worker() -> FleetBackend {
    let args = vec!["worker".to_string(), "--stdio".to_string()];
    let mut dying = args.clone();
    dying.extend(["--fault".to_string(), "die@1".to_string()]);
    FleetBackend::with_endpoints(vec![
        WorkerEndpoint::local(WORKER_BIN, dying),
        WorkerEndpoint::local(WORKER_BIN, args),
    ])
}

/// One worker whose hello advertises capacity 4: the dispatcher keeps up
/// to four jobs pipelined on the single connection (answers tagged by
/// id, possibly out of order) — and the statistics must not move a bit.
fn fleet_with_capacity_4_worker() -> FleetBackend {
    FleetBackend::with_endpoints(vec![WorkerEndpoint::local(
        WORKER_BIN,
        vec![
            "worker".to_string(),
            "--stdio".to_string(),
            "--capacity".to_string(),
            "4".to_string(),
        ],
    )])
}

/// An uneven pipelined pool: one worker advertising capacity 3 next to
/// a plain capacity-1 worker, so the least-loaded placement fills the
/// two connections at different rates — and the statistics must not
/// move a bit.
fn fleet_with_uneven_capacity() -> FleetBackend {
    let args = vec!["worker".to_string(), "--stdio".to_string()];
    let mut wide = args.clone();
    wide.extend(["--capacity".to_string(), "3".to_string()]);
    FleetBackend::with_endpoints(vec![
        WorkerEndpoint::local(WORKER_BIN, wide),
        WorkerEndpoint::local(WORKER_BIN, args),
    ])
}

/// A pool whose second worker joins *elastically*: the backend starts
/// with one fixed local worker plus a registration listener, and a
/// `worker --join` subprocess dials in while (or just before) the batch
/// runs.  The join, and the joiner's eventual departure, must not move
/// a bit of the statistics.
// The joiner exits on its own once the dispatcher hangs up; the test
// process is short-lived, so it is never reaped explicitly.
#[allow(clippy::zombie_processes)]
fn fleet_with_elastic_joiner() -> FleetBackend {
    let backend = FleetBackend::local_with_command(1, WORKER_BIN);
    let addr = backend
        .listen_for_workers("127.0.0.1:0")
        .expect("bind registration listener");
    std::process::Command::new(WORKER_BIN)
        .args(["worker", "--join", &addr.to_string()])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn joining worker");
    backend
}

/// Every backend the equivalence criterion quantifies over.
fn all_backends() -> Vec<(&'static str, Box<dyn ShardBackend>)> {
    vec![
        ("serial", Box::new(SerialBackend)),
        ("thread-1", Box::new(ThreadBackend::new(1))),
        ("thread-2", Box::new(ThreadBackend::new(2))),
        ("thread-8", Box::new(ThreadBackend::new(8))),
        (
            "fleet-2",
            Box::new(FleetBackend::local_with_command(2, WORKER_BIN)),
        ),
        (
            "fleet-uneven-capacity",
            Box::new(fleet_with_uneven_capacity()),
        ),
        ("fleet-elastic-join", Box::new(fleet_with_elastic_joiner())),
        ("fleet-dying-worker", Box::new(fleet_with_dying_worker())),
        ("fleet-capacity-4", Box::new(fleet_with_capacity_4_worker())),
    ]
}

#[test]
fn simulation_stats_are_bit_identical_across_all_backends() {
    let _gate = shared();
    // 700 trials = 3 shards, so the merge path is genuinely exercised;
    // a sampled population exercises the distribution wire codec.  Every
    // backend runs the production path (the batched struct-of-arrays
    // kernel) and must agree with the scalar reference.
    let library = ScenarioLibrary::new(512).unwrap();
    let scenario = library.bimodal();
    let simulation = Simulation::builder()
        .protocol(
            ProtocolSpec::new("sorted-guess-cycling")
                .universe(512)
                .prediction(scenario.advice_condensed()),
        )
        .truth(scenario.distribution().clone())
        .max_rounds(64 * 512)
        .trials(700)
        .seed(0xFEED)
        .build()
        .unwrap();

    let reference = simulation.run_reference().unwrap();
    assert_eq!(reference.trials, 700);
    for (name, backend) in all_backends() {
        let stats = simulation.run_on(backend.as_ref()).unwrap();
        // PartialEq on TrialStats compares every field, including
        // every f64 bit of the Welford moments and sketch quantiles.
        assert_eq!(reference, stats, "backend {name} diverged");
    }
}

#[test]
fn sweep_stats_are_bit_identical_across_all_backends_and_seeds() {
    let _gate = shared();
    // Property-style: several seeds over a multi-cell grid (2 scenarios x
    // 2 protocols), each cell spanning multiple shards, executed through
    // the work-stealing (cell, shard) queue on every backend.
    let library = ScenarioLibrary::new(256).unwrap();
    for seed in [1u64, 99, 0xC0FFEE] {
        let matrix = SweepMatrix::new()
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
            .seed(seed);

        let reference = matrix.run_reference().unwrap();
        assert_eq!(reference.cells().len(), 4);
        for (name, backend) in all_backends() {
            let results = matrix.run_on(backend.as_ref()).unwrap();
            assert_eq!(reference, results, "backend {name} diverged at seed {seed}");
        }
    }
}

#[test]
fn tracing_does_not_move_a_bit_of_the_statistics() {
    // The observability acceptance bar: enabling the JSONL trace sink
    // must not move a single bit of the statistics on any backend.
    // The reference runs *before* the sink is installed (tracing off).
    // Installing the process-wide sink waits for every sibling test to
    // finish and holds them off until this test is done, so no batch
    // that started untraced lands in the trace.
    let _gate = exclusive();
    let library = ScenarioLibrary::new(256).unwrap();
    let scenario = library.bimodal();
    let simulation = Simulation::builder()
        .protocol(
            ProtocolSpec::new("sorted-guess-cycling")
                .universe(256)
                .prediction(scenario.advice_condensed()),
        )
        .truth(scenario.distribution().clone())
        .max_rounds(64 * 256)
        .trials(700)
        .seed(0xBEE5)
        .build()
        .unwrap();
    let reference = simulation.run_reference().unwrap();

    let path = std::env::temp_dir().join(trace_file_name());
    crp_obs::init_trace(path.to_str().unwrap()).unwrap();
    assert!(crp_obs::trace_enabled());
    for (name, backend) in all_backends() {
        let stats = simulation.run_on(backend.as_ref()).unwrap();
        assert_eq!(
            reference, stats,
            "backend {name} diverged with tracing enabled"
        );
    }

    // Every line the run wrote must satisfy the schema, and the file
    // must contain the runner and dispatcher event families.
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut seen = std::collections::BTreeSet::new();
    let mut stamped_dispatches = 0usize;
    for line in text.lines() {
        let kind = crp_obs::check_trace_line(line).expect("schema-valid trace line");
        if kind == "fleet.dispatch" {
            // With tracing on, dispatched jobs carry content-derived
            // span ids; the bit-identity assertion above therefore
            // quantifies over the span-stamped path, not just the sink.
            let fields = crp_obs::trace_line_fields(line).expect("parseable trace line");
            let span = fields
                .iter()
                .find(|(name, _)| name == "span")
                .map(|(_, value)| value.trim_matches('"').to_string())
                .expect("fleet.dispatch is span-stamped when tracing is on");
            assert!(crp_obs::is_span_id(&span), "malformed span id {span:?}");
            stamped_dispatches += 1;
        }
        seen.insert(kind);
    }
    for required in ["kernel.select", "shard.execute", "fleet.dispatch"] {
        assert!(seen.contains(required), "no {required} event in the trace");
    }
    assert!(
        stamped_dispatches > 0,
        "no span-stamped dispatches recorded"
    );
}

#[test]
fn per_node_placements_survive_the_process_boundary() {
    // The deterministic §3 protocols run under explicit placements; the
    // placement must round-trip through the wire spec.
    let _gate = shared();
    let simulation = Simulation::builder()
        .protocol(
            ProtocolSpec::new("det-advice-cd")
                .universe(256)
                .advice_bits(2),
        )
        .participant_ids(vec![100, 130, 200])
        .trials(3)
        .seed(7)
        .build()
        .unwrap();
    let reference = simulation.run_reference().unwrap();
    let fleet = simulation
        .run_on(&FleetBackend::local_with_command(2, WORKER_BIN))
        .unwrap();
    assert_eq!(reference, fleet);
    assert!((reference.success_rate() - 1.0).abs() < 1e-12);
}
