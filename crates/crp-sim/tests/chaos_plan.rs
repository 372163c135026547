//! Declarative chaos plans end to end: a typed [`ChaosPlan`] compiled
//! onto a fleet pool must inject exactly the faults its `worker --fault`
//! arguments schedule — and, because the dispatcher re-dispatches the
//! jobs of sabotaged workers and every shard's statistics are a
//! deterministic function of its spec, a chaos run that completes stays
//! bit-identical to the serial backend.

use crp_fleet::{ChaosPlan, FaultKind, WorkerEndpoint};
use crp_predict::ScenarioLibrary;
use crp_protocols::ProtocolSpec;
use crp_sim::{BackendChoice, FleetBackend, RunnerConfig, SerialBackend, Simulation, TrialStats};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crp_experiments");

fn worker_args() -> Vec<String> {
    vec!["worker".to_string(), "--stdio".to_string()]
}

fn pool(workers: usize) -> Vec<WorkerEndpoint> {
    (0..workers)
        .map(|_| WorkerEndpoint::local(WORKER_BIN, worker_args()))
        .collect()
}

/// A multi-shard simulation so re-dispatched jobs genuinely interleave
/// with healthy completions in the merge.
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
        .seed(0xC4A05)
        .build()
        .unwrap()
}

fn serial_reference() -> TrialStats {
    simulation().run_on(&SerialBackend).unwrap()
}

#[test]
fn a_chaos_plan_run_is_bit_identical_to_the_serial_backend() {
    // One worker dies after its first job, another wedges after two;
    // the third stays healthy and absorbs the re-dispatched jobs.
    let plan = ChaosPlan::parse("0:die@1,1:wedge@2").unwrap();
    let sabotaged = plan.apply(&pool(3)).unwrap();
    let fleet = FleetBackend::with_endpoints(sabotaged);
    let stats = simulation().run_on(&fleet).unwrap();
    assert_eq!(stats, serial_reference(), "chaos plan changed the stats");
}

/// Regression: a worker that wedges (process alive, pipe open, never
/// answers) on its very first job must not pin its dispatcher thread in
/// an untimed pipe read — before stdio connections polled, this exact
/// shape hung the batch at join even after every job had settled on the
/// healthy worker.
#[test]
fn a_worker_that_wedges_immediately_cannot_hang_the_batch() {
    let plan = ChaosPlan::parse("1:wedge@0").unwrap();
    let sabotaged = plan.apply(&pool(2)).unwrap();
    let fleet = FleetBackend::with_endpoints(sabotaged);
    let stats = simulation().run_on(&fleet).unwrap();
    assert_eq!(stats, serial_reference(), "wedged worker changed the stats");
}

#[test]
fn runner_config_carries_the_chaos_plan_into_the_fleet_pool() {
    let plan = ChaosPlan::new()
        .with(0, FaultKind::Garbage, 0)
        .with(1, FaultKind::Mangle, 3);
    let config = RunnerConfig::with_trials(100)
        .with_threads(2)
        .with_chaos(plan.clone());
    assert_eq!(config.backend, BackendChoice::Fleet);
    assert_eq!(config.chaos.as_ref(), Some(&plan));
    // Worker-binary resolution may fail in stripped environments; the
    // property under test is the plan landing in the endpoints' spawn
    // arguments, so only assert when the pool can be built.  A fleet
    // sweep's backend and the sweep daemon's pool (`FleetBackend::pool`)
    // must both carry it.
    let pools = [
        FleetBackend::from_config(&config).map(|backend| backend.endpoints().to_vec()),
        FleetBackend::pool(&config),
    ];
    for endpoints in pools.into_iter().flatten() {
        let args: Vec<Vec<String>> = endpoints
            .iter()
            .map(|endpoint| match endpoint {
                WorkerEndpoint::Local { args, .. } => args.clone(),
                other => panic!("expected local endpoints, got {other:?}"),
            })
            .collect();
        assert_eq!(
            args,
            vec![
                vec!["worker", "--stdio", "--fault", "garbage@0"],
                vec!["worker", "--stdio", "--fault", "mangle@3"],
            ]
        );
    }
}

#[test]
fn a_plan_targeting_a_missing_worker_is_a_typed_backend_error() {
    let config = RunnerConfig::with_trials(100)
        .with_threads(2)
        .with_chaos(ChaosPlan::new().with(7, FaultKind::Die, 0));
    match FleetBackend::from_config(&config) {
        // In stripped environments worker-binary resolution can fail
        // before the plan is applied; both failures are typed errors.
        Err(err) => assert!(
            err.to_string().contains("out of range") || err.to_string().contains("worker binary"),
            "{err}"
        ),
        Ok(_) => panic!("a 2-worker pool must reject a plan targeting worker 7"),
    }
}
