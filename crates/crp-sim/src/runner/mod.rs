//! The sharded Monte-Carlo trial runner, split into executor-agnostic
//! layers:
//!
//! * [`plan`] — deterministic batch planning: [`RunnerConfig`] (trials,
//!   seed, worker count, [`BackendChoice`], [`KernelChoice`]), the
//!   [`ShardPlan`] that splits a batch into fixed-size shards of trials
//!   with per-trial `ChaCha8Rng` streams derived from
//!   `(base_seed, trial_index)`, and the progress/outcome value types.
//! * [`backend`] — the object-safe [`ShardBackend`] trait over
//!   [`ShardJob`]s (one shard of one cell) plus the inline
//!   [`SerialBackend`], and the shared execute-and-merge driver.
//! * [`kernel`] — batched struct-of-arrays trial kernels
//!   ([`CellKernel`]): whole shards run in lockstep with monomorphized
//!   uniform/deterministic fast paths, memoized outcome thresholds and
//!   block-buffered RNG, bit-identical to the scalar path by shared
//!   per-trial streams.
//! * [`thread`] — [`ThreadBackend`]: scoped worker threads stealing jobs
//!   from a shared queue (the former hard-wired parallel path).
//! * [`process`] — the [`ShardSpec`] wire codec that re-describes a cell
//!   to another process, and [`run_shard_worker_with`], the handler a
//!   `crp_experiments worker` runs on each received spec.
//! * [`fleet`] — [`FleetBackend`]: [`ShardSpec`] messages framed over
//!   long-lived `crp_experiments worker` processes (persistent local
//!   subprocess pools and/or remote TCP workers from a fleet manifest),
//!   with straggler retry and dead-worker re-dispatch.
//!
//! Because the plan, the streams and the merge order are all independent
//! of scheduling *and of the backend*, the resulting [`TrialStats`] are
//! bit-identical for any thread count and any backend.
//!
//! Three closure-based entry points are provided: [`run_trials`] for
//! infallible trial closures, [`run_batch`] whose closures may fail with a
//! typed error, and [`run_batch_with_progress`] which additionally reports
//! per-shard completion.  Closure-based batches always execute in-process
//! (a raw closure cannot be shipped to a subprocess); registry-described
//! work — [`crate::Simulation`] and [`crate::SweepMatrix`] — runs on any
//! backend.

pub(crate) mod backend;
pub(crate) mod fleet;
pub(crate) mod kernel;
pub(crate) mod plan;
pub(crate) mod process;
pub(crate) mod thread;

use std::sync::Mutex;

use crp_info::SizeDistribution;
use crp_protocols::{try_run_cd_strategy, try_run_schedule, CdStrategy, NoCdSchedule};
use rand_chacha::ChaCha8Rng;

use crate::stats::TrialStats;
use crate::SimError;

pub use backend::{JobDoneFn, SerialBackend, ShardBackend, ShardJob, TrialFn};
pub use fleet::FleetBackend;
pub use kernel::KernelChoice;
pub use plan::{BackendChoice, BatchProgress, ProgressFn, RunnerConfig, ShardPlan, TrialOutcome};
pub use process::{run_shard_worker_with, ShardSpec};
pub use thread::ThreadBackend;

use backend::execute_and_merge;

/// The in-process backend a closure-based entry point uses.
///
/// # Errors
///
/// Returns [`SimError::Backend`] when the configuration selects an
/// out-of-process backend (process or fleet), which cannot execute raw
/// closures.
fn closure_backend(config: &RunnerConfig) -> Result<Box<dyn ShardBackend>, SimError> {
    match config.backend {
        BackendChoice::Serial => Ok(Box::new(SerialBackend)),
        BackendChoice::Thread => Ok(Box::new(ThreadBackend::new(config.threads))),
        BackendChoice::Process | BackendChoice::Fleet => Err(SimError::Backend {
            what: format!(
                "the {} backend cannot execute raw trial closures; run a \
                 registry-described Simulation or SweepMatrix instead",
                if config.backend == BackendChoice::Process {
                    "process"
                } else {
                    "fleet"
                }
            ),
        }),
    }
}

/// The shared engine under the closure-based entry points: plans the
/// batch, executes it as single-cell shard jobs on the configured
/// in-process backend, and merges in shard order.
fn run_shards<F>(
    config: &RunnerConfig,
    trial: F,
    progress: Option<ProgressFn<'_>>,
) -> Result<TrialStats, SimError>
where
    F: Fn(&mut ChaCha8Rng) -> Result<TrialOutcome, SimError> + Sync,
{
    let backend = closure_backend(config)?;
    let plan = ShardPlan::new(config.trials);
    let trial: TrialFn<'_> = &trial;
    let jobs: Vec<ShardJob<'_>> = (0..plan.num_shards())
        .map(|shard| ShardJob {
            cell: 0,
            shard,
            plan,
            base_seed: config.base_seed,
            trial,
            spec: None,
            kernel: None,
        })
        .collect();

    // Both counters advance under one lock, and the callback is invoked
    // while it is held: deliveries are serialised, the reported counters
    // are monotonic, and the last delivered callback always reports 100%.
    let completed: Mutex<(usize, usize)> = Mutex::new((0, 0));
    let report = |job_index: usize| {
        if let Some(callback) = progress {
            let mut done = completed.lock().expect("no panics while counting progress");
            done.0 += 1;
            done.1 += plan.shard_trials(job_index);
            callback(BatchProgress {
                completed_shards: done.0,
                total_shards: plan.num_shards(),
                completed_trials: done.1,
                total_trials: plan.trials(),
            });
        }
    };

    let stats = execute_and_merge(backend.as_ref(), &jobs, 1, &report)?;
    Ok(stats
        .into_iter()
        .next()
        .expect("execute_and_merge returns one TrialStats per cell"))
}

/// Runs `config.trials` independent trials of `trial`, which receives a
/// deterministically seeded RNG, and aggregates the outcomes.
///
/// The trial closure is infallible and always executes in-process (with
/// the serial backend when `config` selects it or a single thread,
/// otherwise the work-stealing thread backend), so no failure path is
/// reachable.
pub fn run_trials<F>(config: &RunnerConfig, trial: F) -> TrialStats
where
    F: Fn(&mut ChaCha8Rng) -> TrialOutcome + Sync,
{
    let config = match config.backend {
        BackendChoice::Process | BackendChoice::Fleet => {
            config.clone().with_backend(BackendChoice::Thread)
        }
        _ => config.clone(),
    };
    run_shards(&config, |rng| Ok(trial(rng)), None).expect("infallible trial closures cannot fail")
}

/// Fallible batch runner: like [`run_trials`], but a trial may return a
/// typed error, which aborts the batch.
///
/// This is the amortised execution entry point used by
/// [`crate::Simulation`]: protocols are constructed once by the caller and
/// shared (immutably) across every trial and worker thread.
///
/// # Errors
///
/// Returns the first [`SimError`] any trial produced.  Which trial's error
/// is reported is deterministic for a fixed configuration (the first
/// failing trial of the lowest-indexed failing shard).  Also fails with
/// [`SimError::Backend`] when `config` selects the process backend, which
/// cannot execute raw closures.
pub fn run_batch<F>(config: &RunnerConfig, trial: F) -> Result<TrialStats, SimError>
where
    F: Fn(&mut ChaCha8Rng) -> Result<TrialOutcome, SimError> + Sync,
{
    run_shards(config, trial, None)
}

/// Like [`run_batch`], but invokes `progress` after every completed shard
/// (from whichever worker thread finished it), for long sweeps that want a
/// live progress display.
///
/// # Errors
///
/// As [`run_batch`].
pub fn run_batch_with_progress<F>(
    config: &RunnerConfig,
    trial: F,
    progress: ProgressFn<'_>,
) -> Result<TrialStats, SimError>
where
    F: Fn(&mut ChaCha8Rng) -> Result<TrialOutcome, SimError> + Sync,
{
    run_shards(config, trial, Some(progress))
}

/// Measures a uniform no-collision-detection schedule against a true size
/// distribution: each trial samples `k ~ truth` and runs the schedule for
/// at most `max_rounds` rounds.
///
/// Convenience wrapper over [`run_batch`]; new code should prefer the
/// [`crate::Simulation`] builder, which also validates the configuration
/// up front.
pub fn measure_schedule<S>(
    schedule: &S,
    truth: &SizeDistribution,
    max_rounds: usize,
    config: &RunnerConfig,
) -> TrialStats
where
    S: NoCdSchedule + Sync + ?Sized,
{
    run_batch(config, |rng| {
        let k = sample_contending_size(truth, rng);
        try_run_schedule(schedule, k, max_rounds, rng)
            .map(TrialOutcome::from)
            .map_err(SimError::from)
    })
    .expect("schedule measurement over a positive budget cannot fail")
}

/// Measures a uniform collision-detection strategy against a true size
/// distribution.
///
/// Convenience wrapper over [`run_batch`]; new code should prefer the
/// [`crate::Simulation`] builder.
pub fn measure_cd_strategy<S>(
    strategy: &S,
    truth: &SizeDistribution,
    max_rounds: usize,
    config: &RunnerConfig,
) -> TrialStats
where
    S: CdStrategy + Sync + ?Sized,
{
    run_batch(config, |rng| {
        let k = sample_contending_size(truth, rng);
        try_run_cd_strategy(strategy, k, max_rounds, rng)
            .map(TrialOutcome::from)
            .map_err(SimError::from)
    })
    .expect("strategy measurement over a positive budget cannot fail")
}

/// Samples a network size from `truth`, re-drawing (or clamping) so the
/// result is at least 2 — the paper assumes at least two participants,
/// since size 1 has no contention to resolve.
pub fn sample_contending_size(truth: &SizeDistribution, rng: &mut ChaCha8Rng) -> usize {
    for _ in 0..16 {
        let k = truth.sample(rng);
        if k >= 2 {
            return k;
        }
    }
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_protocols::{Decay, FixedProbability, Willard};
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn trial_results_are_independent_of_thread_count() {
        let truth = SizeDistribution::bimodal(1024, 30, 500, 0.8).unwrap();
        let decay = Decay::new(1024).unwrap();
        let serial = measure_schedule(
            &decay,
            &truth,
            10_000,
            &RunnerConfig::with_trials(200).seeded(7).single_threaded(),
        );
        let mut parallel_config = RunnerConfig::with_trials(200).seeded(7);
        parallel_config.threads = 4;
        let parallel = measure_schedule(&decay, &truth, 10_000, &parallel_config);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sharded_stats_are_bit_identical_for_threads_1_2_and_8() {
        // The acceptance criterion of the sharded driver: same seed, same
        // trial count, any thread count -> the SAME TrialStats, field for
        // field, including every floating-point bit (PartialEq on f64).
        let truth = SizeDistribution::bimodal(2048, 40, 900, 0.8).unwrap();
        let decay = Decay::new(2048).unwrap();
        // 1000 trials spans multiple shards (shard size 256), so the merge
        // path is genuinely exercised.
        let run = |threads: usize| {
            let mut config = RunnerConfig::with_trials(1000).seeded(99);
            config.threads = threads;
            measure_schedule(&decay, &truth, 50_000, &config)
        };
        let single = run(1);
        let double = run(2);
        let eight = run(8);
        assert_eq!(single, double);
        assert_eq!(single, eight);
        assert_eq!(single.trials, 1000);
    }

    #[test]
    fn serial_backend_matches_the_thread_backend_on_closures() {
        let truth = SizeDistribution::geometric(512, 0.1).unwrap();
        let decay = Decay::new(512).unwrap();
        let serial_config = RunnerConfig::with_trials(600)
            .seeded(4)
            .with_backend(BackendChoice::Serial);
        let thread_config = RunnerConfig::with_trials(600)
            .seeded(4)
            .with_threads(4)
            .with_backend(BackendChoice::Thread);
        let serial = measure_schedule(&decay, &truth, 20_000, &serial_config);
        let threaded = measure_schedule(&decay, &truth, 20_000, &thread_config);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn closure_batches_reject_the_process_backend_with_a_typed_error() {
        let config = RunnerConfig::with_trials(10)
            .seeded(0)
            .with_backend(BackendChoice::Process);
        let err = run_batch(&config, |_| {
            Ok(TrialOutcome {
                resolved: true,
                rounds: 1,
            })
        })
        .unwrap_err();
        assert!(matches!(err, SimError::Backend { .. }));
        // run_trials silently falls back to the in-process thread backend
        // instead of panicking.
        let stats = run_trials(&config, |_| TrialOutcome {
            resolved: true,
            rounds: 1,
        });
        assert_eq!(stats.trials, 10);
    }

    #[test]
    fn backend_choice_parses_its_cli_names() {
        for name in BackendChoice::NAMES {
            let parsed: BackendChoice = name.parse().unwrap();
            let expected = match name {
                "serial" => BackendChoice::Serial,
                "thread" => BackendChoice::Thread,
                "process" => BackendChoice::Process,
                _ => BackendChoice::Fleet,
            };
            assert_eq!(parsed, expected);
        }
        assert!("cluster".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn shard_plan_is_a_function_of_the_trial_count_only() {
        let plan = ShardPlan::new(1000);
        assert_eq!(plan.trials(), 1000);
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.shard_trials(0), 256);
        assert_eq!(plan.shard_trials(3), 1000 - 3 * 256);
        assert_eq!(plan.shard_trials(4), 0);
        assert_eq!(ShardPlan::new(0).num_shards(), 0);
        assert_eq!(ShardPlan::new(1).num_shards(), 1);
        let custom = ShardPlan::with_shard_size(10, 0);
        assert_eq!(custom.num_shards(), 10, "shard size clamps to 1");
    }

    #[test]
    fn trial_rng_streams_differ_per_trial_and_seed() {
        use rand::RngCore;
        let mut a = ShardPlan::trial_rng(7, 0);
        let mut b = ShardPlan::trial_rng(7, 1);
        let mut c = ShardPlan::trial_rng(8, 0);
        let mut a2 = ShardPlan::trial_rng(7, 0);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(first, (0..4).map(|_| a2.next_u64()).collect::<Vec<_>>());
        assert_ne!(first, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(first, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        // Shard boundaries do not affect the streams: the same global
        // trial index maps to the same stream under any shard size.
        let plan_a = ShardPlan::with_shard_size(512, 256);
        let plan_b = ShardPlan::with_shard_size(512, 64);
        assert_eq!(plan_a.trial_index(1, 3), 259);
        assert_eq!(plan_b.trial_index(4, 3), 259);
    }

    #[test]
    fn progress_callback_reports_every_shard() {
        let config = RunnerConfig::with_trials(1000).seeded(3).single_threaded();
        let calls = AtomicUsize::new(0);
        let last_trials = AtomicUsize::new(0);
        let stats = run_batch_with_progress(
            &config,
            |_| {
                Ok(TrialOutcome {
                    resolved: true,
                    rounds: 1,
                })
            },
            &|progress: BatchProgress| {
                calls.fetch_add(1, Ordering::Relaxed);
                last_trials.store(progress.completed_trials, Ordering::Relaxed);
                assert_eq!(progress.total_shards, ShardPlan::new(1000).num_shards());
                assert_eq!(progress.total_trials, 1000);
            },
        )
        .unwrap();
        assert_eq!(stats.trials, 1000);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            ShardPlan::new(1000).num_shards()
        );
        assert_eq!(last_trials.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn correct_estimate_beats_decay() {
        let n = 4096;
        let k = 300;
        let truth = SizeDistribution::point_mass(n, k).unwrap();
        let config = RunnerConfig::with_trials(300).seeded(11);
        let fixed = measure_schedule(&FixedProbability::new(k).unwrap(), &truth, 10_000, &config);
        let decay = measure_schedule(&Decay::new(n).unwrap(), &truth, 10_000, &config);
        assert!(fixed.success_rate() > 0.99);
        assert!(decay.success_rate() > 0.99);
        assert!(fixed.mean_rounds_overall() < decay.mean_rounds_overall());
    }

    #[test]
    fn cd_strategy_measurement_reports_constant_probability_success() {
        let n = 1 << 14;
        let truth = SizeDistribution::uniform_ranges(n).unwrap();
        let willard = Willard::new(n).unwrap();
        let config = RunnerConfig::with_trials(400).seeded(3);
        let stats = measure_cd_strategy(&willard, &truth, willard.worst_case_rounds(), &config);
        assert!(stats.success_rate() > 0.3, "rate {}", stats.success_rate());
        assert!(stats.mean_rounds_when_resolved() <= willard.worst_case_rounds() as f64);
    }

    #[test]
    fn run_batch_surfaces_trial_errors() {
        let config = RunnerConfig::with_trials(10).seeded(0).single_threaded();
        let result = run_batch(&config, |_| {
            Err(SimError::InvalidParameter {
                what: "forced failure".into(),
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn run_batch_matches_run_trials_for_infallible_closures() {
        let config = RunnerConfig::with_trials(50).seeded(13).single_threaded();
        let via_trials = run_trials(&config, |rng| TrialOutcome {
            resolved: true,
            rounds: 1 + (rng.gen::<u64>() % 5) as usize,
        });
        let via_batch = run_batch(&config, |rng| {
            Ok(TrialOutcome {
                resolved: true,
                rounds: 1 + (rng.gen::<u64>() % 5) as usize,
            })
        })
        .unwrap();
        assert_eq!(via_trials, via_batch);
    }

    #[test]
    fn sample_contending_size_never_returns_less_than_two() {
        let truth = SizeDistribution::uniform_sizes(64).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(sample_contending_size(&truth, &mut rng) >= 2);
        }
    }

    #[test]
    fn runner_config_builders() {
        let config = RunnerConfig::with_trials(10).seeded(5).single_threaded();
        assert_eq!(config.trials, 10);
        assert_eq!(config.base_seed, 5);
        assert_eq!(config.threads, 1);
        assert_eq!(config.backend, BackendChoice::Thread);
        let config = config.with_threads(0).with_backend(BackendChoice::Process);
        assert_eq!(config.threads, 1, "worker counts clamp to 1");
        assert_eq!(config.backend, BackendChoice::Process);
    }

    #[test]
    fn shard_spec_wire_round_trips() {
        use crate::runner::process::WirePopulation;
        use crp_info::CondensedDistribution;
        let prediction = CondensedDistribution::from_sizes(
            &SizeDistribution::bimodal(512, 16, 256, 0.9).unwrap(),
        );
        let spec = ShardSpec {
            protocol: crp_protocols::ProtocolSpec::new("sorted-guess-cycling")
                .universe(512)
                .prediction(prediction.clone())
                .participants(32)
                .advice_bits(2),
            population: WirePopulation::Sampled(SizeDistribution::geometric(512, 0.07).unwrap()),
            max_rounds: 4096,
        };
        let plan = ShardPlan::with_shard_size(700, 256);
        let wire = spec.to_wire(plan, 0xDEAD_BEEF, 2);
        let (parsed, parsed_plan, base_seed, shard) = ShardSpec::from_wire(&wire).unwrap();
        assert_eq!(parsed_plan, plan);
        assert_eq!(base_seed, 0xDEAD_BEEF);
        assert_eq!(shard, 2);
        assert_eq!(parsed.protocol.name(), "sorted-guess-cycling");
        assert_eq!(parsed.max_rounds, 4096);
        // The prediction and population masses survive bit-exactly.
        let params = parsed.protocol.params();
        assert_eq!(
            params.prediction.as_ref().unwrap().probabilities(),
            prediction.probabilities()
        );
        match (&parsed.population, &spec.population) {
            (WirePopulation::Sampled(a), WirePopulation::Sampled(b)) => {
                assert_eq!(a.masses(), b.masses());
            }
            _ => panic!("population kind changed across the wire"),
        }
    }

    #[test]
    fn shard_worker_runs_one_shard_bit_identically() {
        // Drive the worker entry point directly (no subprocess): its
        // accumulator must equal the one the in-process path computes for
        // the same (plan, seed, shard).
        use crate::runner::process::WirePopulation;
        let truth = SizeDistribution::bimodal(512, 16, 256, 0.9).unwrap();
        let spec = ShardSpec {
            protocol: crp_protocols::ProtocolSpec::new("decay").universe(512),
            population: WirePopulation::Sampled(truth.clone()),
            max_rounds: 50_000,
        };
        let plan = ShardPlan::new(600);
        let wire = spec.to_wire(plan, 42, 1);
        let response = run_shard_worker_with(&wire, &|_| None, KernelChoice::Auto).unwrap();
        let worker_acc = crate::stats::TrialAccumulator::from_wire(&response).unwrap();

        let simulation = spec
            .to_simulation(plan.trials(), 42, KernelChoice::Scalar)
            .unwrap();
        let trial = simulation.trial_fn();
        let local = ShardJob {
            cell: 0,
            shard: 1,
            plan,
            base_seed: 42,
            trial: &trial,
            spec: None,
            kernel: None,
        }
        .run_inline()
        .unwrap();
        assert_eq!(worker_acc, local);
    }

    #[test]
    fn shard_worker_rejects_malformed_input() {
        let no_blobs = |_: &str| None;
        let run = |wire: &str| run_shard_worker_with(wire, &no_blobs, KernelChoice::Auto);
        assert!(run("").is_err());
        assert!(run("crp-shard-spec v2\n").is_err());
        let spec = ShardSpec {
            protocol: crp_protocols::ProtocolSpec::new("decay").universe(64),
            population: crate::runner::process::WirePopulation::Fixed(4),
            max_rounds: 100,
        };
        let wire = spec.to_wire(ShardPlan::new(10), 1, 5);
        // Shard 5 is out of range for a 10-trial plan (1 shard).
        assert!(run(&wire).is_err());
    }
}
