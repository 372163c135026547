//! The sharded Monte-Carlo trial runner, split into executor-agnostic
//! layers:
//!
//! * [`plan`] — deterministic batch planning: [`RunnerConfig`] (trials,
//!   seed, worker count, [`BackendChoice`]) and the
//!   [`ShardPlan`] that splits a batch into fixed-size shards of trials
//!   with per-trial `ChaCha8Rng` streams derived from
//!   `(base_seed, trial_index)`.
//! * [`backend`] — the object-safe [`ShardBackend`] trait over
//!   [`ShardJob`]s (one shard of one cell), the inline [`SerialBackend`],
//!   and the one way a cell runs: each cell's setup is built once and its
//!   shard jobs are executed and merged in shard order.
//! * [`kernel`] — the per-cell trial executor ([`CellKernel`]): one loop
//!   per execution style — a uniform loop running whole shards in
//!   lockstep with memoized outcome thresholds and block-buffered RNG,
//!   and a per-trial loop that replicates deterministic per-node
//!   outcomes and is otherwise the scalar executor, the reference every
//!   fast path is compared against — bit-identical by shared per-trial
//!   streams.
//! * [`thread`] — [`ThreadBackend`]: scoped worker threads stealing jobs
//!   from a shared queue.
//! * [`process`] — the [`ShardSpec`] wire codec that re-describes a cell
//!   to another process, and [`run_shard_worker_with`], the handler a
//!   `crp_experiments worker` runs on each received spec.
//! * [`fleet`] — [`FleetBackend`]: [`ShardSpec`] messages framed over
//!   long-lived `crp_experiments worker` processes (persistent local
//!   subprocess pools and/or remote TCP workers from a fleet manifest),
//!   with straggler retry and dead-worker re-dispatch.
//!
//! Every cell is a registry-described [`crate::Simulation`] — run alone or
//! as one cell of a [`crate::SweepMatrix`] — so every cell runs on any
//! backend.  Because the plan, the streams and the merge order are all
//! independent of scheduling *and of the backend*, the resulting
//! [`TrialStats`](crate::TrialStats) are bit-identical for any thread
//! count and any backend.

pub(crate) mod backend;
pub(crate) mod fleet;
pub(crate) mod kernel;
pub(crate) mod plan;
pub(crate) mod process;
pub(crate) mod thread;

use crp_info::SizeDistribution;
use rand_chacha::ChaCha8Rng;

pub use backend::{JobDoneFn, SerialBackend, ShardBackend, ShardJob};
pub use fleet::FleetBackend;
pub use plan::{BackendChoice, RunnerConfig, ShardPlan};
pub use process::{run_shard_worker_with, ShardSpec, SpecCache};
pub use thread::ThreadBackend;

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
    use crate::runner::backend::CellWork;
    use crate::simulation::Population;
    use crate::{SimError, Simulation};
    use crp_protocols::{ProtocolSpec, Willard};
    use rand::SeedableRng;

    #[test]
    fn sharded_stats_are_bit_identical_for_threads_1_2_and_8() {
        // The acceptance criterion of the sharded driver: same seed, same
        // trial count, any thread count -> the SAME TrialStats, field for
        // field, including every floating-point bit (PartialEq on f64).
        let truth = SizeDistribution::bimodal(2048, 40, 900, 0.8).unwrap();
        // 1000 trials spans multiple shards (shard size 256), so the merge
        // path is genuinely exercised.
        let simulation = |threads: usize| {
            Simulation::builder()
                .protocol(ProtocolSpec::new("decay").universe(2048))
                .truth(truth.clone())
                .max_rounds(50_000)
                .trials(1000)
                .seed(99)
                .threads(threads)
                .build()
                .unwrap()
        };
        let single = simulation(1).run().unwrap();
        let double = simulation(2).run().unwrap();
        let eight = simulation(8).run().unwrap();
        assert_eq!(single, double);
        assert_eq!(single, eight);
        assert_eq!(single, simulation(8).run_on(&SerialBackend).unwrap());
        assert_eq!(single.trials, 1000);
    }

    #[test]
    fn correct_estimate_beats_decay() {
        let n = 4096;
        let k = 300;
        let truth = SizeDistribution::point_mass(n, k).unwrap();
        let run = |spec: ProtocolSpec| {
            Simulation::builder()
                .protocol(spec)
                .truth(truth.clone())
                .max_rounds(10_000)
                .trials(300)
                .seed(11)
                .run()
                .unwrap()
        };
        let fixed = run(ProtocolSpec::new("fixed-probability")
            .universe(n)
            .participants(k));
        let decay = run(ProtocolSpec::new("decay").universe(n));
        assert!(fixed.success_rate() > 0.99);
        assert!(decay.success_rate() > 0.99);
        assert!(fixed.mean_rounds_overall() < decay.mean_rounds_overall());
    }

    #[test]
    fn willard_succeeds_with_constant_probability() {
        let n = 1 << 14;
        let horizon = Willard::new(n).unwrap().worst_case_rounds();
        let stats = Simulation::builder()
            .protocol(ProtocolSpec::new("willard").universe(n))
            .truth(SizeDistribution::uniform_ranges(n).unwrap())
            .max_rounds(horizon)
            .trials(400)
            .seed(3)
            .run()
            .unwrap();
        assert!(stats.success_rate() > 0.3, "rate {}", stats.success_rate());
        assert!(stats.mean_rounds_when_resolved() <= horizon as f64);
    }

    #[test]
    fn backend_choice_parses_its_cli_names() {
        for name in BackendChoice::NAMES {
            let parsed: BackendChoice = name.parse().unwrap();
            let expected = match name {
                "serial" => BackendChoice::Serial,
                "thread" => BackendChoice::Thread,
                _ => BackendChoice::Fleet,
            };
            assert_eq!(parsed, expected);
        }
        assert!("cluster".parse::<BackendChoice>().is_err());
        assert!("process".parse::<BackendChoice>().is_err());
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
        let config = config.with_threads(0).with_backend(BackendChoice::Fleet);
        assert_eq!(config.threads, 1, "worker counts clamp to 1");
        assert_eq!(config.backend, BackendChoice::Fleet);
    }

    #[test]
    fn shard_spec_wire_round_trips() {
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
            population: Population::Sampled(SizeDistribution::geometric(512, 0.07).unwrap()),
            max_rounds: 4096,
        };
        let plan = ShardPlan::with_shard_size(700, 256);
        let mut blobs = crp_fleet::BlobSet::new();
        let job = spec.to_wire(plan, 0xDEAD_BEEF, 2, &mut blobs);
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        let (parsed, parsed_plan, base_seed, shard) =
            ShardSpec::from_wire(&job.payload, &resolve).unwrap();
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
            (Population::Sampled(a), Population::Sampled(b)) => {
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
        let truth = SizeDistribution::bimodal(512, 16, 256, 0.9).unwrap();
        let spec = ShardSpec {
            protocol: crp_protocols::ProtocolSpec::new("decay").universe(512),
            population: Population::Sampled(truth.clone()),
            max_rounds: 50_000,
        };
        let plan = ShardPlan::new(600);
        let mut blobs = crp_fleet::BlobSet::new();
        let job = spec.to_wire(plan, 42, 1, &mut blobs);
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        let response = run_shard_worker_with(&job.payload, &resolve, &SpecCache::new()).unwrap();
        let worker_acc = crate::stats::TrialAccumulator::from_wire(&response).unwrap();

        let simulation = Simulation::builder()
            .protocol(spec.protocol().clone())
            .truth(truth)
            .max_rounds(50_000)
            .trials(plan.trials())
            .seed(42)
            .build()
            .unwrap();
        let local = CellWork::new(&simulation, plan)
            .job(0, 1)
            .run_inline()
            .unwrap();
        assert_eq!(worker_acc, local);
    }

    #[test]
    fn shard_worker_rejects_a_population_outside_its_universe() {
        let spec = ShardSpec {
            protocol: crp_protocols::ProtocolSpec::new("decay").universe(1024),
            population: Population::Fixed(1 << 20),
            max_rounds: 100,
        };
        let job = spec.to_wire(ShardPlan::new(10), 1, 0, &mut crp_fleet::BlobSet::new());
        assert!(job.payload.contains("population fixed 1048576\n"));
        let no_blobs = |_: &str| None;
        let err = run_shard_worker_with(&job.payload, &no_blobs, &SpecCache::new()).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn shard_worker_rejects_malformed_input() {
        let no_blobs = |_: &str| None;
        let cache = SpecCache::new();
        let run = |wire: &str| run_shard_worker_with(wire, &no_blobs, &cache);
        assert!(run("").is_err());
        assert!(run("crp-shard-spec v1\n").is_err());
        let spec = ShardSpec {
            protocol: crp_protocols::ProtocolSpec::new("decay").universe(64),
            population: Population::Fixed(4),
            max_rounds: 100,
        };
        let job = spec.to_wire(ShardPlan::new(10), 1, 5, &mut crp_fleet::BlobSet::new());
        // Shard 5 is out of range for a 10-trial plan (1 shard).
        assert!(run(&job.payload).is_err());
    }
}
