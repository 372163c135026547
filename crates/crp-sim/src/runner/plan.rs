//! Deterministic batch planning: [`RunnerConfig`], [`BackendChoice`] and
//! [`ShardPlan`].
//!
//! Everything here is a pure function of the configuration — never of the
//! thread count, the backend, or scheduling — which is what makes the
//! statistics of a batch bit-identical however it is executed.

use std::str::FromStr;

use crp_fleet::{ChaosPlan, FleetManifest};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which [`crate::ShardBackend`] executes the shards of a batch or sweep.
///
/// The choice affects wall-clock time and process topology only, never the
/// statistics: shard plans, RNG streams and merge order are all
/// backend-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Run every shard inline on the calling thread.
    Serial,
    /// Scoped worker threads stealing shards from a shared queue (the
    /// default).
    #[default]
    Thread,
    /// The fleet dispatcher: persistent `crp_experiments worker`
    /// processes — `threads` local subprocesses, or the local and/or
    /// remote `host:port` workers of a [`FleetManifest`] — with straggler
    /// retry and dead-worker re-dispatch.
    Fleet,
}

impl BackendChoice {
    /// The stable CLI names, in declaration order.
    pub const NAMES: [&'static str; 3] = ["serial", "thread", "fleet"];
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "serial" => Ok(BackendChoice::Serial),
            "thread" => Ok(BackendChoice::Thread),
            "fleet" => Ok(BackendChoice::Fleet),
            other => Err(format!(
                "unknown backend {other:?}; expected one of: {}",
                Self::NAMES.join(", ")
            )),
        }
    }
}

/// Configuration of a batch of trials.
///
/// (`RunnerConfig` is `Clone` but deliberately not `Copy`: the optional
/// [`FleetManifest`] makes per-run fleet pools a first-class config
/// field instead of an environment-variable side channel.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Base seed; trial `i` of the batch draws from a `ChaCha8Rng` stream
    /// derived from `(base_seed, i)` (see [`ShardPlan::trial_rng`]).
    pub base_seed: u64,
    /// Number of worker threads or processes (1 = run inline).  The
    /// statistics do not depend on this value, only the wall-clock time
    /// does.  Defaults to the machine's available parallelism.
    pub threads: usize,
    /// Which shard backend executes the batch.
    pub backend: BackendChoice,
    /// The worker pool a [`BackendChoice::Fleet`] run dispatches to.
    /// `None` runs `threads` local subprocess workers.  The CLI fills it
    /// from `--fleet`, then `CRP_FLEET`.
    pub fleet: Option<FleetManifest>,
    /// A declarative fault schedule applied to the worker pool of a
    /// [`BackendChoice::Fleet`] run: each event adds one `--fault` to a
    /// local worker's arguments.  `None` (and the empty plan) injects
    /// nothing.  Because the dispatcher re-dispatches the jobs of dead,
    /// garbled or wedged workers and shard statistics are deterministic
    /// functions of their specs, a chaos run that completes stays
    /// bit-identical to the serial backend.  The CLI's `--chaos` flag
    /// populates this field.
    pub chaos: Option<ChaosPlan>,
    /// The `host:port` address (port 0 allowed) on which a
    /// [`BackendChoice::Fleet`] run listens for elastically joining
    /// workers (`crp_experiments worker --join host:port`).  `None`
    /// (the default) accepts no elastic joiners.  The CLI's
    /// `--accept-workers` flag populates this field.
    pub accept_workers: Option<String>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            trials: 1000,
            base_seed: 0xC0FFEE,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            backend: BackendChoice::default(),
            fleet: None,
            chaos: None,
            accept_workers: None,
        }
    }
}

impl RunnerConfig {
    /// Convenience constructor for a given trial count with the default
    /// seed and thread count.
    pub fn with_trials(trials: usize) -> Self {
        Self {
            trials,
            ..Self::default()
        }
    }

    /// Returns a copy with a different base seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Returns a copy pinned to a single thread (useful in tests).
    pub fn single_threaded(mut self) -> Self {
        self.threads = 1;
        self
    }

    /// Returns a copy with an explicit worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy selecting a different shard backend.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy scheduling a [`ChaosPlan`] over the fleet pool (and
    /// therefore selecting the fleet backend, the only one whose workers
    /// can be sabotaged).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self.backend = BackendChoice::Fleet;
        self
    }
}

/// How a batch of trials is split into deterministic shards.
///
/// The plan is a function of the trial count alone — never of the thread
/// count — so the same configuration always yields the same shards, the
/// same per-trial RNG streams, and therefore bit-identical statistics no
/// matter how many threads execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    trials: usize,
    shard_size: usize,
}

impl ShardPlan {
    /// Default number of trials per shard: small enough to load-balance
    /// across threads, large enough to amortise accumulator merging.
    pub const DEFAULT_SHARD_SIZE: usize = 256;

    /// Plans `trials` trials with the default shard size.
    pub fn new(trials: usize) -> Self {
        Self::with_shard_size(trials, Self::DEFAULT_SHARD_SIZE)
    }

    /// Plans `trials` trials in shards of at most `shard_size` (clamped to
    /// at least 1).
    pub fn with_shard_size(trials: usize, shard_size: usize) -> Self {
        Self {
            trials,
            shard_size: shard_size.max(1),
        }
    }

    /// Total number of trials planned.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The maximum shard size of the plan.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.trials.div_ceil(self.shard_size)
    }

    /// Number of trials in shard `shard` (the last shard may be short).
    pub fn shard_trials(&self, shard: usize) -> usize {
        let start = shard * self.shard_size;
        self.trials.saturating_sub(start).min(self.shard_size)
    }

    /// The global index of trial `offset` within shard `shard`.
    pub fn trial_index(&self, shard: usize, offset: usize) -> usize {
        shard * self.shard_size + offset
    }

    /// The deterministic RNG stream of one trial: a `ChaCha8Rng` whose
    /// 256-bit seed encodes `(base_seed, trial)` plus a fixed domain salt,
    /// so distinct trials get statistically independent streams.
    ///
    /// Seeding per *trial* rather than per shard is what lets batched
    /// kernels process many trials of a shard in lockstep (round-major)
    /// while consuming each trial's draws in exactly the order the scalar
    /// trial-at-a-time path does — the two paths share the streams by
    /// construction, so their statistics are bit-identical.
    pub fn trial_rng(base_seed: u64, trial: usize) -> ChaCha8Rng {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&base_seed.to_le_bytes());
        seed[8..16].copy_from_slice(&(trial as u64).to_le_bytes());
        seed[16..32].copy_from_slice(b"crp-trial-stream");
        ChaCha8Rng::from_seed(seed)
    }
}
