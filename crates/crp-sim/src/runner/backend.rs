//! The executor-agnostic shard backend abstraction.
//!
//! A [`ShardJob`] is the unit of schedulable work: one shard of one cell
//! (a cell being a single batch — a [`crate::Simulation`] — or one cell of
//! a [`crate::SweepMatrix`] grid).  An object-safe [`ShardBackend`] takes a
//! slice of jobs and returns one [`TrialAccumulator`] per job, in job
//! order.  Because the shard plans, the per-trial RNG streams and the
//! merge order are all fixed before any backend runs, backends only decide
//! *where* shards execute — inline ([`SerialBackend`]), on scoped worker
//! threads stealing from a shared queue ([`crate::ThreadBackend`]), or
//! on a pool of persistent local and remote fleet workers
//! ([`crate::FleetBackend`]) — and the resulting statistics are
//! bit-identical across all of them.

use rand_chacha::ChaCha8Rng;

use crate::runner::fleet::FleetBackend;
use crate::runner::kernel::CellKernel;
use crate::runner::plan::{BackendChoice, RunnerConfig, ShardPlan, TrialOutcome};
use crate::runner::process::ShardSpec;
use crate::runner::thread::ThreadBackend;
use crate::stats::{TrialAccumulator, TrialStats};
use crate::SimError;

/// A borrowed, thread-safe trial closure: the in-process form of a cell's
/// work.  The closure receives the shard's deterministically seeded RNG and
/// runs one trial.
pub type TrialFn<'a> = &'a (dyn Fn(&mut ChaCha8Rng) -> Result<TrialOutcome, SimError> + Sync);

/// A job-completion callback, invoked with the index of the finished job in
/// the slice passed to [`ShardBackend::execute`] (possibly from a worker
/// thread, and in completion order — not job order).
pub type JobDoneFn<'a> = &'a (dyn Fn(usize) + Sync);

/// One unit of backend work: one shard of one cell.
pub struct ShardJob<'a> {
    /// Index of the cell this shard belongs to.  Jobs of the same cell must
    /// be contiguous and in ascending shard order so the driver can merge
    /// per-cell accumulators deterministically.
    pub cell: usize,
    /// Shard index within the cell's plan.
    pub shard: usize,
    /// The cell's shard plan.
    pub plan: ShardPlan,
    /// The cell's base seed.
    pub base_seed: u64,
    /// The cell's trial closure, for in-process backends.
    pub trial: TrialFn<'a>,
    /// The cell's serialisable description, for out-of-process backends
    /// (absent when the cell was built around a raw closure or a custom
    /// protocol object).
    pub spec: Option<&'a ShardSpec>,
    /// The cell's batched trial kernel, when the configured
    /// [`crate::KernelChoice`] and the protocol admit one.  `None` runs
    /// the scalar trial-at-a-time path; either way the statistics are
    /// bit-identical (both consume the same per-trial RNG streams in the
    /// same order).
    pub(crate) kernel: Option<&'a CellKernel<'a>>,
}

impl ShardJob<'_> {
    /// Runs this job inline on the calling thread: the cell's batched
    /// kernel when one was selected, otherwise the scalar path folding
    /// the shard's trials into a fresh accumulator in trial order,
    /// stopping at the first failed trial.
    pub fn run_inline(&self) -> Result<TrialAccumulator, SimError> {
        let started = std::time::Instant::now();
        let accumulator = self.run_uninstrumented()?;
        // Counters and the guarded trace event only observe the shard
        // after its accumulator is final: nothing here can perturb RNG
        // streams or merge order, so statistics stay bit-identical with
        // observability on or off.
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let registry = crp_obs::global();
        registry.inc("sim.shard.execute");
        registry.observe("sim.shard_micros", micros);
        if crp_obs::trace_enabled() {
            let mut event = crp_obs::TraceEvent::new("shard.execute")
                .u64("cell", self.cell as u64)
                .u64("shard", self.shard as u64)
                .u64("trials", self.plan.shard_trials(self.shard) as u64)
                .str("kernel", self.kernel.map_or("scalar", |k| k.name()))
                .u64("micros", micros);
            // A fleet worker sets the thread's span from the job frame
            // before invoking the handler; stamping it here is what
            // lets `trace-join` tie this worker-side event to the
            // dispatcher's `fleet.dispatch` for the same job.
            if let Some(span) = crp_obs::current_span() {
                event = span.stamp(event);
            }
            crp_obs::emit(&event);
        }
        Ok(accumulator)
    }

    fn run_uninstrumented(&self) -> Result<TrialAccumulator, SimError> {
        if let Some(kernel) = self.kernel {
            return kernel.run_shard(self.plan, self.base_seed, self.shard);
        }
        let mut accumulator = TrialAccumulator::new();
        for offset in 0..self.plan.shard_trials(self.shard) {
            let trial = self.plan.trial_index(self.shard, offset);
            let mut rng = ShardPlan::trial_rng(self.base_seed, trial);
            let outcome = (self.trial)(&mut rng)?;
            accumulator.record(outcome.resolved, outcome.rounds as u64);
        }
        Ok(accumulator)
    }
}

/// An executor for shard jobs.
///
/// Implementations must deliver one accumulator per job, in job order, and
/// report the error of the *lowest-indexed* failing job (so error
/// reporting, like the statistics, is independent of scheduling).  They
/// should invoke `done(index)` once per completed job.
pub trait ShardBackend: Sync {
    /// A short stable name (`"serial"`, `"thread"`, `"fleet"`), used in
    /// diagnostics.
    fn name(&self) -> &'static str;

    /// Executes every job and returns the accumulators in job order.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the lowest-indexed failing job.
    fn execute(
        &self,
        jobs: &[ShardJob<'_>],
        done: JobDoneFn<'_>,
    ) -> Result<Vec<TrialAccumulator>, SimError>;
}

/// Runs every shard inline on the calling thread, in job order.
///
/// The reference implementation: no queues, no threads, no subprocesses —
/// useful in tests and as the semantics every other backend must
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialBackend;

impl ShardBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(
        &self,
        jobs: &[ShardJob<'_>],
        done: JobDoneFn<'_>,
    ) -> Result<Vec<TrialAccumulator>, SimError> {
        steal_jobs(1, jobs, done, |job| job.run_inline())
    }
}

/// The shared work-stealing driver under every backend: `workers` scoped
/// threads claim jobs from an atomic cursor over the job slice (whichever
/// worker is free takes the next unclaimed job) and apply `run_job` to
/// each; results land in per-job slots and are collected in job order, so
/// the output — including which error wins (the lowest-indexed job's) —
/// is independent of scheduling.  With one worker (or one job) this is a
/// plain in-order loop that stops at the first error.
pub(crate) fn steal_jobs(
    workers: usize,
    jobs: &[ShardJob<'_>],
    done: JobDoneFn<'_>,
    run_job: impl Fn(&ShardJob<'_>) -> Result<TrialAccumulator, SimError> + Sync,
) -> Result<Vec<TrialAccumulator>, SimError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = workers.max(1).min(jobs.len());
    if workers <= 1 {
        // In-order execution means the first error encountered is the
        // lowest-indexed one.
        let mut accumulators = Vec::with_capacity(jobs.len());
        for (index, job) in jobs.iter().enumerate() {
            accumulators.push(run_job(job)?);
            done(index);
        }
        return Ok(accumulators);
    }

    let slots: Mutex<Vec<Option<Result<TrialAccumulator, SimError>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs.len() {
                    break;
                }
                let result = run_job(&jobs[index]);
                slots
                    .lock()
                    .expect("no worker panics while holding the lock")[index] = Some(result);
                done(index);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panics while holding the lock")
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed by a worker"))
        .collect()
}

/// Instantiates the backend a configuration selects.
///
/// [`BackendChoice::Fleet`] builds the pool [`FleetBackend::from_config`]
/// describes: `config.threads` *persistent* local workers (each serving
/// many shard jobs over its lifetime), or the config's fleet manifest,
/// mixing local subprocess workers with remote TCP workers.
///
/// # Errors
///
/// [`SimError::Backend`] when a needed worker binary cannot be located.
pub(crate) fn backend_for(config: &RunnerConfig) -> Result<Box<dyn ShardBackend>, SimError> {
    Ok(match config.backend {
        BackendChoice::Serial => Box::new(SerialBackend),
        BackendChoice::Thread => Box::new(ThreadBackend::new(config.threads)),
        BackendChoice::Fleet => Box::new(FleetBackend::from_config(config)?),
    })
}

/// Executes `jobs` on `backend` and merges each cell's accumulators in
/// shard order, yielding one [`TrialStats`] per cell (cells indexed
/// `0..num_cells`; jobs of a cell must be contiguous and shard-ordered).
///
/// This is the single driver under [`crate::run_batch`],
/// [`crate::Simulation::run`] and the [`crate::SweepMatrix`] scheduler: the
/// merge happens here, in plan order, so the result is a pure function of
/// the jobs — never of the backend or its scheduling.
pub(crate) fn execute_and_merge(
    backend: &dyn ShardBackend,
    jobs: &[ShardJob<'_>],
    num_cells: usize,
    done: JobDoneFn<'_>,
) -> Result<Vec<TrialStats>, SimError> {
    debug_assert!(
        jobs.windows(2).all(|w| {
            w[0].cell < w[1].cell || (w[0].cell == w[1].cell && w[0].shard + 1 == w[1].shard)
        }),
        "jobs must be grouped by cell and shard-ordered within each cell"
    );
    let accumulators = backend.execute(jobs, done)?;
    let mut merged: Vec<TrialAccumulator> =
        (0..num_cells).map(|_| TrialAccumulator::new()).collect();
    for (job, accumulator) in jobs.iter().zip(&accumulators) {
        merged[job.cell].merge(accumulator);
    }
    Ok(merged.iter().map(TrialAccumulator::finalize).collect())
}
