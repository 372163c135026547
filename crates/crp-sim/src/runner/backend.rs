//! The executor-agnostic shard backend abstraction, and the one way a
//! cell runs on it.
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
//!
//! Every cell runs the same way.  [`CellWork`] is a cell's per-cell setup
//! (plan, seed, wire spec and trial kernel, built once), and [`run_cells`]
//! is the one function that turns cells into a job list, executes it on a
//! backend and merges each cell in shard order.  A fleet worker runs the
//! one shard of a job through the same [`CellWork`].

use crate::runner::fleet::FleetBackend;
use crate::runner::kernel::CellKernel;
use crate::runner::plan::{BackendChoice, RunnerConfig, ShardPlan};
use crate::runner::process::ShardSpec;
use crate::runner::thread::ThreadBackend;
use crate::simulation::Simulation;
use crate::stats::{TrialAccumulator, TrialStats};
use crate::SimError;

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
    /// The cell's one description, which out-of-process backends ship.
    pub spec: &'a ShardSpec,
    /// The cell's trial executor: a fast path when the configured
    /// [`crate::KernelChoice`] and the protocol admit one, the scalar
    /// trial-at-a-time path otherwise.  Either way the statistics are
    /// bit-identical (both consume the same per-trial RNG streams in the
    /// same order).
    pub(crate) kernel: &'a CellKernel<'a>,
}

impl ShardJob<'_> {
    /// Runs this job inline on the calling thread: the cell's kernel folds
    /// the shard's trials into a fresh accumulator in trial order,
    /// stopping at the first failed trial.
    pub fn run_inline(&self) -> Result<TrialAccumulator, SimError> {
        let started = std::time::Instant::now();
        let accumulator = self
            .kernel
            .run_shard(self.plan, self.base_seed, self.shard)?;
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
                .str("kernel", self.kernel.name())
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
}

/// One cell's per-cell setup, built once and borrowed by every shard job
/// of the cell: its shard plan, base seed, spec and trial kernel.
pub(crate) struct CellWork<'a> {
    plan: ShardPlan,
    base_seed: u64,
    spec: &'a ShardSpec,
    kernel: CellKernel<'a>,
}

impl<'a> CellWork<'a> {
    /// The work of `simulation` split by `plan`, borrowing its spec.
    pub(crate) fn new(simulation: &'a Simulation, plan: ShardPlan) -> Self {
        Self {
            plan,
            base_seed: simulation.config().base_seed,
            spec: simulation.spec(),
            kernel: simulation.cell_kernel(),
        }
    }

    /// Shard `shard` of this cell, as job of cell index `cell`.
    pub(crate) fn job(&self, cell: usize, shard: usize) -> ShardJob<'_> {
        ShardJob {
            cell,
            shard,
            plan: self.plan,
            base_seed: self.base_seed,
            spec: self.spec,
            kernel: &self.kernel,
        }
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

/// Runs cells — the one path under [`crate::Simulation::run_on`] and the
/// [`crate::SweepMatrix`] scheduler: builds each labelled cell's
/// [`CellWork`] (accounting its kernel choice), runs every cell's shard
/// jobs as one job list on `backend`, and merges each cell's accumulators
/// in shard order — one [`TrialStats`] per cell, in cell order.  `done`
/// receives the cell index of each finished job.
///
/// The merge happens here, in plan order, so the result is a pure
/// function of the cells — never of the backend or its scheduling.
pub(crate) fn run_cells(
    backend: &dyn ShardBackend,
    cells: &[(&str, &Simulation)],
    done: &(dyn Fn(usize) + Sync),
) -> Result<Vec<TrialStats>, SimError> {
    let work: Vec<CellWork<'_>> = cells
        .iter()
        .enumerate()
        .map(|(index, &(label, simulation))| {
            let work = CellWork::new(simulation, ShardPlan::new(simulation.config().trials));
            crp_obs::global().inc(if work.kernel.is_batched() {
                "sim.kernel.batched"
            } else {
                "sim.kernel.scalar"
            });
            if crp_obs::trace_enabled() {
                crp_obs::emit(
                    &crp_obs::TraceEvent::new("kernel.select")
                        .u64("cell", index as u64)
                        .str("protocol", label)
                        .str("kernel", work.kernel.name()),
                );
            }
            work
        })
        .collect();
    let jobs: Vec<ShardJob<'_>> = work
        .iter()
        .enumerate()
        .flat_map(|(cell, work)| {
            (0..work.plan.num_shards()).map(move |shard| work.job(cell, shard))
        })
        .collect();
    let accumulators = backend.execute(&jobs, &|index| done(jobs[index].cell))?;
    let mut merged: Vec<TrialAccumulator> = work.iter().map(|_| TrialAccumulator::new()).collect();
    for (job, accumulator) in jobs.iter().zip(&accumulators) {
        merged[job.cell].merge(accumulator);
    }
    Ok(merged.iter().map(TrialAccumulator::finalize).collect())
}
