//! The scoped-thread shard backend: a fixed pool of workers stealing jobs
//! from one shared queue.
//!
//! It implements [`crate::ShardBackend`] over the work-stealing loop it
//! shares with [`crate::SerialBackend`].  The "queue" is an atomic cursor
//! over the job slice (see [`steal_jobs`]): whichever worker is free claims
//! the next unclaimed job, so grids of many small cells keep every worker
//! busy without any per-cell barriers.  Results land in per-job slots and
//! are collected in job order afterwards, which keeps the output
//! independent of scheduling.

use crate::runner::backend::{steal_jobs, JobDoneFn, ShardBackend, ShardJob};
use crate::stats::TrialAccumulator;
use crate::SimError;

/// Executes shard jobs on `workers` scoped threads pulling from a shared
/// queue (work stealing at shard granularity).
#[derive(Debug, Clone, Copy)]
pub struct ThreadBackend {
    workers: usize,
}

impl ThreadBackend {
    /// A backend with `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl ShardBackend for ThreadBackend {
    fn name(&self) -> &'static str {
        "thread"
    }

    fn execute(
        &self,
        jobs: &[ShardJob<'_>],
        done: JobDoneFn<'_>,
    ) -> Result<Vec<TrialAccumulator>, SimError> {
        steal_jobs(self.workers, jobs, done, |job| job.run_inline())
    }
}
