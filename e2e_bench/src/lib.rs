//! Helpers of the end-to-end sweep-service benchmark, kept in a library so
//! `tests/helpers.rs` can exercise them: sample summaries, in-memory
//! spans with self-time accounting, `crp-obs` counter deltas, and worker
//! memory readings from `/proc`.

pub mod obs_delta;
pub mod procfs;
pub mod spans;
pub mod summary;
