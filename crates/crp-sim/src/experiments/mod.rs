//! One module per table / figure reproduced from the paper.
//!
//! Each experiment exposes a `run` function returning a typed result with
//! one row per configuration, plus a `to_table` rendering used by the
//! `crp-experiments` binary and recorded in `EXPERIMENTS.md`.
//!
//! Every module declares its (protocol × scenario) grid through the
//! [`crate::SweepMatrix`] engine instead of hand-rolled nested loops: the
//! matrix compiles the axes to validated simulation cells, the
//! work-stealing sweep scheduler executes every cell's shards through the
//! [`crate::ShardBackend`] the supplied [`crate::RunnerConfig`] selects
//! (serial, scoped threads, or persistent fleet workers — statistics
//! are bit-identical across all of them), and the module reshapes the
//! resulting grid into its paper-specific row type.
//!
//! | module | DESIGN.md experiment id | paper artefact |
//! |---|---|---|
//! | [`table1`] | T1-NCD, T1-CD | Table 1 (network-size predictions) |
//! | [`table2`] | T2-DET-NCD, T2-DET-CD, T2-RAND-NCD, T2-RAND-CD | Table 2 (perfect advice) |
//! | [`entropy_sweep`] | F-ENTROPY | rounds vs condensed entropy |
//! | [`kl_degradation`] | F-KL | rounds vs prediction divergence |
//! | [`baselines`] | F-BASELINE | predictions vs classical baselines |
//! | [`range_finding`] | F-RF | lower-bound machinery verification |

pub mod baselines;
pub mod entropy_sweep;
pub mod kl_degradation;
pub mod range_finding;
pub mod table1;
pub mod table2;
