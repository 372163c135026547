//! Benchmark-only crate.
//!
//! The benchmarks live in `benches/`, and each one checks a number: a
//! bound on a speed ratio or an overhead, and bit-identical statistics
//! across the paths it times.  The paper's tables come from the
//! `crp_experiments` binary, not from here.  Cargo needs a library
//! target in every package, so this one has no items.
