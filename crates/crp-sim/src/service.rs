//! The sweep-service glue: how a [`SweepMatrix`] becomes a `crp-serve`
//! submission and how a daemon's outcome becomes [`SweepResults`].
//!
//! The split of responsibilities:
//!
//! * **This module (client side)** compiles the matrix exactly like a
//!   local run would, serialises each cell once with
//!   [`ShardSpec::cell_to_wire`] — its masses going once into the
//!   submission's blob table — next to the cell's job count, and
//!   reassembles the daemon's bit-exact accumulator blobs into the same
//!   [`SweepResults`] a local run produces, so `crp_experiments submit
//!   --csv` is byte-for-byte compatible with `sweep --csv`.
//! * **This module (server side)** supplies the three hooks a
//!   payload-agnostic [`crp_serve::SweepServer`] needs:
//!   [`merge_cell_answers`] (shard-order accumulator merge),
//!   [`check_answer`] (accumulator-codec validation of worker answers
//!   and cache reads) and [`canonicalize_shard_job`] (the one spelling
//!   of a job the daemon dispatches, which the daemon asks of job 0 of
//!   each cell it computes).
//!
//! The daemon keys a job by the content hash of its expanded payload —
//! the cell payload plus its job line — which names its masses blobs by
//! hash, so *any* change to the protocol spec, the scenario masses, the
//! shard plan, or the seed produces a different key — cache invalidation
//! is structural, with no versioning bookkeeping to forget.

use crp_fleet::BlobSet;
use crp_serve::wire::{Submission, SubmissionCell};
use crp_serve::{ServeClient, SubmissionHooks, SubmissionOutcome};

use crate::runner::{ShardPlan, ShardSpec};
use crate::stats::TrialAccumulator;
use crate::sweep::{SweepCell, SweepCellResult, SweepMatrix, SweepResults};
use crate::SimError;

/// Compiles a matrix into a `crp-serve` submission plus its compiled
/// cells, which [`results_from_outcome`] turns into results.
///
/// # Errors
///
/// Compilation errors (unknown protocols, invalid cells).
pub fn compile_submission(matrix: &SweepMatrix) -> Result<(Submission, Vec<SweepCell>), SimError> {
    let cells = matrix.compile()?;
    let mut blobs = BlobSet::new();
    let submission_cells = cells
        .iter()
        .map(|cell| {
            let config = cell.simulation.config();
            let plan = ShardPlan::new(config.trials);
            SubmissionCell {
                payload: cell
                    .simulation
                    .spec()
                    .cell_to_wire(plan, config.base_seed, &mut blobs)
                    .payload,
                jobs: plan.num_shards(),
            }
        })
        .collect();
    Ok((
        Submission {
            blobs,
            cells: submission_cells,
        },
        cells,
    ))
}

/// Reassembles a daemon outcome into the [`SweepResults`] the local
/// sweep path produces — bit-identical statistics, same grid order.
///
/// # Errors
///
/// [`SimError::Backend`] when the outcome does not match the submission
/// (cell count) or a blob fails the accumulator codec.
pub fn results_from_outcome(
    cells: Vec<SweepCell>,
    outcome: &SubmissionOutcome,
) -> Result<SweepResults, SimError> {
    if outcome.cells.len() != cells.len() {
        return Err(SimError::Backend {
            what: format!(
                "the sweep server answered {} cells for a {}-cell submission",
                outcome.cells.len(),
                cells.len()
            ),
        });
    }
    let cells = cells
        .into_iter()
        .zip(&outcome.cells)
        .map(|(cell, answer)| {
            let accumulator =
                TrialAccumulator::from_wire(&answer.blob).map_err(|e| SimError::Backend {
                    what: format!("malformed cell blob from the sweep server: {e}"),
                })?;
            Ok(cell.into_result(accumulator.finalize()))
        })
        .collect::<Result<Vec<SweepCellResult>, SimError>>()?;
    Ok(SweepResults::from_cells(cells))
}

/// Submits a matrix to a running sweep daemon and returns the results
/// plus the daemon's cache statistics.  `progress` receives
/// `(settled_jobs, total_jobs, cache_hits)` as the server streams them.
///
/// # Errors
///
/// Compilation errors, connection/protocol failures, and server-reported
/// submission errors (all as typed [`SimError`]s).
pub fn submit_matrix(
    addr: &str,
    matrix: &SweepMatrix,
    progress: impl FnMut(usize, usize, usize),
) -> Result<(SweepResults, SubmissionOutcome), SimError> {
    submit_matrix_as(addr, None, matrix, progress)
}

/// Like [`submit_matrix`], naming the tenant the daemon should account
/// the submission to (its `serve.tenant.<id>.*` counters); `None`
/// submits as the `anonymous` tenant.
///
/// # Errors
///
/// As [`submit_matrix`].
pub fn submit_matrix_as(
    addr: &str,
    tenant: Option<&str>,
    matrix: &SweepMatrix,
    mut progress: impl FnMut(usize, usize, usize),
) -> Result<(SweepResults, SubmissionOutcome), SimError> {
    let (submission, cells) = compile_submission(matrix)?;
    let mut client = match tenant {
        Some(tenant) => ServeClient::connect_as(addr, tenant),
        None => ServeClient::connect(addr),
    }
    .map_err(|e| SimError::Backend {
        what: e.to_string(),
    })?;
    let outcome = client
        .submit(&submission, |settled, total, hits| {
            progress(settled, total, hits)
        })
        .map_err(|e| SimError::Backend {
            what: e.to_string(),
        })?;
    let results = results_from_outcome(cells, &outcome)?;
    Ok((results, outcome))
}

/// The server-side canonicalizer: parses a shard-job payload (resolving
/// its `ref <hash>` lines through the submission's blob table) and
/// re-encodes it with [`ShardSpec::to_wire`] — the one spelling the
/// daemon dispatches and caches a job under.  The decoder pins the job
/// line's count to the plan's shard count, so accepting a cell's job 0
/// vets every job of the cell.
///
/// # Errors
///
/// The codec's description of a malformed payload or an unresolvable
/// blob reference.
pub fn canonicalize_shard_job(
    payload: &str,
    resolve: &dyn Fn(&str) -> Option<String>,
) -> Result<String, String> {
    let (spec, plan, base_seed, shard) =
        ShardSpec::from_wire(payload, resolve).map_err(|e| e.to_string())?;
    Ok(spec
        .to_wire(plan, base_seed, shard, &mut BlobSet::new())
        .payload)
}

/// The hooks a [`crp_serve::SweepServer`] needs to host sweep
/// submissions: accumulator merge, accumulator validation, and the
/// shard-job canonicalizer.
pub fn sweep_hooks() -> SubmissionHooks<'static> {
    SubmissionHooks {
        merge: &merge_cell_answers,
        check: &check_answer,
        canonicalize: &canonicalize_shard_job,
    }
}

/// The server-side cell merger: parses each shard answer, merges in
/// submission (= shard) order, and re-serialises — producing exactly the
/// accumulator a local run would have merged, bit for bit.
///
/// # Errors
///
/// A description of the first malformed answer (the server turns it into
/// a submission error; in practice [`check_answer`] has already vetted
/// every answer).
pub fn merge_cell_answers(answers: &[String]) -> Result<String, String> {
    let mut merged = TrialAccumulator::new();
    for answer in answers {
        merged.merge(&TrialAccumulator::from_wire(answer)?);
    }
    Ok(merged.to_wire())
}

/// The server-side answer check: a blob (worker answer or cache read)
/// must round-trip the accumulator codec before it is trusted.
///
/// # Errors
///
/// The codec's description of the first malformed line.
pub fn check_answer(answer: &str) -> Result<(), String> {
    TrialAccumulator::from_wire(answer).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepProtocol;
    use crp_predict::ScenarioLibrary;
    use crp_protocols::ProtocolSpec;

    fn demo_matrix(trials: usize) -> SweepMatrix {
        let library = ScenarioLibrary::new(256).unwrap();
        SweepMatrix::new()
            .scenarios([library.bimodal(), library.adversarial_drift()])
            .protocol(
                SweepProtocol::from_scenario("decay", |s| {
                    ProtocolSpec::new("decay").universe(s.distribution().max_size())
                })
                .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
            )
            .trials(trials)
            .seed(11)
    }

    #[test]
    fn submissions_share_scenario_blobs_across_jobs() {
        // 600 trials = 3 shards per cell; both cells of a scenario share
        // its masses blob, so the blob table stays small.
        let (submission, cells) = compile_submission(&demo_matrix(600)).unwrap();
        assert_eq!(submission.cells.len(), 2);
        assert_eq!(cells.len(), 2);
        assert_eq!(submission.job_count(), 6);
        // Two scenarios → two truth blobs (no predictions in this grid);
        // every job references its scenario's blob and is already in
        // the one spelling the daemon's canonicalizer reproduces.
        assert_eq!(submission.blobs.len(), 2);
        let resolve = |hash: &str| submission.blobs.get(hash).map(str::to_string);
        for cell in &submission.cells {
            assert_eq!(cell.jobs, 3);
            for payload in (0..cell.jobs).map(|index| cell.job(index)) {
                assert_eq!(payload.matches(" ref ").count(), 1, "{payload}");
                assert!(
                    !payload.contains("population sampled"),
                    "jobs must not carry their masses inline"
                );
                assert_eq!(canonicalize_shard_job(&payload, &resolve).unwrap(), payload);
            }
        }
        // The decoded body recomputes the same blob table.
        let decoded = Submission::decode(&submission.encode()).unwrap();
        assert_eq!(decoded, submission);
    }

    #[test]
    fn job_keys_change_with_spec_masses_plan_and_seed() {
        let library = ScenarioLibrary::new(256).unwrap();
        let base = |matrix: &SweepMatrix| {
            let (submission, _) = compile_submission(matrix).unwrap();
            submission.cells[0].job_keys()[0].clone()
        };
        let reference = base(&demo_matrix(600));
        // Different seed → different key.
        assert_ne!(reference, base(&demo_matrix(600).seed(12)));
        // Different plan (trial budget) → different key.
        assert_ne!(reference, base(&demo_matrix(900)));
        // Different protocol spec → different key.
        let other_protocol = SweepMatrix::new()
            .scenario(library.bimodal())
            .protocol(
                SweepProtocol::from_scenario("willard", |s| {
                    ProtocolSpec::new("willard").universe(s.distribution().max_size())
                })
                .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
            )
            .trials(600)
            .seed(11);
        assert_ne!(reference, base(&other_protocol));
        // Different scenario masses → different key.
        let other_scenario = SweepMatrix::new()
            .scenario(library.geometric())
            .protocol(
                SweepProtocol::from_scenario("decay", |s| {
                    ProtocolSpec::new("decay").universe(s.distribution().max_size())
                })
                .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
            )
            .trials(600)
            .seed(11);
        assert_ne!(reference, base(&other_scenario));
    }

    #[test]
    fn respelled_and_dangling_jobs_are_rejected_before_dispatch() {
        let (submission, _) = compile_submission(&demo_matrix(600)).unwrap();
        let first = &submission.cells[0].payload;
        let hash = first
            .lines()
            .find_map(|line| line.strip_prefix("population ref "))
            .expect("the first cell references its population blob")
            .to_string();
        // The same cell with its ref line spelled `ref  <hash>`, which is
        // not the one spelling `to_wire` produces.
        let mut respelled = submission.clone();
        respelled.cells[0].payload = first.replacen("ref ", "ref  ", 1);
        let respelled_key = respelled.cells[0].job_keys()[0].clone();
        // The same cell with a zero-padded round budget, which the spec
        // decoder rejects, naming the `max-rounds` line.
        let mut padded = submission.clone();
        padded.cells[0].payload = first.replacen("max-rounds ", "max-rounds 0", 1);
        // The same cell referencing a blob the submission does not carry.
        let mut dangling = submission.clone();
        let missing = crp_fleet::content_hash(b"a blob nobody shipped");
        dangling.cells[0].payload = first.replacen(&hash, &missing, 1);
        // The same cell expecting 2^62 participants in a 256-id universe,
        // which the spec decoder rejects, naming the `participants` line.
        let mut crowded = submission.clone();
        crowded.cells[0].payload =
            first.replacen("participants none", "participants 4611686018427387904", 1);
        // The same cell declaring one job more, and one fewer, than its
        // 3-shard plan: the decoder rejects job 0's line either way.
        let mut overcounted = submission.clone();
        overcounted.cells[0].jobs = 4;
        let mut undercounted = submission.clone();
        undercounted.cells[0].jobs = 2;

        // No cache and no workers: a job that got past the canonical
        // check would fail with a fleet error instead.
        let server = crp_serve::SweepServer::bind("127.0.0.1:0", Vec::new(), None).unwrap();
        for (label, tampered, needle) in [
            ("respelled", respelled, respelled_key.as_str()),
            ("padded", padded, "line 8: \"016384\""),
            ("dangling", dangling, missing.as_str()),
            (
                "crowded",
                crowded,
                "line 5: invalid parameter: participants 4611686018427387904",
            ),
            (
                "overcounted",
                overcounted,
                "line 12: a 4-job cell does not match its 3-shard plan",
            ),
            (
                "undercounted",
                undercounted,
                "line 12: a 2-job cell does not match its 3-shard plan",
            ),
        ] {
            match server.run_submission(&tampered, sweep_hooks(), &|_, _, _| {}) {
                Err(crp_serve::ServeError::Malformed(what)) => {
                    assert!(what.contains(needle), "{label}: {what}");
                }
                other => panic!("{label} job reached dispatch: {other:?}"),
            }
        }
    }

    #[test]
    fn merge_matches_the_local_shard_order_merge() {
        // Merging wire answers shard by shard must equal merging the
        // accumulators in process.
        let mut a = TrialAccumulator::new();
        let mut b = TrialAccumulator::new();
        for i in 0..100u64 {
            a.record(i % 7 != 0, i + 1);
            b.record(i % 3 != 0, 2 * i + 5);
        }
        let merged_wire =
            merge_cell_answers(&[a.to_wire(), b.to_wire()]).expect("well-formed answers merge");
        let mut local = TrialAccumulator::new();
        local.merge(&a);
        local.merge(&b);
        assert_eq!(merged_wire, local.to_wire());
        check_answer(&merged_wire).unwrap();
        assert!(check_answer("not an accumulator").is_err());
    }
}
