//! The trace names the loop that ran.  A cell's trial kernel is selected
//! from its protocol alone, the same way in the dispatcher and on every
//! fleet worker, so each worker-side `shard.execute` event must name the
//! kernel the dispatcher's `kernel.select` named for that shard's cell.
//!
//! The trace sink is process-wide, so this test has its own binary.

use std::collections::HashMap;

use crp_predict::ScenarioLibrary;
use crp_sim::{FleetBackend, ShardPlan, SweepMatrix, SweepProtocol};

/// The worker binary cargo built alongside this test.
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_crp_experiments");

/// One trace line's fields, string values unquoted.
fn fields(line: &str) -> HashMap<String, String> {
    crp_obs::trace_line_fields(line)
        .expect("a schema-valid trace line")
        .into_iter()
        .map(|(name, value)| (name, value.trim_matches('"').to_string()))
        .collect()
}

/// Every event named `event` in `text`.
fn events<'a>(text: &'a str, event: &'a str) -> impl Iterator<Item = HashMap<String, String>> + 'a {
    text.lines()
        .map(fields)
        .filter(move |fields| fields["event"] == event)
}

#[test]
fn every_worker_shard_runs_the_kernel_the_dispatcher_selected() {
    let dir = std::env::temp_dir().join(format!("crp-kernel-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    crp_obs::init_trace(path.to_str().unwrap()).unwrap();

    let trials = 600;
    let library = ScenarioLibrary::new(256).unwrap();
    let matrix = SweepMatrix::new()
        .scenario(library.bimodal())
        .protocol(SweepProtocol::registry("decay").unwrap())
        .protocol(SweepProtocol::registry("det-advice-no-cd").unwrap())
        .trials(trials)
        .seed(3);
    let backend = FleetBackend::local_with_command(2, WORKER_BIN);
    assert_eq!(
        matrix.run_on(&backend).unwrap(),
        matrix.run_reference().unwrap()
    );
    drop(backend);

    // The dispatcher: the kernel of each cell, and the job of each span.
    let text = std::fs::read_to_string(&path).unwrap();
    let selected: HashMap<usize, String> = events(&text, "kernel.select")
        .map(|event| (event["cell"].parse().unwrap(), event["kernel"].clone()))
        .collect();
    assert_eq!(selected[&0], "uniform-no-cd");
    assert_eq!(selected[&1], "deterministic");
    let job_of_span: HashMap<String, usize> = events(&text, "fleet.dispatch")
        .map(|event| (event["span"].clone(), event["job"].parse().unwrap()))
        .collect();

    // The workers, in their own sibling files: each shard names the
    // kernel its cell was selected for.  Cells are contiguous in job
    // order, one job per shard.
    let shards = ShardPlan::new(trials).num_shards();
    let mut executed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        if !entry.file_name().to_string_lossy().contains(".worker-") {
            continue;
        }
        let worker = std::fs::read_to_string(entry.path()).unwrap();
        for event in events(&worker, "shard.execute") {
            let job = job_of_span[&event["span"]];
            assert_eq!(event["kernel"], selected[&(job / shards)], "job {job}");
            executed += 1;
        }
    }
    assert!(executed >= 2 * shards, "{executed} worker shards traced");
    let _ = std::fs::remove_dir_all(&dir);
}
