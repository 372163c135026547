//! `TrialStats` pinned across commits: every registry protocol, run the
//! way the command line runs it (`SweepProtocol::registry`), over two
//! scenarios, must reproduce the committed reference line by line.
//!
//! The equivalence suites compare two execution paths of one build, so a
//! change that moves a protocol's schedule or horizon on every path at
//! once passes all of them.  This file is the cross-commit check: each
//! cell's statistics are printed with `{:?}`, which writes every float
//! in its shortest round-tripping form, and compared with
//! `statistics_golden.txt`.  A mismatch means the change altered the
//! statistics; the reference is not to be regenerated to make it pass.

use crp_predict::ScenarioLibrary;
use crp_protocols::REGISTRY;
use crp_sim::{SerialBackend, SweepMatrix, SweepProtocol};

const GOLDEN: &str = include_str!("statistics_golden.txt");

#[test]
fn every_registry_protocol_reproduces_its_committed_trial_stats() {
    let library = ScenarioLibrary::new(256).unwrap();
    let matrix = SweepMatrix::new()
        .protocols(
            REGISTRY
                .iter()
                .map(|entry| SweepProtocol::registry(entry.name).unwrap()),
        )
        .scenarios([
            library.by_name("bimodal").unwrap(),
            library.by_name("adversarial-drift").unwrap(),
        ])
        .trials(512)
        .seed(1);
    let results = matrix.run_on(&SerialBackend).unwrap();
    let lines: Vec<String> = results
        .cells()
        .iter()
        .map(|cell| format!("{} {} {:?}", cell.scenario, cell.protocol, cell.stats))
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    for (line, expected) in lines.iter().zip(&golden) {
        assert_eq!(line, expected);
    }
    assert_eq!(lines.len(), golden.len(), "cell count");
}
