//! The fuzz harness against the scalar reference: every grid a short
//! campaign and a corpus replay evaluate on the production path (the
//! batched kernels each protocol selects) must equal the same grid's
//! [`crp_sim::SweepMatrix::run_reference`] bit for bit, and the campaign
//! must report the shipped protocols clean.  A kernel bug that slipped
//! past the unit equivalence tests would surface here as a phantom
//! violation or a diverging grid.

use std::path::PathBuf;

use crp_fuzz::{
    campaign_trace, evaluate_trace, property_by_name, run_campaign, trace_matrix, Corpus,
    FuzzConfig,
};

#[test]
fn a_campaign_is_clean_and_every_trace_grid_matches_the_reference() {
    let config = FuzzConfig {
        budget: 4,
        trials: 80,
        ..FuzzConfig::default()
    };
    let report = run_campaign(&config).unwrap();
    assert_eq!(report.traces_run, 4);
    // The shipped protocols satisfy every property; the kernels must not
    // invent a violation (nor hide one).
    assert!(report.clean(), "campaign found unexpected failures");
    for index in 0..config.budget {
        let (_, trace, label) = campaign_trace(&config, index).unwrap();
        let matrix = trace_matrix(&config, &trace, &label).unwrap();
        assert_eq!(
            matrix.run_reference().unwrap(),
            matrix.run().unwrap(),
            "{label} diverged from the scalar reference"
        );
    }
}

#[test]
fn corpus_replays_are_bit_identical_to_the_reference() {
    let corpus = Corpus::open(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus"));
    let property = property_by_name("all").unwrap();
    let config = FuzzConfig {
        trials: 60,
        protocols: vec!["blind-trust".into()],
        ..FuzzConfig::default()
    };
    for (path, trace) in corpus.load_all().unwrap() {
        let evaluation = evaluate_trace(&config, &trace, "replay", property.as_ref()).unwrap();
        let reference = trace_matrix(&config, &trace, "replay")
            .unwrap()
            .run_reference()
            .unwrap();
        assert_eq!(
            reference,
            evaluation.results,
            "{} diverged from the scalar reference",
            path.display()
        );
        assert_eq!(property.check(&reference), evaluation.violations);
    }
}
