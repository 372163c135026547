//! The fuzz harness under the batched trial kernels: a short campaign
//! on [`KernelChoice::Auto`] (batched kernels wherever a protocol
//! admits one) must report exactly what the
//! scalar executor reports — the same grids, the same (zero, for the
//! shipped protocols) property violations — because the kernels are
//! bit-identical to the scalar path by contract.  A kernel bug that
//! slipped past the unit equivalence tests would surface here as a
//! phantom violation or a diverging grid.

use std::path::PathBuf;

use crp_fuzz::{evaluate_trace, property_by_name, run_campaign, Corpus, FuzzConfig};
use crp_sim::{KernelChoice, RunnerConfig};

fn config_with_kernel(kernel: KernelChoice) -> FuzzConfig {
    FuzzConfig {
        budget: 4,
        trials: 80,
        runner: RunnerConfig::default().with_kernel(kernel),
        ..FuzzConfig::default()
    }
}

#[test]
fn a_batched_campaign_reports_exactly_what_the_scalar_campaign_reports() {
    let scalar = run_campaign(&config_with_kernel(KernelChoice::Scalar)).unwrap();
    let batched = run_campaign(&config_with_kernel(KernelChoice::Auto)).unwrap();
    assert_eq!(scalar.traces_run, batched.traces_run);
    // The shipped protocols satisfy every property; the kernels must not
    // invent a violation (nor hide one).
    assert!(scalar.clean(), "scalar campaign found unexpected failures");
    assert!(
        batched.clean(),
        "batched campaign found unexpected failures"
    );
}

#[test]
fn corpus_replays_are_bit_identical_under_the_batched_kernel() {
    let corpus = Corpus::open(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus"));
    let property = property_by_name("all").unwrap();
    let config = |kernel| FuzzConfig {
        trials: 60,
        protocols: vec!["blind-trust".into()],
        runner: RunnerConfig::default().with_kernel(kernel),
        ..FuzzConfig::default()
    };
    for (path, trace) in corpus.load_all().unwrap() {
        let scalar = evaluate_trace(
            &config(KernelChoice::Scalar),
            &trace,
            "replay",
            property.as_ref(),
        )
        .unwrap();
        let batched = evaluate_trace(
            &config(KernelChoice::Auto),
            &trace,
            "replay",
            property.as_ref(),
        )
        .unwrap();
        assert_eq!(
            scalar.results,
            batched.results,
            "{} diverged under the batched kernel",
            path.display()
        );
        assert_eq!(scalar.violations, batched.violations);
    }
}
