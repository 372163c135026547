//! Property-style round-trip tests for the wire codec the out-of-process
//! backends live on: `ShardSpec::to_wire`/`from_wire` (masses travel as
//! `ref <hash>` blobs resolved through a `BlobSet`) and
//! `TrialAccumulator::to_wire`/`from_wire` over seeded random inputs,
//! plus the float bit-pattern edge cases (±0.0, subnormals, infinities —
//! the codec ships IEEE-754 bit patterns, so any NaN-free value must
//! survive bit-for-bit) and truncated / corrupted message rejection.

use crp_fleet::BlobSet;
use crp_info::{CondensedDistribution, SizeDistribution};
use crp_protocols::ProtocolSpec;
use crp_sim::{ShardPlan, ShardSpec, TrialAccumulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random distribution whose masses carry "ugly" bit patterns: raw
/// weights normalised by their sum (so the masses rarely sum to exactly
/// 1.0), optionally with exact zeros and one subnormal-scale mass mixed
/// in.
fn random_distribution(rng: &mut ChaCha8Rng) -> SizeDistribution {
    let len = 2 + rng.gen_range(0usize..30);
    let mut weights: Vec<f64> = (0..len).map(|_| rng.gen::<f64>().max(1e-12)).collect();
    if rng.gen_bool(0.3) {
        weights[rng.gen_range(0..len)] = 0.0;
    }
    SizeDistribution::from_weights(weights).unwrap()
}

/// The blob lookup a fleet worker's scenario store provides.
fn resolver(blobs: &BlobSet) -> impl Fn(&str) -> Option<String> + '_ {
    |hash| blobs.get(hash).map(str::to_string)
}

/// A lookup serving `blobs` with the first ` canonical` token of each
/// blob respelled as ` respelled`.
fn respelling_resolver<'a>(
    blobs: &'a BlobSet,
    canonical: &str,
    respelled: &str,
) -> impl Fn(&str) -> Option<String> + 'a {
    let (canonical, respelled) = (format!(" {canonical}"), format!(" {respelled}"));
    move |hash| {
        blobs
            .get(hash)
            .map(|blob| blob.replacen(&canonical, &respelled, 1))
    }
}

#[test]
fn shard_specs_round_trip_bit_exactly_over_random_distributions() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0DEC);
    for case in 0..60 {
        let truth = random_distribution(&mut rng);
        let prediction = CondensedDistribution::from_sizes(&random_distribution(&mut rng));
        let max_rounds = 1 + rng.gen_range(0usize..100_000);
        let spec = ShardSpec::sampled(
            ProtocolSpec::new("sorted-guess-cycling")
                .universe(truth.max_size().max(2))
                .prediction(prediction.clone())
                .advice_bits(rng.gen_range(0usize..8)),
            truth.clone(),
            max_rounds,
        );
        let plan = ShardPlan::with_shard_size(
            1 + rng.gen_range(0usize..5000),
            1 + rng.gen_range(0usize..512),
        );
        let seed: u64 = rng.gen();
        let shard = rng.gen_range(0usize..plan.num_shards().max(1));
        let mut blobs = BlobSet::new();
        let job = spec.to_wire(plan, seed, shard, &mut blobs);
        assert_eq!(
            job.refs.len(),
            2,
            "case {case}: population + prediction blobs"
        );

        let (parsed, parsed_plan, parsed_seed, parsed_shard) =
            ShardSpec::from_wire(&job.payload, &resolver(&blobs))
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(parsed_plan, plan, "case {case}");
        assert_eq!(parsed_seed, seed, "case {case}");
        assert_eq!(parsed_shard, shard, "case {case}");
        // Every mass must survive bit-for-bit: compare raw bit patterns,
        // not just values, so a -0.0 flipped to +0.0 would be caught.
        let original_bits: Vec<u64> = truth.masses().iter().map(|m| m.to_bits()).collect();
        let parsed_bits: Vec<u64> = parsed
            .sampled_masses()
            .expect("population kind survives")
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(original_bits, parsed_bits, "case {case}: truth masses");
        let prediction_bits: Vec<u64> = prediction
            .probabilities()
            .iter()
            .map(|m| m.to_bits())
            .collect();
        let parsed_prediction_bits: Vec<u64> = parsed
            .protocol()
            .params()
            .prediction
            .as_ref()
            .expect("prediction survives")
            .probabilities()
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(
            prediction_bits, parsed_prediction_bits,
            "case {case}: prediction masses"
        );
        // And the re-serialisation is byte-identical — payload, refs and
        // blobs — so a spec can relay through any number of dispatch hops
        // unchanged.
        let mut reencoded_blobs = BlobSet::new();
        assert_eq!(
            parsed.to_wire(parsed_plan, parsed_seed, parsed_shard, &mut reencoded_blobs),
            job,
            "case {case}"
        );
        assert_eq!(reencoded_blobs, blobs, "case {case}");
    }
}

#[test]
fn shard_spec_masses_survive_signed_zero_and_subnormals() {
    // -0.0 is a valid (non-negative by IEEE comparison) mass with a bit
    // pattern distinct from +0.0; 5e-324 is the smallest positive
    // subnormal.  Both must cross the wire bit-for-bit.
    let masses = vec![0.5, 0.5, -0.0, 5e-324, 0.0];
    let truth = SizeDistribution::from_masses_exact(masses.clone()).unwrap();
    let spec = ShardSpec::sampled(
        ProtocolSpec::new("decay").universe(truth.max_size()),
        truth,
        1000,
    );
    let mut blobs = BlobSet::new();
    let job = spec.to_wire(ShardPlan::new(100), 7, 0, &mut blobs);
    let (parsed, ..) = ShardSpec::from_wire(&job.payload, &resolver(&blobs)).unwrap();
    let parsed_bits: Vec<u64> = parsed
        .sampled_masses()
        .unwrap()
        .iter()
        .map(|m| m.to_bits())
        .collect();
    let original_bits: Vec<u64> = masses.iter().map(|m| m.to_bits()).collect();
    assert_eq!(parsed_bits, original_bits);
    assert_ne!(
        (-0.0f64).to_bits(),
        0.0f64.to_bits(),
        "the test is vacuous unless the zeros differ in bits"
    );
}

#[test]
fn shard_spec_rejects_truncation_at_every_line_and_corrupt_floats() {
    let truth = SizeDistribution::bimodal(512, 16, 256, 0.9).unwrap();
    let spec = ShardSpec::sampled(
        ProtocolSpec::new("sorted-guess-cycling")
            .universe(512)
            .prediction(CondensedDistribution::from_sizes(&truth)),
        truth,
        4096,
    );
    let mut blobs = BlobSet::new();
    let wire = spec.to_wire(ShardPlan::new(700), 3, 1, &mut blobs).payload;
    let resolve = resolver(&blobs);
    let lines: Vec<&str> = wire.lines().collect();
    // Dropping the trailing end marker — or any suffix — must be
    // rejected, never silently parsed as a shorter message.
    for keep in 0..lines.len() {
        let truncated = lines[..keep].join("\n");
        assert!(
            ShardSpec::from_wire(&truncated, &resolve).is_err(),
            "truncation to {keep} lines must not parse"
        );
    }
    // A corrupted float hex token in a masses blob is a typed error, not
    // a bogus value.
    let mass = blobs
        .iter()
        .flat_map(|(_, blob)| blob.split_ascii_whitespace())
        .find(|t| t.len() == 16 && t.chars().all(|c| c.is_ascii_hexdigit()))
        .expect("the blobs carry hex-encoded masses");
    let corrupt = respelling_resolver(&blobs, mass, "zzzzzzzzzzzzzzzz");
    assert!(ShardSpec::from_wire(&wire, &corrupt).is_err());
    // As is garbage that was never a spec.
    assert!(ShardSpec::from_wire("!!fleet-garbage!!\n", &resolve).is_err());
    // Only the canonical 16-lowercase-hex spelling of a mass parses.  A
    // point mass travels as `3ff0000000000000` (1.0) among zeros, so a
    // lenient decoder would accept each respelling below as a valid
    // spec: signed, uppercase and zero-padded forms of the 1.0, and a
    // short token in place of a zero.
    let point = ShardSpec::sampled(
        ProtocolSpec::new("decay").universe(8),
        SizeDistribution::point_mass(8, 4).unwrap(),
        100,
    );
    let mut blobs = BlobSet::new();
    let wire = point.to_wire(ShardPlan::new(10), 1, 0, &mut blobs).payload;
    assert!(ShardSpec::from_wire(&wire, &resolver(&blobs)).is_ok());
    for (canonical, respelled) in [
        ("3ff0000000000000", "+3ff0000000000000"),
        ("3ff0000000000000", "3FF0000000000000"),
        ("3ff0000000000000", "03ff0000000000000"),
        ("0000000000000000", "3ff"),
    ] {
        assert!(
            blobs
                .iter()
                .any(|(_, blob)| blob.contains(&format!(" {canonical}"))),
            "the spec carries {canonical}"
        );
        let corrupt = respelling_resolver(&blobs, canonical, respelled);
        assert!(
            ShardSpec::from_wire(&wire, &corrupt).is_err(),
            "{respelled:?} must not parse"
        );
    }
}

#[test]
fn accumulators_round_trip_bit_exactly_over_random_outcome_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xACC);
    for case in 0..100 {
        let mut accumulator = TrialAccumulator::new();
        for _ in 0..rng.gen_range(0usize..500) {
            // Huge round counts push the sketch into its log-bucketed
            // range and the Welford moments into large magnitudes.
            let rounds = 1 + rng.gen::<u64>() % (1 << rng.gen_range(1u32..50));
            accumulator.record(rng.gen_bool(0.7), rounds);
        }
        let round_tripped = TrialAccumulator::from_wire(&accumulator.to_wire())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        // PartialEq covers every f64 bit of the moments and the whole
        // sketch bucket vector.
        assert_eq!(accumulator, round_tripped, "case {case}");
        assert_eq!(
            accumulator.finalize(),
            round_tripped.finalize(),
            "case {case}"
        );
    }
}

#[test]
fn accumulator_codec_preserves_nan_free_float_edge_bit_patterns() {
    // The accumulator's two float fields (Welford mean and M2) travel as
    // bit patterns.  Craft wire messages whose bits encode the NaN-free
    // edge cases and require parse → re-serialise to reproduce the exact
    // message, proving no value is normalised, rounded or re-derived.
    let edge_bits: [(f64, &str); 5] = [
        (0.0, "+0.0"),
        (-0.0, "-0.0"),
        (5e-324, "min subnormal"),
        (f64::INFINITY, "+inf"),
        (f64::NEG_INFINITY, "-inf"),
    ];
    for (value, label) in edge_bits {
        let bits = value.to_bits();
        let wire = format!(
            "crp-shard-accumulator v1\n\
             trials 2\n\
             resolved 2 {bits:016x} {bits:016x} 1 9\n\
             resolved-counts 2 0 1 0 0 0 0 0 0 0 1\n\
             overall 2 {bits:016x} {bits:016x} 1 9\n\
             overall-counts 2 0 1 0 0 0 0 0 0 0 1\n\
             end\n"
        );
        let parsed = TrialAccumulator::from_wire(&wire).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(parsed.to_wire(), wire, "{label} must survive bit-for-bit");
    }
}

#[test]
fn accumulator_rejects_truncation_and_corrupt_buckets() {
    let mut accumulator = TrialAccumulator::new();
    for i in 0..50u64 {
        accumulator.record(i % 3 != 0, 1 + i * 17);
    }
    let wire = accumulator.to_wire();
    let lines: Vec<&str> = wire.lines().collect();
    for keep in 0..lines.len() {
        let truncated = lines[..keep].join("\n");
        assert!(
            TrialAccumulator::from_wire(&truncated).is_err(),
            "truncation to {keep} lines must not parse"
        );
    }
    // Bucket counts that no longer sum to their declared total are
    // rejected — the self-check that catches a mid-stream bit flip.
    let corrupt = wire.replacen("overall-counts 50", "overall-counts 51", 1);
    assert!(TrialAccumulator::from_wire(&corrupt).is_err());
    // Only the canonical 16-lowercase-hex spelling of a Welford moment
    // parses: signed, uppercase, short and zero-padded tokens are
    // rejected rather than decoded to a plausible mean.
    let mean = wire
        .lines()
        .find_map(|line| line.strip_prefix("resolved "))
        .and_then(|moments| moments.split_ascii_whitespace().nth(1))
        .expect("the resolved line carries a mean")
        .to_string();
    for token in [
        "+3ff0000000000000",
        "3FF0000000000000",
        "3ff",
        "03ff0000000000000",
    ] {
        let corrupt = wire.replacen(&mean, token, 1);
        assert!(
            TrialAccumulator::from_wire(&corrupt).is_err(),
            "{token:?} must not parse"
        );
    }
}

#[test]
fn specs_without_masses_reference_no_blob() {
    let spec = ShardSpec::fixed(ProtocolSpec::new("decay").universe(64), 8, 100);
    let mut blobs = BlobSet::new();
    let job = spec.to_wire(ShardPlan::new(10), 1, 0, &mut blobs);
    assert!(job.refs.is_empty());
    assert!(blobs.is_empty());
    assert!(!job.payload.contains(" ref "), "{}", job.payload);
    let no_blobs = |_: &str| None;
    let (parsed, ..) = ShardSpec::from_wire(&job.payload, &no_blobs).unwrap();
    assert!(parsed.sampled_masses().is_none());
}

#[test]
fn unresolvable_refs_are_typed_errors_naming_the_hash() {
    let truth = SizeDistribution::bimodal(256, 8, 128, 0.8).unwrap();
    let spec = ShardSpec::sampled(
        ProtocolSpec::new("sorted-guess-cycling")
            .universe(256)
            .prediction(CondensedDistribution::from_sizes(&truth)),
        truth,
        4096,
    );
    let mut blobs = BlobSet::new();
    let job = spec.to_wire(ShardPlan::new(700), 42, 1, &mut blobs);
    assert_eq!(job.refs.len(), 2);
    // A worker that holds only one of the two blobs must refuse, naming
    // the one it lacks, never guess.
    for missing in &job.refs {
        let partial = |hash: &str| {
            (hash != missing)
                .then(|| blobs.get(hash).map(str::to_string))
                .flatten()
        };
        let err = ShardSpec::from_wire(&job.payload, &partial).unwrap_err();
        assert!(err.to_string().contains(missing.as_str()), "{err}");
    }
}

#[test]
fn inline_masses_are_not_a_wire_spelling() {
    let truth = SizeDistribution::point_mass(8, 4).unwrap();
    let spec = ShardSpec::sampled(ProtocolSpec::new("decay").universe(8), truth, 100);
    let mut blobs = BlobSet::new();
    let job = spec.to_wire(ShardPlan::new(10), 1, 0, &mut blobs);
    let (hash, blob) = blobs.iter().next().expect("the population blob");
    // Splice the blob's `sampled <hex…>` text in place of its ref: the
    // codec's older inline form, which no longer parses.
    let inline = job.payload.replacen(&format!("ref {hash}"), blob, 1);
    assert!(inline.contains("population sampled "), "{inline}");
    let err = ShardSpec::from_wire(&inline, &resolver(&blobs)).unwrap_err();
    assert!(err.to_string().contains("population"), "{err}");
}
