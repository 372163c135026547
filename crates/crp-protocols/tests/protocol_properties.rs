//! Property-style tests over the protocol layer, driven by deterministic
//! seeded sweeps (the environment has no `proptest`).

use crp_channel::{try_execute, ChannelMode, CollisionHistory, ExecutionConfig, ParticipantId};
use crp_info::{range_index_for_size, CondensedDistribution, SizeDistribution};
use crp_predict::{Advice, AdviceOracle, IdPrefixOracle, RangeOracle};
use crp_protocols::rangefinding::rf_construction;
use crp_protocols::{
    try_run_protocol_with, AdvisedDecay, AdvisedWillard, CodedSearch, Decay,
    DeterministicAdviceProtocol, DeterministicCdAdvice, DeterministicNoCdAdvice, NodeFactory,
    ProtocolError, SortedGuess, UniformPolicy, Willard,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An arbitrary normalised condensed distribution for a network of size
/// `2^exp` with `exp` in `[3, 12)`.
fn condensed_distribution(rng: &mut ChaCha8Rng) -> CondensedDistribution {
    let exp = rng.gen_range(3u32..12);
    let len = rng.gen_range(1usize..12);
    let mut weights: Vec<f64> = (0..len).map(|_| rng.gen_range(0.01f64..10.0)).collect();
    let n = 1usize << exp;
    let num_ranges = range_index_for_size(n);
    weights.resize(num_ranges, 0.05);
    let total: f64 = weights.iter().sum();
    let masses: Vec<f64> = weights.iter().map(|w| w / total).collect();
    CondensedDistribution::from_range_masses(masses, n)
        .expect("normalised masses over the correct number of ranges")
}

fn random_bits(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<bool> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_bool(0.5)).collect()
}

#[test]
fn decay_probabilities_are_always_valid_and_periodic() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    for _ in 0..200 {
        let exp = rng.gen_range(1u32..20);
        let round = rng.gen_range(1usize..10_000);
        let n = 1usize << exp;
        let decay = Decay::new(n.max(2)).unwrap();
        let empty = CollisionHistory::new();
        let p = decay.probability(round, &empty).unwrap();
        assert!(p > 0.0 && p <= 0.5);
        let period = decay.sweep_length();
        assert_eq!(
            decay.probability(round, &empty),
            decay.probability(round + period, &empty)
        );
    }
}

#[test]
fn sorted_guess_visits_every_range_exactly_once() {
    let mut rng = ChaCha8Rng::seed_from_u64(32);
    for _ in 0..100 {
        let condensed = condensed_distribution(&mut rng);
        let protocol = SortedGuess::new(&condensed);
        let mut seen = protocol.visit_order().to_vec();
        seen.sort_unstable();
        let expected: Vec<usize> = (1..=condensed.num_ranges()).collect();
        assert_eq!(seen, expected);
        // Every scheduled probability is the power of two of its range.
        let empty = CollisionHistory::new();
        for round in 1..=protocol.pass_length() {
            let p = protocol.probability(round, &empty).unwrap();
            let range = protocol.visit_order()[round - 1];
            assert!((p - 2f64.powi(-(range as i32))).abs() < 1e-15);
        }
        assert_eq!(
            protocol.probability(protocol.pass_length() + 1, &empty),
            None
        );
    }
}

#[test]
fn sorted_guess_orders_ranges_by_predicted_mass() {
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    for _ in 0..100 {
        let condensed = condensed_distribution(&mut rng);
        let protocol = SortedGuess::new(&condensed);
        let order = protocol.visit_order();
        for pair in order.windows(2) {
            assert!(
                condensed.probability_of_range(pair[0]) >= condensed.probability_of_range(pair[1])
            );
        }
    }
}

#[test]
fn coded_search_covers_every_range_within_its_horizon() {
    let mut rng = ChaCha8Rng::seed_from_u64(34);
    for _ in 0..100 {
        let condensed = condensed_distribution(&mut rng);
        let protocol = CodedSearch::new(&condensed).unwrap();
        for range in 1..=condensed.num_ranges() {
            let rounds = protocol.rounds_until_range_phase(range);
            assert!(rounds.is_some(), "range {range} unreachable");
            assert!(rounds.unwrap() <= protocol.horizon());
        }
    }
}

#[test]
fn coded_search_probabilities_are_valid_along_any_history() {
    let mut rng = ChaCha8Rng::seed_from_u64(35);
    for _ in 0..100 {
        let condensed = condensed_distribution(&mut rng);
        let bits = random_bits(&mut rng, 24);
        let protocol = CodedSearch::new(&condensed).unwrap();
        let mut history = CollisionHistory::new();
        for &bit in bits.iter().take(protocol.horizon()) {
            match protocol.probability(history.len() + 1, &history) {
                Some(p) => assert!((0.0..=1.0).contains(&p)),
                None => break,
            }
            history.push(bit);
        }
    }
}

#[test]
fn willard_probability_is_a_valid_power_of_two_for_any_history() {
    let mut rng = ChaCha8Rng::seed_from_u64(36);
    for _ in 0..200 {
        let exp = rng.gen_range(2u32..20);
        let bits = random_bits(&mut rng, 10);
        let n = 1usize << exp;
        let willard = Willard::new(n).unwrap();
        let history = CollisionHistory::from_bits(bits);
        if let Some(p) = willard.probability(history.len() + 1, &history) {
            assert!(p > 0.0 && p <= 0.5 + 1e-12);
            let range = (1.0 / p).log2().round() as usize;
            assert!(range >= 1 && range <= range_index_for_size(n));
        }
    }
}

#[test]
fn advice_oracles_never_exceed_their_budget_and_never_lose_the_target() {
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    for _ in 0..150 {
        let exp = rng.gen_range(4u32..16);
        let k = rng.gen_range(2usize..2000);
        let budget = rng.gen_range(0usize..20);
        let n = 1usize << exp;
        let k = k.min(n);
        let participants: Vec<usize> = (0..k).collect();

        let id_advice = IdPrefixOracle.advise(n, &participants, budget).unwrap();
        assert!(id_advice.len() <= budget);
        let (lo, hi) = IdPrefixOracle::candidate_interval(n, &id_advice);
        assert!(lo <= participants[0] && participants[0] < hi);

        let range_advice = RangeOracle.advise(n, &participants, budget).unwrap();
        assert!(range_advice.len() <= budget);
        let (rlo, rhi) = RangeOracle::candidate_ranges(n, &range_advice);
        let true_range = range_index_for_size(k);
        assert!(rlo <= true_range && true_range <= rhi);
    }
}

#[test]
fn advised_protocols_shrink_monotonically_with_budget() {
    let mut rng = ChaCha8Rng::seed_from_u64(38);
    for _ in 0..60 {
        let exp = rng.gen_range(6u32..16);
        let k = rng.gen_range(2usize..2000);
        let n = 1usize << exp;
        let k = k.min(n);
        let participants: Vec<usize> = (0..k).collect();
        let mut last_sweep = usize::MAX;
        let mut last_search = usize::MAX;
        for budget in 0..=6usize {
            let advice = RangeOracle.advise(n, &participants, budget).unwrap();
            let decay = AdvisedDecay::new(n, &advice).unwrap();
            assert!(decay.covers_size(k));
            assert!(decay.sweep_length() <= last_sweep);
            last_sweep = decay.sweep_length();

            let willard = AdvisedWillard::new(n, &advice).unwrap();
            assert!(willard.worst_case_rounds() <= last_search);
            last_search = willard.worst_case_rounds();
        }
    }
}

#[test]
fn rf_construction_sequence_solves_every_range_within_two_sweeps() {
    let mut rng = ChaCha8Rng::seed_from_u64(39);
    for _ in 0..60 {
        // The cycling sorted-guess schedule contains every range within one
        // pass, so the interleaved RF sequence solves every target exactly
        // (tolerance 0) within 2 passes.
        let condensed = condensed_distribution(&mut rng);
        let n = condensed.max_size();
        let protocol = SortedGuess::new(&condensed).cycling();
        let sequence = rf_construction(&protocol, n, 2 * condensed.num_ranges());
        for range in 1..=condensed.num_ranges() {
            let step = sequence.solves_at(range, 0);
            assert!(step.is_some(), "range {range} unsolved");
            assert!(step.unwrap() <= 4 * condensed.num_ranges());
        }
    }
}

#[test]
fn empty_advice_reduces_to_the_classical_protocols() {
    for exp in 4u32..16 {
        let n = 1usize << exp;
        let decay = Decay::new(n).unwrap();
        let advised = AdvisedDecay::new(n, &Advice::empty()).unwrap();
        assert_eq!(advised.sweep_length(), decay.sweep_length());
        let empty = CollisionHistory::new();
        for round in 1..=decay.sweep_length() {
            assert_eq!(
                advised.probability(round, &empty),
                decay.probability(round, &empty)
            );
        }
        let willard = Willard::new(n).unwrap();
        let advised = AdvisedWillard::new(n, &Advice::empty()).unwrap();
        assert_eq!(advised.worst_case_rounds(), willard.worst_case_rounds());
    }
}

#[test]
fn condensing_then_sorting_is_stable_under_size_noise() {
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    for _ in 0..60 {
        // Perturbing which exact size carries the mass inside one geometric
        // range never changes the sorted-guess visit order.
        let exp = rng.gen_range(6u32..12);
        let center = rng.gen_range(0.05f64..0.95);
        let n = 1usize << exp;
        let range = (range_index_for_size(n) as f64 * center).ceil().max(1.0) as usize;
        let (lo, hi) = crp_info::range_interval(range);
        let hi = hi.min(n);
        let a = SizeDistribution::point_mass(n, lo.max(2)).unwrap();
        let b = SizeDistribution::point_mass(n, hi.max(2)).unwrap();
        let order_a = SortedGuess::from_sizes(&a).visit_order().to_vec();
        let order_b = SortedGuess::from_sizes(&b).visit_order().to_vec();
        assert_eq!(order_a, order_b);
    }
}

/// The per-node reference for the §3 deterministic advice protocols: the
/// advice from the whole participant set, one node per participant built
/// with its public `new` (each recomputing the candidate interval), and
/// the nodes driven through `try_execute`.  Errors carry the text the
/// registry protocol reports: the empty set first, then the advice, then
/// the first id outside the universe, then the executor's config checks.
fn per_node_reference(
    kind: ChannelMode,
    universe: usize,
    bits: usize,
    ids: &[ParticipantId],
    max_rounds: usize,
) -> Result<(bool, usize), String> {
    let run = || -> Result<(bool, usize), ProtocolError> {
        if ids.is_empty() {
            return Err(ProtocolError::InvalidParameter {
                what: "deterministic advice protocols require at least one participant".into(),
            });
        }
        let raw: Vec<usize> = ids.iter().map(|id| id.index()).collect();
        let advice = IdPrefixOracle.advise(universe, &raw, bits)?;
        let config = ExecutionConfig::new(kind, max_rounds);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let execution = match kind {
            ChannelMode::NoCollisionDetection => {
                let mut nodes = ids
                    .iter()
                    .map(|&id| DeterministicNoCdAdvice::new(universe, id, &advice))
                    .collect::<Result<Vec<_>, _>>()?;
                try_execute(&mut nodes, &config, &mut rng)
            }
            ChannelMode::CollisionDetection => {
                let mut nodes = ids
                    .iter()
                    .map(|&id| DeterministicCdAdvice::new(universe, id, &advice))
                    .collect::<Result<Vec<_>, _>>()?;
                try_execute(&mut nodes, &config, &mut rng)
            }
        }
        .map_err(|err| ProtocolError::InvalidParameter {
            what: err.to_string(),
        })?;
        Ok((execution.resolved, execution.rounds))
    };
    run().map_err(|err| err.to_string())
}

/// The registry protocol's own execution of the same participant set.
fn registry_execution(
    protocol: &DeterministicAdviceProtocol,
    ids: &[ParticipantId],
    max_rounds: usize,
) -> Result<(bool, usize), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    try_run_protocol_with(protocol, ids, max_rounds, &mut rng)
        .map(|execution| (execution.resolved, execution.rounds))
        .map_err(|err| err.to_string())
}

#[test]
fn deterministic_advice_executions_match_the_per_node_reference() {
    let universe = 256;
    let mut placement_rng = ChaCha8Rng::seed_from_u64(41);
    let mut sets: Vec<Vec<ParticipantId>> = (1..=universe)
        .map(|k| (0..k).map(ParticipantId).collect())
        .collect();
    for placement in 0..200 {
        // k distinct ids by a partial Fisher–Yates shuffle, left in draw
        // order (so the designated first id need not be the smallest) for
        // half of the placements and sorted for the other half.
        let k = placement_rng.gen_range(1..=universe);
        let mut pool: Vec<usize> = (0..universe).collect();
        for i in 0..k {
            let j = placement_rng.gen_range(i..universe);
            pool.swap(i, j);
        }
        let mut ids: Vec<usize> = pool[..k].to_vec();
        if placement % 2 == 0 {
            ids.sort_unstable();
        }
        sets.push(ids.into_iter().map(ParticipantId).collect());
    }
    let ids =
        |raw: &[usize]| -> Vec<ParticipantId> { raw.iter().copied().map(ParticipantId).collect() };
    let rejected = [
        ids(&[]),
        ids(&[universe, 3, 5]),
        ids(&[3, universe + 44, 5, universe + 1]),
        ids(&[0, 1, 2, universe - 1, universe]),
    ];

    for kind in [
        ChannelMode::NoCollisionDetection,
        ChannelMode::CollisionDetection,
    ] {
        for bits in 0..=8 {
            let protocol = DeterministicAdviceProtocol::new(universe, bits, kind);
            for set in &sets {
                let budget = protocol
                    .round_budget(set)
                    .expect("a placement inside the universe has a round budget");
                // A zero cap checks that the executor's own config check
                // still comes last and reads the same.
                for max_rounds in [budget, 3, 1, 0] {
                    assert_eq!(
                        registry_execution(&protocol, set, max_rounds),
                        per_node_reference(kind, universe, bits, set, max_rounds),
                        "{kind:?}, b = {bits}, cap {max_rounds}, ids {set:?}"
                    );
                }
            }
            for set in &rejected {
                // A zero round cap too: the participant checks come first.
                for max_rounds in [3, 0] {
                    let outcome = registry_execution(&protocol, set, max_rounds);
                    assert!(outcome.is_err(), "{kind:?}, b = {bits}, ids {set:?}");
                    assert_eq!(
                        outcome,
                        per_node_reference(kind, universe, bits, set, max_rounds),
                        "{kind:?}, b = {bits}, cap {max_rounds}, ids {set:?}"
                    );
                }
            }
        }
    }
}
