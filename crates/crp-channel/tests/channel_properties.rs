//! Property-style tests for the channel simulator, driven by deterministic
//! seeded sweeps (the environment has no `proptest`, so cases are
//! enumerated explicitly).

use crp_channel::{
    try_execute_uniform_schedule, ChannelMode, ExecutionConfig, Feedback, RoundOutcome,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn round_outcome_depends_only_on_transmitter_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    for case in 0..200 {
        let len = case % 64;
        let decisions: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        let count = decisions.iter().filter(|&&d| d).count();
        let outcome = RoundOutcome::from_transmitter_count(count);
        let expected = match count {
            0 => RoundOutcome::Silence,
            1 => RoundOutcome::Success,
            _ => RoundOutcome::Collision,
        };
        assert_eq!(outcome, expected);
    }
}

#[test]
fn feedback_is_consistent_with_mode() {
    for count in 0usize..20 {
        let outcome = RoundOutcome::from_transmitter_count(count);
        let fb_cd = ChannelMode::CollisionDetection.feedback(outcome);
        let fb_nocd = ChannelMode::NoCollisionDetection.feedback(outcome);
        match count {
            1 => {
                assert_eq!(fb_cd, Feedback::Resolved);
                assert_eq!(fb_nocd, Feedback::Resolved);
            }
            0 => {
                assert_eq!(fb_cd, Feedback::SilenceDetected);
                assert_eq!(fb_nocd, Feedback::NothingHeard);
            }
            _ => {
                assert_eq!(fb_cd, Feedback::CollisionDetected);
                assert_eq!(fb_nocd, Feedback::NothingHeard);
            }
        }
    }
}

#[test]
fn uniform_execution_never_exceeds_round_cap() {
    let mut rng = ChaCha8Rng::seed_from_u64(202);
    for case in 0..300u64 {
        let k = 1 + (case as usize * 7) % 255;
        let cap = 1 + (case as usize * 13) % 63;
        let prob = (case as f64 / 300.0).clamp(0.0, 1.0);
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, cap);
        let result = try_execute_uniform_schedule(k, |_, _| Some(prob), &config, &mut rng).unwrap();
        assert!(result.rounds <= cap);
        if result.resolved {
            assert!(result.rounds >= 1);
        }
    }
}

#[test]
fn single_participant_with_positive_probability_eventually_succeeds() {
    for seed in 0u64..50 {
        let prob = 0.2 + 0.8 * (seed as f64 / 50.0);
        // With one participant, any transmission is a success.
        let config = ExecutionConfig::new(ChannelMode::NoCollisionDetection, 2_000);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let result = try_execute_uniform_schedule(1, |_, _| Some(prob), &config, &mut rng).unwrap();
        assert!(result.resolved);
    }
}
