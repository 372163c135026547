//! The unified, object-safe protocol API.
//!
//! The paper analyses one family of contention-resolution algorithms under
//! two feedback models (with and without collision detection) and two
//! execution styles (*uniform* — every participant runs the same
//! probability schedule — and *per-node* — behaviour depends on the
//! participant's identity, as in the §3 advice algorithms).
//!
//! [`Protocol`] covers all of them: one object-safe trait that names the
//! protocol, declares the [`ChannelMode`] it needs, optionally bounds its
//! round budget, and exposes its execution style through
//! [`Protocol::behavior`].  A uniform algorithm (§2.1) is one
//! [`UniformPolicy`]: a probability as a function of the round and the
//! collision history, where the history is always empty without
//! collision detection.  A per-node protocol is a [`NodeFactory`].  There
//! is one runner: [`try_run_protocol`] (or [`try_run_protocol_with`], for
//! explicit participant ids) drives any protocol on the channel mode it
//! declares.

use crp_channel::{
    try_execute_uniform_schedule, ChannelMode, CollisionHistory, Execution, ExecutionConfig,
    ParticipantId,
};
use rand::{Rng, RngCore};

use crate::error::ProtocolError;

/// A contention-resolution protocol, unified across feedback models and
/// execution styles.
///
/// The trait is object-safe: registries, simulations and experiment tables
/// handle protocols as `Box<dyn Protocol>` without knowing the concrete
/// algorithm.
pub trait Protocol: Send + Sync {
    /// The channel feedback model the protocol is designed for.
    fn mode(&self) -> ChannelMode;

    /// Human-readable protocol name (used in experiment tables and by the
    /// registry).
    fn name(&self) -> &str;

    /// The protocol's natural round budget: the number of rounds after
    /// which a one-shot protocol has given up, or `None` for unbounded
    /// (cycling) protocols.
    fn horizon(&self) -> Option<usize> {
        None
    }

    /// How the protocol is executed against the channel.
    fn behavior(&self) -> Behavior<'_>;
}

/// The two execution styles a [`Protocol`] can expose.
pub enum Behavior<'a> {
    /// A uniform protocol: every participant transmits with the same
    /// per-round probability.
    Uniform(&'a dyn UniformPolicy),
    /// A per-node protocol: each participant runs its own state machine,
    /// which the factory builds and executes for a concrete participant
    /// set.
    PerNode(&'a dyn NodeFactory),
}

/// The probability schedule of a uniform protocol.
///
/// For [`ChannelMode::NoCollisionDetection`] protocols the executor always
/// passes an empty history (listeners learn nothing on such channels).
pub trait UniformPolicy: Send + Sync {
    /// The transmission probability for (1-based) round `round` given the
    /// collision history observed so far, or `None` once the protocol has
    /// given up.
    ///
    /// Implementations must be pure functions of `(round, history)`: the
    /// scalar executor queries once per trial per round, while the
    /// simulator's uniform loop queries once per *shard* per round
    /// without collision detection (every trial hears the same empty
    /// history) and relies on getting the same answer.
    fn probability(&self, round: usize, history: &CollisionHistory) -> Option<f64>;
}

/// Executes a per-node protocol for a concrete participant set.
///
/// The factory owns its node type: [`NodeFactory::execute`] builds one
/// [`crp_channel::NodeProtocol`] value per participant in a `Vec` of that
/// concrete type and drives it through [`crp_channel::try_execute`], so
/// nodes are never boxed and `decide` is statically dispatched.  Anything
/// the nodes share (the §3 advice and its candidate interval) is computed
/// once per execution, not once per node.
pub trait NodeFactory: Send + Sync {
    /// Runs one execution with one node per participant (`participants[i]`
    /// is the `i`-th node's id) under `config`, handing `rng` to every
    /// node's `decide`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if the participant set is invalid for this
    /// protocol (e.g. empty, or an id outside the universe), or — after the
    /// participant checks — if `config` is rejected by the executor (a zero
    /// round cap).
    fn execute(
        &self,
        participants: &[ParticipantId],
        config: &ExecutionConfig,
        rng: &mut dyn RngCore,
    ) -> Result<Execution, ProtocolError>;

    /// The worst-case round budget for the given participant set, if the
    /// protocol guarantees one.
    fn round_budget(&self, participants: &[ParticipantId]) -> Option<usize> {
        let _ = participants;
        None
    }

    /// Whether the nodes this factory executes are *deterministic*: their
    /// [`crp_channel::NodeProtocol::decide`] never reads the RNG, so an
    /// execution's outcome is a pure function of the participant set (the
    /// §3 advice schedules are the canonical case).  Batched kernels use
    /// this to execute once per distinct participant set and replicate the
    /// outcome; a factory must only return `true` when that replication
    /// is exact.  Defaults to `false`.
    fn deterministic(&self) -> bool {
        false
    }
}

/// Drives a [`Protocol`] with `k` participants for at most `max_rounds`
/// rounds on the channel mode it declares.
///
/// Uniform protocols ignore participant identities; per-node protocols are
/// executed for the ids `0, …, k−1` (callers needing adversarial
/// placements pass the ids to [`try_run_protocol_with`], or use the
/// `crp-sim` `Simulation` builder's participant placement options).
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidParameter`] if `k == 0`,
/// `max_rounds == 0`, the protocol emits an invalid probability, or the
/// per-node factory rejects the participant set.
pub fn try_run_protocol<R: Rng>(
    protocol: &dyn Protocol,
    k: usize,
    max_rounds: usize,
    rng: &mut R,
) -> Result<Execution, ProtocolError> {
    let participants: Vec<ParticipantId> = (0..k).map(ParticipantId).collect();
    try_run_protocol_with(protocol, &participants, max_rounds, rng)
}

/// Like [`try_run_protocol`], but with an explicit participant set (needed
/// for per-node protocols under adversarial placements, which
/// [`NodeFactory::execute`] runs directly).
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidParameter`] on an empty participant
/// set, a zero round cap, an invalid emitted probability, or a factory
/// rejection.
pub fn try_run_protocol_with<R: Rng>(
    protocol: &dyn Protocol,
    participants: &[ParticipantId],
    max_rounds: usize,
    rng: &mut R,
) -> Result<Execution, ProtocolError> {
    let config = ExecutionConfig::new(protocol.mode(), max_rounds);
    match protocol.behavior() {
        Behavior::Uniform(policy) => try_execute_uniform_schedule(
            participants.len(),
            |round, history| policy.probability(round, history),
            &config,
            rng,
        )
        .map_err(ProtocolError::from),
        Behavior::PerNode(factory) => factory.execute(participants, &config, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Decay, Willard};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn decay_reports_its_no_cd_mode_and_name() {
        let protocol = Decay::new(1024).unwrap();
        assert_eq!(protocol.mode(), ChannelMode::NoCollisionDetection);
        assert_eq!(protocol.name(), "decay");
        assert_eq!(protocol.horizon(), None);
        assert!(matches!(protocol.behavior(), Behavior::Uniform(_)));
    }

    #[test]
    fn willard_reports_its_cd_mode_and_horizon() {
        let protocol = Willard::new(1 << 16).unwrap();
        assert_eq!(protocol.mode(), ChannelMode::CollisionDetection);
        assert_eq!(protocol.name(), "willard");
        assert_eq!(protocol.horizon(), Some(5));
        assert_eq!(protocol.worst_case_rounds(), 5);
    }

    #[test]
    fn try_run_protocol_resolves_with_decay() {
        let protocol = Decay::new(4096).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let exec = try_run_protocol(&protocol, 100, 10_000, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn try_run_protocol_rejects_degenerate_configurations() {
        let protocol = Decay::new(64).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(try_run_protocol(&protocol, 0, 100, &mut rng).is_err());
        assert!(try_run_protocol(&protocol, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn boxed_protocols_are_object_safe() {
        let protocols: Vec<Box<dyn Protocol>> = vec![
            Box::new(Decay::new(256).unwrap()),
            Box::new(Willard::new(256).unwrap()),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for protocol in &protocols {
            let exec = try_run_protocol(protocol.as_ref(), 8, 5_000, &mut rng).unwrap();
            assert!(exec.resolved, "{} failed to resolve", protocol.name());
        }
    }

    struct ConstantSchedule(f64);
    impl Protocol for ConstantSchedule {
        fn mode(&self) -> ChannelMode {
            ChannelMode::NoCollisionDetection
        }
        fn name(&self) -> &str {
            "constant"
        }
        fn behavior(&self) -> Behavior<'_> {
            Behavior::Uniform(self)
        }
    }
    impl UniformPolicy for ConstantSchedule {
        fn probability(&self, _round: usize, _history: &CollisionHistory) -> Option<f64> {
            Some(self.0)
        }
    }

    struct HalvingStrategy;
    impl Protocol for HalvingStrategy {
        fn mode(&self) -> ChannelMode {
            ChannelMode::CollisionDetection
        }
        fn name(&self) -> &str {
            "halving"
        }
        fn behavior(&self) -> Behavior<'_> {
            Behavior::Uniform(self)
        }
    }
    impl UniformPolicy for HalvingStrategy {
        fn probability(&self, _round: usize, history: &CollisionHistory) -> Option<f64> {
            // Halve the probability after every collision, reset on silence.
            let collisions = history.bits().iter().rev().take_while(|&&b| b).count();
            Some(0.5f64.powi(collisions as i32 + 1))
        }
    }

    #[test]
    fn run_schedule_resolves_single_participant() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let exec = try_run_protocol(&ConstantSchedule(0.8), 1, 100, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn run_cd_strategy_adapts_to_collisions() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // 8 participants starting at p=1/2: collisions push the probability
        // down until a lone transmitter emerges.
        let exec = try_run_protocol(&HalvingStrategy, 8, 500, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn degenerate_configurations_yield_typed_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let schedule = ConstantSchedule(0.5);
        let strategy = HalvingStrategy;
        assert!(try_run_protocol(&schedule, 0, 100, &mut rng).is_err());
        assert!(try_run_protocol(&schedule, 4, 0, &mut rng).is_err());
        assert!(try_run_protocol(&strategy, 0, 100, &mut rng).is_err());
        assert!(try_run_protocol(&strategy, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn default_horizon_is_unbounded() {
        assert_eq!(ConstantSchedule(0.5).horizon(), None);
        assert_eq!(ConstantSchedule(0.5).name(), "constant");
        assert_eq!(HalvingStrategy.name(), "halving");
    }
}
