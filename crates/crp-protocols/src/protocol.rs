//! The unified, object-safe protocol API.
//!
//! The paper analyses one family of contention-resolution algorithms under
//! two feedback models (with and without collision detection) and two
//! execution styles (*uniform* — every participant runs the same
//! probability schedule — and *per-node* — behaviour depends on the
//! participant's identity, as in the §3 advice algorithms).  Historically
//! this reproduction exposed those styles through three disjoint traits
//! ([`NoCdSchedule`], [`CdStrategy`], [`crp_channel::NodeProtocol`]) and
//! three hand-wired run functions, so every caller duplicated construction
//! and dispatch logic.
//!
//! [`Protocol`] unifies them: one object-safe trait that names the
//! protocol, declares which channel feedback model it needs
//! ([`ProtocolKind`]), optionally bounds its round budget, and exposes its
//! execution style through [`Protocol::behavior`].  Existing trait impls
//! slot in through the [`ScheduleProtocol`] and [`StrategyProtocol`]
//! adapters (uniform) and [`NodeFactory`] implementations (per-node);
//! [`try_run_protocol`] drives any of them against the channel.

use crp_channel::{
    try_execute_uniform_schedule, ChannelMode, CollisionHistory, Execution, ExecutionConfig,
    ParticipantId,
};
use rand::{Rng, RngCore};

use crate::error::ProtocolError;
use crate::traits::{CdStrategy, NoCdSchedule, ProtocolKind};

/// A contention-resolution protocol, unified across feedback models and
/// execution styles.
///
/// The trait is object-safe: registries, simulations and experiment tables
/// handle protocols as `Box<dyn Protocol>` without knowing the concrete
/// algorithm.
pub trait Protocol: Send + Sync {
    /// Which channel feedback model the protocol is designed for.
    fn kind(&self) -> ProtocolKind;

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
/// For [`ProtocolKind::NoCollisionDetection`] protocols the executor always
/// passes an empty history (listeners learn nothing on such channels).
pub trait UniformPolicy: Send + Sync {
    /// The transmission probability for (1-based) round `round` given the
    /// collision history observed so far, or `None` once the protocol has
    /// given up.
    ///
    /// Implementations must be pure functions of `(round, history)`: the
    /// scalar executor queries once per trial per round, while batched
    /// kernels may query once per *shard* per round (no-CD policies see
    /// the same empty history in every trial) and rely on getting the
    /// same answer.
    fn probability(&self, round: usize, history: &CollisionHistory) -> Option<f64>;

    /// The single probability the policy emits in every round, when it is
    /// constant (e.g. the known-size baseline).  Must be bit-identical to
    /// [`UniformPolicy::probability`]'s answer for every round; batched
    /// kernels use it to skip per-round dynamic dispatch.  Defaults to
    /// `None`.
    fn constant_probability(&self) -> Option<f64> {
        None
    }
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

/// Adapter: exposes any [`NoCdSchedule`] as a no-collision-detection
/// [`Protocol`].
pub struct ScheduleProtocol<S>(pub S);

impl<S: NoCdSchedule + Send + Sync> Protocol for ScheduleProtocol<S> {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::NoCollisionDetection
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn horizon(&self) -> Option<usize> {
        self.0.horizon()
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl<S: NoCdSchedule + Send + Sync> UniformPolicy for ScheduleProtocol<S> {
    fn probability(&self, round: usize, _history: &CollisionHistory) -> Option<f64> {
        self.0.probability(round)
    }

    fn constant_probability(&self) -> Option<f64> {
        self.0.constant_probability()
    }
}

/// Adapter: exposes any [`CdStrategy`] as a collision-detection
/// [`Protocol`].
pub struct StrategyProtocol<S> {
    strategy: S,
    horizon: Option<usize>,
}

impl<S: CdStrategy + Send + Sync> StrategyProtocol<S> {
    /// Wraps a strategy with no declared round budget.
    pub fn new(strategy: S) -> Self {
        Self {
            strategy,
            horizon: None,
        }
    }

    /// Wraps a strategy with a declared worst-case round budget (e.g.
    /// Willard's `⌈log log n⌉ + 1` probes).
    pub fn with_horizon(strategy: S, horizon: usize) -> Self {
        Self {
            strategy,
            horizon: Some(horizon),
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.strategy
    }
}

impl<S: CdStrategy + Send + Sync> Protocol for StrategyProtocol<S> {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::CollisionDetection
    }

    fn name(&self) -> &str {
        self.strategy.name()
    }

    fn horizon(&self) -> Option<usize> {
        self.horizon
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::Uniform(self)
    }
}

impl<S: CdStrategy + Send + Sync> UniformPolicy for StrategyProtocol<S> {
    fn probability(&self, _round: usize, history: &CollisionHistory) -> Option<f64> {
        self.strategy.probability(history)
    }
}

/// Drives a [`Protocol`] with `k` participants for at most `max_rounds`
/// rounds on the channel mode matching its [`ProtocolKind`].
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
    let config = ExecutionConfig::new(protocol.kind().channel_mode(), max_rounds);
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

/// The channel mode a protocol must run on.
///
/// Convenience mirror of `protocol.kind().channel_mode()` for call sites
/// that only hold a `dyn Protocol`.
pub fn required_channel_mode(protocol: &dyn Protocol) -> ChannelMode {
    protocol.kind().channel_mode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Decay, Willard};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn schedule_adapter_reports_no_cd_kind_and_name() {
        let protocol = ScheduleProtocol(Decay::new(1024).unwrap());
        assert_eq!(protocol.kind(), ProtocolKind::NoCollisionDetection);
        assert_eq!(protocol.name(), "decay");
        assert_eq!(protocol.horizon(), None);
        assert!(matches!(protocol.behavior(), Behavior::Uniform(_)));
    }

    #[test]
    fn strategy_adapter_reports_cd_kind_and_horizon() {
        let willard = Willard::new(1 << 16).unwrap();
        let budget = willard.worst_case_rounds();
        let protocol = StrategyProtocol::with_horizon(willard, budget);
        assert_eq!(protocol.kind(), ProtocolKind::CollisionDetection);
        assert_eq!(protocol.name(), "willard");
        assert_eq!(protocol.horizon(), Some(5));
        assert_eq!(protocol.inner().worst_case_rounds(), 5);
    }

    #[test]
    fn try_run_protocol_resolves_with_decay() {
        let protocol = ScheduleProtocol(Decay::new(4096).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let exec = try_run_protocol(&protocol, 100, 10_000, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn try_run_protocol_rejects_degenerate_configurations() {
        let protocol = ScheduleProtocol(Decay::new(64).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(try_run_protocol(&protocol, 0, 100, &mut rng).is_err());
        assert!(try_run_protocol(&protocol, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn required_mode_matches_kind() {
        let no_cd = ScheduleProtocol(Decay::new(64).unwrap());
        assert_eq!(
            required_channel_mode(&no_cd),
            ChannelMode::NoCollisionDetection
        );
        let cd = StrategyProtocol::new(Willard::new(64).unwrap());
        assert_eq!(required_channel_mode(&cd), ChannelMode::CollisionDetection);
    }

    #[test]
    fn boxed_protocols_are_object_safe() {
        let protocols: Vec<Box<dyn Protocol>> = vec![
            Box::new(ScheduleProtocol(Decay::new(256).unwrap())),
            Box::new(StrategyProtocol::new(Willard::new(256).unwrap())),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for protocol in &protocols {
            let exec = try_run_protocol(protocol.as_ref(), 8, 5_000, &mut rng).unwrap();
            assert!(exec.resolved, "{} failed to resolve", protocol.name());
        }
    }
}
