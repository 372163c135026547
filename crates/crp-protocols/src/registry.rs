//! Name-based protocol construction: [`ProtocolSpec`] and the
//! [`REGISTRY`] table.
//!
//! The registry is the single catalogue of every protocol this
//! reproduction implements — the classical baselines, the §2
//! prediction-augmented algorithms, and the §3 perfect-advice algorithms —
//! keyed by a stable name.  Benches, experiments, examples and the
//! `crp_experiments list` subcommand all construct protocols through it,
//! so adding a protocol in one place makes it available everywhere.

use crp_channel::{
    try_execute, ChannelMode, Execution, ExecutionConfig, NodeProtocol, ParticipantId,
};
use crp_info::CondensedDistribution;
use crp_predict::{Advice, AdviceOracle, IdPrefixOracle, RangeOracle};
use rand::RngCore;

use crate::advice::{
    check_in_universe, AdvisedDecay, AdvisedWillard, DeterministicCdAdvice, DeterministicNoCdAdvice,
};
use crate::baselines::{BlindTrust, Decay, FixedProbability, Willard};
use crate::error::ProtocolError;
use crate::predicted::{CodeChoice, CodedSearch, SortedGuess};
use crate::protocol::{Behavior, NodeFactory, Protocol};

/// Parameters available to registry constructors.
///
/// Not every protocol consumes every field; [`ProtocolSpec::build`]
/// checks the universe for all of them, and each constructor returns
/// [`ProtocolError::MissingParameter`] when another field it needs is
/// absent.
#[derive(Debug, Clone, Default)]
pub struct ProtocolParams {
    /// Universe size `n` (required by every protocol, at least 2).
    pub universe: usize,
    /// Predicted condensed network-size distribution (required by the §2
    /// prediction-augmented protocols).
    pub prediction: Option<CondensedDistribution>,
    /// Perfect-advice budget `b` in bits (used by the §3 protocols;
    /// defaults to 0 = no advice).
    pub advice_bits: usize,
    /// Expected participant count, used by the advice oracles of the
    /// uniform §3 protocols and by `fixed-probability` as its size
    /// estimate `k̂`.
    pub participants: Option<usize>,
}

impl ProtocolParams {
    fn require_prediction(&self, protocol: &str) -> Result<&CondensedDistribution, ProtocolError> {
        self.prediction
            .as_ref()
            .ok_or_else(|| ProtocolError::MissingParameter {
                protocol: protocol.to_string(),
                what: "a predicted condensed distribution".to_string(),
            })
    }

    fn require_participants(&self, protocol: &str) -> Result<usize, ProtocolError> {
        self.participants
            .filter(|&k| k > 0)
            .ok_or_else(|| ProtocolError::MissingParameter {
                protocol: protocol.to_string(),
                what: "a positive expected participant count".to_string(),
            })
    }

    /// Range-oracle advice for the expected participant count, computed
    /// from the count alone (a count from outside the program may be far
    /// too large to materialise as an id list).
    fn range_advice(&self, protocol: &str) -> Result<Advice, ProtocolError> {
        let k = self.require_participants(protocol)?;
        Ok(RangeOracle::advise_count(
            self.universe,
            k,
            self.advice_bits,
        ))
    }
}

/// A named protocol plus the parameters to construct it — the value the
/// `Simulation` builder accepts.
///
/// ```
/// use crp_protocols::ProtocolSpec;
///
/// let protocol = ProtocolSpec::new("decay").universe(1024).build()?;
/// assert_eq!(protocol.name(), "decay");
/// # Ok::<(), crp_protocols::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    name: String,
    params: ProtocolParams,
}

impl ProtocolSpec {
    /// Starts a spec for the registry entry `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: ProtocolParams::default(),
        }
    }

    /// Sets the universe size `n`.
    pub fn universe(mut self, universe: usize) -> Self {
        self.params.universe = universe;
        self
    }

    /// Sets the predicted condensed distribution (for `sorted-guess` /
    /// `coded-search`).
    pub fn prediction(mut self, prediction: CondensedDistribution) -> Self {
        self.params.prediction = Some(prediction);
        self
    }

    /// Sets the perfect-advice budget in bits (for the §3 protocols).
    pub fn advice_bits(mut self, bits: usize) -> Self {
        self.params.advice_bits = bits;
        self
    }

    /// Sets the expected participant count (for the advice oracles and as
    /// the `fixed-probability` size estimate).
    pub fn participants(mut self, count: usize) -> Self {
        self.params.participants = Some(count);
        self
    }

    /// The registry name this spec refers to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The accumulated construction parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// Builds the protocol from its [`REGISTRY`] entry.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownProtocol`] for an unregistered name,
    /// [`ProtocolError::MissingParameter`] for a universe below 2 (checked
    /// before any constructor runs) and constructor-specific errors for
    /// other missing or invalid parameters.
    pub fn build(&self) -> Result<Box<dyn Protocol>, ProtocolError> {
        let entry = REGISTRY
            .iter()
            .find(|entry| entry.name == self.name)
            .ok_or_else(|| ProtocolError::UnknownProtocol {
                name: self.name.clone(),
                known: REGISTRY
                    .iter()
                    .map(|entry| entry.name)
                    .collect::<Vec<_>>()
                    .join(", "),
            })?;
        if self.params.universe < 2 {
            return Err(ProtocolError::MissingParameter {
                protocol: self.name.clone(),
                what: format!("a universe size >= 2 (got {})", self.params.universe),
            });
        }
        let protocol = (entry.constructor)(&self.params)?;
        debug_assert_eq!(
            protocol.mode(),
            entry.mode,
            "registry entry {} constructed a protocol of the wrong mode",
            entry.name
        );
        Ok(protocol)
    }
}

/// One entry of the [`REGISTRY`] table.
#[derive(Debug, Clone)]
pub struct ProtocolEntry {
    /// Stable registry name.
    pub name: &'static str,
    /// The channel feedback model the protocol requires.
    pub mode: ChannelMode,
    /// One-line description shown by `crp_experiments list`.
    pub summary: &'static str,
    /// Builds the protocol from parameters whose universe
    /// [`ProtocolSpec::build`] has already checked.
    constructor: fn(&ProtocolParams) -> Result<Box<dyn Protocol>, ProtocolError>,
}

/// The catalogue of named protocols, sorted by name.
pub static REGISTRY: &[ProtocolEntry] = &[
    ProtocolEntry {
        name: "advised-decay",
        mode: ChannelMode::NoCollisionDetection,
        summary: "§3 randomized no-CD: decay truncated to the advised range block, Θ(log n / 2^b) expected",
        constructor: |params| {
            let advice = params.range_advice("advised-decay")?;
            Ok(Box::new(AdvisedDecay::new(params.universe, &advice)?))
        },
    },
    ProtocolEntry {
        name: "advised-willard",
        mode: ChannelMode::CollisionDetection,
        summary: "§3 randomized CD: Willard restricted to the advised ranges, Θ(log log n − b) expected",
        constructor: |params| {
            let advice = params.range_advice("advised-willard")?;
            Ok(Box::new(AdvisedWillard::new(params.universe, &advice)?))
        },
    },
    ProtocolEntry {
        name: "blind-trust",
        mode: ChannelMode::NoCollisionDetection,
        summary: "oracle-bait baseline: trust the prediction's modal range unconditionally, transmitting at 1/k̂ forever — collapses when the advice diverges",
        constructor: |params| {
            let prediction = params.require_prediction("blind-trust")?;
            Ok(Box::new(BlindTrust::from_prediction(prediction)?))
        },
    },
    ProtocolEntry {
        name: "coded-search",
        mode: ChannelMode::CollisionDetection,
        summary: "§2.6 Huffman-phase binary search, O((H + D_KL)²) rounds w.c.p.",
        constructor: |params| {
            let prediction = params.require_prediction("coded-search")?;
            Ok(Box::new(CodedSearch::new(prediction)?))
        },
    },
    ProtocolEntry {
        name: "coded-search-shannon-fano",
        mode: ChannelMode::CollisionDetection,
        summary: "§2.6 search with a Shannon–Fano code instead of Huffman (ablation)",
        constructor: |params| {
            let prediction = params.require_prediction("coded-search-shannon-fano")?;
            Ok(Box::new(CodedSearch::with_code_choice(
                prediction,
                CodeChoice::ShannonFano,
            )?))
        },
    },
    ProtocolEntry {
        name: "decay",
        mode: ChannelMode::NoCollisionDetection,
        summary: "Bar-Yehuda–Goldreich–Itai decay: cycle through geometric probabilities, Θ(log n) expected rounds",
        constructor: |params| Ok(Box::new(Decay::new(params.universe)?)),
    },
    ProtocolEntry {
        name: "det-advice-cd",
        mode: ChannelMode::CollisionDetection,
        summary:
            "§3 deterministic CD: advised binary tree descent, Θ(log n − b) rounds worst case",
        constructor: |params| {
            Ok(Box::new(DeterministicAdviceProtocol::new(
                params.universe,
                params.advice_bits,
                ChannelMode::CollisionDetection,
            )))
        },
    },
    ProtocolEntry {
        name: "det-advice-no-cd",
        mode: ChannelMode::NoCollisionDetection,
        summary: "§3 deterministic no-CD: scan the advised id interval, Θ(n / 2^b) rounds worst case",
        constructor: |params| {
            Ok(Box::new(DeterministicAdviceProtocol::new(
                params.universe,
                params.advice_bits,
                ChannelMode::NoCollisionDetection,
            )))
        },
    },
    ProtocolEntry {
        name: "fixed-probability",
        mode: ChannelMode::NoCollisionDetection,
        summary: "known-size baseline: transmit with probability 1/k̂ forever, O(1) rounds when k̂ = Θ(k)",
        constructor: |params| {
            let estimate = params
                .participants
                .ok_or_else(|| ProtocolError::MissingParameter {
                    protocol: "fixed-probability".to_string(),
                    what: "a size estimate (participants)".to_string(),
                })?;
            Ok(Box::new(FixedProbability::new(estimate)?))
        },
    },
    ProtocolEntry {
        name: "sorted-guess",
        mode: ChannelMode::NoCollisionDetection,
        summary: "§2.5 one-shot pass over ranges in decreasing predicted likelihood, O(2^{2H}) rounds w.c.p.",
        constructor: |params| {
            let prediction = params.require_prediction("sorted-guess")?;
            Ok(Box::new(SortedGuess::new(prediction)))
        },
    },
    ProtocolEntry {
        name: "sorted-guess-cycling",
        mode: ChannelMode::NoCollisionDetection,
        summary: "§2.5 pass repeated forever, for expected-time measurements",
        constructor: |params| {
            let prediction = params.require_prediction("sorted-guess-cycling")?;
            Ok(Box::new(SortedGuess::new(prediction).cycling()))
        },
    },
    ProtocolEntry {
        name: "willard",
        mode: ChannelMode::CollisionDetection,
        summary: "Willard's binary search over geometric size guesses, Θ(log log n) rounds",
        constructor: |params| Ok(Box::new(Willard::new(params.universe)?)),
    },
];

/// The §3 deterministic advice algorithms as a per-node [`Protocol`].
///
/// The id-prefix advice is perfect — computed from the *actual* participant
/// set once per execution, exactly as the paper's model grants every
/// participant the same `b`-bit hint about the designated transmitter.
pub struct DeterministicAdviceProtocol {
    universe: usize,
    advice_bits: usize,
    mode: ChannelMode,
    name: &'static str,
}

impl DeterministicAdviceProtocol {
    /// Creates the protocol for a universe of size `universe` and an advice
    /// budget of `advice_bits` bits, in the given feedback model.
    pub fn new(universe: usize, advice_bits: usize, mode: ChannelMode) -> Self {
        let name = match mode {
            ChannelMode::NoCollisionDetection => "det-advice-no-cd",
            ChannelMode::CollisionDetection => "det-advice-cd",
        };
        Self {
            universe,
            advice_bits,
            mode,
            name,
        }
    }

    /// The advice budget in bits.
    pub fn advice_bits(&self) -> usize {
        self.advice_bits
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The candidate interval every node of one execution starts from.
    /// The advice is the id prefix of the designated (first) participant,
    /// so it is decoded from that id alone, once per execution.
    fn candidate_interval(
        &self,
        participants: &[ParticipantId],
    ) -> Result<(usize, usize), ProtocolError> {
        let first = participants
            .first()
            .ok_or_else(|| ProtocolError::InvalidParameter {
                what: "deterministic advice protocols require at least one participant".into(),
            })?;
        let advice = IdPrefixOracle.advise(self.universe, &[first.index()], self.advice_bits)?;
        Ok(IdPrefixOracle::candidate_interval(self.universe, &advice))
    }
}

/// Builds one node per participant into a `Vec` of the concrete node type
/// — infallibly, with no per-node allocation — and drives it through the
/// channel.
fn execute_nodes<P: NodeProtocol>(
    participants: &[ParticipantId],
    node: impl Fn(ParticipantId) -> P,
    config: &ExecutionConfig,
    rng: &mut dyn RngCore,
) -> Result<Execution, ProtocolError> {
    let mut nodes: Vec<P> = participants.iter().map(|&id| node(id)).collect();
    Ok(try_execute(&mut nodes, config, rng)?)
}

impl Protocol for DeterministicAdviceProtocol {
    fn mode(&self) -> ChannelMode {
        self.mode
    }

    fn name(&self) -> &str {
        self.name
    }

    fn behavior(&self) -> Behavior<'_> {
        Behavior::PerNode(self)
    }
}

impl NodeFactory for DeterministicAdviceProtocol {
    fn execute(
        &self,
        participants: &[ParticipantId],
        config: &ExecutionConfig,
        rng: &mut dyn RngCore,
    ) -> Result<Execution, ProtocolError> {
        // Same error order as building each node with its public `new`:
        // the empty set, then the advice, then the first id outside the
        // universe, and only then the executor's own config checks.
        let interval = self.candidate_interval(participants)?;
        participants
            .iter()
            .try_for_each(|&id| check_in_universe(self.universe, id))?;
        match self.mode {
            ChannelMode::NoCollisionDetection => execute_nodes(
                participants,
                |id| DeterministicNoCdAdvice::from_interval(id, interval),
                config,
                rng,
            ),
            ChannelMode::CollisionDetection => execute_nodes(
                participants,
                |id| DeterministicCdAdvice::from_interval(id, interval),
                config,
                rng,
            ),
        }
    }

    fn round_budget(&self, participants: &[ParticipantId]) -> Option<usize> {
        let first = *participants.first()?;
        let interval = self.candidate_interval(participants).ok()?;
        let budget = match self.mode {
            ChannelMode::NoCollisionDetection => {
                DeterministicNoCdAdvice::from_interval(first, interval).worst_case_rounds()
            }
            ChannelMode::CollisionDetection => {
                DeterministicCdAdvice::from_interval(first, interval).worst_case_rounds()
            }
        };
        Some(budget.max(1))
    }

    fn deterministic(&self) -> bool {
        // The §3 advice schedules are precomputed transmission schedules:
        // `decide` is a pure function of (id, advice, round) and never
        // touches the RNG, so outcomes depend only on the participant set.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::try_run_protocol;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn standard_registry_has_the_full_catalogue() {
        assert!(REGISTRY.len() >= 8, "only {} protocols", REGISTRY.len());
        for name in [
            "decay",
            "fixed-probability",
            "blind-trust",
            "willard",
            "sorted-guess",
            "sorted-guess-cycling",
            "coded-search",
            "coded-search-shannon-fano",
            "advised-decay",
            "advised-willard",
            "det-advice-no-cd",
            "det-advice-cd",
        ] {
            assert!(
                REGISTRY.iter().any(|entry| entry.name == name),
                "{name} missing"
            );
        }
    }

    #[test]
    fn unknown_names_produce_a_typed_error() {
        let err = ProtocolSpec::new("no-such-protocol")
            .universe(64)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownProtocol { .. }));
        assert!(err.to_string().contains("no-such-protocol"));
        // The error lists the known names to help the caller.
        assert!(err.to_string().contains("decay"));
    }

    #[test]
    fn prediction_protocols_require_a_prediction() {
        let err = ProtocolSpec::new("sorted-guess")
            .universe(256)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::MissingParameter { .. }));
    }

    #[test]
    fn range_advice_needs_no_id_list_for_a_huge_participant_count() {
        // A participant count of 2^62 can arrive from outside the program
        // in a shard job; building the protocol must neither allocate an
        // id per participant nor panic.
        for name in ["advised-decay", "advised-willard"] {
            let protocol = ProtocolSpec::new(name)
                .universe(1024)
                .participants(1 << 62)
                .advice_bits(2)
                .build()
                .unwrap();
            assert_eq!(protocol.name(), name);
        }
    }

    #[test]
    fn spec_builder_round_trips_through_the_registry() {
        let prediction = crp_info::SizeDistribution::point_mass(1024, 60).unwrap();
        let condensed = CondensedDistribution::from_sizes(&prediction);
        let protocol = ProtocolSpec::new("coded-search")
            .universe(1024)
            .prediction(condensed)
            .build()
            .unwrap();
        assert_eq!(protocol.mode(), ChannelMode::CollisionDetection);
        assert!(protocol.horizon().is_some());
    }

    #[test]
    fn per_node_advice_protocol_resolves_deterministically() {
        let protocol = DeterministicAdviceProtocol::new(256, 3, ChannelMode::CollisionDetection);
        assert_eq!(protocol.advice_bits(), 3);
        assert_eq!(protocol.universe(), 256);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let exec = try_run_protocol(&protocol, 5, 16, &mut rng).unwrap();
        assert!(exec.resolved);
    }

    #[test]
    fn per_node_budget_shrinks_with_advice() {
        let participants: Vec<ParticipantId> = (0..4).map(ParticipantId).collect();
        let mut last = usize::MAX;
        for bits in [0usize, 2, 4, 6] {
            let protocol =
                DeterministicAdviceProtocol::new(256, bits, ChannelMode::NoCollisionDetection);
            let budget = protocol.round_budget(&participants).unwrap();
            assert!(budget <= last, "budget grew with advice");
            last = budget;
        }
    }

    #[test]
    fn entry_metadata_matches_construction() {
        let entry = REGISTRY
            .iter()
            .find(|entry| entry.name == "willard")
            .unwrap();
        assert_eq!(entry.mode, ChannelMode::CollisionDetection);
        assert!(!entry.summary.is_empty());
        let built = ProtocolSpec::new("willard")
            .universe(1 << 12)
            .build()
            .unwrap();
        assert_eq!(built.mode(), entry.mode);
        assert_eq!(built.name(), "willard");
        assert!(format!("{entry:?}").contains("willard"));
    }
}
