//! Name-based protocol construction: [`ProtocolSpec`] and
//! [`ProtocolRegistry`].
//!
//! The registry is the single catalogue of every protocol this
//! reproduction implements — the classical baselines, the §2
//! prediction-augmented algorithms, and the §3 perfect-advice algorithms —
//! keyed by a stable name.  Benches, experiments, examples and the
//! `crp_experiments list` subcommand all construct protocols through it,
//! so adding a protocol in one place makes it available everywhere.

use std::collections::BTreeMap;
use std::fmt;

use crp_channel::{try_execute, Execution, ExecutionConfig, NodeProtocol, ParticipantId};
use crp_info::CondensedDistribution;
use crp_predict::{Advice, AdviceOracle, IdPrefixOracle, RangeOracle};
use rand::RngCore;

use crate::advice::{
    check_in_universe, AdvisedDecay, AdvisedWillard, DeterministicCdAdvice, DeterministicNoCdAdvice,
};
use crate::baselines::{BlindTrust, Decay, FixedProbability, Willard};
use crate::error::ProtocolError;
use crate::predicted::{CodeChoice, CodedSearch, SortedGuess};
use crate::protocol::{Behavior, NodeFactory, Protocol, ScheduleProtocol, StrategyProtocol};
use crate::traits::ProtocolKind;

/// Parameters available to registry constructors.
///
/// Not every protocol consumes every field; each constructor validates the
/// fields it needs and returns [`ProtocolError::MissingParameter`] when a
/// required one is absent.
#[derive(Debug, Clone, Default)]
pub struct ProtocolParams {
    /// Universe size `n` (required by every protocol).
    pub universe: usize,
    /// Predicted condensed network-size distribution (required by the §2
    /// prediction-augmented protocols).
    pub prediction: Option<CondensedDistribution>,
    /// Perfect-advice budget `b` in bits (used by the §3 protocols;
    /// defaults to 0 = no advice).
    pub advice_bits: usize,
    /// Expected participant count, used by the advice oracles of the
    /// uniform §3 protocols and by `fixed-probability` as its estimate.
    pub participants: Option<usize>,
    /// Size estimate `k̂` for `fixed-probability` (falls back to
    /// `participants` when unset).
    pub estimate: Option<usize>,
}

impl ProtocolParams {
    /// Parameters for a universe of size `universe` with everything else
    /// unset.
    pub fn for_universe(universe: usize) -> Self {
        Self {
            universe,
            ..Self::default()
        }
    }

    fn require_universe(&self, protocol: &str) -> Result<usize, ProtocolError> {
        if self.universe < 2 {
            return Err(ProtocolError::MissingParameter {
                protocol: protocol.to_string(),
                what: format!("a universe size >= 2 (got {})", self.universe),
            });
        }
        Ok(self.universe)
    }

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
        let universe = self.require_universe(protocol)?;
        let k = self.require_participants(protocol)?;
        Ok(RangeOracle::advise_count(universe, k, self.advice_bits))
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
    /// the default `fixed-probability` estimate).
    pub fn participants(mut self, count: usize) -> Self {
        self.params.participants = Some(count);
        self
    }

    /// Sets an explicit size estimate `k̂` for `fixed-probability`.
    pub fn estimate(mut self, estimate: usize) -> Self {
        self.params.estimate = Some(estimate);
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

    /// Builds the protocol through the standard registry.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownProtocol`] for an unregistered name
    /// and constructor-specific errors for missing or invalid parameters.
    pub fn build(&self) -> Result<Box<dyn Protocol>, ProtocolError> {
        ProtocolRegistry::standard().build_spec(self)
    }
}

type Constructor = fn(&ProtocolParams) -> Result<Box<dyn Protocol>, ProtocolError>;

/// One catalogue entry of the registry.
#[derive(Clone)]
pub struct ProtocolEntry {
    /// Stable registry name.
    pub name: &'static str,
    /// The feedback model the protocol requires.
    pub kind: ProtocolKind,
    /// One-line description shown by `crp_experiments list`.
    pub summary: &'static str,
    constructor: Constructor,
}

impl fmt::Debug for ProtocolEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolEntry")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("summary", &self.summary)
            .finish()
    }
}

impl ProtocolEntry {
    /// Constructs the protocol from the given parameters.
    ///
    /// # Errors
    ///
    /// Propagates the constructor's [`ProtocolError`].
    pub fn construct(&self, params: &ProtocolParams) -> Result<Box<dyn Protocol>, ProtocolError> {
        (self.constructor)(params)
    }
}

/// The catalogue of named protocols.
#[derive(Debug, Clone)]
pub struct ProtocolRegistry {
    entries: BTreeMap<&'static str, ProtocolEntry>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The standard registry holding every protocol of the reproduction.
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry.register(ProtocolEntry {
            name: "decay",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "Bar-Yehuda–Goldreich–Itai decay: cycle through geometric probabilities, Θ(log n) expected rounds",
            constructor: |params| {
                let n = params.require_universe("decay")?;
                Ok(Box::new(ScheduleProtocol(Decay::new(n)?)))
            },
        });
        registry.register(ProtocolEntry {
            name: "fixed-probability",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "known-size baseline: transmit with probability 1/k̂ forever, O(1) rounds when k̂ = Θ(k)",
            constructor: |params| {
                let estimate = params
                    .estimate
                    .or(params.participants)
                    .ok_or_else(|| ProtocolError::MissingParameter {
                        protocol: "fixed-probability".to_string(),
                        what: "a size estimate (estimate or participants)".to_string(),
                    })?;
                Ok(Box::new(ScheduleProtocol(FixedProbability::new(estimate)?)))
            },
        });
        registry.register(ProtocolEntry {
            name: "blind-trust",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "oracle-bait baseline: trust the prediction's modal range unconditionally, transmitting at 1/k̂ forever — collapses when the advice diverges",
            constructor: |params| {
                let prediction = params.require_prediction("blind-trust")?;
                Ok(Box::new(ScheduleProtocol(BlindTrust::from_prediction(
                    prediction,
                )?)))
            },
        });
        registry.register(ProtocolEntry {
            name: "willard",
            kind: ProtocolKind::CollisionDetection,
            summary: "Willard's binary search over geometric size guesses, Θ(log log n) rounds",
            constructor: |params| {
                let n = params.require_universe("willard")?;
                let willard = Willard::new(n)?;
                let horizon = willard.worst_case_rounds();
                Ok(Box::new(StrategyProtocol::with_horizon(willard, horizon)))
            },
        });
        registry.register(ProtocolEntry {
            name: "sorted-guess",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "§2.5 one-shot pass over ranges in decreasing predicted likelihood, O(2^{2H}) rounds w.c.p.",
            constructor: |params| {
                let prediction = params.require_prediction("sorted-guess")?;
                Ok(Box::new(ScheduleProtocol(SortedGuess::new(prediction))))
            },
        });
        registry.register(ProtocolEntry {
            name: "sorted-guess-cycling",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "§2.5 pass repeated forever, for expected-time measurements",
            constructor: |params| {
                let prediction = params.require_prediction("sorted-guess-cycling")?;
                Ok(Box::new(ScheduleProtocol(
                    SortedGuess::new(prediction).cycling(),
                )))
            },
        });
        registry.register(ProtocolEntry {
            name: "coded-search",
            kind: ProtocolKind::CollisionDetection,
            summary: "§2.6 Huffman-phase binary search, O((H + D_KL)²) rounds w.c.p.",
            constructor: |params| {
                let prediction = params.require_prediction("coded-search")?;
                let search = CodedSearch::new(prediction)?;
                let horizon = search.horizon();
                Ok(Box::new(StrategyProtocol::with_horizon(search, horizon)))
            },
        });
        registry.register(ProtocolEntry {
            name: "coded-search-shannon-fano",
            kind: ProtocolKind::CollisionDetection,
            summary: "§2.6 search with a Shannon–Fano code instead of Huffman (ablation)",
            constructor: |params| {
                let prediction = params.require_prediction("coded-search-shannon-fano")?;
                let search = CodedSearch::with_code_choice(prediction, CodeChoice::ShannonFano)?;
                let horizon = search.horizon();
                Ok(Box::new(StrategyProtocol::with_horizon(search, horizon)))
            },
        });
        registry.register(ProtocolEntry {
            name: "advised-decay",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "§3 randomized no-CD: decay truncated to the advised range block, Θ(log n / 2^b) expected",
            constructor: |params| {
                let n = params.require_universe("advised-decay")?;
                let advice = params.range_advice("advised-decay")?;
                Ok(Box::new(ScheduleProtocol(AdvisedDecay::new(n, &advice)?)))
            },
        });
        registry.register(ProtocolEntry {
            name: "advised-willard",
            kind: ProtocolKind::CollisionDetection,
            summary: "§3 randomized CD: Willard restricted to the advised ranges, Θ(log log n − b) expected",
            constructor: |params| {
                let n = params.require_universe("advised-willard")?;
                let advice = params.range_advice("advised-willard")?;
                let willard = AdvisedWillard::new(n, &advice)?;
                let horizon = willard.worst_case_rounds();
                Ok(Box::new(StrategyProtocol::with_horizon(willard, horizon)))
            },
        });
        registry.register(ProtocolEntry {
            name: "det-advice-no-cd",
            kind: ProtocolKind::NoCollisionDetection,
            summary: "§3 deterministic no-CD: scan the advised id interval, Θ(n / 2^b) rounds worst case",
            constructor: |params| {
                let n = params.require_universe("det-advice-no-cd")?;
                Ok(Box::new(DeterministicAdviceProtocol::new(
                    n,
                    params.advice_bits,
                    ProtocolKind::NoCollisionDetection,
                )))
            },
        });
        registry.register(ProtocolEntry {
            name: "det-advice-cd",
            kind: ProtocolKind::CollisionDetection,
            summary:
                "§3 deterministic CD: advised binary tree descent, Θ(log n − b) rounds worst case",
            constructor: |params| {
                let n = params.require_universe("det-advice-cd")?;
                Ok(Box::new(DeterministicAdviceProtocol::new(
                    n,
                    params.advice_bits,
                    ProtocolKind::CollisionDetection,
                )))
            },
        });
        registry
    }

    /// Adds (or replaces) an entry.
    pub fn register(&mut self, entry: ProtocolEntry) {
        self.entries.insert(entry.name, entry);
    }

    /// All registered names in lexicographic order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.keys().copied().collect()
    }

    /// Iterates over the entries in name order.
    pub fn entries(&self) -> impl Iterator<Item = &ProtocolEntry> {
        self.entries.values()
    }

    /// Looks up one entry by name.
    pub fn entry(&self, name: &str) -> Option<&ProtocolEntry> {
        self.entries.get(name)
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no protocols are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Constructs the protocol registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownProtocol`] if the name is not
    /// registered, plus constructor-specific errors.
    pub fn build(
        &self,
        name: &str,
        params: &ProtocolParams,
    ) -> Result<Box<dyn Protocol>, ProtocolError> {
        let entry = self
            .entry(name)
            .ok_or_else(|| ProtocolError::UnknownProtocol {
                name: name.to_string(),
                known: self.names().join(", "),
            })?;
        let protocol = entry.construct(params)?;
        debug_assert_eq!(
            protocol.kind(),
            entry.kind,
            "registry entry {name} constructed a protocol of the wrong kind"
        );
        Ok(protocol)
    }

    /// Constructs the protocol described by `spec`.
    ///
    /// # Errors
    ///
    /// See [`ProtocolRegistry::build`].
    pub fn build_spec(&self, spec: &ProtocolSpec) -> Result<Box<dyn Protocol>, ProtocolError> {
        self.build(spec.name(), spec.params())
    }
}

impl Default for ProtocolRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

/// The §3 deterministic advice algorithms as a per-node [`Protocol`].
///
/// The id-prefix advice is perfect — computed from the *actual* participant
/// set once per execution, exactly as the paper's model grants every
/// participant the same `b`-bit hint about the designated transmitter.
pub struct DeterministicAdviceProtocol {
    universe: usize,
    advice_bits: usize,
    kind: ProtocolKind,
    name: &'static str,
}

impl DeterministicAdviceProtocol {
    /// Creates the protocol for a universe of size `universe` and an advice
    /// budget of `advice_bits` bits, in the given feedback model.
    pub fn new(universe: usize, advice_bits: usize, kind: ProtocolKind) -> Self {
        let name = match kind {
            ProtocolKind::NoCollisionDetection => "det-advice-no-cd",
            ProtocolKind::CollisionDetection => "det-advice-cd",
        };
        Self {
            universe,
            advice_bits,
            kind,
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
    fn kind(&self) -> ProtocolKind {
        self.kind
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
        match self.kind {
            ProtocolKind::NoCollisionDetection => execute_nodes(
                participants,
                |id| DeterministicNoCdAdvice::from_interval(id, interval),
                config,
                rng,
            ),
            ProtocolKind::CollisionDetection => execute_nodes(
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
        let budget = match self.kind {
            ProtocolKind::NoCollisionDetection => {
                DeterministicNoCdAdvice::from_interval(first, interval).worst_case_rounds()
            }
            ProtocolKind::CollisionDetection => {
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
        let registry = ProtocolRegistry::standard();
        assert!(registry.len() >= 8, "only {} protocols", registry.len());
        assert!(!registry.is_empty());
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
            assert!(registry.entry(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn unknown_names_produce_a_typed_error() {
        let registry = ProtocolRegistry::standard();
        let err = registry
            .build("no-such-protocol", &ProtocolParams::for_universe(64))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownProtocol { .. }));
        assert!(err.to_string().contains("no-such-protocol"));
        // The error lists the known names to help the caller.
        assert!(err.to_string().contains("decay"));
    }

    #[test]
    fn prediction_protocols_require_a_prediction() {
        let registry = ProtocolRegistry::standard();
        let err = registry
            .build("sorted-guess", &ProtocolParams::for_universe(256))
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
        assert_eq!(protocol.kind(), ProtocolKind::CollisionDetection);
        assert!(protocol.horizon().is_some());
    }

    #[test]
    fn per_node_advice_protocol_resolves_deterministically() {
        let protocol = DeterministicAdviceProtocol::new(256, 3, ProtocolKind::CollisionDetection);
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
                DeterministicAdviceProtocol::new(256, bits, ProtocolKind::NoCollisionDetection);
            let budget = protocol.round_budget(&participants).unwrap();
            assert!(budget <= last, "budget grew with advice");
            last = budget;
        }
    }

    #[test]
    fn entry_metadata_matches_construction() {
        let registry = ProtocolRegistry::standard();
        let entry = registry.entry("willard").unwrap();
        assert_eq!(entry.kind, ProtocolKind::CollisionDetection);
        assert!(!entry.summary.is_empty());
        let built = entry
            .construct(&ProtocolParams::for_universe(1 << 12))
            .unwrap();
        assert_eq!(built.kind(), entry.kind);
        assert_eq!(built.name(), "willard");
        assert!(format!("{entry:?}").contains("willard"));
    }
}
