//! Adversarial trace model: generative state machines over arrivals and
//! advice, with a canonical hash-stable wire form.
//!
//! The fixed generators in [`crate::ScenarioLibrary`] cover a handful of
//! hand-authored workloads.  The fuzzing layer instead *searches* the
//! scenario space: a [`TraceModel`] is a small explicit state machine
//! (adversary state × arrival process × advice channel) that emits a
//! [`Trace`] — an ordered list of [`TraceEvent`]s — from a seeded RNG, and
//! [`Trace::compile`] deterministically lowers the event list to a
//! [`Scenario`] the existing sweep machinery can run.
//!
//! The event vocabulary mirrors how the paper's adversary interacts with a
//! predictor:
//!
//! * [`TraceEvent::Truth`] adds arrival mass at a geometric level (size
//!   `≈ 2^level`, clamped to `[2, n]`) of the true size process.
//! * [`TraceEvent::Observe`] freezes an advice snapshot: the predictor
//!   observes the truth accumulated *so far* and records it, blended with
//!   uniform-over-ranges smoothing controlled by `fidelity` (1 = sharp,
//!   0 = uninformative).  Smoothing is capped so the divergence
//!   `D_KL(c(X) ‖ c(Y))` stays finite, matching the drift scenarios.
//! * [`TraceEvent::Drift`] shifts the accumulated truth mass by whole
//!   geometric ranges *after* the advice froze — the adversary moves the
//!   network out from under the prediction.
//!
//! Traces serialise to a canonical line-based wire form
//! (`crp-fuzz-trace v1`, floats as IEEE-754 bit patterns in hex) so they
//! can be persisted in a regression corpus, diffed, content-addressed by
//! hash, and shipped through the fleet machinery bit-exactly.
//! [`read_trace_file`] is the one way a trace file is read, and it reads
//! at most [`MAX_TRACE_FILE_BYTES`].

use std::io::Read as _;
use std::path::Path;

use crp_info::SizeDistribution;
use crp_obs::{Fields, LineError, LineReader};
use rand::Rng;

use crate::error::PredictError;
use crate::scenario::Scenario;

/// Sharpest allowed advice: an `Observe` always keeps at least 2% of its
/// mass on the uniform-over-ranges smoothing component, so every range
/// stays in the advice's support and the divergence is finite.
pub const MAX_FIDELITY: f64 = 0.98;

/// The most steps a fuzz campaign asks [`TraceModel::generate`] for
/// (`crp_fuzz --steps`); a larger request is refused where it comes in.
pub const MAX_TRACE_STEPS: usize = 1024;

/// The largest trace file [`read_trace_file`] accepts, in bytes.
///
/// It is derived from the largest trace the fuzzer writes.  A generated
/// trace holds at most [`MAX_TRACE_STEPS`] + 2 events, and the fuzzer
/// only saves generated traces or shrunk copies of them.  Its longest
/// event line is `truth <level> <16 hex digits>` with a level below 64:
/// 26 bytes.  With the header (18 bytes), the `universe` line (at most
/// 30) and `end` (4), the largest such file is 26 728 bytes.  The cap
/// is 64 KiB, a margin of more than 2× over that.
pub const MAX_TRACE_FILE_BYTES: u64 = 64 * 1024;

/// Reads and parses the trace file at `path`: at most
/// [`MAX_TRACE_FILE_BYTES`] plus one byte are read, so an oversized (or
/// endless) file is refused without being read whole.
///
/// # Errors
///
/// [`PredictError::TraceFile`] naming the file when it cannot be read,
/// exceeds the cap, is not UTF-8 or does not parse with
/// [`Trace::from_wire`].
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<Trace, PredictError> {
    let path = path.as_ref();
    let error = |what: String| PredictError::TraceFile {
        path: path.display().to_string(),
        what,
    };
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|file| file.take(MAX_TRACE_FILE_BYTES + 1).read_to_end(&mut bytes))
        .map_err(|err| error(format!("cannot read: {err}")))?;
    if bytes.len() as u64 > MAX_TRACE_FILE_BYTES {
        return Err(error(format!(
            "larger than the {MAX_TRACE_FILE_BYTES}-byte cap of a trace file"
        )));
    }
    let text = String::from_utf8(bytes).map_err(|_| error("not valid UTF-8".to_string()))?;
    Trace::from_wire(&text).map_err(|err| error(err.to_string()))
}

/// One step of an adversarial trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Add `weight` of arrival mass at geometric level `level` (network
    /// size `2^level`, clamped to `[2, n]`) of the true size process.
    Truth {
        /// Geometric level; sizes are `2^level` clamped to `[2, n]`.
        level: u32,
        /// Relative (unnormalised) arrival mass; must be finite and `> 0`.
        weight: f64,
    },
    /// The predictor observes the truth accumulated so far and freezes an
    /// advice snapshot blended towards uniform-over-ranges.
    Observe {
        /// Advice sharpness in `[0, 1]`: the snapshot's mixture weight
        /// (capped at [`MAX_FIDELITY`]); the rest is uniform smoothing.
        fidelity: f64,
    },
    /// Shift every accumulated truth component by `shift` geometric ranges
    /// (positive = larger networks), leaving any frozen advice stale.
    Drift {
        /// Signed range shift; clamped so sizes stay in `[2, n]`.
        shift: i32,
    },
}

/// An ordered adversarial trace over a universe of maximum size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    universe: usize,
    events: Vec<TraceEvent>,
}

/// Formats an `f64` as its IEEE-754 bit pattern in fixed-width hex, the
/// same bit-exact convention as the shard-spec wire codec.
fn f64_hex(value: f64) -> String {
    crp_obs::hex64(value.to_bits())
}

fn wire_error(what: impl Into<String>) -> PredictError {
    PredictError::InvalidParameter {
        what: format!("trace wire: {}", what.into()),
    }
}

impl Trace {
    /// Magic first line of the wire form.
    pub const WIRE_HEADER: &'static str = "crp-fuzz-trace v1";

    /// Wraps an event list over a universe of maximum size `universe`.
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidParameter`] if `universe < 8` (the scenario
    /// library floor), a `Truth` weight is not finite and positive, or an
    /// `Observe` fidelity is outside `[0, 1]`.
    pub fn new(universe: usize, events: Vec<TraceEvent>) -> Result<Self, PredictError> {
        if universe < 8 {
            return Err(PredictError::InvalidParameter {
                what: format!("trace universe must be >= 8, got {universe}"),
            });
        }
        for (index, event) in events.iter().enumerate() {
            match *event {
                TraceEvent::Truth { weight, .. } => {
                    if !(weight.is_finite() && weight > 0.0) {
                        return Err(PredictError::InvalidParameter {
                            what: format!(
                                "trace event {index}: truth weight must be finite and > 0, \
                                 got {weight}"
                            ),
                        });
                    }
                }
                TraceEvent::Observe { fidelity } => {
                    if !(0.0..=1.0).contains(&fidelity) {
                        return Err(PredictError::InvalidParameter {
                            what: format!(
                                "trace event {index}: observe fidelity must be in [0, 1], \
                                 got {fidelity}"
                            ),
                        });
                    }
                }
                TraceEvent::Drift { .. } => {}
            }
        }
        Ok(Self { universe, events })
    }

    /// Maximum network size `n` the trace is defined over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The ordered event list.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events (compiles to the uniform-over-ranges
    /// scenario with accurate advice).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The size a geometric level denotes in this universe.
    fn level_size(&self, level: u32) -> usize {
        let size = 1usize.checked_shl(level.min(62)).unwrap_or(usize::MAX);
        size.clamp(2, self.universe)
    }

    /// Shifts a size by whole geometric ranges, clamped to `[2, n]`.
    fn shift_size(&self, size: usize, shift: i32) -> usize {
        let mut shifted = size;
        if shift >= 0 {
            for _ in 0..shift.min(62) {
                shifted = shifted.saturating_mul(2);
            }
        } else {
            shifted >>= shift.unsigned_abs().min(62);
        }
        shifted.clamp(2, self.universe)
    }

    /// The truth distribution the accumulated components currently denote.
    fn truth_of(&self, components: &[(usize, f64)]) -> Result<SizeDistribution, PredictError> {
        if components.is_empty() {
            Ok(SizeDistribution::uniform_ranges(self.universe)?)
        } else {
            Ok(SizeDistribution::mixture_of_point_masses(
                self.universe,
                components,
            )?)
        }
    }

    /// Deterministically lowers the trace to a runnable [`Scenario`].
    ///
    /// Events are replayed in order over an accumulator of
    /// `(size, weight)` truth components; the final truth is their
    /// normalised mixture (uniform-over-ranges when no `Truth` event
    /// fired), and the advice is the snapshot of the *last* `Observe`
    /// (accurate advice when the trace never observes).  Levels and
    /// shifts are clamped to the universe, so every trace accepted by
    /// [`Trace::new`] / [`Trace::from_wire`] compiles — shrinking can
    /// never produce an uncompilable candidate.
    ///
    /// # Errors
    ///
    /// [`PredictError::Distribution`] only for pathological accumulated
    /// weights (e.g. overflow to non-finite sums).
    pub fn compile(&self, name: impl Into<String>) -> Result<Scenario, PredictError> {
        let mut components: Vec<(usize, f64)> = Vec::new();
        let mut advice: Option<SizeDistribution> = None;
        let add = |components: &mut Vec<(usize, f64)>, size: usize, weight: f64| match components
            .iter_mut()
            .find(|(s, _)| *s == size)
        {
            Some((_, w)) => *w += weight,
            None => components.push((size, weight)),
        };
        for event in &self.events {
            match *event {
                TraceEvent::Truth { level, weight } => {
                    add(&mut components, self.level_size(level), weight);
                }
                TraceEvent::Observe { fidelity } => {
                    let snapshot = self.truth_of(&components)?;
                    let uniform = SizeDistribution::uniform_ranges(self.universe)?;
                    advice = Some(snapshot.mix(&uniform, fidelity.min(MAX_FIDELITY))?);
                }
                TraceEvent::Drift { shift } => {
                    let shifted: Vec<(usize, f64)> = components
                        .iter()
                        .map(|&(size, weight)| (self.shift_size(size, shift), weight))
                        .collect();
                    components.clear();
                    for (size, weight) in shifted {
                        add(&mut components, size, weight);
                    }
                }
            }
        }
        let truth = self.truth_of(&components)?;
        Ok(match advice {
            Some(advice) => Scenario::with_advice(name, truth, advice),
            None => Scenario::new(name, truth),
        })
    }

    /// Serialises the trace to its canonical wire form.
    ///
    /// The form is line-based and bit-exact: floats are IEEE-754 bit
    /// patterns in fixed-width hex, so serialise → deserialise →
    /// serialise is the identity on bytes and the wire text is a stable
    /// input for content hashing.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str(Self::WIRE_HEADER);
        out.push('\n');
        out.push_str(&format!("universe {}\n", self.universe));
        for event in &self.events {
            match *event {
                TraceEvent::Truth { level, weight } => {
                    out.push_str(&format!("truth {level} {}\n", f64_hex(weight)));
                }
                TraceEvent::Observe { fidelity } => {
                    out.push_str(&format!("observe {}\n", f64_hex(fidelity)));
                }
                TraceEvent::Drift { shift } => {
                    out.push_str(&format!("drift {shift}\n"));
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the canonical wire form produced by [`Trace::to_wire`]:
    /// exactly the bytes `to_wire` writes.
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidParameter`] naming the offending line for a
    /// missing header, malformed event, non-canonical number, missing
    /// `end` line, or trailing content; field validation is as in
    /// [`Trace::new`].
    pub fn from_wire(text: &str) -> Result<Self, PredictError> {
        let read = || {
            let mut reader = LineReader::new(text);
            reader.header(Self::WIRE_HEADER)?;
            let universe = reader.field("universe", Fields::int)?;
            let mut events = Vec::new();
            while !reader.at_end() {
                let (label, mut fields) = reader.tagged()?;
                events.push(match label {
                    "truth" => TraceEvent::Truth {
                        level: fields.int()?,
                        weight: f64::from_bits(fields.hex64()?),
                    },
                    "observe" => TraceEvent::Observe {
                        fidelity: f64::from_bits(fields.hex64()?),
                    },
                    "drift" => TraceEvent::Drift {
                        shift: fields.int()?,
                    },
                    other => return Err(fields.error(format!("unknown event {other:?}"))),
                });
                fields.finish()?;
            }
            reader.end()?;
            Ok((universe, events))
        };
        let (universe, events) = read().map_err(|e: LineError| wire_error(e.to_string()))?;
        Self::new(universe, events)
    }
}

/// The adversary families the generative model covers, beyond the fixed
/// scenario generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Arrivals fixed up front, high-fidelity advice: the accurate-advice
    /// regime the consistency bounds cover.
    Oblivious,
    /// A few concentrated activity levels; most mass arrives in a burst
    /// *after* the advice froze.
    Bursty,
    /// Observes mid-trace, then keeps drifting the truth away from the
    /// snapshot one range at a time.
    Adaptive,
    /// Lets the predictor take a sharp early snapshot, then jams: piles
    /// arrival mass onto the largest levels where that sharp advice puts
    /// the least probability.
    ReactiveJamming,
}

impl AdversaryKind {
    /// Every adversary family, in a stable order.
    pub const ALL: [AdversaryKind; 4] = [
        AdversaryKind::Oblivious,
        AdversaryKind::Bursty,
        AdversaryKind::Adaptive,
        AdversaryKind::ReactiveJamming,
    ];

    /// Stable wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::Oblivious => "oblivious",
            AdversaryKind::Bursty => "bursty",
            AdversaryKind::Adaptive => "adaptive",
            AdversaryKind::ReactiveJamming => "reactive-jamming",
        }
    }

    /// Looks an adversary family up by its stable name.
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidParameter`] listing the valid names.
    pub fn by_name(name: &str) -> Result<Self, PredictError> {
        Self::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| PredictError::InvalidParameter {
                what: format!(
                    "unknown adversary {name:?}; expected one of: {}",
                    Self::ALL.map(|k| k.name()).join(", ")
                ),
            })
    }
}

/// A seeded generative model producing adversarial traces of one
/// [`AdversaryKind`] over a fixed universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceModel {
    kind: AdversaryKind,
    universe: usize,
}

impl TraceModel {
    /// A model for `kind` over networks of maximum size `universe`.
    ///
    /// # Errors
    ///
    /// [`PredictError::InvalidParameter`] if `universe < 8`.
    pub fn new(kind: AdversaryKind, universe: usize) -> Result<Self, PredictError> {
        if universe < 8 {
            return Err(PredictError::InvalidParameter {
                what: format!("trace model universe must be >= 8, got {universe}"),
            });
        }
        Ok(Self { kind, universe })
    }

    /// The adversary family this model generates.
    pub fn kind(&self) -> AdversaryKind {
        self.kind
    }

    /// The universe traces are generated over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Highest geometric level with a distinct size in this universe.
    fn max_level(&self) -> u32 {
        usize::BITS - 1 - self.universe.leading_zeros()
    }

    /// Generates one trace of roughly `steps` events.  Deterministic in
    /// the RNG: the same seeded RNG state yields a byte-identical wire
    /// form.  A trace of more than [`MAX_TRACE_STEPS`] steps may be too
    /// large for [`read_trace_file`] to read back.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, steps: usize) -> Trace {
        let steps = steps.max(2);
        let top = self.max_level().max(1);
        let mut events = Vec::with_capacity(steps + 2);
        match self.kind {
            AdversaryKind::Oblivious => {
                for _ in 0..steps {
                    events.push(TraceEvent::Truth {
                        level: rng.gen_range(1..=top),
                        weight: rng.gen_range(0.05..1.0),
                    });
                }
                events.push(TraceEvent::Observe {
                    fidelity: rng.gen_range(0.9..1.0),
                });
            }
            AdversaryKind::Bursty => {
                let base = rng.gen_range(1..=(top / 2).max(1));
                let burst = rng.gen_range((top - 1).max(1)..=top);
                let before = (steps / 2).max(1);
                for _ in 0..before {
                    events.push(TraceEvent::Truth {
                        level: base,
                        weight: rng.gen_range(0.6..1.0),
                    });
                }
                events.push(TraceEvent::Observe {
                    fidelity: rng.gen_range(0.9..1.0),
                });
                for _ in before..steps {
                    events.push(TraceEvent::Truth {
                        level: burst,
                        weight: rng.gen_range(0.3..0.8),
                    });
                }
            }
            AdversaryKind::Adaptive => {
                let before = (steps / 3).max(1);
                for _ in 0..before {
                    events.push(TraceEvent::Truth {
                        level: rng.gen_range(1..=top),
                        weight: rng.gen_range(0.2..1.0),
                    });
                }
                events.push(TraceEvent::Observe {
                    fidelity: rng.gen_range(0.5..0.9),
                });
                for _ in before..steps {
                    if rng.gen_range(0u32..2) == 0 {
                        events.push(TraceEvent::Drift {
                            shift: if rng.gen_range(0u32..2) == 0 { 1 } else { -1 },
                        });
                    } else {
                        events.push(TraceEvent::Truth {
                            level: rng.gen_range(1..=top),
                            weight: rng.gen_range(0.1..0.6),
                        });
                    }
                }
            }
            AdversaryKind::ReactiveJamming => {
                events.push(TraceEvent::Truth {
                    level: rng.gen_range(1..=(top / 2).max(1)),
                    weight: rng.gen_range(0.5..1.0),
                });
                events.push(TraceEvent::Observe {
                    fidelity: rng.gen_range(0.95..1.0),
                });
                for step in 0..steps {
                    if step % 3 == 2 {
                        events.push(TraceEvent::Drift { shift: 1 });
                    } else {
                        // Jam where the sharp snapshot has least mass: the
                        // top levels, with weight growing over time.
                        events.push(TraceEvent::Truth {
                            level: top,
                            weight: rng.gen_range(0.5..1.0) * (1.0 + step as f64),
                        });
                    }
                }
            }
        }
        Trace::new(self.universe, events).expect("generated events are valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;

    #[test]
    fn empty_trace_compiles_to_uniform_with_accurate_advice() {
        let trace = Trace::new(256, vec![]).unwrap();
        let scenario = trace.compile("empty").unwrap();
        assert!(!scenario.has_drifted_advice());
        assert_eq!(
            scenario.distribution(),
            &SizeDistribution::uniform_ranges(256).unwrap()
        );
    }

    #[test]
    fn levels_and_shifts_are_clamped_to_the_universe() {
        let trace = Trace::new(
            64,
            vec![
                TraceEvent::Truth {
                    level: 40,
                    weight: 1.0,
                },
                TraceEvent::Drift { shift: 90 },
            ],
        )
        .unwrap();
        let scenario = trace.compile("clamped").unwrap();
        assert_eq!(scenario.distribution().support(), vec![64]);
        let down = Trace::new(
            64,
            vec![
                TraceEvent::Truth {
                    level: 3,
                    weight: 1.0,
                },
                TraceEvent::Drift { shift: -90 },
            ],
        )
        .unwrap();
        assert_eq!(
            down.compile("floor").unwrap().distribution().support(),
            vec![2]
        );
    }

    #[test]
    fn observe_freezes_advice_before_later_drift() {
        let trace = Trace::new(
            256,
            vec![
                TraceEvent::Truth {
                    level: 3,
                    weight: 1.0,
                },
                TraceEvent::Observe { fidelity: 0.95 },
                TraceEvent::Drift { shift: 3 },
            ],
        )
        .unwrap();
        let scenario = trace.compile("stale").unwrap();
        assert!(scenario.has_drifted_advice());
        assert_eq!(scenario.distribution().support(), vec![64]);
        assert!(scenario.advice_divergence() > 1.0);
        assert!(scenario.advice_divergence().is_finite());
    }

    #[test]
    fn fidelity_is_capped_so_divergence_stays_finite() {
        let trace = Trace::new(
            256,
            vec![
                TraceEvent::Truth {
                    level: 2,
                    weight: 1.0,
                },
                TraceEvent::Observe { fidelity: 1.0 },
                TraceEvent::Drift { shift: 4 },
            ],
        )
        .unwrap();
        let scenario = trace.compile("capped").unwrap();
        assert!(scenario.advice_divergence().is_finite());
    }

    #[test]
    fn wire_round_trip_is_byte_identical() {
        let trace = Trace::new(
            128,
            vec![
                TraceEvent::Truth {
                    level: 4,
                    weight: 0.625,
                },
                TraceEvent::Observe { fidelity: 0.9 },
                TraceEvent::Drift { shift: -2 },
            ],
        )
        .unwrap();
        let wire = trace.to_wire();
        let parsed = Trace::from_wire(&wire).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_wire(), wire);
    }

    #[test]
    fn from_wire_rejects_malformed_inputs() {
        assert!(Trace::from_wire("").is_err());
        assert!(Trace::from_wire("crp-fuzz-trace v1\nuniverse 64\n").is_err());
        assert!(Trace::from_wire("crp-fuzz-trace v1\nuniverse nope\nend\n").is_err());
        assert!(Trace::from_wire("crp-fuzz-trace v1\nuniverse 64\nboom 1\nend\n").is_err());
        assert!(Trace::from_wire("crp-fuzz-trace v1\nuniverse 64\nend\njunk\n").is_err());
        assert!(Trace::from_wire("crp-fuzz-trace v1\nuniverse 64\ndrift 1 9\nend\n").is_err());
        // Validation matches Trace::new: universe floor and field ranges.
        assert!(Trace::from_wire("crp-fuzz-trace v1\nuniverse 4\nend\n").is_err());
        let negative = format!(
            "crp-fuzz-trace v1\nuniverse 64\ntruth 3 {}\nend\n",
            f64_hex(-1.0)
        );
        assert!(Trace::from_wire(&negative).is_err());
        // Only the canonical 16-lowercase-hex spelling of a weight parses:
        // signed, uppercase, short and zero-padded tokens are rejected.
        for token in [
            "+3ff0000000000000",
            "3FF0000000000000",
            "3ff",
            "03ff0000000000000",
        ] {
            let respelled = format!("crp-fuzz-trace v1\nuniverse 64\ntruth 3 {token}\nend\n");
            assert!(Trace::from_wire(&respelled).is_err(), "{token:?} parsed");
        }
    }

    #[test]
    fn models_are_deterministic_and_cover_all_kinds() {
        for kind in AdversaryKind::ALL {
            let model = TraceModel::new(kind, 256).unwrap();
            let a = model.generate(&mut ChaCha8Rng::seed_from_u64(7), 10);
            let b = model.generate(&mut ChaCha8Rng::seed_from_u64(7), 10);
            assert_eq!(a.to_wire(), b.to_wire(), "{}", kind.name());
            let scenario = a.compile(kind.name()).unwrap();
            let total: f64 = scenario.distribution().masses().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", kind.name());
            assert_eq!(Trace::from_wire(&a.to_wire()).unwrap(), a);
        }
    }

    #[test]
    fn the_largest_generated_trace_fits_twice_under_the_file_cap() {
        // The widest universe gives the longest `universe` line and the
        // highest levels.
        for kind in AdversaryKind::ALL {
            let model = TraceModel::new(kind, usize::MAX).unwrap();
            let trace = model.generate(&mut ChaCha8Rng::seed_from_u64(3), MAX_TRACE_STEPS);
            assert!(trace.len() <= MAX_TRACE_STEPS + 2, "{}", kind.name());
            let bytes = trace.to_wire().len() as u64;
            assert!(
                2 * bytes <= MAX_TRACE_FILE_BYTES,
                "{}: {bytes}",
                kind.name()
            );
        }
    }

    #[test]
    fn trace_files_are_read_up_to_the_cap_and_refused_past_it() {
        let dir = std::env::temp_dir().join(format!("crp-trace-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = Trace::new(
            64,
            vec![TraceEvent::Truth {
                level: 3,
                weight: 1.0,
            }],
        )
        .unwrap();
        let good = dir.join("good.trace");
        std::fs::write(&good, trace.to_wire()).unwrap();
        assert_eq!(read_trace_file(&good).unwrap(), trace);

        // One byte over the cap: refused, naming the file and the cap.
        let big = dir.join("big.trace");
        std::fs::write(&big, vec![b'x'; MAX_TRACE_FILE_BYTES as usize + 1]).unwrap();
        match read_trace_file(&big) {
            Err(PredictError::TraceFile { path, what }) => {
                assert!(path.ends_with("big.trace"), "{path}");
                assert!(what.contains(&MAX_TRACE_FILE_BYTES.to_string()), "{what}");
            }
            other => panic!("an oversized trace file read as {other:?}"),
        }
        for (name, bytes) in [
            ("bad.trace", b"not a trace\n".to_vec()),
            ("bin.trace", vec![0xff]),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(read_trace_file(&path), Err(PredictError::TraceFile { .. })),
                "{name}"
            );
        }
        assert!(matches!(
            read_trace_file(dir.join("missing.trace")),
            Err(PredictError::TraceFile { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // An endless file is refused after the cap plus one byte: read
        // whole, it would never end.
        #[cfg(unix)]
        assert!(matches!(
            read_trace_file("/dev/zero"),
            Err(PredictError::TraceFile { what, .. }) if what.contains("cap")
        ));
    }

    #[test]
    fn adversary_names_round_trip() {
        for kind in AdversaryKind::ALL {
            assert_eq!(AdversaryKind::by_name(kind.name()).unwrap(), kind);
        }
        let err = AdversaryKind::by_name("nope").unwrap_err();
        assert!(err.to_string().contains("reactive-jamming"), "{err}");
    }
}
