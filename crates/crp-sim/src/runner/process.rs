//! The out-of-process shard wire codec and the worker entry point.
//!
//! A [`ShardSpec`] is a fully serialised description of one cell —
//! protocol spec, population, round budget — and [`ShardSpec::to_wire`]
//! adds one job's plan coordinates.  The fleet backend ships that message
//! to a persistent `crp_experiments worker` process, whose handler
//! ([`run_shard_worker_with`]) answers with a serialised
//! [`crate::TrialAccumulator`].  Because the shard plan, the per-trial
//! RNG streams and the merge order are all decided by the dispatcher, a
//! worker only ever *computes one shard accumulator*; the statistics are
//! therefore bit-identical to the serial and threaded backends (floats
//! cross the process boundary as IEEE-754 bit patterns via
//! [`crp_obs::hex64`], never as decimal text).
//!
//! The wire format is a deliberately boring line-based text protocol (the
//! workspace is offline and vendors no serde); see [`ShardSpec::to_wire`].

use std::path::{Path, PathBuf};

use crp_fleet::BlobSet;
use crp_info::{CondensedDistribution, SizeDistribution};
use crp_protocols::ProtocolSpec;

use crate::runner::backend::ShardJob;
use crate::runner::kernel::KernelChoice;
use crate::runner::plan::ShardPlan;
use crate::simulation::Simulation;
use crate::SimError;

/// How a cell chooses its per-trial participant population, in
/// serialisable form.
#[derive(Debug)]
pub(crate) enum WirePopulation {
    /// A fixed participant count.
    Fixed(usize),
    /// An explicit participant-id placement.
    Placed(Vec<usize>),
    /// The participant count is sampled from this ground truth each trial.
    Sampled(SizeDistribution),
}

/// A fully serialisable description of one cell's work: everything a
/// fleet worker needs to reconstruct the cell's [`Simulation`] and
/// execute any shard of it.
///
/// Obtained from a [`Simulation`] that was built from a registry
/// [`ProtocolSpec`] (cells built around custom protocol *objects* have no
/// serialisable description and cannot run out of process).
#[derive(Debug)]
pub struct ShardSpec {
    pub(crate) protocol: ProtocolSpec,
    pub(crate) population: WirePopulation,
    pub(crate) max_rounds: usize,
}

/// Encodes an `f64` as its IEEE-754 bit pattern in fixed-width hex.
fn f64_hex(value: f64) -> String {
    crp_obs::hex64(value.to_bits())
}

/// Strictly decodes [`f64_hex`]: any other spelling is a typed error.
fn parse_f64_hex(token: &str) -> Result<f64, SimError> {
    crp_obs::parse_hex64(token)
        .map(f64::from_bits)
        .ok_or_else(|| {
            wire_error(format!(
                "invalid float bits {token:?}: expected 16 lowercase hex digits"
            ))
        })
}

fn wire_error(what: impl Into<String>) -> SimError {
    SimError::Backend { what: what.into() }
}

fn parse_usize(token: &str, label: &str) -> Result<usize, SimError> {
    token
        .parse::<usize>()
        .map_err(|e| wire_error(format!("invalid {label} {token:?}: {e}")))
}

/// Appends the hex-encoded masses of a slice of probabilities.
fn push_masses(out: &mut String, masses: &[f64]) {
    for &mass in masses {
        out.push(' ');
        out.push_str(&f64_hex(mass));
    }
}

fn parse_masses(tokens: std::str::SplitAsciiWhitespace<'_>) -> Result<Vec<f64>, SimError> {
    tokens.map(parse_f64_hex).collect()
}

impl ShardSpec {
    /// A cell whose participant count is sampled from `truth` each trial.
    ///
    /// Public so codec round-trip tests (and external tooling building
    /// shard jobs) can construct specs directly; simulations obtain
    /// theirs internally.
    pub fn sampled(protocol: ProtocolSpec, truth: SizeDistribution, max_rounds: usize) -> Self {
        Self {
            protocol,
            population: WirePopulation::Sampled(truth),
            max_rounds,
        }
    }

    /// A cell with a fixed participant count.
    pub fn fixed(protocol: ProtocolSpec, participants: usize, max_rounds: usize) -> Self {
        Self {
            protocol,
            population: WirePopulation::Fixed(participants),
            max_rounds,
        }
    }

    /// A cell with an explicit participant-id placement.
    pub fn placed(protocol: ProtocolSpec, ids: Vec<usize>, max_rounds: usize) -> Self {
        Self {
            protocol,
            population: WirePopulation::Placed(ids),
            max_rounds,
        }
    }

    /// The cell's protocol spec.
    pub fn protocol(&self) -> &ProtocolSpec {
        &self.protocol
    }

    /// The population masses when the cell samples its participant count
    /// (`None` for fixed or placed populations) — exposed for bit-exact
    /// round-trip assertions.
    pub fn sampled_masses(&self) -> Option<&[f64]> {
        match &self.population {
            WirePopulation::Sampled(truth) => Some(truth.masses()),
            _ => None,
        }
    }

    /// Serialises this spec plus the coordinates of one shard job into the
    /// canonical message a fleet worker executes (and a job's cache key
    /// hashes).
    pub fn to_wire(&self, plan: ShardPlan, base_seed: u64, shard: usize) -> String {
        let mut out = String::new();
        out.push_str("crp-shard-spec v1\n");
        out.push_str(&format!("protocol {}\n", self.protocol.name()));
        let params = self.protocol.params();
        out.push_str(&format!("universe {}\n", params.universe));
        out.push_str(&format!("advice-bits {}\n", params.advice_bits));
        match params.participants {
            Some(k) => out.push_str(&format!("participants {k}\n")),
            None => out.push_str("participants none\n"),
        }
        match params.estimate {
            Some(k) => out.push_str(&format!("estimate {k}\n")),
            None => out.push_str("estimate none\n"),
        }
        match &params.prediction {
            Some(prediction) => {
                out.push_str(&format!("prediction {}", prediction.max_size()));
                push_masses(&mut out, prediction.probabilities());
                out.push('\n');
            }
            None => out.push_str("prediction none\n"),
        }
        match &self.population {
            WirePopulation::Fixed(k) => out.push_str(&format!("population fixed {k}\n")),
            WirePopulation::Placed(ids) => {
                out.push_str("population placed");
                for id in ids {
                    out.push_str(&format!(" {id}"));
                }
                out.push('\n');
            }
            WirePopulation::Sampled(truth) => {
                out.push_str("population sampled");
                push_masses(&mut out, truth.masses());
                out.push('\n');
            }
        }
        out.push_str(&format!("max-rounds {}\n", self.max_rounds));
        out.push_str(&format!("trials {}\n", plan.trials()));
        out.push_str(&format!("shard-size {}\n", plan.shard_size()));
        out.push_str(&format!("base-seed {base_seed}\n"));
        out.push_str(&format!("shard {shard}\n"));
        out.push_str("end\n");
        out
    }

    /// Like [`ShardSpec::to_wire`], but with every masses section
    /// (sampled population, prediction) replaced by a `ref <hash>` line
    /// whose blob is registered in `blobs` — the scenario-by-hash form a
    /// fleet worker accepts once it holds the blobs.
    /// Returns `None` when the spec has no masses to reference (the
    /// compact form would equal the inline form).
    ///
    /// The inline encoding remains the *canonical* one: job identity and
    /// cache keys hash the [`ShardSpec::to_wire`] bytes, so how a spec
    /// was shipped can never change what it is.
    pub fn to_wire_compact(
        &self,
        plan: ShardPlan,
        base_seed: u64,
        shard: usize,
        blobs: &mut BlobSet,
    ) -> Option<(String, Vec<String>)> {
        let prediction_blob = self
            .protocol
            .params()
            .prediction
            .as_ref()
            .map(|prediction| {
                let mut blob = format!("{}", prediction.max_size());
                push_masses(&mut blob, prediction.probabilities());
                blob
            });
        let population_blob = match &self.population {
            WirePopulation::Sampled(truth) => {
                let mut blob = "sampled".to_string();
                push_masses(&mut blob, truth.masses());
                Some(blob)
            }
            _ => None,
        };
        if prediction_blob.is_none() && population_blob.is_none() {
            return None;
        }
        let inline = self.to_wire(plan, base_seed, shard);
        let mut refs = Vec::new();
        let mut out = String::with_capacity(256);
        for line in inline.lines() {
            if line.starts_with("prediction ") && prediction_blob.is_some() {
                let hash = blobs.insert(prediction_blob.clone().expect("checked above"));
                out.push_str(&format!("prediction ref {hash}\n"));
                refs.push(hash);
            } else if line.starts_with("population sampled") && population_blob.is_some() {
                let hash = blobs.insert(population_blob.clone().expect("checked above"));
                out.push_str(&format!("population ref {hash}\n"));
                refs.push(hash);
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        refs.dedup();
        Some((out, refs))
    }

    /// Parses the message produced by [`ShardSpec::to_wire`], returning the
    /// spec and the job coordinates `(plan, base_seed, shard)`.  Compact
    /// messages (with `ref <hash>` sections) are rejected here — use
    /// [`ShardSpec::from_wire_with`] with a blob resolver for those.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Backend`] describing the first malformed line.
    pub fn from_wire(input: &str) -> Result<(Self, ShardPlan, u64, usize), SimError> {
        Self::from_wire_with(input, &|_| None)
    }

    /// Parses an inline or compact shard-spec message, resolving
    /// `ref <hash>` sections (compact scenario-by-hash shipping) through
    /// `resolve` — a fleet worker passes a lookup into its
    /// [`crp_fleet::ScenarioStore`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Backend`] describing the first malformed line
    /// or an unresolvable blob reference.
    pub fn from_wire_with(
        input: &str,
        resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Self, ShardPlan, u64, usize), SimError> {
        fn expect<'a>(lines: &mut std::str::Lines<'a>, label: &str) -> Result<&'a str, SimError> {
            let line = lines
                .next()
                .ok_or_else(|| wire_error(format!("missing {label} line")))?;
            line.strip_prefix(label)
                .map(str::trim_start)
                .ok_or_else(|| wire_error(format!("expected a {label} line, got {line:?}")))
        }

        let mut lines = input.lines();
        let header = lines
            .next()
            .ok_or_else(|| wire_error("empty shard-spec message"))?;
        if header != "crp-shard-spec v1" {
            return Err(wire_error(format!("unexpected spec header {header:?}")));
        }
        let lines = &mut lines;
        let name = expect(lines, "protocol")?.to_string();
        let universe = parse_usize(expect(lines, "universe")?, "universe")?;
        let advice_bits = parse_usize(expect(lines, "advice-bits")?, "advice-bits")?;
        let participants = match expect(lines, "participants")? {
            "none" => None,
            token => Some(parse_usize(token, "participants")?),
        };
        let estimate = match expect(lines, "estimate")? {
            "none" => None,
            token => Some(parse_usize(token, "estimate")?),
        };
        // A `ref <hash>` payload (compact scenario-by-hash shipping)
        // dereferences to the text an inline message would have carried.
        let deref = |payload: &str, label: &str| -> Result<Option<String>, SimError> {
            let Some(hash) = payload.strip_prefix("ref ") else {
                return Ok(None);
            };
            let hash = hash.trim();
            resolve(hash).map(Some).ok_or_else(|| {
                wire_error(format!(
                    "{label} references scenario blob {hash}, which this worker does not hold"
                ))
            })
        };
        let prediction = match expect(lines, "prediction")? {
            "none" => None,
            payload => {
                let resolved = deref(payload, "prediction")?;
                let payload = resolved.as_deref().unwrap_or(payload);
                let mut tokens = payload.split_ascii_whitespace();
                let max_size = parse_usize(
                    tokens
                        .next()
                        .ok_or_else(|| wire_error("prediction line is missing its max size"))?,
                    "prediction max size",
                )?;
                let masses = parse_masses(tokens)?;
                Some(
                    CondensedDistribution::from_range_masses_exact(masses, max_size)
                        .map_err(|e| wire_error(format!("invalid prediction masses: {e}")))?,
                )
            }
        };
        let population = {
            let payload = expect(lines, "population")?;
            let resolved = deref(payload, "population")?;
            let payload = resolved.as_deref().unwrap_or(payload);
            let mut tokens = payload.split_ascii_whitespace();
            match tokens.next() {
                Some("fixed") => WirePopulation::Fixed(parse_usize(
                    tokens
                        .next()
                        .ok_or_else(|| wire_error("population fixed is missing its count"))?,
                    "population count",
                )?),
                Some("placed") => WirePopulation::Placed(
                    tokens
                        .map(|t| parse_usize(t, "participant id"))
                        .collect::<Result<Vec<usize>, SimError>>()?,
                ),
                Some("sampled") => WirePopulation::Sampled(
                    SizeDistribution::from_masses_exact(parse_masses(tokens)?)
                        .map_err(|e| wire_error(format!("invalid population masses: {e}")))?,
                ),
                other => {
                    return Err(wire_error(format!("unknown population kind {other:?}")));
                }
            }
        };
        let max_rounds = parse_usize(expect(lines, "max-rounds")?, "max-rounds")?;
        let trials = parse_usize(expect(lines, "trials")?, "trials")?;
        let shard_size = parse_usize(expect(lines, "shard-size")?, "shard-size")?;
        let base_seed = expect(lines, "base-seed")?
            .parse::<u64>()
            .map_err(|e| wire_error(format!("invalid base seed: {e}")))?;
        let shard = parse_usize(expect(lines, "shard")?, "shard")?;
        if !expect(lines, "end")?.is_empty() {
            return Err(wire_error("trailing content after the end marker"));
        }

        let mut protocol = ProtocolSpec::new(name)
            .universe(universe)
            .advice_bits(advice_bits);
        if let Some(k) = participants {
            protocol = protocol.participants(k);
        }
        if let Some(k) = estimate {
            protocol = protocol.estimate(k);
        }
        if let Some(prediction) = prediction {
            protocol = protocol.prediction(prediction);
        }
        Ok((
            Self {
                protocol,
                population,
                max_rounds,
            },
            ShardPlan::with_shard_size(trials, shard_size),
            base_seed,
            shard,
        ))
    }

    /// Reconstructs the cell's validated [`Simulation`] (single-threaded —
    /// a worker only ever runs one shard inline) on the given kernel path.
    pub(crate) fn to_simulation(
        &self,
        trials: usize,
        base_seed: u64,
        kernel: KernelChoice,
    ) -> Result<Simulation, SimError> {
        let mut builder = Simulation::builder()
            .protocol(self.protocol.clone())
            .max_rounds(self.max_rounds)
            .trials(trials)
            .seed(base_seed)
            .threads(1)
            .kernel(kernel);
        builder = match &self.population {
            WirePopulation::Fixed(k) => builder.participants(*k),
            WirePopulation::Placed(ids) => builder.participant_ids(ids.clone()),
            WirePopulation::Sampled(truth) => builder.truth(truth.clone()),
        };
        builder.build()
    }
}

/// The fleet worker's job handler: parses an inline or compact
/// [`ShardSpec`] message — resolving `ref <hash>` sections through
/// `resolve`, a lookup into the worker's per-process
/// [`crp_fleet::ScenarioStore`], so a scenario's masses arrive once per
/// worker instead of once per shard — executes the one shard it names on
/// the worker's `kernel` path, and returns the serialised
/// [`crate::TrialAccumulator`].
///
/// The kernel choice is not carried on the wire: kernels are
/// bit-identical to the scalar path, so dispatcher and worker may choose
/// differently without affecting the statistics.
///
/// # Errors
///
/// Returns [`SimError`] for malformed input, an unresolvable blob
/// reference, or a failing trial; the worker answers it as a failed job.
pub fn run_shard_worker_with(
    input: &str,
    resolve: &dyn Fn(&str) -> Option<String>,
    kernel: KernelChoice,
) -> Result<String, SimError> {
    let (spec, plan, base_seed, shard) = ShardSpec::from_wire_with(input, resolve)?;
    if shard >= plan.num_shards() {
        return Err(wire_error(format!(
            "shard {shard} out of range for a plan of {} shards",
            plan.num_shards()
        )));
    }
    let simulation = spec.to_simulation(plan.trials(), base_seed, kernel)?;
    let kernel = simulation.cell_kernel();
    let trial = simulation.trial_fn();
    let job = ShardJob {
        cell: 0,
        shard,
        plan,
        base_seed,
        trial: &trial,
        spec: None,
        kernel: kernel.as_ref(),
    };
    Ok(job.run_inline()?.to_wire())
}

/// Resolves the `crp_experiments` worker binary the persistent local
/// pools of [`crate::FleetBackend`] spawn, in order from: the
/// `CRP_SHARD_WORKER_BIN` environment variable, the current executable
/// itself (when it *is* `crp_experiments`), or a `crp_experiments` binary
/// next to (or one directory above) the current executable — which finds
/// the right binary from `cargo test` and `cargo bench` processes in the
/// same target directory.
pub(crate) fn worker_binary() -> Result<PathBuf, SimError> {
    if let Ok(path) = std::env::var("CRP_SHARD_WORKER_BIN") {
        if !path.trim().is_empty() {
            return Ok(PathBuf::from(path));
        }
    }
    let exe = std::env::current_exe()
        .map_err(|e| wire_error(format!("cannot resolve the current executable: {e}")))?;
    let worker_name = format!("crp_experiments{}", std::env::consts::EXE_SUFFIX);
    if exe.file_stem().and_then(|s| s.to_str()) == Some("crp_experiments") {
        return Ok(exe);
    }
    let parent = exe.parent();
    for dir in [parent, parent.and_then(Path::parent)]
        .into_iter()
        .flatten()
    {
        let candidate = dir.join(&worker_name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(wire_error(
        "cannot locate the crp_experiments worker binary; build it \
         (cargo build --bin crp_experiments) or set CRP_SHARD_WORKER_BIN",
    ))
}
