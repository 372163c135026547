//! The out-of-process shard wire codec and the worker entry point.
//!
//! A [`ShardSpec`] is a fully serialised description of one cell —
//! protocol spec, population, round budget — and
//! [`ShardSpec::cell_to_wire`] adds the shard plan and base seed every
//! job of the cell shares.  That cell payload has one encoding: its
//! masses sections are `ref <hash>` lines naming content-addressed blobs,
//! so the client encodes and hashes it once per cell.  Job `i` is the
//! cell payload plus one `job <i> of <n>` line, which
//! [`crp_fleet::job_payload`] writes ([`ShardSpec::to_wire`] is the two
//! together), and the hash of a job payload is the job's identity and
//! cache key.  The fleet backend and the sweep daemon ship each job, with
//! the blobs it names, to a persistent `crp_experiments worker` process,
//! whose handler ([`run_shard_worker_with`]) answers with a serialised
//! [`crate::TrialAccumulator`].  Because the shard plan, the per-trial
//! RNG streams and the merge order are all decided by the dispatcher, a
//! worker only ever *computes one shard accumulator*; the statistics are
//! therefore bit-identical to the serial and threaded backends (floats
//! cross the process boundary as IEEE-754 bit patterns via
//! [`crp_obs::hex64`], never as decimal text).
//!
//! The wire format is a deliberately boring line-based text protocol (the
//! workspace is offline and vendors no serde); see [`ShardSpec::to_wire`].
//! [`ShardSpec::from_wire`] reads it, blobs included, with the one
//! [`crp_obs::LineReader`] and accepts exactly the bytes `to_wire` writes.

use std::path::{Path, PathBuf};

use crp_channel::ParticipantId;
use crp_fleet::{BlobSet, JobPayload};
use crp_info::{CondensedDistribution, SizeDistribution};
use crp_obs::{parse_hex64, parse_int, Fields, LineError, LineReader};
use crp_protocols::{check_participants, ProtocolSpec};

use crate::runner::backend::CellWork;
use crate::runner::plan::{RunnerConfig, ShardPlan};
use crate::simulation::{Population, Simulation};
use crate::SimError;

/// A fully serialisable description of one cell's work: everything a
/// fleet worker needs to reconstruct the cell's [`Simulation`] and
/// execute any shard of it.
///
/// Every [`Simulation`] holds exactly one: its registry [`ProtocolSpec`],
/// its population and its round budget.
#[derive(Debug)]
pub struct ShardSpec {
    pub(crate) protocol: ProtocolSpec,
    pub(crate) population: Population,
    pub(crate) max_rounds: usize,
}

/// Encodes an `f64` as its IEEE-754 bit pattern in fixed-width hex.
fn f64_hex(value: f64) -> String {
    crp_obs::hex64(value.to_bits())
}

fn wire_error(what: impl Into<String>) -> SimError {
    SimError::Backend { what: what.into() }
}

/// A masses blob: `head` followed by the hex-encoded masses.
fn masses_blob(head: &str, masses: &[f64]) -> String {
    let mut blob = String::with_capacity(head.len() + 17 * masses.len());
    blob.push_str(head);
    for &mass in masses {
        blob.push(' ');
        blob.push_str(&f64_hex(mass));
    }
    blob
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
            population: Population::Sampled(truth),
            max_rounds,
        }
    }

    /// A cell with a fixed participant count.
    pub fn fixed(protocol: ProtocolSpec, participants: usize, max_rounds: usize) -> Self {
        Self {
            protocol,
            population: Population::Fixed(participants),
            max_rounds,
        }
    }

    /// A cell with an explicit participant-id placement.
    pub fn placed(protocol: ProtocolSpec, ids: Vec<usize>, max_rounds: usize) -> Self {
        Self {
            protocol,
            population: Population::Placed(ids.into_iter().map(ParticipantId).collect()),
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
            Population::Sampled(truth) => Some(truth.masses()),
            _ => None,
        }
    }

    /// Serialises this spec plus the shard plan and base seed its jobs
    /// share into the cell payload, which every job of the cell repeats.
    ///
    /// Every masses section — the sampled population and the prediction
    /// — is written as a `ref <hash>` line whose blob goes into `blobs`,
    /// so a scenario's masses travel once per worker rather than once
    /// per shard.
    pub fn cell_to_wire(&self, plan: ShardPlan, base_seed: u64, blobs: &mut BlobSet) -> JobPayload {
        let mut refs = Vec::new();
        let mut reference = |blob: String| {
            let hash = blobs.insert(blob);
            let line = format!("ref {hash}");
            refs.push(hash);
            line
        };
        let mut out = String::with_capacity(512);
        out.push_str("crp-shard-spec v2\n");
        out.push_str(&format!("protocol {}\n", self.protocol.name()));
        let params = self.protocol.params();
        out.push_str(&format!("universe {}\n", params.universe));
        out.push_str(&format!("advice-bits {}\n", params.advice_bits));
        match params.participants {
            Some(k) => out.push_str(&format!("participants {k}\n")),
            None => out.push_str("participants none\n"),
        }
        match &params.prediction {
            Some(prediction) => {
                let head = prediction.max_size().to_string();
                let line = reference(masses_blob(&head, prediction.probabilities()));
                out.push_str(&format!("prediction {line}\n"));
            }
            None => out.push_str("prediction none\n"),
        }
        match &self.population {
            Population::Fixed(k) => out.push_str(&format!("population fixed {k}\n")),
            Population::Placed(ids) => {
                out.push_str("population placed");
                for id in ids {
                    out.push_str(&format!(" {}", id.index()));
                }
                out.push('\n');
            }
            Population::Sampled(truth) => {
                let line = reference(masses_blob("sampled", truth.masses()));
                out.push_str(&format!("population {line}\n"));
            }
        }
        out.push_str(&format!("max-rounds {}\n", self.max_rounds));
        out.push_str(&format!("trials {}\n", plan.trials()));
        out.push_str(&format!("shard-size {}\n", plan.shard_size()));
        out.push_str(&format!("base-seed {base_seed}\n"));
        JobPayload::new(out, refs)
    }

    /// Serialises job `shard` of this cell: the one message a fleet
    /// worker executes, [`ShardSpec::cell_to_wire`] plus its job line.
    ///
    /// The payload's [`crp_fleet::content_hash`] is the job's identity
    /// and cache key; because the payload names its blobs by hash, that
    /// key covers the masses as well as the spec, plan, seed and shard.
    pub fn to_wire(
        &self,
        plan: ShardPlan,
        base_seed: u64,
        shard: usize,
        blobs: &mut BlobSet,
    ) -> JobPayload {
        let cell = self.cell_to_wire(plan, base_seed, blobs);
        let payload = crp_fleet::job_payload(&cell.payload, shard, plan.num_shards());
        JobPayload::new(payload, cell.refs)
    }

    /// Parses the message produced by [`ShardSpec::to_wire`], resolving
    /// each `ref <hash>` section through `resolve` (a fleet worker passes
    /// a lookup into its [`crp_fleet::ScenarioStore`]), and returns the
    /// spec plus the job coordinates `(plan, base_seed, shard)`.  It
    /// accepts exactly the bytes `to_wire` writes, blobs included: the
    /// job line, split off by [`crp_fleet::split_job`], must name the
    /// plan's shard count and a shard below it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Backend`] naming the first malformed line —
    /// masses written inline, a `shard-size` of 0, a `participants`
    /// estimate outside `1..=universe`, a job count other than the
    /// plan's shard count, a shard past the plan and any spelling
    /// `to_wire` would not write included — or naming a blob `resolve`
    /// does not hold.
    pub fn from_wire(
        input: &str,
        resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Self, ShardPlan, u64, usize), SimError> {
        Self::read(input, resolve).map_err(|e| wire_error(e.to_string()))
    }

    fn read(
        input: &str,
        resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Self, ShardPlan, u64, usize), LineError> {
        let none_or_count = |fields: &mut Fields<'_>| {
            fields.parse("none or a count", |token| match token {
                "none" => Some(None),
                token => parse_int(token).map(Some),
            })
        };
        // Masses only ever travel by reference: a section is a
        // `ref <hash>` line, dereferenced to its blob through `resolve`.
        let deref = |fields: &mut Fields<'_>, label: &str| {
            let hash = fields.token()?;
            resolve(hash).ok_or_else(|| {
                fields.error(format!(
                    "{label} references scenario blob {hash}, which this worker does not hold"
                ))
            })
        };
        let mass = |token: &str| parse_hex64(token).map(f64::from_bits);

        let (cell, job) = crp_fleet::split_job(input);
        let mut reader = LineReader::new(cell);
        reader.header("crp-shard-spec v2")?;
        let name = reader.field("protocol", Fields::token)?;
        let universe = reader.field("universe", Fields::int)?;
        let advice_bits = reader.field("advice-bits", Fields::int)?;
        let participants = reader.field("participants", |fields| {
            let participants = none_or_count(fields)?;
            if let Some(k) = participants {
                check_participants(universe, k).map_err(|e| fields.error(e.to_string()))?;
            }
            Ok(participants)
        })?;
        let mut fields = reader.fields("prediction")?;
        let prediction = match fields.token()? {
            "none" => None,
            "ref" => {
                let blob = deref(&mut fields, "prediction")?;
                let mut blob = reader.fields_of(&blob);
                let max_size = blob.int()?;
                let masses = blob.list(usize::MAX, "a mass bit pattern", mass)?;
                Some(
                    CondensedDistribution::from_range_masses_exact(masses, max_size)
                        .map_err(|e| reader.error(format!("invalid prediction masses: {e}")))?,
                )
            }
            other => return Err(fields.error(format!("unknown prediction {other:?}"))),
        };
        fields.finish()?;
        let mut fields = reader.fields("population")?;
        let population = match fields.token()? {
            "fixed" => Population::Fixed(fields.int()?),
            "placed" => {
                Population::Placed(fields.list(usize::MAX, "a participant id", |token| {
                    parse_int(token).map(ParticipantId)
                })?)
            }
            "ref" => {
                let blob = deref(&mut fields, "population")?;
                let mut blob = reader.fields_of(&blob);
                blob.keyword("sampled")?;
                let masses = blob.list(usize::MAX, "a mass bit pattern", mass)?;
                Population::Sampled(
                    SizeDistribution::from_masses_exact(masses)
                        .map_err(|e| reader.error(format!("invalid population masses: {e}")))?,
                )
            }
            other => return Err(fields.error(format!("unknown population {other:?}"))),
        };
        fields.finish()?;
        let max_rounds = reader.field("max-rounds", Fields::int)?;
        let trials = reader.field("trials", Fields::int)?;
        let shard_size = reader.field("shard-size", |fields| {
            fields.parse("at least 1", |token| {
                parse_int(token).filter(|&size| size >= 1)
            })
        })?;
        let base_seed = reader.field("base-seed", Fields::int)?;
        let job = job?;
        reader.finish()?;
        let plan = ShardPlan::with_shard_size(trials, shard_size);
        let shards = plan.num_shards();
        if job.count != shards {
            return Err(job.error(format!(
                "a {}-job cell does not match its {shards}-shard plan",
                job.count
            )));
        }
        if job.index >= shards {
            return Err(job.error(format!(
                "\"{}\" is not a shard of a {shards}-shard plan",
                job.index
            )));
        }
        let shard = job.index;

        let mut protocol = ProtocolSpec::new(name)
            .universe(universe)
            .advice_bits(advice_bits);
        if let Some(k) = participants {
            protocol = protocol.participants(k);
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
            plan,
            base_seed,
            shard,
        ))
    }

    /// Reconstructs the cell's validated [`Simulation`] (single-threaded —
    /// a worker only ever runs one shard inline), through the same
    /// validation the builder applies.
    pub(crate) fn into_simulation(
        self,
        trials: usize,
        base_seed: u64,
    ) -> Result<Simulation, SimError> {
        let config = RunnerConfig {
            trials,
            base_seed,
            threads: 1,
            ..RunnerConfig::default()
        };
        Simulation::validated(
            self.protocol,
            self.population,
            Some(self.max_rounds),
            None,
            config,
        )
    }
}

/// The fleet worker's job handler: parses a [`ShardSpec`] message —
/// resolving its `ref <hash>` sections through `resolve`, a lookup into
/// the worker's per-process [`crp_fleet::ScenarioStore`], so a
/// scenario's masses arrive once per worker instead of once per shard —
/// executes the one shard it names, and returns the serialised
/// [`crate::TrialAccumulator`].  The shard runs through the same per-cell
/// setup as every in-process shard job, so the worker selects the loop
/// the dispatcher selected for the cell: both select from the protocol
/// alone.
///
/// # Errors
///
/// Returns [`SimError`] for malformed input, an unresolvable blob
/// reference, or a failing trial; the worker answers it as a failed job.
pub fn run_shard_worker_with(
    input: &str,
    resolve: &dyn Fn(&str) -> Option<String>,
) -> Result<String, SimError> {
    let (spec, plan, base_seed, shard) = ShardSpec::from_wire(input, resolve)?;
    let simulation = spec.into_simulation(plan.trials(), base_seed)?;
    Ok(CellWork::new(&simulation, plan)
        .job(0, shard)
        .run_inline()?
        .to_wire())
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
