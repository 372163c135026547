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
//! [`crate::TrialAccumulator`].  The handler does not decode each job
//! from scratch: the worker's [`SpecCache`] keeps the cell compiled from
//! a job's spec section (its first [`SPEC_LINES`] lines), so a spec is
//! parsed, resolved and validated once per worker, and every later job
//! of it, under any plan or seed, reads only its plan lines and job line
//! before running its shard against the cached cell and its
//! deterministic-outcome memo.  Because the shard plan, the per-trial
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

use std::collections::HashMap;
use std::mem::{size_of, size_of_val};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crp_channel::ParticipantId;
use crp_fleet::{BlobSet, JobLine, JobPayload};
use crp_info::{CondensedDistribution, SizeDistribution};
use crp_obs::{parse_hex64, parse_int, Fields, LineError, LineReader};
use crp_protocols::{check_participants, Protocol, ProtocolSpec};

use crate::runner::backend::ShardJob;
use crate::runner::kernel::{CellKernel, OutcomeMemo};
use crate::runner::plan::{RunnerConfig, ShardPlan};
use crate::simulation::{Population, Simulation};
use crate::stats::TrialAccumulator;
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

fn wire_error(what: impl Into<String>) -> SimError {
    SimError::Backend { what: what.into() }
}

/// A masses blob: `head` followed by the masses' IEEE-754 bit patterns
/// in fixed-width hex.
fn masses_blob(head: &str, masses: &[f64]) -> String {
    let mut blob = String::with_capacity(head.len() + 17 * masses.len());
    blob.push_str(head);
    for &mass in masses {
        blob.push(' ');
        crp_obs::push_hex64(&mut blob, mass.to_bits());
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
        let (cell, job) = crp_fleet::split_job(input);
        let mut reader = LineReader::new(cell);
        let spec = Self::read_spec(&mut reader, resolve)?;
        let (plan, base_seed, shard) = read_plan(reader, job)?;
        Ok((spec, plan, base_seed, shard))
    }

    /// Reads the spec section, the first [`SPEC_LINES`] lines: everything
    /// the cell is, before the plan lines its jobs may vary.
    fn read_spec(
        reader: &mut LineReader<'_>,
        resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<Self, LineError> {
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

        let mut protocol = ProtocolSpec::new(name)
            .universe(universe)
            .advice_bits(advice_bits);
        if let Some(k) = participants {
            protocol = protocol.participants(k);
        }
        if let Some(prediction) = prediction {
            protocol = protocol.prediction(prediction);
        }
        Ok(Self {
            protocol,
            population,
            max_rounds,
        })
    }

    /// Compiles the cell a worker keeps between jobs, through the same
    /// validation the builder applies.  `trials`, the compiling job's,
    /// takes part only in the trial-count check, which every decoded plan
    /// passes (its job line names a shard), so whether a spec compiles
    /// depends on its spec section alone.
    fn compile(self, trials: usize) -> Result<CompiledCell, SimError> {
        let config = RunnerConfig {
            trials,
            threads: 1,
            ..RunnerConfig::default()
        };
        let simulation = Simulation::validated(
            self.protocol,
            self.population,
            Some(self.max_rounds),
            None,
            config,
        )?;
        let (spec, protocol) = simulation.into_cell();
        Ok(CompiledCell {
            spec,
            protocol,
            memo: OutcomeMemo::default(),
        })
    }
}

/// Reads the plan lines and checks the job line against the plan: what a
/// job adds to its spec section, read alone on a [`SpecCache`] hit.
fn read_plan(
    mut reader: LineReader<'_>,
    job: Result<JobLine, LineError>,
) -> Result<(ShardPlan, u64, usize), LineError> {
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
    Ok((plan, base_seed, job.index))
}

/// The lines of a job payload's spec section: `crp-shard-spec v2`,
/// `protocol`, `universe`, `advice-bits`, `participants`, `prediction`,
/// `population` and `max-rounds`.  Its masses are `ref <hash>` lines, so
/// the section's bytes name its whole content.
const SPEC_LINES: usize = 8;

/// The byte budget of a worker's [`SpecCache`], past which it evicts the
/// least recently used cells.  Sized for the largest grid the workspace
/// runs on a fleet, one `scale_ladder` grid at n = 2^20: two sampled cells
/// over 2^20 sizes, each holding 8 MiB of masses and a 16 MiB alias table
/// (an `f64` and a `usize` per size), so 24 MiB a cell and 48 MiB the
/// grid.  64 MiB leaves a margin of 16 MiB, a third of the grid, for the
/// memos, the predictions and the smaller cells of other grids (a
/// `cold-n16k` cell takes 0.4 MiB).
const SPEC_CACHE_BUDGET: usize = 64 << 20;

/// One cell a worker compiled, kept between jobs: the validated protocol,
/// the population (with the alias table its first draw builds) and the
/// round budget, plus the memo of the cell's deterministic outcomes,
/// which grows across every job of the spec, whatever its seed or plan.
pub(crate) struct CompiledCell {
    spec: ShardSpec,
    protocol: Box<dyn Protocol>,
    memo: OutcomeMemo,
}

impl CompiledCell {
    /// Runs shard `shard` of this cell under `plan` and `base_seed`,
    /// through the [`ShardJob::run_inline`] every in-process shard runs.
    fn run(
        &self,
        plan: ShardPlan,
        base_seed: u64,
        shard: usize,
    ) -> Result<TrialAccumulator, SimError> {
        let kernel = CellKernel::select(
            self.protocol.as_ref(),
            &self.spec.population,
            self.spec.max_rounds,
        );
        ShardJob {
            cell: 0,
            shard,
            plan,
            base_seed,
            spec: &self.spec,
            kernel: &kernel,
            memo: &self.memo,
        }
        .run_inline()
    }

    /// The bytes the entry holds: its masses (and a placement's ids),
    /// the alias table of a sampled population, and its memo at its
    /// current length, plus the entry itself.
    fn bytes(&self) -> usize {
        let population = match &self.spec.population {
            // A mass, and the alias table's probability and index, per size.
            Population::Sampled(truth) => {
                truth.masses().len() * (2 * size_of::<f64>() + size_of::<usize>())
            }
            Population::Placed(ids) => size_of_val(ids.as_slice()),
            Population::Fixed(_) => 0,
        };
        let prediction = self.spec.protocol.params().prediction.as_ref();
        let prediction = prediction.map_or(0, |p| size_of_val(p.probabilities()));
        let memo = self.memo.len() * size_of::<(usize, (bool, usize))>();
        size_of::<Self>() + population + prediction + memo
    }
}

/// A fleet worker's cache of compiled cells: bounded, content-addressed
/// and shared by every connection and job thread of the process.
///
/// The key is the content hash of a job payload's spec section, whose
/// masses are `ref <hash>` lines naming blobs hash-verified when they
/// arrived, so equal keys compile to equal cells.  A hit reads only the
/// job's plan lines and job line, with the decoder's own checks, errors
/// and line numbers, and runs its shard; a miss runs the full decoder and
/// inserts the compiled cell.  A payload that does not compile is never
/// cached.  Past a constant budget of 64 MiB the least recently used
/// entries are evicted; entries are shared, so eviction never frees a
/// cell a running job still holds.  Hits, misses and evictions count as
/// `sim.spec_cache.hit`, `sim.spec_cache.miss` and
/// `sim.spec_cache.evict` in the process registry.
pub struct SpecCache {
    budget: usize,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<String, Slot>,
    /// The sum of the entries' accounted bytes.
    bytes: usize,
    /// The recency clock, advanced by every lookup.
    clock: u64,
}

struct Slot {
    cell: Arc<CompiledCell>,
    /// The bytes accounted for the cell, as of its last job.
    bytes: usize,
    /// The clock reading of the entry's last lookup.
    used: u64,
}

impl Default for SpecCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SpecCache {
    /// An empty cache with the constant 64 MiB byte budget.
    pub fn new() -> Self {
        Self::with_budget(SPEC_CACHE_BUDGET)
    }

    fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            state: Mutex::default(),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().expect("no cache user panics")
    }

    /// The compiled cell of job payload `input` and its job coordinates
    /// `(plan, base_seed, shard)`: the cached cell on a hit, else the
    /// full decoder's, which is inserted.
    ///
    /// # Errors
    ///
    /// As [`ShardSpec::from_wire`], and the validation errors of a spec
    /// that decodes but does not compile.
    fn compile(
        &self,
        input: &str,
        resolve: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Arc<CompiledCell>, ShardPlan, u64, usize), SimError> {
        let (cell, job) = crp_fleet::split_job(input);
        let mut reader = LineReader::new(cell);
        // A payload of fewer lines has no key; the decoder names its
        // missing line.
        let key = reader
            .lines(SPEC_LINES)
            .ok()
            .map(|section| crp_fleet::content_hash(section.as_bytes()));
        if let Some(cell) = key.as_deref().and_then(|key| self.lookup(key)) {
            let (plan, base_seed, shard) =
                read_plan(reader, job).map_err(|e| wire_error(e.to_string()))?;
            return Ok((cell, plan, base_seed, shard));
        }
        crp_obs::global().inc("sim.spec_cache.miss");
        let (spec, plan, base_seed, shard) = ShardSpec::from_wire(input, resolve)?;
        let cell = spec.compile(plan.trials())?;
        let cell = match key {
            Some(key) => self.insert(key, cell),
            None => Arc::new(cell),
        };
        Ok((cell, plan, base_seed, shard))
    }

    /// The entry under `key`, marked most recently used.
    fn lookup(&self, key: &str) -> Option<Arc<CompiledCell>> {
        let mut state = self.state();
        state.clock += 1;
        let clock = state.clock;
        let slot = state.entries.get_mut(key)?;
        slot.used = clock;
        crp_obs::global().inc("sim.spec_cache.hit");
        Some(Arc::clone(&slot.cell))
    }

    /// Inserts `cell` under `key` and evicts past the budget.  A job
    /// that compiled the same spec meanwhile keeps its entry, so both
    /// jobs share one memo.
    fn insert(&self, key: String, cell: CompiledCell) -> Arc<CompiledCell> {
        let mut state = self.state();
        let clock = state.clock;
        if let Some(slot) = state.entries.get(&key) {
            return Arc::clone(&slot.cell);
        }
        let cell = Arc::new(cell);
        let bytes = cell.bytes();
        state.bytes += bytes;
        state.entries.insert(
            key,
            Slot {
                cell: Arc::clone(&cell),
                bytes,
                used: clock,
            },
        );
        self.evict(&mut state);
        cell
    }

    /// Re-accounts `cell` at its current size after a job grew its memo,
    /// and evicts past the budget.
    fn settle(&self, cell: &Arc<CompiledCell>) {
        let mut state = self.state();
        let bytes = cell.bytes();
        let Some(slot) = state
            .entries
            .values_mut()
            .find(|slot| Arc::ptr_eq(&slot.cell, cell))
        else {
            return;
        };
        let before = std::mem::replace(&mut slot.bytes, bytes);
        state.bytes = state.bytes - before + bytes;
        self.evict(&mut state);
    }

    /// Evicts least recently used entries until the total fits the budget.
    fn evict(&self, state: &mut CacheState) {
        while state.bytes > self.budget {
            let Some(oldest) = state
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.used)
                .map(|(key, _)| key.clone())
            else {
                return;
            };
            let slot = state
                .entries
                .remove(&oldest)
                .expect("the key was just found");
            state.bytes -= slot.bytes;
            crp_obs::global().inc("sim.spec_cache.evict");
        }
    }
}

/// The fleet worker's job handler: looks the [`ShardSpec`] message's
/// spec section up in the worker's [`SpecCache`] — decoding and compiling
/// it on a miss, resolving its `ref <hash>` sections through `resolve`, a
/// lookup into the worker's per-process [`crp_fleet::ScenarioStore`], so
/// a scenario's masses arrive once per worker and compile once per
/// worker instead of once per shard — executes the one shard the job
/// names, and returns the serialised [`crate::TrialAccumulator`].  The
/// shard runs through the same [`ShardJob::run_inline`] as every
/// in-process shard job, so the worker selects the loop the dispatcher
/// selected for the cell: both select from the protocol alone.
///
/// # Errors
///
/// Returns [`SimError`] for malformed input, an unresolvable blob
/// reference, or a failing trial; the worker answers it as a failed job.
pub fn run_shard_worker_with(
    input: &str,
    resolve: &dyn Fn(&str) -> Option<String>,
    cache: &SpecCache,
) -> Result<String, SimError> {
    let (cell, plan, base_seed, shard) = cache.compile(input, resolve)?;
    let accumulator = cell.run(plan, base_seed, shard);
    cache.settle(&cell);
    Ok(accumulator?.to_wire())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::kernel::tests::{drawn_counts, Counting};

    /// A sampled `decay` cell over `truth`.
    fn decay(truth: SizeDistribution) -> ShardSpec {
        ShardSpec::sampled(
            ProtocolSpec::new("decay").universe(truth.max_size()),
            truth,
            1000,
        )
    }

    fn bimodal(n: usize, weight: f64) -> SizeDistribution {
        SizeDistribution::bimodal(n, 8, n / 2, weight).unwrap()
    }

    /// The key `payload`'s spec section is cached under.
    fn key(payload: &str) -> String {
        let section = LineReader::new(payload).lines(SPEC_LINES).unwrap();
        crp_fleet::content_hash(section.as_bytes())
    }

    #[test]
    fn jobs_differing_only_in_plan_or_seed_share_one_entry() {
        let spec = decay(bimodal(256, 0.7));
        let mut blobs = BlobSet::new();
        let payloads: Vec<String> = [
            (ShardPlan::new(600), 1, 2),
            (ShardPlan::new(900), 1, 3),
            (ShardPlan::with_shard_size(600, 100), 1, 5),
            (ShardPlan::new(600), 2, 0),
        ]
        .into_iter()
        .map(|(plan, seed, shard)| spec.to_wire(plan, seed, shard, &mut blobs).payload)
        .collect();
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        let cache = SpecCache::new();
        let (first, ..) = cache.compile(&payloads[0], &resolve).unwrap();
        for payload in &payloads {
            let (cell, ..) = cache.compile(payload, &resolve).unwrap();
            assert!(Arc::ptr_eq(&first, &cell), "{payload}");
            // A hit answers exactly what a fresh cache answers.
            assert_eq!(
                run_shard_worker_with(payload, &resolve, &cache),
                run_shard_worker_with(payload, &resolve, &SpecCache::new())
            );
        }
        assert_eq!(cache.state().entries.len(), 1);
    }

    #[test]
    fn a_changed_spec_line_or_blob_misses() {
        let truth = bimodal(256, 0.7);
        let specs = [
            decay(truth.clone()),
            ShardSpec::sampled(
                ProtocolSpec::new("willard").universe(256),
                truth.clone(),
                1000,
            ),
            ShardSpec::sampled(
                ProtocolSpec::new("decay").universe(256).participants(8),
                truth,
                1000,
            ),
            ShardSpec::fixed(ProtocolSpec::new("decay").universe(256), 8, 1000),
            // The same lines but for the population blob's hash.
            decay(bimodal(256, 0.6)),
        ];
        let mut blobs = BlobSet::new();
        let payloads: Vec<String> = specs
            .iter()
            .map(|spec| spec.to_wire(ShardPlan::new(600), 1, 0, &mut blobs).payload)
            .collect();
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        let cache = SpecCache::new();
        let cells: Vec<Arc<CompiledCell>> = payloads
            .iter()
            .map(|payload| cache.compile(payload, &resolve).unwrap().0)
            .collect();
        for (index, cell) in cells.iter().enumerate() {
            for other in &cells[index + 1..] {
                assert!(!Arc::ptr_eq(cell, other));
            }
        }
        assert_eq!(cache.state().entries.len(), specs.len());
    }

    #[test]
    fn eviction_keeps_the_total_within_budget_least_recently_used_first() {
        // Three `decay` cells over 4096 sizes each, of one size.
        let plan = ShardPlan::new(10);
        let mut blobs = BlobSet::new();
        let payloads: Vec<String> = [0.5, 0.6, 0.7]
            .map(|weight| {
                decay(bimodal(4096, weight))
                    .to_wire(plan, 1, 0, &mut blobs)
                    .payload
            })
            .to_vec();
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        let size = SpecCache::new()
            .compile(&payloads[0], &resolve)
            .unwrap()
            .0
            .bytes();
        assert!(size > 4096 * 24, "{size}");
        // Room for two of them.
        let cache = SpecCache::with_budget(2 * size + size / 2);
        let run = |payload: &String| run_shard_worker_with(payload, &resolve, &cache).unwrap();
        run(&payloads[0]);
        let (held, ..) = cache.compile(&payloads[1], &resolve).unwrap();
        run(&payloads[1]);
        run(&payloads[0]);
        // The third evicts the second, the least recently used.
        run(&payloads[2]);
        let state = cache.state();
        assert!(state.bytes <= cache.budget);
        assert_eq!(
            state.bytes,
            state.entries.values().map(|slot| slot.bytes).sum::<usize>()
        );
        let cached = |index: usize| state.entries.contains_key(&key(&payloads[index]));
        assert_eq!([cached(0), cached(1), cached(2)], [true, false, true]);
        // An evicted cell a job still holds stays whole.
        assert!(held.run(plan, 1, 0).is_ok());
    }

    #[test]
    fn a_failed_compile_is_retried_not_cached() {
        let cache = SpecCache::new();
        let no_blobs = |_: &str| None;
        // Decodes, but fails validation: more participants than ids.
        let invalid = ShardSpec::fixed(ProtocolSpec::new("decay").universe(64), 65, 100);
        let invalid = invalid
            .to_wire(ShardPlan::new(10), 1, 0, &mut BlobSet::new())
            .payload;
        for _ in 0..2 {
            let error = run_shard_worker_with(&invalid, &no_blobs, &cache).unwrap_err();
            assert!(
                matches!(error, SimError::InvalidParameter { .. }),
                "{error}"
            );
            assert!(cache.state().entries.is_empty());
        }
        // A blob the worker does not hold yet: refused, then compiled once
        // it arrives.
        let mut blobs = BlobSet::new();
        let payload = decay(bimodal(256, 0.7))
            .to_wire(ShardPlan::new(10), 1, 0, &mut blobs)
            .payload;
        let error = run_shard_worker_with(&payload, &no_blobs, &cache).unwrap_err();
        assert!(error.to_string().contains("does not hold"), "{error}");
        assert!(cache.state().entries.is_empty());
        let resolve = |hash: &str| blobs.get(hash).map(str::to_string);
        assert!(run_shard_worker_with(&payload, &resolve, &cache).is_ok());
        assert_eq!(cache.state().entries.len(), 1);
    }

    #[test]
    fn a_compiled_cell_executes_each_count_once_across_jobs() {
        // The worker's path after the lookup, with a counting factory in
        // place of the registry protocol the spec names.
        let factory = Counting::default();
        let executions = Arc::clone(&factory.executions);
        let truth = SizeDistribution::uniform_sizes(40).unwrap();
        let cell = CompiledCell {
            spec: ShardSpec::sampled(
                ProtocolSpec::new("det-advice-no-cd").universe(40),
                truth.clone(),
                30,
            ),
            protocol: Box::new(factory),
            memo: OutcomeMemo::default(),
        };
        let mut distinct = std::collections::HashSet::new();
        for (seed, plan) in [(5, ShardPlan::new(1000)), (6, ShardPlan::new(700))] {
            for shard in 0..plan.num_shards() {
                cell.run(plan, seed, shard).unwrap();
            }
            distinct.extend(drawn_counts(&truth, plan, seed, 0..plan.num_shards()));
        }
        let executions = executions.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(executions, distinct.len());
        assert_eq!(cell.memo.len(), distinct.len());
    }
}
