//! Command-line entry point that regenerates every table and figure of the
//! paper's evaluation, plus a `list` subcommand that enumerates the
//! protocol registry and a `sweep` subcommand that runs an arbitrary
//! (registry protocol × scenario) grid.
//!
//! Usage:
//!
//! ```text
//! crp_experiments [command] [--trials T] [--size N] [--seed S]
//!                 [--backend serial|thread|fleet] [--threads T]
//!                 [--workers N] [--kernel auto|scalar]
//!                 [--fleet MANIFEST] [--chaos PLAN]
//!                 [--protocols a,b,..] [--scenarios x,y,..] [--csv]
//! ```
//!
//! where `command` is one of `list`, `table1`, `table2`, `entropy`, `kl`,
//! `baselines`, `range-finding`, `sweep`, `worker`, `serve`, `submit`,
//! `stats`, `trace-check`, `trace-join` or `all` (the default).  Experiment
//! output is markdown, suitable for pasting into `EXPERIMENTS.md`;
//! `sweep --csv` emits CSV instead.
//!
//! `--trace-out PATH` (or `CRP_TRACE`) streams structured JSONL trace
//! events — `sweep.cell`, `shard.execute`, `kernel.select`,
//! `fleet.dispatch`, `fleet.requeue`, `fleet.ping`,
//! `cache.hit`/`miss`/`heal`, `serve.submission`, `serve.cell`,
//! `serve.submit` — to a file; tracing never changes
//! statistics, only wall-clock time.  Traced jobs carry deterministic,
//! content-hash-derived span ids across process boundaries, and
//! dispatcher-spawned local workers write to derived
//! `<path>.worker-<n>` sibling files instead of interleaving with the
//! dispatcher's own trace.
//! `trace-check FILE` validates such a file line by line (schema, span
//! id shape, parent-before-child order) and prints per-event counts;
//! `trace-join A.jsonl B.jsonl ..` merges the files of a multi-process
//! run (worker siblings included automatically) into one causally
//! ordered timeline on stdout; `stats --connect host:port` dumps the
//! live report of a running `serve` daemon — cache summary, per-tenant
//! submission counters, workspace metrics, per-worker fleet health,
//! and the fleet-wide metrics rollup pulled from every worker —
//! and `stats --watch SECS` keeps polling, printing per-second rates
//! from counter deltas.  `submit --tenant NAME` accounts a submission
//! to `serve.tenant.<name>.*` counters on the daemon.
//!
//! A `--scenarios` entry ending in `.trace` is loaded as a fuzz-trace
//! wire file (see the `crp-fuzz` crate, whose `crp_fuzz` binary runs
//! fuzz campaigns), compiled, and registered into
//! the scenario library under the file stem — so shrunk reproducers from
//! `fuzz/corpus/` can ride in any sweep next to the built-in scenarios.
//!
//! `--chaos PLAN` (e.g. `0:die@2,1:wedge@5`) applies a declarative
//! fault schedule to the local workers of a fleet run; the dispatcher's
//! re-dispatch keeps completed chaos runs bit-identical to the serial
//! backend.  Like `--fleet`, the flag implies `--backend fleet`.
//!
//! `--backend` selects the shard backend every experiment executes on
//! (statistics are bit-identical across backends); `--threads` / its
//! alias `--workers` pins the worker count.  `--backend fleet`
//! dispatches to the pool the `--fleet` manifest describes —
//! comma-separated `local[:N]` and `host:port` entries — and `--fleet`
//! by itself implies `--backend fleet`.
//!
//! `--kernel` selects the trial-kernel path (`auto`, the default, uses
//! the batched struct-of-arrays kernels where the protocol admits one;
//! `scalar` forces the trial-at-a-time executor).  Like the backend
//! choice, the kernel choice only affects wall-clock time: statistics
//! are bit-identical either way.
//!
//! Every subcommand except `trace-check` and `trace-join` reads
//! the environment once at entry (`crp_sim::EnvConfig`): `CRP_THREADS`,
//! `CRP_KERNEL`, `CRP_FLEET` and `CRP_TRACE` stand in for `--threads`,
//! `--kernel`, `--fleet` (the pool of a fleet run) and `--trace-out`,
//! and a flag wins over its variable.  An unusable value or an unknown
//! `CRP_*` name fails the run with one error naming the variable.
//!
//! The `worker` subcommand runs the long-lived fleet worker: it answers a
//! framed stream of shard specs — many shards per process — over stdio
//! (the default, used by the dispatcher-spawned local pools) or over TCP
//! with `worker --listen host:port` (start one per remote machine and
//! list the addresses in the manifest).  `worker --capacity N` lets the
//! dispatcher keep N jobs in flight on one connection, executed
//! concurrently; repeatable `worker --fault FAULT@JOBS` arguments
//! (e.g. `--fault die@2`) sabotage it on purpose, which is how chaos
//! plans reach a spawned worker.
//!
//! The `serve` subcommand runs the persistent sweep service: a daemon
//! that keeps a warm worker fleet between CLI invocations and memoises
//! every merged sweep cell in a content-addressed result cache
//! (`--cache DIR`).  `submit` sends the
//! same grid a `sweep` invocation would run to a daemon
//! (`--connect host:port`) and prints the identical table or CSV;
//! repeated or overlapping submissions settle from the cache,
//! bit-identically and near-instantly.

use std::process::ExitCode;

use crp_channel::ChannelMode;
use crp_fleet::{ChaosPlan, FleetManifest, ScenarioStore, ServeOptions, TcpWorker};
use crp_predict::{ScenarioLibrary, Trace};
use crp_protocols::REGISTRY;
use crp_serve::{ResultCache, ServeClient, SweepServer};
use crp_sim::experiments::{
    baselines, entropy_sweep, kl_degradation, range_finding, table1, table2,
};
use crp_sim::service::{submit_matrix_as, sweep_hooks};
use crp_sim::{
    run_shard_worker_with, EnvConfig, RunnerConfig, RunnerFlags, SimError, SweepMatrix,
    SweepProtocol, Table,
};

/// Parsed command-line options.
struct Options {
    command: String,
    trials: usize,
    size: usize,
    seed: u64,
    /// `--backend`, `--threads`, `--kernel`, `--fleet`, `--chaos` and
    /// `--accept-workers`, resolved against the environment in `run`.
    runner: RunnerFlags,
    protocols: Vec<String>,
    scenarios: Vec<String>,
    csv: bool,
    /// `serve --listen` address.
    listen: String,
    /// `submit --connect` address.
    connect: String,
    /// `serve --cache` directory (`None` disables the result cache).
    cache: Option<String>,
    /// `--trace-out` structured-trace JSONL destination (`None` defers
    /// to `CRP_TRACE`).
    trace_out: Option<String>,
    /// `--tenant` name `submit`/`stats` connections identify as (the
    /// daemon accounts submissions to `serve.tenant.<id>.*` counters).
    tenant: Option<String>,
    /// `stats --watch` polling interval in seconds (`None` prints one
    /// report and exits).
    watch: Option<u64>,
}

/// The default loopback address `serve` listens on and `submit` dials.
const DEFAULT_SERVICE_ADDR: &str = "127.0.0.1:9317";

const USAGE: &str = "usage: crp_experiments \
[list|table1|table2|entropy|kl|baselines|range-finding|sweep|worker|serve|submit|stats|\
trace-check FILE|trace-join FILE..|all] \
[--trials T] [--size N] [--seed S] [--backend serial|thread|fleet] \
[--threads T] [--workers N] [--kernel auto|scalar] \
[--fleet local[:N],host:port,..] \
[--chaos W:FAULT@N,..] [--protocols a,b,..] [--scenarios x,y,..|file.trace,..] [--csv] \
[--listen host:port] [--connect host:port] [--cache DIR] [--accept-workers host:port] \
[--trace-out PATH] [--tenant NAME] [--watch SECS]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        command: "all".to_string(),
        trials: 2000,
        size: 1 << 14,
        seed: 0xC0FFEE,
        runner: RunnerFlags::default(),
        protocols: vec![
            "decay".into(),
            "willard".into(),
            "sorted-guess-cycling".into(),
        ],
        scenarios: vec![
            "bimodal".into(),
            "bursty".into(),
            "adversarial-drift".into(),
        ],
        csv: false,
        listen: DEFAULT_SERVICE_ADDR.to_string(),
        connect: DEFAULT_SERVICE_ADDR.to_string(),
        cache: None,
        trace_out: None,
        tenant: None,
        watch: None,
    };
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--trials" => {
                index += 1;
                options.trials = args
                    .get(index)
                    .ok_or("--trials requires a value")?
                    .parse()
                    .map_err(|e| format!("invalid --trials value: {e}"))?;
            }
            "--size" => {
                index += 1;
                options.size = args
                    .get(index)
                    .ok_or("--size requires a value")?
                    .parse()
                    .map_err(|e| format!("invalid --size value: {e}"))?;
            }
            "--seed" => {
                index += 1;
                options.seed = args
                    .get(index)
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|e| format!("invalid --seed value: {e}"))?;
            }
            "--backend" => {
                index += 1;
                options.runner.backend = Some(
                    args.get(index)
                        .ok_or("--backend requires one of: serial, thread, fleet")?
                        .parse()?,
                );
            }
            flag @ ("--threads" | "--workers") => {
                index += 1;
                let threads: usize = args
                    .get(index)
                    .ok_or_else(|| format!("{flag} requires a value"))?
                    .parse()
                    .map_err(|e| format!("invalid {flag} value: {e}"))?;
                if threads == 0 {
                    return Err(format!("{flag} requires a positive value"));
                }
                options.runner.threads = Some(threads);
            }
            "--kernel" => {
                index += 1;
                options.runner.kernel = Some(
                    args.get(index)
                        .ok_or("--kernel requires one of: auto, scalar")?
                        .parse()?,
                );
            }
            "--fleet" => {
                index += 1;
                let manifest = args
                    .get(index)
                    .ok_or("--fleet requires a manifest (e.g. local:4,host:9311)")?;
                options.runner.fleet =
                    Some(FleetManifest::parse(manifest).map_err(|e| e.to_string())?);
            }
            "--chaos" => {
                index += 1;
                let plan = args
                    .get(index)
                    .ok_or("--chaos requires a plan (e.g. 0:die@2,1:wedge@5)")?;
                options.runner.chaos = Some(ChaosPlan::parse(plan).map_err(|e| e.to_string())?);
            }
            "--listen" => {
                index += 1;
                options.listen = args
                    .get(index)
                    .ok_or("--listen requires a host:port")?
                    .clone();
            }
            "--connect" => {
                index += 1;
                options.connect = args
                    .get(index)
                    .ok_or("--connect requires a host:port")?
                    .clone();
            }
            "--cache" => {
                index += 1;
                options.cache = Some(
                    args.get(index)
                        .ok_or("--cache requires a directory")?
                        .clone(),
                );
            }
            "--accept-workers" => {
                index += 1;
                options.runner.accept_workers = Some(
                    args.get(index)
                        .ok_or("--accept-workers requires a host:port")?
                        .clone(),
                );
            }
            "--trace-out" => {
                index += 1;
                options.trace_out = Some(
                    args.get(index)
                        .ok_or("--trace-out requires a file path")?
                        .clone(),
                );
            }
            "--tenant" => {
                index += 1;
                options.tenant = Some(
                    args.get(index)
                        .ok_or("--tenant requires a tenant name")?
                        .clone(),
                );
            }
            "--watch" => {
                index += 1;
                let secs: u64 = args
                    .get(index)
                    .ok_or("--watch requires a polling interval in seconds")?
                    .parse()
                    .map_err(|e| format!("invalid --watch value: {e}"))?;
                if secs == 0 {
                    return Err("--watch requires a positive interval".to_string());
                }
                options.watch = Some(secs);
            }
            "--protocols" => {
                index += 1;
                options.protocols = args
                    .get(index)
                    .ok_or("--protocols requires a comma-separated list")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.to_string())
                    .collect();
            }
            "--scenarios" => {
                index += 1;
                options.scenarios = args
                    .get(index)
                    .ok_or("--scenarios requires a comma-separated list")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.to_string())
                    .collect();
            }
            "--csv" => {
                options.csv = true;
            }
            "--help" | "-h" => {
                return Err(USAGE.to_string());
            }
            other if !other.starts_with("--") => {
                const KNOWN: [&str; 12] = [
                    "list",
                    "table1",
                    "table2",
                    "entropy",
                    "kl",
                    "baselines",
                    "range-finding",
                    "sweep",
                    "serve",
                    "submit",
                    "stats",
                    "all",
                ];
                if !KNOWN.contains(&other) {
                    return Err(format!(
                        "unknown command {other:?}; expected one of: {}",
                        KNOWN.join(", ")
                    ));
                }
                options.command = other.to_string();
            }
            other => return Err(format!("unknown flag {other}")),
        }
        index += 1;
    }
    Ok(options)
}

/// Renders the protocol registry as a markdown table.
fn registry_table() -> Table {
    let mut table = Table::new(
        format!("Registered protocols ({})", REGISTRY.len()),
        &["name", "channel", "summary"],
    );
    for entry in REGISTRY {
        let channel = match entry.mode {
            ChannelMode::NoCollisionDetection => "no-CD",
            ChannelMode::CollisionDetection => "CD",
        };
        table.push_row(vec![
            entry.name.to_string(),
            channel.to_string(),
            entry.summary.to_string(),
        ]);
    }
    table
}

/// The library name of a `--scenarios` trace-file entry: the file stem.
/// `None` for ordinary scenario names.
fn trace_stem(name: &str) -> Option<&str> {
    name.strip_suffix(".trace")
        .map(|stem| stem.rsplit(['/', '\\']).next().unwrap_or(stem))
}

/// Loads a fuzz-trace wire file and compiles it into a scenario named
/// after the file stem.
fn load_trace_scenario(path: &str) -> Result<crp_predict::Scenario, SimError> {
    let text = std::fs::read_to_string(path).map_err(|err| SimError::InvalidParameter {
        what: format!("cannot read trace file {path}: {err}"),
    })?;
    let trace = Trace::from_wire(&text)?;
    let stem = trace_stem(path).expect("only .trace entries reach the loader");
    Ok(trace.compile(stem)?)
}

/// The (registry protocol × scenario) grid the command line declares —
/// shared by `sweep` (local execution) and `submit` (service execution),
/// so both produce identical cells, seeds, and therefore statistics.
fn cli_matrix(options: &Options, config: &RunnerConfig) -> Result<SweepMatrix, SimError> {
    let mut library = ScenarioLibrary::new(options.size)?;
    // Trace-file entries (shrunk fuzz reproducers) are compiled and
    // registered first, so they are addressable by stem like any
    // built-in — including from *other* entries of the same run.
    for name in &options.scenarios {
        if name.ends_with(".trace") {
            library.register(load_trace_scenario(name)?)?;
        }
    }
    let mut matrix = SweepMatrix::new().runner(config.clone());
    for name in &options.scenarios {
        let name = trace_stem(name).unwrap_or(name);
        matrix = matrix.scenario(library.by_name(name)?);
    }
    for name in &options.protocols {
        matrix = matrix.protocol(SweepProtocol::registry(name)?);
    }
    Ok(matrix)
}

/// Prints sweep results the way the command line asked for them.
fn print_results(options: &Options, results: &crp_sim::SweepResults) {
    if options.csv {
        print!("{}", results.to_csv());
    } else {
        println!(
            "{}",
            results.to_markdown(format!(
                "Sweep (n = {}, trials = {})",
                options.size, options.trials
            ))
        );
    }
}

/// Runs an arbitrary (registry protocol × scenario) grid declared from the
/// command line.
fn run_sweep(options: &Options, config: &RunnerConfig) -> Result<(), SimError> {
    let results = cli_matrix(options, config)?.run()?;
    print_results(options, &results);
    Ok(())
}

fn backend_error(what: impl std::fmt::Display) -> SimError {
    SimError::Backend {
        what: what.to_string(),
    }
}

/// The worker pool a `serve` daemon owns, resolved like any fleet run:
/// `--fleet`, then `CRP_FLEET`, then `--threads` local workers.
fn fleet_endpoints(config: &RunnerConfig) -> Result<Vec<crp_fleet::WorkerEndpoint>, SimError> {
    let backend = match &config.fleet {
        Some(manifest) => crp_sim::FleetBackend::from_manifest(manifest)?,
        None => crp_sim::FleetBackend::local(config.threads)?,
    };
    Ok(backend.endpoints().to_vec())
}

/// The persistent sweep service: a warm fleet plus the content-addressed
/// result cache, serving framed submissions until shut down.
fn serve_mode(options: &Options, config: &RunnerConfig) -> Result<(), SimError> {
    let endpoints = fleet_endpoints(config)?;
    let cache = match &options.cache {
        Some(dir) => Some(ResultCache::open(dir).map_err(backend_error)?),
        None => None,
    };
    let server =
        SweepServer::bind(options.listen.as_str(), endpoints, cache).map_err(backend_error)?;
    if let Some(addr) = &config.accept_workers {
        let bound = server.listen_for_workers(addr).map_err(backend_error)?;
        eprintln!("sweep service accepting elastic workers on {bound}");
    }
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "sweep service listening on {addr} ({} workers, cache: {})",
            server.dispatcher().endpoints().len(),
            options.cache.as_deref().unwrap_or("disabled"),
        ),
        Err(err) => eprintln!("sweep service listening (address unknown: {err})"),
    }
    server.serve(sweep_hooks()).map_err(backend_error)
}

/// Submits the `sweep`-equivalent grid to a running daemon and prints
/// the identical table or CSV, plus cache statistics on stderr.
fn submit_mode(options: &Options, config: &RunnerConfig) -> Result<(), SimError> {
    let matrix = cli_matrix(options, config)?;
    let (results, outcome) = submit_matrix_as(
        &options.connect,
        options.tenant.as_deref(),
        &matrix,
        |_, _, _| {},
    )?;
    print_results(options, &results);
    // The outcome feeds the local crp-obs counters and the summary line
    // is rendered from them through the same formatter the daemon's
    // `stats` report uses, so the two can never disagree.
    let registry = crp_obs::global();
    crp_serve::record_submission(
        registry,
        outcome.jobs_total as u64,
        outcome.job_hits as u64,
        outcome.computed as u64,
    );
    eprintln!(
        "submit: {}",
        crp_serve::cache_summary_from(&registry.snapshot())
    );
    Ok(())
}

/// Dumps the live observability report of a running `serve` daemon:
/// the shared cache summary, the per-tenant submission summary, every
/// workspace counter and histogram, the per-worker fleet health lines,
/// and the fleet-wide metrics pull (merged rollup plus per-worker
/// snapshots).  With `--watch SECS` it keeps polling, printing one
/// deterministic rates line per interval from the counter deltas.
fn stats_mode(options: &Options) -> Result<(), SimError> {
    let mut client = match &options.tenant {
        Some(tenant) => ServeClient::connect_as(options.connect.as_str(), tenant),
        None => ServeClient::connect(options.connect.as_str()),
    }
    .map_err(backend_error)?;
    let report = client.stats().map_err(backend_error)?;
    print!("{report}");
    let Some(secs) = options.watch else {
        return Ok(());
    };
    let mut previous = crp_serve::counters_from_report(&report);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(secs));
        let report = client.stats().map_err(backend_error)?;
        let next = crp_serve::counters_from_report(&report);
        println!("{}", crp_serve::rates_line(&previous, &next, secs));
        previous = next;
    }
}

/// Installs the structured-trace sink a process asked for: the
/// `--trace-out` flag when given, otherwise `CRP_TRACE`.  A path that
/// cannot be opened is a typed configuration error naming its source.
fn init_tracing(flag: Option<&str>, env: &EnvConfig) -> Result<(), SimError> {
    let (var, path) = match (flag, &env.trace) {
        (Some(path), _) => ("--trace-out", path),
        (None, Some(path)) => ("CRP_TRACE", path.as_str()),
        (None, None) => return Ok(()),
    };
    crp_obs::init_trace(path).map_err(|err| SimError::Config {
        var: var.to_string(),
        value: path.to_string(),
        what: err.to_string(),
    })
}

fn run(options: &Options, env: &EnvConfig) -> Result<(), SimError> {
    let config = RunnerConfig {
        trials: options.trials,
        ..options.runner.clone().resolve(env)?
    }
    .seeded(options.seed);
    init_tracing(options.trace_out.as_deref(), env)?;
    let wants = |name: &str| options.command == "all" || options.command == name;

    if options.command == "list" {
        println!("{}", registry_table().to_markdown());
        return Ok(());
    }
    if options.command == "sweep" {
        return run_sweep(options, &config);
    }
    if options.command == "serve" {
        return serve_mode(options, &config);
    }
    if options.command == "submit" {
        return submit_mode(options, &config);
    }
    if options.command == "stats" {
        return stats_mode(options);
    }
    if wants("table1") {
        println!(
            "{}",
            table1::run(options.size, &config)?.to_table().to_markdown()
        );
    }
    if wants("table2") {
        let universe = options.size.next_power_of_two().max(16);
        let participants = (universe / 16).max(2);
        println!(
            "{}",
            table2::run(universe, participants, &config)?
                .to_table()
                .to_markdown()
        );
    }
    if wants("entropy") {
        println!(
            "{}",
            entropy_sweep::run(options.size, 8, &config)?
                .to_table()
                .to_markdown()
        );
    }
    if wants("kl") {
        println!(
            "{}",
            kl_degradation::run(options.size, &config)?
                .to_table()
                .to_markdown()
        );
    }
    if wants("baselines") {
        let sizes = [options.size / 4, options.size, options.size * 4];
        println!(
            "{}",
            baselines::run(&sizes, &config)?.to_table().to_markdown()
        );
    }
    if wants("range-finding") {
        println!(
            "{}",
            range_finding::run(options.size)?.to_table().to_markdown()
        );
    }
    Ok(())
}

/// The long-lived fleet worker: answers a framed stream of shard specs
/// over stdio (default), a TCP listener (`--listen host:port`), or by
/// dialling a dispatcher's registration listener (`--join host:port`,
/// the elastic-membership direction), executing many shards per
/// process on the `CRP_KERNEL` path and tracing to `CRP_TRACE`.
/// Repeatable `--fault FAULT@JOBS` arguments inject the faults the
/// failure tests, chaos plans and smoke jobs need.
fn worker_mode(args: &[String], env: &EnvConfig) -> ExitCode {
    let mut listen: Option<String> = None;
    let mut join: Option<String> = None;
    let mut options = ServeOptions::default();
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--listen" => {
                index += 1;
                match args.get(index) {
                    Some(addr) => listen = Some(addr.clone()),
                    None => {
                        eprintln!("worker: --listen requires a host:port");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--join" => {
                index += 1;
                match args.get(index) {
                    Some(addr) => join = Some(addr.clone()),
                    None => {
                        eprintln!("worker: --join requires a dispatcher host:port");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--stdio" => listen = None,
            "--capacity" => {
                index += 1;
                match args.get(index).and_then(|value| value.parse().ok()) {
                    Some(value) if value >= 1 => options.capacity = value,
                    _ => {
                        eprintln!("worker: --capacity requires a positive job count");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--fault" => {
                index += 1;
                let scheduled = match args.get(index) {
                    Some(fault) => options.schedule_fault(fault).map_err(|e| e.to_string()),
                    None => Err("--fault requires FAULT@JOBS (e.g. die@2)".to_string()),
                };
                if let Err(err) = scheduled {
                    eprintln!("worker: {err}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!(
                    "worker: unknown flag {other}; usage: worker \
                     [--stdio | --listen host:port | --join host:port] [--capacity N] \
                     [--fault FAULT@JOBS].."
                );
                return ExitCode::FAILURE;
            }
        }
        index += 1;
    }
    if join.is_some() && listen.is_some() {
        eprintln!("worker: --join and --listen are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if let Err(err) = init_tracing(None, env) {
        eprintln!("worker: {err}");
        return ExitCode::FAILURE;
    }
    // One process-wide scenario store: `scenario-put` frames fill it,
    // and the handler resolves the `ref <hash>` spec sections out of
    // it — a scenario's masses arrive once per worker, not once per
    // shard.
    let store = ScenarioStore::new();
    let kernel = env.kernel.unwrap_or_default();
    let handler = |payload: &str| {
        run_shard_worker_with(payload, &|hash| store.get(hash), kernel).map_err(|e| e.to_string())
    };
    if let Some(addr) = join {
        // Elastic membership: dial the dispatcher and serve over the
        // dialled connection.  The initial connect is retried — an
        // elastic worker is typically started before (or independently
        // of) the run that will consume it.
        let mut attempts = 0;
        loop {
            match crp_fleet::join_fleet(addr.as_str(), &handler, &options, &store) {
                Ok(served) => {
                    eprintln!("fleet worker: dispatcher {addr} disconnected after {served} jobs");
                    return ExitCode::SUCCESS;
                }
                Err(crp_fleet::FleetError::Connect { .. }) if attempts < 50 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                Err(err) => {
                    eprintln!("worker: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    match listen {
        Some(addr) => {
            let worker = match TcpWorker::bind(addr.as_str()) {
                Ok(worker) => worker,
                Err(err) => {
                    eprintln!("worker: {err}");
                    return ExitCode::FAILURE;
                }
            };
            match worker.local_addr() {
                Ok(addr) => eprintln!("fleet worker listening on {addr}"),
                Err(err) => eprintln!("fleet worker listening (address unknown: {err})"),
            }
            worker.serve_forever(&handler, &options, &store)
        }
        None => match crp_fleet::serve_stdio(&handler, &options, &store) {
            Ok(_) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("worker: {err}");
                ExitCode::FAILURE
            }
        },
    }
}

/// The unquoted `span` / `parent` values of a schema-valid trace line
/// (`check_trace_line` has already vetted their hex shape).
fn span_fields(line: &str) -> (Option<String>, Option<String>) {
    let mut span = None;
    let mut parent = None;
    if let Ok(fields) = crp_obs::trace_line_fields(line) {
        for (name, value) in fields {
            let unquoted = value.trim_matches('"').to_string();
            match name.as_str() {
                "span" => span = Some(unquoted),
                "parent" => parent = Some(unquoted),
                _ => {}
            }
        }
    }
    (span, parent)
}

/// The `trace-check` subcommand: validates every line of a structured
/// trace JSONL file against the schema (`ts_us` first, then `event`,
/// flat string/unsigned members, canonically shaped `span`/`parent`
/// ids) and prints per-event counts — the CI smoke job greps these for
/// the events a fleet sweep must have produced.  Span parentage is
/// checked for causal order: a `parent` whose span is defined in the
/// same file must appear *after* that span's first event (parents
/// defined in other processes' files are fine — `trace-join` resolves
/// those).
fn trace_check_mode(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("trace-check: requires a trace JSONL file");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace-check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Pass 1: every span id the file defines (appears as a `span`
    // field), so pass 2 can tell a local ordering violation from a
    // parent that lives in another process's file.
    let mut defined: std::collections::HashSet<String> = std::collections::HashSet::new();
    for line in text.lines().filter(|line| !line.is_empty()) {
        if let (Some(span), _) = span_fields(line) {
            defined.insert(span);
        }
    }
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut spans = 0u64;
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        match crp_obs::check_trace_line(line) {
            Ok(event) => *counts.entry(event).or_insert(0) += 1,
            Err(err) => {
                eprintln!("trace-check: {path}:{}: {err}", number + 1);
                return ExitCode::FAILURE;
            }
        }
        let (span, parent) = span_fields(line);
        if let Some(parent) = parent {
            if defined.contains(&parent) && !seen.contains(&parent) {
                eprintln!(
                    "trace-check: {path}:{}: parent span {parent} is defined in this file but \
                     only after this event — parents must precede children",
                    number + 1
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(span) = span {
            spans += 1;
            seen.insert(span);
        }
    }
    let total: u64 = counts.values().sum();
    println!(
        "trace-check: {total} events across {} kinds ({spans} span-stamped)",
        counts.len()
    );
    for (event, count) in &counts {
        println!("  {count} {event}");
    }
    ExitCode::SUCCESS
}

/// The `.worker-<n>` sibling trace files next to `path` — the derived
/// per-worker destinations [`crp_obs::derive_worker_trace_path`] routes
/// dispatcher-spawned local workers to — sorted by worker number.
fn worker_siblings(path: &str) -> Vec<String> {
    let base = std::path::Path::new(path);
    let Some(name) = base.file_name().and_then(|name| name.to_str()) else {
        return Vec::new();
    };
    let dir = match base.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let prefix = format!("{name}.worker-");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut found: Vec<(usize, String)> = Vec::new();
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        if let Some(n) = file_name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.parse::<usize>().ok())
        {
            found.push((n, dir.join(file_name).to_string_lossy().into_owned()));
        }
    }
    found.sort();
    found.into_iter().map(|(_, path)| path).collect()
}

/// The `trace-join` subcommand: merges the trace JSONL files of a
/// multi-process run (dispatcher plus workers; `.worker-<n>` siblings
/// are picked up automatically) into one causally ordered timeline on
/// stdout.  Ordering is by span parentage only — an event whose parent
/// span is defined in any input file is emitted after that span's first
/// event; wall clocks from different hosts are never compared.  Lines
/// are emitted verbatim, so the output is itself `trace-check`-clean,
/// and the merge is deterministic: among emittable events, file order
/// (then line order) decides.
fn trace_join_mode(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("trace-join: requires one or more trace JSONL files");
        return ExitCode::FAILURE;
    }
    let mut paths: Vec<String> = Vec::new();
    for arg in args {
        for path in std::iter::once(arg.clone()).chain(worker_siblings(arg)) {
            if !paths.contains(&path) {
                paths.push(path);
            }
        }
    }
    // Load and validate every line up front: a malformed input must
    // fail the join, not poison the merged timeline.  Each loaded line
    // keeps its span and parent ids alongside the verbatim text.
    type JoinLine = (String, Option<String>, Option<String>);
    let mut files: Vec<Vec<JoinLine>> = Vec::new();
    let mut defined: std::collections::HashSet<String> = std::collections::HashSet::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("trace-join: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let mut lines = Vec::new();
        for (number, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            if let Err(err) = crp_obs::check_trace_line(line) {
                eprintln!("trace-join: {path}:{}: {err}", number + 1);
                return ExitCode::FAILURE;
            }
            let (span, parent) = span_fields(line);
            if let Some(span) = &span {
                defined.insert(span.clone());
            }
            lines.push((line.to_string(), span, parent));
        }
        files.push(lines);
    }
    // Deterministic topological merge: repeatedly emit the head line of
    // the lowest-indexed file whose parent constraint is satisfied (no
    // parent, a parent no input defines, or an already-emitted parent).
    let total: usize = files.iter().map(Vec::len).sum();
    let mut heads = vec![0usize; files.len()];
    let mut emitted_spans: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut emitted = 0usize;
    while emitted < total {
        let next = files.iter().enumerate().position(|(index, file)| {
            file.get(heads[index])
                .is_some_and(|(_, _, parent)| match parent {
                    Some(parent) => !defined.contains(parent) || emitted_spans.contains(parent),
                    None => true,
                })
        });
        let Some(index) = next else {
            eprintln!(
                "trace-join: unresolvable span parentage — a parent span is defined only by \
                 events that (transitively) wait on it"
            );
            return ExitCode::FAILURE;
        };
        let (line, span, _) = &files[index][heads[index]];
        println!("{line}");
        if let Some(span) = span {
            emitted_spans.insert(span.clone());
        }
        heads[index] += 1;
        emitted += 1;
    }
    eprintln!(
        "trace-join: merged {emitted} events from {} files",
        files.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace-check") => return trace_check_mode(&args[1..]),
        Some("trace-join") => return trace_join_mode(&args[1..]),
        _ => {}
    }
    let env = match EnvConfig::from_env() {
        Ok(env) => env,
        Err(err) => {
            eprintln!("crp_experiments: {err}");
            return ExitCode::FAILURE;
        }
    };
    if args.first().map(String::as_str) == Some("worker") {
        return worker_mode(&args[1..], &env);
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options, &env) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("experiment failed: {err}");
            ExitCode::FAILURE
        }
    }
}
