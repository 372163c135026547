//! The end-to-end sweep-service benchmark.
//!
//! It drives the same public calls the CLI `serve`/`submit` pair makes:
//! a [`SweepServer`] running `sweep_hooks()` over two `crp_experiments
//! worker --stdio` subprocesses with a [`ResultCache`], and
//! [`submit_matrix`] as the client.  The load comes from two threads of
//! this process:
//!
//! * a closed-loop **submitter**, one submission at a time;
//! * an open-loop **operator** sending `stats` requests on a fixed
//!   schedule, reconnecting for each one and timing each request from
//!   when it was due.
//!
//! ```text
//! crp-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--scratch <dir>] [--spans-out <file>]
//! ```
//!
//! The worker binary comes from `CRP_SHARD_WORKER_BIN`, which must name
//! an existing `crp_experiments` executable.  Progress goes to stderr;
//! the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::LazyLock;
use std::time::{Duration, Instant};

use crp_e2e_bench::obs_delta::{counter_delta, histogram_delta, rollup_histogram};
use crp_e2e_bench::procfs::children_peak_rss_kib;
use crp_e2e_bench::spans::{layer_times, to_jsonl, SpanId, SpanLog};
use crp_e2e_bench::summary::{mean, median, nearest_rank, tail, TAIL_LADDER, TAIL_MIN_BEYOND};
use crp_predict::{Scenario, ScenarioLibrary};
use crp_protocols::ProtocolSpec;
use crp_serve::{ResultCache, ServeClient, SubmissionHooks, SubmissionOutcome, SweepServer};
use crp_sim::service::{compile_submission, results_from_outcome, submit_matrix, sweep_hooks};
use crp_sim::{
    FleetBackend, RunnerConfig, SerialBackend, SimError, SweepMatrix, SweepProtocol, SweepResults,
};

/// Local worker subprocesses behind the daemon (`--fleet local:2`).
const WORKERS: usize = 2;
/// Monte-Carlo trials per grid cell: 12 shards of 256 trials, so a
/// two-cell submission carries 24 jobs.
const TRIALS_PER_CELL: usize = 3_072;
/// Set-ups timed per run, half before the measured window and half
/// after it; `setup_s` is their median.
const SETUPS: usize = 6;
/// Distinct seeds `warm-n16k` cycles through (all cached during set-up).
const WARM_SEEDS: u64 = 2;
/// Operator schedule and the deadlines past which a request counts as
/// failed.
const STATS_INTERVAL: Duration = Duration::from_millis(50);
const STATS_DEADLINE: Duration = Duration::from_secs(5);
const SUBMIT_DEADLINE: Duration = Duration::from_secs(60);
/// Serial reference runs computed side by side after the window.
const REFERENCE_THREADS: usize = 2;
/// A run that has not finished by then exits with an error instead of
/// hanging.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Seed streams, so set-up, warm-up and measured submissions never share
/// a seed (and therefore never share a cache entry).
const STREAM_SETUP: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_MEASURE: u64 = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdN16k,
    ColdKernel,
    WarmN16k,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::ColdN16k, Self::ColdKernel, Self::WarmN16k];

    fn name(self) -> &'static str {
        match self {
            Self::ColdN16k => "cold-n16k",
            Self::ColdKernel => "cold-kernel",
            Self::WarmN16k => "warm-n16k",
        }
    }

    fn protocol(self) -> &'static str {
        match self {
            Self::ColdN16k | Self::WarmN16k => "decay",
            Self::ColdKernel => "det-advice-no-cd",
        }
    }

    fn scenarios(self) -> [&'static str; 2] {
        match self {
            Self::ColdN16k | Self::WarmN16k => ["bimodal", "bursty"],
            Self::ColdKernel => ["adversarial-drift", "bimodal"],
        }
    }

    fn universe(self) -> usize {
        match self {
            Self::ColdN16k | Self::WarmN16k => 1 << 14,
            Self::ColdKernel => 1 << 12,
        }
    }

    /// Cold workloads use a fresh seed per submission, so every job
    /// misses the cache; the warm one resubmits cached grids.
    fn cold(self) -> bool {
        self != Self::WarmN16k
    }

    /// The seed of measured submission `index`.
    fn submission_seed(self, seed: u64, index: u64) -> u64 {
        if self.cold() {
            derive_seed(seed, STREAM_MEASURE, index)
        } else {
            derive_seed(seed, STREAM_WARMUP, index % WARM_SEEDS)
        }
    }
}

/// SplitMix64 over `(seed, stream, index)`.
fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sweep column the CLI builds for a registry protocol (`sweep` and
/// `submit --protocols <name>`): universe, accurate advice and a default
/// population estimate from each scenario, and a `64·n` round budget for
/// protocols without a horizon of their own.
fn cli_column(name: &'static str) -> SweepProtocol {
    let spec_for = move |s: &Scenario| {
        let n = s.distribution().max_size();
        ProtocolSpec::new(name)
            .universe(n)
            .prediction(s.advice_condensed())
            .participants((n / 16).max(2))
            .advice_bits(2)
    };
    let has_horizon = ScenarioLibrary::new(64)
        .ok()
        .and_then(|library| spec_for(&library.bimodal()).build().ok())
        .and_then(|protocol| protocol.horizon())
        .is_some();
    SweepProtocol::from_scenario(name, spec_for)
        .max_rounds_with(move |s| (!has_horizon).then(|| 64 * s.distribution().max_size()))
}

/// A workload's grid, built once per run; each submission only changes
/// the seed.
struct Grid {
    workload: Workload,
    scenarios: Vec<Scenario>,
}

impl Grid {
    fn new(workload: Workload) -> Result<Self, String> {
        let library = ScenarioLibrary::new(workload.universe()).map_err(|e| e.to_string())?;
        let scenarios = workload
            .scenarios()
            .iter()
            .map(|name| library.by_name(name).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workload,
            scenarios,
        })
    }

    fn matrix(&self, seed: u64) -> SweepMatrix {
        SweepMatrix::new()
            .scenarios(self.scenarios.iter().cloned())
            .protocol(cli_column(self.workload.protocol()))
            .runner(RunnerConfig::with_trials(TRIALS_PER_CELL).seeded(seed))
    }

    fn trials_per_submission(&self) -> usize {
        TRIALS_PER_CELL * self.scenarios.len()
    }
}

// ---------------------------------------------------------------------
// Tracing: spans around the client calls and around the daemon's hooks.

static SPANS: LazyLock<SpanLog> = LazyLock::new(SpanLog::new);

/// The `client.submit` span currently waiting on the daemon, which
/// parents the daemon-side hook spans (`NO_SPAN` when none).
static RPC_SPAN: AtomicUsize = AtomicUsize::new(NO_SPAN);
const NO_SPAN: usize = usize::MAX;

fn rpc_parent() -> Option<SpanId> {
    Some(RPC_SPAN.load(Ordering::SeqCst)).filter(|&id| id != NO_SPAN)
}

fn traced_merge(answers: &[String]) -> Result<String, String> {
    SPANS.time("serve.merge", rpc_parent(), || {
        (sweep_hooks().merge)(answers)
    })
}

fn traced_check(answer: &str) -> Result<(), String> {
    SPANS.time("serve.check", rpc_parent(), || {
        (sweep_hooks().check)(answer)
    })
}

fn traced_canonicalize(
    compact: &str,
    resolve: &dyn Fn(&str) -> Option<String>,
) -> Result<String, String> {
    SPANS.time("serve.canonicalize", rpc_parent(), || {
        (sweep_hooks().canonicalize)(compact, resolve)
    })
}

/// `sweep_hooks()` with every hook wrapped in a span.
fn traced_hooks() -> SubmissionHooks<'static> {
    SubmissionHooks {
        merge: &traced_merge,
        check: &traced_check,
        canonicalize: &traced_canonicalize,
    }
}

/// What `submit_matrix_as` does, one call at a time, each in a span.
fn submit_traced(
    addr: &str,
    matrix: &SweepMatrix,
) -> Result<(SweepResults, SubmissionOutcome), SimError> {
    let backend = |e: crp_serve::ServeError| SimError::Backend {
        what: e.to_string(),
    };
    let root = SPANS.begin("submit", None);
    let (submission, tickets) =
        SPANS.time("client.compile", root, || compile_submission(matrix))?;
    let rpc = SPANS.begin("client.submit", root);
    RPC_SPAN.store(rpc.unwrap_or(NO_SPAN), Ordering::SeqCst);
    let outcome =
        ServeClient::connect(addr).and_then(|mut client| client.submit(&submission, |_, _, _| {}));
    RPC_SPAN.store(NO_SPAN, Ordering::SeqCst);
    SPANS.end(rpc);
    let outcome = outcome.map_err(backend)?;
    let results = SPANS.time("client.results", root, || {
        results_from_outcome(tickets, &outcome)
    })?;
    SPANS.end(root);
    Ok((results, outcome))
}

// ---------------------------------------------------------------------
// The daemon.

struct Service {
    addr: String,
    daemon: Option<std::thread::JoinHandle<Result<(), crp_serve::ServeError>>>,
}

impl Service {
    fn start(
        worker_bin: &Path,
        cache_dir: &Path,
        hooks: SubmissionHooks<'static>,
    ) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let cache = ResultCache::open(cache_dir)
            .map_err(|e| format!("cannot open the result cache {}: {e}", cache_dir.display()))?;
        let endpoints = FleetBackend::local_with_command(WORKERS, worker_bin)
            .endpoints()
            .to_vec();
        let server = SweepServer::bind("127.0.0.1:0", endpoints, Some(cache))
            .map_err(|e| format!("cannot bind the sweep daemon: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("cannot read the daemon address: {e}"))?
            .to_string();
        let daemon = std::thread::spawn(move || server.serve(hooks));
        Ok(Self {
            addr,
            daemon: Some(daemon),
        })
    }

    fn stats(&self) -> Result<String, String> {
        ServeClient::connect(self.addr.as_str())
            .and_then(|mut client| client.stats())
            .map_err(|e| format!("stats request failed: {e}"))
    }

    /// Shuts the daemon down; it stops and reaps its workers before its
    /// thread returns.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        ServeClient::connect(self.addr.as_str())
            .and_then(ServeClient::shutdown_server)
            .map_err(|e| format!("cannot shut the daemon down: {e}"))?;
        match daemon.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("the daemon failed: {e}")),
            Err(_) => Err("the daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Load generators.

/// One measured submission.
struct Record {
    seed: u64,
    wall_s: f64,
    traced: bool,
    csv: String,
    jobs_total: usize,
    job_hits: usize,
    /// Rounds simulated for the cells this submission computed.
    rounds: f64,
    /// `serve.submit_micros` growth across a traced submission.
    serve_micros: u64,
}

fn rounds_of(results: &SweepResults) -> f64 {
    results
        .cells()
        .iter()
        .filter_map(|cell| cell.stats.rounds_overall.as_ref())
        .map(|rounds| rounds.mean * rounds.count as f64)
        .sum()
}

fn serve_submit_sum() -> u64 {
    crp_obs::global()
        .snapshot()
        .histogram(crp_serve::obs::SUBMIT_MICROS)
        .map_or(0, |h| h.sum)
}

/// The closed loop: submits until `stop_at`, one submission at a time.
/// With `trace`, every other submission records spans.
fn submitter(
    grid: &Grid,
    addr: &str,
    seed: u64,
    trace: bool,
    stop_at: Instant,
) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut failed = 0;
    let mut index = 0u64;
    while Instant::now() < stop_at {
        let seed = grid.workload.submission_seed(seed, index);
        let traced = trace && index.is_multiple_of(2);
        index += 1;
        let matrix = grid.matrix(seed);
        let serve_before = if traced { serve_submit_sum() } else { 0 };
        SPANS.set_enabled(traced);
        let started = Instant::now();
        let answer = if trace {
            submit_traced(addr, &matrix)
        } else {
            submit_matrix(addr, &matrix, |_, _, _| {})
        };
        let wall = started.elapsed();
        SPANS.set_enabled(false);
        let serve_micros = if traced {
            serve_submit_sum().saturating_sub(serve_before)
        } else {
            0
        };
        match answer {
            Ok((results, outcome)) => {
                if wall > SUBMIT_DEADLINE {
                    eprintln!("submission {index} missed its deadline: {wall:?}");
                    failed += 1;
                }
                let rounds = rounds_of(&results) * outcome.computed as f64
                    / outcome.jobs_total.max(1) as f64;
                records.push(Record {
                    seed,
                    wall_s: wall.as_secs_f64(),
                    traced,
                    csv: results.to_csv(),
                    jobs_total: outcome.jobs_total,
                    job_hits: outcome.job_hits,
                    rounds,
                    serve_micros,
                });
            }
            Err(e) => {
                eprintln!("submission {index} failed: {e}");
                failed += 1;
            }
        }
    }
    (records, failed)
}

#[derive(Default)]
struct OperatorLog {
    /// Latency of each answered request, from its due time.
    latencies_ms: Vec<f64>,
    /// How late each request was sent.
    lags_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The open loop: one `stats` request due every [`STATS_INTERVAL`] from
/// `start` until `stop_at`, each on a fresh connection.  A request that
/// comes due while an earlier one is still waiting is sent as soon as
/// that one returns, and still timed from its own due time.
fn operator(addr: &str, start: Instant, stop_at: Instant) -> OperatorLog {
    let mut log = OperatorLog::default();
    for k in 0u32.. {
        let due = start + STATS_INTERVAL * k;
        if due >= stop_at {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.lags_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        log.attempted += 1;
        let answer = ServeClient::connect(addr).and_then(|mut client| client.stats());
        let latency = due.elapsed();
        match answer {
            Ok(_) => {
                log.latencies_ms.push(ms(latency));
                if latency > STATS_DEADLINE {
                    log.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("stats request {k} failed: {e}");
                log.failed += 1;
            }
        }
    }
    log
}

// ---------------------------------------------------------------------
// One run.

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    spans_out: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scratch = PathBuf::from(".bench_build/e2e-scratch");
        let mut spans_out = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| {
                                let names: Vec<&str> =
                                    Workload::ALL.iter().map(|w| w.name()).collect();
                                format!("unknown workload {value:?}; one of {names:?}")
                            })?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                "--scratch" => scratch = PathBuf::from(value),
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scratch,
            spans_out,
        })
    }
}

/// The worker binary, named explicitly: a missing one fails the run
/// rather than skipping it.
fn worker_binary() -> Result<PathBuf, String> {
    let path = std::env::var_os("CRP_SHARD_WORKER_BIN")
        .map(PathBuf::from)
        .ok_or("CRP_SHARD_WORKER_BIN is not set; point it at a built crp_experiments binary")?;
    if !path.is_file() {
        return Err(format!(
            "CRP_SHARD_WORKER_BIN={} is not a file; build crp_experiments first",
            path.display()
        ));
    }
    Ok(path)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run(args: &Args, worker_bin: &Path) -> Result<Outcome, String> {
    let grid = Grid::new(args.workload)?;
    let hooks = if args.trace {
        traced_hooks()
    } else {
        sweep_hooks()
    };
    let scratch = args
        .scratch
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let result = measure(args, &grid, worker_bin, hooks, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure(
    args: &Args,
    grid: &Grid,
    worker_bin: &Path,
    hooks: SubmissionHooks<'static>,
    scratch: &Path,
) -> Result<Outcome, String> {
    let workload = args.workload;
    let sim = |e: SimError| e.to_string();

    // Set-up, timed SETUPS times: bind the daemon, spawn and handshake
    // the workers, answer a first (cold) submission of the workload's
    // grid.  Half run before the measured window and half after it, so
    // slow spells of the machine weigh on both halves.  The last daemon
    // set up before the window serves it.
    let timed_setup = |k: usize| -> Result<(Service, f64), String> {
        let started = Instant::now();
        let fresh = Service::start(worker_bin, &scratch.join(format!("cache-{k}")), hooks)?;
        let warmup = grid.matrix(derive_seed(args.seed, STREAM_SETUP, k as u64));
        let (_, outcome) = submit_matrix(&fresh.addr, &warmup, |_, _, _| {}).map_err(sim)?;
        if outcome.job_hits != 0 {
            return Err("the warm-up submission hit a fresh cache".to_string());
        }
        Ok((fresh, started.elapsed().as_secs_f64()))
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut service = None;
    for k in 0..SETUPS / 2 {
        let (fresh, secs) = timed_setup(k)?;
        setup_s.push(secs);
        if let Some(previous) = service.replace(fresh) {
            previous.stop()?;
        }
    }
    let service = service.expect("SETUPS is at least 2");

    // Untimed warm-up on the measured grid.  For warm-n16k this fills
    // the cache with every seed the measurement resubmits.
    let warmups = if workload.cold() { 1 } else { WARM_SEEDS };
    for index in 0..warmups {
        let matrix = grid.matrix(derive_seed(args.seed, STREAM_WARMUP, index));
        let (_, outcome) = submit_matrix(&service.addr, &matrix, |_, _, _| {}).map_err(sim)?;
        if outcome.job_hits != 0 {
            return Err("a warm-up submission of a fresh seed hit the cache".to_string());
        }
    }
    let submission_bytes = if args.trace {
        let (submission, _) = compile_submission(&grid.matrix(0)).map_err(sim)?;
        submission.encode().len()
    } else {
        0
    };

    // The measured window.
    let global_before = crp_obs::global().snapshot();
    let report_before = service.stats()?;
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(args.seconds);
    let ((records, submit_failed), operator_log) = std::thread::scope(|scope| {
        let operator = scope.spawn(|| operator(&service.addr, start, stop_at));
        let submitted = submitter(grid, &service.addr, args.seed, args.trace, stop_at);
        (
            submitted,
            operator.join().expect("the operator thread panicked"),
        )
    });
    let window_s = start.elapsed().as_secs_f64();
    let report_after = service.stats()?;
    let global_after = crp_obs::global().snapshot();
    let worker_rss_kib = children_peak_rss_kib(std::process::id(), "crp_experiments");
    service.stop()?;
    for k in SETUPS / 2..SETUPS {
        let (fresh, secs) = timed_setup(k)?;
        setup_s.push(secs);
        fresh.stop()?;
    }
    if records.is_empty() {
        return Err("no submission completed in the measured window".to_string());
    }
    if worker_rss_kib.len() != WORKERS {
        return Err(format!(
            "expected {WORKERS} live worker processes, found {worker_rss_kib:?}"
        ));
    }

    // Correctness gate, outside the timed window: every submission's CSV
    // must equal a serial run of the same grid, and the cache must have
    // behaved as the workload intends.
    let mut correct = true;
    let references = serial_references(grid, records.iter().map(|r| r.seed))?;
    for record in &records {
        let (reference, _) = &references[&record.seed];
        if &record.csv != reference {
            eprintln!(
                "MISMATCH: seed {} service CSV differs from the serial reference:\n{}\nvs\n{}",
                record.seed, record.csv, reference
            );
            correct = false;
        }
        let expected_hits = if workload.cold() {
            0
        } else {
            record.jobs_total
        };
        if record.job_hits != expected_hits {
            eprintln!(
                "CACHE: seed {} had {} of {} jobs hit; {} expects {expected_hits}",
                record.seed,
                record.job_hits,
                record.jobs_total,
                workload.name()
            );
            correct = false;
        }
    }

    let walls: Vec<f64> = records.iter().map(|r| r.wall_s).collect();
    let submit_tail = tail(&walls);
    let stats_tail = tail(&operator_log.latencies_ms);
    let attempted = records.len() + submit_failed + operator_log.attempted;
    let failed = submit_failed + operator_log.failed;
    eprintln!(
        "{}: {} submissions in {window_s:.1}s (p50 {:.3}s, tail {}), {} stats requests \
         (tail {}), operator lag max {:.1}ms, set-ups {:?}",
        workload.name(),
        records.len(),
        median(&walls).unwrap_or(0.0),
        describe_tail(submit_tail),
        operator_log.attempted,
        describe_tail(stats_tail),
        operator_log.lags_ms.iter().copied().fold(0.0, f64::max),
        setup_s,
    );

    let mut metrics: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    if !args.trace {
        let submit_wall: f64 = walls.iter().sum();
        put("submit_s_p50", median(&walls).unwrap_or(0.0), "s");
        put("submit_s_tail", tail_or_max(submit_tail, &walls), "s");
        put(
            "trials_per_s",
            (records.len() * grid.trials_per_submission()) as f64 / submit_wall,
            "1/s",
        );
        put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        let peak_kib = worker_rss_kib
            .iter()
            .map(|&(_, kib)| kib)
            .max()
            .unwrap_or(0);
        put("worker_rss_mb", peak_kib as f64 / 1024.0, "MB");
    } else {
        let layers = LayerInputs {
            records: &records,
            global_before: &global_before,
            global_after: &global_after,
            report_before: &report_before,
            report_after: &report_after,
            serial_ms: references.values().map(|&(_, ms)| ms).collect(),
            submission_bytes,
        };
        layers.metrics(&mut put);
        put("stats_ms_mean", mean(&operator_log.latencies_ms), "ms");
        put(
            "stats_ms_p50",
            median(&operator_log.latencies_ms).unwrap_or(0.0),
            "ms",
        );
        put(
            "stats_ms_tail",
            tail_or_max(stats_tail, &operator_log.latencies_ms),
            "ms",
        );
        put(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        put("submit.samples", walls.len() as f64, "count");
        put("submit.tail_pct", submit_tail.map_or(100.0, |t| t.pct), "%");
        put(
            "stats.samples",
            operator_log.latencies_ms.len() as f64,
            "count",
        );
        put("stats.tail_pct", stats_tail.map_or(100.0, |t| t.pct), "%");
        put(
            "operator.lag_ms_p50",
            median(&operator_log.lags_ms).unwrap_or(0.0),
            "ms",
        );
        put(
            "operator.lag_ms_max",
            operator_log.lags_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        if let Some(path) = &args.spans_out {
            std::fs::write(path, to_jsonl(&SPANS.spans()))
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        }
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The serial reference CSV of every distinct seed, with the time each
/// serial run took.  Each reference is one `run_on(&SerialBackend)` call;
/// [`REFERENCE_THREADS`] of them run side by side, outside the timed
/// window.
fn serial_references(
    grid: &Grid,
    seeds: impl Iterator<Item = u64>,
) -> Result<BTreeMap<u64, (String, f64)>, String> {
    let seeds: Vec<u64> = seeds
        .collect::<std::collections::BTreeSet<u64>>()
        .into_iter()
        .collect();
    let chunk = seeds.len().div_ceil(REFERENCE_THREADS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(chunk)
            .map(|share| {
                scope.spawn(move || {
                    share
                        .iter()
                        .map(|&seed| {
                            let started = Instant::now();
                            let results = grid
                                .matrix(seed)
                                .run_on(&SerialBackend)
                                .map_err(|e| e.to_string())?;
                            Ok((seed, (results.to_csv(), ms(started.elapsed()))))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut references = BTreeMap::new();
        for worker in workers {
            references.extend(worker.join().expect("a reference thread panicked")?);
        }
        Ok(references)
    })
}

fn describe_tail(tail: Option<crp_e2e_bench::summary::Tail>) -> String {
    match tail {
        Some(t) => format!("p{} of {} samples, {} beyond", t.pct, t.samples, t.beyond),
        None => format!("max: fewer than {} samples", 2 * TAIL_MIN_BEYOND),
    }
}

/// The tail value, or the maximum when too few samples exist for any
/// ladder percentile (reported as percentile 100).
fn tail_or_max(tail: Option<crp_e2e_bench::summary::Tail>, values: &[f64]) -> f64 {
    tail.map_or_else(|| values.iter().copied().fold(0.0, f64::max), |t| t.value)
}

/// Everything the per-layer metrics are derived from.
struct LayerInputs<'a> {
    records: &'a [Record],
    global_before: &'a crp_obs::MetricsSnapshot,
    global_after: &'a crp_obs::MetricsSnapshot,
    report_before: &'a str,
    report_after: &'a str,
    serial_ms: Vec<f64>,
    submission_bytes: usize,
}

impl LayerInputs<'_> {
    /// Per-layer metrics, each a mean per submission unless it is a
    /// ratio or a rate.  Span-derived times average over the traced
    /// submissions; counter-derived figures over every submission of
    /// the window.
    fn metrics(&self, put: &mut impl FnMut(&str, f64, &'static str)) {
        let spans = SPANS.spans();
        let layers = layer_times(&spans);
        let traced: Vec<&Record> = self.records.iter().filter(|r| r.traced).collect();
        let per_traced = |ns: u64| ns as f64 / 1e6 / traced.len().max(1) as f64;
        let layer = |name: &str| layers.get(name).copied().unwrap_or_default();

        // Client side and daemon hooks, from spans.
        let compile = per_traced(layer("client.compile").self_ns);
        let results = per_traced(layer("client.results").self_ns);
        let rpc = per_traced(layer("client.submit").total_ns);
        let serve_submit = traced.iter().map(|r| r.serve_micros).sum::<u64>() as f64
            / 1e3
            / traced.len().max(1) as f64;
        let canonicalize = per_traced(layer("serve.canonicalize").total_ns);
        let check = per_traced(layer("serve.check").total_ns);
        let merge = per_traced(layer("serve.merge").total_ns);
        let dispatch = per_traced(dispatch_window_ns(&spans));
        put("client.compile_ms", compile, "ms");
        put(
            "client.submission_bytes",
            self.submission_bytes as f64,
            "bytes",
        );
        put("client.transport_ms", rpc - serve_submit, "ms");
        put("client.results_ms", results, "ms");
        put("serve.submit_ms", serve_submit, "ms");
        put("serve.canonicalize_ms", canonicalize, "ms");
        put(
            "serve.canonicalize_calls",
            layer("serve.canonicalize").count as f64 / traced.len().max(1) as f64,
            "count",
        );
        put("serve.check_ms", check, "ms");
        put("serve.merge_ms", merge, "ms");
        put("serve.dispatch_ms", dispatch, "ms");
        put(
            "serve.self_ms",
            serve_submit - canonicalize - check - merge - dispatch,
            "ms",
        );

        // Daemon cache and fleet, from the in-process registry.
        let n = self.records.len() as f64;
        let (before, after) = (self.global_before, self.global_after);
        let delta = |name: &str| counter_delta(before, after, name) as f64;
        put(
            "cache.cell_hit",
            delta(crp_serve::obs::CACHE_CELL_HIT) / n,
            "count",
        );
        put(
            "cache.job_hit",
            delta(crp_serve::obs::CACHE_JOB_HIT) / n,
            "count",
        );
        put("cache.miss", delta(crp_serve::obs::CACHE_MISS) / n, "count");
        put(
            "cache.hit_ratio",
            delta(crp_serve::obs::SUBMIT_HITS) / delta(crp_serve::obs::SUBMIT_JOBS).max(1.0),
            "ratio",
        );
        put(
            "cache.read_bytes",
            delta(crp_serve::obs::CACHE_READ_BYTES) / n,
            "bytes",
        );
        put(
            "cache.write_bytes",
            delta(crp_serve::obs::CACHE_WRITE_BYTES) / n,
            "bytes",
        );
        let jobs = histogram_delta(before, after, "fleet.job_micros");
        let dispatched = delta("fleet.dispatch");
        put("fleet.dispatched", dispatched / n, "count");
        put("fleet.requeued", delta("fleet.requeue") / n, "count");
        put(
            "fleet.useful_ratio",
            if dispatched > 0.0 {
                jobs.total as f64 / dispatched
            } else {
                0.0
            },
            "ratio",
        );
        let job_tail_pct = TAIL_LADDER
            .into_iter()
            .find(|&pct| {
                let total = usize::try_from(jobs.total).unwrap_or(usize::MAX);
                total.saturating_sub(nearest_rank(total, pct)) >= TAIL_MIN_BEYOND
            })
            .unwrap_or(100.0);
        let job_q = |pct: f64| jobs.quantile(pct / 100.0).unwrap_or(0) as f64 / 1e3;
        put("fleet.job_ms_p50", job_q(50.0), "ms");
        put("fleet.job_ms_tail", job_q(job_tail_pct), "ms");
        put("fleet.job_ms_tail_pct", job_tail_pct, "%");
        let job_sum_ms = jobs.sum as f64 / 1e3 / n;
        put("fleet.job_ms_sum", job_sum_ms, "ms");

        // Workers, from the fleet rollup of the daemon's stats reports.
        let shard = |report: &str| rollup_histogram(report, "sim.shard_micros").unwrap_or((0, 0));
        let (_, shard_before) = shard(self.report_before);
        let (_, shard_after) = shard(self.report_after);
        let shard_s = shard_after.saturating_sub(shard_before) as f64 / 1e6;
        put("worker.shard_ms_sum", shard_s * 1e3 / n, "ms");
        put("worker.overhead_ms", job_sum_ms - shard_s * 1e3 / n, "ms");
        let rounds: f64 = self.records.iter().map(|r| r.rounds).sum();
        put(
            "kernel.rounds_per_s",
            if shard_s > 0.0 { rounds / shard_s } else { 0.0 },
            "1/s",
        );
        put(
            "kernel.serial_ms",
            median(&self.serial_ms).unwrap_or(0.0),
            "ms",
        );

        // Tracing overhead: traced against untraced submissions of the
        // same run.
        let p50 = |traced: bool| {
            let walls: Vec<f64> = self
                .records
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall_s)
                .collect();
            median(&walls).unwrap_or(0.0)
        };
        let (on, off) = (p50(true), p50(false));
        put("trace.submit_s_p50", on, "s");
        put("trace.untraced_submit_s_p50", off, "s");
        put(
            "trace.overhead_frac",
            if off > 0.0 { on / off - 1.0 } else { 0.0 },
            "ratio",
        );
    }
}

/// Per traced submission, the daemon's dispatch window: from the end of
/// its last `serve.canonicalize` to the start of its first
/// `serve.merge` (dispatch plus answer write-back), minus the
/// `serve.check` calls inside it.  Zero for submissions that dispatched
/// nothing.
fn dispatch_window_ns(spans: &[crp_e2e_bench::spans::Span]) -> u64 {
    let mut total = 0;
    for (rpc, _) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "client.submit")
    {
        let children = spans.iter().filter(|s| s.parent == Some(rpc));
        let mut last_canonical = None;
        let mut first_merge = None;
        for child in children.clone() {
            match child.name {
                "serve.canonicalize" => {
                    last_canonical = last_canonical.max(Some(child.end_ns));
                }
                "serve.merge" => {
                    first_merge =
                        Some(first_merge.map_or(child.start_ns, |m: u64| m.min(child.start_ns)));
                }
                _ => {}
            }
        }
        let (Some(lo), Some(hi)) = (last_canonical, first_merge) else {
            continue;
        };
        let checks: u64 = children
            .filter(|s| s.name == "serve.check" && s.start_ns >= lo && s.end_ns <= hi)
            .map(|s| s.duration_ns())
            .sum();
        total += hi.saturating_sub(lo).saturating_sub(checks);
    }
    total
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("crp-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let worker_bin = match worker_binary() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("crp-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Deliberately detached: it only ever ends the process.  Worker
    // subprocesses see their stdin close and exit on their own.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("crp-e2e-bench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    match run(&args, &worker_bin) {
        Ok(outcome) => {
            if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite())
            {
                eprintln!("crp-e2e-bench: metric {name} is not finite ({value})");
                return ExitCode::FAILURE;
            }
            println!("{}", json_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("crp-e2e-bench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
