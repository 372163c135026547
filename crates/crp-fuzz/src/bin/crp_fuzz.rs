//! Command-line front end of the fuzzing subsystem.
//!
//! Usage:
//!
//! ```text
//! crp_fuzz [campaign] [--budget N] [--seed S] [--size N] [--steps N]
//!          [--trials T] [--protocols a,b,..] [--adversaries a,b,..]
//!          [--property NAME] [--shrink] [--max-shrink-evals N]
//!          [--backend serial|thread|fleet] [--threads T]
//!          [--fleet MANIFEST] [--chaos PLAN] [--save DIR]
//! crp_fuzz replay [--corpus DIR] [FILE ..] [--trials T]
//!          [--protocols a,b,..] [--property NAME]
//! ```
//!
//! `campaign` (the default) generates `--budget` seeded adversarial
//! traces, evaluates each against the property oracle and prints every
//! violation; with `--shrink` failures are minimised first, and with
//! `--save DIR` the minimal reproducers are written into that corpus
//! directory.  The process exits with status 1 when any trace violates
//! the property — the fixed-seed CI smoke job relies on that.
//! `--steps` is at most `crp_predict::MAX_TRACE_STEPS` (1024), so every
//! saved reproducer fits the trace-file cap and can be replayed.
//!
//! `replay` re-evaluates checked-in reproducers: every `FILE` (and every
//! `*.trace` entry of `--corpus DIR`) is parsed, compiled and run
//! against the oracle, printing the violations it reproduces.  Replay
//! exits non-zero only when a file cannot be parsed or evaluated —
//! reproducers are *expected* to violate.
//!
//! `--chaos PLAN` (e.g. `0:die@2,1:wedge@5`) applies a declarative fault
//! schedule to the worker pool of a fleet evaluation; a completed chaos
//! run is bit-identical to the serial backend.  Like `--fleet`, it
//! implies the fleet backend and conflicts with any other `--backend`.
//!
//! The environment is read once at entry (`crp_sim::EnvConfig`):
//! `CRP_THREADS` and `CRP_FLEET` stand in for `--threads` and `--fleet`,
//! a flag wins over its variable, and an unusable value or unknown
//! `CRP_*` name is an error naming it.

use std::process::ExitCode;
use std::str::FromStr;

use crp_fleet::{ChaosPlan, FleetManifest};
use crp_fuzz::{property_by_name, run_campaign, Corpus, FuzzConfig, Trace};
use crp_predict::{read_trace_file, AdversaryKind, MAX_TRACE_STEPS};
use crp_sim::{BackendChoice, EnvConfig, RunnerFlags};

/// Parsed command line: the shared campaign configuration plus the
/// replay inputs.
struct Options {
    command: String,
    config: FuzzConfig,
    save: Option<String>,
    corpus: Option<String>,
    files: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            command: "campaign".to_string(),
            config: FuzzConfig::default(),
            save: None,
            corpus: None,
            files: Vec::new(),
        }
    }
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {value:?}"))
}

/// Parses the command line and resolves its runner flags against `env`
/// into `config.runner`.
fn parse_args(args: &[String], env: &EnvConfig) -> Result<Options, String> {
    let mut options = Options::default();
    let mut runner = RunnerFlags::default();
    let mut index = 0;
    let next = |index: &mut usize, flag: &str| -> Result<String, String> {
        *index += 1;
        args.get(*index)
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    while index < args.len() {
        match args[index].as_str() {
            "campaign" | "replay" if index == 0 => {
                options.command = args[index].clone();
            }
            "--budget" => {
                options.config.budget = parse_usize("--budget", &next(&mut index, "--budget")?)?
            }
            "--seed" => {
                let value = next(&mut index, "--seed")?;
                options.config.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {value:?}"))?;
            }
            "--size" => {
                options.config.universe = parse_usize("--size", &next(&mut index, "--size")?)?
            }
            "--steps" => {
                let steps = parse_usize("--steps", &next(&mut index, "--steps")?)?;
                if steps > MAX_TRACE_STEPS {
                    return Err(format!(
                        "--steps {steps} exceeds the cap of {MAX_TRACE_STEPS} per trace"
                    ));
                }
                options.config.steps = steps;
            }
            "--trials" => {
                options.config.trials = parse_usize("--trials", &next(&mut index, "--trials")?)?
            }
            "--max-shrink-evals" => {
                options.config.max_shrink_evals = parse_usize(
                    "--max-shrink-evals",
                    &next(&mut index, "--max-shrink-evals")?,
                )?
            }
            "--protocols" => {
                options.config.protocols = next(&mut index, "--protocols")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--adversaries" => {
                let value = next(&mut index, "--adversaries")?;
                let mut kinds = Vec::new();
                for name in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    kinds.push(AdversaryKind::by_name(name).map_err(|err| err.to_string())?);
                }
                options.config.adversaries = kinds;
            }
            "--property" => {
                let name = next(&mut index, "--property")?;
                // Resolve eagerly so typos fail before any work happens.
                property_by_name(&name).map_err(|err| err.to_string())?;
                options.config.property = name;
            }
            "--shrink" => options.config.shrink = true,
            "--backend" => {
                runner.backend = Some(BackendChoice::from_str(&next(&mut index, "--backend")?)?)
            }
            "--threads" | "--workers" => {
                let threads = parse_usize("--threads", &next(&mut index, "--threads")?)?;
                if threads == 0 {
                    return Err("--threads expects a positive integer".to_string());
                }
                runner.threads = Some(threads);
            }
            "--fleet" => {
                let manifest = FleetManifest::parse(&next(&mut index, "--fleet")?)
                    .map_err(|err| err.to_string())?;
                runner.fleet = Some(manifest);
            }
            "--chaos" => {
                let plan = ChaosPlan::parse(&next(&mut index, "--chaos")?)
                    .map_err(|err| err.to_string())?;
                runner.chaos = Some(plan);
            }
            "--save" => options.save = Some(next(&mut index, "--save")?),
            "--corpus" => options.corpus = Some(next(&mut index, "--corpus")?),
            other if !other.starts_with("--") && options.command == "replay" => {
                options.files.push(other.to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
        index += 1;
    }
    options.config.runner = runner.resolve(env).map_err(|err| err.to_string())?;
    Ok(options)
}

/// Campaign mode: generate, evaluate, optionally shrink and save.
fn campaign_mode(options: &Options) -> Result<ExitCode, String> {
    let config = &options.config;
    println!(
        "fuzz campaign: budget {} seed {} universe {} steps {} trials {} property {}",
        config.budget, config.seed, config.universe, config.steps, config.trials, config.property
    );
    let report = run_campaign(config).map_err(|err| err.to_string())?;
    if report.clean() {
        println!(
            "{} traces, 0 violations — all properties hold",
            report.traces_run
        );
        return Ok(ExitCode::SUCCESS);
    }
    let corpus = options.save.as_ref().map(Corpus::open);
    for failure in &report.failures {
        println!(
            "trace #{} ({} adversary, {} events) violates:",
            failure.index,
            failure.adversary.name(),
            failure.trace.len()
        );
        for violation in &failure.violations {
            println!("  {violation}");
        }
        let reproducer = failure.minimal.as_ref().unwrap_or(&failure.trace);
        if failure.minimal.is_some() {
            println!(
                "  shrunk to {} events in {} evaluations",
                reproducer.len(),
                failure.shrink_evals
            );
        }
        if let Some(corpus) = &corpus {
            let path = corpus.save(reproducer).map_err(|err| err.to_string())?;
            println!("  reproducer saved to {}", path.display());
        }
    }
    println!(
        "{} traces, {} failing — see the violations above",
        report.traces_run,
        report.failures.len()
    );
    Ok(ExitCode::FAILURE)
}

/// Replay mode: parse and re-evaluate reproducers; violations are the
/// expected outcome, parse/evaluation failures are the errors.
fn replay_mode(options: &Options) -> Result<ExitCode, String> {
    let mut entries: Vec<(String, Trace)> = Vec::new();
    if let Some(dir) = &options.corpus {
        for (path, trace) in Corpus::open(dir)
            .load_all()
            .map_err(|err| err.to_string())?
        {
            entries.push((path.display().to_string(), trace));
        }
    }
    for file in &options.files {
        let trace = read_trace_file(file).map_err(|err| err.to_string())?;
        entries.push((file.clone(), trace));
    }
    if entries.is_empty() {
        return Err("replay needs --corpus DIR or trace files".to_string());
    }
    let property = property_by_name(&options.config.property).map_err(|err| err.to_string())?;
    for (name, trace) in &entries {
        let evaluation =
            crp_fuzz::evaluate_trace(&options.config, trace, "replay", property.as_ref())
                .map_err(|err| format!("{name}: {err}"))?;
        println!(
            "{name}: {} events, {} violations",
            trace.len(),
            evaluation.violations.len()
        );
        for violation in &evaluation.violations {
            println!("  {violation}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = EnvConfig::from_env()
        .map_err(|err| err.to_string())
        .and_then(|env| parse_args(&args, &env));
    let options = match parsed {
        Ok(options) => options,
        Err(err) => {
            eprintln!("crp_fuzz: {err}");
            return ExitCode::FAILURE;
        }
    };
    let run = match options.command.as_str() {
        "replay" => replay_mode(&options),
        _ => campaign_mode(&options),
    };
    match run {
        Ok(code) => code,
        Err(err) => {
            eprintln!("crp_fuzz: {err}");
            ExitCode::FAILURE
        }
    }
}
