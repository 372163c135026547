//! The workspace's one environment parser, and the one place command-line
//! flags, the environment and the defaults are resolved into a
//! [`RunnerConfig`].
//!
//! Library code never reads the environment: the binaries call
//! [`EnvConfig::from_env`] once at entry and hand the resolved
//! configuration down.  Parsing is strict — a set-but-unusable value, a
//! value that is not UTF-8 and an unknown `CRP_*` name are all one
//! [`SimError::Config`] naming the variable — so a mistyped override
//! fails the run instead of being ignored.

use std::ffi::OsString;

use crp_fleet::{ChaosPlan, FleetManifest};

use crate::runner::{BackendChoice, RunnerConfig};
use crate::SimError;

/// The `CRP_*` environment of one process, parsed strictly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvConfig {
    /// `CRP_THREADS`: the worker count (a positive integer).
    pub threads: Option<usize>,
    /// `CRP_FLEET`: the pool a fleet run dispatches to.
    pub fleet: Option<FleetManifest>,
    /// `CRP_TRACE`: the structured-trace JSONL path.  The values `""`,
    /// `0`, `off` and `none` leave tracing disabled.
    pub trace: Option<String>,
}

impl EnvConfig {
    /// Every `CRP_*` name the workspace knows.  The last one only locates
    /// the worker binary, so it is read where that binary is resolved and
    /// never parsed here.
    pub const NAMES: [&'static str; 4] = [
        "CRP_THREADS",
        "CRP_FLEET",
        "CRP_TRACE",
        "CRP_SHARD_WORKER_BIN",
    ];

    /// Parses the `CRP_*` entries of `vars`; every other name is ignored.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the first variable that is not one of
    /// [`EnvConfig::NAMES`], or whose value is not UTF-8 or cannot be
    /// used.
    pub fn parse(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Result<Self, SimError> {
        let mut env = Self::default();
        for (name, value) in vars {
            let name = name.to_string_lossy();
            if !name.starts_with("CRP_") {
                continue;
            }
            let reject = |what: String| SimError::Config {
                var: name.to_string(),
                value: value.to_string_lossy().into_owned(),
                what,
            };
            let text = || {
                value
                    .to_str()
                    .map(str::trim)
                    .ok_or_else(|| reject("the value is not valid UTF-8".to_string()))
            };
            match name.as_ref() {
                "CRP_THREADS" => {
                    env.threads = Some(
                        text()?
                            .parse::<usize>()
                            .ok()
                            .filter(|&threads| threads >= 1)
                            .ok_or_else(|| {
                                reject("expected a positive integer worker count".to_string())
                            })?,
                    );
                }
                "CRP_FLEET" => {
                    env.fleet =
                        Some(FleetManifest::parse(text()?).map_err(|err| reject(err.to_string()))?);
                }
                "CRP_TRACE" => {
                    env.trace = match text()? {
                        "" | "0" | "off" | "none" => None,
                        path => Some(path.to_string()),
                    };
                }
                "CRP_SHARD_WORKER_BIN" => {}
                _ => {
                    return Err(reject(format!(
                        "unknown CRP_* variable; expected one of: {}",
                        Self::NAMES.join(", ")
                    )))
                }
            }
        }
        Ok(env)
    }

    /// Parses this process's environment (`vars_os`, because `vars`
    /// panics on a value that is not UTF-8).
    ///
    /// # Errors
    ///
    /// As [`EnvConfig::parse`].
    pub fn from_env() -> Result<Self, SimError> {
        Self::parse(std::env::vars_os())
    }
}

/// The runner choices a command line may make; `None` defers to the
/// environment, then to the default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunnerFlags {
    /// `--backend`.
    pub backend: Option<BackendChoice>,
    /// `--threads` / `--workers`.
    pub threads: Option<usize>,
    /// `--fleet`.
    pub fleet: Option<FleetManifest>,
    /// `--chaos`.
    pub chaos: Option<ChaosPlan>,
    /// `--accept-workers`.
    pub accept_workers: Option<String>,
}

impl RunnerFlags {
    /// Resolves flag > environment > default into a [`RunnerConfig`]
    /// (with the default trial count and seed).  A `--fleet` manifest, a
    /// `--chaos` plan or an `--accept-workers` address implies the fleet
    /// backend; a `CRP_FLEET` manifest only names the pool a fleet run
    /// uses.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] when one of the fleet-implying
    /// flags meets an explicit `--backend` other than `fleet`.
    pub fn resolve(self, env: &EnvConfig) -> Result<RunnerConfig, SimError> {
        let implies_fleet = [
            ("--fleet", self.fleet.is_some()),
            ("--chaos", self.chaos.is_some()),
            ("--accept-workers", self.accept_workers.is_some()),
        ]
        .into_iter()
        .find_map(|(flag, set)| set.then_some(flag));
        let backend = match (self.backend, implies_fleet) {
            (Some(backend), Some(flag)) if backend != BackendChoice::Fleet => {
                return Err(SimError::InvalidParameter {
                    what: format!(
                        "{flag} conflicts with --backend {}; omit --backend or use --backend fleet",
                        format!("{backend:?}").to_lowercase()
                    ),
                })
            }
            (Some(backend), _) => backend,
            (None, Some(_)) => BackendChoice::Fleet,
            (None, None) => BackendChoice::default(),
        };
        let mut config = RunnerConfig::default().with_backend(backend);
        if let Some(threads) = self.threads.or(env.threads) {
            config = config.with_threads(threads);
        }
        config.fleet = self.fleet.or_else(|| env.fleet.clone());
        config.chaos = self.chaos;
        config.accept_workers = self.accept_workers;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Result<EnvConfig, SimError> {
        EnvConfig::parse(
            pairs
                .iter()
                .map(|(name, value)| (OsString::from(name), OsString::from(value))),
        )
    }

    #[test]
    fn env_config_parses_every_kept_variable_strictly() {
        let manifest = FleetManifest::parse("local:2,10.0.0.7:9311").unwrap();
        let valid: &[(&[(&str, &str)], EnvConfig)] = &[
            (&[], EnvConfig::default()),
            (&[("PATH", "/bin"), ("HOME", "")], EnvConfig::default()),
            (
                &[("CRP_THREADS", " 3 ")],
                EnvConfig {
                    threads: Some(3),
                    ..EnvConfig::default()
                },
            ),
            (
                &[("CRP_FLEET", "local:2,10.0.0.7:9311")],
                EnvConfig {
                    fleet: Some(manifest),
                    ..EnvConfig::default()
                },
            ),
            (
                &[("CRP_TRACE", "run.jsonl")],
                EnvConfig {
                    trace: Some("run.jsonl".to_string()),
                    ..EnvConfig::default()
                },
            ),
            (&[("CRP_TRACE", "")], EnvConfig::default()),
            (&[("CRP_TRACE", "0")], EnvConfig::default()),
            (&[("CRP_TRACE", "off")], EnvConfig::default()),
            (&[("CRP_TRACE", "none")], EnvConfig::default()),
            // The binary locator is a known name but never parsed.
            (&[("CRP_SHARD_WORKER_BIN", "/bin/w")], EnvConfig::default()),
        ];
        for (pairs, expected) in valid {
            assert_eq!(&parse(pairs).unwrap(), expected, "{pairs:?}");
        }

        let invalid: &[(&str, &str, &str)] = &[
            ("CRP_THREADS", "0", "positive integer"),
            ("CRP_THREADS", "zero", "positive integer"),
            ("CRP_THREADS", "", "positive integer"),
            ("CRP_FLEET", "local:2*3", "positive worker count"),
            ("CRP_FLEET", "local:0", "at least one"),
            ("CRP_THREAD", "2", "unknown CRP_* variable"),
            ("CRP_FUZZ_BIN", "", "unknown CRP_* variable"),
            ("CRP_FLEET_POLL_MS", "25", "unknown CRP_* variable"),
            ("CRP_FLEET_CAPACITY", "4", "unknown CRP_* variable"),
            ("CRP_FLEET_DIE_AFTER", "1", "unknown CRP_* variable"),
            ("CRP_FLEET_GARBAGE_AFTER", "0", "unknown CRP_* variable"),
            ("CRP_FLEET_MANGLE_AFTER", "0", "unknown CRP_* variable"),
            ("CRP_FLEET_WEDGE_AFTER", "2", "unknown CRP_* variable"),
        ];
        for &(name, value, needle) in invalid {
            match parse(&[("PATH", "/bin"), (name, value)]) {
                Err(SimError::Config {
                    var,
                    value: got,
                    what,
                }) => {
                    assert_eq!(var, name);
                    assert_eq!(got, value);
                    assert!(what.contains(needle), "{name}={value:?}: {what}");
                }
                other => panic!("{name}={value:?} parsed to {other:?}"),
            }
        }

        // `vars_os` hands over values that are not UTF-8: an error for a
        // parsed variable, fine for a binary locator (any path).
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let not_utf8 = |name: &str, bytes: Vec<u8>| {
                EnvConfig::parse([(OsString::from(name), OsString::from_vec(bytes))])
            };
            match not_utf8("CRP_THREADS", vec![0xff]) {
                Err(SimError::Config { var, what, .. }) => {
                    assert_eq!(var, "CRP_THREADS");
                    assert!(what.contains("UTF-8"), "{what}");
                }
                other => panic!("a non-UTF-8 CRP_THREADS parsed to {other:?}"),
            }
            assert_eq!(
                not_utf8("CRP_SHARD_WORKER_BIN", vec![b'/', 0xff]).unwrap(),
                EnvConfig::default()
            );
        }
    }

    #[test]
    fn flags_win_over_the_environment_which_wins_over_the_default() {
        let env = parse(&[("CRP_THREADS", "3"), ("CRP_FLEET", "local:2")]).unwrap();
        let config = RunnerFlags::default().resolve(&env).unwrap();
        assert_eq!(config.threads, 3);
        assert_eq!(config.fleet, env.fleet);
        // A CRP_FLEET manifest names the pool but does not pick the backend.
        assert_eq!(config.backend, BackendChoice::Thread);

        let flags = RunnerFlags {
            threads: Some(2),
            ..RunnerFlags::default()
        };
        let config = flags.resolve(&env).unwrap();
        assert_eq!(config.threads, 2);

        let config = RunnerFlags::default()
            .resolve(&EnvConfig::default())
            .unwrap();
        assert_eq!(config.fleet, None);
        assert!(config.threads >= 1);
    }

    #[test]
    fn fleet_implying_flags_select_the_fleet_backend_or_conflict() {
        let implying = [
            (
                "--fleet",
                RunnerFlags {
                    fleet: Some(FleetManifest::parse("127.0.0.1:1").unwrap()),
                    ..RunnerFlags::default()
                },
            ),
            (
                "--chaos",
                RunnerFlags {
                    chaos: Some(ChaosPlan::parse("0:die@0").unwrap()),
                    ..RunnerFlags::default()
                },
            ),
            (
                "--accept-workers",
                RunnerFlags {
                    accept_workers: Some("127.0.0.1:0".to_string()),
                    ..RunnerFlags::default()
                },
            ),
        ];
        for (flag, flags) in implying {
            for backend in [None, Some(BackendChoice::Fleet)] {
                let config = RunnerFlags {
                    backend,
                    ..flags.clone()
                }
                .resolve(&EnvConfig::default())
                .unwrap();
                assert_eq!(config.backend, BackendChoice::Fleet, "{flag} {backend:?}");
            }
            for backend in [BackendChoice::Serial, BackendChoice::Thread] {
                let conflicting = RunnerFlags {
                    backend: Some(backend),
                    ..flags.clone()
                };
                match conflicting.resolve(&EnvConfig::default()) {
                    Err(SimError::InvalidParameter { what }) => {
                        assert!(what.contains(&format!("{flag} conflicts with --backend")));
                    }
                    other => panic!("{flag} with {backend:?} resolved to {other:?}"),
                }
            }
        }
    }
}
