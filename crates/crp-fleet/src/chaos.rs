//! Declarative chaos plans: typed, scheduled fault injection.
//!
//! A [`ChaosPlan`] is an ordered set of [`ChaosEvent`]s — *which worker*
//! suffers *which fault* *after how many jobs* — that sweeps and fuzz
//! campaigns can declare, persist, and minimise with the same machinery
//! as scenario faults.  [`ChaosPlan::apply`] compiles the plan down to
//! `--fault FAULT@JOBS` arguments on a pool's local subprocess
//! endpoints; the worker parses them with the same code into its
//! [`crate::ServeOptions`] fault knobs.
//!
//! Plans have a canonical text form, `WORKER:FAULT@JOBS` entries joined by
//! commas (e.g. `0:die@2,1:wedge@5`), carried by the `--chaos` CLI flag
//! and round-tripped by [`ChaosPlan::parse`] / [`std::fmt::Display`].

use std::fmt;

use crate::endpoint::WorkerEndpoint;
use crate::FleetError;

/// One injectable fault family, mirroring the [`crate::ServeOptions`]
/// knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker process exits (code 17) mid-answer when the scheduled
    /// job arrives, leaving a truncated frame.
    Die,
    /// Every answer from the scheduled job onwards is unframable bytes.
    Garbage,
    /// Every answer from the scheduled job onwards is a well-framed
    /// `done` whose body fails payload validation.
    Mangle,
    /// The worker goes silent when the scheduled job arrives, holding
    /// its connection open.
    Wedge,
}

impl FaultKind {
    /// Every fault kind, in a stable order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Die,
        FaultKind::Garbage,
        FaultKind::Mangle,
        FaultKind::Wedge,
    ];

    /// The canonical plan-entry name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Die => "die",
            FaultKind::Garbage => "garbage",
            FaultKind::Mangle => "mangle",
            FaultKind::Wedge => "wedge",
        }
    }

    /// Parses one `FAULT@JOBS` schedule (e.g. `die@2`): the part of a
    /// plan entry after `WORKER:`, and the value of `worker --fault`.
    /// `entry` is the text errors name.
    pub(crate) fn parse_schedule(text: &str, entry: &str) -> Result<(Self, usize), FleetError> {
        let malformed = |reason: String| FleetError::Chaos {
            entry: entry.to_string(),
            reason,
        };
        let (fault, after) = text
            .split_once('@')
            .ok_or_else(|| malformed("expected FAULT@JOBS (e.g. die@2)".to_string()))?;
        let kind = Self::ALL
            .into_iter()
            .find(|kind| kind.name() == fault)
            .ok_or_else(|| {
                malformed(format!(
                    "unknown fault {fault:?}; expected one of: {}",
                    Self::ALL.map(|k| k.name()).join(", ")
                ))
            })?;
        let after_jobs = after
            .parse::<usize>()
            .map_err(|_| malformed("job count must be a non-negative integer".to_string()))?;
        Ok((kind, after_jobs))
    }
}

/// One scheduled fault: `worker` suffers `fault` once it has accepted
/// `after_jobs` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Zero-based index of the targeted worker in the pool's endpoint
    /// order.
    pub worker: usize,
    /// Which fault to inject.
    pub fault: FaultKind,
    /// How many jobs the worker accepts before the fault fires.
    pub after_jobs: usize,
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}@{}",
            self.worker,
            self.fault.name(),
            self.after_jobs
        )
    }
}

/// A declarative schedule of infrastructure faults over a worker pool.
///
/// The empty plan is a no-op; [`ChaosPlan::apply`] then returns the
/// endpoints unchanged, which is why chaos-configured runs stay available
/// on every backend.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// The empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: adds one scheduled fault.
    #[must_use]
    pub fn with(mut self, worker: usize, fault: FaultKind, after_jobs: usize) -> Self {
        self.events.push(ChaosEvent {
            worker,
            fault,
            after_jobs,
        });
        self
    }

    /// The scheduled events, in declaration order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Rejects plans scheduling the same fault kind twice on one worker
    /// (a worker holds one schedule per kind).
    fn check_duplicates(&self) -> Result<(), FleetError> {
        for (index, event) in self.events.iter().enumerate() {
            if self.events[..index]
                .iter()
                .any(|e| e.worker == event.worker && e.fault == event.fault)
            {
                return Err(FleetError::Chaos {
                    entry: event.to_string(),
                    reason: format!(
                        "worker {} already schedules {:?}; one schedule per fault kind per worker",
                        event.worker,
                        event.fault.name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Parses the canonical text form: comma-separated
    /// `WORKER:FAULT@JOBS` entries (e.g. `0:die@2,1:wedge@5`).  The empty
    /// string is the empty plan.
    ///
    /// # Errors
    ///
    /// [`FleetError::Chaos`] naming the offending entry for malformed
    /// syntax, unknown fault names, or duplicate (worker, fault) pairs.
    pub fn parse(text: &str) -> Result<Self, FleetError> {
        let mut plan = Self::new();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let malformed = |reason: &str| FleetError::Chaos {
                entry: entry.to_string(),
                reason: reason.to_string(),
            };
            let (worker, schedule) = entry
                .split_once(':')
                .ok_or_else(|| malformed("expected WORKER:FAULT@JOBS"))?;
            let worker = worker
                .parse::<usize>()
                .map_err(|_| malformed("worker index must be a non-negative integer"))?;
            let (fault, after_jobs) = FaultKind::parse_schedule(schedule, entry)?;
            plan.events.push(ChaosEvent {
                worker,
                fault,
                after_jobs,
            });
        }
        plan.check_duplicates()?;
        Ok(plan)
    }

    /// Compiles the plan onto a pool: returns the endpoints with one
    /// `--fault FAULT@JOBS` argument pair appended per event to each
    /// targeted local worker, in event order.  Untargeted endpoints pass
    /// through unchanged.
    ///
    /// # Errors
    ///
    /// [`FleetError::Chaos`] if the plan targets a worker index outside
    /// the pool, a TCP endpoint (faults are injected at spawn time, so
    /// only local subprocess workers can be sabotaged), or schedules
    /// duplicate (worker, fault) pairs.
    pub fn apply(&self, endpoints: &[WorkerEndpoint]) -> Result<Vec<WorkerEndpoint>, FleetError> {
        self.check_duplicates()?;
        for event in &self.events {
            match endpoints.get(event.worker) {
                None => {
                    return Err(FleetError::Chaos {
                        entry: event.to_string(),
                        reason: format!(
                            "worker index {} out of range for a pool of {}",
                            event.worker,
                            endpoints.len()
                        ),
                    })
                }
                Some(WorkerEndpoint::Tcp { addr }) => {
                    return Err(FleetError::Chaos {
                        entry: event.to_string(),
                        reason: format!(
                            "worker {} is the TCP endpoint {addr}; chaos plans can only \
                             sabotage local subprocess workers",
                            event.worker
                        ),
                    })
                }
                Some(WorkerEndpoint::Local { .. }) => {}
            }
        }
        Ok(endpoints
            .iter()
            .enumerate()
            .map(|(index, endpoint)| match endpoint {
                WorkerEndpoint::Local { program, args } => {
                    let mut args = args.clone();
                    for event in self.events.iter().filter(|event| event.worker == index) {
                        args.push("--fault".to_string());
                        args.push(format!("{}@{}", event.fault.name(), event.after_jobs));
                    }
                    WorkerEndpoint::local(program.clone(), args)
                }
                other => other.clone(),
            })
            .collect())
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for event in &self.events {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{event}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_canonical_form() {
        let plan = ChaosPlan::parse("0:die@2,1:wedge@5,1:garbage@0").unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.to_string(), "0:die@2,1:wedge@5,1:garbage@0");
        assert_eq!(ChaosPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(ChaosPlan::parse("").unwrap().is_empty());
        assert_eq!(ChaosPlan::parse(" 0:mangle@1 , ").unwrap().len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_entries_with_typed_errors() {
        for bad in [
            "die@2",
            "0:die",
            "x:die@2",
            "0:explode@2",
            "0:die@x",
            "0:die@2,0:die@9",
        ] {
            match ChaosPlan::parse(bad) {
                Err(FleetError::Chaos { .. }) => {}
                other => panic!("expected FleetError::Chaos for {bad:?}, got {other:?}"),
            }
        }
        let err = ChaosPlan::parse("0:explode@2").unwrap_err();
        assert!(err.to_string().contains("wedge"), "{err}");
    }

    #[test]
    fn apply_extends_local_spawn_args() {
        let endpoints = vec![
            WorkerEndpoint::local("worker", vec!["--stdio".into()]),
            WorkerEndpoint::local("worker", vec!["--stdio".into()]),
        ];
        let plan = ChaosPlan::new()
            .with(1, FaultKind::Die, 2)
            .with(1, FaultKind::Garbage, 4);
        let sabotaged = plan.apply(&endpoints).unwrap();
        assert_eq!(sabotaged[0], endpoints[0]);
        match &sabotaged[1] {
            WorkerEndpoint::Local { args, .. } => {
                assert_eq!(
                    args,
                    &vec!["--stdio", "--fault", "die@2", "--fault", "garbage@4"]
                );
            }
            other => panic!("expected a local endpoint, got {other:?}"),
        }
        // The empty plan is the identity.
        assert_eq!(ChaosPlan::new().apply(&endpoints).unwrap(), endpoints);
    }

    #[test]
    fn apply_rejects_out_of_range_and_tcp_targets() {
        let endpoints = vec![
            WorkerEndpoint::local("worker", vec![]),
            WorkerEndpoint::tcp("10.0.0.7:9311"),
        ];
        let out_of_range = ChaosPlan::new().with(2, FaultKind::Die, 0);
        assert!(matches!(
            out_of_range.apply(&endpoints),
            Err(FleetError::Chaos { .. })
        ));
        let tcp_target = ChaosPlan::new().with(1, FaultKind::Wedge, 1);
        let err = tcp_target.apply(&endpoints).unwrap_err();
        assert!(err.to_string().contains("TCP"), "{err}");
        let duplicate = ChaosPlan::new()
            .with(0, FaultKind::Die, 1)
            .with(0, FaultKind::Die, 2);
        assert!(duplicate.apply(&endpoints).is_err());
    }
}
