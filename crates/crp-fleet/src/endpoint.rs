//! Worker endpoints, dispatch timing, and the fleet manifest.
//!
//! A [`WorkerEndpoint`] says where one worker lives: a local subprocess
//! the dispatcher spawns and talks to over piped stdio, or a `host:port`
//! it dials over TCP (a worker started on another machine with
//! `crp_experiments worker --listen`).  [`FleetManifest`] is the textual
//! pool description carried by the `CRP_FLEET` environment variable and
//! the `--fleet` CLI flag: comma-separated entries, each either
//! `local[:N]` (N spawned subprocess workers) or `host:port` (one remote
//! worker).

use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::protocol::{Message, PROTOCOL_VERSION};
use crate::FleetError;

/// Default deadline for a fresh connection to deliver its hello.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// Default silence on a polling connection with work in flight before a
/// health-check ping goes out.  Workers answer pings from their read
/// loop even while a job computes, so silence past this plus
/// [`DispatchTuning::ping_timeout`] means the worker process is wedged,
/// not busy.
const PING_AFTER: Duration = Duration::from_millis(1000);
/// Default deadline for an unanswered ping before the connection is
/// declared unresponsive and its jobs are re-dispatched.
const PING_TIMEOUT: Duration = Duration::from_millis(2000);
/// Default grace a job must be in flight before an idle worker may
/// speculatively re-dispatch it.
const STRAGGLER_GRACE: Duration = Duration::from_millis(250);

/// Every timing knob of a dispatcher and its connections, so this
/// crate's tests can set them deterministically.  Every dispatcher runs
/// with [`DispatchTuning::default`]; nothing outside the crate sets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DispatchTuning {
    /// How long a fresh connection may take to deliver its hello.
    pub(crate) handshake_timeout: Duration,
    /// Silence with work in flight before a health-check ping goes out.
    pub(crate) ping_after: Duration,
    /// How long a ping may go unanswered before the connection is
    /// declared unresponsive.
    pub(crate) ping_timeout: Duration,
    /// How long a job must be in flight before an idle worker may
    /// speculatively re-dispatch it.
    pub(crate) straggler_grace: Duration,
}

impl Default for DispatchTuning {
    fn default() -> Self {
        Self {
            handshake_timeout: HANDSHAKE_TIMEOUT,
            ping_after: PING_AFTER,
            ping_timeout: PING_TIMEOUT,
            straggler_grace: STRAGGLER_GRACE,
        }
    }
}

/// Where one fleet worker lives and how to reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEndpoint {
    /// A subprocess the dispatcher spawns, speaking frames over piped
    /// stdio.
    Local {
        /// The worker binary.
        program: PathBuf,
        /// Arguments selecting its worker mode (e.g. `worker --stdio`,
        /// plus any `--fault FAULT@JOBS` a chaos plan schedules).
        args: Vec<String>,
    },
    /// A remote worker reached over TCP.
    Tcp {
        /// The `host:port` to dial.
        addr: String,
    },
}

impl WorkerEndpoint {
    /// A local subprocess endpoint.
    pub fn local(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        WorkerEndpoint::Local {
            program: program.into(),
            args,
        }
    }

    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Self {
        WorkerEndpoint::Tcp { addr: addr.into() }
    }

    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            WorkerEndpoint::Local { program, .. } => {
                format!("local worker {}", program.display())
            }
            WorkerEndpoint::Tcp { addr } => format!("tcp worker {addr}"),
        }
    }

    /// Spawns the subprocess of a [`WorkerEndpoint::Local`] with piped
    /// stdio (the event loop's pipe transport).
    ///
    /// When the dispatcher itself is tracing, each spawned worker gets
    /// its *own* derived `CRP_TRACE` path (`<path>.worker-<n>`, see
    /// [`crp_obs::derive_worker_trace_path`]) instead of inheriting the
    /// dispatcher's path — concurrent appenders from several processes
    /// would interleave bytes mid-line and corrupt the file.
    /// `trace-join` picks the sibling files back up.  Otherwise the
    /// variable is removed, so a worker traces exactly when its
    /// dispatcher does.
    pub(crate) fn spawn_local(&self) -> std::io::Result<Child> {
        let WorkerEndpoint::Local { program, args } = self else {
            return Err(std::io::Error::other("not a local endpoint"));
        };
        let mut command = Command::new(program);
        command
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match crp_obs::active_trace_path() {
            Some(base) => {
                static NEXT_WORKER_TRACE: std::sync::atomic::AtomicUsize =
                    std::sync::atomic::AtomicUsize::new(0);
                let n = NEXT_WORKER_TRACE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                command.env("CRP_TRACE", crp_obs::derive_worker_trace_path(&base, n));
            }
            None => {
                command.env_remove("CRP_TRACE");
            }
        }
        command.spawn()
    }

    /// Resolves and dials the socket of a [`WorkerEndpoint::Tcp`] with
    /// nodelay set (the event loop's TCP transport).
    pub(crate) fn dial_tcp(&self, tuning: &DispatchTuning) -> std::io::Result<TcpStream> {
        let WorkerEndpoint::Tcp { addr } = self else {
            return Err(std::io::Error::other("not a TCP endpoint"));
        };
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| std::io::Error::other(format!("cannot resolve {addr:?}: {e}")))?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("{addr:?} resolves to no address")))?;
        let stream = TcpStream::connect_timeout(&resolved, tuning.handshake_timeout)?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }
}

/// Validates a decoded hello message, returning the advertised capacity.
/// Dispatcher and worker are one binary, so exactly [`PROTOCOL_VERSION`]
/// and a capacity of at least 1 are accepted; anything else is a typed
/// handshake error naming it, never a negotiated-down conversation.
pub(crate) fn negotiate_hello(message: Message) -> Result<usize, FleetError> {
    match message {
        Message::Hello { version, .. } if version != PROTOCOL_VERSION => {
            Err(FleetError::Handshake(format!(
                "worker speaks protocol v{version}, dispatcher speaks only v{PROTOCOL_VERSION}"
            )))
        }
        Message::Hello { capacity: 0, .. } => Err(FleetError::Handshake(
            "worker advertised capacity 0; a worker runs at least one job".to_string(),
        )),
        Message::Hello { capacity, .. } => Ok(capacity),
        other => Err(FleetError::Handshake(format!(
            "expected hello, worker sent {other:?}"
        ))),
    }
}

/// Spawns the feeder thread performing the blocking pipe reads, handing
/// chunks back over a channel.  The channel is what lets the event-loop
/// dispatcher drain a pipe non-blockingly (`try_recv`) — stdio endpoints
/// register as readable sources exactly like sockets, so a worker that
/// wedges with its pipe open is caught by the ping health check instead
/// of pinning a blocking read.
pub(crate) fn spawn_pipe_feeder(
    mut pipe: impl Read + Send + 'static,
) -> std::sync::mpsc::Receiver<std::io::Result<Vec<u8>>> {
    let (sender, chunks) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut buffer = [0u8; 8192];
        loop {
            match pipe.read(&mut buffer) {
                // EOF: dropping the sender is the signal.
                Ok(0) => break,
                Ok(n) => {
                    if sender.send(Ok(buffer[..n].to_vec())).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let _ = sender.send(Err(e));
                    break;
                }
            }
        }
    });
    chunks
}

/// One entry of a [`FleetManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEntry {
    /// `local[:N]` — N dispatcher-spawned subprocess workers.
    Local {
        /// Pool size (at least 1).
        workers: usize,
    },
    /// `host:port` — one remote TCP worker.
    Tcp {
        /// The address to dial.
        addr: String,
    },
}

/// A parsed fleet pool description (`CRP_FLEET` / `--fleet`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetManifest {
    entries: Vec<FleetEntry>,
}

impl FleetManifest {
    /// Parses `local[:N]` and `host:port` entries from a comma-separated
    /// manifest, e.g. `local:4,10.0.0.7:9311,10.0.0.8:9311`.  How many
    /// jobs a worker runs at once is the worker's own setting
    /// (`worker --capacity N`), advertised in its hello.
    ///
    /// # Errors
    ///
    /// [`FleetError::Manifest`] naming the first offending entry: empty
    /// manifests and entries, `local:0`, an unparsable local count, a
    /// missing or out-of-range port, or an empty host.
    pub fn parse(text: &str) -> Result<Self, FleetError> {
        let reject = |entry: &str, reason: &str| FleetError::Manifest {
            entry: entry.to_string(),
            reason: reason.to_string(),
        };
        let mut entries = Vec::new();
        for raw in text.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                return Err(reject(raw, "empty entry"));
            }
            if entry == "local" {
                entries.push(FleetEntry::Local { workers: 1 });
            } else if let Some(count) = entry.strip_prefix("local:") {
                let workers = count
                    .parse::<usize>()
                    .map_err(|_| reject(entry, "expected local:<positive worker count>"))?;
                if workers == 0 {
                    return Err(reject(entry, "a local pool needs at least one worker"));
                }
                entries.push(FleetEntry::Local { workers });
            } else {
                let (host, port) = entry
                    .rsplit_once(':')
                    .ok_or_else(|| reject(entry, "expected local[:N] or host:port"))?;
                if host.is_empty() {
                    return Err(reject(entry, "empty host"));
                }
                port.parse::<u16>()
                    .map_err(|_| reject(entry, "expected a port in 0..=65535"))?;
                entries.push(FleetEntry::Tcp {
                    addr: entry.to_string(),
                });
            }
        }
        if entries.is_empty() {
            return Err(reject(text, "empty manifest"));
        }
        Ok(Self { entries })
    }

    /// The parsed entries, in manifest order.
    pub fn entries(&self) -> &[FleetEntry] {
        &self.entries
    }

    /// Expands the manifest into endpoints, in manifest order: each
    /// `local:N` entry becomes N subprocess endpoints running
    /// `program args`, each `host:port` entry one TCP endpoint.
    pub fn endpoints(&self, program: impl Into<PathBuf>, args: Vec<String>) -> Vec<WorkerEndpoint> {
        let program = program.into();
        let mut endpoints = Vec::new();
        for entry in &self.entries {
            match entry {
                FleetEntry::Local { workers } => endpoints.extend(
                    (0..*workers).map(|_| WorkerEndpoint::local(program.clone(), args.clone())),
                ),
                FleetEntry::Tcp { addr } => endpoints.push(WorkerEndpoint::tcp(addr.clone())),
            }
        }
        endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::dispatch_plain;

    #[test]
    fn manifests_parse_local_pools_and_remote_addresses() {
        let manifest = FleetManifest::parse("local:3, 10.0.0.7:9311 ,local,worker-a:80").unwrap();
        assert_eq!(
            manifest.entries(),
            &[
                FleetEntry::Local { workers: 3 },
                FleetEntry::Tcp {
                    addr: "10.0.0.7:9311".into(),
                },
                FleetEntry::Local { workers: 1 },
                FleetEntry::Tcp {
                    addr: "worker-a:80".into(),
                },
            ]
        );
        let endpoints = manifest.endpoints("/bin/worker", vec!["worker".into(), "--stdio".into()]);
        assert_eq!(endpoints.len(), 3 + 1 + 1 + 1);
        assert_eq!(
            endpoints[0], endpoints[2],
            "local entries expand to N clones"
        );
        assert_eq!(
            endpoints[3],
            WorkerEndpoint::tcp("10.0.0.7:9311"),
            "manifest order: all local:3 workers first, then the remotes in order"
        );
    }

    #[test]
    fn bad_manifest_entries_name_the_offender() {
        for (text, needle) in [
            ("", "empty"),
            ("local:4,", "empty entry"),
            ("local:0", "at least one"),
            ("local:x", "positive worker count"),
            ("just-a-host", "host:port"),
            (":9311", "empty host"),
            ("host:notaport", "port"),
            ("host:99999", "port"),
            // Entries take no suffix: how many jobs a worker holds is
            // its own `worker --capacity`.
            ("local:2*3", "positive worker count"),
            ("host:9311*2", "port"),
            ("local*4", "host:port"),
        ] {
            match FleetManifest::parse(text) {
                Err(FleetError::Manifest { entry, reason }) => {
                    assert!(reason.contains(needle), "{text:?}: reason {reason:?}");
                    assert!(text.contains(entry.trim()), "{text:?}: entry {entry:?}");
                }
                other => panic!("{text:?} parsed to {other:?}"),
            }
        }
    }

    #[test]
    fn endpoint_descriptions_are_human_readable() {
        assert!(WorkerEndpoint::tcp("h:1").describe().contains("h:1"));
        assert!(WorkerEndpoint::local("/bin/w", vec![])
            .describe()
            .contains("/bin/w"));
    }

    #[test]
    fn connecting_to_a_missing_local_binary_is_a_typed_error() {
        let endpoint = WorkerEndpoint::local("/no/such/binary", vec![]);
        let err = dispatch_plain(&crate::Dispatcher::new(vec![endpoint]), &["x"]).unwrap_err();
        match err {
            FleetError::Exhausted { last, .. } => assert!(
                last.contains("cannot reach fleet worker local worker /no/such/binary"),
                "last error: {last}"
            ),
            other => panic!("expected exhaustion via a connect failure, got {other}"),
        }
    }
}
