//! The TCP worker transport: a listening socket serving one fleet
//! conversation per accepted connection.
//!
//! This is the loopback/remote half of the subsystem: start
//! `crp_experiments worker --listen host:port` on any machine, point a
//! dispatcher at `host:port` via the fleet manifest, and the same framed
//! protocol that runs over subprocess stdio runs over the socket.
//! [`TcpWorker`] accepts dispatcher connections; [`join_fleet`] dials out
//! to a dispatcher's registration listener.  Both serve out of a
//! caller-owned [`ScenarioStore`], and both read and write the one
//! socket through shared references (`&TcpStream` is `Read` and
//! `Write`), so a connection never needs a cloned handle.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

use crate::worker::{serve, JobHandler, ScenarioStore, ServeOptions};
use crate::FleetError;

/// Dials a dispatcher's worker-registration listener (see
/// [`crate::Dispatcher::listen_for_workers`]) and serves jobs over the
/// connection out of `store` until the dispatcher says shutdown or hangs
/// up — the elastic-membership worker half.  Because a worker speaks
/// hello first, the dialed-out conversation is byte-identical to an
/// accepted one, and a worker that re-joins with the same store keeps
/// the blobs it already received.
///
/// Returns the number of jobs served once the dispatcher disconnects.
///
/// # Errors
///
/// [`FleetError::Connect`] when the dispatcher cannot be reached; any
/// transport error the serve loop hits afterwards.
pub fn join_fleet(
    addr: impl ToSocketAddrs + std::fmt::Debug,
    handler: JobHandler<'_>,
    options: &ServeOptions,
    store: &ScenarioStore,
) -> Result<usize, FleetError> {
    let stream = TcpStream::connect(&addr).map_err(|e| FleetError::Connect {
        endpoint: format!("dispatcher {addr:?}"),
        reason: e.to_string(),
    })?;
    stream.set_nodelay(true).ok();
    serve(&stream, &mut &stream, handler, options, store)
}

/// A bound TCP worker: accepts dispatcher connections and serves each on
/// its own thread (several dispatchers — or several connections of one
/// dispatcher — can be in flight at once).
pub struct TcpWorker {
    listener: TcpListener,
}

impl TcpWorker {
    /// Binds the listener.  `addr` may use port 0 to let the OS pick
    /// (read the result back with [`TcpWorker::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::Connect`] when the address cannot be resolved or
    /// bound.
    pub fn bind(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, FleetError> {
        let listener = TcpListener::bind(&addr).map_err(|e| FleetError::Connect {
            endpoint: format!("listener {addr:?}"),
            reason: e.to_string(),
        })?;
        Ok(Self { listener })
    }

    /// The actually bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, FleetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts and serves connections until the process is killed, with
    /// one process-wide [`ScenarioStore`] shared by every connection —
    /// a blob shipped by one dispatcher run is still present when the
    /// next run reconnects.  Per-connection errors are reported on
    /// stderr and drop only that connection — one misbehaving dispatcher
    /// must not take the worker down for everyone else.
    pub fn serve_forever(
        &self,
        handler: JobHandler<'_>,
        options: &ServeOptions,
        store: &ScenarioStore,
    ) -> ! {
        std::thread::scope(|scope| loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    scope.spawn(move || {
                        stream.set_nodelay(true).ok();
                        match serve(&stream, &mut &stream, handler, options, store) {
                            Ok(served) => {
                                eprintln!("fleet worker: {peer} disconnected after {served} jobs");
                            }
                            Err(err) => eprintln!("fleet worker: connection {peer}: {err}"),
                        }
                    });
                }
                Err(err) => eprintln!("fleet worker: accept failed: {err}"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::dispatch_plain;
    use crate::{Dispatcher, WorkerEndpoint};

    fn echo(payload: &str) -> Result<String, String> {
        Ok(format!("echo:{payload}"))
    }

    /// Binds a loopback worker on an ephemeral port and serves it from a
    /// detached thread for the rest of the test process's life.
    fn spawn_echo_worker() -> SocketAddr {
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr().unwrap();
        std::thread::spawn(move || {
            worker.serve_forever(&echo, &ServeOptions::default(), &ScenarioStore::new())
        });
        addr
    }

    fn jobs(names: &[&str]) -> Vec<String> {
        names.iter().map(|name| name.to_string()).collect()
    }

    #[test]
    fn tcp_round_trip_through_a_real_socket() {
        let addr = spawn_echo_worker();
        let dispatcher = Dispatcher::new(vec![WorkerEndpoint::tcp(addr.to_string())]);
        let answers = dispatch_plain(&dispatcher, &["job-0", "job-1", "job-2"]).unwrap();
        assert_eq!(answers, jobs(&["echo:job-0", "echo:job-1", "echo:job-2"]));
    }

    #[test]
    fn two_connections_are_served_concurrently() {
        // Two dispatchers on one worker: each keeps its connection warm
        // between batches, so interleaved batches only complete if the
        // worker serves both live connections at once.
        let addr = spawn_echo_worker().to_string();
        let a = Dispatcher::new(vec![WorkerEndpoint::tcp(addr.clone())]);
        let b = Dispatcher::new(vec![WorkerEndpoint::tcp(addr)]);
        let ask = |dispatcher: &Dispatcher, job: &str| dispatch_plain(dispatcher, &[job]).unwrap();
        assert_eq!(ask(&a, "x"), jobs(&["echo:x"]));
        assert_eq!(ask(&b, "y"), jobs(&["echo:y"]));
        assert_eq!(ask(&a, "z"), jobs(&["echo:z"]));
        for (name, dispatcher) in [("a", &a), ("b", &b)] {
            let warm = dispatcher.worker_metrics().reporting();
            assert_eq!(warm, 1, "{name}'s connection is still warm");
        }
    }

    #[test]
    fn dialing_a_dead_port_is_a_typed_connect_error() {
        // Bind-then-drop guarantees the port is closed.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let err = dispatch_plain(
            &Dispatcher::new(vec![WorkerEndpoint::tcp(addr.clone())]),
            &["x"],
        )
        .unwrap_err();
        match err {
            FleetError::Exhausted { last, .. } => assert!(
                last.contains(&format!("cannot reach fleet worker tcp worker {addr}")),
                "last error: {last}"
            ),
            other => panic!("expected exhaustion via a connect failure, got {other}"),
        }
    }
}
