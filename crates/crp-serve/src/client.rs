//! The sweep-service client: connect, submit, stream progress, collect
//! the result.

use std::net::{TcpStream, ToSocketAddrs};

use crp_fleet::frame::{write_frame, FrameReader};

use crate::wire::{ServeMessage, Submission, SubmissionOutcome, SERVICE_VERSION};
use crate::ServeError;

/// One live connection to a [`crate::SweepServer`].
pub struct ServeClient {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Dials the daemon and checks its `serve-hello` greeting (so a
    /// worker port, whose greeting differs, fails fast with a typed
    /// error instead of a confusing parse failure later).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for dial failures, [`ServeError::Malformed`]
    /// for a peer that does not speak the service protocol.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, ServeError> {
        Self::dial(addr, None)
    }

    /// Like [`ServeClient::connect`], but names the tenant this
    /// connection submits on behalf of: a `client-hello` frame follows
    /// the greeting, and the daemon accounts every submission on the
    /// connection to `serve.tenant.<tenant>.*` counters (sanitised
    /// server-side).  Plain [`ServeClient::connect`] connections are
    /// accounted to the `anonymous` tenant.
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::connect`].
    pub fn connect_as(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        tenant: &str,
    ) -> Result<Self, ServeError> {
        Self::dial(addr, Some(tenant))
    }

    fn dial(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        tenant: Option<&str>,
    ) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(&addr)
            .map_err(|e| ServeError::Io(format!("cannot reach sweep server {addr:?}: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut client = Self {
            reader: FrameReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        };
        let frame = client.reader.read_frame()?.ok_or_else(|| {
            ServeError::Io("the sweep server closed the connection before its hello".to_string())
        })?;
        match ServeMessage::decode(&frame)? {
            ServeMessage::Hello { version } if version == SERVICE_VERSION => {}
            ServeMessage::Hello { version } => {
                return Err(ServeError::Malformed(format!(
                    "server speaks service protocol v{version}, client requires v{SERVICE_VERSION}"
                )))
            }
            other => {
                return Err(ServeError::Malformed(format!(
                    "expected serve-hello, server sent {other:?}"
                )))
            }
        }
        if let Some(tenant) = tenant {
            write_frame(
                &mut client.writer,
                &ServeMessage::ClientHello {
                    tenant: crate::obs::sanitize_tenant(tenant),
                }
                .encode(),
            )?;
        }
        Ok(client)
    }

    /// Submits a sweep and blocks until its result, invoking `progress`
    /// with `(settled_jobs, total_jobs, cache_hits)` as the server
    /// streams updates.
    ///
    /// # Errors
    ///
    /// Transport failures, malformed frames, and
    /// [`ServeError::Server`] when the daemon answered with an error
    /// frame.
    pub fn submit(
        &mut self,
        submission: &Submission,
        mut progress: impl FnMut(usize, usize, usize),
    ) -> Result<SubmissionOutcome, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.writer,
            &ServeMessage::Submit {
                id,
                body: submission.encode(),
            }
            .encode(),
        )?;
        loop {
            let frame = self.reader.read_frame()?.ok_or_else(|| {
                ServeError::Io("the sweep server closed the connection mid-submission".to_string())
            })?;
            match ServeMessage::decode(&frame)? {
                ServeMessage::Progress {
                    id: got,
                    completed,
                    total,
                    hits,
                } if got == id => progress(completed, total, hits),
                ServeMessage::Result { id: got, body } if got == id => {
                    return SubmissionOutcome::decode(&body)
                }
                ServeMessage::Error { id: got, message } if got == id => {
                    return Err(ServeError::Server(message))
                }
                other => {
                    return Err(ServeError::Malformed(format!(
                        "expected an answer to submission {id}, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Requests the daemon's live observability report — the rendered
    /// workspace metrics registry plus the per-worker fleet health
    /// snapshot — as a deterministic text body.
    ///
    /// # Errors
    ///
    /// Transport failures, malformed frames, and
    /// [`ServeError::Server`] when the daemon answered with an error
    /// frame.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &ServeMessage::Stats { id }.encode())?;
        let frame = self.reader.read_frame()?.ok_or_else(|| {
            ServeError::Io("the sweep server closed the connection mid-stats-request".to_string())
        })?;
        match ServeMessage::decode(&frame)? {
            ServeMessage::StatsReport { id: got, body } if got == id => Ok(body),
            ServeMessage::Error { id: got, message } if got == id => {
                Err(ServeError::Server(message))
            }
            other => Err(ServeError::Malformed(format!(
                "expected an answer to stats request {id}, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to shut down (used by tests and CI teardown) and
    /// consumes the client.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown_server(mut self) -> Result<(), ServeError> {
        write_frame(&mut self.writer, &ServeMessage::Shutdown.encode())?;
        Ok(())
    }
}
