//! Length-prefixed framing over any byte stream.
//!
//! A frame is a header line `frame <len>\n` followed by exactly `len`
//! payload bytes.  Frames delimit messages on a *long-lived* stream: the
//! reader always knows how many bytes belong to the current message, so
//! payloads may contain anything (including newlines and the header
//! literal) and a truncated stream is detected instead of silently
//! concatenating two messages.

use std::io::{BufRead, Write};

use crate::FleetError;

/// Upper bound on a frame payload.  Shard specs and accumulators are a
/// few kilobytes; anything near this limit is a corrupt header, and
/// rejecting it keeps a malformed length from allocating unbounded
/// memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one frame (header line + payload) and flushes the stream.
///
/// # Errors
///
/// [`FleetError::Malformed`] for an oversized payload, [`FleetError::Io`]
/// for a transport failure.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), FleetError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FleetError::Malformed(format!(
            "refusing to send a {}-byte frame (limit {MAX_FRAME_BYTES})",
            payload.len()
        )));
    }
    writer.write_all(format!("frame {}\n", payload.len()).as_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// True for the error kinds a read-timeout-configured stream produces
/// when no data arrived in time.
fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Longest header line a well-formed frame can produce
/// (`frame <len>\n` with `len <= MAX_FRAME_BYTES`).
pub(crate) const MAX_HEADER_BYTES: usize = 32;

/// Parses a header line (without its `\n`) into the payload length: the
/// one header rule [`read_frame`] and the event loop's incremental
/// decoder share.  The length is canonical decimal, at most
/// [`MAX_FRAME_BYTES`].
pub(crate) fn parse_header(header: &[u8]) -> Result<usize, FleetError> {
    let header = std::str::from_utf8(header)
        .map_err(|_| FleetError::Malformed("frame header is not UTF-8".into()))?;
    let len = header
        .strip_prefix("frame ")
        .and_then(crp_obs::parse_int::<usize>)
        .ok_or_else(|| FleetError::Malformed(format!("bad frame header {header:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(FleetError::Malformed(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    Ok(len)
}

/// Reads the header line byte-wise off the buffered stream, retrying
/// read timeouts: once a frame has *started* arriving the read is
/// committed — a slow link must never corrupt a half-read frame.
fn read_header_line(reader: &mut impl BufRead) -> Result<Option<Vec<u8>>, FleetError> {
    enum Step {
        Eof,
        Consumed { bytes: usize, complete: bool },
        Retry,
    }
    let mut header: Vec<u8> = Vec::new();
    loop {
        let step = match reader.fill_buf() {
            Ok([]) => Step::Eof,
            Ok(available) => match available.iter().position(|&byte| byte == b'\n') {
                Some(newline) => {
                    header.extend_from_slice(&available[..newline]);
                    Step::Consumed {
                        bytes: newline + 1,
                        complete: true,
                    }
                }
                None => {
                    header.extend_from_slice(available);
                    Step::Consumed {
                        bytes: available.len(),
                        complete: false,
                    }
                }
            },
            Err(e) if is_timeout(e.kind()) || e.kind() == std::io::ErrorKind::Interrupted => {
                Step::Retry
            }
            Err(e) => return Err(e.into()),
        };
        match step {
            Step::Eof if header.is_empty() => return Ok(None),
            Step::Eof => {
                return Err(FleetError::Malformed(
                    "stream ended inside a frame header".to_string(),
                ))
            }
            Step::Consumed { bytes, complete } => {
                reader.consume(bytes);
                if complete {
                    return Ok(Some(header));
                }
                if header.len() > MAX_HEADER_BYTES {
                    return Err(FleetError::Malformed(format!(
                        "frame header exceeds {MAX_HEADER_BYTES} bytes"
                    )));
                }
            }
            Step::Retry => {}
        }
    }
}

/// Reads one frame, or `None` on a clean end of stream (no header bytes
/// at all).
///
/// Read timeouts configured on the underlying stream are retried here,
/// never treated as the end of a frame already in flight on a slow
/// link.
///
/// # Errors
///
/// [`FleetError::Malformed`] for a bad or oversized header and for a
/// stream that ends mid-frame (truncation); [`FleetError::Io`] for a
/// transport failure.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<Vec<u8>>, FleetError> {
    let Some(header) = read_header_line(reader)? else {
        return Ok(None);
    };
    let len = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FleetError::Malformed(format!(
                    "frame truncated: expected {len} payload bytes, got {filled}"
                )));
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(e.kind()) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        read_frame(&mut reader).unwrap().unwrap()
    }

    #[test]
    fn frames_round_trip_arbitrary_payloads() {
        for payload in [
            b"".as_slice(),
            b"hello",
            b"line one\nline two\n",
            b"frame 12\nnested header literal",
            &[0u8, 255, 10, 13, 0],
        ] {
            assert_eq!(round_trip(payload), payload);
        }
    }

    #[test]
    fn consecutive_frames_do_not_bleed_into_each_other() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first\n").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"first\n");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"second");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected() {
        // Payload cut short.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"twelve bytes").unwrap();
        wire.truncate(wire.len() - 5);
        let mut reader = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FleetError::Malformed(_))
        ));
        // Header cut short (no trailing newline).
        let mut reader = BufReader::new(b"frame 12".as_slice());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FleetError::Malformed(_))
        ));
        // Not a frame header at all.
        let mut reader = BufReader::new(b"!!not-a-frame!!\n".as_slice());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FleetError::Malformed(_))
        ));
        // Unparsable and oversized lengths.
        let mut reader = BufReader::new(b"frame zebra\n".as_slice());
        assert!(read_frame(&mut reader).is_err());
        let huge = format!("frame {}\n", MAX_FRAME_BYTES + 1);
        let mut reader = BufReader::new(huge.as_bytes());
        assert!(read_frame(&mut reader).is_err());
        // Writers refuse oversized payloads outright (no allocation test —
        // just the length check, exercised via the error path above).
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        let mut reader = BufReader::new(b"".as_slice());
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    /// A reader that delivers its bytes in tiny chunks with a read
    /// timeout (`WouldBlock`) before every one — the shape of a slow TCP
    /// link under a 100ms poll timeout.
    struct ChoppyReader {
        bytes: Vec<u8>,
        offset: usize,
        ready: bool,
    }

    impl std::io::Read for ChoppyReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            if self.offset >= self.bytes.len() {
                return Ok(0);
            }
            // One byte at a time, so every header byte and every payload
            // byte is preceded by a timeout.
            buf[0] = self.bytes[self.offset];
            self.offset += 1;
            Ok(1)
        }
    }

    #[test]
    fn read_timeouts_mid_frame_are_retried_not_fatal() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow but healthy\nframe body").unwrap();
        let mut reader = BufReader::new(ChoppyReader {
            bytes: wire,
            offset: 0,
            ready: false,
        });
        // Once the frame starts, read_frame must ride the timeouts out.
        assert_eq!(
            read_frame(&mut reader).unwrap().unwrap(),
            b"slow but healthy\nframe body"
        );
        assert!(read_frame(&mut reader).unwrap().is_none());
    }
}
