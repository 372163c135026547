//! Length-prefixed framing over any byte stream.
//!
//! A frame is a header line `frame <len>\n` followed by exactly `len`
//! payload bytes.  Frames delimit messages on a *long-lived* stream: the
//! reader always knows how many bytes belong to the current message, so
//! payloads may contain anything (including newlines and the header
//! literal) and a truncated stream is detected instead of silently
//! concatenating two messages.
//!
//! One byte loop parses frames: the incremental `FrameDecoder`, fed
//! whatever bytes have arrived.  The dispatcher's event loop feeds it
//! from non-blocking sockets and pipes; [`FrameReader`] feeds it from a
//! blocking stream (workers, the sweep daemon and its clients).

use std::io::{Read, Write};

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

/// Longest header line a well-formed frame can produce
/// (`frame <len>\n` with `len <= MAX_FRAME_BYTES`).
const MAX_HEADER_BYTES: usize = 32;

/// Parses a header line (without its `\n`) into the payload length.
/// The length is canonical decimal, at most [`MAX_FRAME_BYTES`].
fn parse_header(header: &[u8]) -> Result<usize, FleetError> {
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

/// Incremental frame parser: bytes are fed in as they arrive and
/// complete `frame <len>\n<payload>` frames are extracted, however the
/// reads happened to chunk them.  Nothing is allocated for a payload
/// before its bytes arrive, so a header alone costs nothing.
#[derive(Debug, Default)]
pub(crate) struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (drained lazily to amortise the memmove).
    start: usize,
}

impl FrameDecoder {
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Judges an end of stream: clean between frames, a truncation while
    /// bytes of an unfinished frame are pending.
    ///
    /// # Errors
    ///
    /// [`FleetError::Malformed`] when the stream ended inside a frame.
    pub(crate) fn finish(&self) -> Result<(), FleetError> {
        if self.start < self.buf.len() {
            return Err(FleetError::Malformed(
                "stream ended inside a frame".to_string(),
            ));
        }
        Ok(())
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FleetError::Malformed`] for a bad or oversized header, or a
    /// header line longer than any well-formed one.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FleetError> {
        let pending = &self.buf[self.start..];
        let Some(newline) = pending.iter().position(|&byte| byte == b'\n') else {
            if pending.len() > MAX_HEADER_BYTES {
                return Err(FleetError::Malformed(format!(
                    "frame header exceeds {MAX_HEADER_BYTES} bytes"
                )));
            }
            self.compact();
            return Ok(None);
        };
        let len = parse_header(&pending[..newline])?;
        let total = newline + 1 + len;
        if pending.len() < total {
            self.compact();
            return Ok(None);
        }
        let frame = pending[newline + 1..total].to_vec();
        self.start += total;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Reads frames off a blocking byte stream: one `FrameDecoder` per
/// connection, fed with reads until a frame is complete.  Bytes past the
/// end of a frame stay buffered for the next call.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    decoder: FrameDecoder,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `inner` with nothing buffered yet.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            decoder: FrameDecoder::default(),
        }
    }

    /// Reads one frame, or `None` on a clean end of stream (no frame
    /// bytes pending).
    ///
    /// # Errors
    ///
    /// [`FleetError::Malformed`] for a bad or oversized header and for a
    /// stream that ends mid-frame (truncation); [`FleetError::Io`] for a
    /// transport failure.
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FleetError> {
        let mut buffer = [0u8; 8192];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(Some(frame));
            }
            match self.inner.read(&mut buffer) {
                Ok(0) => {
                    self.decoder.finish()?;
                    return Ok(None);
                }
                Ok(n) => self.decoder.feed(&buffer[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(wire: &[u8]) -> Result<Vec<Vec<u8>>, FleetError> {
        let mut reader = FrameReader::new(wire);
        let mut frames = Vec::new();
        while let Some(frame) = reader.read_frame()? {
            frames.push(frame);
        }
        Ok(frames)
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
            let mut wire = Vec::new();
            write_frame(&mut wire, payload).unwrap();
            assert_eq!(read_all(&wire).unwrap(), vec![payload.to_vec()]);
        }
    }

    #[test]
    fn consecutive_frames_do_not_bleed_into_each_other() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first\n").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut reader = FrameReader::new(wire.as_slice());
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"first\n");
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"second");
        assert!(reader.read_frame().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected() {
        // Payload cut short.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"twelve bytes").unwrap();
        wire.truncate(wire.len() - 5);
        // Header cut short (no trailing newline).
        for bad in [
            wire.as_slice(),
            b"frame 12",
            b"!!not-a-frame!!\n",
            b"frame zebra\n",
            format!("frame {}\n", MAX_FRAME_BYTES + 1).as_bytes(),
            &[b'x'; MAX_HEADER_BYTES + 1],
        ] {
            assert!(
                matches!(read_all(bad), Err(FleetError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        assert!(read_all(b"").unwrap().is_empty());
    }

    /// A reader that delivers one byte per `read` — the shape of a slow
    /// link, where every header and payload byte arrives on its own.
    struct OneByteReader<'a>(&'a [u8]);

    impl Read for OneByteReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some((&byte, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = byte;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn frames_reassemble_from_one_byte_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow but healthy\nframe body").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third").unwrap();
        let mut reader = FrameReader::new(OneByteReader(&wire));
        assert_eq!(
            reader.read_frame().unwrap().unwrap(),
            b"slow but healthy\nframe body"
        );
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"");
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"third");
        assert!(reader.read_frame().unwrap().is_none());
    }

    #[test]
    fn frame_decoder_tracks_mid_frame_state_for_truncation() {
        let mut decoder = FrameDecoder::default();
        decoder.feed(b"frame 4096\ntruncat");
        assert!(decoder.next_frame().unwrap().is_none(), "incomplete frame");
        assert!(
            matches!(decoder.finish(), Err(FleetError::Malformed(_))),
            "an EOF here is a truncation"
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, b"whole").unwrap();
        let mut decoder = FrameDecoder::default();
        decoder.feed(&wire);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b"whole");
        assert!(decoder.finish().is_ok(), "no partial frame left over");
    }
}
