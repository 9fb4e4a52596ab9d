//! v2 binary framing and per-connection version sniffing.
//!
//! A v2 frame on the wire is:
//!
//! ```text
//! +------+------+----------------+--------------------+--------------+
//! | 0xB2 | 0x02 | uvarint len    | payload (len bytes)| crc32 (LE)   |
//! +------+------+----------------+--------------------+--------------+
//!  sniff  version LEB128, <=10 B  tag byte + body      over payload
//! ```
//!
//! `0xB2` is a UTF-8 continuation byte, so no JSON text (which is valid
//! UTF-8) can ever start with it — that single byte is the whole version
//! negotiation: a reader peeks one byte per message and routes to the v1
//! line reader or the v2 frame reader ([`sniff`]). Peers may even switch
//! versions between messages on one connection.
//!
//! Oversized frames are *drained* before the error is reported, so a
//! too-large declared length costs bounded memory and leaves the stream
//! correctly framed for an error reply.

use crate::codec::{crc32, put_uvarint, read_uvarint, MAX_UVARINT_BYTES};
use crate::error::{Result, WireError};
use std::io::{BufRead, Read, Write};

/// First byte of every v2 frame. Deliberately outside ASCII and not a valid
/// UTF-8 leading byte, so v1 (JSON) and v2 traffic cannot be confused.
pub const V2_SNIFF: u8 = 0xB2;

/// Wire version byte following the sniff byte.
pub const V2_VERSION: u8 = 0x02;

/// Cap on a v2 payload, matching the v1 line cap so neither protocol can
/// demand unbounded buffering.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// What the first byte of the next message says about its protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sniff {
    /// Clean end of stream — no more messages.
    Eof,
    /// The next message is a v1 JSON line (nothing consumed).
    V1,
    /// The next message is a v2 frame (the sniff byte was consumed).
    V2,
}

/// Peeks at the next message's first byte without committing to a protocol.
///
/// Returns [`Sniff::V2`] (consuming the sniff byte) when it is [`V2_SNIFF`],
/// [`Sniff::V1`] (consuming nothing) otherwise, and [`Sniff::Eof`] on a
/// clean end of stream.
pub fn sniff<R: BufRead + ?Sized>(r: &mut R) -> std::io::Result<Sniff> {
    let buf = r.fill_buf()?;
    if buf.is_empty() {
        return Ok(Sniff::Eof);
    }
    if buf[0] == V2_SNIFF {
        r.consume(1);
        Ok(Sniff::V2)
    } else {
        Ok(Sniff::V1)
    }
}

/// Writes one complete v2 frame (header, payload, checksum) with a single
/// `write_all`.
///
/// The frame is assembled in one buffer first: on a `TCP_NODELAY` socket
/// every `write` leaves as its own segment, so writing the three parts
/// separately would cost three segments per message. The caller flushes.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<()> {
    let mut buf = Vec::with_capacity(2 + MAX_UVARINT_BYTES + payload.len() + 4);
    buf.push(V2_SNIFF);
    buf.push(V2_VERSION);
    put_uvarint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one v2 frame body into `buf`, assuming the sniff byte was already
/// consumed (by [`sniff`]). On success `buf` holds exactly the payload.
///
/// Error contract, chosen so a server can keep serving whenever possible:
///
/// * [`WireError::BadMagic`] — unknown version byte; **fatal**, the stream
///   cannot be re-framed.
/// * [`WireError::FrameTooLarge`] — declared length above `limit`; the
///   frame (payload + checksum) is drained first, so this is recoverable.
/// * [`WireError::ChecksumMismatch`] — payload corrupt but boundaries
///   intact; recoverable.
/// * [`WireError::Truncated`] — peer hung up mid-frame; fatal.
pub fn read_frame<R: BufRead + ?Sized>(r: &mut R, buf: &mut Vec<u8>, limit: usize) -> Result<()> {
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != V2_VERSION {
        return Err(WireError::BadMagic { got: version[0] });
    }
    let len = read_uvarint(r)?;
    if len > limit as u64 {
        // Drain payload + checksum so the stream stays framed. A declared
        // length the peer never sends just turns into Truncated/Io here.
        let drained = std::io::copy(&mut r.take(len.saturating_add(4)), &mut std::io::sink())
            .map_err(WireError::from)?;
        if drained < len.saturating_add(4) {
            return Err(WireError::Truncated);
        }
        return Err(WireError::FrameTooLarge {
            got: usize::try_from(len).unwrap_or(usize::MAX),
            limit,
        });
    }
    let len = len as usize;
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32(buf);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    /// Counts `write` calls; on a `TCP_NODELAY` socket each one is a segment.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_header_payload_and_checksum() {
        for payload in [&b""[..], b"x", &[0x5Au8; 300]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            let mut want = vec![V2_SNIFF, V2_VERSION];
            put_uvarint(&mut want, payload.len() as u64);
            want.extend_from_slice(payload);
            want.extend_from_slice(&crc32(payload).to_le_bytes());
            assert_eq!(w.bytes, want, "{}-byte payload", payload.len());
        }
    }

    #[test]
    fn frame_round_trips_and_sniffs_as_v2() {
        let wire = framed(b"hello wire");
        let mut r = Cursor::new(wire);
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        let mut buf = Vec::new();
        read_frame(&mut r, &mut buf, MAX_FRAME_BYTES).unwrap();
        assert_eq!(buf, b"hello wire");
        assert_eq!(sniff(&mut r).unwrap(), Sniff::Eof);
    }

    #[test]
    fn json_lines_sniff_as_v1_without_consuming() {
        let mut r = Cursor::new(b"{\"cmd\":\"ping\"}\n".to_vec());
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V1);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut r, &mut line).unwrap();
        assert_eq!(line, "{\"cmd\":\"ping\"}\n");
    }

    #[test]
    fn empty_payload_frames_are_valid() {
        let wire = framed(b"");
        let mut r = Cursor::new(wire);
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        let mut buf = vec![1, 2, 3];
        read_frame(&mut r, &mut buf, MAX_FRAME_BYTES).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch_and_keeps_framing() {
        let mut wire = framed(b"abcdef");
        let payload_start = wire.len() - 4 - 6;
        wire[payload_start] ^= 0x01;
        // A healthy frame follows the corrupt one on the same stream.
        wire.extend_from_slice(&framed(b"next"));
        let mut r = Cursor::new(wire);
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut buf, MAX_FRAME_BYTES),
            Err(WireError::ChecksumMismatch { .. })
        ));
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        read_frame(&mut r, &mut buf, MAX_FRAME_BYTES).unwrap();
        assert_eq!(buf, b"next");
    }

    #[test]
    fn unknown_version_byte_is_bad_magic() {
        let mut wire = framed(b"x");
        wire[1] = 0x7F;
        let mut r = Cursor::new(wire);
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut buf, MAX_FRAME_BYTES),
            Err(WireError::BadMagic { got: 0x7F })
        ));
    }

    #[test]
    fn oversized_frame_is_drained_so_the_stream_stays_framed() {
        let big = vec![0xAAu8; 100];
        let mut wire = framed(&big);
        wire.extend_from_slice(&framed(b"after"));
        let mut r = Cursor::new(wire);
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut buf, 16),
            Err(WireError::FrameTooLarge { got: 100, limit: 16 })
        ));
        // The oversized frame was fully consumed; the next one is intact.
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        read_frame(&mut r, &mut buf, 16).unwrap();
        assert_eq!(buf, b"after");
    }

    #[test]
    fn truncation_anywhere_reports_truncated_not_a_panic() {
        let wire = framed(b"some payload bytes");
        for cut in 1..wire.len() {
            let mut r = Cursor::new(wire[..cut].to_vec());
            if sniff(&mut r).unwrap() != Sniff::V2 {
                continue;
            }
            let mut buf = Vec::new();
            let err = read_frame(&mut r, &mut buf, MAX_FRAME_BYTES).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
    }

    #[test]
    fn oversized_frame_with_missing_tail_is_truncated() {
        // Declares 1 GiB but sends nothing after the header.
        let mut wire = vec![V2_SNIFF, V2_VERSION];
        put_uvarint(&mut wire, 1 << 30);
        let mut r = Cursor::new(wire);
        assert_eq!(sniff(&mut r).unwrap(), Sniff::V2);
        let mut buf = Vec::new();
        assert!(matches!(read_frame(&mut r, &mut buf, MAX_FRAME_BYTES), Err(WireError::Truncated)));
    }
}
