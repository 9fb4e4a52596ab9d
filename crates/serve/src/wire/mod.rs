//! Version-negotiating transport: one reader/writer pair that speaks both
//! wire protocols.
//!
//! * **v1** — newline-delimited JSON, byte-compatible with the original
//!   `serde_json`-backed codec (see [`v1`]). What `netcat` and every
//!   pre-existing client speaks.
//! * **v2** — length-prefixed checksummed binary frames (see [`v2`] and
//!   [`taf_wire::frame`]). Dense `f64` payloads (`y` vectors, snapshot
//!   matrices) cross the wire as raw little-endian bytes instead of decimal
//!   text.
//!
//! Negotiation is per *message*, not per connection: every read starts by
//! sniffing one byte. `{` (or any other non-`0xB2` byte) routes to the v1
//! line reader; [`taf_wire::frame::V2_SNIFF`] routes to the v2 frame reader.
//! `0xB2` is not valid lead byte of UTF-8 text, so the two protocols cannot
//! be confused. The server replies in whichever version the request arrived
//! in, so a v1 client and a v2 client can share one server — even one
//! connection, handed from one to the other.

use crate::protocol::{Request, Response, MAX_LINE_BYTES};
use crate::{Result, ServeError};
use std::io::{BufRead, Write};
use taf_wire::frame::{self, Sniff};

pub mod v1;
pub mod v2;

/// Which protocol a message (or a client) speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireVersion {
    /// Newline-delimited JSON — the compatibility default.
    #[default]
    V1Json,
    /// Length-prefixed checksummed binary frames.
    V2Binary,
}

/// Serializes one request in `version` framing and flushes.
pub fn write_request<W: Write>(w: &mut W, req: &Request, version: WireVersion) -> Result<()> {
    write_message(w, req, version, v1::encode_request, v2::encode_request)
}

/// Serializes one response in `version` framing and flushes.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, version: WireVersion) -> Result<()> {
    write_message(w, resp, version, v1::encode_response, v2::encode_response)
}

/// Encodes `msg` and hands the whole message to `w` in one `write_all`, in
/// both protocols: each `write` on a `TCP_NODELAY` socket is a segment.
fn write_message<W: Write, T>(
    w: &mut W,
    msg: &T,
    version: WireVersion,
    encode_v1: fn(&T, &mut Vec<u8>),
    encode_v2: fn(&T, &mut Vec<u8>),
) -> Result<()> {
    let mut buf = Vec::with_capacity(128);
    match version {
        WireVersion::V1Json => {
            encode_v1(msg, &mut buf);
            buf.push(b'\n');
            w.write_all(&buf)?;
        }
        WireVersion::V2Binary => {
            encode_v2(msg, &mut buf);
            frame::write_frame(w, &buf).map_err(ServeError::from)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one request, sniffing its protocol version first. `version` is
/// updated to the sniffed protocol *before* any decoding, so the caller can
/// answer an undecodable message in the framing its sender understands.
/// `Ok(None)` is a clean end of stream.
pub fn read_request<R: BufRead>(r: &mut R, version: &mut WireVersion) -> Result<Option<Request>> {
    read_message(r, version, v1::decode_request, v2::decode_request)
}

/// Reads one response, sniffing its protocol version first (see
/// [`read_request`]).
pub fn read_response<R: BufRead>(r: &mut R, version: &mut WireVersion) -> Result<Option<Response>> {
    read_message(r, version, v1::decode_response, v2::decode_response)
}

fn read_message<R: BufRead, T>(
    r: &mut R,
    version: &mut WireVersion,
    decode_v1: fn(&str) -> Result<T>,
    decode_v2: fn(&[u8]) -> Result<T>,
) -> Result<Option<T>> {
    let mut line = Vec::new();
    loop {
        match frame::sniff(r)? {
            Sniff::Eof => return Ok(None),
            Sniff::V2 => {
                *version = WireVersion::V2Binary;
                line.clear();
                frame::read_frame(r, &mut line, frame::MAX_FRAME_BYTES)
                    .map_err(ServeError::from)?;
                return decode_v2(&line).map(Some);
            }
            Sniff::V1 => {
                *version = WireVersion::V1Json;
                let n = read_bounded_line(r, &mut line, MAX_LINE_BYTES)?;
                if n == 0 {
                    return Ok(None);
                }
                let text = std::str::from_utf8(&line)
                    .map_err(|_| ServeError::Wire(taf_wire::WireError::BadUtf8))?;
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue; // blank keep-alive line; sniff the next message
                }
                return decode_v1(trimmed).map(Some);
            }
        }
    }
}

/// Reads one line of at most `limit` bytes (newline included) into `buf`.
///
/// Unlike `BufRead::read_line`, the cap is enforced *while reading*: an
/// attacker streaming an endless unterminated line is cut off at the cap
/// instead of growing the buffer without bound. On overflow the reader
/// drains (without buffering) through the terminating newline so the
/// connection stays framed, then reports [`ServeError::OversizedLine`] with
/// the true line size. Returns the bytes consumed; `0` means clean EOF.
pub fn read_bounded_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>, limit: usize) -> Result<usize> {
    buf.clear();
    let mut total = 0usize;
    let mut overflowed = false;
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            // EOF. A partial unterminated line is handed to the caller;
            // oversize still errors below.
            break;
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (&available[..=i], true),
            None => (available, false),
        };
        let used = chunk.len();
        total += used;
        if !overflowed {
            if buf.len() + used > limit {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        r.consume(used);
        if done {
            break;
        }
    }
    if overflowed {
        return Err(ServeError::OversizedLine { got: total, limit });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ALL_ENDPOINTS;
    use crate::protocol::{Fix, SiteInfo, StatsReport};
    use std::io::BufReader;
    use taf_linalg::Matrix;
    use taf_rfsim::{campaign, World, WorldConfig};
    use tafloc_core::db::FingerprintDb;
    use tafloc_core::system::{TafLoc, TafLocConfig};
    use tafloc_ingest::{BatchReport, LinkSample};

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

    /// One request per endpoint.
    fn every_request() -> Vec<Request> {
        let world = World::new(WorldConfig::small_test(), 97);
        let db =
            FingerprintDb::from_world(campaign::full_calibration(&world, 0.0, 6), &world).unwrap();
        let empty = campaign::empty_snapshot(&world, 0.0, 6);
        let config = TafLocConfig { ref_count: 6, ..Default::default() };
        let snapshot = TafLoc::calibrate(config, db, empty).unwrap().snapshot();
        let site = || "lab".to_string();
        let y = vec![-52.1, -48.7];
        let reqs = vec![
            Request::AddSite { site: site(), snapshot: Box::new(snapshot), day: 1.5, policy: None },
            Request::RemoveSite { site: site() },
            Request::ListSites,
            Request::Locate { site: site(), y: y.clone() },
            Request::LocateStream { site: site() },
            Request::LocateBatch { site: site(), ys: vec![y.clone(), vec![]] },
            Request::Ingest {
                site: site(),
                ref_cell: Some(3),
                day: 2.0,
                samples: vec![LinkSample { link: 1, t_s: 0.5, rss_dbm: -60.0 }],
            },
            Request::Track { site: site(), stream: "cart".into(), y: y.clone(), dt_s: 0.5 },
            Request::Detect { site: site(), stream: "door".into(), y },
            Request::MeasureRefs {
                site: site(),
                day: 3.0,
                columns: Matrix::from_vec(2, 2, vec![-50.0, -51.0, -52.0, -53.0]).unwrap(),
                empty: vec![-70.0, -71.0],
            },
            Request::Refresh { site: site() },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for e in ALL_ENDPOINTS {
            assert!(reqs.iter().any(|r| r.endpoint() == e), "no {} request", e.name());
        }
        reqs
    }

    /// One response per variant; the match fails to compile when a variant
    /// is added without a case here.
    fn every_response() -> Vec<Response> {
        let report = StatsReport {
            uptime_s: 2.5,
            conn_timeouts: 1,
            conn_resets: 0,
            conn_panics: 0,
            wire_frame_too_large: 0,
            wire_bad_magic: 0,
            wire_checksum_mismatch: 1,
            wire_bad_utf8: 0,
            wire_malformed: 0,
            endpoints: crate::metrics::Metrics::default().report(),
            sites: vec![],
            shards: vec![],
        };
        let resps = vec![
            Response::Error { message: "unknown site".into() },
            Response::SiteAdded { site: "lab".into(), links: 12, cells: 16 },
            Response::SiteRemoved { site: "lab".into() },
            Response::Sites {
                sites: vec![SiteInfo { site: "lab".into(), links: 12, cells: 16, version: 3 }],
            },
            Response::Located { cell: 4, x: 3.9, y: 5.1, distance_db: 2.31, version: 1 },
            Response::StreamLocated {
                cell: 7,
                x: 0.5,
                y: 1.5,
                distance_db: 4.75,
                version: 2,
                missing_links: vec![1],
                stale_links: vec![],
                stream_t_s: 12.25,
                window_samples: 240,
            },
            Response::LocatedBatch {
                fixes: vec![Fix { cell: 1, x: 0.0, y: 0.0, distance_db: 1.5 }],
                version: 4,
            },
            Response::Ingested { report: BatchReport { accepted: 10, ..Default::default() } },
            Response::Tracked { x: 2.25, y: 3.5, effective_sample_size: 480.5 },
            Response::Detected { present: true, detail: "cusum".into() },
            Response::RefsAccepted { recommendation: "healthy".into(), estimated_error_db: 0.5 },
            Response::Refreshed {
                iterations: 12,
                converged: true,
                mean_abs_change_db: 0.75,
                version: 5,
            },
            Response::Stats { report },
            Response::Pong,
            Response::ShuttingDown,
            Response::Overloaded {
                site: "lab".into(),
                shard: 0,
                reason: "deferred".into(),
                retry_after_ms: 25,
            },
        ];
        let variant = |r: &Response| match r {
            Response::Error { .. } => 0,
            Response::SiteAdded { .. } => 1,
            Response::SiteRemoved { .. } => 2,
            Response::Sites { .. } => 3,
            Response::Located { .. } => 4,
            Response::StreamLocated { .. } => 5,
            Response::LocatedBatch { .. } => 6,
            Response::Ingested { .. } => 7,
            Response::Tracked { .. } => 8,
            Response::Detected { .. } => 9,
            Response::RefsAccepted { .. } => 10,
            Response::Refreshed { .. } => 11,
            Response::Stats { .. } => 12,
            Response::Pong => 13,
            Response::ShuttingDown => 14,
            Response::Overloaded { .. } => 15,
        };
        assert!(resps.iter().map(variant).eq(0..16), "one response per variant, in order");
        resps
    }

    #[test]
    fn every_message_is_one_write_in_both_versions() {
        for version in [WireVersion::V1Json, WireVersion::V2Binary] {
            for req in every_request() {
                let mut w = CountingWriter::default();
                write_request(&mut w, &req, version).unwrap();
                assert_eq!(w.writes, 1, "{version:?} {:?}", req.endpoint());
                let mut ver = WireVersion::V1Json;
                let back = read_request(&mut BufReader::new(&w.bytes[..]), &mut ver).unwrap();
                assert_eq!(back.map(|r| r.endpoint()), Some(req.endpoint()));
                assert_eq!(ver, version);
            }
            for resp in every_response() {
                let mut w = CountingWriter::default();
                write_response(&mut w, &resp, version).unwrap();
                assert_eq!(w.writes, 1, "{version:?} {resp:?}");
                let mut ver = WireVersion::V1Json;
                let back = read_response(&mut BufReader::new(&w.bytes[..]), &mut ver).unwrap();
                assert!(back.is_some(), "{version:?} {resp:?} reads back");
                assert_eq!(ver, version);
            }
        }
    }

    #[test]
    fn bounded_reader_enforces_the_cap_and_stays_framed() {
        // A 100-byte line against a 16-byte cap, followed by a small line:
        // the oversized line errors with its true size, and the next read
        // lands cleanly on the following line.
        let mut wire = vec![b'x'; 100];
        wire.push(b'\n');
        wire.extend_from_slice(b"ok\n");
        // Tiny BufReader capacity so the line spans many fill_buf chunks.
        let mut reader = BufReader::with_capacity(8, &wire[..]);
        let mut buf = Vec::new();
        let err = read_bounded_line(&mut reader, &mut buf, 16).unwrap_err();
        match err {
            ServeError::OversizedLine { got, limit } => {
                assert_eq!(got, 101, "true size, newline included");
                assert_eq!(limit, 16);
            }
            other => panic!("expected OversizedLine, got {other}"),
        }
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 16).unwrap(), 3);
        assert_eq!(buf, b"ok\n");
    }

    #[test]
    fn bounded_reader_handles_eof_and_exact_fit() {
        // Unterminated final line under the cap: delivered as-is.
        let mut reader = BufReader::with_capacity(4, "tail".as_bytes());
        let mut buf = Vec::new();
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 16).unwrap(), 4);
        assert_eq!(buf, b"tail");
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 16).unwrap(), 0, "clean EOF");
        // A line of exactly `limit` bytes fits; one more does not.
        let mut reader = BufReader::new("abc\nabcd\n".as_bytes());
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 4).unwrap(), 4);
        assert!(matches!(
            read_bounded_line(&mut reader, &mut buf, 4),
            Err(ServeError::OversizedLine { got: 5, limit: 4 })
        ));
        // Oversized unterminated line at EOF still errors.
        let mut reader = BufReader::new("xxxxxxxxxx".as_bytes());
        assert!(matches!(
            read_bounded_line(&mut reader, &mut buf, 4),
            Err(ServeError::OversizedLine { got: 10, limit: 4 })
        ));
    }

    #[test]
    fn requests_round_trip_in_both_versions_over_one_stream() {
        let reqs = [
            Request::Ping,
            Request::Locate { site: "lab".into(), y: vec![-50.0, -41.5] },
            Request::Refresh { site: "lab".into() },
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        // Interleave versions on the same stream: the reader renegotiates
        // per message.
        for (i, r) in reqs.iter().enumerate() {
            let v = if i % 2 == 0 { WireVersion::V1Json } else { WireVersion::V2Binary };
            write_request(&mut buf, r, v).unwrap();
        }
        let mut reader = BufReader::new(&buf[..]);
        let mut ver = WireVersion::V1Json;
        for (i, want) in reqs.iter().enumerate() {
            let got = read_request(&mut reader, &mut ver).unwrap().unwrap();
            let expect = if i % 2 == 0 { WireVersion::V1Json } else { WireVersion::V2Binary };
            assert_eq!(ver, expect, "sniffed version for message {i}");
            let mut a = Vec::new();
            let mut b = Vec::new();
            v1::encode_request(&got, &mut a);
            v1::encode_request(want, &mut b);
            assert_eq!(a, b, "message {i} survived the round trip");
        }
        assert!(read_request(&mut reader, &mut ver).unwrap().is_none());
    }

    #[test]
    fn blank_lines_are_skipped_and_garbage_rejected() {
        let mut reader = BufReader::new("\n\n{\"cmd\":\"ping\"}\nnot json\n".as_bytes());
        let mut ver = WireVersion::V1Json;
        let got = read_request(&mut reader, &mut ver).unwrap().unwrap();
        assert!(matches!(got, Request::Ping));
        assert!(matches!(
            read_request(&mut reader, &mut ver),
            Err(ServeError::Wire(taf_wire::WireError::Malformed(_)))
        ));
    }

    #[test]
    fn v2_checksum_and_frame_errors_surface_as_wire_errors() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping, WireVersion::V2Binary).unwrap();
        let n = buf.len();
        buf[n - 5] ^= 0x10; // flip a payload bit, invalidating the checksum
        let mut reader = BufReader::new(&buf[..]);
        let mut ver = WireVersion::V1Json;
        match read_request(&mut reader, &mut ver) {
            Err(ServeError::Wire(e)) => {
                assert!(matches!(e, taf_wire::WireError::ChecksumMismatch { .. }), "got {e:?}");
                assert!(e.is_recoverable());
            }
            other => panic!("expected a checksum error, got {other:?}"),
        }
        assert_eq!(ver, WireVersion::V2Binary, "version sniffed before the failure");
    }
}
