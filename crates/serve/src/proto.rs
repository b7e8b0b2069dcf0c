//! The `ptguard-serve` wire protocol: length-prefixed, CRC-checked binary
//! frames over a byte stream.
//!
//! ```text
//! frame := len:u32le  body:[len bytes]  crc:u32le
//! body  := opcode:u8  payload
//! ```
//!
//! `crc` is CRC-32 (IEEE) of the whole body. `len` counts the body only
//! and is bounded by [`MAX_BODY`]; anything larger is rejected before a
//! single payload byte is read, so a corrupt length cannot make the server
//! buffer garbage.
//! All integers are little-endian; a cacheline travels as its 64 raw bytes.
//!
//! Request payloads (embed / verify / correct share one shape):
//!
//! ```text
//! id:u64  addr:u64  line:[64]        (shutdown has no payload)
//! ```
//!
//! Responses echo the request `id` and set the response bit (`0x80`) on the
//! opcode. Any malformed frame — bad CRC, oversized length, truncated body,
//! unknown opcode, wrong payload size — poisons only its own connection:
//! the server drops that connection and keeps serving the others.

use std::io::{self, Read, Write};

use pagetable::CACHELINE_SIZE;
use ptguard::Line;
use trace::format::crc32;

/// Request opcode: compute and embed a MAC.
pub const OP_EMBED: u8 = 0x01;
/// Request opcode: verify an embedded MAC.
pub const OP_VERIFY: u8 = 0x02;
/// Request opcode: verify, then attempt best-effort correction on mismatch.
pub const OP_CORRECT: u8 = 0x03;
/// Control opcode: graceful shutdown (drain, flush stats, close).
pub const OP_SHUTDOWN: u8 = 0x7f;
/// Bit set on every response opcode.
pub const RESP_BIT: u8 = 0x80;

/// Largest legal body (opcode + payload). The biggest real body is an
/// embed/verify/correct request at `1 + 8 + 8 + 64 = 81` bytes.
pub const MAX_BODY: usize = 128;

/// `verify` response status: MAC verified.
pub const ST_VERIFIED: u8 = 0;
/// `verify` response status: MAC mismatch.
pub const ST_MISMATCH: u8 = 1;
/// `correct` response status: MAC verified exactly, no correction needed.
pub const ST_INTACT: u8 = 0;
/// `correct` response status: a guess soft-matched; corrected line follows.
pub const ST_CORRECTED: u8 = 1;
/// `correct` response status: every guess failed.
pub const ST_UNCORRECTABLE: u8 = 2;

/// A wire-protocol violation. [`WireError::Io`] is the transport failing;
/// everything else is a malformed frame from the peer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (including mid-frame disconnects).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_BODY`].
    Oversized(u32),
    /// The body CRC did not match.
    BadCrc,
    /// The body was structurally invalid (opcode / payload size).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Oversized(n) => write!(f, "oversized frame: {n} > {MAX_BODY} bytes"),
            WireError::BadCrc => write!(f, "frame CRC mismatch"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Compute the MAC of `line` at `addr` and embed it.
    Embed {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Physical address the MAC binds to.
        addr: u64,
        /// The line to protect.
        line: Line,
    },
    /// Verify the MAC embedded in `line` against `addr`.
    Verify {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Physical address the MAC binds to.
        addr: u64,
        /// The protected line (MAC embedded in bits 51:40 of each word).
        line: Line,
    },
    /// Verify, and on mismatch run the best-effort corrector.
    Correct {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Physical address the MAC binds to.
        addr: u64,
        /// The (possibly faulty) protected line.
        line: Line,
    },
    /// Graceful shutdown: drain in-flight batches, flush stats, close.
    Shutdown,
}

impl Request {
    /// The request's correlation id (`0` for the shutdown control frame).
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Request::Embed { id, .. }
            | Request::Verify { id, .. }
            | Request::Correct { id, .. } => id,
            Request::Shutdown => 0,
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Embed result: the line with its MAC in place.
    Embedded {
        /// Echoed request id.
        id: u64,
        /// The protected line.
        line: Line,
    },
    /// Verify result.
    Verified {
        /// Echoed request id.
        id: u64,
        /// Whether the MAC matched exactly.
        ok: bool,
    },
    /// Correct result: intact, or corrected with the recovered line.
    Corrected {
        /// Echoed request id.
        id: u64,
        /// [`ST_INTACT`] or [`ST_CORRECTED`].
        status: u8,
        /// Guesses the corrector spent (0 when intact).
        guesses: u32,
        /// Correction step index (0 soft-match, 1 flip-and-check, 2
        /// zero-reset, 3 majority/contiguity; `0xff` when intact).
        step: u8,
        /// The verified or corrected line.
        line: Line,
    },
    /// Correct result: every guess failed.
    Uncorrectable {
        /// Echoed request id.
        id: u64,
        /// Guesses spent before giving up.
        guesses: u32,
    },
    /// Shutdown acknowledgement, carrying the final service counters.
    ShutdownAck {
        /// Requests served over the server's lifetime.
        served: u64,
        /// MAC batches drained over the server's lifetime.
        batches: u64,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn put_line(buf: &mut Vec<u8>, line: &Line) {
    buf.extend_from_slice(&line.to_bytes());
}

fn get_line(b: &[u8]) -> Line {
    let bytes: [u8; CACHELINE_SIZE] = b[..CACHELINE_SIZE].try_into().expect("64 bytes");
    Line::from_bytes(&bytes)
}

/// Encodes a `(id, addr, line)` request body.
fn encode_ial(out: &mut Vec<u8>, op: u8, id: u64, addr: u64, line: &Line) {
    out.push(op);
    put_u64(out, id);
    put_u64(out, addr);
    put_line(out, line);
}

impl Request {
    /// Encodes the request body (opcode + payload) into `out` (cleared
    /// first; capacity is reused across calls).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Request::Embed { id, addr, line } => encode_ial(out, OP_EMBED, *id, *addr, line),
            Request::Verify { id, addr, line } => encode_ial(out, OP_VERIFY, *id, *addr, line),
            Request::Correct { id, addr, line } => encode_ial(out, OP_CORRECT, *id, *addr, line),
            Request::Shutdown => out.push(OP_SHUTDOWN),
        }
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] for an unknown opcode or a payload
    /// of the wrong size.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let (&op, payload) = body
            .split_first()
            .ok_or(WireError::Malformed("empty body"))?;
        let ial = |payload: &[u8]| -> Result<(u64, u64, Line), WireError> {
            if payload.len() != 16 + CACHELINE_SIZE {
                return Err(WireError::Malformed("bad request payload size"));
            }
            Ok((
                get_u64(payload),
                get_u64(&payload[8..]),
                get_line(&payload[16..]),
            ))
        };
        match op {
            OP_EMBED => {
                let (id, addr, line) = ial(payload)?;
                Ok(Request::Embed { id, addr, line })
            }
            OP_VERIFY => {
                let (id, addr, line) = ial(payload)?;
                Ok(Request::Verify { id, addr, line })
            }
            OP_CORRECT => {
                let (id, addr, line) = ial(payload)?;
                Ok(Request::Correct { id, addr, line })
            }
            OP_SHUTDOWN => {
                if payload.is_empty() {
                    Ok(Request::Shutdown)
                } else {
                    Err(WireError::Malformed("shutdown takes no payload"))
                }
            }
            _ => Err(WireError::Malformed("unknown opcode")),
        }
    }
}

impl Response {
    /// Encodes the response body (opcode + payload) into `out` (cleared
    /// first; capacity is reused across calls).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::Embedded { id, line } => {
                out.push(OP_EMBED | RESP_BIT);
                put_u64(out, *id);
                put_line(out, line);
            }
            Response::Verified { id, ok } => {
                out.push(OP_VERIFY | RESP_BIT);
                put_u64(out, *id);
                out.push(if *ok { ST_VERIFIED } else { ST_MISMATCH });
            }
            Response::Corrected {
                id,
                status,
                guesses,
                step,
                line,
            } => {
                out.push(OP_CORRECT | RESP_BIT);
                put_u64(out, *id);
                out.push(*status);
                put_u32(out, *guesses);
                out.push(*step);
                put_line(out, line);
            }
            Response::Uncorrectable { id, guesses } => {
                out.push(OP_CORRECT | RESP_BIT);
                put_u64(out, *id);
                out.push(ST_UNCORRECTABLE);
                put_u32(out, *guesses);
            }
            Response::ShutdownAck { served, batches } => {
                out.push(OP_SHUTDOWN | RESP_BIT);
                put_u64(out, *served);
                put_u64(out, *batches);
            }
        }
    }

    /// Decodes a response body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] for an unknown opcode or a payload
    /// of the wrong size.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let (&op, p) = body
            .split_first()
            .ok_or(WireError::Malformed("empty body"))?;
        match op {
            x if x == OP_EMBED | RESP_BIT => {
                if p.len() != 8 + CACHELINE_SIZE {
                    return Err(WireError::Malformed("bad embed response size"));
                }
                Ok(Response::Embedded {
                    id: get_u64(p),
                    line: get_line(&p[8..]),
                })
            }
            x if x == OP_VERIFY | RESP_BIT => {
                if p.len() != 9 {
                    return Err(WireError::Malformed("bad verify response size"));
                }
                Ok(Response::Verified {
                    id: get_u64(p),
                    ok: p[8] == ST_VERIFIED,
                })
            }
            x if x == OP_CORRECT | RESP_BIT => match p.get(8) {
                Some(&ST_UNCORRECTABLE) => {
                    if p.len() != 13 {
                        return Err(WireError::Malformed("bad uncorrectable response size"));
                    }
                    Ok(Response::Uncorrectable {
                        id: get_u64(p),
                        guesses: get_u32(&p[9..]),
                    })
                }
                Some(&status @ (ST_INTACT | ST_CORRECTED)) => {
                    if p.len() != 14 + CACHELINE_SIZE {
                        return Err(WireError::Malformed("bad correct response size"));
                    }
                    Ok(Response::Corrected {
                        id: get_u64(p),
                        status,
                        guesses: get_u32(&p[9..]),
                        step: p[13],
                        line: get_line(&p[14..]),
                    })
                }
                _ => Err(WireError::Malformed("bad correct response status")),
            },
            x if x == OP_SHUTDOWN | RESP_BIT => {
                if p.len() != 16 {
                    return Err(WireError::Malformed("bad shutdown ack size"));
                }
                Ok(Response::ShutdownAck {
                    served: get_u64(p),
                    batches: get_u64(&p[8..]),
                })
            }
            _ => Err(WireError::Malformed("unknown response opcode")),
        }
    }
}

/// Writes one frame (`len + body + crc`) for an already-encoded body.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_BODY);
    w.write_all(&(u32::try_from(body.len()).expect("body fits u32")).to_le_bytes())?;
    w.write_all(body)?;
    w.write_all(&crc32(body).to_le_bytes())
}

/// Reads one frame body into `buf` (reused across calls: no steady-state
/// allocation once `buf` has [`MAX_BODY`] capacity). Returns `false` on a
/// clean end-of-stream at a frame boundary.
///
/// # Errors
///
/// [`WireError::Oversized`] for a length prefix above [`MAX_BODY`],
/// [`WireError::BadCrc`] for a checksum mismatch, and [`WireError::Io`]
/// for transport errors — including a peer disconnecting mid-frame, which
/// surfaces as `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, WireError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte is a normal close; EOF after one
    // or more is a mid-frame disconnect.
    match r.read(&mut len_bytes) {
        Ok(0) => return Ok(false),
        Ok(n) => r.read_exact(&mut len_bytes[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            r.read_exact(&mut len_bytes)?;
        }
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len as usize > MAX_BODY {
        return Err(WireError::Oversized(len));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    if u32::from_le_bytes(crc_bytes) != crc32(buf) {
        return Err(WireError::BadCrc);
    }
    Ok(true)
}

/// Encodes and writes a request in one call (scratch buffer reused).
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_request(w: &mut impl Write, req: &Request, scratch: &mut Vec<u8>) -> io::Result<()> {
    req.encode(scratch);
    write_frame(w, scratch)
}

/// Encodes and writes a response in one call (scratch buffer reused).
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_response(w: &mut impl Write, resp: &Response, scratch: &mut Vec<u8>) -> io::Result<()> {
    resp.encode(scratch);
    write_frame(w, scratch)
}

/// Reads and decodes one response frame. `None` on clean end-of-stream.
///
/// # Errors
///
/// Any [`WireError`] from framing or decoding.
pub fn read_response(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<Option<Response>, WireError> {
    if !read_frame(r, buf)? {
        return Ok(None);
    }
    Response::decode(buf).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seed: u64) -> Line {
        let mut words = [0u64; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((i as u64) << 12 | 0x27);
        }
        Line::from_words(words)
    }

    #[test]
    fn requests_roundtrip() {
        let mut buf = Vec::new();
        for req in [
            Request::Embed {
                id: 7,
                addr: 0x4000,
                line: line(1),
            },
            Request::Verify {
                id: u64::MAX,
                addr: 0,
                line: line(2),
            },
            Request::Correct {
                id: 0,
                addr: 0xdead_bec0,
                line: line(3),
            },
            Request::Shutdown,
        ] {
            req.encode(&mut buf);
            assert!(buf.len() <= MAX_BODY);
            assert_eq!(Request::decode(&buf).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let mut buf = Vec::new();
        for resp in [
            Response::Embedded {
                id: 9,
                line: line(4),
            },
            Response::Verified { id: 10, ok: true },
            Response::Verified { id: 11, ok: false },
            Response::Corrected {
                id: 12,
                status: ST_CORRECTED,
                guesses: 353,
                step: 1,
                line: line(5),
            },
            Response::Corrected {
                id: 13,
                status: ST_INTACT,
                guesses: 0,
                step: 0xff,
                line: line(6),
            },
            Response::Uncorrectable {
                id: 14,
                guesses: 372,
            },
            Response::ShutdownAck {
                served: 1 << 40,
                batches: 12345,
            },
        ] {
            resp.encode(&mut buf);
            assert!(buf.len() <= MAX_BODY);
            assert_eq!(Response::decode(&buf).unwrap(), resp);
        }
    }

    #[test]
    fn frame_roundtrips_through_a_byte_stream() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        let reqs = [
            Request::Embed {
                id: 1,
                addr: 64,
                line: line(7),
            },
            Request::Shutdown,
        ];
        for r in &reqs {
            send_request(&mut wire, r, &mut scratch).unwrap();
        }
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        for r in &reqs {
            assert!(read_frame(&mut cursor, &mut buf).unwrap());
            assert_eq!(Request::decode(&buf).unwrap(), *r);
        }
        assert!(!read_frame(&mut cursor, &mut buf).unwrap()); // clean EOF
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        send_request(
            &mut wire,
            &Request::Verify {
                id: 1,
                addr: 64,
                line: line(8),
            },
            &mut scratch,
        )
        .unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x40; // flip a CRC bit
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(WireError::BadCrc)
        ));
        // Flip a *body* bit instead: still a CRC mismatch.
        wire[last] ^= 0x40;
        wire[6] ^= 1;
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(WireError::BadCrc)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_reading_payload() {
        let wire = (MAX_BODY as u32 + 1).to_le_bytes();
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn truncation_is_an_io_error_not_a_hang_or_panic() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        send_request(
            &mut wire,
            &Request::Correct {
                id: 3,
                addr: 128,
                line: line(9),
            },
            &mut scratch,
        )
        .unwrap();
        // Every proper prefix must fail with Io (mid-frame EOF), except the
        // empty prefix, which is a clean end-of-stream.
        for cut in 1..wire.len() {
            let mut buf = Vec::new();
            assert!(
                matches!(
                    read_frame(&mut &wire[..cut], &mut buf),
                    Err(WireError::Io(_))
                ),
                "prefix of {cut} bytes should be a mid-frame disconnect"
            );
        }
        let mut buf = Vec::new();
        assert!(!read_frame(&mut &wire[..0], &mut buf).unwrap());
    }

    #[test]
    fn unknown_opcode_and_bad_sizes_are_malformed() {
        assert!(matches!(
            Request::decode(&[0x55]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Request::decode(&[OP_EMBED, 1, 2, 3]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(Request::decode(&[]), Err(WireError::Malformed(_))));
        assert!(matches!(
            Response::decode(&[OP_VERIFY | RESP_BIT, 0]),
            Err(WireError::Malformed(_))
        ));
    }
}
