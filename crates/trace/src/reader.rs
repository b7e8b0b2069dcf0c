//! Trace decoder.
//!
//! The header is parsed by [`TraceReader::open`] so format errors surface
//! immediately; [`TraceReader::try_next`] then reads and decodes one chunk
//! at a time on the caller's thread, as the ops are consumed.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use pagetable::addr::VirtAddr;
use workloads::tracegen::Op;

use crate::error::TraceError;
use crate::format::{
    crc32, get_varint, unzigzag, MAGIC, MAX_CHUNK_OPS, TAG_COMPUTE_RUN, TAG_LOAD, TAG_STORE,
    TRAILER_SENTINEL, VERSION,
};

/// Decoded trace header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version of the stream.
    pub version: u16,
    /// Workload profile name the trace was generated from.
    pub profile: String,
    /// Generator seed.
    pub seed: u64,
    /// Total ops in the stream.
    pub op_count: u64,
}

/// Streaming reader over a trace produced by [`crate::TraceWriter`].
pub struct TraceReader {
    header: TraceHeader,
    input: Box<dyn Read + Send>,
    current: std::vec::IntoIter<Op>,
    /// Chunks decoded so far.
    chunks: u64,
    /// Ops decoded so far, checked against the trailer's count.
    decoded: u64,
    /// Set once the trailer's count checked out or an error was returned.
    finished: bool,
}

impl std::fmt::Debug for TraceReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("header", &self.header)
            .field("chunks", &self.chunks)
            .field("decoded", &self.decoded)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl TraceReader {
    /// Opens `path` and parses the header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(TraceError::Io)?;
        Self::new(BufReader::new(file))
    }

    /// Like [`open`](Self::open) over any [`Read`] stream.
    pub fn new<R: Read + Send + 'static>(mut input: R) -> Result<Self, TraceError> {
        let header = read_header(&mut input)?;
        Ok(Self {
            header,
            input: Box::new(input),
            current: Vec::new().into_iter(),
            chunks: 0,
            decoded: 0,
            finished: false,
        })
    }

    /// The stream's header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Returns the next op, `Ok(None)` at a clean end of stream, or the
    /// first decode error. After an error (or the end) the reader is
    /// exhausted and keeps returning `Ok(None)`.
    pub fn try_next(&mut self) -> Result<Option<Op>, TraceError> {
        loop {
            if let Some(op) = self.current.next() {
                return Ok(Some(op));
            }
            if self.finished {
                return Ok(None);
            }
            match self.next_chunk() {
                Ok(Some(ops)) => self.current = ops.into_iter(),
                Ok(None) => {
                    self.finished = true;
                    return Ok(None);
                }
                Err(e) => {
                    self.finished = true;
                    return Err(e);
                }
            }
        }
    }

    /// Reads and decodes the next chunk; `Ok(None)` once the trailer is
    /// reached and its count matches both the header and the ops decoded.
    fn next_chunk(&mut self) -> Result<Option<Vec<Op>>, TraceError> {
        let Some(ops) = read_chunk(&mut self.input, self.chunks)? else {
            let total = read_trailer_count(&mut self.input)?;
            if total == self.decoded && total == self.header.op_count {
                return Ok(None);
            }
            return Err(TraceError::CountMismatch {
                declared: self.header.op_count,
                actual: total,
            });
        };
        self.chunks += 1;
        self.decoded += ops.len() as u64;
        Ok(Some(ops))
    }
}

impl Iterator for TraceReader {
    type Item = Result<Op, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.try_next().transpose()
    }
}

fn read_header<R: Read>(input: &mut R) -> Result<TraceHeader, TraceError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(read_array(input)?);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let mut len = [0u8; 1];
    input.read_exact(&mut len)?;
    let mut name = vec![0u8; len[0] as usize];
    input.read_exact(&mut name)?;
    let profile = String::from_utf8(name)
        .map_err(|_| TraceError::Corrupt("profile name is not UTF-8".into()))?;
    let seed = u64::from_le_bytes(read_array(input)?);
    let op_count = u64::from_le_bytes(read_array(input)?);
    Ok(TraceHeader {
        version,
        profile,
        seed,
        op_count,
    })
}

fn read_array<R: Read, const N: usize>(input: &mut R) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    input.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads one chunk; `Ok(None)` means the trailer sentinel was seen.
fn read_chunk<R: Read>(input: &mut R, index: u64) -> Result<Option<Vec<Op>>, TraceError> {
    // Distinguish "no next chunk header at all" (truncated) only here; a
    // partial header/payload is truncation too, via the EOF → Truncated
    // mapping in `From<io::Error>`.
    let payload_len = u32::from_le_bytes(read_array(input)?);
    if payload_len == TRAILER_SENTINEL {
        return Ok(None);
    }
    let op_count = u32::from_le_bytes(read_array(input)?);
    if op_count > MAX_CHUNK_OPS {
        return Err(TraceError::Corrupt(format!(
            "chunk {index} declares {op_count} ops, above the {MAX_CHUNK_OPS}-op maximum"
        )));
    }
    // Grow the buffer with the bytes that arrive, not with the declared
    // length: a 4-byte field must not reserve 4 GiB.
    let mut payload = Vec::new();
    input
        .by_ref()
        .take(u64::from(payload_len))
        .read_to_end(&mut payload)?;
    if payload.len() != payload_len as usize {
        return Err(TraceError::Truncated);
    }
    let stored_crc = u32::from_le_bytes(read_array(input)?);
    if crc32(&payload) != stored_crc {
        return Err(TraceError::ChecksumMismatch { chunk: index });
    }
    decode_payload(&payload, op_count)
        .ok_or_else(|| TraceError::Corrupt(format!("undecodable payload in chunk {index}")))
        .map(Some)
}

/// Decodes a checksum-verified payload into ops; `None` on structural rot
/// (which a passing CRC makes astronomically unlikely, but a hand-built
/// stream can still be malformed).
fn decode_payload(payload: &[u8], op_count: u32) -> Option<Vec<Op>> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    let mut prev_addr = 0u64;
    while pos < payload.len() {
        let tag = payload[pos];
        pos += 1;
        let arg = get_varint(payload, &mut pos)?;
        match tag {
            TAG_COMPUTE_RUN => {
                // Bound by the chunk's declared op count (itself at most
                // `MAX_CHUNK_OPS`) before pushing, so a corrupt run length
                // can't balloon memory.
                if arg == 0 || (ops.len() as u64).saturating_add(arg) > u64::from(op_count) {
                    return None;
                }
                for _ in 0..arg {
                    ops.push(Op::Compute);
                }
            }
            TAG_LOAD | TAG_STORE => {
                prev_addr = prev_addr.wrapping_add(unzigzag(arg) as u64);
                let va = VirtAddr::new(prev_addr);
                ops.push(if tag == TAG_LOAD {
                    Op::Load(va)
                } else {
                    Op::Store(va)
                });
            }
            _ => return None,
        }
    }
    if ops.len() != op_count as usize {
        return None;
    }
    Some(ops)
}

fn read_trailer_count<R: Read>(input: &mut R) -> Result<u64, TraceError> {
    Ok(u64::from_le_bytes(read_array(input)?))
}
