//! Streaming trace encoder.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use pagetable::addr::VirtAddr;
use workloads::tracegen::Op;

use crate::error::TraceError;
use crate::format::{
    crc32, put_varint, zigzag, DEFAULT_CHUNK_OPS, MAGIC, MAX_CHUNK_OPS, TAG_COMPUTE_RUN, TAG_LOAD,
    TAG_STORE, TRAILER_SENTINEL, VERSION,
};

/// Encodes an [`Op`] stream into any [`Write`] sink, one chunk at a time.
///
/// The declared op count is written into the header up front (the sink is
/// never seeked), so the writer refuses to [`finish`](Self::finish) unless
/// exactly that many ops were pushed.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    declared_ops: u64,
    written_ops: u64,
    chunk_cap_ops: u32,
    /// Current chunk payload being assembled.
    payload: Vec<u8>,
    chunk_ops: u32,
    /// Delta base for the current chunk (resets to 0 at chunk boundaries).
    prev_addr: u64,
    /// Consecutive computes not yet emitted as a run record.
    pending_computes: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates `path` and writes the header for a `op_count`-op trace of
    /// `profile` generated with `seed`.
    pub fn create(
        path: &Path,
        profile: &str,
        seed: u64,
        op_count: u64,
    ) -> Result<Self, TraceError> {
        let file = File::create(path).map_err(TraceError::Io)?;
        Self::new(BufWriter::new(file), profile, seed, op_count)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `sink` and writes the header.
    pub fn new(mut sink: W, profile: &str, seed: u64, op_count: u64) -> Result<Self, TraceError> {
        assert!(
            profile.len() <= 255,
            "profile name too long for the u8 length prefix"
        );
        sink.write_all(&MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&[profile.len() as u8])?;
        sink.write_all(profile.as_bytes())?;
        sink.write_all(&seed.to_le_bytes())?;
        sink.write_all(&op_count.to_le_bytes())?;
        Ok(Self {
            sink,
            declared_ops: op_count,
            written_ops: 0,
            chunk_cap_ops: DEFAULT_CHUNK_OPS,
            payload: Vec::new(),
            chunk_ops: 0,
            prev_addr: 0,
            pending_computes: 0,
        })
    }

    /// Overrides the ops-per-chunk capacity (builder style). Tiny values
    /// are how the tests force multi-chunk streams.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` is in `1..=MAX_CHUNK_OPS`, the most a reader
    /// accepts in one chunk.
    #[must_use]
    pub fn chunk_ops(mut self, cap: u32) -> Self {
        assert!(
            (1..=MAX_CHUNK_OPS).contains(&cap),
            "chunk capacity must be in 1..={MAX_CHUNK_OPS}"
        );
        self.chunk_cap_ops = cap;
        self
    }

    /// Appends one op.
    pub fn push(&mut self, op: Op) -> Result<(), TraceError> {
        match op {
            Op::Compute => self.pending_computes += 1,
            Op::Load(va) => self.push_mem(TAG_LOAD, va),
            Op::Store(va) => self.push_mem(TAG_STORE, va),
        }
        self.written_ops += 1;
        self.chunk_ops += 1;
        if self.chunk_ops >= self.chunk_cap_ops {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Drains `ops` into the trace.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = Op>) -> Result<(), TraceError> {
        for op in ops {
            self.push(op)?;
        }
        Ok(())
    }

    fn push_mem(&mut self, tag: u8, va: VirtAddr) {
        self.drain_computes();
        let addr = va.as_u64();
        let delta = addr.wrapping_sub(self.prev_addr) as i64;
        self.prev_addr = addr;
        self.payload.push(tag);
        put_varint(&mut self.payload, zigzag(delta));
    }

    fn drain_computes(&mut self) {
        if self.pending_computes > 0 {
            self.payload.push(TAG_COMPUTE_RUN);
            put_varint(&mut self.payload, self.pending_computes);
            self.pending_computes = 0;
        }
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        self.drain_computes();
        if self.chunk_ops == 0 {
            return Ok(());
        }
        self.sink
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.chunk_ops.to_le_bytes())?;
        self.sink.write_all(&self.payload)?;
        self.sink.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.payload.clear();
        self.chunk_ops = 0;
        self.prev_addr = 0;
        Ok(())
    }

    /// Flushes the final chunk, writes the trailer, and returns the sink.
    ///
    /// Fails with [`TraceError::CountMismatch`] if the number of ops pushed
    /// differs from the count declared at construction — the header would
    /// be a lie, so nothing durable should be left behind.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.written_ops != self.declared_ops {
            return Err(TraceError::CountMismatch {
                declared: self.declared_ops,
                actual: self.written_ops,
            });
        }
        self.flush_chunk()?;
        self.sink.write_all(&TRAILER_SENTINEL.to_le_bytes())?;
        self.sink.write_all(&self.written_ops.to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// One-shot convenience: records exactly `op_count` ops from `ops` into
/// `path` with a fully-populated header.
pub fn record_to_file(
    path: &Path,
    profile: &str,
    seed: u64,
    op_count: u64,
    ops: impl IntoIterator<Item = Op>,
) -> Result<(), TraceError> {
    let mut w = TraceWriter::create(path, profile, seed, op_count)?;
    w.extend(ops.into_iter().take(op_count as usize))?;
    w.finish()?;
    Ok(())
}
