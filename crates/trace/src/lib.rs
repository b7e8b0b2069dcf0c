//! # Binary memory-trace record/replay
//!
//! A compact, self-describing on-disk format for the instruction streams
//! the simulator consumes ([`workloads::tracegen::Op`]), plus a streaming
//! writer and a streaming reader. Recording a workload once and replaying
//! it removes the generator from the measured loop and pins the exact op
//! stream an experiment saw — replayed runs are bit-identical to live ones.
//!
//! ## Format (version 1)
//!
//! ```text
//! header:  magic "PTGT" | version u16 | profile len u8 + bytes | seed u64 | op count u64
//! chunk*:  payload len u32 | op count u32 | payload | crc32(payload) u32
//! trailer: sentinel u32 (0xffff_ffff) | total op count u64
//! ```
//!
//! All integers are little-endian. Each chunk payload is a sequence of
//! records: a tag byte (`0` = compute run, `1` = load, `2` = store)
//! followed by a varint — the run length for computes, or the
//! zigzag-encoded delta from the previous memory address for loads and
//! stores. The delta state resets at every chunk boundary, so chunks are
//! self-contained and a corrupt chunk is detected by its own checksum
//! without poisoning its neighbours. A stream that ends without the
//! trailer is reported as [`TraceError::Truncated`]; a payload whose CRC
//! disagrees is [`TraceError::ChecksumMismatch`].
//!
//! * [`TraceWriter`] — push ops (or drain any iterator) into any
//!   [`std::io::Write`] sink, buffering one chunk at a time.
//! * [`TraceReader`] — reads and decodes one chunk at a time on the
//!   caller's thread, as the ops are consumed.
//! * [`TraceStats`] — one-pass op mix / footprint / hot-cold summary.

#![warn(missing_docs)]

mod error;
pub mod format;
pub mod reader;
pub mod stats;
pub mod writer;

pub use error::TraceError;
pub use reader::{TraceHeader, TraceReader};
pub use stats::TraceStats;
pub use writer::{record_to_file, TraceWriter};
