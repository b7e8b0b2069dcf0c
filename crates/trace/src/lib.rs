//! # Binary wire primitives
//!
//! The byte-level helpers two binary formats of the workspace share: LEB128
//! varints, CRC-32 (IEEE) and the `"PTGT"` magic. `serve`'s wire frames end
//! in a [`format::crc32`] of their body, and `oracle`'s divergence
//! reproducer files are the magic, varint fields and a closing CRC-32.

#![warn(missing_docs)]

pub mod format;
