//! # Binary wire primitives
//!
//! The CRC-32 (IEEE) that closes each of `serve`'s wire frames
//! ([`format::crc32`]).

#![warn(missing_docs)]

pub mod format;
