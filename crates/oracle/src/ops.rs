//! Seeded operation streams and the binary divergence-reproducer format.
//!
//! Generators draw from `rng::SplitMix64` and confine addresses to a few
//! sets so evictions, refills-over-stale, and aliasing all happen within a
//! short stream. Reproducers reuse the `trace` crate's binary primitives
//! (magic, varints, CRC-32) so the file format is one family:
//!
//! ```text
//! "PTGT" | version | kind | seed | param | count | ops… | crc32
//! ```

use ptguard::Line;
use rng::SplitMix64;
use trace::format::{crc32, get_varint, put_varint, MAGIC};

/// Reproducer format version (independent of the trace-file version).
pub const REPRO_VERSION: u64 = 1;

/// One operation against a cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Demand lookup.
    Lookup(u64),
    /// Install `(addr, data-seed, dirty)`.
    Fill(u64, u64, bool),
    /// Update `(addr, data-seed, dirty)`.
    Update(u64, u64, bool),
    /// Invalidate without writeback.
    Invalidate(u64),
    /// Drain every dirty line.
    Drain,
}

impl CacheOp {
    /// The address the op names; `None` for [`CacheOp::Drain`].
    #[must_use]
    pub fn addr(self) -> Option<u64> {
        match self {
            CacheOp::Lookup(a)
            | CacheOp::Fill(a, ..)
            | CacheOp::Update(a, ..)
            | CacheOp::Invalidate(a) => Some(a),
            CacheOp::Drain => None,
        }
    }
}

/// One operation against a TLB model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOp {
    /// Lookup by virtual page number.
    Lookup(u64),
    /// Insert `(vpn, frame)`.
    Insert(u64, u64),
    /// Invalidate one page.
    Invalidate(u64),
    /// Full shootdown.
    Flush,
}

/// One operation against an MMU-cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuOp {
    /// Lookup by physical entry address.
    Lookup(u64),
    /// Insert `(entry_addr, frame)`.
    Insert(u64, u64),
    /// Invalidate everything.
    Flush,
}

/// One probe of the walker differential (the page tables themselves are
/// regenerated from the reproducer's seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkProbe(
    /// The probed virtual address.
    pub u64,
);

/// Expands a stored data seed into a line, so op streams stay compact while
/// exercising every line byte. A quarter of the seeds give the all-zero
/// line and another quarter a line with one non-zero word, at a
/// seed-chosen position; the rest give eight pseudorandom words. A stream
/// thus turns ways from zero to non-zero content and back, which is what a
/// cache that holds only non-zero lines' bytes must get right.
#[must_use]
pub fn line_from_seed(seed: u64) -> Line {
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut words = [0u64; 8];
    match rng.gen_range_u64(0, 4) {
        0 => {}
        1 => words[rng.gen_range_usize(0, 8)] = rng.next_u64().max(1),
        _ => words.fill_with(|| rng.next_u64()),
    }
    Line::from_words(words)
}

/// An op that can be serialised into a reproducer file.
pub trait ReproOp: Sized + Clone {
    /// Kind byte in the reproducer header.
    const KIND: u8;
    /// Appends the op's encoding to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);
    /// Decodes one op starting at `pos`, advancing it.
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

impl ReproOp for CacheOp {
    const KIND: u8 = 1;

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            CacheOp::Lookup(a) => {
                buf.push(0);
                put_varint(buf, a);
            }
            CacheOp::Fill(a, d, dirty) => {
                buf.push(if dirty { 2 } else { 1 });
                put_varint(buf, a);
                put_varint(buf, d);
            }
            CacheOp::Update(a, d, dirty) => {
                buf.push(if dirty { 4 } else { 3 });
                put_varint(buf, a);
                put_varint(buf, d);
            }
            CacheOp::Invalidate(a) => {
                buf.push(5);
                put_varint(buf, a);
            }
            CacheOp::Drain => buf.push(6),
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => CacheOp::Lookup(get_varint(buf, pos)?),
            1 | 2 => CacheOp::Fill(get_varint(buf, pos)?, get_varint(buf, pos)?, tag == 2),
            3 | 4 => CacheOp::Update(get_varint(buf, pos)?, get_varint(buf, pos)?, tag == 4),
            5 => CacheOp::Invalidate(get_varint(buf, pos)?),
            6 => CacheOp::Drain,
            _ => return None,
        })
    }
}

impl ReproOp for TlbOp {
    const KIND: u8 = 2;

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            TlbOp::Lookup(v) => {
                buf.push(0);
                put_varint(buf, v);
            }
            TlbOp::Insert(v, f) => {
                buf.push(1);
                put_varint(buf, v);
                put_varint(buf, f);
            }
            TlbOp::Invalidate(v) => {
                buf.push(2);
                put_varint(buf, v);
            }
            TlbOp::Flush => buf.push(3),
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => TlbOp::Lookup(get_varint(buf, pos)?),
            1 => TlbOp::Insert(get_varint(buf, pos)?, get_varint(buf, pos)?),
            2 => TlbOp::Invalidate(get_varint(buf, pos)?),
            3 => TlbOp::Flush,
            _ => return None,
        })
    }
}

impl ReproOp for MmuOp {
    const KIND: u8 = 3;

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            MmuOp::Lookup(a) => {
                buf.push(0);
                put_varint(buf, a);
            }
            MmuOp::Insert(a, f) => {
                buf.push(1);
                put_varint(buf, a);
                put_varint(buf, f);
            }
            MmuOp::Flush => buf.push(2),
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => MmuOp::Lookup(get_varint(buf, pos)?),
            1 => MmuOp::Insert(get_varint(buf, pos)?, get_varint(buf, pos)?),
            2 => MmuOp::Flush,
            _ => return None,
        })
    }
}

impl ReproOp for WalkProbe {
    const KIND: u8 = 4;

    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.0);
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(WalkProbe(get_varint(buf, pos)?))
    }
}

/// Serialises a minimal reproducer: header, ops, CRC-32 trailer. `seed`
/// and `param` let the decoder rebuild seed-derived context (page tables,
/// geometry) that is not part of the op stream itself.
#[must_use]
pub fn encode_repro<T: ReproOp>(seed: u64, param: u64, ops: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    put_varint(&mut buf, REPRO_VERSION);
    buf.push(T::KIND);
    put_varint(&mut buf, seed);
    put_varint(&mut buf, param);
    put_varint(&mut buf, ops.len() as u64);
    for op in ops {
        op.encode_into(&mut buf);
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decodes a reproducer produced by [`encode_repro`], returning
/// `(seed, param, ops)`.
///
/// # Errors
///
/// Returns a description of the first structural problem: bad magic, kind
/// mismatch, CRC mismatch, an op count the body cannot hold, or truncation.
pub fn decode_repro<T: ReproOp>(bytes: &[u8]) -> Result<(u64, u64, Vec<T>), String> {
    if bytes.len() < MAGIC.len() + 4 || bytes[..MAGIC.len()] != MAGIC {
        return Err("bad reproducer magic".to_string());
    }
    let body = &bytes[..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err("reproducer CRC mismatch".to_string());
    }
    let mut pos = MAGIC.len();
    let version = get_varint(body, &mut pos).ok_or("truncated header")?;
    if version != REPRO_VERSION {
        return Err(format!("unsupported reproducer version {version}"));
    }
    let kind = *body.get(pos).ok_or("truncated header")?;
    pos += 1;
    if kind != T::KIND {
        return Err(format!("kind mismatch: file {kind}, expected {}", T::KIND));
    }
    let seed = get_varint(body, &mut pos).ok_or("truncated header")?;
    let param = get_varint(body, &mut pos).ok_or("truncated header")?;
    let count = get_varint(body, &mut pos).ok_or("truncated header")?;
    // Every op encodes in at least one byte, so the bytes left bound the
    // count before anything is sized from it.
    let left = body.len() - pos;
    if count > left as u64 {
        return Err(format!("op count {count} exceeds the {left} bytes left"));
    }
    let mut ops = Vec::with_capacity(count as usize);
    for i in 0..count {
        ops.push(T::decode_from(body, &mut pos).ok_or(format!("truncated op {i}"))?);
    }
    Ok((seed, param, ops))
}

/// Generates a cache op stream confined to `footprint_lines` distinct line
/// addresses (few sets ⇒ constant evictions and refills-over-stale).
#[must_use]
pub fn gen_cache_ops(rng: &mut SplitMix64, n: usize, footprint_lines: u64) -> Vec<CacheOp> {
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let addr = rng.gen_range_u64(0, footprint_lines) * 64 + rng.gen_range_u64(0, 64);
        let data = rng.next_u64();
        ops.push(match rng.gen_range_u64(0, 100) {
            0..=39 => CacheOp::Lookup(addr),
            40..=74 => CacheOp::Fill(addr, data, rng.gen_bool(0.4)),
            75..=89 => CacheOp::Update(addr, data, rng.gen_bool(0.7)),
            90..=96 => CacheOp::Invalidate(addr),
            _ => CacheOp::Drain,
        });
    }
    ops
}

/// Whether the next op is a full flush: one op in `4 × footprint` on
/// average, so a structure over twice its capacity fills and evicts
/// between two flushes at any size.
fn flush_due(rng: &mut SplitMix64, footprint: u64) -> bool {
    rng.gen_range_u64(0, 4 * footprint) == 0
}

/// Generates a TLB op stream over `footprint_pages` virtual page numbers.
#[must_use]
pub fn gen_tlb_ops(rng: &mut SplitMix64, n: usize, footprint_pages: u64) -> Vec<TlbOp> {
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let vpn = rng.gen_range_u64(0, footprint_pages);
        let frame = rng.gen_range_u64(1, 1 << 20);
        ops.push(if flush_due(rng, footprint_pages) {
            TlbOp::Flush
        } else {
            match rng.gen_range_u64(0, 98) {
                0..=49 => TlbOp::Lookup(vpn),
                50..=89 => TlbOp::Insert(vpn, frame),
                _ => TlbOp::Invalidate(vpn),
            }
        });
    }
    ops
}

/// Generates an MMU-cache op stream over `footprint_entries` 8-byte
/// entry addresses.
#[must_use]
pub fn gen_mmu_ops(rng: &mut SplitMix64, n: usize, footprint_entries: u64) -> Vec<MmuOp> {
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let entry_addr = rng.gen_range_u64(0, footprint_entries) * 8;
        let frame = rng.gen_range_u64(1, 1 << 20);
        ops.push(if flush_due(rng, footprint_entries) {
            MmuOp::Flush
        } else if rng.gen_range_u64(0, 98) < 55 {
            MmuOp::Lookup(entry_addr)
        } else {
            MmuOp::Insert(entry_addr, frame)
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_roundtrip_cache() {
        let ops = vec![
            CacheOp::Lookup(0x1000),
            CacheOp::Fill(0x40, 7, true),
            CacheOp::Update(0x40, 9, false),
            CacheOp::Invalidate(0x1000),
            CacheOp::Drain,
        ];
        let bytes = encode_repro(42, 512, &ops);
        let (seed, param, back) = decode_repro::<CacheOp>(&bytes).unwrap();
        assert_eq!((seed, param), (42, 512));
        assert_eq!(back, ops);
    }

    #[test]
    fn repro_rejects_corruption_and_kind_mismatch() {
        let bytes = encode_repro(1, 2, &[TlbOp::Flush, TlbOp::Lookup(3)]);
        assert!(decode_repro::<TlbOp>(&bytes).is_ok());
        assert!(decode_repro::<CacheOp>(&bytes)
            .unwrap_err()
            .contains("kind mismatch"));
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(decode_repro::<TlbOp>(&bad).is_err());
    }

    #[test]
    fn repro_count_is_bounded_by_the_body() {
        // A well-formed header and CRC around a count of u64::MAX and a
        // one-op body.
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, REPRO_VERSION);
        bytes.push(TlbOp::KIND);
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, 2);
        put_varint(&mut bytes, u64::MAX);
        TlbOp::Flush.encode_into(&mut bytes);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = decode_repro::<TlbOp>(&bytes).unwrap_err();
        assert!(err.contains("op count"), "{err}");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = gen_cache_ops(&mut SplitMix64::new(7), 100, 32);
        let b = gen_cache_ops(&mut SplitMix64::new(7), 100, 32);
        assert_eq!(a, b);
    }
}
