//! Seeded operation streams.
//!
//! Generators draw from `rng::SplitMix64` and confine addresses to a few
//! sets so evictions, refills-over-stale, and aliasing all happen within a
//! short stream.

use ptguard::Line;
use rng::SplitMix64;

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
/// regenerated from the differential's seed).
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
    fn generators_are_deterministic() {
        let a = gen_cache_ops(&mut SplitMix64::new(7), 100, 32);
        let b = gen_cache_ops(&mut SplitMix64::new(7), 100, 32);
        assert_eq!(a, b);
    }
}
