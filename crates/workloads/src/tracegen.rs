//! Deterministic instruction-stream generation from a workload profile.

use pagetable::addr::VirtAddr;
use pagetable::PAGE_SIZE;

use crate::profiles::{AccessPattern, WorkloadProfile};

/// One simulated instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A non-memory instruction (ALU/branch); costs one cycle.
    Compute,
    /// A load from a virtual address.
    Load(VirtAddr),
    /// A store to a virtual address.
    Store(VirtAddr),
}

/// A deterministic, seedable generator of [`Op`]s for a profile.
///
/// Memory operations split into a *hot* component (small working set that
/// caches well) and a *cold* component over a footprint far exceeding the
/// LLC, whose share is calibrated so the LLC miss rate matches the
/// profile's MPKI target. Streaming profiles sweep the footprint at
/// cacheline stride (one fresh page per 64 lines); pointer-chasing
/// profiles jump to random pages with short intra-page bursts, generating
/// the TLB/page-walk pressure of mcf/xalancbmk/GAP.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    base: u64,
    stream_cursor: u64,
    rng: u64,
    // Fixed-point thresholds in 2^-32 units, fixed by the profile.
    mem_threshold_fp: u64,
    store_threshold_fp: u64,
    stream_fraction_fp: u64,
    /// Random-pattern state: current page and remaining intra-page burst.
    chase_page: u64,
    chase_left: u32,
}

impl TraceGenerator {
    /// Base virtual address of the workload's heap region.
    pub const HEAP_BASE: u64 = 0x10_0000_0000;

    /// Creates a generator for `profile` seeded with `seed`.
    #[must_use]
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        Self {
            profile,
            base: Self::HEAP_BASE,
            stream_cursor: 0,
            rng: seed | 1,
            mem_threshold_fp: (profile.mem_ratio * 4294967296.0) as u64,
            store_threshold_fp: (profile.store_ratio * 4294967296.0) as u64,
            stream_fraction_fp: (profile.stream_fraction() * 4294967296.0) as u64,
            chase_page: 0,
            chase_left: 0,
        }
    }

    /// Intra-page burst length of the pointer-chase pattern: a graph node's
    /// fields share a page, so a few consecutive dereferences stay local
    /// before jumping (keeps TLB pressure high but not one-miss-per-access).
    const CHASE_BURST: u32 = 4;

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Generates the next instruction.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let r = self.next_u64();
        if (r & 0xffff_ffff) >= self.mem_threshold_fp {
            return Op::Compute;
        }
        let r2 = self.next_u64();
        let is_store = (r2 & 0xffff_ffff) < self.store_threshold_fp;
        let addr = if ((r2 >> 32) & 0xffff_ffff) < self.stream_fraction_fp {
            // Cold component: sequential sweep or pointer-chase, per profile.
            let lines_total = self.profile.stream_pages * (PAGE_SIZE as u64 / 64);
            let line = match self.profile.pattern {
                AccessPattern::Streaming => {
                    let l = self.stream_cursor % lines_total;
                    self.stream_cursor += 1;
                    l
                }
                AccessPattern::Random => {
                    let lines_per_page = PAGE_SIZE as u64 / 64;
                    if self.chase_left == 0 {
                        self.chase_page = self.next_u64() % (lines_total / lines_per_page);
                        self.chase_left = Self::CHASE_BURST;
                    }
                    self.chase_left -= 1;
                    self.chase_page * lines_per_page + self.next_u64() % lines_per_page
                }
            };
            self.base + self.profile.hot_pages * PAGE_SIZE as u64 + line * 64
        } else {
            // Hot set: uniform over a small, cache-resident region.
            let r3 = self.next_u64();
            let hot_bytes = self.profile.hot_pages * PAGE_SIZE as u64;
            self.base + (r3 % (hot_bytes / 8)) * 8
        };
        let va = VirtAddr::new(addr);
        if is_store {
            Op::Store(va)
        } else {
            Op::Load(va)
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::by_name;

    #[test]
    fn deterministic_for_same_seed() {
        let p = by_name("xalancbmk").unwrap();
        let a: Vec<Op> = TraceGenerator::new(p, 7).take(1000).collect();
        let b: Vec<Op> = TraceGenerator::new(p, 7).take(1000).collect();
        assert_eq!(a, b);
        let c: Vec<Op> = TraceGenerator::new(p, 8).take(1000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn memory_ratio_is_respected() {
        let p = by_name("mcf").unwrap();
        let ops: Vec<Op> = TraceGenerator::new(p, 1).take(200_000).collect();
        let mem = ops.iter().filter(|o| !matches!(o, Op::Compute)).count() as f64;
        let ratio = mem / ops.len() as f64;
        assert!(
            (p.mem_ratio - 0.02..p.mem_ratio + 0.02).contains(&ratio),
            "ratio = {ratio}"
        );
    }

    #[test]
    fn store_ratio_is_respected() {
        let p = by_name("lbm").unwrap();
        let ops: Vec<Op> = TraceGenerator::new(p, 1).take(200_000).collect();
        let mem = ops.iter().filter(|o| !matches!(o, Op::Compute)).count() as f64;
        let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count() as f64;
        let ratio = stores / mem;
        assert!(
            (p.store_ratio - 0.04..p.store_ratio + 0.04).contains(&ratio),
            "ratio = {ratio}"
        );
    }

    #[test]
    fn random_pattern_scatters_pages() {
        // A pointer-chasing profile must touch many distinct pages (TLB
        // pressure), unlike the streaming sweep.
        let p = by_name("mcf").unwrap();
        let hot_end = TraceGenerator::HEAP_BASE + p.hot_pages * 4096;
        let mut pages = std::collections::HashSet::new();
        let mut gen = TraceGenerator::new(p, 11);
        for _ in 0..100_000 {
            if let Op::Load(va) | Op::Store(va) = gen.next_op() {
                if va.as_u64() >= hot_end {
                    pages.insert(va.vpn());
                }
            }
        }
        assert!(
            pages.len() > 250,
            "only {} distinct cold pages",
            pages.len()
        );
    }

    #[test]
    fn streaming_addresses_advance_by_cachelines() {
        let p = by_name("lbm").unwrap();
        let hot_end = TraceGenerator::HEAP_BASE + p.hot_pages * 4096;
        let mut gen = TraceGenerator::new(p, 3);
        let mut last_stream: Option<u64> = None;
        for _ in 0..500_000 {
            if let Op::Load(va) | Op::Store(va) = gen.next_op() {
                if va.as_u64() >= hot_end {
                    if let Some(prev) = last_stream {
                        assert_eq!(va.as_u64() - prev, 64, "streaming must be line-strided");
                    }
                    last_stream = Some(va.as_u64());
                    if va.as_u64() > hot_end + 100 * 64 {
                        return; // saw enough
                    }
                }
            }
        }
        assert!(last_stream.is_some(), "no streaming accesses observed");
    }

    #[test]
    fn low_mpki_profiles_mostly_hit_hot_set() {
        let p = by_name("povray").unwrap();
        let hot_end = TraceGenerator::HEAP_BASE + p.hot_pages * 4096;
        let ops: Vec<Op> = TraceGenerator::new(p, 5).take(100_000).collect();
        let (mut hot, mut stream) = (0u64, 0u64);
        for o in &ops {
            if let Op::Load(va) | Op::Store(va) = o {
                if va.as_u64() < hot_end {
                    hot += 1;
                } else {
                    stream += 1;
                }
            }
        }
        assert!(hot > stream * 100, "hot {hot} vs stream {stream}");
    }
}
