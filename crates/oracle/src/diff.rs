//! Differential drivers: fast implementation vs naive reference, op for
//! op, with a ddmin-style shrinking loop that reduces a failing stream to
//! a minimal one.

use std::collections::BTreeMap;
use std::fmt::Debug;

use memsys::cache::Cache;
use memsys::config::CacheConfig;
use memsys::mmucache::MmuCache;
use memsys::tlb::Tlb;
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::memory::PhysMem;
use pagetable::walker::{TranslationError, Walker};
use pagetable::x86_64::{Pte, PteFlags};
use rng::SplitMix64;

use crate::ops::{
    gen_cache_ops, gen_mmu_ops, gen_tlb_ops, line_from_seed, CacheOp, MmuOp, TlbOp, WalkProbe,
};
use crate::refmodel::{RefCache, RefMmuCache, RefTlb};
use crate::refwalk::{ref_walk, RefTables, RefWalkResult};

/// A confirmed divergence between the fast and reference models, with the
/// shrunk op stream that still reproduces it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which differential found it (`cache`, `tlb`, `mmu`, `walker`).
    pub kind: &'static str,
    /// First-mismatch description from the minimal stream.
    pub message: String,
    /// Ops in the original failing stream.
    pub ops_total: usize,
    /// Ops left after shrinking.
    pub ops_minimal: usize,
    /// The minimal stream as text: the differential's seed, its size
    /// argument and the ops, enough to rebuild the failing run by hand.
    pub stream: String,
}

/// Runs `fails` on `ops`; if it reports a mismatch, shrinks the stream to
/// a minimal one that still fails and packages it as a [`Divergence`]
/// (`size` is the differential's size argument: cache bytes, TLB or MMU
/// entries, walker mappings).
fn shrunk<T: Clone + Debug>(
    kind: &'static str,
    seed: u64,
    size: u64,
    ops: &[T],
    fails: impl Fn(&[T]) -> Option<String>,
) -> Option<Divergence> {
    let _first = fails(ops)?;
    let minimal = shrink_ops(ops, |s| fails(s).is_some());
    let message = fails(&minimal).unwrap_or_else(|| "shrunk stream no longer fails".to_string());
    Some(Divergence {
        kind,
        message,
        ops_total: ops.len(),
        ops_minimal: minimal.len(),
        stream: format!("seed {seed}, size {size}, ops {minimal:?}"),
    })
}

/// Greedy ddmin-style shrinker: repeatedly removes chunks (halving the
/// chunk size down to single ops) while `fails` still reports a failure.
/// `fails` must be deterministic.
pub fn shrink_ops<T: Clone>(ops: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = ops.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                reduced = true;
                // retry the same window position on the shorter stream
            } else {
                start = end;
            }
        }
        if chunk == 1 && !reduced {
            return current;
        }
        if !reduced {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// The observable surface of a cache implementation under test. Implemented
/// by the real [`Cache`] and (in tests) by deliberately buggy wrappers.
pub trait CacheModel {
    /// Demand lookup.
    fn lookup(&mut self, addr: PhysAddr) -> Option<ptguard::Line>;
    /// Functional read: no recency or statistics effect.
    fn peek(&self, addr: PhysAddr) -> Option<ptguard::Line>;
    /// Install a line; returns a displaced dirty line.
    fn fill(
        &mut self,
        addr: PhysAddr,
        data: ptguard::Line,
        dirty: bool,
    ) -> Option<(PhysAddr, ptguard::Line)>;
    /// Update a resident line.
    fn update(&mut self, addr: PhysAddr, data: ptguard::Line, dirty: bool);
    /// Invalidate without writeback.
    fn invalidate(&mut self, addr: PhysAddr) -> Option<(PhysAddr, ptguard::Line)>;
    /// Flush all dirty lines.
    fn drain_dirty(&mut self) -> Vec<(PhysAddr, ptguard::Line)>;
    /// `(hits, misses, writebacks, fills)`.
    fn stats(&self) -> (u64, u64, u64, u64);
}

impl CacheModel for Cache {
    fn lookup(&mut self, addr: PhysAddr) -> Option<ptguard::Line> {
        Cache::lookup(self, addr)
    }
    fn peek(&self, addr: PhysAddr) -> Option<ptguard::Line> {
        Cache::peek(self, addr)
    }
    fn fill(
        &mut self,
        addr: PhysAddr,
        data: ptguard::Line,
        dirty: bool,
    ) -> Option<(PhysAddr, ptguard::Line)> {
        Cache::fill(self, addr, data, dirty)
    }
    fn update(&mut self, addr: PhysAddr, data: ptguard::Line, dirty: bool) {
        Cache::update(self, addr, data, dirty);
    }
    fn invalidate(&mut self, addr: PhysAddr) -> Option<(PhysAddr, ptguard::Line)> {
        Cache::invalidate(self, addr)
    }
    fn drain_dirty(&mut self) -> Vec<(PhysAddr, ptguard::Line)> {
        Cache::drain_dirty(self)
    }
    fn stats(&self) -> (u64, u64, u64, u64) {
        let s = Cache::stats(self);
        (s.hits, s.misses, s.writebacks, s.fills)
    }
}

/// Runs one cache op stream through `fast` and a fresh [`RefCache`] of the
/// same geometry, returning the first mismatch, if any.
pub fn run_cache_ops<C: CacheModel>(
    fast: &mut C,
    size_bytes: usize,
    ways: usize,
    ops: &[CacheOp],
) -> Option<String> {
    run_against_ref(fast, size_bytes, ways, ops, apply_cache_op)
}

/// Runs one op stream through the demand path of the real [`Cache`] and
/// of a fresh [`RefCache`], returning the first mismatch, if any.
///
/// A `Lookup(a)` is a demand access, a store when bit 0 of `a` is set:
/// [`Cache::probe`], then on a miss [`Cache::fill_way`] of a refill into
/// the victim the probe returned (dirty for a store), or on a store hit
/// [`Cache::set_dirty`] of the probed way. The reference does `lookup`,
/// then `fill` or `update`. Every other op runs as in [`run_cache_ops`],
/// so the sets the probes meet hold invalid ways, dirty lines and stale
/// recency alike.
pub fn run_probe_ops(
    fast: &mut Cache,
    size_bytes: usize,
    ways: usize,
    ops: &[CacheOp],
) -> Option<String> {
    run_against_ref(fast, size_bytes, ways, ops, |fast, reference, op| {
        let CacheOp::Lookup(a) = op else {
            return apply_cache_op(fast, reference, op);
        };
        let (addr, store, refill) = (PhysAddr::new(a), a & 1 == 1, line_from_seed(a));
        let f = match fast.probe(addr) {
            Ok((way, line)) => {
                if store {
                    fast.set_dirty(way);
                }
                Ok(line)
            }
            Err(victim) => Err(fast.fill_way(victim, addr, refill, store)),
        };
        let r = match reference.lookup(addr) {
            Some(line) => {
                if store {
                    reference.update(addr, line, true);
                }
                Ok(line)
            }
            None => Err(reference.fill(addr, refill, store)),
        };
        diff_value(f, r)
    })
}

/// Steps `fast` and a fresh [`RefCache`] through `ops` with `apply`,
/// comparing after every op their statistics and what a `peek` of the
/// op's address returns.
fn run_against_ref<C: CacheModel>(
    fast: &mut C,
    size_bytes: usize,
    ways: usize,
    ops: &[CacheOp],
    mut apply: impl FnMut(&mut C, &mut RefCache, CacheOp) -> Option<String>,
) -> Option<String> {
    let mut reference = RefCache::new(size_bytes, ways);
    for (i, op) in ops.iter().enumerate() {
        if let Some(m) = apply(fast, &mut reference, *op) {
            return Some(format!("op {i} {op:?}: {m}"));
        }
        if let Some(a) = op.addr() {
            let addr = PhysAddr::new(a);
            if let Some(m) = diff_value(fast.peek(addr), reference.peek(addr)) {
                return Some(format!("op {i} {op:?}: peek diverged, {m}"));
            }
        }
        if fast.stats() != reference.stats() {
            return Some(format!(
                "op {i} {op:?}: stats diverged, fast {:?} vs ref {:?}",
                fast.stats(),
                reference.stats()
            ));
        }
    }
    None
}

/// Applies one op to both caches, returning a mismatch in what they
/// returned.
fn apply_cache_op<C: CacheModel>(
    fast: &mut C,
    reference: &mut RefCache,
    op: CacheOp,
) -> Option<String> {
    match op {
        CacheOp::Lookup(a) => {
            let addr = PhysAddr::new(a);
            diff_value(fast.lookup(addr), reference.lookup(addr))
        }
        CacheOp::Fill(a, d, dirty) => {
            let (addr, line) = (PhysAddr::new(a), line_from_seed(d));
            diff_value(
                fast.fill(addr, line, dirty),
                reference.fill(addr, line, dirty),
            )
        }
        CacheOp::Update(a, d, dirty) => {
            let (addr, line) = (PhysAddr::new(a), line_from_seed(d));
            fast.update(addr, line, dirty);
            reference.update(addr, line, dirty);
            None
        }
        CacheOp::Invalidate(a) => {
            let addr = PhysAddr::new(a);
            diff_value(fast.invalidate(addr), reference.invalidate(addr))
        }
        CacheOp::Drain => {
            let mut f = fast.drain_dirty();
            let mut r = reference.drain_dirty();
            f.sort_by_key(|&(a, _)| a.as_u64());
            r.sort_by_key(|&(a, _)| a.as_u64());
            diff_value(f, r)
        }
    }
}

fn diff_value<T: PartialEq + std::fmt::Debug>(fast: T, reference: T) -> Option<String> {
    (fast != reference).then(|| format!("fast {fast:?} vs ref {reference:?}"))
}

/// Cache differential: a seeded stream over twice the cache's capacity
/// against the real [`Cache`], so every set meets more lines than it has
/// ways and fills evict. Returns a shrunk [`Divergence`] on mismatch.
#[must_use]
pub fn diff_cache(seed: u64, n_ops: usize, cfg: CacheConfig) -> Option<Divergence> {
    let footprint = (cfg.sets() * cfg.ways) as u64 * 2;
    let ops = gen_cache_ops(&mut SplitMix64::new(seed), n_ops, footprint);
    let make = || Cache::new(cfg);
    diff_cache_impl("cache", seed, cfg, &ops, make)
}

/// Cache differential against an arbitrary [`CacheModel`] factory — the
/// hook tests use to prove a deliberately buggy cache is caught and shrunk.
pub fn diff_cache_impl<C: CacheModel>(
    kind: &'static str,
    seed: u64,
    cfg: CacheConfig,
    ops: &[CacheOp],
    make_fast: impl Fn() -> C,
) -> Option<Divergence> {
    let fails =
        |subset: &[CacheOp]| run_cache_ops(&mut make_fast(), cfg.size_bytes, cfg.ways, subset);
    shrunk(kind, seed, cfg.size_bytes as u64, ops, fails)
}

/// Demand-path cache differential ([`run_probe_ops`]): a seeded stream
/// over twice the cache's capacity, so most probes that miss evict.
/// Returns a shrunk [`Divergence`] on mismatch.
#[must_use]
pub fn diff_cache_probe(seed: u64, n_ops: usize, cfg: CacheConfig) -> Option<Divergence> {
    let footprint = (cfg.sets() * cfg.ways) as u64 * 2;
    let ops = gen_cache_ops(&mut SplitMix64::new(seed), n_ops, footprint);
    let fails =
        |subset: &[CacheOp]| run_probe_ops(&mut Cache::new(cfg), cfg.size_bytes, cfg.ways, subset);
    shrunk("cache-probe", seed, cfg.size_bytes as u64, &ops, fails)
}

/// Runs one TLB op stream through the real [`Tlb`] and a [`RefTlb`].
pub fn run_tlb_ops(fast: &mut Tlb, capacity: usize, ops: &[TlbOp]) -> Option<String> {
    let mut reference = RefTlb::new(capacity);
    let pte_of = |f: u64| Pte::new(Frame(f), PteFlags::user_data());
    for (i, op) in ops.iter().enumerate() {
        let mismatch = match *op {
            TlbOp::Lookup(v) => diff_value(fast.lookup(v), reference.lookup(v)),
            TlbOp::Insert(v, f) => {
                fast.insert(v, pte_of(f));
                reference.insert(v, pte_of(f));
                None
            }
            TlbOp::Invalidate(v) => {
                fast.invalidate(v);
                reference.invalidate(v);
                None
            }
            TlbOp::Flush => {
                fast.flush();
                reference.flush();
                None
            }
        };
        if let Some(m) = mismatch {
            return Some(format!("op {i} {op:?}: {m}"));
        }
        let fs = fast.stats();
        if (fs.hits, fs.misses) != reference.stats() {
            return Some(format!(
                "op {i} {op:?}: stats diverged, fast {:?} vs ref {:?}",
                (fs.hits, fs.misses),
                reference.stats()
            ));
        }
    }
    None
}

/// TLB differential. Returns a shrunk [`Divergence`] on mismatch.
#[must_use]
pub fn diff_tlb(seed: u64, n_ops: usize, capacity: usize) -> Option<Divergence> {
    let ops = gen_tlb_ops(&mut SplitMix64::new(seed), n_ops, capacity as u64 * 2);
    let fails = |subset: &[TlbOp]| run_tlb_ops(&mut Tlb::new(capacity), capacity, subset);
    shrunk("tlb", seed, capacity as u64, &ops, fails)
}

/// Runs one MMU-cache op stream through the real [`MmuCache`] and a
/// [`RefMmuCache`].
pub fn run_mmu_ops(
    fast: &mut MmuCache,
    entries: usize,
    ways: usize,
    ops: &[MmuOp],
) -> Option<String> {
    let mut reference = RefMmuCache::new(entries, ways);
    let pte_of = |f: u64| Pte::new(Frame(f), PteFlags::table());
    for (i, op) in ops.iter().enumerate() {
        let mismatch = match *op {
            MmuOp::Lookup(a) => diff_value(
                fast.lookup(PhysAddr::new(a)),
                reference.lookup(PhysAddr::new(a)),
            ),
            MmuOp::Insert(a, f) => {
                fast.insert(PhysAddr::new(a), pte_of(f));
                reference.insert(PhysAddr::new(a), pte_of(f));
                None
            }
            MmuOp::Flush => {
                fast.flush();
                reference.flush();
                None
            }
        };
        if let Some(m) = mismatch {
            return Some(format!("op {i} {op:?}: {m}"));
        }
        let fs = fast.stats();
        if (fs.hits, fs.misses) != reference.stats() {
            return Some(format!(
                "op {i} {op:?}: stats diverged, fast {:?} vs ref {:?}",
                (fs.hits, fs.misses),
                reference.stats()
            ));
        }
    }
    None
}

/// MMU-cache differential. Returns a shrunk [`Divergence`] on mismatch.
#[must_use]
pub fn diff_mmu(seed: u64, n_ops: usize, entries: usize, ways: usize) -> Option<Divergence> {
    let ops = gen_mmu_ops(&mut SplitMix64::new(seed), n_ops, (entries as u64) * 2);
    let fails =
        |subset: &[MmuOp]| run_mmu_ops(&mut MmuCache::new(entries, ways, 2), entries, ways, subset);
    shrunk("mmu", seed, entries as u64, &ops, fails)
}

/// Flat byte-addressed memory for the fast walker: the same page-table
/// image the reference interpreter reads from its `BTreeMap` of entries.
#[derive(Debug, Default)]
pub struct FlatMem {
    bytes: BTreeMap<u64, u8>,
    size: u64,
}

impl FlatMem {
    /// An empty (all-zero) memory of `size` bytes.
    #[must_use]
    pub fn new(size: u64) -> Self {
        Self {
            bytes: BTreeMap::new(),
            size,
        }
    }
}

impl PhysMem for FlatMem {
    fn size(&self) -> u64 {
        self.size
    }
    fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.bytes.get(&addr.as_u64()).copied().unwrap_or(0)
    }
    fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        self.bytes.insert(addr.as_u64(), value);
    }
}

/// The randomly generated walker-differential fixture: a page-table image
/// in both representations plus the probe list.
pub struct WalkFixture {
    /// Byte-level image for the fast [`Walker`].
    pub mem: FlatMem,
    /// Entry-level image for [`ref_walk`].
    pub tables: RefTables,
    /// Root page-table frame.
    pub root: Frame,
    /// Probe virtual addresses.
    pub probes: Vec<WalkProbe>,
}

/// Physical address bits of the walker fixture (frames beyond this bound
/// trigger `PfnOutOfBounds`).
pub const WALK_PHYS_BITS: u32 = 30;

/// Builds a page-table image from `seed`: chains of 4-level mappings with
/// deliberate quirks (holes, huge pages, out-of-bounds PFNs) plus probe
/// VAs that mix mapped, neighbouring, and random addresses.
#[must_use]
pub fn build_walk_fixture(seed: u64, mappings: usize, probes: usize) -> WalkFixture {
    let mut rng = SplitMix64::new(seed ^ 0x5bd1_e995);
    let mut mem = FlatMem::new(1 << WALK_PHYS_BITS);
    let mut tables = RefTables::new();
    let root = Frame(1);
    let mut next_frame = 2u64;
    let max_frame = 1u64 << (WALK_PHYS_BITS - 12);
    let mut mapped = Vec::new();

    let write_entry =
        |mem: &mut FlatMem, tables: &mut RefTables, frame: Frame, idx: u64, raw: u64| {
            let addr = frame.0 * 4096 + idx * 8;
            mem.write_u64(PhysAddr::new(addr), raw);
            tables.insert(addr, raw);
        };

    for _ in 0..mappings {
        // Confine VAs to a few PML4/PDPT slots so chains share tables.
        let va = (rng.gen_range_u64(0, 4) << 39)
            | (rng.gen_range_u64(0, 4) << 30)
            | (rng.gen_range_u64(0, 16) << 21)
            | (rng.gen_range_u64(0, 32) << 12);
        let mut table = root;
        for level in [3usize, 2, 1, 0] {
            let idx = (va >> (12 + 9 * level)) & 0x1ff;
            let entry_addr = table.0 * 4096 + idx * 8;
            let existing = tables.get(&entry_addr).copied().unwrap_or(0);
            if existing & 1 != 0 {
                // Follow the existing chain unless it already terminated.
                let pfn = (existing & pagetable::x86_64::bits::PFN_MASK) >> 12;
                if level == 0 || existing & (1 << 7) != 0 || pfn >= max_frame {
                    break;
                }
                table = Frame(pfn);
                continue;
            }
            // Quirks: hole (not present), out-of-bounds PFN, huge leaf.
            let roll = rng.gen_range_u64(0, 100);
            if roll < 10 {
                break; // leave a hole at this level
            }
            if roll < 18 {
                let bad = Pte::new(
                    Frame(max_frame + rng.gen_range_u64(0, 64)),
                    PteFlags::table(),
                );
                write_entry(&mut mem, &mut tables, table, idx, bad.raw());
                break;
            }
            if level == 1 && roll < 33 {
                let huge_flags = PteFlags::from_bits(
                    PteFlags::user_data().bits() | pagetable::x86_64::bits::HUGE_PAGE,
                );
                let huge = Pte::new(Frame(rng.gen_range_u64(1, max_frame) & !0x1ff), huge_flags);
                write_entry(&mut mem, &mut tables, table, idx, huge.raw());
                mapped.push(va);
                break;
            }
            if level == 0 {
                let leaf = Pte::new(
                    Frame(rng.gen_range_u64(1, max_frame)),
                    PteFlags::user_data(),
                );
                write_entry(&mut mem, &mut tables, table, idx, leaf.raw());
                mapped.push(va);
                break;
            }
            let child = Frame(next_frame);
            next_frame += 1;
            write_entry(
                &mut mem,
                &mut tables,
                table,
                idx,
                Pte::new(child, PteFlags::table()).raw(),
            );
            table = child;
        }
    }

    let mut probe_list = Vec::with_capacity(probes);
    for _ in 0..probes {
        let va = match rng.gen_range_u64(0, 10) {
            0..=5 if !mapped.is_empty() => {
                let base = mapped[rng.gen_range_usize(0, mapped.len())];
                base | rng.gen_range_u64(0, 4096)
            }
            6..=7 if !mapped.is_empty() => {
                // A neighbour of a mapped page: exercises shared tables.
                let base = mapped[rng.gen_range_usize(0, mapped.len())];
                base ^ (1 << rng.gen_range_u64(12, 40))
            }
            _ => rng.next_u64() & ((1 << 48) - 1),
        };
        probe_list.push(WalkProbe(va));
    }
    WalkFixture {
        mem,
        tables,
        root,
        probes: probe_list,
    }
}

/// Compares one probe between the fast walker and the reference
/// interpreter, returning a mismatch description if they disagree.
#[must_use]
pub fn check_walk_probe(fixture: &WalkFixture, probe: WalkProbe) -> Option<String> {
    let walker = Walker::new(fixture.root, WALK_PHYS_BITS);
    let fast = walker.walk(&fixture.mem, VirtAddr::new(probe.0));
    let reference = ref_walk(&fixture.tables, fixture.root.0, WALK_PHYS_BITS, probe.0);
    let agree = match (&fast, &reference) {
        (
            Ok(w),
            RefWalkResult::Ok {
                phys,
                leaf,
                leaf_level,
                accesses,
            },
        ) => {
            w.phys.as_u64() == *phys
                && w.leaf.raw() == *leaf
                && w.leaf_level == *leaf_level
                && w.accesses.len() == accesses.len()
                && w.accesses.iter().zip(accesses).all(|(f, r)| {
                    f.entry_addr.as_u64() == r.entry_addr
                        && f.level == r.level
                        && f.pte.raw() == r.raw
                })
        }
        (Err(TranslationError::NotPresent { level }), RefWalkResult::NotPresent { level: rl }) => {
            level == rl
        }
        (
            Err(TranslationError::PfnOutOfBounds { level, pte }),
            RefWalkResult::PfnOutOfBounds { level: rl, raw },
        ) => level == rl && pte.raw() == *raw,
        _ => false,
    };
    (!agree).then(|| format!("va {:#x}: fast {fast:?} vs ref {reference:?}", probe.0))
}

/// Walker differential: random tables + probes from `seed`. Returns a
/// shrunk [`Divergence`] (probe list shrunk; tables regenerate from the
/// seed) on mismatch.
#[must_use]
pub fn diff_walker(seed: u64, mappings: usize, probes: usize) -> Option<Divergence> {
    let fixture = build_walk_fixture(seed, mappings, probes);
    let fails = |subset: &[WalkProbe]| subset.iter().find_map(|&p| check_walk_probe(&fixture, p));
    shrunk("walker", seed, mappings as u64, &fixture.probes, fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 << 10, // 4 KB, 4-way: 16 sets — eviction-heavy
            ways: 4,
            latency_cycles: 1,
        }
    }

    #[test]
    fn cache_differential_finds_no_divergence() {
        // 4 KB from direct-mapped to 16-way: 64 sets down to 4.
        for ways in [1, 2, 4, 8, 16] {
            let cfg = CacheConfig {
                ways,
                ..small_cfg()
            };
            for seed in [1u64, 2, 3] {
                let d = diff_cache(seed, 4000, cfg);
                assert!(d.is_none(), "{ways}-way: unexpected divergence: {d:?}");
            }
        }
    }

    #[test]
    fn probe_then_fill_way_matches_the_reference_at_table_iii_geometry() {
        // Table III's L1D (32 KB, 8-way), L2 (256 KB, 16-way) and LLC
        // (2 MB, 16-way). The LLC stream is long enough that its 2,048
        // sets fill and evict.
        for (size_bytes, ways, n_ops) in [
            (32 << 10, 8, 30_000),
            (256 << 10, 16, 30_000),
            (2 << 20, 16, 200_000),
        ] {
            let cfg = CacheConfig {
                size_bytes,
                ways,
                latency_cycles: 1,
            };
            for seed in [13u64, 14] {
                let d = diff_cache_probe(seed, n_ops, cfg);
                assert!(d.is_none(), "unexpected divergence: {d:?}");
            }
        }
    }

    #[test]
    fn tlb_differential_finds_no_divergence() {
        // 16 entries, and Table III's 64: inserts evict, invalidates remove
        // entries and flushes clear the map at both sizes.
        for capacity in [16, 64] {
            for seed in [4u64, 5, 6] {
                let d = diff_tlb(seed, 4000, capacity);
                assert!(d.is_none(), "unexpected divergence: {d:?}");
            }
        }
    }

    #[test]
    fn mmu_differential_finds_no_divergence() {
        // 64 × 4, and Table III's 1,024 entries × 4 ways, with streams
        // long enough that the sets fill and evict between flushes.
        for (entries, n_ops) in [(64, 4000), (1024, 20_000)] {
            for seed in [7u64, 8, 9] {
                let d = diff_mmu(seed, n_ops, entries, 4);
                assert!(d.is_none(), "unexpected divergence: {d:?}");
            }
        }
    }

    #[test]
    fn walker_differential_finds_no_divergence() {
        for seed in [10u64, 11, 12] {
            let d = diff_walker(seed, 200, 400);
            assert!(d.is_none(), "unexpected divergence: {d:?}");
        }
    }

    #[test]
    fn armv8_descriptor_matches_the_bit_loop_references() {
        use crate::refwalk::{ref_armv8_pfn, ref_armv8_unused_mask};
        use pagetable::armv8::{unused_mask, Descriptor};

        let mut rng = SplitMix64::new(15);
        let edges = [0, u64::MAX].into_iter().chain((0..64).map(|b| 1u64 << b));
        for raw in edges.chain((0..20_000).map(|_| rng.next_u64())) {
            let frame = Descriptor::from_raw(raw).frame();
            assert_eq!(frame.0, ref_armv8_pfn(raw), "raw {raw:#018x}");
        }
        for max_phys_bits in 12..=52 {
            assert_eq!(
                unused_mask(max_phys_bits),
                ref_armv8_unused_mask(max_phys_bits),
                "max_phys_bits {max_phys_bits}"
            );
        }
    }

    #[test]
    fn shrinker_reduces_to_the_failing_core() {
        // A stream fails iff it contains both 3 and 7 (in any order).
        let ops: Vec<u32> = (0..100).collect();
        let minimal = shrink_ops(&ops, |s| s.contains(&3) && s.contains(&7));
        let mut sorted = minimal.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 7]);
    }

    /// The pre-fix `Cache::lookup(addr, write=true)` regression: a demand
    /// store marked the line dirty during lookup, before the data update.
    /// Reintroduced here as a wrapper so the differential must catch it.
    struct BuggyLookupDirtiesCache {
        inner: Cache,
    }

    impl CacheModel for BuggyLookupDirtiesCache {
        fn lookup(&mut self, addr: PhysAddr) -> Option<ptguard::Line> {
            let hit = self.inner.lookup(addr);
            if let Some(line) = hit {
                // The old bug: `w.dirty |= write` inside lookup. Model it
                // by an update that dirties without changing content.
                self.inner.update(addr, line, true);
            }
            hit
        }
        fn peek(&self, addr: PhysAddr) -> Option<ptguard::Line> {
            self.inner.peek(addr)
        }
        fn fill(
            &mut self,
            addr: PhysAddr,
            data: ptguard::Line,
            dirty: bool,
        ) -> Option<(PhysAddr, ptguard::Line)> {
            self.inner.fill(addr, data, dirty)
        }
        fn update(&mut self, addr: PhysAddr, data: ptguard::Line, dirty: bool) {
            self.inner.update(addr, data, dirty);
        }
        fn invalidate(&mut self, addr: PhysAddr) -> Option<(PhysAddr, ptguard::Line)> {
            self.inner.invalidate(addr)
        }
        fn drain_dirty(&mut self) -> Vec<(PhysAddr, ptguard::Line)> {
            self.inner.drain_dirty()
        }
        fn stats(&self) -> (u64, u64, u64, u64) {
            let s = self.inner.stats();
            (s.hits, s.misses, s.writebacks, s.fills)
        }
    }

    #[test]
    fn reintroduced_lookup_dirty_bug_is_caught_and_shrunk() {
        let cfg = small_cfg();
        let seed = 99u64;
        let ops = gen_cache_ops(&mut SplitMix64::new(seed), 4000, cfg.sets() as u64 * 3);
        let d = diff_cache_impl("cache-bug", seed, cfg, &ops, || BuggyLookupDirtiesCache {
            inner: Cache::new(cfg),
        })
        .expect("the reintroduced bug must diverge");
        assert!(d.ops_minimal < d.ops_total, "shrinker made no progress");
        assert!(
            d.ops_minimal <= 4,
            "minimal reproducer unexpectedly large: {} ops ({})",
            d.ops_minimal,
            d.message
        );
        // The report carries the minimal stream, and the *fixed* cache
        // passes it.
        let minimal = shrink_ops(&ops, |s| {
            let mut buggy = BuggyLookupDirtiesCache {
                inner: Cache::new(cfg),
            };
            run_cache_ops(&mut buggy, cfg.size_bytes, cfg.ways, s).is_some()
        });
        assert!(
            d.stream.contains(&format!("{minimal:?}")),
            "divergence text lacks the minimal stream: {}",
            d.stream
        );
        let replay = run_cache_ops(&mut Cache::new(cfg), cfg.size_bytes, cfg.ways, &minimal);
        assert!(
            replay.is_none(),
            "fixed cache still fails the minimal stream: {replay:?}"
        );
    }

    /// A deliberately wrong walker fixture probe: corrupt the reference
    /// tables after building, so fast and reference disagree — the walker
    /// differential must catch it too.
    #[test]
    fn walker_divergence_is_caught_when_tables_disagree() {
        let mut fixture = build_walk_fixture(21, 100, 200);
        // Find a probe that currently walks OK, then corrupt its leaf in
        // the reference image only.
        let probe = fixture
            .probes
            .iter()
            .copied()
            .find(|&p| {
                matches!(
                    ref_walk(&fixture.tables, fixture.root.0, WALK_PHYS_BITS, p.0),
                    RefWalkResult::Ok { .. }
                )
            })
            .expect("fixture has at least one mapped probe");
        let leaf_addr = match ref_walk(&fixture.tables, fixture.root.0, WALK_PHYS_BITS, probe.0) {
            RefWalkResult::Ok { accesses, .. } => accesses.last().unwrap().entry_addr,
            _ => unreachable!(),
        };
        let raw = fixture.tables[&leaf_addr];
        fixture.tables.insert(leaf_addr, raw ^ (1 << 13));
        assert!(
            check_walk_probe(&fixture, probe).is_some(),
            "corrupted reference table must diverge from the fast walker"
        );
    }
}
