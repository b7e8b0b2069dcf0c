//! The 64-entry fully-associative TLB (Table III).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pagetable::addr::Frame;
use pagetable::x86_64::Pte;

use crate::cache::{search_set, EMPTY};

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (each triggers a page walk).
    pub misses: u64,
}

impl TlbStats {
    /// Misses per lookup.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Multiplicative hash of a virtual page number for the TLB's map.
///
/// The keys are simulated VPNs and at most `capacity` of them are resident,
/// so keys crafted to collide (a caller of `MemorySystem::load` chooses its
/// addresses) cost at most one probe sequence over the resident keys, which is what a
/// linear scan of the entries costs anyway. The product's high half is
/// folded into the low half because the map places keys by the low bits.
#[derive(Debug, Clone, Copy, Default)]
struct VpnHasher(u64);

impl Hasher for VpnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, vpn: u64) {
        let h = (self.0 ^ vpn).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A fully-associative, LRU TLB.
///
/// A map finds every resident translation: VPN → (leaf PTE, slot). Each
/// slot's VPN and LRU stamp sit in two arrays, and an insert picks its
/// slot with the caches' set search (`cache::search_set`) over the whole
/// TLB as one set: the resident slot, else the first free one, else the
/// least recently used one. A free slot has VPN `EMPTY` and stamp 0.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: HashMap<u64, (Pte, usize), BuildHasherDefault<VpnHasher>>,
    vpns: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-capacity TLB has no slot for
    /// `insert` to fill.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be at least one entry");
        Self {
            entries: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            vpns: vec![EMPTY; capacity],
            stamps: vec![0; capacity],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Looks up a virtual page number; returns the cached leaf PTE.
    pub fn lookup(&mut self, vpn: u64) -> Option<Pte> {
        self.clock += 1;
        if let Some(&(pte, slot)) = self.entries.get(&vpn) {
            self.stamps[slot] = self.clock;
            self.stats.hits += 1;
            return Some(pte);
        }
        self.stats.misses += 1;
        None
    }

    /// Installs a translation (after a successful page walk).
    pub fn insert(&mut self, vpn: u64, pte: Pte) {
        self.clock += 1;
        let slot = match search_set(&self.vpns, &self.stamps, vpn) {
            Ok(slot) => slot,
            Err(slot) => {
                let victim = std::mem::replace(&mut self.vpns[slot], vpn);
                if victim != EMPTY {
                    self.entries.remove(&victim);
                }
                slot
            }
        };
        self.stamps[slot] = self.clock;
        self.entries.insert(vpn, (pte, slot));
    }

    /// Invalidates one page (e.g. on unmap).
    pub fn invalidate(&mut self, vpn: u64) {
        if let Some((_, slot)) = self.entries.remove(&vpn) {
            self.vpns[slot] = EMPTY;
            self.stamps[slot] = 0;
        }
    }

    /// Full TLB shootdown.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.vpns.fill(EMPTY);
        self.stamps.fill(0);
    }

    /// The frame a cached translation maps to, if present (test helper).
    #[must_use]
    pub fn peek_frame(&self, vpn: u64) -> Option<Frame> {
        self.entries.get(&vpn).map(|(pte, _)| pte.frame())
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagetable::x86_64::PteFlags;

    fn pte(f: u64) -> Pte {
        Pte::new(Frame(f), PteFlags::user_data())
    }

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert!(t.lookup(100).is_none());
        t.insert(100, pte(1));
        assert_eq!(t.lookup(100).unwrap().frame(), Frame(1));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = Tlb::new(2);
        t.insert(1, pte(1));
        t.insert(2, pte(2));
        t.lookup(1); // 1 becomes MRU
        t.insert(3, pte(3)); // evicts 2
        assert!(t.peek_frame(2).is_none());
        assert!(t.peek_frame(1).is_some());
        assert!(t.peek_frame(3).is_some());
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = Tlb::new(4);
        t.insert(1, pte(1));
        t.insert(2, pte(2));
        t.invalidate(1);
        assert!(t.peek_frame(1).is_none());
        assert!(t.peek_frame(2).is_some());
        t.flush();
        assert!(t.peek_frame(2).is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(2);
        t.insert(1, pte(1));
        t.insert(1, pte(9));
        assert_eq!(t.peek_frame(1), Some(Frame(9)));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }
}
