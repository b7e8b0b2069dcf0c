//! The MMU (page-walk) cache: 8 KB, 4-way (Table III).
//!
//! Caches individual upper-level page-table entries by their physical
//! address, so most walks only send the leaf access down the memory
//! hierarchy — matching gem5's page-walk caches and keeping the PTE DRAM
//! traffic realistic.

use pagetable::addr::PhysAddr;
use pagetable::x86_64::Pte;

use crate::cache::{search_set, EMPTY};

/// MMU-cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MmuCacheStats {
    /// Entry lookups that hit.
    pub hits: u64,
    /// Entry lookups that missed.
    pub misses: u64,
}

/// A set-associative cache of 8-byte page-table entries.
///
/// Keys (entry addresses in 8-byte units), LRU stamps and entries sit in
/// three arrays, set after set, searched by the data caches' one set
/// search (`cache::search_set`).
#[derive(Debug, Clone)]
pub struct MmuCache {
    sets: usize,
    ways: usize,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    ptes: Vec<Pte>,
    clock: u64,
    stats: MmuCacheStats,
    /// Hit latency in CPU cycles.
    pub latency_cycles: u64,
}

impl MmuCache {
    /// Creates an MMU cache with `entries` total slots and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry: zero entries, zero ways, entries not
    /// dividing evenly into ways, or a non-power-of-two set count (the
    /// `index()` mask arithmetic requires a power of two).
    #[must_use]
    pub fn new(entries: usize, ways: usize, latency_cycles: u64) -> Self {
        assert!(ways > 0, "MMU cache needs at least one way");
        assert!(entries > 0, "MMU cache needs at least one entry");
        assert!(
            entries.is_multiple_of(ways),
            "MMU cache entries ({entries}) must divide evenly into {ways} ways"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "MMU cache sets must be a power of two (got {sets})"
        );
        Self {
            sets,
            ways,
            keys: vec![EMPTY; entries],
            stamps: vec![0; entries],
            ptes: vec![Pte::ZERO; entries],
            clock: 0,
            stats: MmuCacheStats::default(),
            latency_cycles,
        }
    }

    /// The entry's set and key, and the set's search: `Ok` with the
    /// resident slot, else `Err` with the slot a fill takes.
    fn search(&self, entry_addr: PhysAddr) -> (u64, Result<usize, usize>) {
        let key = entry_addr.as_u64() >> 3; // 8-byte entries
        let base = ((key as usize) & (self.sets - 1)) * self.ways;
        let ways = base..base + self.ways;
        let found = search_set(&self.keys[ways.clone()], &self.stamps[ways], key);
        (key, found.map(|i| base + i).map_err(|i| base + i))
    }

    /// Looks up the entry at `entry_addr`.
    pub fn lookup(&mut self, entry_addr: PhysAddr) -> Option<Pte> {
        self.clock += 1;
        if let (_, Ok(i)) = self.search(entry_addr) {
            self.stamps[i] = self.clock;
            self.stats.hits += 1;
            return Some(self.ptes[i]);
        }
        self.stats.misses += 1;
        None
    }

    /// Installs an upper-level entry: over its resident copy, else into
    /// the first empty slot of its set, else over the set's LRU entry.
    pub fn insert(&mut self, entry_addr: PhysAddr, pte: Pte) {
        self.clock += 1;
        let (key, Ok(i) | Err(i)) = self.search(entry_addr);
        self.keys[i] = key;
        self.stamps[i] = self.clock;
        self.ptes[i] = pte;
    }

    /// Invalidates everything (TLB-shootdown companion).
    pub fn flush(&mut self) {
        self.keys.fill(EMPTY);
        self.stamps.fill(0);
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> MmuCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagetable::addr::Frame;
    use pagetable::x86_64::PteFlags;

    #[test]
    fn insert_lookup_flush() {
        let mut m = MmuCache::new(1024, 4, 2);
        let a = PhysAddr::new(0x1238);
        assert!(m.lookup(a).is_none());
        m.insert(a, Pte::new(Frame(5), PteFlags::table()));
        assert_eq!(m.lookup(a).unwrap().frame(), Frame(5));
        m.flush();
        assert!(m.lookup(a).is_none());
    }

    #[test]
    fn distinct_entries_in_same_line() {
        // Entries are cached at 8-byte granularity, not line granularity.
        let mut m = MmuCache::new(1024, 4, 2);
        m.insert(PhysAddr::new(0x1000), Pte::new(Frame(1), PteFlags::table()));
        assert!(m.lookup(PhysAddr::new(0x1008)).is_none());
    }

    #[test]
    fn set_conflict_evicts_lru() {
        let mut m = MmuCache::new(8, 2, 2); // 4 sets × 2 ways
                                            // Same set: keys differing by 4 (sets) in entry index => addr stride 4*8.
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(4 * 8);
        let c = PhysAddr::new(8 * 8);
        m.insert(a, Pte::new(Frame(1), PteFlags::table()));
        m.insert(b, Pte::new(Frame(2), PteFlags::table()));
        m.lookup(a);
        m.insert(c, Pte::new(Frame(3), PteFlags::table()));
        assert!(m.lookup(b).is_none(), "b was LRU");
        assert!(m.lookup(a).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = MmuCache::new(1024, 0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = MmuCache::new(0, 4, 2);
    }
}
