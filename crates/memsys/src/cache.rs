//! A set-associative, write-back, write-allocate data cache.
//!
//! Lines carry their data because PT-Guard's transparency contract is about
//! *content*: lines live MAC-stripped inside the hierarchy and MAC-embedded
//! in DRAM. A dirty line that leaves the last level therefore re-enters the
//! PT-Guard write path at the memory controller.

use pagetable::addr::PhysAddr;
use ptguard::line::Line;

use crate::config::CacheConfig;

/// One cache way.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
    data: Line,
}

impl Way {
    const EMPTY: Way = Way {
        tag: 0,
        valid: false,
        dirty: false,
        lru: 0,
        data: Line::ZERO,
    };
}

/// Hit/miss statistics.
///
/// Accounting contract: only [`Cache::lookup`] records `hits`/`misses` —
/// those two counters measure *demand* traffic exclusively. [`Cache::fill`]
/// and [`Cache::update`] are maintenance operations (refills, writeback
/// absorption) and never touch the hit/miss counters; `fill` instead counts
/// in `fills`. This keeps [`CacheStats::miss_ratio`] a pure demand-side
/// metric no matter how many refills land on stale copies.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines installed or refreshed via [`Cache::fill`] (maintenance
    /// traffic; disjoint from `hits`/`misses`).
    pub fills: u64,
}

impl CacheStats {
    /// Total demand lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Demand miss ratio in [0, 1].
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative cache holding 64-byte lines with data.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    storage: Vec<Way>,
    clock: u64,
    stats: CacheStats,
    /// Access latency in CPU cycles (exposed for the hierarchy).
    pub latency_cycles: u64,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry: zero ways, a capacity below one
    /// 64-byte line, or a non-power-of-two set count (see
    /// [`CacheConfig::sets`]). `index()` relies on `sets` being a power of
    /// two for its mask/shift arithmetic, so bad geometry must be rejected
    /// here rather than silently mis-indexing later.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Self {
            sets,
            ways: cfg.ways,
            storage: vec![Way::EMPTY; sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
            latency_cycles: cfg.latency_cycles,
        }
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.as_u64() >> 6;
        (
            (line as usize) & (self.sets - 1),
            line >> self.sets.trailing_zeros(),
        )
    }

    /// Looks up `addr`; on a hit returns the line data and updates LRU.
    ///
    /// Lookup never marks a line dirty: a line only becomes dirty when its
    /// data actually changes, via [`Cache::update`] or [`Cache::fill`]. A
    /// store that hits must therefore follow up with `update(addr, line,
    /// true)` once the new data exists. (Marking dirty at lookup time wrote
    /// unmodified lines back on fault/early-exit paths where the store
    /// never completed, inflating `writebacks` and DRAM traffic.)
    pub fn lookup(&mut self, addr: PhysAddr) -> Option<Line> {
        self.clock += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for w in &mut self.storage[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.lru = self.clock;
                self.stats.hits += 1;
                return Some(w.data);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Peeks without touching LRU or statistics.
    #[must_use]
    pub fn peek(&self, addr: PhysAddr) -> Option<Line> {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        self.storage[base..base + self.ways]
            .iter()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| w.data)
    }

    /// Installs `data` for `addr`, evicting the LRU way if needed.
    /// Returns the evicted dirty line `(addr, data)` if one was displaced.
    ///
    /// A fill is maintenance traffic, not a demand access: it advances the
    /// LRU clock and counts in [`CacheStats::fills`] on both the
    /// refill-over-stale path and the install path, but never records a hit
    /// or a miss (those belong to [`Cache::lookup`] alone — see
    /// [`CacheStats`]).
    pub fn fill(&mut self, addr: PhysAddr, data: Line, dirty: bool) -> Option<(PhysAddr, Line)> {
        self.clock += 1;
        self.stats.fills += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        // Hit-update path (e.g. refill over a stale copy).
        for w in &mut self.storage[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.data = data;
                w.dirty |= dirty;
                w.lru = self.clock;
                return None;
            }
        }
        // Choose a victim: first invalid, else LRU.
        let victim = {
            let ways = &self.storage[base..base + self.ways];
            match ways.iter().position(|w| !w.valid) {
                Some(i) => i,
                None => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set"),
            }
        };
        let w = &mut self.storage[base + victim];
        let evicted = if w.valid && w.dirty {
            self.stats.writebacks += 1;
            let line_no = (w.tag << self.sets.trailing_zeros()) | set as u64;
            Some((PhysAddr::new(line_no << 6), w.data))
        } else {
            None
        };
        *w = Way {
            tag,
            valid: true,
            dirty,
            lru: self.clock,
            data,
        };
        evicted
    }

    /// Updates the data of a resident line (no-op if absent). Marks dirty
    /// when `dirty` is set.
    pub fn update(&mut self, addr: PhysAddr, data: Line, dirty: bool) {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for w in &mut self.storage[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.data = data;
                w.dirty |= dirty;
                return;
            }
        }
    }

    /// Invalidates a line without writeback, returning its data if dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<(PhysAddr, Line)> {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for w in &mut self.storage[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.valid = false;
                if w.dirty {
                    let line_no = (w.tag << self.sets.trailing_zeros()) | set as u64;
                    return Some((PhysAddr::new(line_no << 6), w.data));
                }
                return None;
            }
        }
        None
    }

    /// Drains every dirty line (e.g. at a flush point), returning them.
    pub fn drain_dirty(&mut self) -> Vec<(PhysAddr, Line)> {
        let mut out = Vec::new();
        let shift = self.sets.trailing_zeros();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let w = &mut self.storage[set * self.ways + way];
                if w.valid && w.dirty {
                    let line_no = (w.tag << shift) | set as u64;
                    out.push((PhysAddr::new(line_no << 6), w.data));
                    w.dirty = false;
                }
            }
        }
        self.stats.writebacks += out.len() as u64;
        out
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways of 64 B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            latency_cycles: 1,
        })
    }

    fn line(v: u64) -> Line {
        Line::from_words([v, 0, 0, 0, 0, 0, 0, 0])
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = PhysAddr::new(0x1000);
        assert!(c.lookup(a).is_none());
        assert!(c.fill(a, line(7), false).is_none());
        assert_eq!(c.lookup(a), Some(line(7)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = small();
        // Three lines in the same set (stride = sets*64 = 256).
        let a = PhysAddr::new(0x0);
        let b = PhysAddr::new(0x100);
        let d = PhysAddr::new(0x200);
        c.fill(a, line(1), true); // dirty
        c.fill(b, line(2), false);
        c.lookup(a); // a is now MRU
        let evicted = c.fill(d, line(3), false);
        assert!(evicted.is_none(), "b was clean LRU: silent eviction");
        assert!(c.peek(b).is_none());
        assert!(c.peek(a).is_some());
        // The next fill evicts dirty `a` (LRU) and must write it back.
        let wb = c.fill(b, line(4), false);
        let (wa, wd) = wb.expect("dirty writeback");
        assert_eq!(wa, a);
        assert_eq!(wd, line(1));
    }

    #[test]
    fn update_marks_dirty_and_changes_data() {
        let mut c = small();
        let a = PhysAddr::new(0x40);
        c.fill(a, line(1), false);
        c.update(a, line(9), true);
        assert_eq!(c.lookup(a), Some(line(9)));
        let drained = c.drain_dirty();
        assert_eq!(drained, vec![(a, line(9))]);
        assert!(c.drain_dirty().is_empty(), "drain clears dirty bits");
    }

    #[test]
    fn invalidate_returns_dirty_data() {
        let mut c = small();
        let a = PhysAddr::new(0x80);
        c.fill(a, line(1), true);
        assert_eq!(c.invalidate(a), Some((a, line(1))));
        assert!(c.peek(a).is_none());
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = small();
        c.fill(PhysAddr::new(0x1000), line(5), false);
        assert_eq!(c.lookup(PhysAddr::new(0x103f)), Some(line(5)));
    }

    #[test]
    fn lookup_never_dirties_a_clean_line() {
        // Regression: `lookup(addr, write=true)` used to pre-mark the line
        // dirty before any data changed, so an aborted store still caused a
        // writeback of unmodified data. With dirty confined to fill/update,
        // a looked-up-but-never-updated line stays clean.
        let mut c = small();
        let a = PhysAddr::new(0x40);
        c.fill(a, line(1), false);
        assert_eq!(c.lookup(a), Some(line(1)));
        assert!(c.drain_dirty().is_empty(), "lookup must not set dirty");
        assert_eq!(c.stats().writebacks, 0);
        // The store path (lookup + update) does dirty the line.
        c.lookup(a);
        c.update(a, line(2), true);
        assert_eq!(c.drain_dirty(), vec![(a, line(2))]);
    }

    #[test]
    fn fill_accounting_is_disjoint_from_demand_stats() {
        // Refill-over-stale must not skew the demand miss ratio: fills
        // count in `fills` only, never in hits/misses.
        let mut c = small();
        let a = PhysAddr::new(0x1000);
        assert!(c.lookup(a).is_none()); // 1 demand miss
        c.fill(a, line(1), false); // install
        c.fill(a, line(2), false); // refill over stale copy
        c.fill(a, line(3), false); // and again
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().fills, 3);
        assert!((c.stats().miss_ratio() - 1.0).abs() < f64::EPSILON);
        // LRU clock still advanced on each fill: a later same-set fill
        // sees `a` as MRU.
        assert_eq!(c.lookup(a), Some(line(3)));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 0,
            latency_cycles: 1,
        });
    }

    #[test]
    #[should_panic(expected = "at least one 64-byte line")]
    fn zero_capacity_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 0,
            ways: 1,
            latency_cycles: 1,
        });
    }
}
