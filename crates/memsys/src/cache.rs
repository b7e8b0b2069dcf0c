//! A set-associative, write-back, write-allocate data cache.
//!
//! Lines carry their data because PT-Guard's transparency contract is about
//! *content*: lines live MAC-stripped inside the hierarchy and MAC-embedded
//! in DRAM. A dirty line that leaves the last level therefore re-enters the
//! PT-Guard write path at the memory controller. A cache stores a line's
//! bytes only while the line has a non-zero byte; every all-zero line
//! shares one entry.

use std::hint::select_unpredictable;

use pagetable::addr::PhysAddr;
use ptguard::line::Line;

use crate::config::CacheConfig;

/// The tag of an empty way. No real tag reaches it: a cache tag is a
/// physical address shifted right by at least 6 bits, an MMU-cache key one
/// shifted right by 3, and a TLB key a virtual address shifted right by 12.
pub(crate) const EMPTY: u64 = u64::MAX;

/// The one search of a set, shared by [`Cache`],
/// [`MmuCache`](crate::mmucache::MmuCache) and [`Tlb`](crate::tlb::Tlb)
/// (its slots form one set): `Ok(i)` if way `i` holds `tag`, else `Err(i)`
/// for the way a fill takes — the first empty way, or else the least
/// recently used one.
///
/// `tags` and `stamps` are the set's ways. An empty way has tag [`EMPTY`]
/// and stamp 0; a resident way's stamp is the clock value of its last use,
/// which the clock ticks before storing, so it is at least 1 and unique.
/// One running minimum with a strict `<` therefore finds the first empty
/// way when there is one, else the unique LRU way. A tag is resident at
/// most once per set, so the hit is unique too. Both scans keep their
/// result with selects, not a branch per way, since which way matches
/// follows no pattern the host could predict.
#[inline]
pub(crate) fn search_set(tags: &[u64], stamps: &[u64], tag: u64) -> Result<usize, usize> {
    debug_assert!(
        tags.iter()
            .zip(stamps)
            .all(|(&t, &s)| (t == EMPTY) == (s == 0)),
        "a way is empty exactly when its stamp is 0"
    );
    let mut hit = usize::MAX;
    for (i, &t) in tags.iter().enumerate() {
        hit = select_unpredictable(t == tag, i, hit);
    }
    if hit != usize::MAX {
        return Ok(hit);
    }
    let (mut victim, mut oldest) = (0, u64::MAX);
    for (i, &s) in stamps.iter().enumerate() {
        let older = s < oldest;
        victim = select_unpredictable(older, i, victim);
        oldest = select_unpredictable(older, s, oldest);
    }
    Err(victim)
}

/// A way of one set, as found by [`Cache::probe`]: the resident way on a
/// hit, the fill victim on a miss.
///
/// Only `probe` makes one, and it stays meaningful only until the set
/// changes: a caller may fill or dirty it after changing other caches,
/// never after touching this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way(usize);

/// Hit/miss statistics.
///
/// Accounting contract: only [`Cache::lookup`] and [`Cache::probe`] record
/// `hits`/`misses` — those two counters measure *demand* traffic
/// exclusively. [`Cache::fill`], [`Cache::fill_way`], [`Cache::update`] and
/// [`Cache::set_dirty`] are maintenance operations (refills, writeback
/// absorption) and never touch the hit/miss counters; the fills instead
/// count in `fills`. This keeps [`CacheStats::miss_ratio`] a pure
/// demand-side metric no matter how many refills land on stale copies.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines installed or refreshed via [`Cache::fill`] or
    /// [`Cache::fill_way`] (maintenance traffic; disjoint from
    /// `hits`/`misses`).
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
///
/// Each way's tag, LRU stamp, dirty bit and line handle sit in four arrays,
/// set after set, so a set search reads only its tags and stamps
/// (`search_set`). Every operation finds its way with one search, which
/// yields the resident way or, failing that, the way a fill would take. A
/// demand access that misses keeps that victim ([`Cache::probe`]) and
/// installs the refill there ([`Cache::fill_way`]) without searching again.
///
/// A way's bytes live in `held`, a pool of the lines that have a non-zero
/// byte, at the entry its handle names. Handle 0 names `held[0]`, the
/// all-zero line, which every way without a non-zero byte shares, so a
/// line read is one indirection with no branch. Only `set_line` writes a
/// way's bytes: it takes an entry when a non-zero line arrives and returns
/// it to `free` when a zero line replaces it or the way is invalidated.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    handles: Vec<u32>,
    held: Vec<Line>,
    free: Vec<u32>,
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
    /// here rather than silently mis-indexing later. Panics too on more
    /// ways than a `u32` handle can name.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let n = sets * cfg.ways;
        assert!(n < u32::MAX as usize, "cache has more ways than handles");
        Self {
            sets,
            ways: cfg.ways,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
            dirty: vec![false; n],
            handles: vec![0; n],
            held: vec![Line::ZERO],
            free: Vec::new(),
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

    /// [`search_set`] of `set`, as indices into the way arrays.
    fn search(&self, set: usize, tag: u64) -> Result<usize, usize> {
        let base = set * self.ways;
        let ways = base..base + self.ways;
        search_set(&self.tags[ways.clone()], &self.stamps[ways], tag)
            .map(|i| base + i)
            .map_err(|i| base + i)
    }

    /// The address of the line with `tag` in `set`.
    fn line_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let line_no = (tag << self.sets.trailing_zeros()) | set as u64;
        PhysAddr::new(line_no << 6)
    }

    /// The bytes of way `i`.
    fn line(&self, i: usize) -> Line {
        self.held[self.handles[i] as usize]
    }

    /// Sets the bytes of way `i`. A non-zero line goes into the way's own
    /// pool entry, else a free one, else a new one; a zero line returns
    /// the way's entry, if it has one, to the free list.
    fn set_line(&mut self, i: usize, data: Line) {
        let h = self.handles[i];
        if data.is_zero() {
            if h != 0 {
                self.free.push(h);
                self.handles[i] = 0;
            }
        } else if h != 0 {
            self.held[h as usize] = data;
        } else {
            let h = self.free.pop().unwrap_or_else(|| {
                self.held.push(Line::ZERO);
                (self.held.len() - 1) as u32
            });
            self.held[h as usize] = data;
            self.handles[i] = h;
        }
    }

    /// A demand lookup of `addr` that keeps what it found: on a hit, the
    /// resident way and its data (LRU updated); on a miss, the way a fill
    /// of `addr` would take, for [`Cache::fill_way`].
    ///
    /// Counts a hit or a miss and never dirties a line, exactly like
    /// [`Cache::lookup`].
    pub fn probe(&mut self, addr: PhysAddr) -> Result<(Way, Line), Way> {
        self.clock += 1;
        let (set, tag) = self.index(addr);
        match self.search(set, tag) {
            Ok(i) => {
                self.stamps[i] = self.clock;
                self.stats.hits += 1;
                Ok((Way(i), self.line(i)))
            }
            Err(i) => {
                self.stats.misses += 1;
                Err(Way(i))
            }
        }
    }

    /// Looks up `addr`; on a hit returns the line data and updates LRU.
    ///
    /// Lookup never marks a line dirty: a line only becomes dirty when its
    /// data actually changes, via [`Cache::update`], [`Cache::set_dirty`]
    /// or a fill. A store that hits must therefore follow up with
    /// `update(addr, line, true)` (or `set_dirty` on the probed way) once
    /// the new data exists. (Marking dirty at lookup time wrote unmodified
    /// lines back on fault/early-exit paths where the store never
    /// completed, inflating `writebacks` and DRAM traffic.)
    pub fn lookup(&mut self, addr: PhysAddr) -> Option<Line> {
        self.probe(addr).ok().map(|(_, line)| line)
    }

    /// Peeks without touching LRU or statistics.
    #[must_use]
    pub fn peek(&self, addr: PhysAddr) -> Option<Line> {
        let (set, tag) = self.index(addr);
        self.search(set, tag).ok().map(|i| self.line(i))
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
        match self.search(set, tag) {
            // Refill over a resident (possibly stale) copy.
            Ok(i) => {
                self.set_line(i, data);
                self.dirty[i] |= dirty;
                self.stamps[i] = self.clock;
                None
            }
            Err(victim) => self.install(victim, set, tag, data, dirty),
        }
    }

    /// [`Cache::fill`] of a line that [`Cache::probe`] just missed, into the
    /// victim way that probe returned: the same result, without searching
    /// the set again. The set must not have changed since the probe.
    pub fn fill_way(
        &mut self,
        way: Way,
        addr: PhysAddr,
        data: Line,
        dirty: bool,
    ) -> Option<(PhysAddr, Line)> {
        self.clock += 1;
        self.stats.fills += 1;
        let (set, tag) = self.index(addr);
        debug_assert_eq!(
            self.search(set, tag),
            Err(way.0),
            "fill_way: the set changed since the probe that chose the way"
        );
        self.install(way.0, set, tag, data, dirty)
    }

    /// Puts `tag` into way `i` of `set`, returning the way's line if it
    /// was dirty (a writeback; an empty way is never dirty).
    fn install(
        &mut self,
        i: usize,
        set: usize,
        tag: u64,
        data: Line,
        dirty: bool,
    ) -> Option<(PhysAddr, Line)> {
        let evicted = self.dirty[i].then(|| (self.line_addr(set, self.tags[i]), self.line(i)));
        if evicted.is_some() {
            self.stats.writebacks += 1;
        }
        self.tags[i] = tag;
        self.stamps[i] = self.clock;
        self.dirty[i] = dirty;
        self.set_line(i, data);
        evicted
    }

    /// Marks the resident way a [`Cache::probe`] hit dirty: a store hit
    /// whose data is about to change. Touches neither LRU nor statistics,
    /// like [`Cache::update`].
    pub fn set_dirty(&mut self, way: Way) {
        debug_assert_ne!(self.tags[way.0], EMPTY, "set_dirty: way not resident");
        self.dirty[way.0] = true;
    }

    /// Updates the data of a resident line (no-op if absent). Marks dirty
    /// when `dirty` is set.
    pub fn update(&mut self, addr: PhysAddr, data: Line, dirty: bool) {
        let (set, tag) = self.index(addr);
        if let Ok(i) = self.search(set, tag) {
            self.set_line(i, data);
            self.dirty[i] |= dirty;
        }
    }

    /// Invalidates a line without writeback, returning its data if dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<(PhysAddr, Line)> {
        let (set, tag) = self.index(addr);
        let i = self.search(set, tag).ok()?;
        self.tags[i] = EMPTY;
        self.stamps[i] = 0;
        let evicted =
            std::mem::take(&mut self.dirty[i]).then(|| (self.line_addr(set, tag), self.line(i)));
        self.set_line(i, Line::ZERO);
        evicted
    }

    /// Drains every dirty line (e.g. at a flush point), returning them.
    pub fn drain_dirty(&mut self) -> Vec<(PhysAddr, Line)> {
        let mut out = Vec::new();
        for i in 0..self.dirty.len() {
            if std::mem::take(&mut self.dirty[i]) {
                out.push((self.line_addr(i / self.ways, self.tags[i]), self.line(i)));
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

    /// Pool entries that hold a way's non-zero line.
    fn entries_in_use(c: &Cache) -> usize {
        c.held.len() - 1 - c.free.len()
    }

    #[test]
    fn zero_lines_hold_no_pool_entry() {
        // Table III's L1D: 64 sets × 8 ways. 512 consecutive lines fill
        // every way, every other one dirty.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32 << 10,
            ways: 8,
            latency_cycles: 4,
        });
        for n in 0..512u64 {
            let evicted = c.fill(PhysAddr::new(n * 64), Line::ZERO, n % 2 == 1);
            assert!(evicted.is_none());
        }
        assert!((0..512u64).all(|n| c.peek(PhysAddr::new(n * 64)) == Some(Line::ZERO)));
        assert_eq!(c.held.len(), 1, "only the shared zero entry");
        assert_eq!(entries_in_use(&c), 0);
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 256);
        assert!(drained.iter().all(|&(_, line)| line == Line::ZERO));
        assert_eq!(c.held.len(), 1);
    }

    #[test]
    fn a_way_turned_zero_releases_its_entry_for_the_next_line() {
        let (a, b) = (PhysAddr::new(0x40), PhysAddr::new(0x80));
        let to_zero: [fn(&mut Cache); 4] = [
            |c| assert!(c.fill(PhysAddr::new(0x40), Line::ZERO, false).is_none()),
            |c| c.update(PhysAddr::new(0x40), Line::ZERO, true),
            |c| assert_eq!(c.invalidate(PhysAddr::new(0x40)), None),
            // Two zero lines of `a`'s set evict it, the LRU way.
            |c| {
                assert!(c.fill(PhysAddr::new(0x140), Line::ZERO, false).is_none());
                assert!(c.fill(PhysAddr::new(0x240), Line::ZERO, false).is_none());
                assert_eq!(c.peek(PhysAddr::new(0x40)), None);
            },
        ];
        for (k, release) in to_zero.into_iter().enumerate() {
            let mut c = small();
            c.fill(a, line(1), false);
            assert_eq!((entries_in_use(&c), c.held.len()), (1, 2), "case {k}");
            release(&mut c);
            assert_eq!((entries_in_use(&c), c.held.len()), (0, 2), "case {k}");
            c.fill(b, line(2), false);
            assert_eq!((entries_in_use(&c), c.held.len()), (1, 2), "case {k}");
            assert_eq!(c.peek(b), Some(line(2)), "case {k}");
        }
    }

    #[test]
    fn one_way_cycles_between_zero_and_non_zero_lines() {
        // Direct-mapped, 4 sets: `a` and `b` take turns in set 1's way.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 1,
            latency_cycles: 1,
        });
        let addrs = [PhysAddr::new(0x40), PhysAddr::new(0x140)];
        let last_word = Line::from_words([0, 0, 0, 0, 0, 0, 0, 2]);
        let mut resident = None;
        for (k, data) in [Line::ZERO, line(1), Line::ZERO, last_word]
            .into_iter()
            .enumerate()
        {
            let addr = addrs[k % 2];
            assert_eq!(c.fill(addr, data, true), resident, "step {k}: eviction");
            assert_eq!(entries_in_use(&c), usize::from(!data.is_zero()));
            assert_eq!(c.peek(addr), Some(data), "step {k}: peek");
            assert_eq!(c.drain_dirty(), vec![(addr, data)], "step {k}: drain");
            let (way, probed) = c.probe(addr).expect("resident");
            assert_eq!(probed, data, "step {k}: probe");
            c.set_dirty(way);
            resident = Some((addr, data));
        }
        assert_eq!(c.fill(addrs[0], Line::ZERO, false), resident);
        assert_eq!((entries_in_use(&c), c.held.len()), (0, 2));
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
