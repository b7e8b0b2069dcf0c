//! The memory-controller-resident PT-Guard engine (Figure 5 of the paper).
//!
//! [`PtGuardEngine::process_write`] sits on the DRAM write path: it pattern-
//! matches, embeds the MAC (and identifier, when optimized), and performs
//! the write-time collision check. [`PtGuardEngine::process_read`] sits on
//! the DRAM read path: it consults the CTB, verifies and strips MACs,
//! raises `PTECheckFailed` for tampered page-table walks, and optionally
//! invokes the best-effort corrector.
//!
//! The write path keeps an exact memo of the MACs it computes (4096
//! direct-mapped slots). Once the LLC is full, the cache hierarchy writes
//! the same dirty lines back to DRAM over and over, and the memo spares the
//! host from re-running the cipher for them. It changes host work only:
//! the modelled controller still computes a MAC for every such write, and
//! every counter and latency says so.

use crate::config::PtGuardConfig;
use crate::correct::{CorrectionOutcome, CorrectionStep, Corrector};
use crate::ctb::CollisionTrackingBuffer;
use crate::line::Line;
use crate::mac::PteMac;
use crate::pattern;
use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;
use pagetable::CACHELINE_SIZE;

/// Verdict of a DRAM read through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadVerdict {
    /// Not a protected line (or tracked collision): forwarded unchanged.
    Forwarded,
    /// MAC verified and stripped.
    Verified,
    /// MAC mismatched but correction succeeded.
    Corrected {
        /// Guesses the corrector spent.
        guesses: u32,
        /// The strategy that succeeded.
        step: CorrectionStep,
    },
    /// Page-table-walk integrity failure: `PTECheckFailed` is raised, the
    /// line must not be installed in the caches.
    CheckFailed,
}

impl ReadVerdict {
    /// Whether the read may be consumed (i.e. not a failed integrity check).
    #[must_use]
    pub fn is_ok(&self) -> bool {
        !matches!(self, ReadVerdict::CheckFailed)
    }
}

/// Result of processing a DRAM write.
#[derive(Debug, Clone, Copy)]
pub struct WriteOutcome {
    /// The line as it should be stored in DRAM.
    pub line: Line,
    /// Whether a MAC was embedded (the line is now *protected*).
    pub protected: bool,
    /// Whether this write was detected as a colliding line and tracked.
    pub collision_tracked: bool,
    /// Whether the CTB overflowed: the system must re-key.
    pub rekey_required: bool,
    /// Whether the modelled controller computed a MAC (energy/latency
    /// accounting; writes are off the critical path). A memo hit still
    /// counts: this describes the hardware, not the host's work.
    pub mac_computed: bool,
}

/// Result of processing a DRAM read.
#[derive(Debug, Clone, Copy)]
pub struct ReadOutcome {
    /// The line to forward to the cache hierarchy. Only meaningful when
    /// `verdict.is_ok()`.
    pub line: Line,
    /// What happened.
    pub verdict: ReadVerdict,
    /// Whether a MAC computation was performed (this is what costs the
    /// paper's 10-cycle latency on the read path).
    pub mac_computed: bool,
    /// Read-path latency added by PT-Guard, in CPU cycles.
    pub added_latency_cycles: u32,
}

/// The first step of the read cascade (Sections IV-C, V-A, V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadPath {
    /// A tracked colliding line: forwarded as stored.
    Tracked,
    /// Optimized mode, a data read without the identifier: forwarded as
    /// stored.
    Unidentified,
    /// Optimized mode, a zero payload carrying MAC-zero: verified by
    /// comparison.
    MacZero,
    /// Full MAC verification.
    Verify,
}

/// Counters the engine maintains.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// DRAM writes processed.
    pub writes: u64,
    /// Writes that matched the pattern and got a MAC. The modelled
    /// controller computes one for each (MAC-zero lines aside), whether or
    /// not the host served it from the write-path memo.
    pub protected_writes: u64,
    /// DRAM reads processed.
    pub reads: u64,
    /// Reads tagged as page-table walks.
    pub pte_reads: u64,
    /// MAC computations performed (read path).
    pub read_mac_computations: u64,
    /// Reads that skipped MAC computation thanks to the identifier.
    pub identifier_skips: u64,
    /// Reads that used the precomputed MAC-zero comparison.
    pub mac_zero_hits: u64,
    /// Successful verifications (MAC stripped).
    pub verified: u64,
    /// Successful corrections.
    pub corrected: u64,
    /// Largest guess count any single correction spent (≤ the G_max guess
    /// budget of Section VI-D; campaign reports assert ≤ 372 for the
    /// 44-bit x86_64 format).
    pub max_correction_guesses: u32,
    /// Page-table-walk integrity failures raised.
    pub check_failures: u64,
    /// Colliding lines tracked.
    pub collisions: u64,
    /// Re-keying escalations signalled.
    pub rekeys: u64,
    /// Write-path MACs (embeds and collision checks) the host took from
    /// the memo instead of running the cipher. Host work only: the
    /// modelled controller computed each of them.
    pub write_mac_memo_hits: u64,
}

/// Slots of the write-path MAC memo: the line count of Table III's 256 KB
/// L2, which is the reuse distance of the dirty victims the hierarchy
/// writes back to DRAM again and again once the LLC is full.
const WRITE_MAC_MEMO_SLOTS: usize = 4096;

/// One memo slot: a line address, the line's protected bits there, and
/// their MAC.
#[derive(Clone, Copy)]
struct MemoSlot {
    /// Line-aligned, so [`MemoSlot::EMPTY`]'s `u64::MAX` never matches.
    line_addr: u64,
    masked: Line,
    mac: u128,
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        line_addr: u64::MAX,
        masked: Line::ZERO,
        mac: 0,
    };
}

/// An exact, direct-mapped memo of write-path MACs, indexed by line
/// address.
///
/// A hit needs the same line address and the same protected bits, compared
/// in full, and [`PteMac::compute`] reads nothing else, so a hit returns
/// exactly what the cipher would. The memo holds MACs of one key; the
/// engine clears it when it swaps keys.
struct WriteMacMemo {
    slots: Box<[MemoSlot]>,
}

impl WriteMacMemo {
    fn new() -> Self {
        Self {
            slots: vec![MemoSlot::EMPTY; WRITE_MAC_MEMO_SLOTS].into_boxed_slice(),
        }
    }

    fn clear(&mut self) {
        self.slots.fill(MemoSlot::EMPTY);
    }

    /// `mac.compute(line, addr)`, and whether the memo served it.
    fn compute(&mut self, mac: &PteMac, line: &Line, addr: PhysAddr) -> (u128, bool) {
        let line_addr = addr.line_addr().as_u64();
        let masked = line.masked(mac.protected_mask());
        let index = (line_addr / CACHELINE_SIZE as u64) as usize % WRITE_MAC_MEMO_SLOTS;
        let slot = &mut self.slots[index];
        if slot.line_addr == line_addr && slot.masked == masked {
            return (slot.mac, true);
        }
        let value = mac.compute(line, addr);
        *slot = MemoSlot {
            line_addr,
            masked,
            mac: value,
        };
        (value, false)
    }
}

impl core::fmt::Debug for WriteMacMemo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WriteMacMemo")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// The PT-Guard memory-controller engine.
#[derive(Debug)]
pub struct PtGuardEngine {
    cfg: PtGuardConfig,
    mac: PteMac,
    ctb: CollisionTrackingBuffer,
    stats: EngineStats,
    write_macs: WriteMacMemo,
}

impl PtGuardEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PtGuardConfig::validate`]).
    #[must_use]
    pub fn new(cfg: PtGuardConfig) -> Self {
        cfg.validate();
        Self {
            mac: PteMac::from_config(&cfg),
            ctb: CollisionTrackingBuffer::new(),
            stats: EngineStats::default(),
            write_macs: WriteMacMemo::new(),
            cfg,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &PtGuardConfig {
        &self.cfg
    }

    /// The MAC unit (e.g. for external correction experiments).
    #[must_use]
    pub fn mac_unit(&self) -> &PteMac {
        &self.mac
    }

    /// The collision tracking buffer.
    #[must_use]
    pub fn ctb(&self) -> &CollisionTrackingBuffer {
        &self.ctb
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The MAC of a written `line` at `addr`, through the write-path memo.
    fn write_mac(&mut self, line: &Line, addr: PhysAddr) -> u128 {
        let (mac, hit) = self.write_macs.compute(&self.mac, line, addr);
        self.stats.write_mac_memo_hits += u64::from(hit);
        mac
    }

    /// Processes a DRAM write of `line` to `addr` (Section IV-B).
    pub fn process_write(&mut self, line: Line, addr: PhysAddr) -> WriteOutcome {
        self.stats.writes += 1;
        let fmt = self.cfg.format;
        let matches = if self.cfg.optimized {
            pattern::matches_extended_pattern_for(&line, fmt)
        } else {
            pattern::matches_pattern_for(&line, fmt)
        };

        if matches {
            self.stats.protected_writes += 1;
            // MAC-zero shortcut: zero lines get the precomputed common MAC.
            let (mac, computed) = if self.cfg.optimized && line.is_zero() {
                (self.mac.mac_zero(), false)
            } else {
                (self.write_mac(&line, addr), true)
            };
            let mut out = pattern::embed_mac_for(&line, mac, fmt);
            if self.cfg.optimized {
                out = pattern::embed_identifier_for(&out, self.cfg.identifier, fmt);
            }
            // A previously colliding line overwritten by a protected line is
            // no longer colliding.
            self.ctb.remove(addr);
            return WriteOutcome {
                line: out,
                protected: true,
                collision_tracked: false,
                rekey_required: false,
                mac_computed: computed,
            };
        }

        // Non-matching line: write-time collision detection (Section IV-D).
        // In optimized mode a collision additionally requires the identifier
        // region to alias the identifier (otherwise reads never strip it).
        let id_aliases = !self.cfg.optimized
            || pattern::extract_identifier_for(&line, fmt) == self.cfg.identifier;
        let mut collision = false;
        let mut mac_computed = false;
        if id_aliases {
            mac_computed = true;
            let computed = self.write_mac(&line, addr);
            collision = pattern::extract_mac_for(&line, fmt) == computed;
        }

        let mut rekey_required = false;
        if collision {
            self.stats.collisions += 1;
            if !self.ctb.insert(addr) {
                self.stats.rekeys += 1;
                rekey_required = true;
            }
        } else {
            self.ctb.remove(addr);
        }
        WriteOutcome {
            line,
            protected: false,
            collision_tracked: collision,
            rekey_required,
            mac_computed,
        }
    }

    /// Processes a DRAM read of `line` from `addr` (Sections IV-C to IV-E,
    /// V-A, V-B). `is_pte` is the request-bus bit tagging page-table walks.
    pub fn process_read(&mut self, line: Line, addr: PhysAddr, is_pte: bool) -> ReadOutcome {
        self.process_read_with(line, addr, is_pte, None)
    }

    /// The step of the read cascade a read of `line` from `addr` takes
    /// before any MAC work: a shortcut, or full verification. Shared by
    /// [`Self::process_read_with`], [`Self::read_needs_mac`] and
    /// [`Self::peek_read`], so the three cannot disagree.
    fn read_path(&self, line: &Line, addr: PhysAddr, is_pte: bool) -> ReadPath {
        // Tracked colliding lines are forwarded untouched, no MAC work.
        if self.ctb.contains(addr) {
            return ReadPath::Tracked;
        }
        let fmt = self.cfg.format;
        if self.cfg.optimized {
            let id = pattern::extract_identifier_for(line, fmt);
            if id != self.cfg.identifier && !is_pte {
                // No identifier: not a protected line; skip the MAC entirely.
                return ReadPath::Unidentified;
            }
            // MAC-zero shortcut: an all-zero payload carrying the
            // precomputed MAC-zero verifies by comparison alone.
            if id == self.cfg.identifier
                && pattern::strip_mac_and_identifier_for(line, fmt).is_zero()
                && pattern::extract_mac_for(line, fmt) == self.mac.mac_zero()
            {
                return ReadPath::MacZero;
            }
        }
        ReadPath::Verify
    }

    /// `line` with its MAC (and, when optimized, its identifier) cleared.
    fn strip(&self, line: &Line) -> Line {
        if self.cfg.optimized {
            pattern::strip_mac_and_identifier_for(line, self.cfg.format)
        } else {
            pattern::strip_mac_for(line, self.cfg.format)
        }
    }

    /// Whether a read of `line` from `addr` will reach full MAC verification
    /// (as opposed to the CTB/identifier/MAC-zero shortcuts) — the read
    /// cascade of [`Self::process_read`], without its side effects. The
    /// controller's drain step uses it to decide which queued reads to
    /// include in a [`PteMac::compute_batch`] call. A stale answer can only
    /// cost batching efficiency, never correctness — [`Self::process_read_with`]
    /// falls back to a scalar MAC when no precomputed value is supplied.
    #[must_use]
    pub fn read_needs_mac(&self, line: &Line, addr: PhysAddr, is_pte: bool) -> bool {
        self.read_path(line, addr, is_pte) == ReadPath::Verify
    }

    /// The line a data read (`is_pte = false`) of `line` from `addr`
    /// forwards to the caches: what [`Self::process_read`] returns, with no
    /// counter, CTB or memo touched. A data read never fails its check: a
    /// line whose MAC does not verify is forwarded as stored.
    ///
    /// Functional (untimed) reads use it, so they see exactly what a timed
    /// read of the same line would.
    #[must_use]
    pub fn peek_read(&self, line: &Line, addr: PhysAddr) -> Line {
        let fmt = self.cfg.format;
        match self.read_path(line, addr, false) {
            ReadPath::MacZero => self.strip(line),
            ReadPath::Verify
                if self.mac.compute(line, addr) == pattern::extract_mac_for(line, fmt) =>
            {
                self.strip(line)
            }
            _ => *line,
        }
    }

    /// [`Self::process_read`], with an optionally precomputed MAC for the
    /// full-verification path (the controller batches MAC computations over
    /// a drain of ready reads and feeds each result back through here).
    /// `precomputed` must be `self.mac_unit().compute(&line, addr)` when
    /// supplied; `None` computes it inline, so callers may over-approximate
    /// which reads take a shortcut.
    pub fn process_read_with(
        &mut self,
        line: Line,
        addr: PhysAddr,
        is_pte: bool,
        precomputed: Option<u128>,
    ) -> ReadOutcome {
        self.stats.reads += 1;
        if is_pte {
            self.stats.pte_reads += 1;
        }

        match self.read_path(&line, addr, is_pte) {
            path @ (ReadPath::Tracked | ReadPath::Unidentified) => {
                if path == ReadPath::Unidentified {
                    self.stats.identifier_skips += 1;
                }
                return ReadOutcome {
                    line,
                    verdict: ReadVerdict::Forwarded,
                    mac_computed: false,
                    added_latency_cycles: 0,
                };
            }
            ReadPath::MacZero => {
                self.stats.mac_zero_hits += 1;
                self.stats.verified += 1;
                return ReadOutcome {
                    line: self.strip(&line),
                    verdict: ReadVerdict::Verified,
                    mac_computed: false,
                    added_latency_cycles: 0,
                };
            }
            ReadPath::Verify => {}
        }

        // Full MAC verification.
        let fmt = self.cfg.format;
        self.stats.read_mac_computations += 1;
        let latency = self.cfg.mac_latency_cycles;
        let stored = pattern::extract_mac_for(&line, fmt);
        let computed = precomputed.unwrap_or_else(|| self.mac.compute(&line, addr));

        if computed == stored {
            self.stats.verified += 1;
            return ReadOutcome {
                line: self.strip(&line),
                verdict: ReadVerdict::Verified,
                mac_computed: true,
                added_latency_cycles: latency,
            };
        }

        if !is_pte {
            // Regular data without a matching MAC: forward unchanged — no
            // worse than consuming bit-flipped data on a baseline machine.
            return ReadOutcome {
                line,
                verdict: ReadVerdict::Forwarded,
                mac_computed: true,
                added_latency_cycles: latency,
            };
        }

        // Page-table walk with a MAC mismatch: correction, then exception.
        if self.cfg.correction {
            // MAC-zero interaction (a consequence of the Section V-B
            // optimization the paper leaves implicit): zero lines carry the
            // *address-independent* MAC-zero, so the general corrector's
            // address-bound comparisons can never match them. If the stored
            // MAC soft-matches MAC-zero, the line was written as all-zero —
            // forging this requires knowing the keyed MAC-zero value, so the
            // security argument is unchanged.
            if self.cfg.optimized
                && (stored ^ self.mac.mac_zero()).count_ones() <= self.cfg.soft_match_k
            {
                self.stats.corrected += 1;
                self.stats.max_correction_guesses = self.stats.max_correction_guesses.max(1);
                return ReadOutcome {
                    line: Line::ZERO,
                    verdict: ReadVerdict::Corrected {
                        guesses: 1,
                        step: CorrectionStep::ZeroReset,
                    },
                    mac_computed: true,
                    added_latency_cycles: latency.saturating_mul(2),
                };
            }
            let corrector =
                Corrector::new(&self.mac, self.cfg.soft_match_k, self.cfg.zero_reset_bits);
            if let CorrectionOutcome::Corrected(c) = corrector.correct(&line, addr) {
                self.stats.corrected += 1;
                self.stats.max_correction_guesses =
                    self.stats.max_correction_guesses.max(c.guesses);
                return ReadOutcome {
                    line: self.strip(&c.line),
                    verdict: ReadVerdict::Corrected {
                        guesses: c.guesses,
                        step: c.step,
                    },
                    mac_computed: true,
                    added_latency_cycles: latency.saturating_mul(1 + c.guesses),
                };
            }
        }

        self.stats.check_failures += 1;
        ReadOutcome {
            line,
            verdict: ReadVerdict::CheckFailed,
            mac_computed: true,
            added_latency_cycles: latency,
        }
    }

    /// Full-memory re-keying (Section VII-B): reads every line under the old
    /// key, strips verified MACs, swaps in `new_key`, re-embeds, and writes
    /// back. Clears the CTB and the write-path MAC memo. Returns the number
    /// of lines re-protected.
    pub fn rekey_memory<M: PhysMem + ?Sized>(&mut self, mem: &mut M, new_key: [u128; 2]) -> u64 {
        let size = mem.size();
        let mut staged: Vec<(PhysAddr, Line)> = Vec::new();
        let mut addr = 0u64;
        while addr < size {
            let pa = PhysAddr::new(addr);
            let line = Line::from_bytes(&mem.read_line(pa));
            let out = self.process_read(line, pa, false);
            if matches!(out.verdict, ReadVerdict::Verified) {
                staged.push((pa, out.line));
            }
            addr += CACHELINE_SIZE as u64;
        }
        self.cfg.key = new_key;
        self.mac = PteMac::from_config(&self.cfg);
        self.ctb.clear();
        self.write_macs.clear();
        let count = staged.len() as u64;
        for (pa, stripped) in staged {
            let w = self.process_write(stripped, pa);
            mem.write_line(pa, &w.line.to_bytes());
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte_line() -> Line {
        Line::from_words([
            0x1234_5027,
            0x1235_5027,
            0,
            0x8000_0000_1111_1007,
            0,
            0,
            0,
            0,
        ])
    }

    fn data_line() -> Line {
        // Regular data: has bits inside the MAC region, never matches.
        Line::from_words([
            u64::MAX,
            0x1234_5678_9abc_def0,
            0xffff_ffff_0000_1111,
            7,
            8,
            9,
            10,
            11,
        ])
    }

    #[test]
    fn pte_write_read_roundtrip_base() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0x4000);
        let w = e.process_write(pte_line(), addr);
        assert!(w.protected);
        assert_ne!(w.line, pte_line(), "MAC must be embedded");
        let r = e.process_read(w.line, addr, true);
        assert_eq!(r.verdict, ReadVerdict::Verified);
        assert_eq!(r.line, pte_line(), "stripped line must match the original");
        assert_eq!(r.added_latency_cycles, 10);
    }

    #[test]
    fn pte_write_read_roundtrip_optimized() {
        let mut e = PtGuardEngine::new(PtGuardConfig::optimized());
        let addr = PhysAddr::new(0x8000);
        let w = e.process_write(pte_line(), addr);
        assert!(w.protected);
        assert_eq!(pattern::extract_identifier(&w.line), e.config().identifier);
        let r = e.process_read(w.line, addr, true);
        assert_eq!(r.verdict, ReadVerdict::Verified);
        assert_eq!(r.line, pte_line());
    }

    #[test]
    fn tampered_pte_walk_fails_or_corrects() {
        let mut e = PtGuardEngine::new(PtGuardConfig {
            correction: false,
            ..PtGuardConfig::default()
        });
        let addr = PhysAddr::new(0x4000);
        let w = e.process_write(pte_line(), addr);
        let mut tampered = w.line;
        tampered.set_word(0, tampered.word(0) ^ (1 << 13)); // PFN bit
        let r = e.process_read(tampered, addr, true);
        assert_eq!(r.verdict, ReadVerdict::CheckFailed);
        assert_eq!(e.stats().check_failures, 1);
    }

    #[test]
    fn tampered_pte_walk_corrected_when_enabled() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0x4000);
        let w = e.process_write(pte_line(), addr);
        let mut tampered = w.line;
        tampered.set_word(0, tampered.word(0) ^ (1 << 13));
        let r = e.process_read(tampered, addr, true);
        match r.verdict {
            ReadVerdict::Corrected { .. } => assert_eq!(r.line, pte_line()),
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn data_line_passes_through_unmodified() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0xc0);
        let line = data_line();
        let w = e.process_write(line, addr);
        assert!(!w.protected);
        assert_eq!(w.line, line);
        let r = e.process_read(w.line, addr, false);
        assert!(r.verdict.is_ok());
        assert_eq!(r.line, line);
    }

    #[test]
    fn optimized_skips_mac_for_plain_data() {
        let mut e = PtGuardEngine::new(PtGuardConfig::optimized());
        let line = data_line();
        let r = e.process_read(line, PhysAddr::new(0x100), false);
        assert!(!r.mac_computed);
        assert_eq!(r.added_latency_cycles, 0);
        assert_eq!(e.stats().identifier_skips, 1);
    }

    #[test]
    fn base_mode_computes_mac_on_every_read() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        for i in 0..10u64 {
            let _ = e.process_read(data_line(), PhysAddr::new(i * 64), false);
        }
        assert_eq!(e.stats().read_mac_computations, 10);
    }

    #[test]
    fn zero_line_uses_mac_zero_shortcut() {
        let mut e = PtGuardEngine::new(PtGuardConfig::optimized());
        let addr = PhysAddr::new(0x40);
        let w = e.process_write(Line::ZERO, addr);
        assert!(w.protected);
        assert!(!w.mac_computed, "zero line must use the precomputed MAC");
        let r = e.process_read(w.line, addr, false);
        assert_eq!(r.verdict, ReadVerdict::Verified);
        assert!(!r.mac_computed);
        assert_eq!(r.line, Line::ZERO);
        assert_eq!(e.stats().mac_zero_hits, 1);
    }

    #[test]
    fn collision_is_tracked_and_preserved() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0x7c0);
        // Forge a colliding line: compute the MAC a protected write would
        // embed, then place it in the data as plain (non-matching) content.
        let payload = Line::from_words([0xabcd, 0, 1, 2, 3, 4, 5, 6]);
        let mac = e.mac_unit().compute(&payload, addr);
        let colliding = pattern::embed_mac(&payload, mac);
        assert!(!pattern::matches_base_pattern(&colliding));
        let w = e.process_write(colliding, addr);
        assert!(w.collision_tracked);
        assert!(e.ctb().contains(addr));
        // The read must forward the data untouched (no stripping!).
        let r = e.process_read(colliding, addr, false);
        assert_eq!(r.verdict, ReadVerdict::Forwarded);
        assert_eq!(r.line, colliding);
        assert!(!r.mac_computed);
    }

    #[test]
    fn ctb_overflow_requests_rekey() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let mut required = false;
        for i in 0..5u64 {
            let addr = PhysAddr::new(0x1_0000 + i * 64);
            let payload = Line::from_words([i + 1, 0, 0, 0, 0, 0, 0, 0xdead]);
            let mac = e.mac_unit().compute(&payload, addr);
            let colliding = pattern::embed_mac(&payload, mac);
            let w = e.process_write(colliding, addr);
            assert!(w.collision_tracked || w.rekey_required);
            required |= w.rekey_required;
        }
        assert!(required, "fifth collision must demand re-keying");
        assert_eq!(e.stats().rekeys, 1);
    }

    #[test]
    fn overwrite_clears_ctb_entry() {
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0x7c0);
        let payload = Line::from_words([0xabcd, 0, 1, 2, 3, 4, 5, 6]);
        let mac = e.mac_unit().compute(&payload, addr);
        let colliding = pattern::embed_mac(&payload, mac);
        e.process_write(colliding, addr);
        assert!(e.ctb().contains(addr));
        e.process_write(data_line(), addr);
        assert!(!e.ctb().contains(addr));
    }

    #[test]
    fn rekey_memory_preserves_pte_contents() {
        use pagetable::memory::VecMemory;
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let mut mem = VecMemory::new(4096);
        let addr = PhysAddr::new(0x140);
        let w = e.process_write(pte_line(), addr);
        mem.write_line(addr, &w.line.to_bytes());
        let reprotected = e.rekey_memory(&mut mem, [0x1111, 0x2222]);
        assert!(reprotected >= 1);
        let after = Line::from_bytes(&mem.read_line(addr));
        assert_ne!(after, w.line, "MAC must change under the new key");
        let r = e.process_read(after, addr, true);
        assert_eq!(r.verdict, ReadVerdict::Verified);
        assert_eq!(r.line, pte_line());
    }

    #[test]
    fn optimized_requires_the_extended_pattern() {
        // A line whose 96 MAC-region bits are zero but whose ignored bits
        // are dirty: base PT-Guard protects it (96-bit match), Optimized
        // does not (152-bit match fails) — exactly the Section V-A
        // trade-off that shrinks the protected-data-line population.
        let mut line = pte_line();
        line.set_word(2, 1 << 53); // inside the ignored/identifier region
        let addr = PhysAddr::new(0x9000);

        let mut base = PtGuardEngine::new(PtGuardConfig::default());
        assert!(base.process_write(line, addr).protected);

        let mut opt = PtGuardEngine::new(PtGuardConfig::optimized());
        let w = opt.process_write(line, addr);
        assert!(!w.protected);
        assert_eq!(w.line, line, "non-matching line stored verbatim");
        // And the read path forwards it untouched without MAC latency
        // (its identifier region does not alias the identifier).
        let r = opt.process_read(line, addr, false);
        assert!(!r.mac_computed);
        assert_eq!(r.line, line);
    }

    #[test]
    fn identifier_coincidence_costs_a_mac_but_stays_correct() {
        // A data line whose ignored bits happen to equal the identifier:
        // the read must compute the MAC (the identifier said "protected"),
        // find a mismatch, and forward the data unchanged (Section V-A:
        // identifier collisions are not tracked).
        let mut e = PtGuardEngine::new(PtGuardConfig::optimized());
        let id = e.config().identifier;
        let payload = Line::from_words([0xdead_beef, 1, 2, 3, 4, 5, 6, 0xffff_0000_0000_0001]);
        let coincident = pattern::embed_identifier(&payload, id);
        let w = e.process_write(coincident, PhysAddr::new(0xa000));
        assert!(!w.protected, "mac region is dirty, so no pattern match");
        let r = e.process_read(coincident, PhysAddr::new(0xa000), false);
        assert!(r.mac_computed, "identifier coincidence forces the check");
        assert_eq!(r.line, coincident, "data must pass through unmodified");
        assert_eq!(e.stats().identifier_skips, 0);
    }

    #[test]
    fn protected_write_clears_stale_ctb_entry() {
        // A colliding data line gets tracked; the OS later places a page
        // table at the same address — the protected write must untrack it,
        // or walks there would skip verification forever.
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0xb000);
        let payload = Line::from_words([7, 0, 1, 2, 3, 4, 5, 6]);
        let mac = e.mac_unit().compute(&payload, addr);
        let colliding = pattern::embed_mac(&payload, mac);
        assert!(e.process_write(colliding, addr).collision_tracked);
        assert!(e.ctb().contains(addr));

        let w = e.process_write(pte_line(), addr);
        assert!(w.protected);
        assert!(!e.ctb().contains(addr), "stale CTB entry must be cleared");
        let r = e.process_read(w.line, addr, true);
        assert_eq!(r.verdict, ReadVerdict::Verified, "walks must verify again");
    }

    #[test]
    fn zero_line_roundtrips_in_base_mode_with_address_bound_mac() {
        // Without the optimizations there is no MAC-zero: all-zero lines get
        // ordinary address-bound MACs and full verification.
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let a1 = PhysAddr::new(0xc000);
        let a2 = PhysAddr::new(0xc040);
        let w1 = e.process_write(Line::ZERO, a1);
        let w2 = e.process_write(Line::ZERO, a2);
        assert!(w1.mac_computed && w2.mac_computed);
        assert_ne!(
            w1.line, w2.line,
            "address binding must differentiate zero lines"
        );
        assert_eq!(
            e.process_read(w1.line, a1, true).verdict,
            ReadVerdict::Verified
        );
        assert_eq!(
            e.process_read(w2.line, a1, true).verdict,
            ReadVerdict::CheckFailed,
            "a relocated zero line must not verify"
        );
    }

    #[test]
    fn identifier_bit_flips_degrade_to_baseline_for_data() {
        // Section V-A's security argument: flipping identifier bits of a
        // protected *data* line makes reads skip the MAC check and forward
        // the line as-is (MAC still embedded) — "similar to bit flips in
        // regular data without the MAC". For *PTE walks* the check runs
        // regardless of the identifier, so page tables lose nothing.
        let mut e = PtGuardEngine::new(PtGuardConfig::optimized());
        let addr = PhysAddr::new(0xd000);
        let w = e.process_write(pte_line(), addr);

        let mut id_flipped = w.line;
        id_flipped.set_word(0, id_flipped.word(0) ^ (1 << 53)); // identifier bit

        // Data read: identifier mismatch -> forwarded unchanged, no MAC.
        let r = e.process_read(id_flipped, addr, false);
        assert_eq!(r.verdict, ReadVerdict::Forwarded);
        assert!(!r.mac_computed);
        assert_eq!(
            r.line, id_flipped,
            "line (with MAC residue) forwarded as-is"
        );

        // Page-table walk of the same line: the MAC check still runs and
        // the identifier flip is trivially repaired (id bits are stripped).
        let r = e.process_read(id_flipped, addr, true);
        assert!(r.mac_computed);
        assert_eq!(r.verdict, ReadVerdict::Verified);
        assert_eq!(r.line, pte_line());
    }

    #[test]
    fn write_mac_memo_is_exact() {
        // Seeded random writes over two memo slots, each shared by three
        // line addresses, checked write by write against the reference
        // cipher. Each step writes a base PTE line, then one variant of it
        // at the same address: the same line, other unprotected bits (must
        // hit), a flipped protected bit (must miss), dirty unused PFN bits
        // (non-matching, must hit), or a collision forged over the
        // reference MAC (non-matching, must hit).
        use pagetable::memory::VecMemory;

        let mut state = 0x5eed_0015_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let fmt = e.config().format;
        let protected = e.mac_unit().protected_mask();
        let mac_field = fmt.mac_field_mask();
        let unprotected = !protected & !mac_field;
        let stride = (WRITE_MAC_MEMO_SLOTS * CACHELINE_SIZE) as u64;
        let addrs: Vec<PhysAddr> = (0..3)
            .flat_map(|i| [0x4_0000 + i * stride, 0x4_0040 + i * stride])
            .map(PhysAddr::new)
            .collect();
        let pool: Vec<Line> = (0..4)
            .map(|_| Line::from_words([0; 8].map(|_: u64| next() & protected)))
            .collect();

        let check = |e: &mut PtGuardEngine, line: Line, addr: PhysAddr| -> bool {
            let hits = e.stats().write_mac_memo_hits;
            let w = e.process_write(line, addr);
            let reference = e.mac_unit().compute_unbatched(&line, addr);
            if pattern::matches_pattern_for(&line, fmt) {
                assert!(w.protected && w.mac_computed);
                assert_eq!(w.line, pattern::embed_mac_for(&line, reference, fmt));
            } else {
                assert!(!w.protected && w.mac_computed);
                assert_eq!(w.line, line);
                let collides = pattern::extract_mac_for(&line, fmt) == reference;
                assert_eq!(w.collision_tracked, collides, "{line:?} at {addr:?}");
            }
            e.stats().write_mac_memo_hits > hits
        };

        let steps = 5000;
        for step in 0..steps {
            if step == steps / 2 {
                // Re-key midway, then write a line the memo held under the
                // old key: it must get the new key's MAC. The memory is
                // empty, so the re-key rewrites no line and every old-key
                // entry would survive it but for the clear.
                let (addr, line) = (addrs[0], pool[0]);
                check(&mut e, line, addr);
                e.rekey_memory(&mut VecMemory::new(0), [0x0123_4567, 0x89ab_cdef]);
                assert!(!check(&mut e, line, addr), "re-keying must clear the memo");
            }
            let addr = addrs[(next() % addrs.len() as u64) as usize];
            let base = pool[(next() % pool.len() as u64) as usize];
            check(&mut e, base, addr);
            let word = (next() % 8) as usize;
            let mut variant = base;
            match next() % 5 {
                0 => assert!(check(&mut e, variant, addr)),
                1 => {
                    let bits = (next() & unprotected) | pagetable::x86_64::bits::ACCESSED;
                    variant.set_word(word, variant.word(word) ^ bits);
                    assert!(check(&mut e, variant, addr), "unprotected bits must hit");
                }
                2 => {
                    let mut bit = next() % 64;
                    while protected & (1 << bit) == 0 {
                        bit = next() % 64;
                    }
                    variant.set_word(word, variant.word(word) ^ (1 << bit));
                    assert!(
                        !check(&mut e, variant, addr),
                        "protected bit {bit} must miss"
                    );
                }
                3 => {
                    variant.set_word(word, variant.word(word) | (next() & mac_field) | 1 << 40);
                    assert!(check(&mut e, variant, addr), "unused PFN bits must hit");
                }
                _ => {
                    let mac = e.mac_unit().compute_unbatched(&base, addr);
                    variant = pattern::embed_mac(&base, mac);
                    assert!(check(&mut e, variant, addr), "a forged collision must hit");
                }
            }
        }
        let stats = e.stats();
        assert_eq!(stats.writes, 2 * steps + 2);
        assert!(stats.write_mac_memo_hits > 0);
        assert!(stats.collisions > 0);
        assert!(format!("{e:?}").contains("write_macs: WriteMacMemo { slots: 4096 }"));
    }

    #[test]
    fn accessed_bit_updates_do_not_break_verification() {
        // Hardware sets the accessed bit in cached PTEs; on eviction the
        // line is rewritten. But even a stale MAC'd line whose accessed bit
        // differs verifies, because the accessed bit is unprotected.
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let addr = PhysAddr::new(0x4000);
        let w = e.process_write(pte_line(), addr);
        let mut with_accessed = w.line;
        with_accessed.set_word(0, with_accessed.word(0) | pagetable::x86_64::bits::ACCESSED);
        let r = e.process_read(with_accessed, addr, true);
        assert_eq!(r.verdict, ReadVerdict::Verified);
    }
}
