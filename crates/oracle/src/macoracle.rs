//! Bit-level MAC oracle: an independent reimplementation of the PT-Guard
//! line MAC, cross-checked against `ptguard::PteMac`.
//!
//! [`RefMac`] rebuilds the Table IV protected masks by *explicit excluded-
//! bit enumeration* (rather than composing the format's segment tables),
//! assembles chunks byte-by-byte from the raw 64-byte line, and feeds the
//! 16-byte-granular physical address through QARMA-128's tweak input. It
//! also implements the paper's literal `Qᵢ = Q(Cᵢ ⊕ Aᵢ)` formula
//! ([`RefMac::compute_paper_formula`]) so the sweep can demonstrate the
//! chunk-swap aliasing that formula admits — the deviation documented in
//! `ptguard::mac` and DESIGN.md.

use orchestrator::pool::ThreadPool;
use pagetable::addr::PhysAddr;
use ptguard::line::Line;
use ptguard::pattern::{embed_mac_for, extract_mac_for};
use ptguard::{PtGuardConfig, PteFormat, PteMac};
use qarma::Qarma128;
use rng::SplitMix64;

/// Mask selecting the low 96 bits — the MAC width.
pub const REF_MAC_MASK: u128 = (1 << 96) - 1;

/// Independent reference implementation of the PTE-line MAC.
#[derive(Debug, Clone)]
pub struct RefMac {
    cipher: Qarma128,
    protected_mask: u64,
    format: PteFormat,
}

/// Builds the per-word protected mask for `format` at `max_phys_bits` by
/// enumerating the *excluded* bits one by one (Table IV), instead of the
/// segment-mask composition `ptguard::format` uses.
#[must_use]
pub fn ref_protected_mask(format: PteFormat, max_phys_bits: u32) -> u64 {
    let mut excluded: Vec<u32> = Vec::new();
    match format {
        PteFormat::X86_64 => {
            // Bit 5: accessed.
            excluded.push(5);
            // Unused PFN bits (MAC region): max_phys_bits−12 PFN bits are in
            // use, so PFN bits above that — PTE bits (max_phys_bits)..52 —
            // are free.
            for bit in max_phys_bits..52 {
                excluded.push(bit);
            }
            // Ignored bits 58:52 (identifier region).
            for bit in 52..=58 {
                excluded.push(bit);
            }
        }
        PteFormat::ArmV8 => {
            // Bit 10: access flag (AF).
            excluded.push(10);
            // The 40-bit PFN lives split: PFN[37:0] at descriptor bits
            // 49:12, PFN[39:38] at bits 9:8. Unused PFN bits for a machine
            // with max_phys_bits of physical space:
            for pfn_bit in (max_phys_bits - 12)..40 {
                let descr_bit = if pfn_bit >= 38 {
                    8 + (pfn_bit - 38)
                } else {
                    12 + pfn_bit
                };
                excluded.push(descr_bit);
            }
            // Ignored bits 58:55 (identifier region).
            for bit in 55..=58 {
                excluded.push(bit);
            }
        }
    }
    let mut mask = u64::MAX;
    for bit in excluded {
        mask &= !(1u64 << bit);
    }
    mask
}

impl RefMac {
    /// Builds the oracle from the same key material as the engine under
    /// test, but with an independently derived protected mask.
    #[must_use]
    pub fn from_config(cfg: &PtGuardConfig) -> Self {
        Self {
            cipher: Qarma128::new(cfg.key, cfg.mac_rounds, cfg.sbox),
            protected_mask: ref_protected_mask(cfg.format, cfg.max_phys_bits),
            format: cfg.format,
        }
    }

    /// The independently enumerated per-word protected mask.
    #[must_use]
    pub fn protected_mask(&self) -> u64 {
        self.protected_mask
    }

    /// The PTE format this oracle covers.
    #[must_use]
    pub fn format(&self) -> PteFormat {
        self.format
    }

    /// Masks `bytes` down to protected content and assembles the four
    /// 16-byte chunks little-endian, byte by byte.
    fn chunks_of(&self, bytes: &[u8; 64]) -> [u128; 4] {
        let mut chunks = [0u128; 4];
        for (i, byte) in bytes.iter().enumerate() {
            let byte_in_word = (i % 8) as u32;
            let mask_byte = (self.protected_mask >> (8 * byte_in_word)) as u8;
            let masked = byte & mask_byte;
            chunks[i / 16] |= u128::from(masked) << (8 * (i % 16));
        }
        chunks
    }

    /// The repository's (tweak-form) MAC: `X = ⊕ᵢ Q(Cᵢ; tweak = Aᵢ)`,
    /// truncated to 96 bits. `addr` may be any byte inside the line.
    #[must_use]
    pub fn compute(&self, bytes: &[u8; 64], addr: u64) -> u128 {
        let base = addr & !63;
        let mut x = 0u128;
        for (i, chunk) in self.chunks_of(bytes).iter().enumerate() {
            let a_i = u128::from(base + 16 * i as u64);
            x ^= self.cipher.encrypt(*chunk, a_i);
        }
        x & REF_MAC_MASK
    }

    /// The paper's literal Section IV-F formula: `X = ⊕ᵢ Q(Cᵢ ⊕ Aᵢ)` with a
    /// fixed tweak. Kept as the buggy foil: it admits chunk-swap aliasing
    /// (XOR two chunks with `Aᵢ ⊕ Aⱼ` and they trade places under the XOR
    /// fold), which the sweep demonstrates and the tweak form must reject.
    #[must_use]
    pub fn compute_paper_formula(&self, bytes: &[u8; 64], addr: u64) -> u128 {
        let base = addr & !63;
        let mut x = 0u128;
        for (i, chunk) in self.chunks_of(bytes).iter().enumerate() {
            let a_i = u128::from(base + 16 * i as u64);
            x ^= self.cipher.encrypt(*chunk ^ a_i, 0);
        }
        x & REF_MAC_MASK
    }
}

/// Aggregate result of one seeded MAC-oracle sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacSweepReport {
    /// Random lines cross-checked `RefMac` vs `PteMac`.
    pub cross_checked: u64,
    /// Cross-check disagreements (must be 0).
    pub mismatches: u64,
    /// embed→extract→verify round-trips attempted.
    pub roundtrips: u64,
    /// Round-trip failures (must be 0).
    pub roundtrip_failures: u64,
    /// Single protected-bit flips tested.
    pub single_flips: u64,
    /// Single flips the MAC failed to detect (must be 0).
    pub single_undetected: u64,
    /// Protected-bit flip pairs tested.
    pub pair_flips: u64,
    /// Flip pairs the MAC failed to detect (must be 0).
    pub pair_undetected: u64,
    /// Chunk-swap alias constructions probed.
    pub alias_probes: u64,
    /// Aliases that collide under the paper's `Q(Cᵢ ⊕ Aᵢ)` formula
    /// (must equal `alias_probes` — the bug the formula admits).
    pub alias_collides_paper: u64,
    /// Aliases the tweak form *accepted* (must be 0).
    pub alias_accepted_tweak: u64,
}

impl MacSweepReport {
    /// True when every invariant held: no mismatches, no round-trip
    /// failures, no undetected flips, every alias collided under the paper
    /// formula and none under the tweak form.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.mismatches == 0
            && self.roundtrip_failures == 0
            && self.single_undetected == 0
            && self.pair_undetected == 0
            && self.alias_collides_paper == self.alias_probes
            && self.alias_accepted_tweak == 0
    }

    /// Sums `other` into `self`. Per-line reports are merged **in line
    /// order**, so a parallel sweep is byte-identical to the serial one.
    pub fn merge(&mut self, other: &MacSweepReport) {
        self.cross_checked += other.cross_checked;
        self.mismatches += other.mismatches;
        self.roundtrips += other.roundtrips;
        self.roundtrip_failures += other.roundtrip_failures;
        self.single_flips += other.single_flips;
        self.single_undetected += other.single_undetected;
        self.pair_flips += other.pair_flips;
        self.pair_undetected += other.pair_undetected;
        self.alias_probes += other.alias_probes;
        self.alias_collides_paper += other.alias_collides_paper;
        self.alias_accepted_tweak += other.alias_accepted_tweak;
    }
}

/// Positions of the protected bits of a full line: `(word, bit)` pairs.
fn protected_positions(mask: u64) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    for word in 0..8 {
        for bit in 0..64 {
            if mask & (1u64 << bit) != 0 {
                out.push((word, bit));
            }
        }
    }
    out
}

/// Shared read-only state of one sweep: the two MAC implementations plus
/// the protected-bit positions, cloned once and shared across workers.
struct SweepCtx {
    oracle: RefMac,
    fast: PteMac,
    positions: Vec<(usize, u32)>,
}

/// Runs the seeded MAC sweep for `cfg`: cross-checks, round-trips, the
/// exhaustive single-flip sweep, `pair_budget` flip pairs per line
/// (exhaustive when the budget covers all pairs), and the chunk-swap alias
/// probes. Serial entry point; see [`sweep_with_pool`].
#[must_use]
pub fn sweep(cfg: &PtGuardConfig, seed: u64, lines: usize, pair_budget: usize) -> MacSweepReport {
    sweep_with_pool(cfg, seed, lines, pair_budget, &ThreadPool::new(1))
}

/// [`sweep`], fanned out over `pool`. Each line draws its seed from the
/// master stream up front and runs independently; per-line reports are
/// merged in line order, so the result is **byte-identical for any worker
/// count**.
#[must_use]
pub fn sweep_with_pool(
    cfg: &PtGuardConfig,
    seed: u64,
    lines: usize,
    pair_budget: usize,
    pool: &ThreadPool,
) -> MacSweepReport {
    let oracle = RefMac::from_config(cfg);
    let positions = protected_positions(oracle.protected_mask());
    let ctx = SweepCtx {
        oracle,
        fast: PteMac::from_config(cfg),
        positions,
    };
    let mut master = SplitMix64::new(seed ^ 0x6d61_635f_7377);
    let line_seeds: Vec<u64> = (0..lines).map(|_| master.next_u64()).collect();

    let mut report = MacSweepReport::default();
    for r in &pool.map_indexed(lines, |i| sweep_line(&ctx, line_seeds[i], pair_budget)) {
        report.merge(r);
    }
    report
}

/// Sweeps one line (drawn from `line_seed`): the cross-check, round-trip,
/// single/pair flip, and alias probes of the module docs.
fn sweep_line(ctx: &SweepCtx, line_seed: u64, pair_budget: usize) -> MacSweepReport {
    let SweepCtx {
        oracle,
        fast,
        positions,
    } = ctx;
    let mut rng = SplitMix64::new(line_seed);
    let mut report = MacSweepReport::default();
    let total_pairs = positions.len() * (positions.len() - 1) / 2;

    {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.next_u64();
        }
        let line = Line::from_words(words);
        let addr = PhysAddr::new((rng.next_u64() & 0xff_ffff) << 6);
        let bytes = line.to_bytes();

        // Cross-check: independent byte-level compute vs the engine.
        let ref_mac = oracle.compute(&bytes, addr.as_u64());
        let fast_mac = fast.compute(&line, addr);
        report.cross_checked += 1;
        if ref_mac != fast_mac {
            report.mismatches += 1;
            return report; // downstream assertions would double-count this
        }

        // embed → extract → verify round-trip through `pattern`.
        report.roundtrips += 1;
        let embedded = embed_mac_for(&line, ref_mac, oracle.format());
        let stored = extract_mac_for(&embedded, oracle.format());
        let reverify = oracle.compute(&embedded.to_bytes(), addr.as_u64());
        if stored != ref_mac || reverify != ref_mac {
            report.roundtrip_failures += 1;
        }

        // Exhaustive single protected-bit flips, incremental recompute:
        // only the flipped chunk's cipher call changes.
        let masked_chunks = oracle.chunks_of(&bytes);
        let base = addr.line_addr().as_u64();
        let enc = |c: u128, i: usize| oracle.cipher.encrypt(c, u128::from(base + 16 * i as u64));
        let chunk_encs: Vec<u128> = masked_chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| enc(c, i))
            .collect();
        let flip_one = |word: usize, bit: u32| -> u128 {
            let chunk_i = word / 2;
            let in_chunk_shift = (word % 2) as u32 * 64 + bit;
            let flipped = masked_chunks[chunk_i] ^ (1u128 << in_chunk_shift);
            ref_mac ^ ((chunk_encs[chunk_i] ^ enc(flipped, chunk_i)) & REF_MAC_MASK)
        };
        for &(word, bit) in positions {
            report.single_flips += 1;
            if flip_one(word, bit) == ref_mac {
                report.single_undetected += 1;
            }
        }

        // Flip pairs: exhaustive when the budget allows, else seeded sample.
        let mut pair_check = |a: (usize, u32), b: (usize, u32)| {
            let (ca, cb) = (a.0 / 2, b.0 / 2);
            let sa = (a.0 % 2) as u32 * 64 + a.1;
            let sb = (b.0 % 2) as u32 * 64 + b.1;
            let mac = if ca == cb {
                let flipped = masked_chunks[ca] ^ (1u128 << sa) ^ (1u128 << sb);
                ref_mac ^ ((chunk_encs[ca] ^ enc(flipped, ca)) & REF_MAC_MASK)
            } else {
                let fa = masked_chunks[ca] ^ (1u128 << sa);
                let fb = masked_chunks[cb] ^ (1u128 << sb);
                let delta = chunk_encs[ca] ^ enc(fa, ca) ^ chunk_encs[cb] ^ enc(fb, cb);
                ref_mac ^ (delta & REF_MAC_MASK)
            };
            report.pair_flips += 1;
            if mac == ref_mac {
                report.pair_undetected += 1;
            }
        };
        if pair_budget >= total_pairs {
            for i in 0..positions.len() {
                for j in (i + 1)..positions.len() {
                    pair_check(positions[i], positions[j]);
                }
            }
        } else {
            for _ in 0..pair_budget {
                let i = rng.gen_range_usize(0, positions.len());
                let mut j = rng.gen_range_usize(0, positions.len());
                while j == i {
                    j = rng.gen_range_usize(0, positions.len());
                }
                pair_check(positions[i], positions[j]);
            }
        }

        // Chunk-swap aliases. Only pairs with `Aᵢ ⊕ Aⱼ = 16` — a protected
        // bit in both supported formats — survive the protected-bit
        // masking: (0,1) and (2,3). Pairs whose delta contains bit 5 (the
        // excluded accessed bit, e.g. (1,2) with delta 48) are vacuous.
        for pair in [(0usize, 1usize), (2, 3)] {
            let delta = (16u128 * pair.0 as u128) ^ (16 * pair.1 as u128);
            let mut aliased_chunks = masked_chunks;
            aliased_chunks[pair.0] = masked_chunks[pair.1] ^ delta;
            aliased_chunks[pair.1] = masked_chunks[pair.0] ^ delta;
            let mut aliased_words = [0u64; 8];
            for (ci, chunk) in aliased_chunks.iter().enumerate() {
                aliased_words[2 * ci] = *chunk as u64;
                aliased_words[2 * ci + 1] = (*chunk >> 64) as u64;
            }
            let aliased = Line::from_words(aliased_words).to_bytes();
            report.alias_probes += 1;
            if oracle.compute_paper_formula(&aliased, addr.as_u64())
                == oracle.compute_paper_formula(&bytes, addr.as_u64())
            {
                report.alias_collides_paper += 1;
            }
            if oracle.compute(&aliased, addr.as_u64()) == ref_mac
                || fast.compute(&Line::from_bytes(&aliased), addr) == fast_mac
            {
                report.alias_accepted_tweak += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_masks_match_table_iv() {
        assert_eq!(ref_protected_mask(PteFormat::X86_64, 40).count_ones(), 44);
        assert_eq!(ref_protected_mask(PteFormat::ArmV8, 40).count_ones(), 47);
        // And they agree with the segment-composed masks in `ptguard`.
        assert_eq!(
            ref_protected_mask(PteFormat::X86_64, 40),
            PteFormat::X86_64.protected_mask(40)
        );
        assert_eq!(
            ref_protected_mask(PteFormat::ArmV8, 40),
            PteFormat::ArmV8.protected_mask(40)
        );
    }

    #[test]
    fn oracle_agrees_with_engine_on_random_lines() {
        for cfg in [
            PtGuardConfig::default(),
            PtGuardConfig::optimized(),
            PtGuardConfig::armv8(),
        ] {
            let report = sweep(&cfg, 7, 4, 64);
            assert_eq!(report.mismatches, 0, "{:?}", cfg.format);
            assert_eq!(report.roundtrip_failures, 0);
        }
    }

    #[test]
    fn sweep_detects_all_single_and_sampled_pair_flips() {
        let report = sweep(&PtGuardConfig::default(), 11, 3, 500);
        assert!(report.single_flips >= 3 * 44 * 8);
        assert_eq!(report.single_undetected, 0);
        assert_eq!(report.pair_flips, 3 * 500);
        assert_eq!(report.pair_undetected, 0);
    }

    #[test]
    fn paper_formula_admits_chunk_swap_aliasing_and_tweak_form_rejects_it() {
        let report = sweep(&PtGuardConfig::default(), 13, 4, 0);
        assert_eq!(report.alias_probes, 8);
        assert_eq!(
            report.alias_collides_paper, report.alias_probes,
            "the literal Q(C ⊕ A) formula should alias under chunk swap"
        );
        assert_eq!(report.alias_accepted_tweak, 0);
        assert!(report.clean());
    }

    #[test]
    fn exhaustive_pair_sweep_is_clean_for_one_line() {
        // One line, full C(352, 2) = 61 776 pair sweep (quick-scale work).
        let report = sweep(&PtGuardConfig::default(), 17, 1, usize::MAX);
        assert_eq!(report.pair_flips, 352 * 351 / 2);
        assert_eq!(report.pair_undetected, 0);
        assert!(report.clean());
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial_for_several_seeds() {
        // The PR 2 determinism contract: worker count must never leak into
        // results. Three seeds, serial vs 2-worker vs 5-worker pools.
        let cfg = PtGuardConfig::default();
        for seed in [3u64, 0xdead_beef, 0x5eed_5eed] {
            let serial = sweep(&cfg, seed, 6, 300);
            for jobs in [2usize, 5] {
                let par = sweep_with_pool(&cfg, seed, 6, 300, &ThreadPool::new(jobs));
                assert_eq!(par, serial, "seed {seed:#x} jobs {jobs}");
            }
        }
    }
}
