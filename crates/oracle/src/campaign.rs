//! Rowhammer fault-injection campaign through the full memory system.
//!
//! Drives `memsys::MemorySystem` + `MemoryController` + `PtGuardEngine`
//! end to end: build page tables through the OS port, let PTE lines drain
//! to DRAM with embedded MACs, then flip bits in the in-DRAM PTE lines —
//! both *targeted* fault classes crafted to exercise every
//! [`CorrectionStep`], and *stochastic* per-bit flips at the paper's
//! LPDDR4 (1/128) and DDR4 (1/512) Rowhammer probabilities — and assert
//! the Section VI invariants on every trial:
//!
//! 1. benign traffic never raises an integrity fault (zero false
//!    positives);
//! 2. a faulted walk either corrects to the *pristine* translation or
//!    raises `PteCheckFailed` — a wrong translation is never silently
//!    consumed;
//! 3. correction spends at most [`G_MAX`] guesses, and the targeted
//!    classes reach all four correction steps.

use dram::faults::flip_bits_exact;
use dram::{DramDevice, RowhammerConfig};
use memsys::config::MemSysConfig;
use memsys::controller::MemoryController;
use memsys::system::{AccessOutcome, MemorySystem, OsPort};
use orchestrator::pool::ThreadPool;
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::memory::PhysMem;
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use ptguard::correct::{guess_budget, CorrectionOutcome, CorrectionStep, Corrector, G_MAX};
use ptguard::line::Line;
use ptguard::{PtGuardConfig, PtGuardEngine};
use rng::SplitMix64;

/// Campaign sizing knobs (scaled by the `exp oracle` artefact).
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Benign loads (no injection) asserting zero false positives.
    pub benign_loads: usize,
    /// Trials per targeted fault class.
    pub trials_per_class: usize,
    /// Stochastic uniform-flip trials (split across LPDDR4/DDR4 rates).
    pub stochastic_trials: usize,
    /// Campaign seed.
    pub seed: u64,
}

/// Index of a [`CorrectionStep`] in [`CampaignResult::step_counts`].
#[must_use]
pub fn step_index(step: CorrectionStep) -> usize {
    match step {
        CorrectionStep::SoftMatch => 0,
        CorrectionStep::FlipAndCheck => 1,
        CorrectionStep::ZeroReset => 2,
        CorrectionStep::MajorityAndContiguity => 3,
    }
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Benign loads performed.
    pub benign_loads: u64,
    /// Integrity faults raised on benign traffic (must be 0).
    pub false_positives: u64,
    /// Fault injections performed (targeted + stochastic).
    pub injected: u64,
    /// Injections that ended in a successful, *pristine* translation.
    pub corrected_ok: u64,
    /// Injections detected as `PteCheckFailed`.
    pub detected: u64,
    /// Injections that surfaced as a page fault (correction reset a
    /// damaged entry to zero — noisy, not silent).
    pub page_faults: u64,
    /// Injections consumed with a *wrong* translation (must be 0).
    pub silent_corruptions: u64,
    /// Unit-level correction outcomes by step:
    /// `[SoftMatch, FlipAndCheck, ZeroReset, MajorityAndContiguity]`.
    pub step_counts: [u64; 4],
    /// Unit-level uncorrectable outcomes.
    pub uncorrectable: u64,
    /// Maximum guesses any correction attempt spent.
    pub max_guesses: u32,
    /// Invariant violations (empty on a clean campaign).
    pub violations: Vec<String>,
}

impl CampaignResult {
    /// True when every Section VI invariant held.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
            && self.false_positives == 0
            && self.silent_corruptions == 0
            && self.max_guesses <= G_MAX
    }

    fn violation(&mut self, msg: String) {
        if self.violations.len() < 32 {
            self.violations.push(msg);
        }
    }

    /// Sums `other` into `self`. Per-chunk results are merged **in trial
    /// order**, so a parallel campaign is byte-identical to the serial one
    /// (violation messages carry absolute trial indices and keep their
    /// serial order; the 32-entry cap applies to the merged list).
    fn merge(&mut self, other: &CampaignResult) {
        self.benign_loads += other.benign_loads;
        self.false_positives += other.false_positives;
        self.injected += other.injected;
        self.corrected_ok += other.corrected_ok;
        self.detected += other.detected;
        self.page_faults += other.page_faults;
        self.silent_corruptions += other.silent_corruptions;
        for (a, b) in self.step_counts.iter_mut().zip(&other.step_counts) {
            *a += b;
        }
        self.uncorrectable += other.uncorrectable;
        self.max_guesses = self.max_guesses.max(other.max_guesses);
        for v in &other.violations {
            self.violation(v.clone());
        }
    }
}

/// The targeted fault classes, each crafted to exercise one corrector
/// strategy (or to exceed the soft-match tolerance entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// 1–k flips confined to the stored MAC field → `SoftMatch`.
    MacSoft,
    /// One flipped protected content bit → `FlipAndCheck`.
    OneBit,
    /// 2–4 flips inside a zero PTE slot → `ZeroReset`.
    ZeroEntry,
    /// The same flag bit flipped in a 2-entry minority → `MajorityAndContiguity`.
    FlagMinority,
    /// k+1 flips in the stored MAC field → uncorrectable, `PteCheckFailed`.
    MacWrecked,
}

const CLASSES: [FaultClass; 5] = [
    FaultClass::MacSoft,
    FaultClass::OneBit,
    FaultClass::ZeroEntry,
    FaultClass::FlagMinority,
    FaultClass::MacWrecked,
];

/// One probe target: a VA, its leaf PTE line in DRAM, and ground truth.
struct Probe {
    va: VirtAddr,
    line_addr: PhysAddr,
    /// Probed entry's word index within the line.
    word: usize,
    pristine: [u8; 64],
    frame: Frame,
}

struct Rig {
    sys: MemorySystem,
    space: AddressSpace,
    /// Page 0: all 8 PTE slots of its leaf line populated.
    full: Probe,
    /// First page of the last, partially populated leaf line.
    partial: Probe,
    base: u64,
    pages: u64,
}

/// Pages mapped by the rig: 60 = 7 full leaf lines + one line with 4 zero
/// PTE slots (the `ZeroEntry` class needs those).
const PAGES: u64 = 60;

fn build_rig() -> Rig {
    let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
    let engine = PtGuardEngine::new(PtGuardConfig::default());
    let mc = MemoryController::new(device, Some(engine));
    let mut sys = MemorySystem::new(MemSysConfig::default(), vec![mc]);

    let base = 0x40_0000_0000u64;
    let mut port = OsPort::new(&mut sys);
    let mut space = AddressSpace::new(&mut port, 32).expect("address space");
    for i in 0..PAGES {
        let va = VirtAddr::new(base + i * 4096);
        space
            .map_new(&mut port, va, PteFlags::user_data())
            .expect("map");
    }
    let root = space.root();
    sys.set_root(root, 32);
    // Drain the freshly written PTE lines so DRAM holds MAC-embedded copies.
    sys.flush_caches();

    let probe_of = |sys: &mut MemorySystem, page: u64| -> Probe {
        let va = VirtAddr::new(base + page * 4096);
        let walk = {
            let port = OsPort::new(sys);
            space.walker().walk(&port, va).expect("pristine walk")
        };
        let entry_addr = walk.accesses[3].entry_addr;
        let line_addr = entry_addr.line_addr();
        Probe {
            va,
            line_addr,
            word: entry_addr.line_offset() / 8,
            pristine: sys.channel(0).device().read_line(line_addr),
            frame: walk.leaf.frame(),
        }
    };
    let full = probe_of(&mut sys, 0);
    let partial = probe_of(&mut sys, 56);
    Rig {
        sys,
        space,
        full,
        partial,
        base,
        pages: PAGES,
    }
}

impl Rig {
    /// Returns the system to a cold, pristine state: caches drained and
    /// emptied, translation state dropped, PTE lines invalidated, and both
    /// probe lines restored in DRAM.
    fn reset(&mut self) {
        self.sys.flush_caches();
        self.sys.invalidate_translation_state();
        for a in self.space.pte_line_addrs() {
            self.sys.invalidate_line(a);
        }
        let dev = self.sys.channel_mut(0).device_mut();
        dev.write_line(self.full.line_addr, &self.full.pristine);
        dev.write_line(self.partial.line_addr, &self.partial.pristine);
    }
}

/// Per-word bit positions of the x86_64 stored-MAC field (PTE bits 51:40).
fn mac_field_bits() -> Vec<u32> {
    (40..52).collect()
}

/// Protected content bits of one word, for the default x86_64 config.
fn protected_bits(mask: u64) -> Vec<u32> {
    (0..64).filter(|b| mask & (1u64 << b) != 0).collect()
}

/// Draws `n` distinct elements from `pool`.
fn draw_distinct(rng: &mut SplitMix64, pool: &[u32], n: usize) -> Vec<u32> {
    assert!(n <= pool.len());
    let mut picked: Vec<u32> = Vec::with_capacity(n);
    while picked.len() < n {
        let c = pool[rng.gen_range_usize(0, pool.len())];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    picked
}

/// Global flip indices (`word * 64 + bit`, LSB-first as `flip_bits_exact`
/// counts them) for one targeted fault class.
fn plan_flips(class: FaultClass, probe_word: usize, rng: &mut SplitMix64, mask: u64) -> Vec<usize> {
    let mac_bits = mac_field_bits();
    match class {
        FaultClass::MacSoft => {
            let n = rng.gen_range_usize(1, 5); // 1..=4 = k
            let word = rng.gen_range_usize(0, 8);
            draw_distinct(rng, &mac_bits, n)
                .into_iter()
                .map(|b| word * 64 + b as usize)
                .collect()
        }
        FaultClass::OneBit => {
            let word = rng.gen_range_usize(0, 8);
            let bits = protected_bits(mask);
            vec![word * 64 + bits[rng.gen_range_usize(0, bits.len())] as usize]
        }
        FaultClass::ZeroEntry => {
            // The partial line's slots 4..8 are zero; damage one of them.
            let word = rng.gen_range_usize(4, 8);
            let n = rng.gen_range_usize(2, 5); // 2..=4 ≤ zero_reset_bits
            let bits = protected_bits(mask);
            draw_distinct(rng, &bits, n)
                .into_iter()
                .map(|b| word * 64 + b as usize)
                .collect()
        }
        FaultClass::FlagMinority => {
            // Flip one protected flag bit in two entries: a 2-of-8 minority
            // the majority vote reverts. Bit 3 (write-through) is protected
            // and uniformly clear in the rig's mappings.
            let mut words = draw_distinct(rng, &[0, 1, 2, 3, 4, 5, 6, 7], 2);
            words.sort_unstable();
            words.into_iter().map(|w| w as usize * 64 + 3).collect()
        }
        FaultClass::MacWrecked => {
            let word = probe_word;
            draw_distinct(rng, &mac_bits, 5)
                .into_iter()
                .map(|b| word * 64 + b as usize)
                .collect()
        }
    }
}

/// Targeted rounds per worker chunk (each chunk builds a fresh [`Rig`]).
const TARGETED_CHUNK_ROUNDS: usize = 2;

/// Stochastic trials per worker chunk.
const STOCHASTIC_CHUNK: usize = 16;

/// Derives the seed of one trial from the campaign salt. Every trial owns
/// an independent RNG stream derived *by index*, so trials can run on any
/// worker in any order and still draw identical randomness.
fn trial_seed(salt: u64, phase: u64, idx: u64) -> u64 {
    SplitMix64::new(salt ^ (phase << 56) ^ idx).next_u64()
}

/// Runs the campaign serially. See [`run_with_pool`].
#[must_use]
pub fn run(cfg: &CampaignConfig) -> CampaignResult {
    run_with_pool(cfg, &ThreadPool::new(1))
}

/// Runs the campaign, fanning the targeted and stochastic phases out over
/// `pool`. Trials are grouped into fixed-size chunks (each with its own
/// freshly built rig — trials are rig-independent because every injection
/// starts from a reset rig); chunk results are merged in trial order, so
/// the result is **byte-identical for any worker count**.
#[must_use]
pub fn run_with_pool(cfg: &CampaignConfig, pool: &ThreadPool) -> CampaignResult {
    let salt = cfg.seed ^ 0x6361_6d70_6169_676e;
    let mut result = CampaignResult::default();

    // Phase 1: benign traffic — zero false positives (Section VI-B).
    // Serial on its own rig: the phase asserts a property of *sustained*
    // traffic through one memory system, so it does not chunk.
    let mut rig = build_rig();
    let protected_mask = {
        let engine = rig.sys.channel(0).engine().expect("guarded rig");
        engine.mac_unit().protected_mask()
    };
    let mut rng = SplitMix64::new(trial_seed(salt, 1, 0));
    for _ in 0..cfg.benign_loads {
        let page = rng.gen_range_u64(0, rig.pages);
        let va = VirtAddr::new(rig.base + page * 4096);
        let out = rig.sys.load(va);
        result.benign_loads += 1;
        if !out.is_ok() {
            result.violation(format!("benign load of {va:?} failed: {out:?}"));
        }
    }
    let benign_stats = rig.sys.stats();
    result.false_positives = benign_stats.integrity_faults;
    if benign_stats.integrity_faults != 0 {
        result.violation(format!(
            "benign phase raised {} integrity faults",
            benign_stats.integrity_faults
        ));
    }
    let mut total_faults = benign_stats.integrity_faults;
    drop(rig);

    // Phase 2: targeted classes, each aimed at one correction strategy.
    let rounds = cfg.trials_per_class;
    let n_chunks = rounds.div_ceil(TARGETED_CHUNK_ROUNDS);
    let targeted = pool.map_indexed(n_chunks, |c| {
        let lo = c * TARGETED_CHUNK_ROUNDS;
        let hi = rounds.min(lo + TARGETED_CHUNK_ROUNDS);
        run_targeted_rounds(salt, lo..hi, protected_mask)
    });
    for (part, faults) in targeted {
        result.merge(&part);
        total_faults += faults;
    }

    // Phase 3: stochastic uniform flips at the paper's Rowhammer rates
    // (Table: 1/128 LPDDR4, 1/512 DDR4), full 64-byte line exposure.
    let trials = cfg.stochastic_trials;
    let n_chunks = trials.div_ceil(STOCHASTIC_CHUNK);
    let stochastic = pool.map_indexed(n_chunks, |c| {
        let lo = c * STOCHASTIC_CHUNK;
        let hi = trials.min(lo + STOCHASTIC_CHUNK);
        run_stochastic_trials(salt, lo..hi)
    });
    for (part, faults) in stochastic {
        result.merge(&part);
        total_faults += faults;
    }

    if result.max_guesses > G_MAX {
        result.violation(format!(
            "correction spent {} guesses, budget is {}",
            result.max_guesses,
            guess_budget(protected_mask.count_ones())
        ));
    }
    // Every detected fault must have been accounted as an integrity fault
    // by exactly one rig.
    if total_faults != result.false_positives + result.detected {
        result.violation(format!(
            "integrity-fault accounting skewed: {} raised, {} detected",
            total_faults, result.detected
        ));
    }
    result
}

/// Runs targeted rounds `rounds` on a fresh rig. Returns the partial
/// result plus the rig's integrity-fault count (for the campaign-wide
/// accounting check).
fn run_targeted_rounds(
    salt: u64,
    rounds: std::ops::Range<usize>,
    protected_mask: u64,
) -> (CampaignResult, u64) {
    let mut rig = build_rig();
    let base_faults = rig.sys.stats().integrity_faults;
    let mut result = CampaignResult::default();
    for round in rounds {
        for (ci, &class) in CLASSES.iter().enumerate() {
            let idx = (round * CLASSES.len() + ci) as u64;
            let mut rng = SplitMix64::new(trial_seed(salt, 2, idx));
            run_targeted_trial(
                &mut rig,
                round,
                class,
                &mut rng,
                protected_mask,
                &mut result,
            );
        }
    }
    let faults = rig.sys.stats().integrity_faults - base_faults;
    (result, faults)
}

/// One targeted trial: plan the class's flips, inject, load, and probe the
/// corrector at unit level.
fn run_targeted_trial(
    rig: &mut Rig,
    round: usize,
    class: FaultClass,
    rng: &mut SplitMix64,
    protected_mask: u64,
    result: &mut CampaignResult,
) {
    let use_partial = class == FaultClass::ZeroEntry;
    let probe_word = if use_partial {
        rig.partial.word
    } else {
        rig.full.word
    };
    let flips = plan_flips(class, probe_word, rng, protected_mask);
    let expect_step = match class {
        FaultClass::MacSoft => Some(CorrectionStep::SoftMatch),
        FaultClass::OneBit => Some(CorrectionStep::FlipAndCheck),
        FaultClass::ZeroEntry => Some(CorrectionStep::ZeroReset),
        FaultClass::FlagMinority => Some(CorrectionStep::MajorityAndContiguity),
        FaultClass::MacWrecked => None,
    };
    let (outcome, tlb_frame) = inject_and_load(rig, use_partial, &flips);
    result.injected += 1;

    let probe = if use_partial { &rig.partial } else { &rig.full };
    match (expect_step, &outcome) {
        (Some(_), AccessOutcome::Ok { .. }) => {
            result.corrected_ok += 1;
            if tlb_frame != Some(probe.frame) {
                result.silent_corruptions += 1;
                result.violation(format!(
                    "{class:?} round {round}: corrected load translated to \
                     {tlb_frame:?}, expected {:?}",
                    probe.frame
                ));
            }
        }
        (None, AccessOutcome::PteCheckFailed { level: 0, .. }) => {
            result.detected += 1;
        }
        (_, other) => {
            result.violation(format!(
                "{class:?} round {round} (flips {flips:?}): unexpected outcome {other:?}"
            ));
        }
    }

    // Unit-level probe of the corrector on the exact injected line:
    // records the step distribution and the guess spend.
    let mut bytes = probe.pristine;
    flip_bits_exact(&mut bytes, &flips);
    let engine = rig.sys.channel(0).engine().expect("guarded rig");
    let k = engine.config().soft_match_k;
    let zr = engine.config().zero_reset_bits;
    let corrector = Corrector::new(engine.mac_unit(), k, zr);
    match corrector.correct(&Line::from_bytes(&bytes), probe.line_addr) {
        CorrectionOutcome::Corrected(c) => {
            result.step_counts[step_index(c.step)] += 1;
            result.max_guesses = result.max_guesses.max(c.guesses);
            match expect_step {
                Some(step) if step == c.step => {}
                Some(step) => result.violation(format!(
                    "{class:?} round {round}: corrected via {:?}, expected {step:?}",
                    c.step
                )),
                None => result.violation(format!(
                    "{class:?} round {round}: corrected a fault crafted to be \
                     uncorrectable"
                )),
            }
        }
        CorrectionOutcome::Uncorrectable { guesses } => {
            result.uncorrectable += 1;
            result.max_guesses = result.max_guesses.max(guesses);
            if expect_step.is_some() {
                result.violation(format!(
                    "{class:?} round {round} (flips {flips:?}): uncorrectable"
                ));
            }
        }
    }
}

/// Runs stochastic trials `trials` (absolute indices, which pick the flip
/// rate) on a fresh rig. Returns the partial result plus the rig's
/// integrity-fault count.
fn run_stochastic_trials(salt: u64, trials: std::ops::Range<usize>) -> (CampaignResult, u64) {
    let mut rig = build_rig();
    let base_faults = rig.sys.stats().integrity_faults;
    let mut result = CampaignResult::default();
    for trial in trials {
        let p_flip = if trial % 2 == 0 {
            1.0 / 128.0
        } else {
            1.0 / 512.0
        };
        let mut rng = SplitMix64::new(trial_seed(salt, 3, trial as u64));
        let mut bytes = rig.full.pristine;
        let flipped = dram::faults::flip_bits_uniform(&mut bytes, p_flip, &mut rng);
        rig.reset();
        rig.sys
            .channel_mut(0)
            .device_mut()
            .write_line(rig.full.line_addr, &bytes);
        let out = rig.sys.load(rig.full.va);
        result.injected += 1;
        match out {
            AccessOutcome::Ok { .. } => {
                let got = rig.sys.tlb().peek_frame(rig.full.va.vpn());
                if got == Some(rig.full.frame) {
                    result.corrected_ok += 1;
                } else {
                    result.silent_corruptions += 1;
                    result.violation(format!(
                        "stochastic trial {trial} (p={p_flip}, flips {flipped:?}): \
                         consumed wrong frame {got:?}"
                    ));
                }
            }
            AccessOutcome::PteCheckFailed { .. } => result.detected += 1,
            AccessOutcome::PageFault { .. } => result.page_faults += 1,
        }
    }
    let faults = rig.sys.stats().integrity_faults - base_faults;
    (result, faults)
}

/// Resets the rig, applies `flips` to the chosen probe's pristine line in
/// DRAM, performs the load, and returns the outcome plus the TLB's view of
/// the probed translation.
fn inject_and_load(
    rig: &mut Rig,
    use_partial: bool,
    flips: &[usize],
) -> (AccessOutcome, Option<Frame>) {
    rig.reset();
    let probe = if use_partial { &rig.partial } else { &rig.full };
    let (line_addr, va) = (probe.line_addr, probe.va);
    let mut bytes = probe.pristine;
    flip_bits_exact(&mut bytes, flips);
    rig.sys
        .channel_mut(0)
        .device_mut()
        .write_line(line_addr, &bytes);
    let out = rig.sys.load(va);
    let frame = rig.sys.tlb().peek_frame(va.vpn());
    (out, frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CampaignConfig {
        CampaignConfig {
            benign_loads: 64,
            trials_per_class: 4,
            stochastic_trials: 24,
            seed: 0xfeed,
        }
    }

    #[test]
    fn campaign_is_clean_and_reaches_every_correction_step() {
        let r = run(&quick());
        assert!(r.clean(), "violations: {:#?}", r.violations);
        assert_eq!(r.false_positives, 0);
        assert_eq!(r.silent_corruptions, 0);
        // Satellite 4 second half: every `CorrectionStep` variant is
        // reachable from the injected-fault corpus.
        for (i, count) in r.step_counts.iter().enumerate() {
            assert!(*count > 0, "correction step {i} never exercised");
        }
        assert!(r.uncorrectable > 0, "MacWrecked class never ran");
        assert!(r.detected > 0);
        assert!(r.max_guesses <= G_MAX);
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let a = run(&quick());
        let b = run(&quick());
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        // quick() spans 2 targeted chunks and 2 stochastic chunks, so this
        // exercises real chunk merging, not a degenerate single-chunk run.
        let serial = run(&quick());
        for jobs in [2usize, 4] {
            let par = run_with_pool(&quick(), &ThreadPool::new(jobs));
            assert_eq!(par, serial, "jobs {jobs}");
        }
    }
}
