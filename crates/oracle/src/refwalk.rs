//! Naive page-walk interpreter over a flat `BTreeMap` of raw entries.
//!
//! The reference walker never uses `pagetable`'s `Pte`/`Frame` helpers: it
//! decodes raw descriptor words with explicit arithmetic, reading entries
//! from its own `BTreeMap<entry-address, raw-word>` instead of through
//! `PhysMem`. The differential driver builds the same page tables in both
//! representations and compares `pagetable::walker::Walker` against this
//! interpreter access-for-access.
//!
//! Also hosts bit-loop references for the ARMv8 descriptor's split PFN
//! field and its unused-bit mask, cross-checked against
//! `pagetable::armv8` by `diff`'s tests.

use std::collections::BTreeMap;

/// One access of a reference walk: `(entry_addr, level, raw entry)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefAccess {
    /// Physical address of the 8-byte entry read.
    pub entry_addr: u64,
    /// Walk level (3 = PML4 … 0 = PT).
    pub level: usize,
    /// Raw entry word.
    pub raw: u64,
}

/// Outcome of a reference walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefWalkResult {
    /// Translation succeeded.
    Ok {
        /// Translated physical address.
        phys: u64,
        /// Raw leaf entry.
        leaf: u64,
        /// Level the leaf was found at (0 = 4 KB page, 1 = 2 MB page).
        leaf_level: usize,
        /// Every access, PML4 first.
        accesses: Vec<RefAccess>,
    },
    /// A non-present entry at `level`.
    NotPresent {
        /// Walk level of the hole.
        level: usize,
    },
    /// An entry whose PFN exceeds the installed physical memory.
    PfnOutOfBounds {
        /// Walk level of the offending entry.
        level: usize,
        /// The out-of-range raw entry.
        raw: u64,
    },
}

/// Flat page-table image: entry address → raw 8-byte word. Missing
/// addresses read as zero (not present), like zero-initialised memory.
pub type RefTables = BTreeMap<u64, u64>;

/// Interprets a 4-level x86_64 walk of `va` over `tables`, rooted at the
/// page *frame number* `root_pfn`, for a machine with `max_phys_bits` of
/// physical address space.
#[must_use]
pub fn ref_walk(tables: &RefTables, root_pfn: u64, max_phys_bits: u32, va: u64) -> RefWalkResult {
    const PFN_MASK: u64 = 0x000f_ffff_ffff_f000;
    let max_pfn = 1u64 << (max_phys_bits - 12);
    let mut accesses = Vec::new();
    let mut table_pfn = root_pfn;
    for level in [3usize, 2, 1, 0] {
        let index = (va >> (12 + 9 * level)) & 0x1ff;
        let entry_addr = table_pfn * 4096 + index * 8;
        let raw = tables.get(&entry_addr).copied().unwrap_or(0);
        accesses.push(RefAccess {
            entry_addr,
            level,
            raw,
        });
        if raw & 1 == 0 {
            return RefWalkResult::NotPresent { level };
        }
        let pfn = (raw & PFN_MASK) >> 12;
        if pfn >= max_pfn {
            return RefWalkResult::PfnOutOfBounds { level, raw };
        }
        let huge = raw & (1 << 7) != 0;
        if level == 0 || (level == 1 && huge) {
            let offset_bits = 12 + 9 * level as u32;
            let offset = va & ((1u64 << offset_bits) - 1);
            let base = (pfn << 12) & !((1u64 << offset_bits) - 1);
            return RefWalkResult::Ok {
                phys: base + offset,
                leaf: raw,
                leaf_level: level,
                accesses,
            };
        }
        table_pfn = pfn;
    }
    unreachable!("level 0 always terminates the walk")
}

/// Bit-loop reference for the ARMv8 descriptor's split 40-bit PFN:
/// `PFN[37:0]` lives at descriptor bits 49:12 and `PFN[39:38]` at bits
/// 9:8. Cross-checked against `pagetable::armv8::Descriptor::frame()`.
#[must_use]
pub fn ref_armv8_pfn(raw: u64) -> u64 {
    let mut pfn = 0u64;
    for pfn_bit in 0..40u32 {
        let descr_bit = if pfn_bit >= 38 {
            8 + (pfn_bit - 38)
        } else {
            12 + pfn_bit
        };
        if raw & (1u64 << descr_bit) != 0 {
            pfn |= 1u64 << pfn_bit;
        }
    }
    pfn
}

/// Bit-loop reference for `pagetable::armv8::unused_mask`: descriptor bits
/// that would hold PFN bits at or above `max_phys_bits − 12` significance,
/// plus the ignored bits 58:55 (the bits PT-Guard repurposes for the MAC).
#[must_use]
pub fn ref_armv8_unused_mask(max_phys_bits: u32) -> u64 {
    let first_unused_pfn_bit = max_phys_bits - 12;
    let mut mask = 0u64;
    for ignored_bit in 55..=58 {
        mask |= 1u64 << ignored_bit;
    }
    for pfn_bit in first_unused_pfn_bit..40 {
        let descr_bit = if pfn_bit >= 38 {
            8 + (pfn_bit - 38)
        } else {
            12 + pfn_bit
        };
        mask |= 1u64 << descr_bit;
    }
    mask
}
