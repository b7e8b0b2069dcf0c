//! # PT-Guard: integrity-protected page tables
//!
//! The core mechanism of *"PT-Guard: Integrity-Protected Page Tables to
//! Defend Against Breakthrough Rowhammer Attacks"* (DSN 2023): a memory-
//! controller-resident integrity engine that embeds a 96-bit QARMA-128 MAC
//! inside the unused PFN bits of every page-table-entry cacheline, verifies
//! it on page-table walks, and can best-effort-correct faulty PTEs.
//!
//! ## Mechanism overview
//!
//! * **No storage overhead** ([`pattern`]): modern PTEs provision 40-bit
//!   PFNs (4 PB) while client systems use ≤1 TB, leaving 12 unused bits per
//!   PTE — 96 bits per 8-PTE cacheline, enough for a MAC.
//! * **Software transparency** ([`engine`]): on DRAM writes the controller
//!   *bit-pattern-matches* the 96 unused-PFN bits against zero (the trusted
//!   OS zeroes them) and embeds the MAC into every matching line — all PTE
//!   lines plus the occasional look-alike data line. On DRAM reads the MAC
//!   is verified (always, for page-table walks) and stripped before the line
//!   reaches the caches, so no OS, TLB, or cache changes are needed.
//! * **Collisions** ([`ctb`]): a data line whose bits coincidentally equal
//!   the MAC that would be computed over it (probability 2⁻⁹⁶) is tracked in
//!   a 4-entry Collision Tracking Buffer and forwarded untouched.
//! * **Optimizations** (Section V): an *identifier* in the 56 OS-zeroed
//!   reserved bits gates MAC computation on reads, and a precomputed
//!   *MAC-zero* eliminates computation for all-zero lines, cutting the
//!   slowdown from 1.3 % to under 0.2 %.
//! * **Best-effort correction** ([`correct`]): on a walk-time MAC mismatch,
//!   the controller guesses corrected PTE values (flip-and-check, zero-PTE
//!   reset, flag majority vote, PFN contiguity) and accepts a guess whose
//!   MAC *soft-matches* (Hamming distance ≤ k) the stored MAC.
//! * **Security model** ([`security`]): Equations 1 and 2 of the paper —
//!   effective MAC strength under soft matching and guessing, and the
//!   uncorrectable-MAC probability that picks `k`.
//!
//! ## Example
//!
//! ```
//! use ptguard::{PtGuardConfig, PtGuardEngine};
//! use ptguard::line::Line;
//! use pagetable::addr::PhysAddr;
//!
//! let mut engine = PtGuardEngine::new(PtGuardConfig::default());
//! // A PTE line as the OS writes it: unused bits zero.
//! let line = Line::from_words([0x1234_5027, 0x1235_5027, 0, 0, 0, 0, 0, 0]);
//! let addr = PhysAddr::new(0x4_0000);
//! let stored = engine.process_write(line, addr).line;
//! // Page-table walk: verified, MAC stripped, original restored.
//! let read = engine.process_read(stored, addr, true);
//! assert!(read.verdict.is_ok());
//! assert_eq!(read.line, line);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod correct;
pub mod ctb;
pub mod energy;
pub mod engine;
pub mod format;
pub mod line;
pub mod mac;
pub mod pattern;
pub mod security;
pub mod sram;

pub use config::PtGuardConfig;
pub use correct::{CorrectionOutcome, Corrector};
pub use ctb::CollisionTrackingBuffer;
pub use engine::{PtGuardEngine, ReadVerdict};
pub use format::PteFormat;
pub use line::Line;
pub use mac::PteMac;
