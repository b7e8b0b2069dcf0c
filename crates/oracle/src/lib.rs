//! # Differential-testing and fault-injection oracle
//!
//! Every headline number this reproduction reports rests on the fast
//! set-associative caches, TLB, MMU cache, page walker, and MAC engine
//! being *semantically equivalent* to their obvious reference definitions.
//! This crate makes that claim executable, three ways:
//!
//! * [`refmodel`] + [`refwalk`] — deliberately naive reference models (a
//!   recency-ordered `Vec` per set, a flat `BTreeMap`-backed walk
//!   interpreter) run op-for-op against `memsys`/`pagetable` under seeded
//!   SplitMix64 operation streams ([`ops`]), with the drivers in [`diff`].
//!   On divergence, a ddmin-style shrinking loop reduces the stream to a
//!   minimal one, which the [`Divergence`] carries as text beside its seed.
//!   [`refmachine`] assembles the same models into a naive
//!   blocking core over the real controllers: the reference the event
//!   engine must match op for op at `mlp = 1`.
//! * [`macoracle`] — a bit-level MAC oracle that rebuilds the Table IV
//!   protected masks by explicit bit enumeration and recomputes the
//!   QARMA-128 PTE MAC independently of `ptguard::PteMac`, asserting
//!   embed→extract→verify round-trips and rejection of every 1-bit (and,
//!   scale permitting, 2-bit) protected-bit flip. It also implements the
//!   paper's literal `Q(Cᵢ ⊕ Aᵢ)` formula, whose chunk-swap aliasing the
//!   sweep must catch — the regression that motivated this crate.
//! * [`campaign`] — a Rowhammer fault-injection campaign through the full
//!   `MemorySystem` + `MemoryController` stack asserting the Section VI
//!   invariants: faults in protected PTE bits are never silently consumed,
//!   the correction-step distribution covers every `CorrectionStep`, and
//!   benign traffic yields zero false positives.
//!
//! The `exp oracle` artefact (crate `experiments`) runs all three as one
//! seeded, cached, `--jobs`-parallel orchestrator job.

#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod macoracle;
pub mod ops;
pub mod refmachine;
pub mod refmodel;
pub mod refwalk;

pub use campaign::{CampaignConfig, CampaignResult};
pub use diff::Divergence;
pub use macoracle::RefMac;
