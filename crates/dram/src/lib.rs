//! # DRAM device model with Rowhammer fault injection
//!
//! A behavioural model of a DDR4/LPDDR4 DRAM device sufficient to reproduce
//! the PT-Guard paper's environment:
//!
//! * [`geometry`] — channel/rank/bank/row/column organisation and the
//!   physical-address ↔ row mapping (needed by Rowhammer attacks, which must
//!   find rows adjacent to a victim).
//! * [`timing`] — simplified DDR4 bank timing (row hits vs. row misses,
//!   refresh windows) used by the memory-controller model.
//! * [`rowhammer`] — the disturbance model: per-row activation pressure on
//!   distance-1 and distance-2 neighbours, per-cell weak-cell population with
//!   true-/anti-cell orientation, and threshold-crossing bit flips. The
//!   Rowhammer threshold is configurable from the 139 K activations of 2014
//!   DDR3 down to the 4.8 K of 2020 LPDDR4 (Section II-A of the paper).
//! * [`device`] — [`device::DramDevice`], which owns the backing store
//!   (implementing [`pagetable::memory::PhysMem`]) and applies disturbance
//!   on every row activation.
//! * [`faults`] — uniform per-bit fault injection used by the paper's
//!   best-effort-correction study (Section VI-F).
//!
//! The model is deterministic for a given seed.

#![warn(missing_docs)]

pub mod device;
pub mod faults;
pub mod geometry;
pub mod rowhammer;
pub mod timing;

pub use device::{ActivationKind, DramDevice, ServiceTiming};
pub use geometry::{ChannelInterleave, DramGeometry, RowId};
pub use rowhammer::RowhammerConfig;
pub use timing::DramTiming;
