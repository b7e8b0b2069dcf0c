//! # System timing simulator
//!
//! The gem5 stand-in: a trace-driven in-order core over the
//! [`memsys::MemorySystem`] hierarchy, with full page-table state in the
//! simulated DRAM so TLB misses perform real hardware walks through the
//! PT-Guard-protected memory controller.
//!
//! * [`runner`] — builds a complete simulated machine for one workload
//!   profile (device → controller(+engine) → hierarchy → mapped address
//!   space) and executes a fixed instruction budget, reporting IPC,
//!   LLC-MPKI, walk counts, and PT-Guard engine statistics.
//! * [`multicore`] — the Section VII-C model: per-core private L1/L2 over a
//!   contended shared LLC/DRAM, with an out-of-order overlap factor, used
//!   for the SPEC-SAME/MIX bundles.
//!
//! Every core executes the ops of a seeded
//! [`workloads::tracegen::TraceGenerator`], so a (profile, seed) pair pins
//! a run's whole instruction stream.
//!
//! The paper's performance artefacts map onto this crate directly:
//! Figure 6 = [`runner::simulate_workload`] across the 25 profiles,
//! Figure 7 = the same under a MAC-latency sweep with/without the
//! Section V optimizations.

#![warn(missing_docs)]

mod driver;
pub mod multicore;
pub mod runner;
pub mod shared;

pub use runner::{
    build_machine, build_machine_from_source_cfg, run, simulate_workload, Machine, Protection,
    RunResult,
};
