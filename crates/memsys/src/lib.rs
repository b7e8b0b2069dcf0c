//! # Memory-system simulator
//!
//! The cache/TLB/memory-controller substrate of the PT-Guard reproduction,
//! mirroring the gem5 memory system the paper evaluates on (Table III):
//!
//! * [`cache`] — set-associative, write-back, write-allocate caches that
//!   hold *data* (not just tags), because PT-Guard's correctness story
//!   depends on what exactly reaches the cache hierarchy: lines are stored
//!   MAC-stripped on-chip and MAC-embedded in DRAM.
//! * [`tlb`] — the 64-entry fully-associative TLB.
//! * [`mmucache`] — the 8 KB page-walk cache holding upper-level entries.
//! * [`controller`] — the memory controller where the
//!   [`ptguard::PtGuardEngine`] mounts: DRAM reads/writes flow through the
//!   engine, the `is_pte` request bit triggers walk-time verification, and
//!   the `PTECheckFailed` response bit propagates to the core (Figure 5).
//! * [`system`] — [`system::MemorySystem`], the full hierarchy: virtual
//!   loads/stores with TLB lookup, hardware page walks, cache traversal,
//!   and per-access latency in CPU cycles. One event-driven engine serves
//!   every access: `pipe_issue_event` runs an op until it completes or
//!   suspends on an MSHR-tracked miss, and `advance_to_next_event` fires
//!   the controllers' read-queue drains. `load`/`store` pump one op to
//!   completion; the `simx` drivers keep up to `mlp` ops in flight (see
//!   [`config::MemSysConfig`]).

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod controller;
pub mod fullmac;
pub mod mmucache;
pub mod system;
pub mod tlb;

pub use config::MemSysConfig;
pub use controller::MemoryController;
pub use system::{AccessOutcome, IssueOutcome, MemorySystem, PumpStats};
