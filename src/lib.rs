//! Umbrella crate for the PT-Guard reproduction workspace.
//!
//! Re-exports the individual crates so examples and integration tests can
//! use one import root:
//!
//! * [`ptguard`] — the paper's mechanism (pattern match, MAC, CTB,
//!   optimizations, correction, security model, re-keying, baselines).
//! * [`qarma`] — the QARMA-128 cipher, the MAC's primitive.
//! * [`pagetable`] — x86_64/ARMv8 PTEs, radix tables, walker, OS model.
//! * [`dram`] — DRAM device with the Rowhammer disturbance model.
//! * [`rowhammer`] — attacks, prior mitigations, the exploit.
//! * [`memsys`] — caches, TLB, MMU cache, memory controller (+ the
//!   whole-memory-MAC baseline).
//! * [`workloads`] — calibrated SPEC/GAP-like models and the PTE census.
//! * [`trace`] — the varint and CRC-32 wire primitives `serve`'s frames and
//!   `oracle`'s reproducer files share.
//! * [`simx`] — single-core and multi-core timing simulation over seeded
//!   op streams.
//! * [`experiments`] — one regenerator per paper table/figure, behind the
//!   `exp` binary.
//! * [`orchestrator`] — the parallel, cached, resumable job engine behind
//!   `exp all` / `exp sweep` (scoped worker pool, content-addressed disk
//!   cache, JSONL event logs and run manifests).
//! * [`rng`] — the std-only deterministic RNG the models share.
//!
//! See the README for the architecture overview and EXPERIMENTS.md for
//! paper-vs-measured results.

pub use dram;
pub use experiments;
pub use memsys;
pub use orchestrator;
pub use pagetable;
pub use ptguard;
pub use qarma;
pub use rng;
pub use rowhammer;
pub use simx;
pub use trace;
pub use workloads;
