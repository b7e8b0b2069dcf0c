//! # Experiment orchestration engine
//!
//! A std-only, dependency-free job engine that models an experiment matrix
//! (artefact × scale × seed) as a DAG of pure jobs and executes it one
//! dependency level at a time on a worker pool, memoizing each job's output
//! in an on-disk content-addressed cache so re-runs and interrupted runs
//! resume from completed jobs instead of recomputing.
//!
//! The pieces, bottom up:
//!
//! * [`json`] — a minimal JSON value type with encoder and parser, used by
//!   the cache entries, the run manifest, and the event log.
//! * [`hash`] — stable (process-independent) FNV-1a hashing for cache keys
//!   and entry checksums.
//! * [`cache`] — [`cache::DiskCache`], one file per cache key, checksummed;
//!   corrupted or unreadable entries degrade to cache misses.
//! * [`pool`] — [`pool::ThreadPool`], a worker count whose
//!   [`map_indexed`](pool::ThreadPool::map_indexed) runs tasks on scoped
//!   threads, the caller among them, that take indices from one shared
//!   counter. It is the crate's only parallel mechanism.
//! * [`job`] — [`job::JobSpec`] (id, key material, dependencies, work
//!   closure) and [`job::JobOutput`] (rendered text + named metrics).
//! * [`events`] — the JSON-lines event log (`job_start` / `job_finish` /
//!   `cache_hit` / …) and the run manifest writer.
//! * [`engine`] — [`engine::run_dag`], which ties it all together: each
//!   dependency level of the DAG is one `map_indexed` call.
//!
//! The engine guarantees that job *outputs* are independent of the worker
//! count and of the cache state: a cached entry stores exactly the bytes
//! the job rendered, so a warm re-run is byte-identical to the cold run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod events;
pub mod hash;
pub mod job;
pub mod json;
pub mod pool;

pub use cache::DiskCache;
pub use engine::{run_dag, RunOptions, RunReport};
pub use events::JobOutcome;
pub use job::{JobOutput, JobSpec};
pub use pool::ThreadPool;
