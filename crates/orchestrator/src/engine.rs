//! The DAG engine: runs a topologically-ordered job list one dependency
//! level at a time on a [`ThreadPool`], memoizes outputs in the disk
//! cache, and streams events to the run's JSONL log.
//!
//! Execution model:
//!
//! * A job's **level** is one more than the deepest level among its
//!   dependencies, and 0 for a job without any. Each level is one
//!   [`ThreadPool::map_indexed`] call, so a level starts once the level
//!   before it has ended. Only sweep aggregates sit above level 0, and
//!   they are trivial reductions.
//! * Every job's **final cache key** is the stable hash of its own key
//!   material plus the final keys of its dependencies, so editing any
//!   upstream input transitively invalidates downstream entries.
//! * A job with a cache hit is *not* executed; its stored output is used,
//!   byte-identical to the original run.
//! * A failing (or panicking) job marks the run failed; its dependents are
//!   skipped, but every independent job still runs to completion — and
//!   keeps its cache entry — so a resumed run only re-executes what is
//!   actually missing. The run's error is that of its first failing job
//!   in job order, whatever order the jobs finished in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::cache::DiskCache;
use crate::events::{write_manifest, EventLog, JobOutcome};
use crate::hash::stable_key;
use crate::job::{JobOutput, JobSpec};
use crate::json::Value;
use crate::pool::ThreadPool;

/// Options for one [`run_dag`] invocation.
#[derive(Debug)]
pub struct RunOptions {
    /// Label recorded in the event log and manifest (e.g. the CLI line).
    pub label: String,
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// The memoization cache; `None` disables caching.
    pub cache: Option<DiskCache>,
    /// Directory receiving `events.jsonl` + `manifest.json`; `None`
    /// disables run logging.
    pub run_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            label: String::from("run"),
            jobs: 0,
            cache: None,
            run_dir: None,
        }
    }
}

/// Per-job accounting in the final report and manifest.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's display id.
    pub id: String,
    /// The job's final (dependency-extended) cache key.
    pub key: String,
    /// How the job concluded.
    pub outcome: JobOutcome,
    /// Wall time spent executing (0 for cache hits and skips).
    pub wall_ms: u64,
}

/// The result of a [`run_dag`] call.
#[derive(Debug)]
pub struct RunReport {
    /// One output per job, in submission order. `None` for failed or
    /// skipped jobs.
    pub outputs: Vec<Option<JobOutput>>,
    /// Per-job accounting, in submission order.
    pub jobs: Vec<JobReport>,
    /// Jobs whose closure actually ran and succeeded.
    pub executed: usize,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// First error encountered, if any.
    pub error: Option<String>,
    /// Total wall time of the run.
    pub wall_ms: u64,
    /// Where the manifest was written, when run logging was enabled.
    pub run_dir: Option<PathBuf>,
}

/// What every job of a run reads.
struct Ctx {
    specs: Vec<JobSpec>,
    keys: Vec<String>,
    cache: Option<DiskCache>,
    log: EventLog,
}

/// Executes the DAG. `specs` must be in topological order: every
/// dependency index smaller than the dependent's own index.
#[must_use]
pub fn run_dag(specs: Vec<JobSpec>, opts: RunOptions) -> RunReport {
    let n = specs.len();
    let started = Instant::now();

    // Validate topological order up front.
    for (j, spec) in specs.iter().enumerate() {
        if let Some(&bad) = spec.deps.iter().find(|&&d| d >= j) {
            return RunReport {
                outputs: (0..n).map(|_| None).collect(),
                jobs: Vec::new(),
                executed: 0,
                cache_hits: 0,
                error: Some(format!(
                    "job {j} (`{}`) depends on {bad}, which does not precede it",
                    spec.id
                )),
                wall_ms: 0,
                run_dir: None,
            };
        }
    }

    // Final content-addresses: own key material + dependency keys.
    let mut keys: Vec<String> = Vec::with_capacity(n);
    for spec in &specs {
        let mut material = spec.key_material.clone();
        for &d in &spec.deps {
            material.push(keys[d].clone());
        }
        keys.push(stable_key(&material));
    }

    // A job's level: one more than its deepest dependency's.
    let mut levels: Vec<usize> = Vec::with_capacity(n);
    for spec in &specs {
        let level = spec.deps.iter().map(|&d| levels[d] + 1).max().unwrap_or(0);
        levels.push(level);
    }

    // Run logging.
    let (log, run_dir) = match &opts.run_dir {
        Some(dir) => match std::fs::create_dir_all(dir)
            .and_then(|()| EventLog::create(&dir.join("events.jsonl")))
        {
            Ok(log) => (log, Some(dir.clone())),
            Err(e) => {
                eprintln!("orchestrator: cannot open run dir {}: {e}", dir.display());
                (EventLog::disabled(), None)
            }
        },
        None => (EventLog::disabled(), None),
    };

    let pool = ThreadPool::new(opts.jobs);
    log.emit(
        "run_start",
        vec![
            ("run", Value::Str(opts.label.clone())),
            ("jobs", Value::U64(n as u64)),
            ("workers", Value::U64(pool.size() as u64)),
            (
                "cache_dir",
                opts.cache
                    .as_ref()
                    .map_or(Value::Null, |c| Value::Str(c.dir().display().to_string())),
            ),
        ],
    );

    let ctx = Ctx {
        specs,
        keys,
        cache: opts.cache,
        log,
    };
    let mut outputs: Vec<Option<JobOutput>> = vec![None; n];
    let mut reports: Vec<Option<JobReport>> = vec![None; n];
    let mut errors: Vec<Option<String>> = vec![None; n];
    for level in 0..=levels.iter().copied().max().unwrap_or(0) {
        let members: Vec<usize> = (0..n).filter(|&j| levels[j] == level).collect();
        let ended = pool.map_indexed(members.len(), |k| {
            let j = members[k];
            // A missing dependency output means an upstream failure.
            let deps = ctx.specs[j]
                .deps
                .iter()
                .map(|&d| outputs[d].clone())
                .collect();
            execute_job(&ctx, j, deps)
        });
        for (&j, (output, report, error)) in members.iter().zip(ended) {
            outputs[j] = output;
            reports[j] = Some(report);
            errors[j] = error;
        }
    }
    let jobs: Vec<JobReport> = reports
        .into_iter()
        .map(|r| r.expect("every level ran"))
        .collect();
    // The first failing job in job order names the run's error.
    let error = errors.into_iter().flatten().next();
    let executed = jobs
        .iter()
        .filter(|r| r.outcome == JobOutcome::Executed)
        .count();
    let cache_hits = jobs
        .iter()
        .filter(|r| r.outcome == JobOutcome::CacheHit)
        .count();
    let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);

    ctx.log.emit(
        "run_finish",
        vec![
            ("executed", Value::U64(executed as u64)),
            ("cache_hits", Value::U64(cache_hits as u64)),
            ("wall_ms", Value::U64(wall_ms)),
            (
                "error",
                error
                    .as_ref()
                    .map_or(Value::Null, |e| Value::Str(e.clone())),
            ),
        ],
    );

    if let Some(dir) = &run_dir {
        let manifest = Value::obj(vec![
            ("run", Value::Str(opts.label.clone())),
            (
                "orchestrator_version",
                Value::Str(env!("CARGO_PKG_VERSION").to_string()),
            ),
            ("workers", Value::U64(pool.size() as u64)),
            ("jobs", Value::U64(n as u64)),
            ("executed", Value::U64(executed as u64)),
            ("cache_hits", Value::U64(cache_hits as u64)),
            ("wall_ms", Value::U64(wall_ms)),
            (
                "cache_dir",
                ctx.cache
                    .as_ref()
                    .map_or(Value::Null, |c| Value::Str(c.dir().display().to_string())),
            ),
            (
                "error",
                error
                    .as_ref()
                    .map_or(Value::Null, |e| Value::Str(e.clone())),
            ),
            (
                "job_list",
                Value::Arr(
                    jobs.iter()
                        .map(|r| {
                            Value::obj(vec![
                                ("id", Value::Str(r.id.clone())),
                                ("key", Value::Str(r.key.clone())),
                                ("outcome", Value::Str(r.outcome.as_str().to_string())),
                                ("wall_ms", Value::U64(r.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = write_manifest(&dir.join("manifest.json"), &manifest) {
            eprintln!("orchestrator: cannot write manifest: {e}");
        }
    }

    RunReport {
        outputs,
        jobs,
        executed,
        cache_hits,
        error,
        wall_ms,
        run_dir,
    }
}

/// Runs job `j`, serves it from the cache, or skips it when `deps` (its
/// dependencies' outputs) is `None` because one of them failed. Returns
/// the job's output, its report and, when it failed, the run error it
/// names.
fn execute_job(
    ctx: &Ctx,
    j: usize,
    deps: Option<Vec<JobOutput>>,
) -> (Option<JobOutput>, JobReport, Option<String>) {
    let spec = &ctx.specs[j];
    let key = &ctx.keys[j];
    let report = |outcome, wall_ms| JobReport {
        id: spec.id.clone(),
        key: key.clone(),
        outcome,
        wall_ms,
    };

    let Some(deps) = deps else {
        ctx.log
            .emit("job_skipped", vec![("job", Value::Str(spec.id.clone()))]);
        return (None, report(JobOutcome::Skipped, 0), None);
    };

    // Memoization.
    if let Some(cache) = &ctx.cache {
        if let Some(out) = cache.load(key) {
            ctx.log.emit(
                "cache_hit",
                vec![
                    ("job", Value::Str(spec.id.clone())),
                    ("key", Value::Str(key.clone())),
                ],
            );
            let report = report(JobOutcome::CacheHit, 0);
            return (Some(out), report, None);
        }
    }

    ctx.log.emit(
        "job_start",
        vec![
            ("job", Value::Str(spec.id.clone())),
            ("key", Value::Str(key.clone())),
        ],
    );
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| (spec.run)(&deps))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked".to_string());
        Err(format!("panic: {msg}"))
    });
    let wall_ms = u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX);

    match result {
        Ok(out) => {
            if let Some(cache) = &ctx.cache {
                if let Err(e) = cache.store(key, &out) {
                    ctx.log.emit(
                        "cache_store_failed",
                        vec![
                            ("job", Value::Str(spec.id.clone())),
                            ("error", Value::Str(e.to_string())),
                        ],
                    );
                }
            }
            ctx.log.emit(
                "job_finish",
                vec![
                    ("job", Value::Str(spec.id.clone())),
                    ("wall_ms", Value::U64(wall_ms)),
                ],
            );
            let report = report(JobOutcome::Executed, wall_ms);
            (Some(out), report, None)
        }
        Err(e) => {
            ctx.log.emit(
                "job_failed",
                vec![
                    ("job", Value::Str(spec.id.clone())),
                    ("error", Value::Str(e.clone())),
                ],
            );
            let error = format!("{}: {e}", spec.id);
            (None, report(JobOutcome::Failed, wall_ms), Some(error))
        }
    }
}
