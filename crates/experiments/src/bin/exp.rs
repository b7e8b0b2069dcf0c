//! `exp` — regenerate any table or figure of the PT-Guard paper through the
//! parallel, cached, resumable orchestration engine.
//!
//! ```text
//! exp <artefact>|all [--trial|--quick|--full] [--jobs N] [--seed N]
//!                    [--cache-dir DIR] [--no-cache] [--runs-dir DIR]
//!                    [--format text|json]
//! exp sweep <artefact>|all [--seeds N|a,b,c] [same flags]
//! exp --list
//! ```
//!
//! Artefact runs execute as a job DAG, one dependency level at a time, on
//! a scoped worker pool (`--jobs`, default = available cores). Results are
//! memoized in a content-addressed cache (`--cache-dir`, default
//! `.exp-cache`), so re-runs and interrupted runs resume instantly; each
//! run also writes `runs/<id>/manifest.json` plus an `events.jsonl` job
//! log. stdout carries only artefact output — byte-identical for any
//! `--jobs` value — orchestration chatter goes to stderr.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use experiments::orchestrate::{self, Plan, Section, ARTEFACTS};
use experiments::Scale;
use orchestrator::{run_dag, DiskCache, RunOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage: exp <artefact>|all [--trial|--quick|--full] [--jobs N] [--seed N]\n\
         \x20          [--cache-dir DIR] [--no-cache] [--runs-dir DIR] [--format text|json]\n\
         \x20      exp sweep <artefact>|all [--seeds N|a,b,c] [same flags]\n\
         \x20      exp --list\n\
         artefacts: {}",
        ARTEFACTS.join(" ")
    );
    ExitCode::FAILURE
}

/// Parses the scale flags out of `args`, leaving everything else.
fn split_scale(args: Vec<String>) -> (Vec<String>, Scale) {
    let mut scale = Scale::Quick;
    let rest = args
        .into_iter()
        .filter(|a| match a.as_str() {
            "--trial" => {
                scale = Scale::Trial;
                false
            }
            "--quick" => {
                scale = Scale::Quick;
                false
            }
            "--full" => {
                scale = Scale::Full;
                false
            }
            _ => true,
        })
        .collect();
    (rest, scale)
}

/// Pulls the value of `--flag VALUE` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of `args`, if present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("invalid number: {s}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// Orchestration flags shared by `exp <artefact>` and `exp sweep`.
struct OrchFlags {
    jobs: usize,
    cache: Option<DiskCache>,
    runs_dir: Option<PathBuf>,
    seed: u64,
    format: Format,
}

fn take_orch_flags(args: &mut Vec<String>) -> Result<OrchFlags, String> {
    let jobs = match take_flag(args, "--jobs")? {
        Some(s) => usize::try_from(parse_u64(&s)?).map_err(|_| "bad --jobs".to_string())?,
        None => 0,
    };
    let cache_dir =
        take_flag(args, "--cache-dir")?.map_or_else(|| PathBuf::from(".exp-cache"), PathBuf::from);
    let cache = if take_switch(args, "--no-cache") {
        None
    } else {
        Some(DiskCache::open(&cache_dir).map_err(|e| format!("cannot open cache dir: {e}"))?)
    };
    let runs_dir = match take_flag(args, "--runs-dir")? {
        Some(s) => Some(PathBuf::from(s)),
        None => Some(PathBuf::from("runs")),
    };
    let seed = match take_flag(args, "--seed")? {
        Some(s) => parse_u64(&s)?,
        None => 0,
    };
    let format = match take_flag(args, "--format")?.as_deref() {
        None | Some("text") => Format::Text,
        Some("json") => Format::Json,
        Some(other) => return Err(format!("unknown format: {other}")),
    };
    Ok(OrchFlags {
        jobs,
        cache,
        runs_dir,
        seed,
        format,
    })
}

/// A unique-enough run id: epoch seconds + pid.
fn run_id() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!("run-{secs}-{}", std::process::id())
}

/// Executes a plan and prints its sections in order. stdout gets artefact
/// output only; the orchestration summary goes to stderr.
fn execute(plan: Plan, flags: &OrchFlags, scale: Scale, label: String) -> Result<(), String> {
    let run_dir = flags.runs_dir.as_ref().map(|d| d.join(run_id()));
    let report = run_dag(
        plan.specs,
        RunOptions {
            label,
            jobs: flags.jobs,
            cache: flags.cache.clone(),
            run_dir: run_dir.clone(),
        },
    );
    // Print every section that completed, in the fixed plan order, so
    // stdout is byte-identical regardless of worker count or cache state.
    let mut printed = 0usize;
    for (i, section) in plan.sections.iter().enumerate() {
        let Some(out) = &report.outputs[section.job] else {
            break;
        };
        match flags.format {
            Format::Text => {
                if i > 0 {
                    println!();
                }
                println!("===== {} =====", section.heading);
                print!("{}", out.rendered);
            }
            Format::Json => println!("{}", render_json_line(section, scale, out)),
        }
        printed += 1;
    }
    eprintln!(
        "orchestrator: {} jobs ({} executed, {} cache hits), {} ms{}",
        report.jobs.len(),
        report.executed,
        report.cache_hits,
        report.wall_ms,
        run_dir
            .as_ref()
            .map(|d| format!(", run dir {}", d.display()))
            .unwrap_or_default(),
    );
    match report.error {
        Some(e) => {
            if printed < plan.sections.len() {
                eprintln!(
                    "exp: {} of {} artefacts printed before the failure",
                    printed,
                    plan.sections.len()
                );
            }
            Err(e)
        }
        None => Ok(()),
    }
}

fn render_json_line(section: &Section, scale: Scale, out: &orchestrator::JobOutput) -> String {
    orchestrate::render_json(section, scale, out)
}

/// Parses `--seeds`: either a count `N` (meaning seeds `1..=N`) or an
/// explicit comma-separated list.
fn parse_seeds(spec: Option<&str>) -> Result<Vec<u64>, String> {
    let Some(spec) = spec else {
        return Ok(vec![1, 2, 3]);
    };
    if spec.contains(',') {
        return spec.split(',').map(parse_u64).collect();
    }
    let n = parse_u64(spec)?;
    if n == 0 {
        return Err("sweep needs at least one seed".to_string());
    }
    Ok((1..=n).collect())
}

fn artefact_list(name: &str) -> Vec<String> {
    if name == "all" {
        ARTEFACTS.iter().map(ToString::to_string).collect()
    } else {
        vec![name.to_string()]
    }
}

fn cmd_artefacts(name: &str, mut args: Vec<String>, scale: Scale) -> Result<(), String> {
    let flags = take_orch_flags(&mut args)?;
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument: {stray}"));
    }
    let names = artefact_list(name);
    let plan = orchestrate::plan_artefacts(&names, scale, flags.seed, flags.jobs)?;
    let label = format!("exp {name} --{} (seed {})", scale.name(), flags.seed);
    execute(plan, &flags, scale, label)
}

fn cmd_sweep(mut args: Vec<String>, scale: Scale) -> Result<(), String> {
    let seeds = parse_seeds(take_flag(&mut args, "--seeds")?.as_deref())?;
    let flags = take_orch_flags(&mut args)?;
    let [name] = &args[..] else {
        return Err("sweep needs exactly one artefact name (or `all`)".to_string());
    };
    let names = artefact_list(name);
    let plan = orchestrate::plan_sweep(&names, scale, &seeds, flags.jobs)?;
    let label = format!("exp sweep {name} --{} (seeds {seeds:?})", scale.name());
    execute(plan, &flags, scale, label)
}

fn main() -> ExitCode {
    let (mut args, scale) = split_scale(env::args().skip(1).collect());
    let Some(first) = (!args.is_empty()).then(|| args.remove(0)) else {
        return usage();
    };
    let outcome = match first.as_str() {
        "--list" => {
            for a in ARTEFACTS {
                println!("{a}");
            }
            Ok(())
        }
        "sweep" => cmd_sweep(args, scale),
        artefact => cmd_artefacts(artefact, args, scale),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // A failing artefact/subcommand is an ordinary error, not a usage
        // mistake: report it and exit non-zero without the usage banner.
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}
