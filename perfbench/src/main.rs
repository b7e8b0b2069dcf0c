//! `perfbench`: the end-to-end and per-layer benchmark of the PT-Guard
//! simulator and the MAC service.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a traced
//! run (`--trace 1`) the per-layer ones. Both check the program's outputs,
//! print every metric with its unit, and end with one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only when every output check passed; `all` runs
//! every workload, each in a child process. Workloads, seeds and metric
//! declarations live in `workloads.json`.

mod config;
mod isolated;
mod measure;
mod service;
mod sim;
mod spans;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use orchestrator::json::Value;

use config::{Applies, Config, Kind, MetricDecl, Workload};
use measure::Outcome;

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => {
                out.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                );
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn run_workload(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let span_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.tsv", w.name));
    match (&w.kind, trace) {
        (Kind::Sim(p), false) => sim::untraced(p, seed, seconds),
        (Kind::Sim(p), true) => sim::traced(p, seed, &span_file),
        (Kind::Serve(p), false) => service::untraced(p, seed, seconds),
        (Kind::Serve(p), true) => service::traced(p, seed, seconds, &span_file),
    }
}

/// The declared metrics of this run, in declaration order, with their
/// values. A metric that does not apply to the workload reads 0 (its
/// layer did no work); one that applies but was not measured, or was
/// measured without being declared, is a benchmark bug.
fn declared_values<'a>(
    decls: &'a [MetricDecl],
    w: &Workload,
    out: &mut Outcome,
) -> Vec<(&'a MetricDecl, f64)> {
    let applies = |d: &MetricDecl| match d.applies {
        Applies::All => true,
        Applies::Sim => w.is_sim(),
        Applies::Serve => !w.is_sim(),
    };
    let mut rows = Vec::with_capacity(decls.len());
    for d in decls {
        let value = match out.metrics.get(&d.name) {
            Some(&v) => v,
            None if !applies(d) => 0.0,
            None => {
                out.problems
                    .push(format!("metric {} was not measured", d.name));
                f64::NAN
            }
        };
        if !value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", d.name));
        }
        rows.push((d, value));
    }
    for name in out.metrics.keys() {
        if !decls.iter().any(|d| &d.name == name) {
            out.problems.push(format!("metric {name} is not declared"));
        }
    }
    rows
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

/// Runs one workload in this process and prints its table and result.
fn run_one(cfg: &Config, w: &Workload, args: &Args) -> bool {
    let seed = args.seed.unwrap_or(w.default_seed);
    eprintln!(
        "== {} (seed {seed}, {} s, {})",
        w.name,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut out = run_workload(w, seed, args.seconds, args.trace);
    let decls = if args.trace {
        &cfg.per_layer
    } else {
        &cfg.end_to_end
    };
    let values = declared_values(decls, w, &mut out);
    println!("{} (seed {seed}):", w.name);
    for (d, v) in &values {
        println!(
            "  {:<36} {v:>16.4} {:<12} ({} is better)",
            d.name, d.unit, d.better
        );
    }
    for (name, v, unit) in &out.notes {
        println!("  {name:<36} {v:>16.4} {unit:<12} (reported, not gated)");
    }
    for p in &out.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    let metrics = values
        .into_iter()
        .map(|(d, v)| {
            let m = Value::obj(vec![
                ("value", Value::F64(v)),
                ("unit", Value::Str(d.unit.clone())),
            ]);
            (d.name.clone(), m)
        })
        .collect();
    let correct = out.problems.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, metrics)
    );
    correct
}

/// Runs every workload, each in a child process of its own (as a single
/// run would, so peak memory is per workload), and prints one result line
/// whose metrics are named `workload/metric`.
fn run_all(cfg: &Config, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in &cfg.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            &w.name,
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let child = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = Value::parse(lines.pop().unwrap_or_default())
            .map_err(|e| format!("{}: no result line ({e})", w.name))?;
        for line in lines {
            println!("{line}");
        }
        correct &= child.status.success() && last.get("correct") == Some(&Value::Bool(true));
        attempted += last.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += last.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Obj(pairs)) = last.get("metrics") {
            metrics.extend(
                pairs
                    .iter()
                    .map(|(k, v)| (format!("{}/{k}", w.name), v.clone())),
            );
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(correct)
}

fn run(cfg: &Config, args: &Args) -> Result<bool, String> {
    if args.workload == "all" {
        return run_all(cfg, args);
    }
    let w = cfg.workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = cfg.workloads.iter().map(|w| w.name.as_str()).collect();
        format!(
            "unknown workload `{}` (known: {}, all)",
            args.workload,
            names.join(", ")
        )
    })?;
    Ok(run_one(cfg, w, args))
}

fn main() -> ExitCode {
    measure::tighten_timer_slack();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = config::load().and_then(|cfg| run(&cfg, &args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
