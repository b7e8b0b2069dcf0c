//! `bench` — host-time microbenchmarks of the code no `perfbench`
//! workload isolates.
//!
//! ```text
//! bench qarma|mac|serve|arena|all [--out FILE] [--fast] [--check FILE]
//! ```
//!
//! The simulator's end-to-end host cost is `perfbench`'s job (paired
//! parent/change runs with quartiles). This binary times the kernels
//! underneath and writes one machine-readable report per target; every
//! timing row carries its median and spread:
//!
//! * `qarma`/`mac`/`all` → `BENCH_qarma.json` — ns/op (median, fastest
//!   and slowest sample) for QARMA-128 encrypt and decrypt, the PTE-line
//!   MAC (scalar and batch) and verification.
//! * `serve` → `BENCH_serve.json` — full latency *distribution* (p50/p99/
//!   p999 from the same [`serve::hist::Log2Hist`] the load generator
//!   reports with) of the coalescing core's drain at batch sizes 1/2/4/8,
//!   per batch, with the exact mean per batch and per line — the measured
//!   basis for the queueing model's cost constants.
//! * `arena` → `BENCH_arena.json` — host ns per `on_activate` (median,
//!   fastest and slowest sample) for every defence in the mitigation arena
//!   (TRR, PARA, Graphene, Blockhammer, SoftTRR, CATT, DAPPER, PT-Guard)
//!   over a uniform activation stream.
//!
//! The QARMA and serve reports record the `line_kernel` they timed
//! (`avx2` or `fused`, chosen by the CPU).
//!
//! `--check FILE` re-measures a representative number and fails (exit 1)
//! if it regressed more than 2× over the value recorded in `FILE`. The
//! gate dispatches on the report's `schema` field and rejects any schema
//! it does not know, retired ones included. It also fails, naming both,
//! when the report timed a different line kernel than this CPU runs:
//! ns/op from two kernels say nothing about a regression. The margin stays 2× because
//! committed numbers come from one host and the gate runs on others; a
//! paired same-host comparison is `perfbench`'s job.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use orchestrator::json::Value;
use pagetable::addr::PhysAddr;
use ptguard::mac::PteMac;
use ptguard::PtGuardConfig;
use ptguard_bench::harness::{black_box, measure, sample_budget, Measurement};
use ptguard_bench::sample_pte_line;
use qarma::{LineKernel, Qarma128, Sbox};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench qarma|mac|serve|arena|all [--out FILE] [--fast] [--check FILE]\n\
         \x20 --out FILE    write the JSON report (default BENCH_qarma.json;\n\
         \x20               BENCH_serve.json / BENCH_arena.json for those targets)\n\
         \x20 --fast        ~10x shorter samples (smoke mode)\n\
         \x20 --check FILE  regression gate: fail if the report's anchor number regressed\n\
         \x20               more than 2x (dispatches on the file's schema field)"
    );
    ExitCode::FAILURE
}

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

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// One named measurement row destined for the JSON report.
struct Row {
    name: &'static str,
    m: Measurement,
}

fn report(rows: &mut Vec<Row>, name: &'static str, m: Measurement) {
    println!(
        "{name:<32} {:>10.1} ns/op  [{:.1} .. {:.1}]",
        m.median_ns, m.lo_ns, m.hi_ns
    );
    rows.push(Row { name, m });
}

fn bench_qarma(rows: &mut Vec<Row>, fast: bool) {
    let budget = sample_budget(fast);
    let q128 = Qarma128::new([1, 2], 9, Sbox::Sigma1);
    report(
        rows,
        "qarma128_r9_encrypt",
        measure(budget, || {
            q128.encrypt(black_box(0x0123_4567_89ab_cdef), black_box(42))
        }),
    );
    report(
        rows,
        "qarma128_r9_decrypt",
        measure(budget, || {
            q128.decrypt(black_box(0x0123_4567_89ab_cdef), black_box(42))
        }),
    );
}

fn bench_mac(rows: &mut Vec<Row>, fast: bool) {
    let budget = sample_budget(fast);
    let mac = PteMac::from_config(&PtGuardConfig::default());
    println!("line kernel: {}", mac.line_kernel().name());
    let line = sample_pte_line();
    let addr = PhysAddr::new(0x4000);
    report(
        rows,
        "mac_compute",
        measure(budget, || mac.compute(black_box(&line), addr)),
    );

    let items: Vec<_> = (0..8u64)
        .map(|i| (sample_pte_line(), PhysAddr::new(0x4000 + (i << 6))))
        .collect();
    let m = measure(budget, || mac.compute_batch(black_box(&items)));
    report(
        rows,
        "mac_compute_batch_per_line",
        m.per(items.len() as f64),
    );

    let stored = mac.compute(&line, addr);
    report(
        rows,
        "mac_verify_exact",
        measure(budget, || mac.verify(black_box(&line), addr, stored)),
    );
    report(
        rows,
        "mac_verify_soft_k4",
        measure(budget, || {
            mac.soft_verify(black_box(&line), addr, stored, 4)
        }),
    );
}

/// Schema tags of the three reports `bench` writes.
const QARMA_SCHEMA: &str = "ptguard-bench-qarma/v6";
const SERVE_SCHEMA: &str = "ptguard-bench-serve/v3";
const ARENA_SCHEMA: &str = "ptguard-bench-arena/v2";

/// The line kernel `PteMac::compute` runs on this CPU.
fn line_kernel() -> LineKernel {
    PteMac::from_config(&PtGuardConfig::default()).line_kernel()
}

/// The gate's kernel check: the committed report must have timed the line
/// kernel this CPU runs, since ns/op across kernels measure no regression.
fn check_kernel(committed: &Value, fresh: LineKernel) -> Result<(), String> {
    let kernel = committed
        .get("line_kernel")
        .and_then(Value::as_str)
        .ok_or("committed report lacks line_kernel")?;
    if kernel != fresh.name() {
        return Err(format!(
            "committed report timed the {kernel} line kernel, but this CPU runs the {} kernel; \
             ns/op across kernels are not comparable",
            fresh.name()
        ));
    }
    Ok(())
}

fn render_report(rows: &[Row], fast: bool) -> Value {
    let results = Value::Obj(
        rows.iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    Value::obj(vec![
                        ("ns_per_op", Value::F64(r.m.median_ns)),
                        ("lo_ns", Value::F64(r.m.lo_ns)),
                        ("hi_ns", Value::F64(r.m.hi_ns)),
                    ]),
                )
            })
            .collect(),
    );
    Value::obj(vec![
        ("schema", Value::Str(QARMA_SCHEMA.to_string())),
        ("fast", Value::Bool(fast)),
        ("line_kernel", Value::Str(line_kernel().name().to_string())),
        ("results", results),
    ])
}

/// Batch sizes the serve target measures the coalescer drain at.
const SERVE_BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Builds a verify-heavy job batch (1 embed : N−1 verifies, the serve
/// steady-state mix) of the given size over protected sample lines.
fn serve_jobs(engine: &serve::core::Engine, size: usize) -> Vec<serve::core::Job> {
    use serve::core::{Job, JobKind};
    let fmt = engine.mac().format();
    (0..size as u64)
        .map(|i| {
            let addr = PhysAddr::new(0x9_0000 + (i << 6));
            let raw = sample_pte_line();
            if i == 0 {
                Job {
                    kind: JobKind::Embed,
                    id: i,
                    addr,
                    line: raw,
                }
            } else {
                let protected =
                    ptguard::pattern::embed_mac_for(&raw, engine.mac().compute(&raw, addr), fmt);
                Job {
                    kind: JobKind::Verify,
                    id: i,
                    addr,
                    line: protected,
                }
            }
        })
        .collect()
}

/// Times one drain of `size` jobs through the coalescer, `iters` times,
/// into a latency histogram.
fn serve_drain_hist(
    engine: &serve::core::Engine,
    size: usize,
    iters: usize,
) -> serve::hist::Log2Hist {
    let jobs = serve_jobs(engine, size);
    let mut coalescer = serve::core::Coalescer::new();
    let mut hist = serve::hist::Log2Hist::new();
    let mut sink = 0u64;
    // Warm-up: grow the coalescer's scratch buffers off the clock.
    coalescer.respond(engine, &jobs, |_, _| {});
    for _ in 0..iters {
        let t = Instant::now();
        coalescer.respond(engine, &jobs, |i, _| sink ^= i as u64);
        hist.record((t.elapsed().as_nanos() as u64).max(1));
    }
    black_box(sink);
    hist
}

/// The serve target: the coalescer drain's latency distribution per batch
/// size, reported through the same histogram the load generator uses.
fn bench_serve(fast: bool) -> Value {
    let engine = serve::core::Engine::new(&PtGuardConfig::default());
    let iters = if fast { 2_000 } else { 20_000 };
    let mut sizes = Vec::new();
    for &size in &SERVE_BATCH_SIZES {
        let hist = serve_drain_hist(&engine, size, iters);
        let per_line = hist.mean() / size as f64;
        println!(
            "serve_drain_batch{size}  p50 {:>8.1} ns  p99 {:>8.1} ns  p999 {:>8.1} ns  (mean {per_line:.1} ns/line)",
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.percentile(99.9),
        );
        sizes.push((
            format!("batch{size}"),
            Value::obj(vec![
                ("p50_ns", Value::F64(hist.percentile(50.0))),
                ("p99_ns", Value::F64(hist.percentile(99.0))),
                ("p999_ns", Value::F64(hist.percentile(99.9))),
                ("mean_ns", Value::F64(hist.mean())),
                ("mean_ns_per_line", Value::F64(per_line)),
                ("samples", Value::U64(hist.count())),
            ]),
        ));
    }
    Value::obj(vec![
        ("schema", Value::Str(SERVE_SCHEMA.to_string())),
        ("fast", Value::Bool(fast)),
        (
            "line_kernel",
            Value::Str(engine.mac().line_kernel().name().to_string()),
        ),
        ("iters", Value::U64(iters as u64)),
        ("results", Value::Obj(sizes)),
    ])
}

/// The serve arm of the `--check` gate: the committed report must show the
/// drain scaling linearly in batch size (the batch is a loop over lines
/// through the per-line MAC kernel, so cross-line batching must not go
/// *superlinear* — the coalescing win is amortised queueing overhead, which
/// lives in the server loop, not here), and a fresh quick measurement of
/// the batch-8 drain must be within 2×. Both read the exact mean: the
/// histogram's percentiles interpolate inside a power-of-two bucket, so a
/// p50 reads that bucket's midpoint whenever most drains share one.
fn check_serve(committed: &Value) -> Result<(), String> {
    let mean = |size: &str| {
        committed
            .get("results")
            .and_then(|r| r.get(size))
            .and_then(|s| s.get("mean_ns"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("committed report lacks results.{size}.mean_ns"))
    };
    let (b1, b8) = (mean("batch1")?, mean("batch8")?);
    println!("check: committed drain mean — batch1 {b1:.1} ns vs batch8 {b8:.1} ns");
    if b8 >= 12.0 * b1 {
        return Err(format!(
            "committed BENCH_serve shows superlinear batch scaling: {b8:.1} ns >= 12x {b1:.1} ns"
        ));
    }
    let engine = serve::core::Engine::new(&PtGuardConfig::default());
    check_kernel(committed, engine.mac().line_kernel())?;
    let fresh = serve_drain_hist(&engine, 8, 2_000).mean();
    println!("check: serve batch-8 drain mean fresh {fresh:.1} ns vs committed {b8:.1} (gate 2x)");
    if fresh > 2.0 * b8 {
        return Err(format!(
            "serve drain regressed: {fresh:.1} ns > 2x committed {b8:.1} ns"
        ));
    }
    Ok(())
}

/// Activations per timed block in the arena target — long enough that the
/// per-call harness overhead vanishes against the tracker update.
const ARENA_BLOCK: u64 = 4096;

/// The arena target: host ns per `on_activate` for every defence the
/// mitigation arena fields, driven by a uniform random activation stream
/// over a flip-immune DDR4 device. This is the tracker's *host-side* cost
/// (hash-map upkeep, decay, sampling) — the simulated-time costs (refresh
/// energy, injected delay) are the `exp arena` artefact's job.
fn bench_arena(fast: bool) -> Value {
    use dram::{DramDevice, RowhammerConfig};

    let cfg = attacker::CampaignConfig::default();
    let mut results = Vec::new();
    for spec in experiments::arena::defenses() {
        let mut device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let geom = *device.geometry();
        let mut mitigation = (spec.build)(&cfg, 0x00BE_2C4A_2E2A);
        mitigation.note_pt_row(dram::RowId { bank: 0, row: 64 });
        let mut rng = rng::SplitMix64::new(0xBE2C_0000_0000_0001);
        let m = measure(sample_budget(fast), || {
            for _ in 0..ARENA_BLOCK {
                let row = dram::RowId {
                    bank: rng.gen_range_u64(0, u64::from(geom.banks)) as u32,
                    row: rng.gen_range_u64(0, u64::from(geom.rows_per_bank)) as u32,
                };
                mitigation.on_activate(row, &mut device);
            }
        });
        let per_act = m.per(ARENA_BLOCK as f64);
        println!(
            "arena_{name:<12} {:>8.1} ns/activation  [{:.1} .. {:.1}]  ({refreshes} refreshes issued)",
            per_act.median_ns,
            per_act.lo_ns,
            per_act.hi_ns,
            name = spec.name,
            refreshes = mitigation.refreshes_issued(),
        );
        results.push((
            spec.name.to_string(),
            Value::obj(vec![
                ("ns_per_activation", Value::F64(per_act.median_ns)),
                ("lo_ns", Value::F64(per_act.lo_ns)),
                ("hi_ns", Value::F64(per_act.hi_ns)),
                ("refreshes", Value::U64(mitigation.refreshes_issued())),
                (
                    "storage_bytes",
                    Value::U64(mitigation.storage_overhead_bytes()),
                ),
            ]),
        ));
    }
    Value::obj(vec![
        ("schema", Value::Str(ARENA_SCHEMA.to_string())),
        ("fast", Value::Bool(fast)),
        ("block", Value::U64(ARENA_BLOCK)),
        ("results", Value::Obj(results)),
    ])
}

/// The arena arm of the `--check` gate: every tracker must stay under a
/// microsecond per activation in the committed report (three orders of
/// magnitude of headroom — the trackers are hash-map updates), and a fresh
/// measurement of the heaviest committed tracker must be within 2×.
fn check_arena(committed: &Value, fast: bool) -> Result<(), String> {
    let results = committed
        .get("results")
        .and_then(|r| match r {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .ok_or("committed report lacks results")?;
    let mut worst: Option<(&str, f64)> = None;
    for (name, row) in results {
        let ns = row
            .get("ns_per_activation")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("committed report lacks results.{name}.ns_per_activation"))?;
        if ns > 1_000.0 {
            return Err(format!(
                "committed BENCH_arena shows {name} at {ns:.1} ns/activation (> 1 us)"
            ));
        }
        if worst.is_none_or(|(_, w)| ns > w) {
            worst = Some((name.as_str(), ns));
        }
    }
    let (name, committed_ns) = worst.ok_or("committed report has no defences")?;
    let fresh = bench_arena(fast)
        .get("results")
        .and_then(|r| r.get(name))
        .and_then(|s| s.get("ns_per_activation"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("fresh arena report lacks {name}"))?;
    println!(
        "check: arena {name} fresh {fresh:.1} ns/act vs committed {committed_ns:.1} (gate 2x)"
    );
    if fresh > 2.0 * committed_ns && fresh > 50.0 {
        return Err(format!(
            "arena tracker {name} regressed: {fresh:.1} ns/act > 2x committed {committed_ns:.1}"
        ));
    }
    Ok(())
}

/// The MAC arm of the `--check` gate: a fresh `mac_compute` must be
/// within 2× of the committed ns/op.
fn check_mac(committed: &Value, fast: bool) -> Result<(), String> {
    let committed_ns = committed
        .get("results")
        .and_then(|r| r.get("mac_compute"))
        .and_then(|m| m.get("ns_per_op"))
        .and_then(Value::as_f64)
        .ok_or_else(|| "committed report lacks results.mac_compute.ns_per_op".to_string())?;
    let mac = PteMac::from_config(&PtGuardConfig::default());
    check_kernel(committed, mac.line_kernel())?;
    let line = sample_pte_line();
    let addr = PhysAddr::new(0x4000);
    let fresh = measure(sample_budget(fast), || mac.compute(black_box(&line), addr));
    println!(
        "check: mac_compute fresh {:.1} ns/op vs committed {committed_ns:.1} ns/op (gate 2x)",
        fresh.median_ns
    );
    if fresh.median_ns > 2.0 * committed_ns {
        return Err(format!(
            "MAC compute regressed: {:.1} ns/op > 2x committed {committed_ns:.1} ns/op",
            fresh.median_ns
        ));
    }
    Ok(())
}

/// The `--check` gate: dispatch on the committed report's schema and
/// re-measure its anchor number against the 2× budget. A schema this
/// binary does not write, retired or unknown, is an error that names it.
fn check(committed: &Value, fast: bool) -> Result<(), String> {
    match committed.get("schema").and_then(Value::as_str) {
        Some(QARMA_SCHEMA) => check_mac(committed, fast),
        Some(SERVE_SCHEMA) => check_serve(committed),
        Some(ARENA_SCHEMA) => check_arena(committed, fast),
        Some(other) => Err(format!(
            "unknown report schema {other} (this bench checks {QARMA_SCHEMA}, \
             {SERVE_SCHEMA} and {ARENA_SCHEMA})"
        )),
        None => Err("report has no schema field".to_string()),
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let out_flag = take_flag(&mut args, "--out")?.map(PathBuf::from);
    let fast = take_switch(&mut args, "--fast");
    let check_path = take_flag(&mut args, "--check")?.map(PathBuf::from);

    if let Some(path) = check_path {
        if !args.is_empty() {
            return Err(format!("unexpected argument: {}", args[0]));
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let committed =
            Value::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        return check(&committed, fast);
    }

    let what = match args.len() {
        0 => "all".to_string(),
        1 => args.remove(0),
        _ => return Err(format!("unexpected argument: {}", args[1])),
    };
    let default_out = match what.as_str() {
        "serve" => "BENCH_serve.json",
        "arena" => "BENCH_arena.json",
        _ => "BENCH_qarma.json",
    };
    let out = out_flag.unwrap_or_else(|| PathBuf::from(default_out));
    let mut rows = Vec::new();
    let report = match what.as_str() {
        "qarma" => {
            bench_qarma(&mut rows, fast);
            render_report(&rows, fast)
        }
        "mac" => {
            bench_mac(&mut rows, fast);
            render_report(&rows, fast)
        }
        "all" => {
            bench_qarma(&mut rows, fast);
            bench_mac(&mut rows, fast);
            render_report(&rows, fast)
        }
        "serve" => bench_serve(fast),
        "arena" => bench_arena(fast),
        other => return Err(format!("unknown target: {other}")),
    };

    std::fs::write(&out, report.render_pretty())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_only(schema: &str) -> Value {
        Value::obj(vec![("schema", Value::Str(schema.to_string()))])
    }

    #[test]
    fn retired_and_unknown_schemas_fail_naming_the_schema() {
        for schema in [
            "ptguard-bench-memsys/v3",
            "ptguard-bench-channels/v2",
            "ptguard-bench-qarma/v2",
            "ptguard-bench-qarma/v3",
            "ptguard-bench-qarma/v4",
            "ptguard-bench-qarma/v5",
            "ptguard-bench-serve/v1",
            "ptguard-bench-serve/v2",
            "ptguard-bench-arena/v1",
            "no-such-report/v9",
        ] {
            let err = check(&schema_only(schema), true).expect_err(schema);
            assert!(err.contains(schema), "{schema}: {err}");
        }
        let err = check(&Value::obj(vec![("fast", Value::Bool(true))]), true).unwrap_err();
        assert!(err.contains("no schema"), "{err}");
    }

    #[test]
    fn current_schemas_reach_their_own_arm() {
        // Each arm reads its anchor row first, so an otherwise empty report
        // names the missing row instead of falling through to another arm.
        let err = check(&schema_only(QARMA_SCHEMA), true).unwrap_err();
        assert!(err.contains("results.mac_compute"), "{err}");
        let err = check(&schema_only(SERVE_SCHEMA), true).unwrap_err();
        assert!(err.contains("results.batch1"), "{err}");
        let err = check(&schema_only(ARENA_SCHEMA), true).unwrap_err();
        assert!(err.contains("lacks results"), "{err}");
    }

    #[test]
    fn a_report_from_another_line_kernel_fails_naming_both_kernels() {
        let fresh = line_kernel();
        let other = match fresh {
            LineKernel::Avx2 => LineKernel::Fused,
            LineKernel::Fused => LineKernel::Avx2,
        };
        let ns = |v: f64| {
            Value::obj(vec![
                ("ns_per_op", Value::F64(v)),
                ("mean_ns", Value::F64(v)),
            ])
        };
        let report = |schema: &str| {
            Value::obj(vec![
                ("schema", Value::Str(schema.to_string())),
                ("line_kernel", Value::Str(other.name().to_string())),
                (
                    "results",
                    Value::obj(vec![
                        ("mac_compute", ns(1e9)),
                        ("batch1", ns(1e9)),
                        ("batch8", ns(1e9)),
                    ]),
                ),
            ])
        };
        for schema in [QARMA_SCHEMA, SERVE_SCHEMA] {
            let err = check(&report(schema), true).unwrap_err();
            let want = format!(
                "committed report timed the {} line kernel, but this CPU runs the {} kernel",
                other.name(),
                fresh.name()
            );
            assert!(err.contains(&want), "{schema}: {err}");
        }
    }

    #[test]
    fn the_serve_gate_reads_the_committed_means() {
        let mean = |v: f64| Value::obj(vec![("mean_ns", Value::F64(v))]);
        let report = Value::obj(vec![
            ("schema", Value::Str(SERVE_SCHEMA.to_string())),
            ("line_kernel", Value::Str(line_kernel().name().to_string())),
            (
                "results",
                Value::obj(vec![("batch1", mean(1e9)), ("batch8", mean(1e9))]),
            ),
        ]);
        assert_eq!(check(&report, true), Ok(()));
    }
}
