//! `bench` — host-time microbenchmarks of the code no `perfbench`
//! workload isolates.
//!
//! ```text
//! bench qarma|mac|serve|arena|all [--out FILE] [--fast] [--jobs N] [--check FILE]
//! ```
//!
//! The simulator's end-to-end host cost is `perfbench`'s job (paired
//! parent/change runs with quartiles). This binary times the kernels
//! underneath and writes one machine-readable report per target; every
//! timing row carries its median and spread:
//!
//! * `qarma`/`mac`/`all` → `BENCH_qarma.json` — ns/op (median, fastest
//!   and slowest sample) for the QARMA-64/128 kernels, the PTE-line MAC
//!   (scalar and batch), verification and PAC, plus the MAC oracle's
//!   pair-sweep wall time serial vs. parallel.
//! * `serve` → `BENCH_serve.json` — full latency *distribution* (p50/p99/
//!   p999 from the same [`serve::hist::Log2Hist`] the load generator
//!   reports with) of the coalescing core's drain at batch sizes 1/2/4/8,
//!   per batch and per line — the measured basis for the queueing model's
//!   cost constants.
//! * `arena` → `BENCH_arena.json` — host ns per `on_activate` (median,
//!   fastest and slowest sample) for every defence in the mitigation arena
//!   (TRR, PARA, Graphene, Blockhammer, SoftTRR, CATT, DAPPER, PT-Guard)
//!   over a uniform activation stream.
//!
//! `--check FILE` re-measures a representative number and fails (exit 1)
//! if it regressed more than 2× over the value recorded in `FILE`. The
//! gate dispatches on the report's `schema` field and rejects any schema
//! it does not know, retired ones included. The margin stays 2× because
//! committed numbers come from one host and the gate runs on others; a
//! paired same-host comparison is `perfbench`'s job.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use orchestrator::json::Value;
use orchestrator::pool::ThreadPool;
use pagetable::addr::PhysAddr;
use ptguard::mac::PteMac;
use ptguard::PtGuardConfig;
use ptguard_bench::harness::{black_box, measure, sample_budget, Measurement};
use ptguard_bench::sample_pte_line;
use qarma::pac::PacKey;
use qarma::{Qarma128, Qarma64, Sbox};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench qarma|mac|serve|arena|all [--out FILE] [--fast] [--jobs N] [--check FILE]\n\
         \x20 --out FILE    write the JSON report (default BENCH_qarma.json;\n\
         \x20               BENCH_serve.json / BENCH_arena.json for those targets)\n\
         \x20 --fast        ~10x shorter samples (smoke mode)\n\
         \x20 --jobs N      workers for the parallel pair-sweep timing (default: all cores;\n\
         \x20               with fewer than 2 the pair_sweep row is omitted)\n\
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
    let q64 = Qarma64::new([0x84be85ce9804e94b, 0xec2802d4e0a488e4], 5, Sbox::Sigma1);
    report(
        rows,
        "qarma64_r5_encrypt",
        measure(budget, || {
            q64.encrypt(black_box(0xfb623599da6e8127), black_box(0x477d469dec0b8762))
        }),
    );

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

    let key = PacKey::new([0x84be85ce9804e94b, 0xec2802d4e0a488e4]);
    let signed = key.sign(0x7f12_3456_7890, 0x42);
    report(
        rows,
        "pac_sign",
        measure(budget, || {
            key.sign(black_box(0x7f12_3456_7890), black_box(0x42))
        }),
    );
    report(
        rows,
        "pac_auth",
        measure(budget, || key.auth(black_box(signed), black_box(0x42))),
    );
}

/// Times the MAC oracle's pair sweep serial and on a `jobs`-wide pool.
/// Determinism means the two runs do identical work, so the ratio is a
/// pure scaling measurement — which needs at least two workers: with one,
/// the row is omitted and stderr says why.
fn bench_sweep(jobs: usize, fast: bool) -> Option<Value> {
    let pool = ThreadPool::new(jobs);
    if pool.size() < 2 {
        eprintln!(
            "pair_sweep: omitted, the pool has {} worker (a parallel speedup needs at least 2; pass --jobs 2)",
            pool.size()
        );
        return None;
    }
    let cfg = PtGuardConfig::default();
    let (lines, budget) = if fast { (2, 2_000) } else { (4, 20_000) };
    let seed = 0xbe0c_5eed;

    let t = Instant::now();
    let serial = ::oracle::macoracle::sweep(&cfg, seed, lines, budget);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let parallel = ::oracle::macoracle::sweep_with_pool(&cfg, seed, lines, budget, Some(&pool));
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
    println!(
        "pair_sweep ({lines} lines, {budget} pairs/line): serial {serial_ms:.1} ms, \
         {} workers {parallel_ms:.1} ms ({:.2}x)",
        pool.size(),
        serial_ms / parallel_ms.max(1e-9),
    );
    Some(Value::obj(vec![
        ("lines", Value::U64(lines as u64)),
        ("pair_budget_per_line", Value::U64(budget as u64)),
        ("serial_ms", Value::F64(serial_ms)),
        ("parallel_ms", Value::F64(parallel_ms)),
        ("jobs", Value::U64(pool.size() as u64)),
        ("speedup", Value::F64(serial_ms / parallel_ms.max(1e-9))),
    ]))
}

/// Schema tags of the three reports `bench` writes.
const QARMA_SCHEMA: &str = "ptguard-bench-qarma/v3";
const SERVE_SCHEMA: &str = "ptguard-bench-serve/v1";
const ARENA_SCHEMA: &str = "ptguard-bench-arena/v2";

fn render_report(rows: &[Row], sweep: Option<Value>, fast: bool) -> Value {
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
    let mut pairs = vec![
        ("schema", Value::Str(QARMA_SCHEMA.to_string())),
        ("fast", Value::Bool(fast)),
        ("results", results),
    ];
    if let Some(s) = sweep {
        pairs.push(("pair_sweep", s));
    }
    Value::obj(pairs)
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
        let per_line = hist.percentile(50.0) / size as f64;
        println!(
            "serve_drain_batch{size}  p50 {:>8.1} ns  p99 {:>8.1} ns  p999 {:>8.1} ns  ({per_line:.1} ns/line)",
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
                ("p50_ns_per_line", Value::F64(per_line)),
                ("samples", Value::U64(hist.count())),
            ]),
        ));
    }
    Value::obj(vec![
        ("schema", Value::Str(SERVE_SCHEMA.to_string())),
        ("fast", Value::Bool(fast)),
        ("iters", Value::U64(iters as u64)),
        ("results", Value::Obj(sizes)),
    ])
}

/// The serve arm of the `--check` gate: the committed report must show the
/// drain scaling linearly in batch size (the batch is a loop over lines
/// through the per-line MAC kernel, so cross-line batching must not go
/// *superlinear* — the coalescing win is amortised queueing overhead, which
/// lives in the server loop, not here), and a fresh quick measurement of
/// the batch-8 drain must be within 2×.
fn check_serve(committed: &Value) -> Result<(), String> {
    let p50 = |size: &str, field: &str| {
        committed
            .get("results")
            .and_then(|r| r.get(size))
            .and_then(|s| s.get(field))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("committed report lacks results.{size}.{field}"))
    };
    let (b1, b8) = (p50("batch1", "p50_ns")?, p50("batch8", "p50_ns")?);
    println!("check: committed drain p50 — batch1 {b1:.1} ns vs batch8 {b8:.1} ns");
    if b8 >= 12.0 * b1 {
        return Err(format!(
            "committed BENCH_serve shows superlinear batch scaling: {b8:.1} ns >= 12x {b1:.1} ns"
        ));
    }
    let committed_ns = p50("batch8", "p50_ns")?;
    let engine = serve::core::Engine::new(&PtGuardConfig::default());
    let fresh = serve_drain_hist(&engine, 8, 2_000).percentile(50.0);
    println!(
        "check: serve batch-8 drain fresh {fresh:.1} ns vs committed {committed_ns:.1} (gate 2x)"
    );
    if fresh > 2.0 * committed_ns {
        return Err(format!(
            "serve drain regressed: {fresh:.1} ns > 2x committed {committed_ns:.1} ns"
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

/// The MAC arm of the `--check` gate: a committed `pair_sweep` row must
/// have had a second worker, and a fresh single-thread `mac_compute` must
/// be within 2× of the committed ns/op.
fn check_mac(committed: &Value, fast: bool) -> Result<(), String> {
    let committed_ns = committed
        .get("results")
        .and_then(|r| r.get("mac_compute"))
        .and_then(|m| m.get("ns_per_op"))
        .and_then(Value::as_f64)
        .ok_or_else(|| "committed report lacks results.mac_compute.ns_per_op".to_string())?;
    // The pair-sweep row is optional (omitted on a one-worker pool), but a
    // committed one must have had a second worker to measure any scaling.
    if let Some(sweep) = committed.get("pair_sweep") {
        let jobs = sweep
            .get("jobs")
            .and_then(Value::as_u64)
            .ok_or("committed pair_sweep lacks jobs")?;
        if jobs < 2 {
            return Err(format!(
                "committed pair_sweep was measured with {jobs} worker and measures no speedup"
            ));
        }
    }

    let mac = PteMac::from_config(&PtGuardConfig::default());
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
    let jobs = match take_flag(&mut args, "--jobs")? {
        Some(s) => s.parse().map_err(|_| format!("bad --jobs: {s}"))?,
        None => 0,
    };
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
            render_report(&rows, None, fast)
        }
        "mac" => {
            bench_mac(&mut rows, fast);
            let sweep = bench_sweep(jobs, fast);
            render_report(&rows, sweep, fast)
        }
        "all" => {
            bench_qarma(&mut rows, fast);
            bench_mac(&mut rows, fast);
            let sweep = bench_sweep(jobs, fast);
            render_report(&rows, sweep, fast)
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
}
