//! `bench` — the QARMA/MAC hot-path and memory-pipeline benchmark driver.
//!
//! ```text
//! bench qarma|mac|memsys|channels|serve|arena|all [--out FILE] [--fast] [--jobs N] [--check FILE]
//! ```
//!
//! Unlike the `cargo bench` targets (which only print), this binary
//! captures every measurement and emits a machine-readable report:
//!
//! * `qarma`/`mac` → `BENCH_qarma.json` — ns/op for the QARMA-64/128
//!   kernels, the PTE-line MAC (scalar and batch), verification, and the
//!   MAC oracle's pair-sweep wall time serial vs. parallel, each paired
//!   with the committed pre-rewrite baseline.
//! * `memsys` → `BENCH_memsys.json` — host ns per simulated memory op and
//!   simulated IPC of the event pipeline at `mlp ∈ {1, 2, 4}` on three
//!   MAC-heavy profiles.
//! * `serve` → `BENCH_serve.json` — full latency *distribution* (p50/p99/
//!   p999 from the same [`serve::hist::Log2Hist`] the load generator
//!   reports with) of the coalescing core's drain at batch sizes 1/2/4/8,
//!   per batch and per line — the measured basis for the queueing model's
//!   cost constants.
//! * `channels` → `BENCH_channels.json` — host ns per simulated memory op
//!   of the pipelined driver at `channels ∈ {1, 2, 4}` (mlp 4) on the same
//!   two MAC-heavy profiles; the committed report bounds the host-side
//!   cost of the per-channel drain + picosecond-ordered retire merge.
//! * `arena` → `BENCH_arena.json` — host ns per `on_activate` for every
//!   defence in the mitigation arena (TRR, PARA, Graphene, Blockhammer,
//!   SoftTRR, CATT, DAPPER, PT-Guard) over a uniform activation stream.
//!
//! `--check FILE` re-measures a representative number and fails (exit 1)
//! if it regressed more than 2× over the value recorded in `FILE` — the CI
//! `bench-smoke`/`pipeline-smoke` contract. The gate dispatches on the
//! report's `schema` field.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use memsys::MemSysConfig;
use orchestrator::json::Value;
use orchestrator::pool::ThreadPool;
use pagetable::addr::PhysAddr;
use ptguard::mac::PteMac;
use ptguard::PtGuardConfig;
use ptguard_bench::harness::{black_box, effective_budget, measure, Measurement};
use ptguard_bench::sample_pte_line;
use qarma::pac::PacKey;
use qarma::{Qarma128, Qarma64, Sbox};
use simx::runner::{build_machine_from_source_cfg, Protection};
use workloads::profiles::by_name;
use workloads::tracegen::TraceGenerator;

/// ns/op of the pre-rewrite kernel (per-call `Vec` allocations, float
/// latency), measured on this suite at the commit before the flat-u64
/// rewrite. The denominators of every `speedup` entry.
const BASELINE_SOURCE: &str = "pre-rewrite Vec-based kernel @ commit 3e27963";
const BASELINE_NS: [(&str, f64); 8] = [
    ("qarma64_r5_encrypt", 987.0),
    ("qarma128_r9_encrypt", 1734.7),
    ("qarma128_r9_decrypt", 1776.9),
    ("mac_compute", 7466.5),
    ("mac_verify_exact", 8389.0),
    ("mac_verify_soft_k4", 7942.3),
    ("pac_sign", 1159.0),
    ("pac_auth", 1105.6),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench qarma|mac|memsys|channels|serve|arena|all [--out FILE] [--fast] [--jobs N] [--check FILE]\n\
         \x20 --out FILE    write the JSON report (default BENCH_qarma.json;\n\
         \x20               BENCH_memsys.json / BENCH_channels.json / BENCH_serve.json\n\
         \x20               / BENCH_arena.json for those targets)\n\
         \x20 --fast        ~10x shorter samples (smoke mode; also via PTGUARD_BENCH_FAST)\n\
         \x20 --jobs N      workers for the parallel pair-sweep timing (default: all cores)\n\
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

fn bench_qarma(rows: &mut Vec<Row>) {
    let budget = effective_budget();
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

    // Batch throughput: 8 blocks through the pairwise-interleaved path,
    // reported per block so it is directly comparable to the scalar row.
    let pairs: Vec<(u128, u128)> = (0..8u128).map(|i| (i * 0x1234_5677 + 1, i)).collect();
    let mut out = vec![0u128; pairs.len()];
    let n = pairs.len() as f64;
    let mut m = measure(budget, || {
        q128.encrypt_many(black_box(&pairs), &mut out);
        out[7]
    });
    m.median_ns /= n;
    m.lo_ns /= n;
    m.hi_ns /= n;
    report(rows, "qarma128_r9_encrypt_many_per_block", m);
}

fn bench_mac(rows: &mut Vec<Row>) {
    let budget = effective_budget();
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
    let n = items.len() as f64;
    let mut m = measure(budget, || mac.compute_batch(black_box(&items)));
    m.median_ns /= n;
    m.lo_ns /= n;
    m.hi_ns /= n;
    report(rows, "mac_compute_batch_per_line", m);

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
/// pure scaling measurement.
fn bench_sweep(jobs: usize, fast: bool) -> Value {
    let cfg = PtGuardConfig::default();
    let (lines, budget) = if fast { (2, 2_000) } else { (4, 20_000) };
    let seed = 0xbe0c_5eed;

    let t = Instant::now();
    let serial = ::oracle::macoracle::sweep(&cfg, seed, lines, budget);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;

    let pool = ThreadPool::new(jobs);
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
    Value::obj(vec![
        ("lines", Value::U64(lines as u64)),
        ("pair_budget_per_line", Value::U64(budget as u64)),
        ("serial_ms", Value::F64(serial_ms)),
        ("parallel_ms", Value::F64(parallel_ms)),
        ("jobs", Value::U64(pool.size() as u64)),
        ("speedup", Value::F64(serial_ms / parallel_ms.max(1e-9))),
    ])
}

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
    let baseline = Value::Obj(
        std::iter::once((
            "source".to_string(),
            Value::Str(BASELINE_SOURCE.to_string()),
        ))
        .chain(
            BASELINE_NS
                .iter()
                .map(|(k, v)| ((*k).to_string(), Value::F64(*v))),
        )
        .collect(),
    );
    let speedup = Value::Obj(
        rows.iter()
            .filter_map(|r| {
                let (_, base) = BASELINE_NS.iter().find(|(k, _)| *k == r.name)?;
                Some((
                    r.name.to_string(),
                    Value::F64(base / r.m.median_ns.max(1e-9)),
                ))
            })
            .collect(),
    );
    let mut pairs = vec![
        ("schema", Value::Str("ptguard-bench-qarma/v1".to_string())),
        ("fast", Value::Bool(fast)),
        ("results", results),
        ("baseline_pre_rewrite", baseline),
        ("speedup_vs_baseline", speedup),
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
        ("schema", Value::Str("ptguard-bench-serve/v1".to_string())),
        ("fast", Value::Bool(fast)),
        ("iters", Value::U64(iters as u64)),
        ("results", Value::Obj(sizes)),
    ])
}

/// The serve arm of the `--check` gate: the committed report must show the
/// drain scaling linearly in batch size (the SWAR kernel already
/// interleaves chunks within a line, so cross-line batching must not go
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
        let m = measure(effective_budget(), || {
            for _ in 0..ARENA_BLOCK {
                let row = dram::RowId {
                    bank: rng.gen_range_u64(0, u64::from(geom.banks)) as u32,
                    row: rng.gen_range_u64(0, u64::from(geom.rows_per_bank)) as u32,
                };
                mitigation.on_activate(row, &mut device);
            }
        });
        let ns_per_act = m.median_ns / ARENA_BLOCK as f64;
        println!(
            "arena_{name:<12} {ns_per_act:>8.1} ns/activation  ({refreshes} refreshes issued)",
            name = spec.name,
            refreshes = mitigation.refreshes_issued(),
        );
        results.push((
            spec.name.to_string(),
            Value::obj(vec![
                ("ns_per_activation", Value::F64(ns_per_act)),
                ("refreshes", Value::U64(mitigation.refreshes_issued())),
                (
                    "storage_bytes",
                    Value::U64(mitigation.storage_overhead_bytes()),
                ),
            ]),
        ));
    }
    Value::obj(vec![
        ("schema", Value::Str("ptguard-bench-arena/v1".to_string())),
        ("fast", Value::Bool(fast)),
        ("block", Value::U64(ARENA_BLOCK)),
        ("results", Value::Obj(results)),
    ])
}

/// The arena arm of the `--check` gate: every tracker must stay under a
/// microsecond per activation in the committed report (three orders of
/// magnitude of headroom — the trackers are hash-map updates), and a fresh
/// quick measurement of the heaviest committed tracker must be within 2×.
fn check_arena(committed: &Value) -> Result<(), String> {
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
    let fresh = bench_arena(true)
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

/// Profiles for the pipeline benchmark: the pointer-chaser with the
/// densest page-walk traffic (`sssp`), the paper's worst slowdown case
/// (`xalancbmk`), and a frontier-driven graph traversal (`bfs`) with a
/// sparser miss stream.
const MEMSYS_PROFILES: [&str; 3] = ["sssp", "xalancbmk", "bfs"];

/// One measured window size on one profile.
struct MemsysPoint {
    mode: &'static str,
    ns_per_sim_op: f64,
    sim_ipc: f64,
    sim_cycles: u64,
    mac_computations: u64,
    dram_reads: u64,
}

/// Measures every `(mode, mlp)` window on one profile: best-of-`reps`
/// host ns per simulated memory op, plus the (deterministic) simulated
/// metrics.
///
/// Reps are *interleaved* across modes — each sweep times every mode once,
/// back to back — so slow host drift (frequency scaling, background load)
/// biases all modes equally instead of whichever happened to run last;
/// best-of-sweeps then compares like with like.
fn memsys_profile(
    name: &str,
    modes: &[(&'static str, usize)],
    instrs: u64,
    reps: usize,
) -> Vec<MemsysPoint> {
    let p = by_name(name).expect("profile");
    let mut machines: Vec<_> = modes
        .iter()
        .map(|&(_, mlp)| {
            let mem_cfg = MemSysConfig {
                mlp,
                ..MemSysConfig::default()
            };
            let mut machine = build_machine_from_source_cfg(
                TraceGenerator::new(p, 0xbe2c),
                p,
                Protection::PtGuard(PtGuardConfig::default()),
                4,
                mem_cfg,
            );
            let _ = simx::runner::run(&mut machine, instrs); // warm-up: caches, TLB, page tables
            machine
        })
        .collect();
    let mut best = vec![f64::INFINITY; modes.len()];
    let mut last: Vec<Option<_>> = vec![None; modes.len()];
    for rep in 0..reps {
        // Rotate the starting mode each sweep so no mode systematically
        // inherits a particular position's thermal/steal-time bias.
        for k in 0..modes.len() {
            let i = (rep + k) % modes.len();
            let t = Instant::now();
            let r = simx::runner::run(&mut machines[i], instrs);
            let ns = t.elapsed().as_nanos() as f64;
            best[i] = best[i].min(ns / r.mem_ops.max(1) as f64);
            last[i] = Some(r);
        }
    }
    modes
        .iter()
        .zip(&machines)
        .zip(best)
        .zip(last)
        .map(|(((&(mode, _), machine), ns_per_sim_op), r)| {
            let r = r.expect("at least one rep");
            MemsysPoint {
                mode,
                ns_per_sim_op,
                sim_ipc: r.ipc(),
                sim_cycles: r.cycles,
                mac_computations: r.mac_computations,
                dram_reads: machine.sys.controller.stats().reads,
            }
        })
        .collect()
}

/// The memsys target: the event pipeline across the window sweep,
/// rendered as the `ptguard-bench-memsys/v2` report.
fn bench_memsys(fast: bool) -> Value {
    let (instrs, reps) = if fast { (20_000, 2) } else { (60_000, 25) };
    let modes = [("mlp1", 1), ("mlp2", 2), ("mlp4", 4)];
    let mut profiles = Vec::new();
    for name in MEMSYS_PROFILES {
        let points = memsys_profile(name, &modes, instrs, reps);
        for p in &points {
            println!(
                "{name:<12} {:<9} {:>8.1} host-ns/sim-op  IPC {:.3}  ({} MACs, {} DRAM reads)",
                p.mode, p.ns_per_sim_op, p.sim_ipc, p.mac_computations, p.dram_reads
            );
        }
        profiles.push((
            name.to_string(),
            Value::Obj(
                points
                    .into_iter()
                    .map(|p| {
                        (
                            p.mode.to_string(),
                            Value::obj(vec![
                                ("ns_per_sim_op", Value::F64(p.ns_per_sim_op)),
                                ("sim_ipc", Value::F64(p.sim_ipc)),
                                ("sim_cycles", Value::U64(p.sim_cycles)),
                                ("mac_computations", Value::U64(p.mac_computations)),
                                ("dram_reads", Value::U64(p.dram_reads)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Value::obj(vec![
        ("schema", Value::Str(MEMSYS_SCHEMA.to_string())),
        ("fast", Value::Bool(fast)),
        ("instructions", Value::U64(instrs)),
        ("reps", Value::U64(reps as u64)),
        ("profiles", Value::Obj(profiles)),
    ])
}

/// Schema tag of the `bench memsys` report.
const MEMSYS_SCHEMA: &str = "ptguard-bench-memsys/v2";

/// The memsys arm of the `--check` gate: a fresh quick `mlp1` measurement
/// must not have regressed more than 2× over the committed one.
fn check_memsys(committed: &Value) -> Result<(), String> {
    let profile = MEMSYS_PROFILES[0];
    let committed_ns = committed
        .get("profiles")
        .and_then(|p| p.get(profile))
        .and_then(|p| p.get("mlp1"))
        .and_then(|m| m.get("ns_per_sim_op"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("committed report lacks profiles.{profile}.mlp1"))?;
    let fresh = memsys_profile(profile, &[("mlp1", 1)], 20_000, 2).remove(0);
    println!(
        "check: {profile} mlp1 fresh {:.1} host-ns/sim-op vs committed {committed_ns:.1} (gate 2x)",
        fresh.ns_per_sim_op
    );
    if fresh.ns_per_sim_op > 2.0 * committed_ns {
        return Err(format!(
            "pipeline regressed: {:.1} host-ns/sim-op > 2x committed {committed_ns:.1}",
            fresh.ns_per_sim_op
        ));
    }
    Ok(())
}

/// Channel counts the channels target sweeps the pipelined driver at.
const CHANNELS_SWEEP: [usize; 3] = [1, 2, 4];

/// One measured channel count on one profile.
struct ChannelsPoint {
    channels: usize,
    ns_per_sim_op: f64,
    sim_cycles: u64,
    dram_reads: u64,
    /// min/max per-channel DRAM reads (1.0 = perfectly even interleave).
    balance: f64,
}

/// Measures the pipelined driver at every channel count on one profile:
/// best-of-`reps` host ns per simulated memory op, plus the deterministic
/// simulated metrics. Reps interleave across channel counts for the same
/// host-drift reason as [`memsys_profile`].
fn channels_profile(name: &str, instrs: u64, reps: usize) -> Vec<ChannelsPoint> {
    let p = by_name(name).expect("profile");
    let mut machines: Vec<_> = CHANNELS_SWEEP
        .iter()
        .map(|&channels| {
            let mem_cfg = MemSysConfig {
                mlp: 4,
                channels,
                ..MemSysConfig::default()
            };
            let mut machine = build_machine_from_source_cfg(
                TraceGenerator::new(p, 0xbe2c),
                p,
                Protection::PtGuard(PtGuardConfig::default()),
                4,
                mem_cfg,
            );
            let _ = simx::runner::run(&mut machine, instrs); // warm-up
            machine
        })
        .collect();
    let mut best = vec![f64::INFINITY; CHANNELS_SWEEP.len()];
    let mut last = vec![None; CHANNELS_SWEEP.len()];
    for rep in 0..reps {
        for k in 0..CHANNELS_SWEEP.len() {
            let i = (rep + k) % CHANNELS_SWEEP.len();
            let t = Instant::now();
            let r = simx::runner::run(&mut machines[i], instrs);
            let ns = t.elapsed().as_nanos() as f64;
            best[i] = best[i].min(ns / r.mem_ops.max(1) as f64);
            last[i] = Some(r);
        }
    }
    CHANNELS_SWEEP
        .iter()
        .zip(&machines)
        .zip(best)
        .zip(last)
        .map(|(((&channels, machine), ns_per_sim_op), r)| {
            let r = r.expect("at least one rep");
            let reads: Vec<u64> = (0..machine.sys.channels())
                .map(|c| machine.sys.channel(c).stats().reads)
                .collect();
            let max = reads.iter().copied().max().unwrap_or(0);
            let min = reads.iter().copied().min().unwrap_or(0);
            ChannelsPoint {
                channels,
                ns_per_sim_op,
                sim_cycles: r.cycles,
                dram_reads: reads.iter().sum(),
                balance: min as f64 / max.max(1) as f64,
            }
        })
        .collect()
}

/// The channels target: the multi-channel drain + retire-merge host cost
/// across the channel sweep, rendered as the `ptguard-bench-channels/v1`
/// report.
fn bench_channels(fast: bool) -> Value {
    let (instrs, reps) = if fast { (20_000, 2) } else { (60_000, 25) };
    let mut profiles = Vec::new();
    let mut merge_cost = Vec::new();
    for name in MEMSYS_PROFILES {
        let points = channels_profile(name, instrs, reps);
        for p in &points {
            println!(
                "{name:<12} ch{:<2} {:>8.1} host-ns/sim-op  ({} sim cycles, {} DRAM reads, balance {:.2})",
                p.channels, p.ns_per_sim_op, p.sim_cycles, p.dram_reads, p.balance
            );
        }
        let ns_of = |channels: usize| {
            points
                .iter()
                .find(|p| p.channels == channels)
                .expect("channel count measured")
                .ns_per_sim_op
        };
        merge_cost.push((name.to_string(), Value::F64(ns_of(4) / ns_of(1).max(1e-9))));
        profiles.push((
            name.to_string(),
            Value::Obj(
                points
                    .into_iter()
                    .map(|p| {
                        (
                            format!("ch{}", p.channels),
                            Value::obj(vec![
                                ("ns_per_sim_op", Value::F64(p.ns_per_sim_op)),
                                ("sim_cycles", Value::U64(p.sim_cycles)),
                                ("dram_reads", Value::U64(p.dram_reads)),
                                ("balance", Value::F64(p.balance)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Value::obj(vec![
        (
            "schema",
            Value::Str("ptguard-bench-channels/v1".to_string()),
        ),
        ("fast", Value::Bool(fast)),
        ("instructions", Value::U64(instrs)),
        ("reps", Value::U64(reps as u64)),
        ("profiles", Value::Obj(profiles)),
        ("host_ns_per_op_ch4_over_ch1", Value::Obj(merge_cost)),
    ])
}

/// The channels arm of the `--check` gate: the committed report must show
/// the 4-channel drain + merge costing less than 3× the single-channel
/// host time per op on every profile (the merge is O(channels) per pipe
/// step and must not dominate), the interleave staying reasonably even,
/// and a fresh quick measurement of the 4-channel point must be within 2×.
fn check_channels(committed: &Value) -> Result<(), String> {
    let field = |profile: &str, ch: &str, field: &str| {
        committed
            .get("profiles")
            .and_then(|p| p.get(profile))
            .and_then(|p| p.get(ch))
            .and_then(|m| m.get(field))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("committed report lacks profiles.{profile}.{ch}.{field}"))
    };
    for p in MEMSYS_PROFILES {
        let (ch1, ch4) = (
            field(p, "ch1", "ns_per_sim_op")?,
            field(p, "ch4", "ns_per_sim_op")?,
        );
        println!("check: {p} committed ch1 {ch1:.1} vs ch4 {ch4:.1} host-ns/sim-op");
        if ch4 >= 3.0 * ch1 {
            return Err(format!(
                "committed BENCH_channels shows the 4-channel merge dominating: \
                 {ch4:.1} ns >= 3x {ch1:.1} ns on {p}"
            ));
        }
        let balance = field(p, "ch4", "balance")?;
        if balance < 0.5 {
            return Err(format!(
                "committed BENCH_channels shows a skewed interleave on {p}: balance {balance:.2}"
            ));
        }
    }
    let committed_ns = field(MEMSYS_PROFILES[0], "ch4", "ns_per_sim_op")?;
    let fresh = channels_profile(MEMSYS_PROFILES[0], 20_000, 2)
        .into_iter()
        .find(|p| p.channels == 4)
        .expect("ch4 measured");
    println!(
        "check: {} ch4 fresh {:.1} host-ns/sim-op vs committed {committed_ns:.1} (gate 2x)",
        MEMSYS_PROFILES[0], fresh.ns_per_sim_op
    );
    if fresh.ns_per_sim_op > 2.0 * committed_ns {
        return Err(format!(
            "multi-channel pipeline regressed: {:.1} host-ns/sim-op > 2x committed {committed_ns:.1}",
            fresh.ns_per_sim_op
        ));
    }
    Ok(())
}

/// The `--check` gate: dispatch on the committed report's schema and
/// re-measure its anchor number against the 2× budget.
fn check(path: &PathBuf) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let committed = Value::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if committed.get("schema").and_then(Value::as_str) == Some(MEMSYS_SCHEMA) {
        return check_memsys(&committed);
    }
    if committed.get("schema").and_then(Value::as_str) == Some("ptguard-bench-channels/v1") {
        return check_channels(&committed);
    }
    if committed.get("schema").and_then(Value::as_str) == Some("ptguard-bench-serve/v1") {
        return check_serve(&committed);
    }
    if committed.get("schema").and_then(Value::as_str) == Some("ptguard-bench-arena/v1") {
        return check_arena(&committed);
    }
    let committed_ns = committed
        .get("results")
        .and_then(|r| r.get("mac_compute"))
        .and_then(|m| m.get("ns_per_op"))
        .and_then(Value::as_f64)
        .ok_or_else(|| "committed report lacks results.mac_compute.ns_per_op".to_string())?;

    let mac = PteMac::from_config(&PtGuardConfig::default());
    let line = sample_pte_line();
    let addr = PhysAddr::new(0x4000);
    let fresh = measure(effective_budget(), || mac.compute(black_box(&line), addr));
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

fn run(mut args: Vec<String>) -> Result<(), String> {
    let out_flag = take_flag(&mut args, "--out")?.map(PathBuf::from);
    let fast = take_switch(&mut args, "--fast");
    if fast {
        std::env::set_var("PTGUARD_BENCH_FAST", "1");
    }
    let fast = fast || std::env::var_os("PTGUARD_BENCH_FAST").is_some();
    let jobs = match take_flag(&mut args, "--jobs")? {
        Some(s) => s.parse().map_err(|_| format!("bad --jobs: {s}"))?,
        None => 0,
    };
    let check_path = take_flag(&mut args, "--check")?.map(PathBuf::from);

    if let Some(path) = check_path {
        if !args.is_empty() {
            return Err(format!("unexpected argument: {}", args[0]));
        }
        return check(&path);
    }

    let what = match args.len() {
        0 => "all".to_string(),
        1 => args.remove(0),
        _ => return Err(format!("unexpected argument: {}", args[1])),
    };
    // The memsys pipeline report lives in its own file: the QARMA numbers
    // and the pipeline numbers regenerate on different cadences.
    let default_out = match what.as_str() {
        "memsys" => "BENCH_memsys.json",
        "channels" => "BENCH_channels.json",
        "serve" => "BENCH_serve.json",
        "arena" => "BENCH_arena.json",
        _ => "BENCH_qarma.json",
    };
    let out = out_flag.unwrap_or_else(|| PathBuf::from(default_out));
    let mut rows = Vec::new();
    let report = match what.as_str() {
        "qarma" => {
            bench_qarma(&mut rows);
            render_report(&rows, None, fast)
        }
        "mac" => {
            bench_mac(&mut rows);
            let sweep = Some(bench_sweep(jobs, fast));
            render_report(&rows, sweep, fast)
        }
        "all" => {
            bench_qarma(&mut rows);
            bench_mac(&mut rows);
            let sweep = Some(bench_sweep(jobs, fast));
            render_report(&rows, sweep, fast)
        }
        "memsys" => bench_memsys(fast),
        "channels" => bench_channels(fast),
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
