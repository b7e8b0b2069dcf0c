//! The simulator workloads.
//!
//! One repeat builds the machine (page tables mapped through the cache
//! hierarchy, then flushed), warms it with one discarded `run` long enough
//! to fill the LLC, and then times `regions_per_repeat` consecutive `run`
//! calls of `region_instructions` each. Repeats of one seed must simulate
//! exactly the same thing; only host time may differ between them.
//!
//! The untraced path calls nothing but `build_machine_from_source_cfg`,
//! `run` and the public stats getters. The traced path drives the same
//! machine through the public event API (`pipe_issue_event`,
//! `pipe_drain_completed`, `advance_to_next_event`) with `run`'s
//! issue/retire discipline, and must reproduce `run` exactly.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use memsys::system::{AccessOutcome, IssueOutcome};
use memsys::MemSysConfig;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Machine, Protection, RunResult};
use workloads::tracegen::Op;
use workloads::tracegen::TraceGenerator;

use crate::config::SimParams;
use crate::isolated;
use crate::measure::{median, peak_rss_mb, Outcome};
use crate::spans::{SpanCost, SpanLog, NO_PARENT};

/// Repeats every untraced run makes, however short `--seconds` is, so
/// that repeat-to-repeat identity is always checked.
const MIN_REPEATS: usize = 2;
/// Untraced reference repeats inside a traced run.
const REFERENCE_REPEATS: usize = 3;

/// Per-channel read counter names (the configuration allows up to 8
/// channels).
const CHANNEL_READS: [&str; 8] = [
    "ch0.reads",
    "ch1.reads",
    "ch2.reads",
    "ch3.reads",
    "ch4.reads",
    "ch5.reads",
    "ch6.reads",
    "ch7.reads",
];

/// Cumulative simulator counters, by name.
type Counters = BTreeMap<&'static str, u64>;

fn build(p: &SimParams, seed: u64) -> Machine {
    build_machine_from_source_cfg(
        TraceGenerator::new(p.profile, seed),
        p.profile,
        Protection::PtGuard(PtGuardConfig::default()),
        p.dram_gb,
        MemSysConfig {
            mlp: p.mlp,
            channels: p.channels,
            ..MemSysConfig::default()
        },
    )
}

fn counters(m: &Machine) -> Counters {
    let sys = &m.sys;
    let s = sys.stats();
    let (l1d, l2, llc) = sys.cache_stats();
    let ctrl = sys.controller_stats_total();
    let pump = sys.pump_stats();
    let mut c = Counters::from([
        ("loads", s.loads),
        ("stores", s.stores),
        ("walks", s.walks),
        ("llc_demand_misses", s.llc_misses),
        ("llc_walk_misses", s.walk_llc_misses),
        ("integrity_faults", s.integrity_faults),
        ("mshr_hwm", s.mshr_hwm),
        ("tlb_misses", sys.tlb_stats().misses),
        ("mmu_misses", sys.mmu_stats().misses),
        ("l1d_misses", l1d.misses),
        ("l2_misses", l2.misses),
        ("llc_misses", llc.misses),
        ("llc_writebacks", llc.writebacks),
        ("reads", ctrl.reads),
        ("writes", ctrl.writes),
        ("pte_reads", ctrl.pte_reads),
        ("check_failures", ctrl.check_failures),
        ("mac_cycles_added", ctrl.mac_cycles_added),
        ("mac_batches", ctrl.mac_batch_hist.iter().sum()),
        ("queue_hwm", ctrl.queue_occupancy_hwm),
        ("posted", pump.events_posted),
        ("fired", pump.events_fired),
        ("cascades", pump.wheel_cascades),
        ("advances", pump.advances),
        ("completions", pump.bank_ready_events),
        ("refresh_slices", pump.refresh_events),
    ]);
    for (ch, reads) in CHANNEL_READS.iter().enumerate().take(sys.channels()) {
        let controller = sys.channel(ch);
        c.insert(reads, controller.stats().reads);
        let dram = controller.device().stats();
        *c.entry("row_hits").or_default() += dram.row_hits;
        *c.entry("row_misses").or_default() += dram.row_misses;
        if let Some(engine) = controller.engine() {
            let e = engine.stats();
            *c.entry("read_macs").or_default() += e.read_mac_computations;
            *c.entry("protected_writes").or_default() += e.protected_writes;
            *c.entry("engine_writes").or_default() += e.writes;
        }
    }
    c
}

/// Field-wise `after − before`; high-water marks keep their final value.
fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(&k, &v)| {
            let d = if k.ends_with("_hwm") {
                v
            } else {
                v - before.get(k).copied().unwrap_or(0)
            };
            (k, d)
        })
        .collect()
}

/// The simulated outputs of one `run` call that must repeat exactly.
fn run_key(r: &RunResult) -> [u64; 7] {
    [
        r.instructions,
        r.cycles,
        r.mem_ops,
        r.mac_computations,
        r.walks,
        r.integrity_faults,
        r.mpki.to_bits(),
    ]
}

/// One measured region: what one `run` call simulated and how long it
/// took.
struct Region {
    result: RunResult,
    /// Counter deltas over the region.
    delta: Counters,
    /// Cumulative counters at the region's end.
    after: Counters,
    region_ns: f64,
    /// Median virtual time the event pump skipped per advance, since the
    /// machine was built (a histogram cannot be differenced).
    idle_skip_p50_ps: f64,
}

impl Region {
    fn identity(&self) -> ([u64; 7], &Counters) {
        (run_key(&self.result), &self.delta)
    }
}

/// One repeat: the timed set-up, then its measured regions in order.
struct Repeat {
    setup_s: f64,
    regions: Vec<Region>,
}

/// Builds and warms a machine, then times `regions` consecutive `run`s.
fn untraced_repeat(p: &SimParams, seed: u64, regions: usize) -> Repeat {
    let t0 = Instant::now();
    let mut m = build(p, seed);
    let _ = run(&mut m, p.warmup_instructions);
    let setup_s = t0.elapsed().as_secs_f64();
    let regions = (0..regions)
        .map(|_| {
            let before = counters(&m);
            let t = Instant::now();
            let result = run(&mut m, p.region_instructions);
            let region_ns = t.elapsed().as_nanos() as f64;
            let after = counters(&m);
            Region {
                result,
                delta: delta(&after, &before),
                after,
                region_ns,
                idle_skip_p50_ps: idle_skip_p50_ps(&m),
            }
        })
        .collect();
    Repeat { setup_s, regions }
}

/// The output checks every measured region must pass.
fn check_region(out: &mut Outcome, r: &Region, mac_latency: u64) {
    let d = &r.delta;
    let faults = r.result.integrity_faults;
    out.check(faults == 0 && d["integrity_faults"] == 0, || {
        format!("{faults} integrity faults in a benign run")
    });
    out.check(d["check_failures"] == 0, || {
        format!("{} controller check failures", d["check_failures"])
    });
    let per_channel: u64 = CHANNEL_READS.iter().filter_map(|k| d.get(k)).sum();
    out.check(per_channel == d["reads"], || {
        format!(
            "per-channel reads sum to {per_channel}, controller total {}",
            d["reads"]
        )
    });
    out.check(
        d["mac_cycles_added"] == d["read_macs"] * mac_latency,
        || {
            format!(
                "mac_cycles_added {} != read MACs {} x {mac_latency}",
                d["mac_cycles_added"], d["read_macs"]
            )
        },
    );
    out.check(r.after["posted"] == r.after["fired"], || {
        format!(
            "wheel posted {} != fired {} after the run drained",
            r.after["posted"], r.after["fired"]
        )
    });
    out.check(d["loads"] + d["stores"] == r.result.mem_ops, || {
        format!(
            "loads+stores {} != memory ops {}",
            d["loads"] + d["stores"],
            r.result.mem_ops
        )
    });
}

fn mac_latency() -> u64 {
    u64::from(PtGuardConfig::default().mac_latency_cycles)
}

fn idle_skip_p50_ps(m: &Machine) -> f64 {
    m.sys.pump_stats().idle_skip_ps.percentile(50.0) as f64
}

/// The simulated counts per 1000 memory ops and the model outputs of a
/// region: identical in traced and untraced runs of a seed.
fn model_values(r: &Region) -> Vec<(&'static str, f64, &'static str)> {
    let d = &r.delta;
    let ops = r.result.mem_ops as f64;
    let instrs = r.result.instructions as f64;
    let per_k = |k: &str| 1000.0 * d[k] as f64 / ops;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let channel_reads: Vec<u64> = CHANNEL_READS
        .iter()
        .filter_map(|k| d.get(k).copied())
        .collect();
    let lo = channel_reads.iter().copied().min().unwrap_or(0);
    let hi = channel_reads.iter().copied().max().unwrap_or(0);
    vec![
        ("memsys.tlb.misses", per_k("tlb_misses"), "per_1k_ops"),
        ("memsys.mmu.misses", per_k("mmu_misses"), "per_1k_ops"),
        ("memsys.l1d.misses", per_k("l1d_misses"), "per_1k_ops"),
        ("memsys.l2.misses", per_k("l2_misses"), "per_1k_ops"),
        ("memsys.llc.misses", per_k("llc_misses"), "per_1k_ops"),
        (
            "memsys.llc.writebacks",
            per_k("llc_writebacks"),
            "per_1k_ops",
        ),
        ("memsys.walks", per_k("walks"), "per_1k_ops"),
        ("memsys.pump.calls", per_k("advances"), "per_1k_ops"),
        (
            "memsys.pump.completions_per_call",
            ratio(d["completions"], d["advances"]),
            "count",
        ),
        ("memsys.mshr.hwm", d["mshr_hwm"] as f64, "count"),
        ("memsys.ctrl.reads", per_k("reads"), "per_1k_ops"),
        ("memsys.ctrl.writes", per_k("writes"), "per_1k_ops"),
        ("memsys.ctrl.pte_reads", per_k("pte_reads"), "per_1k_ops"),
        ("memsys.ctrl.queue_hwm", d["queue_hwm"] as f64, "count"),
        (
            "memsys.ctrl.mac_batch.mean",
            ratio(d["read_macs"], d["mac_batches"]),
            "count",
        ),
        ("memsys.ctrl.balance", ratio(lo, hi), "ratio"),
        (
            "dram.row_hit_ratio",
            ratio(d["row_hits"], d["row_hits"] + d["row_misses"]),
            "ratio",
        ),
        ("dram.refresh_slices", per_k("refresh_slices"), "per_1k_ops"),
        ("sched.posted", per_k("posted"), "per_1k_ops"),
        ("sched.cascades", per_k("cascades"), "per_1k_ops"),
        ("sched.idle_skip_ps.p50", r.idle_skip_p50_ps, "ps"),
        ("ptguard.read_macs", per_k("read_macs"), "per_1k_ops"),
        (
            "ptguard.write_macs",
            per_k("protected_writes"),
            "per_1k_ops",
        ),
        ("sim.cycles", r.result.cycles as f64, "cycles"),
        ("sim.ipc", instrs / r.result.cycles.max(1) as f64, "ratio"),
        (
            "sim.mpki",
            1000.0 * (d["llc_demand_misses"] + d["llc_walk_misses"]) as f64 / instrs,
            "per_1k_instr",
        ),
    ]
}

/// The untraced run: repeats for `seconds`.
pub fn untraced(p: &SimParams, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup = Vec::new();
    let mut fastest_ns_per_op = f64::INFINITY;
    let mut first: Option<Repeat> = None;
    let mut repeats = 0usize;
    let mut last = Duration::ZERO;
    // Stop before a repeat that would end past the deadline.
    while repeats < MIN_REPEATS || Instant::now() + last <= deadline {
        let started = Instant::now();
        let rep = untraced_repeat(p, seed, p.regions_per_repeat);
        last = started.elapsed();
        for r in &rep.regions {
            check_region(&mut out, r, mac_latency());
            out.attempted += r.result.mem_ops;
            out.failed += r.result.integrity_faults;
            fastest_ns_per_op = fastest_ns_per_op.min(r.region_ns / r.result.mem_ops as f64);
        }
        setup.push(rep.setup_s);
        match &first {
            None => first = Some(rep),
            Some(f) => out.check(
                f.regions
                    .iter()
                    .map(Region::identity)
                    .eq(rep.regions.iter().map(Region::identity)),
                || format!("repeat {repeats} simulated different results for the same seed"),
            ),
        }
        repeats += 1;
    }
    // Interference from other tenants only ever adds time, and on a shared
    // host it comes in phases of seconds to minutes that no mean or
    // quantile over one run cancels, so the fastest region is the steadiest
    // estimate of the program's own cost.
    out.set("host_ns_per_op", fastest_ns_per_op);
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(
        "error_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    if let Some(r) = first.as_ref().and_then(|f| f.regions.first()) {
        for (name, value, unit) in model_values(r) {
            out.note(name, value, unit);
        }
    }
    eprintln!(
        "  {repeats} repeats of {} regions x {} instructions (counts and sim.* values: first region)",
        p.regions_per_repeat, p.region_instructions
    );
    out
}

// Span kinds of the traced loop.
const SPAN_NAMES: &[&str] = &[
    "simx.run",
    "workloads.next_op",
    "memsys.issue",
    "memsys.pump",
];
const RUN: u8 = 0;
const NEXT_OP: u8 = 1;
const ISSUE: u8 = 2;
const PUMP: u8 = 3;

/// Calls the traced loop counts beyond the spans themselves.
#[derive(Debug, Default)]
struct TraceCounts {
    issues: u64,
    done_at_issue: u64,
    pumps: u64,
}

/// `run`'s in-order window: one cycle per instruction, the whole latency
/// kept at retire, synchronous completions folded at issue.
struct Window {
    size: usize,
    clock: u64,
    finish_prev: u64,
    inflight: VecDeque<(u64, u64)>,
    outcomes: Vec<(u64, AccessOutcome)>,
}

impl Window {
    fn new(size: usize) -> Self {
        Self {
            size: size.max(1),
            clock: 0,
            finish_prev: 0,
            inflight: VecDeque::new(),
            outcomes: Vec::new(),
        }
    }

    fn fold(&mut self, t_issue: u64, cycles: u64) {
        let finish = (t_issue + cycles).max(self.finish_prev);
        self.finish_prev = finish;
        self.clock = self.clock.max(finish);
    }

    /// Retires the oldest in-flight op, pumping events until it completes.
    fn retire_one(
        &mut self,
        m: &mut Machine,
        log: &mut SpanLog,
        parent: u32,
        tc: &mut TraceCounts,
    ) {
        let (id, t_issue) = self.inflight.pop_front().expect("an op in flight");
        let out = loop {
            m.sys.pipe_drain_completed(&mut self.outcomes);
            if let Some(pos) = self.outcomes.iter().position(|(cid, _)| *cid == id) {
                break self.outcomes.swap_remove(pos).1;
            }
            let a = log.now();
            let progressed = m.sys.advance_to_next_event();
            let b = log.now();
            log.push(PUMP, a, b, parent, id as u32);
            tc.pumps += 1;
            assert!(progressed, "event pump stalled with op {id} in flight");
        };
        self.fold(t_issue, out.cycles());
    }
}

fn read_macs(m: &Machine) -> u64 {
    (0..m.sys.channels())
        .filter_map(|c| m.sys.channel(c).engine())
        .map(|e| e.stats().read_mac_computations)
        .sum()
}

/// `run(m, instructions)` re-enacted through the public event API with a
/// span around every `next_op`, issue and pump call.
fn traced_run(
    m: &mut Machine,
    instructions: u64,
    log: &mut SpanLog,
    tc: &mut TraceCounts,
) -> RunResult {
    let before = m.sys.stats();
    let macs_before = read_macs(m);
    let mut w = Window::new(m.sys.config().mlp);
    let mut mem_ops = 0u64;
    let run_span = log.open(RUN, log.now(), NO_PARENT, 0);
    for i in 0..instructions {
        w.clock += 1;
        let op_id = i as u32;
        let a = log.now();
        let op = m.source.next_op();
        let b = log.now();
        log.push(NEXT_OP, a, b, run_span, op_id);
        let (va, write) = match op {
            Op::Compute => continue,
            Op::Load(va) => (va, false),
            Op::Store(va) => (va, true),
        };
        mem_ops += 1;
        let a = log.now();
        let issued = m.sys.pipe_issue_event(va, write);
        let b = log.now();
        log.push(ISSUE, a, b, run_span, op_id);
        tc.issues += 1;
        match issued {
            IssueOutcome::Done(out) => {
                tc.done_at_issue += 1;
                w.fold(w.clock, out.cycles());
            }
            IssueOutcome::Pending(id) => {
                w.inflight.push_back((id, w.clock));
                while w.inflight.len() >= w.size {
                    w.retire_one(m, log, run_span, tc);
                }
            }
        }
    }
    while !w.inflight.is_empty() {
        w.retire_one(m, log, run_span, tc);
    }
    log.close(run_span, log.now());
    let after = m.sys.stats();
    let llc =
        (after.llc_misses + after.walk_llc_misses) - (before.llc_misses + before.walk_llc_misses);
    RunResult {
        instructions,
        cycles: w.clock.max(w.finish_prev),
        mpki: 1000.0 * llc as f64 / instructions as f64,
        walks: after.walks - before.walks,
        integrity_faults: after.integrity_faults - before.integrity_faults,
        mac_computations: read_macs(m) - macs_before,
        mem_ops,
    }
}

/// The traced run: untraced reference repeats of the first region, one
/// traced first region that must reproduce them, then the isolated costs
/// and the cost table.
pub fn traced(p: &SimParams, seed: u64, span_file: &Path) -> Outcome {
    let mut out = Outcome::default();
    // The first region of a repeat, untraced, as the reference.
    let reference: Vec<Region> = (0..REFERENCE_REPEATS)
        .filter_map(|_| untraced_repeat(p, seed, 1).regions.pop())
        .collect();
    let untraced_ns = median(&reference.iter().map(|r| r.region_ns).collect::<Vec<_>>());
    let want = &reference[0];
    for r in &reference {
        check_region(&mut out, r, mac_latency());
        out.check(r.identity() == want.identity(), || {
            "untraced repeats of one seed simulated different results".to_string()
        });
    }

    // The traced repeat: same build, same warm-up, same region.
    let mut m = build(p, seed);
    let _ = run(&mut m, p.warmup_instructions);
    let before = counters(&m);
    let mut log = SpanLog::new(SPAN_NAMES, (p.region_instructions as f64 * 1.6) as usize);
    let mut tc = TraceCounts::default();
    let result = traced_run(&mut m, p.region_instructions, &mut log, &mut tc);
    let after = counters(&m);
    let traced_region = Region {
        result,
        delta: delta(&after, &before),
        after,
        region_ns: 0.0,
        idle_skip_p50_ps: idle_skip_p50_ps(&m),
    };
    check_region(&mut out, &traced_region, mac_latency());
    let (t, u) = (&traced_region.result, &want.result);
    out.check(
        t.cycles == u.cycles && t.mem_ops == u.mem_ops && t.mac_computations == u.mac_computations,
        || {
            format!(
                "traced run does not reproduce run: cycles {} vs {}, mem_ops {} vs {}, MACs {} vs {}",
                t.cycles, u.cycles, t.mem_ops, u.mem_ops, t.mac_computations, u.mac_computations
            )
        },
    );
    out.check(traced_region.identity() == want.identity(), || {
        "traced counters differ from the untraced run's".to_string()
    });
    out.check(tc.pumps == traced_region.delta["advances"], || {
        format!(
            "pump calls {} != advances {}",
            tc.pumps, traced_region.delta["advances"]
        )
    });
    out.attempted = traced_region.result.mem_ops;
    out.failed = traced_region.result.integrity_faults;
    if let Err(e) = log.write_tsv(span_file) {
        out.problems
            .push(format!("writing {}: {e}", span_file.display()));
    }

    let span = SpanCost::calibrate();
    let costs = isolated::measure();
    let next_op_iso = isolated::next_op_ns(p.profile, seed);
    let totals = log.totals();
    let root_ns = totals[RUN as usize].total_ns;
    // Mean ns per call of a layer, less the clock time an empty span reads.
    let per_call = |k: u8| {
        let t = totals[k as usize];
        (t.total_ns / t.count.max(1) as f64 - span.inside_ns).max(0.0)
    };
    let layer_ns = |k: u8| totals[k as usize].count as f64 * per_call(k);

    let d = &traced_region.delta;
    let ops = traced_region.result.mem_ops as f64;
    let instrs = traced_region.result.instructions as f64;
    // The driver's self time: the `simx.run` span minus its children and
    // minus the clock reads the children cost outside themselves.
    let children = [NEXT_OP, ISSUE, PUMP].map(|k| totals[k as usize]);
    let driver_self = root_ns
        - children.iter().map(|t| t.total_ns).sum::<f64>()
        - children.iter().map(|t| t.count).sum::<u64>() as f64 * span.outside_ns;
    out.set("workloads.next_op.ns", per_call(NEXT_OP));
    out.set("simx.driver.self_ns_per_op", driver_self / ops);
    out.set("memsys.issue.ns", per_call(ISSUE));
    out.set(
        "memsys.issue.done_ratio",
        tc.done_at_issue as f64 / tc.issues.max(1) as f64,
    );
    out.set("memsys.pump.ns", per_call(PUMP));
    for (name, value, _) in model_values(&traced_region) {
        out.set(name, value);
    }
    let mac_batch = d["read_macs"] as f64 / d["mac_batches"].max(1) as f64;
    costs.record(&mut out);
    out.set(
        "tracing.overhead_pct",
        100.0 * (root_ns - untraced_ns) / untraced_ns,
    );

    // The cost table: deterministic counts times isolated per-call costs,
    // against the untraced region time. The remainder is what no isolated
    // cost covers: the issue path, the controller drain and the driver.
    let rows = [
        ("workloads.next_op", instrs, next_op_iso),
        (
            "ptguard.mac lines at the mean batch",
            d["read_macs"] as f64,
            costs.mac_per_line_at(mac_batch),
        ),
        (
            "ptguard.process_write",
            d["engine_writes"] as f64,
            costs.write,
        ),
        ("sched post+pop", d["posted"] as f64, costs.post_pop),
    ];
    let explained: f64 = rows.iter().map(|(_, n, c)| n * c).sum();
    let residual = 100.0 * (untraced_ns - explained) / untraced_ns;
    out.set("profile.residual_pct", residual);
    // Layer shares of the traced run with the clock overhead removed, so
    // the traced rows and the driver sum to 100 %.
    let traced_ns = layer_ns(NEXT_OP) + layer_ns(ISSUE) + layer_ns(PUMP) + driver_self;
    eprintln!(
        "  traced layers ({:.1} ns clock overhead inside and {:.1} ns outside each span removed; {:.3} ms left of {:.3} ms traced):",
        span.inside_ns,
        span.outside_ns,
        traced_ns / 1e6,
        root_ns / 1e6
    );
    for (name, k) in [
        ("workloads.next_op", NEXT_OP),
        ("memsys.issue", ISSUE),
        ("memsys.pump", PUMP),
    ] {
        eprintln!(
            "    {name:<38} {:>10} calls x {:>8.1} ns = {:>5.1} %",
            totals[k as usize].count,
            per_call(k),
            100.0 * layer_ns(k) / traced_ns
        );
    }
    eprintln!(
        "    {:<38} {:>5.1} %",
        "simx.driver (self)",
        100.0 * driver_self / traced_ns
    );
    eprintln!(
        "  cost table (counts x isolated per-call costs, of the untraced region's {:.3} ms):",
        untraced_ns / 1e6
    );
    for (name, n, c) in rows {
        eprintln!(
            "    {name:<38} {n:>10.0} x {c:>8.1} ns = {:>5.1} %",
            100.0 * n * c / untraced_ns
        );
    }
    eprintln!("    unexplained by isolated costs: {residual:.1} %");
    eprintln!("  {} spans written to {}", log.len(), span_file.display());
    out
}
