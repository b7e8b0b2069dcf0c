//! The event-pipeline overlap artefact: PT-Guard under memory-level
//! parallelism.
//!
//! The paper's timing model is fully blocking — every miss serialises the
//! core. The pipelined memory system (MSHR file, FR-FCFS controller read
//! queues, batched MAC verification) keeps `mlp` operations in flight; this
//! artefact sweeps the window over MAC-heavy profiles and reports how much
//! of the PT-Guard latency bank-level overlap hides, alongside the
//! pipeline's observability counters (queue/MSHR high-water marks, MAC
//! batch sizes, row locality). Every counter except the two high-water
//! marks covers the measured region only. `mlp = 1` is pinned
//! byte-identical to the blocking model, so the sweep's first column
//! doubles as a regression anchor.

use memsys::controller::MAC_BATCH_BUCKETS;
use memsys::system::PumpStats;
use memsys::MemSysConfig;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Protection};
use workloads::profiles::by_name;
use workloads::tracegen::TraceGenerator;

use crate::report::Table;
use crate::Scale;

/// Windows swept (1 = the blocking-identical baseline).
pub const WINDOWS: [usize; 3] = [1, 2, 4];

/// MAC-heavy profiles: walk-bound pointer-chasers and streaming workloads
/// where PTE verification traffic is densest.
pub const WORKLOADS: [&str; 4] = ["sssp", "xalancbmk", "mcf", "lbm"];

/// One `(workload, window)` measurement.
#[derive(Debug, Clone)]
pub struct MlpRow {
    /// Workload name.
    pub name: String,
    /// Window size.
    pub mlp: usize,
    /// Measured-region cycles.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Speedup over the same workload at `mlp = 1`.
    pub speedup: f64,
    /// Controller read-queue occupancy high-water mark over the machine's
    /// whole run.
    pub queue_hwm: u64,
    /// MSHR file high-water mark over the machine's whole run.
    pub mshr_hwm: u64,
    /// DRAM row-buffer hit fraction over all banks.
    pub row_hit_rate: f64,
    /// MAC verification batch-size histogram
    /// (buckets: 1, 2, 3–4, 5–8, 9–16, >16).
    pub mac_batches: [u64; MAC_BATCH_BUCKETS],
    /// Events accepted by the scheduler (one drain arm per channel with
    /// outstanding reads; completions ride the drain).
    pub events_posted: u64,
    /// Events fired by the pump.
    pub events_fired: u64,
    /// Mean virtual time skipped per pump advance, in picoseconds — the
    /// idle gap the event wheel jumps instead of polling through.
    pub idle_skip_mean_ps: f64,
}

/// Runs the sweep, with a sweep seed mixed into every workload's RNG
/// stream.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> Vec<MlpRow> {
    let instrs = scale.instructions();
    let mut rows = Vec::new();
    for (i, name) in WORKLOADS.iter().enumerate() {
        let p = by_name(name).expect("profile");
        let seed = crate::salted(0x317 + i as u64, sweep_seed);
        let mut base_cycles = 0u64;
        for &mlp in &WINDOWS {
            let mem_cfg = MemSysConfig {
                mlp,
                ..MemSysConfig::default()
            };
            let mut machine = build_machine_from_source_cfg(
                TraceGenerator::new(p, seed),
                p,
                Protection::PtGuard(PtGuardConfig::default()),
                4,
                mem_cfg,
            );
            let _ = run(&mut machine, instrs); // warm-up, discarded
            let pump = machine.sys.pump_stats();
            let dram = machine.sys.channel(0).device().stats();
            let (hits, misses) = (dram.row_hits, dram.row_misses);
            let batches = machine.sys.channel(0).stats().mac_batch_hist;
            let r = run(&mut machine, instrs);
            if mlp == 1 {
                base_cycles = r.cycles;
            }
            let pump = PumpRegion::between(&pump, &machine.sys.pump_stats());
            let dram = machine.sys.channel(0).device().stats();
            let (hits, misses) = (dram.row_hits - hits, dram.row_misses - misses);
            let cstats = machine.sys.channel(0).stats();
            rows.push(MlpRow {
                name: (*name).to_string(),
                mlp,
                cycles: r.cycles,
                ipc: r.ipc(),
                speedup: base_cycles as f64 / r.cycles as f64,
                queue_hwm: cstats.queue_occupancy_hwm,
                mshr_hwm: machine.sys.stats().mshr_hwm,
                row_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
                mac_batches: std::array::from_fn(|i| cstats.mac_batch_hist[i] - batches[i]),
                events_posted: pump.posted,
                events_fired: pump.fired,
                idle_skip_mean_ps: pump.idle_skip_mean_ps,
            });
        }
    }
    rows
}

/// The event pump's counters over a measured region, from its stats
/// before and after the region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PumpRegion {
    /// Events accepted by the scheduler.
    pub posted: u64,
    /// Events fired.
    pub fired: u64,
    /// Mean virtual time skipped per pump advance, in ps (0 with none).
    pub idle_skip_mean_ps: f64,
}

impl PumpRegion {
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn between(before: &PumpStats, after: &PumpStats) -> Self {
        let advances = after.idle_skip_ps.count() - before.idle_skip_ps.count();
        let skipped_ps = after.idle_skip_ps.sum() - before.idle_skip_ps.sum();
        Self {
            posted: after.events_posted - before.events_posted,
            fired: after.events_fired - before.events_fired,
            idle_skip_mean_ps: if advances == 0 {
                0.0
            } else {
                skipped_ps as f64 / advances as f64
            },
        }
    }
}

/// Renders the sweep.
#[must_use]
pub fn render(rows: &[MlpRow]) -> String {
    let mut t = Table::new(vec![
        "workload",
        "mlp",
        "cycles",
        "IPC",
        "speedup",
        "queue",
        "MSHR",
        "row-hit",
        "events p/f",
        "idle-skip",
        "MAC batches (1 / 2 / 3-4 / 5-8 / 9-16 / >16)",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.mlp.to_string(),
            r.cycles.to_string(),
            format!("{:.3}", r.ipc),
            format!("{:.3}x", r.speedup),
            r.queue_hwm.to_string(),
            r.mshr_hwm.to_string(),
            format!("{:.1}%", 100.0 * r.row_hit_rate),
            format!("{}/{}", r.events_posted, r.events_fired),
            format!("{:.1} ns", r.idle_skip_mean_ps / 1000.0),
            r.mac_batches.map(|c| c.to_string()).join(" / "),
        ]);
    }
    format!(
        "Event pipeline: PT-Guard under memory-level parallelism\n{}\nmlp=1 is pinned byte-identical to the blocking model; larger windows\noverlap misses across banks and batch MAC verification per drain.\nevents p/f = wheel posts/fires; idle-skip = mean virtual time\njumped per pump advance instead of being polled through.\nqueue and MSHR are high-water marks over the run (page-table build,\nflush, warm-up and region); every other column covers the region.\n",
        t.render()
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use workloads::WorkloadProfile;

    #[test]
    fn sweep_is_deterministic_and_overlap_helps() {
        let a = run_seeded(Scale::Trial, 0);
        let b = run_seeded(Scale::Trial, 0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cycles, y.cycles, "{}@{}", x.name, x.mlp);
            assert_eq!(x.mac_batches, y.mac_batches);
        }
        for r in &a {
            assert!(
                r.speedup >= 1.0,
                "{}@{}: overlap cannot slow down ({}x)",
                r.name,
                r.mlp,
                r.speedup
            );
            if r.mlp > 1 {
                assert!(r.queue_hwm >= 1);
                assert!(r.mshr_hwm >= 1);
            }
            // Event-engine counters: every row goes through the pump (the
            // event path drives mlp=1 too), and a wheel never fires more
            // than it accepted.
            assert!(r.events_fired > 0, "{}@{}: pump never fired", r.name, r.mlp);
            assert!(r.events_posted >= r.events_fired);
            assert!(r.idle_skip_mean_ps >= 0.0);
        }
        // At least one MAC-heavy profile must actually batch at mlp=4.
        assert!(
            a.iter()
                .any(|r| r.mlp == 4 && r.mac_batches[1..].iter().sum::<u64>() > 0),
            "no multi-MAC batch observed at mlp=4"
        );
    }

    /// Events the pump fires over the measured region of `p`'s guarded
    /// machine, counted around the measured run alone.
    pub(crate) fn region_events_fired(p: WorkloadProfile, seed: u64, cfg: MemSysConfig) -> u64 {
        let guard = Protection::PtGuard(PtGuardConfig::default());
        let mut machine =
            build_machine_from_source_cfg(TraceGenerator::new(p, seed), p, guard, 4, cfg);
        let instrs = Scale::Trial.instructions();
        let _ = run(&mut machine, instrs);
        let before = machine.sys.pump_stats().events_fired;
        let _ = run(&mut machine, instrs);
        machine.sys.pump_stats().events_fired - before
    }

    #[test]
    fn pump_counters_cover_the_measured_region_only() {
        // The page-table build, flush and warm-up fire events too; sssp's
        // mlp-1 row must count its measured region's alone.
        let row = &run_seeded(Scale::Trial, 0)[0];
        assert_eq!((row.name.as_str(), row.mlp), (WORKLOADS[0], 1));
        let p = by_name(WORKLOADS[0]).expect("profile");
        let seed = crate::salted(0x317, 0);
        let fired = region_events_fired(p, seed, MemSysConfig::default());
        assert_eq!(row.events_fired, fired);
    }
}
