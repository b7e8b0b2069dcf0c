//! The multi-channel memory-system artefact.
//!
//! The paper's timing model is single-channel; real DDR4 parts expose 1–4
//! channels whose controllers drain independently. This artefact sweeps
//! channel count × window over every workload profile and reports how much
//! of the memory time channel-level parallelism recovers, how evenly the
//! XOR-folded interleave spreads each profile's line stream, and — in a
//! separate 4-core shared-system scenario — how extra channels relieve the
//! bandwidth contention that MAC verification traffic rides on.
//!
//! `channels = 1` is pinned byte-identical to the single-controller model
//! (the same pinned totals as `tests/controller_cycles.rs`), so the sweep's
//! first column doubles as a regression anchor. Output is byte-identical
//! for any `--jobs` value: cells shard over the pool and merge by index.

use memsys::MemSysConfig;
use orchestrator::ThreadPool;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Protection};
use simx::shared::{SharedConfig, SharedSystem};
use workloads::multiprog::same_bundles;
use workloads::profiles::ALL_WORKLOADS;
use workloads::tracegen::TraceGenerator;

use crate::report::Table;
use crate::Scale;

/// Channel counts swept (1 = the pinned single-controller baseline).
pub const CHANNELS: [usize; 3] = [1, 2, 4];

/// Windows swept per channel count (1 = blocking-identical issue).
pub const WINDOWS: [usize; 2] = [1, 4];

/// One `(workload, window)` measurement across every channel count.
#[derive(Debug, Clone)]
pub struct ChannelRow {
    /// Workload name.
    pub name: String,
    /// Window size.
    pub mlp: usize,
    /// Measured-region cycles per entry of [`CHANNELS`].
    pub cycles: [u64; CHANNELS.len()],
    /// Speedup over the single-channel run, per entry of [`CHANNELS`].
    pub speedup: [f64; CHANNELS.len()],
    /// Interleave balance at the widest channel count: min/max per-channel
    /// DRAM reads (1.0 = perfectly even).
    pub balance: f64,
    /// MAC verification cycles added, summed over channels, per entry of
    /// [`CHANNELS`] — reconciles against the single-channel total.
    pub mac_cycles: [u64; CHANNELS.len()],
    /// Events fired by the pump, per entry of [`CHANNELS`].
    pub events_fired: [u64; CHANNELS.len()],
    /// Mean virtual time skipped per pump advance in ps, per entry of
    /// [`CHANNELS`].
    pub idle_skip_mean_ps: [f64; CHANNELS.len()],
}

/// One channel count of the 4-core shared-system contention scenario.
#[derive(Debug, Clone, Copy)]
pub struct ContentionRow {
    /// Channel count.
    pub channels: usize,
    /// Slowest core's measured cycles, unprotected.
    pub base_cycles: u64,
    /// Slowest core's measured cycles under PT-Guard.
    pub guard_cycles: u64,
    /// PT-Guard slowdown at this channel count.
    pub slowdown: f64,
    /// Fraction of baseline DRAM requests that queued at their channel.
    pub queued_frac: f64,
}

/// The full artefact result.
#[derive(Debug, Clone)]
pub struct ChannelsResult {
    /// The workload sweep, in `ALL_WORKLOADS × WINDOWS` order.
    pub rows: Vec<ChannelRow>,
    /// The shared-system contention scenario, in [`CHANNELS`] order.
    pub contention: Vec<ContentionRow>,
    /// Instructions per core used by the contention scenario.
    pub contention_instrs: u64,
}

impl ChannelsResult {
    /// Deterministic simulated-op volume of the whole artefact.
    #[must_use]
    pub fn sim_ops(&self, instrs: u64) -> u64 {
        let sweep = self.rows.len() as u64 * CHANNELS.len() as u64 * 2 * instrs;
        let shared = self.contention.len() as u64 * 2 * 4 * 2 * self.contention_instrs;
        sweep + shared
    }
}

/// Runs the sweep with a sweep seed and an inner worker count. Output is
/// byte-identical for every `jobs` value: each `(workload, window)` cell is
/// an independent deterministic job and results merge in index order.
#[must_use]
pub fn run_seeded_jobs(scale: Scale, sweep_seed: u64, jobs: usize) -> ChannelsResult {
    let all: Vec<usize> = (0..ALL_WORKLOADS.len()).collect();
    let rows = sweep_rows(scale, sweep_seed, jobs, &all);
    let contention_instrs = (scale.instructions() / 4).max(1_000);
    let contention = contention_sweep(contention_instrs);
    ChannelsResult {
        rows,
        contention,
        contention_instrs,
    }
}

/// The workload sweep over an explicit profile-index subset (tests use a
/// slice; the artefact uses all 25).
#[allow(clippy::cast_precision_loss)]
fn sweep_rows(scale: Scale, sweep_seed: u64, jobs: usize, workloads: &[usize]) -> Vec<ChannelRow> {
    let instrs = scale.instructions();
    let cells: Vec<(usize, usize)> = workloads
        .iter()
        .flat_map(|&w| (0..WINDOWS.len()).map(move |m| (w, m)))
        .collect();
    let n = cells.len();
    let cell = move |idx: usize| -> ChannelRow {
        let (wi, mi) = cells[idx];
        let p = ALL_WORKLOADS[wi];
        let mlp = WINDOWS[mi];
        let seed = crate::salted(0xc4a + wi as u64, sweep_seed);
        let mut cycles = [0u64; CHANNELS.len()];
        let mut mac_cycles = [0u64; CHANNELS.len()];
        let mut events_fired = [0u64; CHANNELS.len()];
        let mut idle_skip_mean_ps = [0.0f64; CHANNELS.len()];
        let mut balance = 1.0f64;
        for (ci, &channels) in CHANNELS.iter().enumerate() {
            let mem_cfg = MemSysConfig {
                mlp,
                channels,
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
            let r = run(&mut machine, instrs);
            cycles[ci] = r.cycles;
            let pump = machine.sys.pump_stats();
            events_fired[ci] = pump.events_fired;
            idle_skip_mean_ps[ci] = pump.idle_skip_ps.mean();
            mac_cycles[ci] = (0..machine.sys.channels())
                .map(|c| machine.sys.channel(c).stats().mac_cycles_added)
                .sum();
            if channels == *CHANNELS.last().unwrap() {
                let reads: Vec<u64> = (0..machine.sys.channels())
                    .map(|c| machine.sys.channel(c).stats().reads)
                    .collect();
                let max = reads.iter().copied().max().unwrap_or(0);
                let min = reads.iter().copied().min().unwrap_or(0);
                balance = min as f64 / max.max(1) as f64;
            }
        }
        ChannelRow {
            name: p.name.to_string(),
            mlp,
            cycles,
            speedup: cycles.map(|c| cycles[0] as f64 / c.max(1) as f64),
            balance,
            mac_cycles,
            events_fired,
            idle_skip_mean_ps,
        }
    };
    ThreadPool::new(jobs).map_indexed(n, cell)
}

/// The MAC-verification bandwidth-contention scenario: four cores running
/// the memory-bound SAME-lbm bundle through one shared system, baseline vs
/// PT-Guard, at each channel count. MAC traffic competes with demand
/// traffic for the channels; spreading lines must shrink both the queueing
/// fraction and the residual MAC slowdown.
#[allow(clippy::cast_precision_loss)]
fn contention_sweep(instructions_per_core: u64) -> Vec<ContentionRow> {
    let bundles = same_bundles(4);
    let lbm = bundles
        .iter()
        .find(|b| b.name == "SAME-lbm")
        .expect("SAME-lbm bundle");
    CHANNELS
        .iter()
        .map(|&channels| {
            let cfg = SharedConfig {
                channels,
                instructions_per_core,
            };
            let mut base_sys = SharedSystem::new(lbm, None, cfg);
            let base = *base_sys.run().iter().max().expect("cores");
            let queued_frac =
                base_sys.queued_requests as f64 / base_sys.dram_requests.max(1) as f64;
            let guard = *SharedSystem::new(lbm, Some(PtGuardConfig::default()), cfg)
                .run()
                .iter()
                .max()
                .expect("cores");
            ContentionRow {
                channels,
                base_cycles: base,
                guard_cycles: guard,
                slowdown: guard as f64 / base.max(1) as f64 - 1.0,
                queued_frac,
            }
        })
        .collect()
}

/// Renders the artefact.
#[must_use]
pub fn render(r: &ChannelsResult) -> String {
    let mut t = Table::new(vec![
        "workload",
        "mlp",
        "cycles@1ch",
        "cycles@2ch",
        "cycles@4ch",
        "speedup@2",
        "speedup@4",
        "balance@4",
        "events@4",
        "idle-skip@4",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            row.mlp.to_string(),
            row.cycles[0].to_string(),
            row.cycles[1].to_string(),
            row.cycles[2].to_string(),
            format!("{:.3}x", row.speedup[1]),
            format!("{:.3}x", row.speedup[2]),
            format!("{:.2}", row.balance),
            row.events_fired[2].to_string(),
            format!("{:.1} ns", row.idle_skip_mean_ps[2] / 1000.0),
        ]);
    }
    let mut c = Table::new(vec![
        "channels",
        "base cycles",
        "guard cycles",
        "slowdown",
        "queued",
    ]);
    for row in &r.contention {
        c.row(vec![
            row.channels.to_string(),
            row.base_cycles.to_string(),
            row.guard_cycles.to_string(),
            format!("{:+.2}%", 100.0 * row.slowdown),
            format!("{:.1}%", 100.0 * row.queued_frac),
        ]);
    }
    format!(
        "Multi-channel memory system: channel-level parallelism under PT-Guard\n{}\nchannels=1 is pinned byte-identical to the single-controller model;\nwider systems spread lines with the XOR-folded interleave and drain\nper-channel controllers merged in integer-picosecond retire order.\nevents@4 / idle-skip@4 report the event pump at the widest channel\ncount: drains fired and mean virtual time jumped per advance.\n\nMAC bandwidth contention (4-core SAME-lbm, {} instrs/core):\n{}",
        t.render(),
        r.contention_instrs,
        c.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_worker_invariant() {
        // A subset keeps the debug-mode test fast; the CI smoke job runs
        // the full 25-profile artefact at jobs 1 vs 8 in release.
        let subset = [1usize, 13]; // mcf (pointer chaser), lbm (streaming)
        let a = sweep_rows(Scale::Trial, 0, 1, &subset);
        let b = sweep_rows(Scale::Trial, 0, 4, &subset);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cycles, y.cycles, "{}@{}", x.name, x.mlp);
            assert_eq!(x.mac_cycles, y.mac_cycles);
        }
        for row in &a {
            // A serial core gains no latency from channel parallelism and
            // pays extra row opens for split streams; the effect stays
            // bounded either way.
            for s in &row.speedup[1..] {
                assert!(
                    (0.8..1.1).contains(s),
                    "{}@{}: channel speedup out of range ({s}x)",
                    row.name,
                    row.mlp
                );
            }
            assert!(row.balance > 0.5, "{}: skewed interleave", row.name);
            for (ci, &fired) in row.events_fired.iter().enumerate() {
                assert!(
                    fired > 0,
                    "{}@{}: pump never fired at ci={ci}",
                    row.name,
                    row.mlp
                );
            }
        }
    }

    #[test]
    fn contention_relaxes_with_channel_count() {
        let rows = contention_sweep(10_000);
        assert_eq!(rows.len(), CHANNELS.len());
        let q: Vec<f64> = rows.iter().map(|c| c.queued_frac).collect();
        assert!(q[2] < q[0], "4 channels must queue less than 1: {q:?}");
        for c in &rows {
            assert!(
                c.slowdown > -0.01 && c.slowdown < 0.1,
                "contention slowdown out of range at {} channels: {}",
                c.channels,
                c.slowdown
            );
        }
    }
}
