//! The multi-channel memory-system artefact.
//!
//! The paper's timing model is single-channel; real DDR4 parts expose 1–4
//! channels whose controllers drain independently. This artefact sweeps
//! channel count × window over every workload profile and reports how much
//! of the memory time channel-level parallelism recovers and how evenly the
//! XOR-folded interleave spreads each profile's line stream.
//!
//! `channels = 1` is pinned byte-identical to the single-controller model
//! (the same pinned totals as `tests/controller_cycles.rs`), so the sweep's
//! first column doubles as a regression anchor. Output is byte-identical
//! for any `--jobs` value: cells shard over the pool and merge by index.

use memsys::system::MemorySystem;
use memsys::MemSysConfig;
use orchestrator::ThreadPool;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Protection};
use workloads::profiles::ALL_WORKLOADS;
use workloads::tracegen::TraceGenerator;

use crate::mlp::PumpRegion;
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
    /// DRAM reads over the measured region (1.0 = perfectly even).
    pub balance: f64,
    /// Events fired by the pump over the measured region, per entry of
    /// [`CHANNELS`].
    pub events_fired: [u64; CHANNELS.len()],
    /// Mean virtual time skipped per pump advance over the measured region
    /// in ps, per entry of [`CHANNELS`].
    pub idle_skip_mean_ps: [f64; CHANNELS.len()],
}

/// The full artefact result.
#[derive(Debug, Clone)]
pub struct ChannelsResult {
    /// The workload sweep, in `ALL_WORKLOADS × WINDOWS` order.
    pub rows: Vec<ChannelRow>,
}

/// Runs the sweep with a sweep seed and an inner worker count. Output is
/// byte-identical for every `jobs` value: each `(workload, window)` cell is
/// an independent deterministic job and results merge in index order.
#[must_use]
pub fn run_seeded_jobs(scale: Scale, sweep_seed: u64, jobs: usize) -> ChannelsResult {
    let all: Vec<usize> = (0..ALL_WORKLOADS.len()).collect();
    ChannelsResult {
        rows: sweep_rows(scale, sweep_seed, jobs, &all),
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
            let (pump, reads) = (machine.sys.pump_stats(), channel_reads(&machine.sys));
            let r = run(&mut machine, instrs);
            cycles[ci] = r.cycles;
            let pump = PumpRegion::between(&pump, &machine.sys.pump_stats());
            events_fired[ci] = pump.fired;
            idle_skip_mean_ps[ci] = pump.idle_skip_mean_ps;
            if channels == *CHANNELS.last().unwrap() {
                let reads: Vec<u64> = channel_reads(&machine.sys)
                    .iter()
                    .zip(&reads)
                    .map(|(a, b)| a - b)
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
            events_fired,
            idle_skip_mean_ps,
        }
    };
    ThreadPool::new(jobs).map_indexed(n, cell)
}

/// DRAM line reads served so far, per channel.
fn channel_reads(sys: &MemorySystem) -> Vec<u64> {
    (0..sys.channels())
        .map(|c| sys.channel(c).stats().reads)
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
    format!(
        "Multi-channel memory system: channel-level parallelism under PT-Guard\n{}\nchannels=1 is pinned byte-identical to the single-controller model;\nwider systems spread lines with the XOR-folded interleave and drain\nper-channel controllers merged in integer-picosecond retire order.\nevents@4 / idle-skip@4 report the event pump at the widest channel\ncount: drains fired and mean virtual time jumped per advance.\nbalance@4, events@4 and idle-skip@4 cover the measured region only.\n",
        t.render(),
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
    fn pump_counters_cover_the_measured_region_only() {
        // lbm's mlp-1 row at the widest channel count must count its
        // measured region's events alone.
        let lbm = 13;
        let row = &sweep_rows(Scale::Trial, 0, 1, &[lbm])[0];
        assert_eq!((row.name.as_str(), row.mlp), (ALL_WORKLOADS[lbm].name, 1));
        let cfg = MemSysConfig {
            channels: *CHANNELS.last().unwrap(),
            ..MemSysConfig::default()
        };
        let seed = crate::salted(0xc4a + lbm as u64, 0);
        let fired = crate::mlp::tests::region_events_fired(ALL_WORKLOADS[lbm], seed, cfg);
        assert_eq!(row.events_fired[2], fired);
    }
}
