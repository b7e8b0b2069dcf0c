//! `exp arena`: the mitigation arena — PT-Guard vs every software/hardware
//! defence on the axes the paper's §VIII-B comparison actually argues:
//! slowdown × storage overhead × residual attack success.
//!
//! Two halves, sharded together over one orchestrator pool:
//!
//! * **Performance** — each of the 25 workload profiles runs once
//!   unprotected with the DRAM activation tap open; the tapped stream is
//!   then replayed into every DRAM-level defence against a fresh
//!   observation device, and the defence's refresh/throttle cost is priced
//!   in integer picoseconds (`refreshes × tRC + delay_injected_ps`) against
//!   the baseline run converted through [`clock::cycles_to_ps`]. PT-Guard's
//!   slowdown comes from a real guarded run (its cost is MAC latency on
//!   walk fills, invisible to an activation replay).
//! * **Security** — the `exp attack` campaign grid (4 allocators × 4
//!   hammerers) runs per defence through
//!   [`attacker::campaign::run_defense_cell`], with SoftTRR/CATT fed the
//!   kernel's page-table placement and CATT victims built with the
//!   partitioned frame allocator.
//!
//! Determinism: work units (25 perf + 128 grid cells) are sharded with
//! `map_indexed` and merged in index order; every trial RNG stream derives
//! from `(arena seed, cell id, trial)`, so output is byte-identical for any
//! `--jobs` value.

use attacker::campaign::{run_defense_cell, CampaignConfig, CellResult, DefenseSpec};
use attacker::catt_reserved_bytes;
use dram::{ActivationKind, DramDevice, RowhammerConfig};
use memsys::config::clock;
use orchestrator::ThreadPool;
use rowhammer::{Blockhammer, Catt, Dapper, Graphene, NoMitigation, Para, SoftTrr, Trr};
use simx::{build_machine, run, Protection};
use workloads::ALL_WORKLOADS;

use crate::report::{gmean, pct, Table};
use crate::{salted, Scale};

/// Base seed of the arena's trial streams (salted by `--seed`).
pub const ARENA_SEED: u64 = 0xA12E_4A5E_ED00_0008;

/// The arena's defence columns, report order. PT-Guard last: the headline.
#[must_use]
pub fn defenses() -> Vec<DefenseSpec> {
    vec![
        DefenseSpec {
            name: "TRR",
            build: |cfg, _| Box::new(Trr::ddr4_typical(cfg.rth as u64)),
            guarded: false,
            isolate_tables: false,
        },
        DefenseSpec {
            name: "PARA",
            build: |_, seed| Box::new(Para::new(0.005, seed)),
            guarded: false,
            isolate_tables: false,
        },
        DefenseSpec {
            name: "Graphene",
            build: |cfg, _| Box::new(Graphene::new(16, ((cfg.rth as u64) / 8).max(1))),
            guarded: false,
            isolate_tables: false,
        },
        DefenseSpec {
            name: "Blockhammer",
            build: |_, _| Box::new(Blockhammer::new(128, 100_000.0)),
            guarded: false,
            isolate_tables: false,
        },
        DefenseSpec {
            name: "SoftTRR",
            build: |cfg, _| Box::new(SoftTrr::new(((cfg.rth as u64) / 8).max(1))),
            guarded: false,
            isolate_tables: false,
        },
        DefenseSpec {
            name: "CATT",
            build: |_, _| Box::new(Catt::new(catt_reserved_bytes())),
            guarded: false,
            isolate_tables: true,
        },
        DefenseSpec {
            name: "DAPPER",
            build: |cfg, _| Box::new(Dapper::ddr4_typical(cfg.rth as u64)),
            guarded: false,
            isolate_tables: false,
        },
        DefenseSpec {
            name: "PT-Guard",
            build: |_, _| Box::new(NoMitigation),
            guarded: true,
            isolate_tables: false,
        },
    ]
}

/// One workload's performance unit: the baseline run plus every defence's
/// replayed overhead.
#[derive(Debug, Clone)]
pub struct PerfUnit {
    /// Workload name.
    pub name: String,
    /// Baseline (unprotected) cycles of the measured region.
    pub base_cycles: u64,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// IPC of the PT-Guard-protected run.
    pub guarded_ipc: f64,
    /// Per-defence `(refreshes, delay_ps)` in [`defenses`] order (the
    /// PT-Guard entry stays zero — its cost is in `guarded_ipc`).
    pub overheads: Vec<(u64, u128)>,
}

/// One defence's row of the arena table.
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// Defence name.
    pub name: &'static str,
    /// Geometric-mean normalized IPC over the 25 workloads.
    pub gmean_norm_ipc: f64,
    /// Worst (minimum) normalized IPC and the workload it happened on.
    pub worst_norm_ipc: f64,
    /// Workload with the worst slowdown.
    pub worst_workload: String,
    /// Dedicated storage the defence provisions, bytes.
    pub storage_bytes: u64,
    /// Refreshes issued across the 25 benign workloads.
    pub benign_refreshes: u64,
    /// Delay injected across the 25 benign workloads, picoseconds.
    pub benign_delay_ps: u128,
    /// Refreshes issued across the attack grid.
    pub attack_refreshes: u64,
    /// Delay injected across the attack grid, picoseconds.
    pub attack_delay_ps: u128,
    /// Attack-grid trials with undetected PTE corruption.
    pub successes: u32,
    /// Attack-grid trials ending in a PT-Guard integrity exception.
    pub detected: u32,
    /// Attack-grid trials run against this defence (16 cells × trials).
    pub trials: u32,
}

/// The full arena artefact.
#[derive(Debug, Clone)]
pub struct ArenaResult {
    /// Campaign configuration the security grid ran with.
    pub cfg: CampaignConfig,
    /// Per-defence rows, [`defenses`] order.
    pub rows: Vec<DefenseRow>,
    /// Per-workload performance units (diagnostics / JSON surface).
    pub perf: Vec<PerfUnit>,
    /// Security-grid cells, defence-major then allocator, hammerer.
    pub cells: Vec<CellResult>,
}

enum Unit {
    Perf(Box<PerfUnit>),
    Cell(Box<CellResult>),
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    seed ^ (a + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (b + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Runs one workload baseline with the activation tap open, replays the
/// stream into every DRAM-level defence, and runs the PT-Guard comparison.
fn run_perf_unit(cfg: &CampaignConfig, instructions: u64, widx: usize) -> PerfUnit {
    let profile = ALL_WORKLOADS[widx];
    let seed = salted(0x000A_2E7A + widx as u64, cfg.seed);

    let mut machine = build_machine(profile, Protection::None, seed);
    let _ = run(&mut machine, instructions); // warm-up, untapped
    machine
        .sys
        .channel_mut(0)
        .device_mut()
        .set_activation_tap(true);
    let base = run(&mut machine, instructions);
    let mut stream = Vec::new();
    machine
        .sys
        .channel_mut(0)
        .device_mut()
        .drain_activations(&mut stream);

    // The rows the kernel's page tables landed in, for SoftTRR/CATT.
    let geometry = *machine.sys.channel(0).device().geometry();
    let pt_rows: Vec<_> = machine
        .space
        .table_frames()
        .iter()
        .map(|f| geometry.row_of(f.base()))
        .collect();

    let specs = defenses();
    let mut overheads = Vec::with_capacity(specs.len());
    for (didx, spec) in specs.iter().enumerate() {
        if spec.guarded {
            overheads.push((0, 0));
            continue;
        }
        let mut obs = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mut defense = (spec.build)(cfg, mix(cfg.seed, widx as u64, didx as u64));
        for row in &pt_rows {
            defense.note_pt_row(*row);
        }
        for &(row, kind) in &stream {
            if kind != ActivationKind::Refresh {
                defense.on_activate(row, &mut obs);
            }
        }
        overheads.push((defense.refreshes_issued(), defense.delay_injected_ps()));
    }

    let mut guarded_machine = build_machine(
        profile,
        Protection::PtGuard(ptguard::PtGuardConfig::default()),
        seed,
    );
    let _ = run(&mut guarded_machine, instructions);
    let guarded = run(&mut guarded_machine, instructions);

    PerfUnit {
        name: profile.name.to_string(),
        base_cycles: base.cycles,
        base_ipc: base.ipc(),
        guarded_ipc: guarded.ipc(),
        overheads,
    }
}

/// Runs the arena at `scale` with a sweep seed and worker count; output is
/// byte-identical for every `jobs` value.
#[must_use]
pub fn run_seeded_jobs(scale: Scale, seed: u64, jobs: usize) -> ArenaResult {
    let cfg = CampaignConfig {
        trials: crate::attack::trials(scale),
        seed: salted(ARENA_SEED, seed),
        ..CampaignConfig::default()
    };
    let instructions = scale.instructions();
    let specs = defenses();
    let grid = specs.len() * 16; // 4 allocators × 4 hammerers per defence
    let n = ALL_WORKLOADS.len() + grid;

    let units = ThreadPool::new(jobs).map_indexed(n, |i| {
        if i < ALL_WORKLOADS.len() {
            Unit::Perf(Box::new(run_perf_unit(&cfg, instructions, i)))
        } else {
            let idx = i - ALL_WORKLOADS.len();
            let spec = &specs[idx / 16];
            let (alloc, ham) = ((idx / 4) % 4, idx % 4);
            Unit::Cell(Box::new(run_defense_cell(&cfg, spec, alloc, ham, i)))
        }
    });

    let mut perf = Vec::new();
    let mut cells = Vec::new();
    for u in units {
        match u {
            Unit::Perf(p) => perf.push(*p),
            Unit::Cell(c) => cells.push(*c),
        }
    }

    let t_rc_ps = clock::ns_to_ps(dram::DramTiming::default().t_rc_ns);
    let mut rows = Vec::with_capacity(specs.len());
    for (didx, spec) in specs.iter().enumerate() {
        // Performance: price the replayed overhead against the baseline.
        let mut norms = Vec::with_capacity(perf.len());
        let mut benign_refreshes = 0u64;
        let mut benign_delay_ps = 0u128;
        for p in &perf {
            let norm = if spec.guarded {
                p.guarded_ipc / p.base_ipc
            } else {
                let (refreshes, delay_ps) = p.overheads[didx];
                benign_refreshes += refreshes;
                benign_delay_ps += delay_ps;
                let base_ps = clock::cycles_to_ps(p.base_cycles, clock::CORE_KHZ);
                let overhead_ps = u128::from(refreshes) * t_rc_ps + delay_ps;
                base_ps as f64 / (base_ps + overhead_ps) as f64
            };
            norms.push((p.name.clone(), norm));
        }
        let (worst_workload, worst_norm_ipc) = norms
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, v)| (n.clone(), *v))
            .expect("non-empty");
        let values: Vec<f64> = norms.iter().map(|(_, v)| *v).collect();

        // Security: this defence's 16 grid cells.
        let mine: Vec<&CellResult> = cells[didx * 16..(didx + 1) * 16].iter().collect();
        debug_assert!(mine.iter().all(|c| c.mitigation == spec.name));
        rows.push(DefenseRow {
            name: spec.name,
            gmean_norm_ipc: gmean(&values),
            worst_norm_ipc,
            worst_workload,
            storage_bytes: mine.iter().map(|c| c.storage_bytes).max().unwrap_or(0),
            benign_refreshes,
            benign_delay_ps,
            attack_refreshes: mine.iter().map(|c| c.refreshes).sum(),
            attack_delay_ps: mine.iter().map(|c| c.delay_ps).sum(),
            successes: mine.iter().map(|c| c.successes).sum(),
            detected: mine.iter().map(|c| c.detected).sum(),
            trials: mine.iter().map(|c| c.trials).sum(),
        });
    }

    ArenaResult {
        cfg,
        rows,
        perf,
        cells,
    }
}

fn human_bytes(b: u64) -> String {
    if b == 0 {
        "0 B".to_string()
    } else if b.is_multiple_of(1 << 20) {
        format!("{} MiB", b >> 20)
    } else if b.is_multiple_of(1024) {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}

/// Renders the arena as a Figure-6-style comparison table.
#[must_use]
pub fn render(r: &ArenaResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mitigation arena: slowdown x storage x residual attack success"
    );
    let _ = writeln!(
        out,
        "{} workloads (perf replay) | 4 allocators x 4 hammerers (attack grid), trials/cell={} seed={:#018x}",
        r.perf.len(),
        r.cfg.trials,
        r.cfg.seed,
    );
    let mut t = Table::new(vec![
        "defense", "slowdown", "worst", "storage", "refr", "delay ms", "residual", "detected",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.name.to_string(),
            pct(1.0 - row.gmean_norm_ipc),
            format!("{} ({})", pct(1.0 - row.worst_norm_ipc), row.worst_workload),
            human_bytes(row.storage_bytes),
            row.benign_refreshes.to_string(),
            format!("{:.3}", row.benign_delay_ps as f64 / 1e9),
            format!("{}/{}", row.successes, row.trials),
            row.detected.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "slowdown/refr/delay: benign 25-workload cost; residual: undetected corruptions over the attack grid"
    );
    let _ = writeln!(
        out,
        "note: PT-Guard stores MACs in unused PTE bits - zero dedicated storage (Table IV)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_artefact_is_byte_identical_across_jobs() {
        let a = render(&run_seeded_jobs(Scale::Trial, 5, 1));
        let b = render(&run_seeded_jobs(Scale::Trial, 5, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn arena_covers_every_defense_with_paper_shape() {
        let r = run_seeded_jobs(Scale::Trial, 0, 1);
        assert_eq!(r.rows.len(), 8);
        assert_eq!(r.cells.len(), 128);
        assert_eq!(r.perf.len(), 25);
        let names: Vec<_> = r.rows.iter().map(|x| x.name).collect();
        for n in [
            "TRR",
            "PARA",
            "Graphene",
            "Blockhammer",
            "SoftTRR",
            "CATT",
            "DAPPER",
            "PT-Guard",
        ] {
            assert!(names.contains(&n), "missing defense {n}");
        }
        for row in &r.rows {
            assert!(
                row.gmean_norm_ipc > 0.0 && row.gmean_norm_ipc <= 1.001,
                "{row:?}"
            );
            assert!(row.successes + row.detected <= row.trials, "{row:?}");
        }
        let by = |n: &str| r.rows.iter().find(|x| x.name == n).unwrap();
        // PT-Guard: no silent corruption, zero dedicated storage.
        assert_eq!(by("PT-Guard").successes, 0);
        assert_eq!(by("PT-Guard").storage_bytes, 0);
        // CATT: isolation disarms every playbook structurally, at a real
        // storage cost and with no refresh/delay machinery.
        let catt = by("CATT");
        assert_eq!(catt.successes, 0);
        assert_eq!(catt.benign_refreshes, 0);
        assert_eq!(catt.storage_bytes, attacker::catt_reserved_bytes());
        // The victim-refresh trackers actually defend *something*: the
        // attack grid must show refreshes being issued.
        assert!(by("Graphene").attack_refreshes > 0);
        assert!(by("DAPPER").attack_refreshes > 0);
    }
}
