//! The campaign driver: allocate → massage → hammer → exploit-or-detected.
//!
//! Runs the full cross product of allocator playbooks × hammerer playbooks
//! × DRAM-level mitigations × PT-Guard on/off, each cell over several
//! seeded trials against a freshly booted [`Victim`], and reports
//! per-playbook success/detection rates, correction-guess budgets and
//! time-to-first-flip. A Blockhammer sidebar cell reports the throttling
//! trade-off (attack blocked, but at hundreds of milliseconds of injected
//! delay) in the integer-picosecond domain of [`memsys::config::clock`].
//!
//! Determinism: every trial derives its own `SplitMix64` stream from
//! `(campaign seed, cell index, trial index)`, so the result is
//! byte-identical no matter how the cells are sharded across a
//! [`ThreadPool`].

use dram::RowhammerConfig;
use memsys::system::AccessOutcome;
use orchestrator::pool::ThreadPool;
use rng::SplitMix64;
use rowhammer::{
    ActivationProvenance, Blockhammer, Graphene, HammerSession, Mitigation, NoMitigation, Para, Trr,
};

use crate::alloc::{massage, ALLOCATORS};
use crate::hammer::HAMMERERS;
use crate::rig::Victim;

/// The §VI-D guess budget of the 44-bit x86_64 format: corrections must
/// never spend more guesses than this.
pub const GUESS_BUDGET: u32 = 372;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Trials per cell.
    pub trials: u32,
    /// Per-aggressor activation budget of the basic double-sided pattern.
    pub acts_per_side: u64,
    /// Victim mappings (one PTE per 64-byte line of the victim PT page).
    pub victim_pages: usize,
    /// Disturbance threshold of the weakest cells (module RTH).
    pub rth: f64,
    /// Weak cells per 8 KB row.
    pub weak_cells_per_row: f64,
    /// Campaign master seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            trials: 3,
            acts_per_side: 2000,
            victim_pages: 64,
            rth: 700.0,
            weak_cells_per_row: 64.0,
            seed: 0xA77A_C4ED_5EED_0007,
        }
    }
}

/// A DRAM-level mitigation column of the campaign grid.
struct MitigationSpec {
    name: &'static str,
    build: fn(&CampaignConfig, u64) -> Box<dyn Mitigation>,
}

/// One full defence column: a mitigation build plus the machine policy it
/// requires. The arena artefact crosses these with the playbook grid; the
/// legacy campaign grid is the special case `isolate_tables = false` with
/// `guarded` swept independently.
#[derive(Debug, Clone)]
pub struct DefenseSpec {
    /// Defence name for reports.
    pub name: &'static str,
    /// Builds the DRAM-level engine for one trial (`seed` is trial-drawn).
    pub build: fn(&CampaignConfig, u64) -> Box<dyn Mitigation>,
    /// Whether PT-Guard runs at the memory controller.
    pub guarded: bool,
    /// Whether the victim kernel partitions page tables into the CATT pool.
    pub isolate_tables: bool,
}

/// The grid columns: no mitigation, DDR4-typical TRR, PARA, Graphene.
const MITIGATIONS: [MitigationSpec; 4] = [
    MitigationSpec {
        name: "none",
        build: |_, _| Box::new(NoMitigation),
    },
    MitigationSpec {
        name: "TRR",
        build: |cfg, _| Box::new(Trr::ddr4_typical(cfg.rth as u64)),
    },
    MitigationSpec {
        name: "PARA",
        build: |_, seed| Box::new(Para::new(0.005, seed)),
    },
    MitigationSpec {
        name: "Graphene",
        build: |cfg, _| Box::new(Graphene::new(16, ((cfg.rth as u64) / 8).max(1))),
    },
];

/// Aggregated outcome of one grid cell (one playbook × defence pairing).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Allocator playbook name.
    pub allocator: &'static str,
    /// Hammerer playbook name.
    pub hammerer: &'static str,
    /// Mitigation column name.
    pub mitigation: &'static str,
    /// Whether PT-Guard was active at the memory controller.
    pub guarded: bool,
    /// Trials run.
    pub trials: u32,
    /// Trials with *undetected* PTE corruption (hijack or fault).
    pub successes: u32,
    /// Trials where PT-Guard raised an integrity exception.
    pub detected: u32,
    /// Trials where the massaging landed the victim PT exactly on target.
    pub exact_placements: u32,
    /// Translations hijacked to the wrong frame across all trials.
    pub hijacks: u64,
    /// Victim probes that page-faulted on a corrupted PTE.
    pub faults: u64,
    /// Benign-mapping probes that failed (must stay 0: no false positives).
    pub benign_faults: u64,
    /// PT-Guard silent corrections across all trials.
    pub corrections: u64,
    /// Largest guess count any correction spent (≤ [`GUESS_BUDGET`]).
    pub max_guesses: u32,
    /// Disturbance flips that landed in the victim PT row.
    pub victim_row_flips: u64,
    /// Attacker-issued activations (explicit hammering only).
    pub attacker_acts: u64,
    /// Provenance ledger of every activation the sessions absorbed.
    pub provenance: ActivationProvenance,
    /// Mitigation-injected throttling delay, integer picoseconds.
    pub delay_ps: u128,
    /// Mitigation refreshes issued across all trials.
    pub refreshes: u64,
    /// Largest dedicated-storage figure the defence reported in any trial.
    pub storage_bytes: u64,
    /// Fastest time from hammer start to the first victim-row flip, in
    /// integer picoseconds of simulated time (None if no trial flipped it).
    pub first_flip_ps: Option<u128>,
}

/// The whole campaign: the 128-cell grid plus the Blockhammer sidebar.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign parameters the cells were run with.
    pub cfg: CampaignConfig,
    /// Grid cells, ordered allocator-major, then hammerer, mitigation,
    /// and guard off before guard on.
    pub cells: Vec<CellResult>,
    /// Blockhammer throttling sidebar (pfn-aware × load-loop, guard on).
    pub throttling: CellResult,
}

impl CampaignResult {
    /// Largest correction-guess count observed anywhere in the campaign.
    #[must_use]
    pub fn max_guesses(&self) -> u32 {
        self.cells
            .iter()
            .chain(std::iter::once(&self.throttling))
            .map(|c| c.max_guesses)
            .max()
            .unwrap_or(0)
    }
}

const GRID_CELLS: usize = 128;

/// Runs the campaign, sharding cells over `pool`. The output is
/// byte-identical for any pool size.
#[must_use]
pub fn run_with_pool(cfg: &CampaignConfig, pool: &ThreadPool) -> CampaignResult {
    let mut cells = pool.map_indexed(GRID_CELLS + 1, |i| run_cell(cfg, i));
    let throttling = cells.pop().expect("sidebar cell");
    CampaignResult {
        cfg: cfg.clone(),
        cells,
        throttling,
    }
}

fn trial_seed(seed: u64, cell: usize, trial: u32) -> u64 {
    seed ^ (cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(trial) + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

fn run_cell(cfg: &CampaignConfig, idx: usize) -> CellResult {
    let sidebar = MitigationSpec {
        name: "Blockhammer",
        build: |_, _| Box::new(Blockhammer::new(128, 100_000.0)),
    };
    let (alloc, ham, mit, guarded) = if idx == GRID_CELLS {
        (0, 0, &sidebar, true)
    } else {
        (
            idx / 32,
            (idx / 8) % 4,
            &MITIGATIONS[(idx / 2) % 4],
            idx % 2 == 1,
        )
    };
    let spec = DefenseSpec {
        name: mit.name,
        build: mit.build,
        guarded,
        isolate_tables: false,
    };
    run_defense_cell(cfg, &spec, alloc, ham, idx)
}

/// Runs one playbook × defence cell over `cfg.trials` seeded trials. The
/// per-trial RNG stream is derived from `(cfg.seed, cell_id, trial)`, so
/// callers sharding cells across a pool stay byte-identical as long as
/// `cell_id` is stable; the legacy grid uses its cell index, the arena its
/// own id space under a different master seed.
#[must_use]
pub fn run_defense_cell(
    cfg: &CampaignConfig,
    spec: &DefenseSpec,
    alloc: usize,
    ham: usize,
    cell_id: usize,
) -> CellResult {
    let guarded = spec.guarded;
    let allocator = ALLOCATORS[alloc];
    let hammerer = HAMMERERS[ham];

    let mut cell = CellResult {
        allocator: allocator.name(),
        hammerer: hammerer.name(),
        mitigation: spec.name,
        guarded,
        trials: cfg.trials,
        successes: 0,
        detected: 0,
        exact_placements: 0,
        hijacks: 0,
        faults: 0,
        benign_faults: 0,
        corrections: 0,
        max_guesses: 0,
        victim_row_flips: 0,
        attacker_acts: 0,
        provenance: ActivationProvenance::default(),
        delay_ps: 0,
        refreshes: 0,
        storage_bytes: 0,
        first_flip_ps: None,
    };

    for trial in 0..cfg.trials {
        let mut rng = SplitMix64::new(trial_seed(cfg.seed, cell_id, trial));

        let rh = RowhammerConfig {
            threshold: cfg.rth,
            weak_cells_per_row: cfg.weak_cells_per_row,
            seed: rng.next_u64(),
            ..RowhammerConfig::default()
        };
        let mut v = if spec.isolate_tables {
            Victim::build_isolated(rh, guarded)
        } else {
            Victim::build(rh, guarded)
        };

        let bank = rng.gen_range_u64(0, u64::from(v.sys.channel(0).device().geometry().banks));
        let jitter = rng.gen_range_u64(0, 192) as u32;
        let p = massage(
            &mut v,
            allocator,
            bank as u32,
            jitter,
            cfg.victim_pages,
            &mut rng,
        );
        if p.row_error == 0 {
            cell.exact_placements += 1;
        }

        // Cold start: page tables (with their MACs) live in DRAM, so the
        // hammer's flips are authoritative and every probe walk re-reads
        // and re-verifies at the controller.
        v.sys.flush_caches();
        v.sys.invalidate_translation_state();
        for a in v.space.pte_line_addrs() {
            v.sys.invalidate_line(a);
        }

        let stats0 = v.sys.channel(0).engine().map(|e| e.stats());
        let t0_ps = v.sys.channel(0).device().now_ps();

        let mut mitigation = (spec.build)(cfg, rng.next_u64());
        // Software-visible defences learn where the kernel's page tables
        // physically live (a no-op for hardware-only mitigations).
        let geometry = *v.sys.channel(0).device().geometry();
        for f in v.space.table_frames() {
            mitigation.note_pt_row(geometry.row_of(f.base()));
        }
        let mut s = HammerSession::new(v, mitigation);
        let out = hammerer.hammer(&mut s, &p, cfg.acts_per_side);

        cell.attacker_acts += s.attacker_acts();
        let prov = s.provenance();
        cell.provenance.explicit += prov.explicit;
        cell.provenance.demand += prov.demand;
        cell.provenance.walk += prov.walk;
        cell.provenance.refresh += prov.refresh;
        cell.delay_ps += s.mitigation().delay_injected_ps();
        cell.refreshes += s.mitigation().refreshes_issued();
        cell.storage_bytes = cell
            .storage_bytes
            .max(s.mitigation().storage_overhead_bytes());

        let (mut v, _mitigation) = s.into_parts();

        // Exploit-or-detected: re-walk every victim mapping cold and see
        // what the machine now believes.
        let mut detected = out.detected;
        let mut hijacks = 0u64;
        let mut faults = 0u64;
        v.sys.invalidate_translation_state();
        for a in v.space.pte_line_addrs() {
            v.sys.invalidate_line(a);
        }
        for (va, expected) in p.victim_vas.iter().zip(&p.victim_frames) {
            match v.sys.load(*va) {
                AccessOutcome::Ok { .. } => {
                    if v.sys.tlb().peek_frame(va.vpn()) != Some(*expected) {
                        hijacks += 1;
                    }
                }
                AccessOutcome::PteCheckFailed { .. } => detected = true,
                AccessOutcome::PageFault { .. } => faults += 1,
            }
        }
        if !v.sys.load(p.benign_va).is_ok() {
            cell.benign_faults += 1;
        }

        if let (Some(s0), Some(engine)) = (stats0, v.sys.channel(0).engine()) {
            let s1 = engine.stats();
            cell.corrections += s1.corrected - s0.corrected;
            cell.max_guesses = cell.max_guesses.max(s1.max_correction_guesses);
            if s1.check_failures > s0.check_failures {
                detected = true;
            }
        }

        let device = v.sys.channel(0).device();
        for f in device.flips().iter().filter(|f| f.row == p.actual_row) {
            cell.victim_row_flips += 1;
            // A flip already present when the hammer started counts as 0.
            let dt_ps = f.time_ps.saturating_sub(t0_ps);
            if cell.first_flip_ps.is_none_or(|best| dt_ps < best) {
                cell.first_flip_ps = Some(dt_ps);
            }
        }

        cell.hijacks += hijacks;
        cell.faults += faults;
        if detected {
            cell.detected += 1;
        } else if hijacks + faults > 0 {
            cell.successes += 1;
        }
    }
    cell
}

/// Renders the campaign as the `exp attack` report: one success/detection
/// grid per guard mode, the throttling sidebar, the implicit-walk
/// provenance proof and the correction-guess headline.
#[must_use]
pub fn render(r: &CampaignResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let cfg = &r.cfg;
    let _ = writeln!(
        out,
        "attack campaign: {} allocators x {} hammerers x {} mitigations x guard on/off",
        ALLOCATORS.len(),
        HAMMERERS.len(),
        MITIGATIONS.len(),
    );
    let _ = writeln!(
        out,
        "trials/cell={} acts/side={} victim-pages={} rth={} weak-cells/row={} seed={:#018x}",
        cfg.trials, cfg.acts_per_side, cfg.victim_pages, cfg.rth, cfg.weak_cells_per_row, cfg.seed,
    );
    let _ = writeln!(out, "cell format: corrupted/trials d=detected-trials");

    for guarded in [false, true] {
        let _ = writeln!(
            out,
            "\n== PT-Guard {} ==",
            if guarded { "on" } else { "off" }
        );
        let _ = write!(out, "{:<28}", "playbook");
        for m in &MITIGATIONS {
            let _ = write!(out, "{:>12}", m.name);
        }
        out.push('\n');
        for a in &ALLOCATORS {
            for h in &HAMMERERS {
                let _ = write!(out, "{:<28}", format!("{}/{}", a.name(), h.name()));
                for m in &MITIGATIONS {
                    let c = r
                        .cells
                        .iter()
                        .find(|c| {
                            c.allocator == a.name()
                                && c.hammerer == h.name()
                                && c.mitigation == m.name
                                && c.guarded == guarded
                        })
                        .expect("cell");
                    let _ = write!(
                        out,
                        "{:>12}",
                        format!("{}/{} d{}", c.successes, c.trials, c.detected)
                    );
                }
                out.push('\n');
            }
        }
    }

    let t = &r.throttling;
    let _ = writeln!(
        out,
        "\nBlockhammer sidebar ({}/{}, guard on): corrupted {}/{}, detected {}, delay {:.3} ms",
        t.allocator,
        t.hammerer,
        t.successes,
        t.trials,
        t.detected,
        t.delay_ps as f64 / 1e9,
    );

    let mut prov = ActivationProvenance::default();
    let mut pt_attacker_acts = 0u64;
    for c in r.cells.iter().filter(|c| c.hammerer == "pthammer") {
        prov.explicit += c.provenance.explicit;
        prov.demand += c.provenance.demand;
        prov.walk += c.provenance.walk;
        prov.refresh += c.provenance.refresh;
        pt_attacker_acts += c.attacker_acts;
    }
    let _ = writeln!(
        out,
        "pthammer provenance: explicit={} attacker-acts={} walk={} demand={} refresh={}",
        prov.explicit, pt_attacker_acts, prov.walk, prov.demand, prov.refresh,
    );
    let _ = writeln!(
        out,
        "max correction guesses: {} (budget {})",
        r.max_guesses(),
        GUESS_BUDGET,
    );
    let fastest = r
        .cells
        .iter()
        .filter_map(|c| c.first_flip_ps.map(|ps| (ps, c)))
        .min_by_key(|&(ps, _)| ps);
    if let Some((ps, c)) = fastest {
        // Tenths of a microsecond, rounded half up in integer arithmetic.
        let tenths = (ps + 50_000) / 100_000;
        let _ = writeln!(
            out,
            "fastest first flip: {}.{} us ({}/{}/{} guard {})",
            tenths / 10,
            tenths % 10,
            c.allocator,
            c.hammerer,
            c.mitigation,
            if c.guarded { "on" } else { "off" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            trials: 1,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn grid_covers_the_full_cross_product() {
        let r = run_with_pool(&tiny(), &ThreadPool::new(1));
        assert_eq!(r.cells.len(), 128);
        for a in &ALLOCATORS {
            for h in &HAMMERERS {
                for m in &MITIGATIONS {
                    for g in [false, true] {
                        assert!(
                            r.cells.iter().any(|c| c.allocator == a.name()
                                && c.hammerer == h.name()
                                && c.mitigation == m.name
                                && c.guarded == g),
                            "missing cell {}/{}/{}/{g}",
                            a.name(),
                            h.name(),
                            m.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_pool_sizes() {
        let cfg = tiny();
        let serial = render(&run_with_pool(&cfg, &ThreadPool::new(1)));
        let sharded = render(&run_with_pool(&cfg, &ThreadPool::new(8)));
        assert_eq!(serial, sharded);
    }

    #[test]
    fn section_vi_invariants_hold() {
        let r = run_with_pool(&tiny(), &ThreadPool::new(1));
        for c in r.cells.iter().chain(std::iter::once(&r.throttling)) {
            assert_eq!(c.benign_faults, 0, "benign false positive in {c:?}");
            assert!(c.max_guesses <= GUESS_BUDGET, "guess budget blown in {c:?}");
            if c.guarded {
                assert_eq!(
                    c.successes, 0,
                    "silent corruption must never survive PT-Guard: {c:?}"
                );
            }
            if c.hammerer == "pthammer" {
                assert_eq!(c.provenance.explicit, 0, "pthammer must stay implicit");
                assert_eq!(c.attacker_acts, 0);
                assert!(c.provenance.walk > 0);
            }
        }
        // The unguarded, unmitigated column must fall to classic hammering.
        let unguarded_none: u32 = r
            .cells
            .iter()
            .filter(|c| !c.guarded && c.mitigation == "none" && c.hammerer != "half-double")
            .map(|c| c.successes)
            .sum();
        assert!(unguarded_none > 0, "no unmitigated attack succeeded");
    }
}
