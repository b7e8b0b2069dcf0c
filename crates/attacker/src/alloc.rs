//! Memory-massaging playbooks: steering the victim page-table page.
//!
//! Every known page-table Rowhammer exploit starts the same way: occupy
//! physical memory so that the *next* page-table page the OS allocates
//! lands in an attacker-chosen DRAM row, flanked by attacker-controlled
//! aggressor rows. The playbooks differ only in how precisely they can aim:
//!
//! * **PFN-aware** (rooted helper / pagemap leak): exact placement.
//! * **Hugepage spray**: 2 MB-aligned contiguous blocks give row-accurate
//!   placement most of the time, off-by-one-row otherwise.
//! * **THP collapse**: transparent-hugepage compaction migrates frames
//!   behind the attacker's back, so the error spreads to ±2 rows.
//! * **Bank-conflict timing** (SPOILER-style): row timing side channels
//!   resolve the bank exactly but the row only to ±1.
//!
//! The mechanics are modelled deterministically over the repo's
//! buddy-style [`pagetable::space::FrameAllocator`]: the attacker burns
//! bump-allocated frames up to the target region, punches a hole with
//! [`AddressSpace::free_frame`], and the next page-table allocation pops
//! the hole (LIFO reuse) — exactly the spray-and-free dance of the
//! Seaborn/Drammer exploits. The strategy's aiming error decides *where*
//! the hole is punched relative to the row the attacker believes it is.

use dram::geometry::RowId;
use memsys::system::OsPort;
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use rng::SplitMix64;

use crate::rig::Victim;

/// Base of the attacker-visible virtual window. Four 2 MB regions under a
/// shared PML4/PDPT/PD: benign, aggressor-low, victim, aggressor-high.
pub const VA_BASE: u64 = 0x40_0000_0000;

const REGION: u64 = 2 << 20;

/// A memory-massaging strategy: how precisely the attacker can steer the
/// victim page-table page, and what the spray costs.
pub trait Allocator: Sync {
    /// Playbook name for reports.
    fn name(&self) -> &'static str;

    /// Seeded row-placement error: how many rows the victim PT page
    /// actually lands away from where the attacker *believes* it is.
    fn row_error(&self, rng: &mut SplitMix64) -> i64;

    /// Whether the spray works in 2 MB-aligned blocks (hugepages), which
    /// burns frames up to the next 512-frame boundary before aiming.
    fn hugepage_aligned(&self) -> bool {
        false
    }
}

/// Exact placement from a physical-address oracle (pagemap, rooted
/// co-tenant, or a prior info leak).
#[derive(Debug)]
pub struct PfnAware;

impl Allocator for PfnAware {
    fn name(&self) -> &'static str {
        "pfn-aware"
    }

    fn row_error(&self, _rng: &mut SplitMix64) -> i64 {
        0
    }
}

/// Hugepage spray-and-release (Drammer / Seaborn): contiguous 2 MB blocks
/// make row arithmetic reliable, but the release order can shift the
/// reused frame by one row.
#[derive(Debug)]
pub struct HugepageSpray;

impl Allocator for HugepageSpray {
    fn name(&self) -> &'static str {
        "hugepage-spray"
    }

    fn row_error(&self, rng: &mut SplitMix64) -> i64 {
        match rng.next_f64() {
            x if x < 0.75 => 0,
            x if x < 0.875 => -1,
            _ => 1,
        }
    }

    fn hugepage_aligned(&self) -> bool {
        true
    }
}

/// Transparent-hugepage collapse: khugepaged migrates the sprayed frames
/// during compaction, so the attacker's row estimate degrades to ±2.
#[derive(Debug)]
pub struct ThpCollapse;

impl Allocator for ThpCollapse {
    fn name(&self) -> &'static str {
        "thp-collapse"
    }

    fn row_error(&self, rng: &mut SplitMix64) -> i64 {
        match rng.next_f64() {
            x if x < 0.5 => 0,
            x if x < 0.7 => -1,
            x if x < 0.9 => 1,
            x if x < 0.95 => -2,
            _ => 2,
        }
    }

    fn hugepage_aligned(&self) -> bool {
        true
    }
}

/// Bank-conflict (SPOILER-style) timing massage: row-buffer-conflict
/// latencies resolve the bank exactly, the row only to ±1.
#[derive(Debug)]
pub struct BankConflict;

impl Allocator for BankConflict {
    fn name(&self) -> &'static str {
        "bank-conflict"
    }

    fn row_error(&self, rng: &mut SplitMix64) -> i64 {
        match rng.next_f64() {
            x if x < 0.5 => 0,
            x if x < 0.75 => -1,
            _ => 1,
        }
    }
}

/// The campaign's allocator playbooks, in report order.
pub static ALLOCATORS: [&dyn Allocator; 4] =
    [&PfnAware, &HugepageSpray, &ThpCollapse, &BankConflict];

/// Where everything ended up after massaging.
#[derive(Debug)]
pub struct Placement {
    /// Target bank.
    pub bank: u32,
    /// The row the attacker *believes* holds the victim PT page.
    pub target_row: u32,
    /// The row where the victim PT page actually landed.
    pub actual_row: RowId,
    /// Rows of aiming error (`actual − target`, strategy-drawn).
    pub row_error: i64,
    /// The frame holding the victim page-table page.
    pub victim_pt: Frame,
    /// The aggressor rows the hammerers will drive (`target ± 1`).
    pub aggressor_rows: [RowId; 2],
    /// Physical line addresses of the two aggressor leaf PTEs (for
    /// PThammer's per-round cache-line eviction).
    pub aggressor_leaf_lines: [PhysAddr; 2],
    /// Attacker VAs whose walks touch the aggressor PT pages.
    pub aggressor_vas: [VirtAddr; 2],
    /// Victim VAs mapped through the victim PT page (one PTE per line).
    pub victim_vas: Vec<VirtAddr>,
    /// Expected data frame of each victim VA (for hijack detection).
    pub victim_frames: Vec<Frame>,
    /// A benign mapping far from the blast radius (false-positive probe).
    pub benign_va: VirtAddr,
}

/// Runs the massaging playbook against a freshly booted [`Victim`]:
/// spray-burn to the target region, land the two aggressor PT pages in
/// rows `target ± 1`, punch a hole where the strategy's aim says the
/// victim PT will go, and let the OS's next page-table allocation pop it.
///
/// `jitter` offsets the target row within the sprayable region so
/// different trials exercise different weak-cell populations.
///
/// Against a CATT-partitioned victim ([`Victim::build_isolated`]) the same
/// grooming runs to completion, but the OS ignores every groomed hole: page
/// tables come from the isolated pool, so the aggressor rows the hammerers
/// drive (`target ± 1`) hold only attacker data and the victim PT lands in
/// the pool, behind the guard band — the attack is disarmed at allocation
/// time. `actual_row` and `aggressor_leaf_lines` report where the PT pages
/// really went in either case.
///
/// # Panics
///
/// Panics if physical memory is exhausted (cannot happen at 4 GB) or — for
/// non-isolated victims — a page-table page lands somewhere other than the
/// groomed frame, which would mean the allocator model and the massage
/// disagree.
#[must_use]
pub fn massage(
    v: &mut Victim,
    strategy: &dyn Allocator,
    bank: u32,
    jitter: u32,
    victim_pages: usize,
    rng: &mut SplitMix64,
) -> Placement {
    let geometry = *v.sys.channel(0).device().geometry();
    let frame_of = |row: u32| Frame(geometry.row_base(RowId { bank, row }).as_u64() >> 12);

    let Victim { sys, space } = v;
    let isolated = space.table_pool().is_some();
    let mut port = OsPort::new(sys);

    let benign_va = VirtAddr::new(VA_BASE);
    let va_lo = VirtAddr::new(VA_BASE + REGION);
    let victim_base = VA_BASE + 2 * REGION;
    let va_hi = VirtAddr::new(VA_BASE + 3 * REGION);

    // Prime the shared upper levels (PML4/PDPT/PD) and the benign region's
    // PT now, so later `map` calls allocate exactly one frame: the leaf PT.
    let benign_data = space.alloc_frame(&mut port).expect("oom");
    space
        .map(&mut port, benign_va, benign_data, PteFlags::user_data())
        .expect("benign map");

    // Pre-allocate every data frame before aiming; they land in low rows,
    // far from the blast radius, and keep the groomed holes for PT pages.
    let aggressor_data = [
        space.alloc_frame(&mut port).expect("oom"),
        space.alloc_frame(&mut port).expect("oom"),
    ];
    let victim_frames: Vec<Frame> = (0..victim_pages)
        .map(|_| space.alloc_frame(&mut port).expect("oom"))
        .collect();

    fn burn_to(space: &mut AddressSpace, port: &mut OsPort, last: Frame) {
        loop {
            let f = space.alloc_frame(port).expect("oom");
            if f >= last {
                assert_eq!(f, last, "burn overshot the groomed frame");
                return;
            }
        }
    }

    // Hugepage sprays allocate whole 2 MB blocks: burn to the next
    // 512-frame boundary before aiming.
    if strategy.hugepage_aligned() {
        let f = space.alloc_frame(&mut port).expect("oom");
        if f.0 % 512 != 511 {
            burn_to(space, &mut port, Frame(f.0 + (511 - f.0 % 512)));
        }
    }

    // Aim: a row comfortably above the spray watermark, jittered per trial.
    let probe = space.alloc_frame(&mut port).expect("oom");
    let watermark_row = geometry.row_of(probe.base()).row;
    let target_row = watermark_row + 4 + jitter;

    // Land the aggressor PT pages at the first frame of rows target ± 1.
    let fa_lo = frame_of(target_row - 1);
    let fa_hi = frame_of(target_row + 1);
    burn_to(space, &mut port, Frame(fa_lo.0 - 1));
    space
        .map(&mut port, va_lo, aggressor_data[0], PteFlags::user_data())
        .expect("aggressor-low map");
    let pt_lo = *space.table_frames().last().unwrap();
    burn_to(space, &mut port, Frame(fa_hi.0 - 1));
    space
        .map(&mut port, va_hi, aggressor_data[1], PteFlags::user_data())
        .expect("aggressor-high map");
    let pt_hi = *space.table_frames().last().unwrap();
    if !isolated {
        assert_eq!(pt_lo, fa_lo, "aggressor-low PT must pop the groomed frame");
        assert_eq!(pt_hi, fa_hi, "aggressor-high PT must pop the groomed frame");
    }

    // Burn through every hole candidate, then punch the hole where the
    // strategy's aim actually points. With aiming error e ≠ 0 the first
    // frame of row target+e already holds an aggressor PT (e = ±1) or is
    // burned, so the hole goes to the row's second frame — still in row
    // target+e, which is all the attack cares about.
    let error = strategy.row_error(rng);
    burn_to(space, &mut port, Frame(frame_of(target_row + 2).0 + 1));
    let hole = if error == 0 {
        frame_of(target_row)
    } else {
        Frame(frame_of((target_row as i64 + error) as u32).0 + 1)
    };
    space.free_frame(hole);

    // The OS allocates the victim PT page on the first victim mapping: the
    // allocator's LIFO free list hands back the groomed hole. One present
    // PTE per 64-byte line fills the page with MAC-protected lines.
    let victim_vas: Vec<VirtAddr> = (0..victim_pages)
        .map(|i| VirtAddr::new(victim_base + (i as u64) * 8 * 4096))
        .collect();
    for (va, frame) in victim_vas.iter().zip(&victim_frames) {
        space
            .map(&mut port, *va, *frame, PteFlags::user_data())
            .expect("victim map");
    }
    let victim_pt = *space.table_frames().last().unwrap();
    if let Some((pool_first, pool_limit)) = space.table_pool() {
        assert!(
            (pool_first..pool_limit).contains(&victim_pt.0),
            "isolated victim PT must come from the pool"
        );
    } else {
        assert_eq!(victim_pt, hole, "victim PT must pop the groomed hole");
    }

    Placement {
        bank,
        target_row,
        actual_row: geometry.row_of(victim_pt.base()),
        row_error: error,
        victim_pt,
        aggressor_rows: [
            RowId {
                bank,
                row: target_row - 1,
            },
            RowId {
                bank,
                row: target_row + 1,
            },
        ],
        aggressor_leaf_lines: [pt_lo.base(), pt_hi.base()],
        aggressor_vas: [va_lo, va_hi],
        victim_vas,
        victim_frames,
        benign_va,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::RowhammerConfig;

    fn placed(strategy: &dyn Allocator, seed: u64) -> (Victim, Placement) {
        let mut v = Victim::build(RowhammerConfig::immune(), true);
        let mut rng = SplitMix64::new(seed);
        let p = massage(&mut v, strategy, 3, 17, 64, &mut rng);
        (v, p)
    }

    #[test]
    fn pfn_aware_lands_exactly_between_aggressors() {
        let (v, p) = placed(&PfnAware, 1);
        assert_eq!(p.row_error, 0);
        assert_eq!(
            p.actual_row,
            RowId {
                bank: 3,
                row: p.target_row
            }
        );
        assert_eq!(p.aggressor_rows[0].row + 2, p.aggressor_rows[1].row);
        // Aggressor PTs really are one row either side of the victim PT.
        let g = v.sys.channel(0).device().geometry();
        for (line, row) in p.aggressor_leaf_lines.iter().zip(p.aggressor_rows) {
            assert_eq!(g.row_of(*line), row);
        }
    }

    #[test]
    fn victim_mappings_translate_through_the_groomed_pt() {
        let (mut v, p) = placed(&PfnAware, 2);
        for (va, frame) in p.victim_vas.iter().zip(&p.victim_frames) {
            assert!(v.sys.load(*va).is_ok());
            assert_eq!(v.sys.tlb().peek_frame(va.vpn()), Some(*frame));
        }
        assert!(v.sys.load(p.benign_va).is_ok());
    }

    #[test]
    fn error_models_stay_within_their_advertised_radius() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..500 {
            assert_eq!(PfnAware.row_error(&mut rng), 0);
            assert!(HugepageSpray.row_error(&mut rng).abs() <= 1);
            assert!(ThpCollapse.row_error(&mut rng).abs() <= 2);
            assert!(BankConflict.row_error(&mut rng).abs() <= 1);
        }
    }

    #[test]
    fn catt_isolation_defeats_the_grooming() {
        // Same playbook, CATT-partitioned victim: every PT page must land
        // in the pool behind the guard band, never in the groomed rows.
        let mut v = Victim::build_isolated(RowhammerConfig::immune(), false);
        let mut rng = SplitMix64::new(5);
        let p = massage(&mut v, &PfnAware, 3, 17, 64, &mut rng);
        let (pool_first, pool_limit) = v.space.table_pool().unwrap();
        assert!((pool_first..pool_limit).contains(&p.victim_pt.0));
        let g = v.sys.channel(0).device().geometry();
        for line in p.aggressor_leaf_lines {
            let pt_row = g.row_of(line);
            let dist = i64::from(pt_row.row) - i64::from(p.target_row);
            assert!(
                pt_row.bank != p.bank || dist.abs() > 2,
                "aggressor PT within blast radius: {pt_row:?} vs target {}",
                p.target_row
            );
        }
        // The victim still translates through its (pool-resident) PT.
        for va in &p.victim_vas {
            assert!(v.sys.load(*va).is_ok());
        }
    }

    #[test]
    fn imperfect_aim_still_lands_in_the_predicted_row() {
        // Whatever error the strategy draws, the hole (and therefore the
        // victim PT) must land in row target + error of the target bank.
        for seed in 0..8 {
            let (_, p) = placed(&ThpCollapse, 100 + seed);
            assert_eq!(p.actual_row.bank, p.bank);
            assert_eq!(
                i64::from(p.actual_row.row),
                i64::from(p.target_row) + p.row_error
            );
        }
    }
}
