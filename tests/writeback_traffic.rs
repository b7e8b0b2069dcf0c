//! DRAM write traffic under the one-level-down writeback rule (DESIGN.md,
//! memsys "Writeback policy").
//!
//! A dirty L1D victim is filled into the L2 and a dirty L2 victim into the
//! LLC, so only LLC victims reach DRAM. Under the former rule an L1 victim
//! whose line the LLC had dropped went straight to DRAM: once the warm-up
//! had filled the 2 MB LLC, the same lines reached DRAM again and again,
//! 264 and 318 protected writes per 1k memory ops on the two configurations
//! below against 23.6 and 17.1 LLC writebacks.
//!
//! Both tests run one of perfbench's two MAC-heavy configurations over its
//! region: seed 1, a 2M-instruction warm-up, then one 1M-instruction region.

use memsys::MemSysConfig;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Machine, Protection};
use workloads::profiles::by_name;
use workloads::tracegen::TraceGenerator;

/// DRAM writes, LLC writebacks and protected writes so far.
fn write_counts(m: &Machine) -> [u64; 3] {
    let sys = &m.sys;
    let protected = (0..sys.channels())
        .filter_map(|ch| sys.channel(ch).engine())
        .map(|e| e.stats().protected_writes)
        .sum();
    [
        sys.controller_stats_total().writes,
        sys.cache_stats().2.writebacks,
        protected,
    ]
}

/// Runs `profile` at `mlp` over `channels` and checks the region's writes:
/// every DRAM write is an LLC victim, and protected writes stay under 40
/// per 1k memory ops.
fn check_region(profile: &str, mlp: usize, channels: usize) {
    let name = format!("{profile} mlp {mlp}, {channels} channel(s)");
    let profile = by_name(profile).expect("known profile");
    let mut m = build_machine_from_source_cfg(
        TraceGenerator::new(profile, 1),
        profile,
        Protection::PtGuard(PtGuardConfig::default()),
        4,
        MemSysConfig {
            mlp,
            channels,
            ..MemSysConfig::default()
        },
    );
    let _ = run(&mut m, 2_000_000);
    let before = write_counts(&m);
    let region = run(&mut m, 1_000_000);
    let after = write_counts(&m);
    let [dram_writes, llc_writebacks, protected] = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(
        dram_writes, llc_writebacks,
        "{name}: {dram_writes} DRAM writes but {llc_writebacks} LLC writebacks; \
         a victim of the L1D or the L2 reached DRAM"
    );
    let per_k = 1000.0 * protected as f64 / region.mem_ops as f64;
    assert!(
        per_k < 40.0,
        "{name}: {per_k:.1} protected writes per 1k memory ops (want < 40)"
    );
}

#[test]
fn xalancbmk_writes_only_llc_victims_to_dram() {
    check_region("xalancbmk", 1, 1);
}

#[test]
fn lbm_writes_only_llc_victims_to_dram() {
    check_region("lbm", 4, 4);
}
