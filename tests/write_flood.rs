//! The DRAM write traffic that the PT-Guard engine's write-path MAC memo
//! exists for.
//!
//! `MemorySystem::writeback` merges a dirty victim into the LLC when the
//! LLC holds the line and otherwise writes it to DRAM; it never merges into
//! the L2. Once the warm-up has filled the 2 MB LLC, the L1 keeps evicting
//! dirty lines that the L2 still holds but the LLC has dropped, and stores
//! carry no data, so the same lines reach DRAM with the same content again
//! and again. The engine's memo (4096 direct-mapped slots, one per L2 line)
//! serves their MACs without running the cipher.
//!
//! This test pins that traffic on perfbench's two MAC-heavy configurations.
//! If a model change removes the flood, re-measure the memo and delete it
//! if it no longer pays for its memory.

use memsys::MemSysConfig;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Machine, Protection};
use workloads::profiles::by_name;
use workloads::tracegen::TraceGenerator;

/// Protected writes and memo hits, summed over the channels' engines.
fn engine_writes(m: &Machine) -> (u64, u64) {
    (0..m.sys.channels())
        .filter_map(|ch| m.sys.channel(ch).engine())
        .map(|e| e.stats())
        .fold((0, 0), |(w, h), s| {
            (w + s.protected_writes, h + s.write_mac_memo_hits)
        })
}

/// Protected writes per 1000 memory ops and the memo's hit share over one
/// 1M-instruction region after a 2M-instruction warm-up, seed 1.
fn write_flood(profile: &str, mlp: usize, channels: usize) -> (f64, f64) {
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
    let (writes0, hits0) = engine_writes(&m);
    let region = run(&mut m, 1_000_000);
    let (writes1, hits1) = engine_writes(&m);
    let (writes, hits) = (writes1 - writes0, hits1 - hits0);
    (
        1000.0 * writes as f64 / region.mem_ops as f64,
        hits as f64 / writes.max(1) as f64,
    )
}

fn assert_flood(name: &str, (per_k, share): (f64, f64), min_per_k: f64, min_share: f64) {
    assert!(
        per_k >= min_per_k && share >= min_share,
        "{name}: {per_k:.1} protected writes per 1k memory ops (want >= {min_per_k}) and a \
         write-path MAC memo hit share of {:.1} % (want >= {:.0} %). The memo in \
         ptguard::engine exists for this write flood; if the model no longer makes it, \
         re-measure the memo and delete it if it no longer pays.",
        100.0 * share,
        100.0 * min_share,
    );
}

#[test]
fn xalancbmk_floods_dram_with_repeated_writebacks() {
    assert_flood(
        "xalancbmk mlp 1, 1 channel",
        write_flood("xalancbmk", 1, 1),
        200.0,
        0.85,
    );
}

#[test]
fn lbm_floods_dram_with_repeated_writebacks() {
    assert_flood(
        "lbm mlp 4, 4 channels",
        write_flood("lbm", 4, 4),
        250.0,
        0.90,
    );
}
