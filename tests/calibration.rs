//! Calibration audit: every synthetic workload's *measured* LLC-MPKI through
//! the real cache hierarchy must land near its Figure 6 target — the
//! substitution argument of DESIGN.md, enforced in CI.
//!
//! Measured on the default configuration, the paper's blocking core: the
//! targets were calibrated under it, where every fill lands before the next
//! probe. Wider windows legitimately re-miss lines whose fill is still in
//! flight, which shifts MPKI on the memory-bound profiles without changing
//! the working sets.

use simx::simulate_workload;
use workloads::ALL_WORKLOADS;

#[test]
fn measured_mpki_tracks_figure6_targets() {
    let mut report = String::new();
    let mut failures = 0;
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        let r = simulate_workload(*w, simx::Protection::None, 120_000, 0xca11 + i as u64);
        let ok = if w.target_mpki >= 2.0 {
            // Within ±35 % for measurable targets.
            (r.mpki / w.target_mpki - 1.0).abs() < 0.35
        } else {
            // Tiny targets: just demand "small".
            r.mpki < 2.5
        };
        if !ok {
            failures += 1;
        }
        report.push_str(&format!(
            "{:>10}: target {:>5.1}  measured {:>5.1}  {}\n",
            w.name,
            w.target_mpki,
            r.mpki,
            if ok { "ok" } else { "MISS" }
        ));
    }
    assert_eq!(failures, 0, "calibration drift:\n{report}");
}

#[test]
fn memory_intensive_workloads_exercise_the_walk_path() {
    // PT-Guard's overhead rides on page walks reaching DRAM; streaming
    // profiles must generate TLB pressure. (Cache-resident profiles like
    // povray legitimately stay inside the 64-entry TLB after warm-up.)
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        if w.target_mpki < 2.0 || i % 3 != 0 {
            continue;
        }
        let r = simulate_workload(*w, simx::Protection::None, 80_000, 0x3a1c + i as u64);
        assert!(r.walks > 0, "{}: no page walks", w.name);
    }
}
