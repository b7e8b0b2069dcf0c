//! Multi-channel identity and integer-timing regression pins.
//!
//! Three properties the multi-channel memory system must keep:
//!
//! 1. Device time is integer picoseconds end to end — a same-bank chain
//!    serviced at a far-future epoch stays latency-exact. Under the old
//!    `f64` clock the epoch's ulp (2 ns at 10^16 ns) exceeded a whole
//!    access latency, so the chain drifted by many cycles.
//! 2. The address interleave only *splits* traffic: access counts are
//!    invariant in the channel count, and per-channel stats reconcile
//!    against the system total.
//! 3. `channels = 1` is byte-identical to the single-controller model —
//!    pinned by `tests/controller_cycles.rs`; here we pin the config
//!    default so that test keeps guarding the multi-channel code path.

use dram::{DramDevice, DramTiming, RowhammerConfig};
use memsys::config::clock;
use memsys::MemSysConfig;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine_from_source_cfg, run, Protection};
use workloads::profiles::by_name;
use workloads::tracegen::TraceGenerator;

/// The f64-drift regression (ISSUE 9 satellite 1): 64 same-bank reads at
/// an epoch of 10^16 ns must cost exactly `closed + 63 × hit` — and that
/// exactness must survive the ps→cycle conversion. With the old `f64`
/// device clock every access rounded to the epoch's 2 ns ulp, so the
/// measured chain drifted from the analytic sum by far more than a cycle.
#[test]
fn far_future_same_bank_chain_is_cycle_exact() {
    let timing = DramTiming {
        t_refw_ns: 1e18, // keep refresh out of the window under test
        ..DramTiming::default()
    };
    let geom = *DramDevice::ddr4_4gb(RowhammerConfig::immune()).geometry();
    let mut dev = DramDevice::new(geom, timing, RowhammerConfig::immune());
    dev.advance_time_ps(10u128.pow(19));
    let epoch = dev.now_ps();

    let addr = pagetable::addr::PhysAddr::new(0x40_0000);
    let mut total_ps: u128 = 0;
    for _ in 0..64 {
        total_ps += dev.access_ps(addr, false);
    }
    let analytic = dev.timing().row_closed_ps() + 63 * dev.timing().row_hit_ps();
    assert_eq!(total_ps, analytic, "same-bank chain latency drifted");
    assert_eq!(dev.now_ps() - epoch, analytic, "device clock drifted");

    // And the drift-free sum survives conversion to core cycles: the
    // chain's cycle count equals the single-conversion analytic value.
    let khz = clock::ghz_to_khz(3.0);
    assert_eq!(
        clock::ps_to_cycles(total_ps, khz),
        clock::ps_to_cycles(analytic, khz)
    );
}

/// The interleave splits the line stream but never changes it: demand
/// access counts and MAC computation counts are identical at 1 and 4
/// channels, and the 4-channel per-channel stats sum to the system total.
#[test]
fn channel_counts_reconcile_across_widths() {
    let p = by_name("xalancbmk").expect("profile");
    let run_at = |channels: usize| {
        let mem_cfg = MemSysConfig {
            mlp: 4,
            channels,
            ..MemSysConfig::default()
        };
        let mut machine = build_machine_from_source_cfg(
            TraceGenerator::new(p, 0xc4a1),
            p,
            Protection::PtGuard(PtGuardConfig::default()),
            4,
            mem_cfg,
        );
        let r = run(&mut machine, 30_000);
        (machine, r)
    };
    let (m1, r1) = run_at(1);
    let (m4, r4) = run_at(4);

    let total1 = m1.sys.controller_stats_total();
    let total4 = m4.sys.controller_stats_total();
    assert_eq!(total1.reads, total4.reads, "demand reads depend on width");
    assert_eq!(total1.writes, total4.writes, "writebacks depend on width");
    assert_eq!(
        r1.mac_computations, r4.mac_computations,
        "MAC work depends on width"
    );

    // Per-channel reconciliation: the 4 controllers partition the totals.
    let sum = |f: fn(&memsys::controller::ControllerStats) -> u64| {
        (0..4).map(|c| f(&m4.sys.channel(c).stats())).sum()
    };
    assert_eq!(total4.reads, sum(|s| s.reads));
    assert_eq!(total4.writes, sum(|s| s.writes));
    assert_eq!(total4.mac_cycles_added, sum(|s| s.mac_cycles_added));
    let spread = (0..4)
        .filter(|&c| m4.sys.channel(c).stats().reads > 0)
        .count();
    assert!(spread >= 2, "interleave left traffic on one channel");
}

/// The single-channel default is what `tests/controller_cycles.rs` pins:
/// if this default ever moves, those 25 byte-identity pins silently start
/// testing a different machine.
#[test]
fn default_config_is_single_channel() {
    assert_eq!(MemSysConfig::default().channels, 1);
}
