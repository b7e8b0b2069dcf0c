//! Cycle-accounting pins: the controller's ns→cycle conversion is integer
//! fixed-point (picosecond accumulation, one rounding point — see
//! `memsys::config::clock`), so total cycle counts are exactly reproducible.
//! These pins catch any reintroduced float-latency drift: a half-cycle
//! rounding change anywhere in the read path moves the totals.

use memsys::config::clock;
use simx::simulate_workload;
use workloads::ALL_WORKLOADS;

/// Pinned total cycles for every Figure 6 workload, simulated for 60 000
/// instructions under default PT-Guard at seed `0x5eed + index` through
/// [`simulate_workload`] — the entry point the Figure 6 and ablation
/// artefacts call, so the pins guard what those artefacts run: the
/// default configuration, the paper's blocking in-order core.
/// Regenerate with `PIN_PRINT=1 cargo test -q --test controller_cycles -- --nocapture`.
const PINNED_CYCLES: [(&str, u64); 25] = [
    ("perlbench", 321141),
    ("mcf", 420905),
    ("omnetpp", 366992),
    ("xalancbmk", 546277),
    ("x264", 317257),
    ("deepsjeng", 316205),
    ("leela", 314424),
    ("exchange2", 312420),
    ("xz", 330173),
    ("bwaves", 408647),
    ("cactuBSSN", 401350),
    ("namd", 381139),
    ("povray", 377036),
    ("lbm", 502672),
    ("wrf", 397523),
    ("cam4", 386345),
    ("imagick", 374192),
    ("nab", 380063),
    ("fotonik3d", 469583),
    ("roms", 421569),
    ("bc", 527843),
    ("bfs", 472534),
    ("cc", 503888),
    ("pr", 451305),
    ("sssp", 545065),
];

#[test]
fn cycle_totals_are_pinned_for_all_25_profiles() {
    let print = std::env::var_os("PIN_PRINT").is_some();
    let mut drift = String::new();
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        let r = simulate_workload(
            *w,
            simx::Protection::PtGuard(ptguard::PtGuardConfig::default()),
            60_000,
            0x5eed + i as u64,
        );
        if print {
            println!("    (\"{}\", {}),", w.name, r.cycles);
            continue;
        }
        let (name, cycles) = PINNED_CYCLES[i];
        assert_eq!(name, w.name, "profile order changed at index {i}");
        if r.cycles != cycles {
            drift.push_str(&format!(
                "{:>10}: pinned {cycles}, measured {}\n",
                w.name, r.cycles
            ));
        }
    }
    assert!(drift.is_empty(), "cycle drift:\n{drift}");
}

#[test]
fn split_accumulation_matches_single_conversion() {
    // The property the fixed-point clock exists for: splitting a latency
    // into contributions and summing them gives the same cycle count as
    // converting the whole — no per-contribution rounding drift.
    let khz = clock::ghz_to_khz(3.0);
    for (a, b) in [(46.25, 13.75), (0.166, 0.167), (57.916, 46.25)] {
        let split = clock::ns_to_ps(a) + clock::ns_to_ps(b);
        assert_eq!(
            clock::ps_to_cycles(split, khz),
            clock::ps_to_cycles(clock::ns_to_ps(a + b), khz),
            "{a} + {b}"
        );
        // Whereas rounding each contribution separately can drift:
        // round(46.25·3) + round(13.75·3) = 139 + 41 = 180 = round(60·3);
        // the fixed-point path is anchored to that exact total.
        assert_eq!(
            clock::ps_to_cycles(clock::ns_to_ps(a + b), khz),
            ((a + b) * 3.0_f64).round() as u64,
        );
    }
}
