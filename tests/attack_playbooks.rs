//! Campaign-level pins for the adversarial playbooks (`exp attack`).
//!
//! Three guarantees the paper's Section VI evaluation rests on:
//!
//! 1. **Sharding invariance** — the artefact is byte-identical for any
//!    `--jobs` value, so cached results are shareable across machines.
//! 2. **Section VI invariants** — benign mappings never raise a false
//!    positive, no correction ever exceeds the 372-guess budget of the
//!    44-bit x86_64 format, and no PTE corruption survives PT-Guard
//!    silently in any playbook cell.
//! 3. **PThammer implicitness** — the implicit-walk playbook drives every
//!    aggressor activation through the page-table-walk path: zero explicit
//!    attacker accesses across all of its cells, in every defence pairing.

use experiments::orchestrate::run_artefact_jobs;
use experiments::{attack, Scale};

#[test]
fn attack_artefact_is_byte_identical_across_jobs() {
    let serial = run_artefact_jobs("attack", Scale::Trial, 0, 1).unwrap();
    let sharded = run_artefact_jobs("attack", Scale::Trial, 0, 8).unwrap();
    assert_eq!(serial.rendered, sharded.rendered);
    assert_eq!(serial.metrics, sharded.metrics);
}

#[test]
fn section_vi_invariants_hold_across_every_playbook() {
    let r = attack::run_seeded_jobs(Scale::Trial, 0, 8);
    assert_eq!(
        r.cells.len(),
        128,
        "4 allocators x 4 hammerers x 4 mitigations x 2"
    );
    for c in r.cells.iter().chain(std::iter::once(&r.throttling)) {
        assert_eq!(
            c.benign_faults, 0,
            "benign mapping must never fault ({}/{}/{})",
            c.allocator, c.hammerer, c.mitigation
        );
        assert!(
            c.max_guesses <= 372,
            "correction spent {} guesses, budget is 372",
            c.max_guesses
        );
        if c.guarded {
            assert_eq!(
                c.successes, 0,
                "silent corruption survived PT-Guard ({}/{}/{})",
                c.allocator, c.hammerer, c.mitigation
            );
        }
    }
    // The unguarded baseline must actually fall to hammering, or the
    // defence columns prove nothing.
    let unmitigated: u32 = r
        .cells
        .iter()
        .filter(|c| !c.guarded && c.mitigation == "none")
        .map(|c| c.successes)
        .sum();
    assert!(unmitigated > 0, "no unmitigated playbook corrupted a PTE");
    // Blockhammer blocks the attack but pays in injected delay.
    assert_eq!(r.throttling.successes, 0);
    assert!(r.throttling.delay_ps > 0);
}

#[test]
fn pthammer_is_implicit_in_every_cell() {
    let r = attack::run_seeded_jobs(Scale::Trial, 0, 8);
    let mut cells = 0;
    for c in r.cells.iter().filter(|c| c.hammerer == "pthammer") {
        cells += 1;
        assert_eq!(
            c.attacker_acts, 0,
            "PThammer issued an explicit DRAM access ({}/{})",
            c.allocator, c.mitigation
        );
        assert_eq!(c.provenance.explicit, 0);
        assert!(
            c.provenance.walk > 0,
            "no walk activations reached DRAM ({}/{})",
            c.allocator,
            c.mitigation
        );
    }
    assert_eq!(cells, 32, "4 allocators x 4 mitigations x guard on/off");
}
