//! Property-based invariants spanning the crates.
//!
//! Formerly proptest-driven; now a deterministic randomized sweep over the
//! in-tree [`rng::SplitMix64`] so the workspace builds with no network
//! access. Case counts match the old proptest configuration.

use std::collections::BTreeSet;

use pagetable::addr::{PhysAddr, VirtAddr};
use pagetable::memory::VecMemory;
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use ptguard::{pattern, PtGuardConfig, PtGuardEngine};
use qarma::{Qarma128, Sbox};
use rng::SplitMix64;

const CASES: usize = 64;

/// A line that satisfies the OS invariant (PTE-shaped).
fn pte_shaped_line(rng: &mut SplitMix64) -> Line {
    let mut words = [0u64; 8];
    for w in words.iter_mut() {
        let present = rng.gen_bool(0.5);
        if present {
            let pfn = rng.gen_range_u64(0, 1 << 28);
            let flagbits = rng.gen_range_u64(0, 16);
            *w = (pfn << 12) | 0x07 | (flagbits << 3) & 0xf8;
        }
    }
    Line::from_words(words)
}

/// Arbitrary line content (usually not pattern-matching).
fn any_line(rng: &mut SplitMix64) -> Line {
    let mut words = [0u64; 8];
    for w in words.iter_mut() {
        *w = rng.next_u64();
    }
    Line::from_words(words)
}

#[test]
fn qarma128_is_a_permutation() {
    let mut rng = SplitMix64::new(0x1a02);
    let u128_of = |r: &mut SplitMix64| (u128::from(r.next_u64()) << 64) | u128::from(r.next_u64());
    for _ in 0..CASES {
        let key = [u128_of(&mut rng), u128_of(&mut rng)];
        let pt = u128_of(&mut rng);
        let tw = u128_of(&mut rng);
        let c = Qarma128::new(key, 9, Sbox::Sigma1);
        assert_eq!(c.decrypt(c.encrypt(pt, tw), tw), pt);
    }
}

#[test]
fn protected_roundtrip_is_identity() {
    // Any OS-invariant-respecting line survives write→read untouched, in
    // both engine variants.
    let mut rng = SplitMix64::new(0x1a03);
    for _ in 0..CASES {
        let line = pte_shaped_line(&mut rng);
        let addr = PhysAddr::new(rng.gen_range_u64(0, 1 << 20) * 64);
        for cfg in [PtGuardConfig::default(), PtGuardConfig::optimized()] {
            let mut e = PtGuardEngine::new(cfg);
            let w = e.process_write(line, addr);
            assert!(w.protected);
            let r = e.process_read(w.line, addr, true);
            assert_eq!(r.verdict, ReadVerdict::Verified);
            assert_eq!(r.line, line);
        }
    }
}

#[test]
fn data_roundtrip_preserves_content() {
    // Regular data — protected or not, colliding or not — always comes
    // back bit-identical on the data-read path.
    let mut rng = SplitMix64::new(0x1a04);
    for _ in 0..CASES {
        let line = any_line(&mut rng);
        let addr = PhysAddr::new(rng.gen_range_u64(0, 1 << 20) * 64);
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let w = e.process_write(line, addr);
        let r = e.process_read(w.line, addr, false);
        assert!(r.verdict.is_ok());
        if w.protected {
            // Pattern-matched: MAC embedded then stripped back out.
            assert_eq!(r.line, line);
        } else {
            assert_eq!(r.line, w.line);
            assert_eq!(w.line, line);
        }
    }
}

#[test]
fn tampered_walks_never_verify_silently() {
    // Whatever bits flip, a PTE walk either (a) accepts a payload equal to
    // the original protected content, or (b) raises CheckFailed. Silent
    // acceptance of modified protected content is forbidden.
    let mut rng = SplitMix64::new(0x1a05);
    for _ in 0..CASES {
        let line = pte_shaped_line(&mut rng);
        let addr = PhysAddr::new(rng.gen_range_u64(0, 1 << 20) * 64);
        let mut flips = BTreeSet::new();
        for _ in 0..rng.gen_range_usize(1, 6) {
            flips.insert(rng.gen_range_usize(0, 512));
        }
        let mut e = PtGuardEngine::new(PtGuardConfig::default());
        let protected_mask = e.mac_unit().protected_mask();
        let w = e.process_write(line, addr);
        let mut faulty = w.line;
        for f in flips {
            faulty.flip_bit(f);
        }
        let r = e.process_read(faulty, addr, true);
        match r.verdict {
            ReadVerdict::Verified | ReadVerdict::Corrected { .. } => {
                assert_eq!(
                    r.line.masked(protected_mask),
                    line.masked(protected_mask),
                    "accepted payload must match the written protected content"
                );
            }
            ReadVerdict::CheckFailed => {}
            ReadVerdict::Forwarded => panic!("PTE walks always verify"),
        }
    }
}

#[test]
fn embed_strip_is_inverse_on_pattern_lines() {
    let mut rng = SplitMix64::new(0x1a06);
    for _ in 0..CASES {
        let line = pte_shaped_line(&mut rng);
        let mac =
            ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) & ((1 << 96) - 1);
        assert!(pattern::matches_base_pattern(&line));
        let embedded = pattern::embed_mac(&line, mac);
        assert_eq!(pattern::extract_mac(&embedded), mac);
        assert_eq!(pattern::strip_mac(&embedded), line);
    }
}

#[test]
fn mapping_translate_agrees_with_direct_math() {
    // AddressSpace::translate must agree with frame arithmetic for every
    // mapping it created.
    let mut rng = SplitMix64::new(0x1a07);
    for _ in 0..24 {
        let mut vpns = BTreeSet::new();
        for _ in 0..rng.gen_range_usize(1, 24) {
            vpns.insert(rng.gen_range_u64(1, 1 << 24));
        }
        let mut mem = VecMemory::new(32 << 20);
        let mut space = AddressSpace::new(&mut mem, 32).unwrap();
        let mut placed = Vec::new();
        for vpn in vpns {
            let va = VirtAddr::new(vpn << 12);
            let frame = space.map_new(&mut mem, va, PteFlags::user_data()).unwrap();
            placed.push((va, frame));
        }
        for (va, frame) in placed {
            let pa = space
                .translate(&mem, VirtAddr::new(va.as_u64() + 0x123))
                .unwrap();
            assert_eq!(pa, PhysAddr::from_frame(frame, 0x123));
        }
        assert_eq!(space.verify_os_invariant(&mem), 0);
    }
}
