//! The access engine against the paper's core.
//!
//! At `mlp = 1` (the default) `memsys::MemorySystem` must agree op for op
//! with `oracle::refmachine`, a naive blocking in-order core built from the
//! reference caches, TLB and MMU cache in front of the real controllers.
//! Both sides start cold from the same DRAM image. Every load and store
//! must return the same `AccessOutcome`, and the walk, miss, DRAM and MAC
//! counters must agree at the end. The windowed driver must fold those
//! latencies into the blocking sum, and the overlapped mode (`mlp > 1`)
//! must be deterministic and never slower.

use dram::ChannelInterleave;
use memsys::system::{OsPort, SystemStats};
use memsys::{AccessOutcome, MemSysConfig, MemoryController, MemorySystem};
use oracle::refmachine::RefMachine;
use pagetable::addr::VirtAddr;
use pagetable::memory::PhysMem;
use ptguard::{Line, PtGuardConfig};
use simx::runner::{build_machine_from_source_cfg, run, Machine, Protection, RunResult};
use workloads::profiles::by_name;
use workloads::tracegen::{Op, TraceGenerator};
use workloads::{WorkloadProfile, ALL_WORKLOADS};

const INSTRS: u64 = 40_000;

/// Instructions per profile in the op-for-op comparison.
const REF_INSTRS: u64 = 80_000;

/// Physical address width the machine builder maps with.
const PHYS_BITS: u32 = 32;

fn build(profile: WorkloadProfile, seed: u64, mem_cfg: MemSysConfig) -> Machine {
    build_machine_from_source_cfg(
        TraceGenerator::new(profile, seed),
        profile,
        Protection::PtGuard(PtGuardConfig::default()),
        4,
        mem_cfg,
    )
}

/// The engine and the reference, both cold over one DRAM image: the
/// machine is built twice, `tamper` edits each copy, and each copy's
/// controllers move into a fresh `MemorySystem` or into the reference.
/// The engine keeps the machine's op source and address space.
fn cold_pair(
    profile: WorkloadProfile,
    seed: u64,
    channels: usize,
    tamper: impl Fn(&mut Machine),
) -> (Machine, RefMachine) {
    let cfg = MemSysConfig {
        channels,
        ..MemSysConfig::default()
    };
    let image = || {
        let mut machine = build(profile, seed, cfg);
        tamper(&mut machine);
        machine
    };
    let Machine { sys, space, source } = image();
    let mut sys = MemorySystem::new(cfg, sys.into_controllers());
    sys.set_root(space.root(), PHYS_BITS);
    let twin = image();
    let root = twin.space.root();
    let reference = RefMachine::new(cfg, twin.sys.into_controllers(), root, PHYS_BITS);
    (Machine { sys, space, source }, reference)
}

/// What both sides must agree on after the run: walks, demand and walk
/// LLC misses, integrity faults, and per channel the controller's reads,
/// writes and MAC cycles and the PT-Guard engine's read-MAC count.
fn end_state<'a>(s: SystemStats, ctrls: impl Iterator<Item = &'a MemoryController>) -> String {
    let per_channel: Vec<_> = ctrls
        .map(|c| {
            let cs = c.stats();
            let macs = c.engine().map(|e| e.stats().read_mac_computations);
            (cs.reads, cs.writes, cs.mac_cycles_added, macs)
        })
        .collect();
    format!(
        "walks {} llc {} walk-llc {} faults {}, reads/writes/mac-cycles/read-macs {per_channel:?}",
        s.walks, s.llc_misses, s.walk_llc_misses, s.integrity_faults
    )
}

/// Runs both sides op for op; the first disagreement, if any.
fn compare_op_for_op(profile: WorkloadProfile, seed: u64, channels: usize) -> Result<(), String> {
    let (mut engine, mut reference) = cold_pair(profile, seed, channels, |_| {});
    for i in 0..REF_INSTRS {
        let (got, want) = match engine.source.next_op() {
            Op::Compute => continue,
            Op::Load(va) => (engine.sys.load(va), reference.access(va, false)),
            Op::Store(va) => (engine.sys.store(va), reference.access(va, true)),
        };
        if got != want {
            return Err(format!(
                "instruction {i}: engine {got:?}, reference {want:?}"
            ));
        }
    }
    let sys = &engine.sys;
    let got = end_state(sys.stats(), (0..sys.channels()).map(|c| sys.channel(c)));
    let want = end_state(reference.stats(), reference.controllers().iter());
    if got == want {
        Ok(())
    } else {
        Err(format!("engine {got}; reference {want}"))
    }
}

#[test]
fn engine_matches_the_reference_core_op_for_op() {
    let mut drift = String::new();
    for channels in [1usize, 4] {
        for (i, w) in ALL_WORKLOADS.iter().enumerate() {
            if let Err(e) = compare_op_for_op(*w, 0x4ef + i as u64, channels) {
                drift.push_str(&format!("{:>10} ch={channels}: {e}\n", w.name));
            }
        }
    }
    assert!(drift.is_empty(), "engine vs reference:\n{drift}");
}

#[test]
fn tampered_leaf_faults_identically_on_engine_and_reference() {
    let va = VirtAddr::new(TraceGenerator::HEAP_BASE);
    for channels in [1usize, 4] {
        // Corrupt `va`'s leaf PTE line beyond correction: 5 flips inside
        // the stored MAC exceed the soft-match tolerance (k = 4).
        let tamper = |m: &mut Machine| {
            let port = OsPort::new(&mut m.sys);
            let walk = m.space.walker().walk(&port, va).unwrap();
            let leaf_line = walk.accesses[3].entry_addr.line_addr();
            let ch = ChannelInterleave::new(channels as u32).channel_of(leaf_line) as usize;
            let dev = m.sys.channel_mut(ch).device_mut();
            let mut raw = Line::from_bytes(&dev.read_line(leaf_line));
            raw.set_word(0, raw.word(0) ^ (0b11111 << 41));
            dev.write_line(leaf_line, &raw.to_bytes());
        };
        let (mut engine, mut reference) =
            cold_pair(by_name("povray").unwrap(), 1, channels, tamper);
        let got = engine.sys.load(va);
        assert!(
            matches!(got, AccessOutcome::PteCheckFailed { level: 0, .. }),
            "ch={channels}: expected PteCheckFailed at the leaf, got {got:?}"
        );
        assert_eq!(
            got,
            reference.access(va, false),
            "ch={channels}: engine vs reference"
        );
        assert_eq!(engine.sys.stats().integrity_faults, 1);
        assert_eq!(reference.stats().integrity_faults, 1);
    }
}

#[test]
fn windowed_driver_at_mlp1_is_byte_identical_to_blocking() {
    // `run` at mlp = 1 must charge one cycle per instruction plus each
    // memory op's latency on the reference core.
    let mut drift = String::new();
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        let seed = 0x91e + i as u64;
        let (mut engine, mut reference) = cold_pair(*w, seed, 1, |_| {});
        let got = run(&mut engine, INSTRS);
        let mut ops = TraceGenerator::new(*w, seed);
        let cycles: u64 = (0..INSTRS)
            .map(|_| match ops.next_op() {
                Op::Compute => 1,
                Op::Load(va) => 1 + reference.access(va, false).cycles(),
                Op::Store(va) => 1 + reference.access(va, true).cycles(),
            })
            .sum();
        let s = reference.stats();
        let want = (cycles, s.walks, s.integrity_faults);
        if (got.cycles, got.walks, got.integrity_faults) != want {
            drift.push_str(&format!(
                "{:>10}: windowed {got:?}, blocking reference (cycles, walks, faults) {want:?}\n",
                w.name
            ));
        }
    }
    assert!(drift.is_empty(), "mlp=1 drift:\n{drift}");
}

fn run_one(profile: WorkloadProfile, seed: u64, mlp: usize) -> RunResult {
    let mem_cfg = MemSysConfig {
        mlp,
        ..MemSysConfig::default()
    };
    let mut machine = build(profile, seed, mem_cfg);
    let _ = run(&mut machine, INSTRS);
    run(&mut machine, INSTRS)
}

#[test]
fn overlapped_mode_is_deterministic_and_never_slower() {
    // Overlap determinism matters as much as speed: the mlp and channels
    // artefacts are committed, so two hosts must agree exactly.
    for name in ["sssp", "xalancbmk", "lbm"] {
        let w = *ALL_WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let base = run_one(w, 7, 1);
        for mlp in [2usize, 4] {
            let a = run_one(w, 7, mlp);
            let b = run_one(w, 7, mlp);
            assert_eq!(a.cycles, b.cycles, "{name} mlp={mlp} nondeterministic");
            assert_eq!(a.walks, b.walks, "{name} mlp={mlp} nondeterministic");
            assert!(
                a.cycles <= base.cycles,
                "{name}: overlap (mlp={mlp}, {} cycles) cannot exceed blocking ({})",
                a.cycles,
                base.cycles
            );
        }
    }
}
