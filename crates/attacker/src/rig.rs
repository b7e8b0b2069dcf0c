//! The system under attack.

use dram::{DramDevice, RowhammerConfig};
use memsys::config::MemSysConfig;
use memsys::controller::MemoryController;
use memsys::system::{MemorySystem, OsPort};
use pagetable::space::AddressSpace;
use ptguard::{PtGuardConfig, PtGuardEngine};
use rowhammer::DramHost;

/// Physical address bits of the victim machine (4 GB of DRAM).
pub const MAX_PHYS_BITS: u32 = 32;

/// Frames in the CATT-isolated page-table pool at the top of DRAM.
pub const CATT_POOL_FRAMES: u64 = 1024;

/// Guard-band frames between the data allocator and the pool. At 2 frames
/// per bank-row this is 4 rows — wider than the distance-2 disturbance
/// radius the Half-Double playbook exploits.
pub const CATT_GUARD_FRAMES: u64 = 128;

/// DRAM the CATT partition withholds from the data pool (its storage cost).
#[must_use]
pub fn catt_reserved_bytes() -> u64 {
    (CATT_POOL_FRAMES + CATT_GUARD_FRAMES) * 4096
}

/// A complete victim machine: memory system (caches, TLB, walker, memory
/// controller, DRAM) plus the OS-managed address space whose page tables
/// the campaign attacks.
#[derive(Debug)]
pub struct Victim {
    /// The cycle-level memory system.
    pub sys: MemorySystem,
    /// The victim address space (root already installed as CR3).
    pub space: AddressSpace,
}

impl Victim {
    /// Builds a victim over 4 GB DDR4 with the given Rowhammer physics,
    /// with or without the PT-Guard engine at the memory controller.
    ///
    /// # Panics
    ///
    /// Panics if the root table cannot be allocated (cannot happen at 4 GB).
    #[must_use]
    pub fn build(rh: RowhammerConfig, guarded: bool) -> Self {
        Self::build_with(rh, guarded, false)
    }

    /// Builds a victim whose kernel partitions the frame allocator the CATT
    /// way: page tables come from an isolated pool at the top of DRAM,
    /// separated from everything the attacker can allocate by a guard band
    /// wider than the disturbance radius.
    #[must_use]
    pub fn build_isolated(rh: RowhammerConfig, guarded: bool) -> Self {
        Self::build_with(rh, guarded, true)
    }

    fn build_with(rh: RowhammerConfig, guarded: bool, isolated: bool) -> Self {
        let device = DramDevice::ddr4_4gb(rh);
        let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
        let controller = MemoryController::new(device, engine);
        let mut sys = MemorySystem::new(MemSysConfig::default(), vec![controller]);
        let space = {
            let mut port = OsPort::new(&mut sys);
            if isolated {
                AddressSpace::new_isolated(
                    &mut port,
                    MAX_PHYS_BITS,
                    CATT_POOL_FRAMES,
                    CATT_GUARD_FRAMES,
                )
                .expect("pool fits in 4 GB")
            } else {
                AddressSpace::new(&mut port, MAX_PHYS_BITS).expect("root table fits")
            }
        };
        sys.set_root(space.root(), MAX_PHYS_BITS);
        Self { sys, space }
    }
}

impl DramHost for Victim {
    fn dram(&self) -> &DramDevice {
        self.sys.channel(0).device()
    }

    fn dram_mut(&mut self) -> &mut DramDevice {
        self.sys.channel_mut(0).device_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagetable::addr::VirtAddr;
    use pagetable::x86_64::PteFlags;

    #[test]
    fn victim_boots_and_translates() {
        let mut v = Victim::build(RowhammerConfig::immune(), true);
        let va = VirtAddr::new(0x40_0000_0000);
        let Victim { sys, space } = &mut v;
        let mut port = OsPort::new(sys);
        let frame = space.alloc_frame(&mut port).unwrap();
        space
            .map(&mut port, va, frame, PteFlags::user_data())
            .unwrap();
        assert!(v.sys.load(va).is_ok());
        assert_eq!(v.sys.tlb().peek_frame(va.vpn()), Some(frame));
    }

    #[test]
    fn victim_is_a_dram_host() {
        let mut v = Victim::build(RowhammerConfig::immune(), false);
        v.dram_mut().set_activation_tap(true);
        assert_eq!(v.dram().stats().total_flips, 0);
    }
}
