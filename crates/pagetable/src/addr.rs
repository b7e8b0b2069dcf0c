//! Virtual and physical address newtypes and walk-index arithmetic.

use core::fmt;

use crate::{CACHELINE_SIZE, PAGE_SIZE};

/// A canonical x86_64 virtual address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address. Bits above 47 are sign-extended to keep the
    /// address canonical, as hardware requires.
    #[must_use]
    pub fn new(addr: u64) -> Self {
        let canon = if addr & (1 << 47) != 0 {
            addr | 0xffff_0000_0000_0000
        } else {
            addr & 0x0000_ffff_ffff_ffff
        };
        Self(canon)
    }

    /// Raw 64-bit value.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Index into the PML4 table (VA bits 47:39).
    #[must_use]
    pub fn pml4_index(self) -> usize {
        ((self.0 >> 39) & 0x1ff) as usize
    }

    /// Index into the page-directory-pointer table (VA bits 38:30).
    #[must_use]
    pub fn pdpt_index(self) -> usize {
        ((self.0 >> 30) & 0x1ff) as usize
    }

    /// Index into the page directory (VA bits 29:21).
    #[must_use]
    pub fn pd_index(self) -> usize {
        ((self.0 >> 21) & 0x1ff) as usize
    }

    /// Index into the page table (VA bits 20:12).
    #[must_use]
    pub fn pt_index(self) -> usize {
        ((self.0 >> 12) & 0x1ff) as usize
    }

    /// Index for walk level `level`, where level 3 = PML4 … level 0 = PT.
    #[must_use]
    pub fn level_index(self, level: usize) -> usize {
        debug_assert!(level < 4);
        ((self.0 >> (12 + 9 * level)) & 0x1ff) as usize
    }

    /// Byte offset within the 4 KB page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE as u64 - 1)
    }

    /// Virtual page number (VA / 4 KB).
    #[must_use]
    pub fn vpn(self) -> u64 {
        (self.0 & 0x0000_ffff_ffff_ffff) >> 12
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        Self::new(v)
    }
}

/// A physical memory address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address.
    #[must_use]
    pub fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// Builds a physical address from a frame number and in-page offset.
    #[must_use]
    pub fn from_frame(frame: Frame, offset: u64) -> Self {
        debug_assert!(offset < PAGE_SIZE as u64);
        Self((frame.0 << 12) | offset)
    }

    /// Raw 64-bit value.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The page frame containing this address.
    #[must_use]
    pub fn frame(self) -> Frame {
        Frame(self.0 >> 12)
    }

    /// Address of the 64-byte cacheline containing this address.
    #[must_use]
    pub fn line_addr(self) -> PhysAddr {
        PhysAddr(self.0 & !(CACHELINE_SIZE as u64 - 1))
    }

    /// Byte offset within the cacheline.
    #[must_use]
    pub fn line_offset(self) -> usize {
        (self.0 & (CACHELINE_SIZE as u64 - 1)) as usize
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        Self::new(v)
    }
}

/// A physical page frame number (physical address / 4 KB).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frame(pub u64);

impl Frame {
    /// Physical address of the first byte of this frame.
    #[must_use]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << 12)
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({:#x})", self.0)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_sign_extends() {
        let v = VirtAddr::new(0x0000_8000_0000_0000);
        assert_eq!(v.as_u64(), 0xffff_8000_0000_0000);
        let v = VirtAddr::new(0x0000_7fff_ffff_ffff);
        assert_eq!(v.as_u64(), 0x0000_7fff_ffff_ffff);
    }

    #[test]
    fn walk_indices_decompose_va() {
        // VA = PML4 idx 0x12, PDPT 0x34, PD 0x56, PT 0x78, offset 0x9ab.
        let raw = (0x12u64 << 39) | (0x34 << 30) | (0x56 << 21) | (0x78 << 12) | 0x9ab;
        let va = VirtAddr::new(raw);
        assert_eq!(va.pml4_index(), 0x12);
        assert_eq!(va.pdpt_index(), 0x34);
        assert_eq!(va.pd_index(), 0x56);
        assert_eq!(va.pt_index(), 0x78);
        assert_eq!(va.page_offset(), 0x9ab);
        assert_eq!(va.level_index(3), 0x12);
        assert_eq!(va.level_index(0), 0x78);
    }

    #[test]
    fn phys_addr_line_math() {
        let pa = PhysAddr::new(0x1234_5678);
        assert_eq!(pa.line_addr().as_u64(), 0x1234_5640);
        assert_eq!(pa.line_offset(), 0x38);
        assert_eq!(pa.frame().0, 0x12345);
    }

    #[test]
    fn frame_base_roundtrip() {
        let f = Frame(0xabc);
        assert_eq!(f.base().as_u64(), 0xabc000);
        assert_eq!(f.base().frame(), f);
        assert_eq!(PhysAddr::from_frame(f, 0x123).as_u64(), 0xabc123);
    }
}
