//! The OS model: an address space with a frame allocator and map/unmap.
//!
//! This plays the role of the trusted kernel in the paper's threat model
//! (Section II-D): it writes well-formed PTEs with the unused high PFN bits
//! and ignored bits zeroed — the invariant that makes PT-Guard's write-time
//! bit-pattern match identify every PTE cacheline.

use core::fmt;

use crate::addr::{Frame, PhysAddr, VirtAddr};
use crate::memory::PhysMem;
use crate::table;
use crate::walker::{TranslationError, Walker};
use crate::x86_64::{Pte, PteFlags};
use crate::{CACHELINE_SIZE, PAGE_SIZE, PTES_PER_PAGE};

/// Errors from address-space operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The frame allocator ran out of physical memory.
    OutOfMemory,
    /// The virtual page is already mapped.
    AlreadyMapped,
    /// Unmap of a page that is not mapped.
    NotMapped,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::OutOfMemory => write!(f, "out of physical memory"),
            MapError::AlreadyMapped => write!(f, "virtual page already mapped"),
            MapError::NotMapped => write!(f, "virtual page not mapped"),
        }
    }
}

impl std::error::Error for MapError {}

/// A simple first-fit frame allocator with a free list.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    first: u64,
    next: u64,
    limit: u64,
    free: Vec<Frame>,
}

impl FrameAllocator {
    /// Creates an allocator over frames `[first, limit)`.
    #[must_use]
    pub fn new(first: u64, limit: u64) -> Self {
        Self {
            first,
            next: first,
            limit,
            free: Vec::new(),
        }
    }

    /// First frame of the allocator's range.
    #[must_use]
    pub fn first(&self) -> u64 {
        self.first
    }

    /// One past the last frame of the allocator's range.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Allocates one frame.
    pub fn alloc(&mut self) -> Option<Frame> {
        if let Some(f) = self.free.pop() {
            return Some(f);
        }
        if self.next < self.limit {
            let f = Frame(self.next);
            self.next += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Allocates `count` physically contiguous frames aligned to `align`
    /// frames (for 2 MB pages: `count = align = 512`). Skipped frames are
    /// returned to the free list.
    pub fn alloc_contiguous(&mut self, count: u64, align: u64) -> Option<Frame> {
        debug_assert!(align.is_power_of_two());
        let start = (self.next + align - 1) & !(align - 1);
        if start + count > self.limit {
            return None;
        }
        for f in self.next..start {
            self.free.push(Frame(f));
        }
        self.next = start + count;
        Some(Frame(start))
    }

    /// Returns a frame to the allocator.
    pub fn free(&mut self, frame: Frame) {
        debug_assert!(frame.0 < self.limit);
        self.free.push(frame);
    }

    /// Number of frames still allocatable.
    #[must_use]
    pub fn available(&self) -> u64 {
        (self.limit - self.next) + self.free.len() as u64
    }
}

/// A process address space: a 4-level page table plus its allocator.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    root: Frame,
    max_phys_bits: u32,
    allocator: FrameAllocator,
    /// CATT-style partition: when present, table pages come from this
    /// dedicated pool at the top of physical memory instead of the data
    /// allocator, so data frames can never be groomed adjacent to them.
    table_allocator: Option<FrameAllocator>,
    /// Frames holding page-table pages (all levels, root included).
    table_frames: Vec<Frame>,
    mapped_pages: u64,
}

impl AddressSpace {
    /// Creates an empty address space over `mem`, for a machine whose
    /// physical addresses fit in `max_phys_bits` bits.
    ///
    /// Frame 0 is reserved (never handed out) so that a zero PFN always
    /// means "unmapped", as in the paper's zero-PTE analysis.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfMemory`] if `mem` cannot hold even the root
    /// table.
    pub fn new<M: PhysMem + ?Sized>(mem: &mut M, max_phys_bits: u32) -> Result<Self, MapError> {
        Self::starting_at_frame(mem, max_phys_bits, 1)
    }

    /// [`AddressSpace::new`] with every frame, root included, allocated
    /// from `first` upwards instead of from frame 1. Spaces started at
    /// frames further apart than either one allocates share no frame, so
    /// several processes can live in one physical memory.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfMemory`] if no frame at or above `first`
    /// fits in `mem`.
    pub fn starting_at_frame<M: PhysMem + ?Sized>(
        mem: &mut M,
        max_phys_bits: u32,
        first: u64,
    ) -> Result<Self, MapError> {
        debug_assert!(first >= 1, "frame 0 is reserved");
        let limit = (mem.size() / PAGE_SIZE as u64).min(1u64 << (max_phys_bits - 12));
        let mut allocator = FrameAllocator::new(first, limit);
        let root = allocator.alloc().ok_or(MapError::OutOfMemory)?;
        table::zero_page(mem, root);
        Ok(Self {
            root,
            max_phys_bits,
            allocator,
            table_allocator: None,
            table_frames: vec![root],
            mapped_pages: 0,
        })
    }

    /// Creates an address space with CATT-style physical isolation: table
    /// pages (root included) come from a dedicated `pool_frames`-frame pool
    /// at the top of physical memory, separated from the data allocator by
    /// `guard_frames` frames nothing ever allocates. With the guard band
    /// wider than the disturbance radius, no data frame an attacker can
    /// obtain is ever DRAM-adjacent to a page table.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfMemory`] if `mem` cannot hold the pool, the
    /// guard band, and at least one data frame.
    pub fn new_isolated<M: PhysMem + ?Sized>(
        mem: &mut M,
        max_phys_bits: u32,
        pool_frames: u64,
        guard_frames: u64,
    ) -> Result<Self, MapError> {
        let limit = (mem.size() / PAGE_SIZE as u64).min(1u64 << (max_phys_bits - 12));
        if pool_frames + guard_frames + 2 > limit {
            return Err(MapError::OutOfMemory);
        }
        let pool_first = limit - pool_frames;
        let mut table_allocator = FrameAllocator::new(pool_first, limit);
        let allocator = FrameAllocator::new(1, pool_first - guard_frames);
        let root = table_allocator.alloc().ok_or(MapError::OutOfMemory)?;
        table::zero_page(mem, root);
        Ok(Self {
            root,
            max_phys_bits,
            allocator,
            table_allocator: Some(table_allocator),
            table_frames: vec![root],
            mapped_pages: 0,
        })
    }

    /// The isolated table pool as `(first, limit)` frame numbers, if this
    /// space was built with [`AddressSpace::new_isolated`].
    #[must_use]
    pub fn table_pool(&self) -> Option<(u64, u64)> {
        self.table_allocator
            .as_ref()
            .map(|a| (a.first(), a.limit()))
    }

    fn alloc_table_frame(&mut self) -> Option<Frame> {
        match &mut self.table_allocator {
            Some(pool) => pool.alloc(),
            None => self.allocator.alloc(),
        }
    }

    /// The PML4 root frame (CR3).
    #[must_use]
    pub fn root(&self) -> Frame {
        self.root
    }

    /// Physical address bits the machine uses (`M` in Table IV).
    #[must_use]
    pub fn max_phys_bits(&self) -> u32 {
        self.max_phys_bits
    }

    /// A walker for this address space.
    #[must_use]
    pub fn walker(&self) -> Walker {
        Walker::new(self.root, self.max_phys_bits)
    }

    /// Number of pages currently mapped.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Frames holding page-table pages, root first.
    #[must_use]
    pub fn table_frames(&self) -> &[Frame] {
        &self.table_frames
    }

    /// Allocates a data frame.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfMemory`] when physical memory is exhausted.
    pub fn alloc_frame<M: PhysMem + ?Sized>(&mut self, _mem: &mut M) -> Result<Frame, MapError> {
        self.allocator.alloc().ok_or(MapError::OutOfMemory)
    }

    /// Returns a previously allocated frame to the allocator's free list.
    /// Freed frames are reused (LIFO) before the bump watermark advances —
    /// the reuse behaviour memory-massaging attacks exploit to steer where
    /// the next page-table page lands.
    pub fn free_frame(&mut self, frame: Frame) {
        self.allocator.free(frame);
    }

    /// Maps the 4 KB page containing `va` to `frame` with `flags`.
    ///
    /// Intermediate table pages are allocated (and zeroed) on demand.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if the leaf slot is occupied;
    /// [`MapError::OutOfMemory`] if a table page cannot be allocated.
    pub fn map<M: PhysMem + ?Sized>(
        &mut self,
        mem: &mut M,
        va: VirtAddr,
        frame: Frame,
        flags: PteFlags,
    ) -> Result<(), MapError> {
        let mut table = self.root;
        for level in (1..4).rev() {
            let index = va.level_index(level);
            let entry = table::read_entry(mem, table, index);
            table = if entry.present() {
                entry.frame()
            } else {
                let new = self.alloc_table_frame().ok_or(MapError::OutOfMemory)?;
                table::zero_page(mem, new);
                table::write_entry(mem, table, index, Pte::new(new, PteFlags::table()));
                self.table_frames.push(new);
                new
            };
        }
        let index = va.pt_index();
        if table::read_entry(mem, table, index).present() {
            return Err(MapError::AlreadyMapped);
        }
        table::write_entry(mem, table, index, Pte::new(frame, flags));
        self.mapped_pages += 1;
        Ok(())
    }

    /// Maps the 2 MB huge page containing `va` to the 2 MB-aligned `frame`
    /// with `flags` (the PS bit is set automatically). Larger pages reduce
    /// page-walk frequency — and with it PT-Guard's residual overhead, as
    /// the paper notes in Section III.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if the PD slot is occupied;
    /// [`MapError::OutOfMemory`] on table-page exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `va` or `frame` is not 2 MB aligned.
    pub fn map_huge_2mb<M: PhysMem + ?Sized>(
        &mut self,
        mem: &mut M,
        va: VirtAddr,
        frame: Frame,
        flags: PteFlags,
    ) -> Result<(), MapError> {
        assert_eq!(
            va.as_u64() & ((1 << 21) - 1),
            0,
            "huge VA must be 2 MB aligned"
        );
        assert_eq!(frame.0 & 0x1ff, 0, "huge frame must be 2 MB aligned");
        let mut table = self.root;
        for level in (2..4).rev() {
            let index = va.level_index(level);
            let entry = table::read_entry(mem, table, index);
            table = if entry.present() {
                entry.frame()
            } else {
                let new = self.alloc_table_frame().ok_or(MapError::OutOfMemory)?;
                table::zero_page(mem, new);
                table::write_entry(mem, table, index, Pte::new(new, PteFlags::table()));
                self.table_frames.push(new);
                new
            };
        }
        let index = va.pd_index();
        if table::read_entry(mem, table, index).present() {
            return Err(MapError::AlreadyMapped);
        }
        let pte = Pte::from_raw(Pte::new(frame, flags).raw() | crate::x86_64::bits::HUGE_PAGE);
        table::write_entry(mem, table, index, pte);
        self.mapped_pages += 512;
        Ok(())
    }

    /// Unmaps the page containing `va`, returning the frame it mapped.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no leaf mapping exists.
    pub fn unmap<M: PhysMem + ?Sized>(
        &mut self,
        mem: &mut M,
        va: VirtAddr,
    ) -> Result<Frame, MapError> {
        let mut table = self.root;
        for level in (1..4).rev() {
            let entry = table::read_entry(mem, table, va.level_index(level));
            if !entry.present() {
                return Err(MapError::NotMapped);
            }
            table = entry.frame();
        }
        let index = va.pt_index();
        let leaf = table::read_entry(mem, table, index);
        if !leaf.present() {
            return Err(MapError::NotMapped);
        }
        table::write_entry(mem, table, index, Pte::ZERO);
        self.mapped_pages -= 1;
        Ok(leaf.frame())
    }

    /// Translates `va` through the page table.
    ///
    /// # Errors
    ///
    /// See [`Walker::walk`].
    pub fn translate<M: PhysMem + ?Sized>(
        &self,
        mem: &M,
        va: VirtAddr,
    ) -> Result<PhysAddr, TranslationError> {
        self.walker().translate(mem, va)
    }

    /// Convenience: allocate a fresh frame and map it at `va`.
    ///
    /// # Errors
    ///
    /// Propagates allocation and mapping failures.
    pub fn map_new<M: PhysMem + ?Sized>(
        &mut self,
        mem: &mut M,
        va: VirtAddr,
        flags: PteFlags,
    ) -> Result<Frame, MapError> {
        let frame = self.alloc_frame(mem)?;
        self.map(mem, va, frame, flags)?;
        Ok(frame)
    }

    /// Walks the whole radix tree and returns every leaf mapping as
    /// `(va, frame, pte, is_huge)` in ascending virtual order — the
    /// kernel's view (`/proc/pid/pagemap`-style) used for auditing and for
    /// OS recovery actions.
    #[must_use]
    pub fn iter_mappings<M: PhysMem + ?Sized>(&self, mem: &M) -> Vec<(VirtAddr, Frame, Pte, bool)> {
        let mut out = Vec::new();
        let root = self.root;
        for i4 in 0..PTES_PER_PAGE {
            let e4 = table::read_entry(mem, root, i4);
            if !e4.present() {
                continue;
            }
            for i3 in 0..PTES_PER_PAGE {
                let e3 = table::read_entry(mem, e4.frame(), i3);
                if !e3.present() {
                    continue;
                }
                for i2 in 0..PTES_PER_PAGE {
                    let e2 = table::read_entry(mem, e3.frame(), i2);
                    if !e2.present() {
                        continue;
                    }
                    let va_base = ((i4 as u64) << 39) | ((i3 as u64) << 30) | ((i2 as u64) << 21);
                    if e2.huge_page() {
                        out.push((VirtAddr::new(va_base), e2.frame(), e2, true));
                        continue;
                    }
                    for i1 in 0..PTES_PER_PAGE {
                        let e1 = table::read_entry(mem, e2.frame(), i1);
                        if e1.present() {
                            let va = va_base | ((i1 as u64) << 12);
                            out.push((VirtAddr::new(va), e1.frame(), e1, false));
                        }
                    }
                }
            }
        }
        out
    }

    /// Physical line addresses of every PTE cacheline in this address space's
    /// page-table pages (8 PTEs per line, 64 lines per table page). These are
    /// the lines PT-Guard must protect and the lines the Rowhammer exploits
    /// target.
    #[must_use]
    pub fn pte_line_addrs(&self) -> Vec<PhysAddr> {
        let lines_per_page = PAGE_SIZE / CACHELINE_SIZE;
        let mut addrs = Vec::with_capacity(self.table_frames.len() * lines_per_page);
        for f in &self.table_frames {
            let base = f.base().as_u64();
            for i in 0..lines_per_page as u64 {
                addrs.push(PhysAddr::new(base + i * CACHELINE_SIZE as u64));
            }
        }
        addrs
    }

    /// Migrates the page-table page at `victim` to a freshly allocated
    /// frame: copies all 512 entries, repoints the parent entry, and
    /// returns the new frame. This is the OS response the paper sketches
    /// for PT-Guard integrity exceptions (Section IV-G): "remap the row
    /// experiencing bit flips to a different physical row". The caller is
    /// responsible for TLB/paging-structure-cache invalidation.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if `victim` is not one of this space's table
    /// frames or is the root (CR3 migration additionally requires updating
    /// the register, which this model does not track);
    /// [`MapError::OutOfMemory`] if no fresh frame is available.
    pub fn migrate_table_page<M: PhysMem + ?Sized>(
        &mut self,
        mem: &mut M,
        victim: Frame,
    ) -> Result<Frame, MapError> {
        let idx = self
            .table_frames
            .iter()
            .position(|&f| f == victim)
            .ok_or(MapError::NotMapped)?;
        if victim == self.root {
            return Err(MapError::NotMapped);
        }
        // Find the parent entry referencing the victim.
        let parent = self
            .table_frames
            .iter()
            .find_map(|&t| {
                if t == victim {
                    return None;
                }
                (0..PTES_PER_PAGE).find_map(|i| {
                    let pte = table::read_entry(mem, t, i);
                    (pte.present() && pte.frame() == victim).then_some((t, i, pte))
                })
            })
            .ok_or(MapError::NotMapped)?;

        let fresh = self.alloc_table_frame().ok_or(MapError::OutOfMemory)?;
        for i in 0..PTES_PER_PAGE {
            table::write_entry(mem, fresh, i, table::read_entry(mem, victim, i));
        }
        let (pt, pi, mut pte) = parent;
        pte.set_frame(fresh);
        table::write_entry(mem, pt, pi, pte);
        self.table_frames[idx] = fresh;
        match &mut self.table_allocator {
            Some(pool) => pool.free(victim),
            None => self.allocator.free(victim),
        }
        Ok(fresh)
    }

    /// Checks the OS invariant over every PTE in every table page: unused
    /// PFN bits and ignored bits are zero. Returns the number of violations.
    pub fn verify_os_invariant<M: PhysMem + ?Sized>(&self, mem: &M) -> usize {
        let mut violations = 0;
        for f in &self.table_frames {
            for i in 0..PTES_PER_PAGE {
                let pte = table::read_entry(mem, *f, i);
                if !pte.os_invariant_holds(self.max_phys_bits) {
                    violations += 1;
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VecMemory;

    fn setup() -> (VecMemory, AddressSpace) {
        let mut mem = VecMemory::new(8 << 20);
        let space = AddressSpace::new(&mut mem, 32).unwrap();
        (mem, space)
    }

    #[test]
    fn isolated_space_keeps_tables_inside_the_pool() {
        let mut mem = VecMemory::new(8 << 20); // 2048 frames
        let mut space = AddressSpace::new_isolated(&mut mem, 32, 64, 16).unwrap();
        let (pool_first, pool_limit) = space.table_pool().unwrap();
        assert_eq!((pool_first, pool_limit), (2048 - 64, 2048));
        // Map across distant VAs: every table page (root included) must sit
        // in the pool, every data frame strictly below the guard band.
        for va in [0x1000u64, 0x7f00_0000_0000, 0x40_0000_0000] {
            space
                .map_new(&mut mem, VirtAddr::new(va), PteFlags::user_data())
                .unwrap();
        }
        for f in space.table_frames() {
            assert!(
                (pool_first..pool_limit).contains(&f.0),
                "table frame {f:?} escaped the pool"
            );
        }
        let data = space.alloc_frame(&mut mem).unwrap();
        assert!(data.0 < pool_first - 16, "data frame inside pool/guard");
        assert!(space.translate(&mem, VirtAddr::new(0x1234)).is_ok());
    }

    #[test]
    fn isolated_migration_stays_in_the_pool() {
        let mut mem = VecMemory::new(8 << 20);
        let mut space = AddressSpace::new_isolated(&mut mem, 32, 64, 16).unwrap();
        let (pool_first, pool_limit) = space.table_pool().unwrap();
        let va = VirtAddr::new(0x1000);
        space.map_new(&mut mem, va, PteFlags::user_data()).unwrap();
        let victim = *space.table_frames().last().unwrap();
        let fresh = space.migrate_table_page(&mut mem, victim).unwrap();
        assert!((pool_first..pool_limit).contains(&fresh.0));
        assert!(space.translate(&mem, va).is_ok());
    }

    #[test]
    fn default_space_has_no_pool() {
        let (_, space) = setup();
        assert_eq!(space.table_pool(), None);
    }

    #[test]
    fn map_translate_unmap_cycle() {
        let (mut mem, mut space) = setup();
        let va = VirtAddr::new(0x5555_4444_3000);
        let frame = space.alloc_frame(&mut mem).unwrap();
        space
            .map(&mut mem, va, frame, PteFlags::user_data())
            .unwrap();
        let pa = space
            .translate(&mem, VirtAddr::new(va.as_u64() + 0x123))
            .unwrap();
        assert_eq!(pa, PhysAddr::from_frame(frame, 0x123));
        assert_eq!(space.unmap(&mut mem, va).unwrap(), frame);
        assert!(space.translate(&mem, va).is_err());
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut space) = setup();
        let va = VirtAddr::new(0x1000);
        space.map_new(&mut mem, va, PteFlags::user_data()).unwrap();
        let f = space.alloc_frame(&mut mem).unwrap();
        assert_eq!(
            space.map(&mut mem, va, f, PteFlags::user_data()),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn unmap_of_unmapped_fails() {
        let (mut mem, mut space) = setup();
        assert_eq!(
            space.unmap(&mut mem, VirtAddr::new(0x1000)),
            Err(MapError::NotMapped)
        );
    }

    #[test]
    fn table_frames_grow_with_distant_mappings() {
        let (mut mem, mut space) = setup();
        assert_eq!(space.table_frames().len(), 1); // root only
        space
            .map_new(&mut mem, VirtAddr::new(0x1000), PteFlags::user_data())
            .unwrap();
        assert_eq!(space.table_frames().len(), 4); // +PDPT +PD +PT
                                                   // Adjacent page reuses all intermediate tables.
        space
            .map_new(&mut mem, VirtAddr::new(0x2000), PteFlags::user_data())
            .unwrap();
        assert_eq!(space.table_frames().len(), 4);
        // A distant VA needs a fresh subtree.
        space
            .map_new(
                &mut mem,
                VirtAddr::new(0x7f00_0000_0000),
                PteFlags::user_data(),
            )
            .unwrap();
        assert_eq!(space.table_frames().len(), 7);
    }

    #[test]
    fn os_invariant_holds_after_many_maps() {
        let (mut mem, mut space) = setup();
        for i in 0..200u64 {
            space
                .map_new(
                    &mut mem,
                    VirtAddr::new(0x4000_0000 + i * PAGE_SIZE as u64),
                    PteFlags::user_data(),
                )
                .unwrap();
        }
        assert_eq!(space.verify_os_invariant(&mem), 0);
        assert_eq!(space.mapped_pages(), 200);
    }

    #[test]
    fn frame_zero_is_never_allocated() {
        let (mut mem, mut space) = setup();
        for _ in 0..100 {
            assert_ne!(space.alloc_frame(&mut mem).unwrap(), Frame(0));
        }
    }

    #[test]
    fn out_of_memory_reported() {
        let mut mem = VecMemory::new(4 * PAGE_SIZE); // 4 frames; 1 reserved, 1 root
        let mut space = AddressSpace::new(&mut mem, 32).unwrap();
        assert!(space.alloc_frame(&mut mem).is_ok());
        assert!(space.alloc_frame(&mut mem).is_ok());
        assert_eq!(space.alloc_frame(&mut mem), Err(MapError::OutOfMemory));
    }

    #[test]
    fn pte_line_addrs_cover_table_pages() {
        let (mut mem, mut space) = setup();
        space
            .map_new(&mut mem, VirtAddr::new(0x1000), PteFlags::user_data())
            .unwrap();
        let lines = space.pte_line_addrs();
        assert_eq!(lines.len(), 4 * (PAGE_SIZE / CACHELINE_SIZE));
        // Each line address is line-aligned and inside a table frame.
        for l in &lines {
            assert_eq!(l.line_offset(), 0);
            assert!(space.table_frames().contains(&l.frame()));
        }
    }

    #[test]
    fn iter_mappings_reports_every_leaf() {
        let mut mem = VecMemory::new(32 << 20);
        let mut space = AddressSpace::new(&mut mem, 32).unwrap();
        let mut expected = Vec::new();
        for i in 0..100u64 {
            let va = VirtAddr::new(0x7f00_0000_0000 + i * PAGE_SIZE as u64);
            let f = space.map_new(&mut mem, va, PteFlags::user_data()).unwrap();
            expected.push((va, f));
        }
        // Plus one huge page.
        let huge_frame = space.allocator.alloc_contiguous(512, 512).unwrap();
        space
            .map_huge_2mb(
                &mut mem,
                VirtAddr::new(0x4000_0000),
                huge_frame,
                PteFlags::user_data(),
            )
            .unwrap();

        let mappings = space.iter_mappings(&mem);
        assert_eq!(mappings.len(), 101);
        for (va, f) in expected {
            assert!(
                mappings
                    .iter()
                    .any(|&(v, fr, _, huge)| v == va && fr == f && !huge),
                "{va}"
            );
        }
        assert!(mappings.iter().any(|&(v, fr, _, huge)| {
            v == VirtAddr::new(0x4000_0000) && fr == huge_frame && huge
        }));
        // Ascending virtual order.
        for w in mappings.windows(2) {
            assert!(w[0].0.vpn() < w[1].0.vpn());
        }
    }

    #[test]
    fn migrate_table_page_preserves_translations() {
        let (mut mem, mut space) = setup();
        for i in 0..600u64 {
            space
                .map_new(
                    &mut mem,
                    VirtAddr::new(0x4000_0000 + i * PAGE_SIZE as u64),
                    PteFlags::user_data(),
                )
                .unwrap();
        }
        let before: Vec<(VirtAddr, PhysAddr)> = (0..600u64)
            .map(|i| {
                let va = VirtAddr::new(0x4000_0000 + i * PAGE_SIZE as u64);
                (va, space.translate(&mem, va).unwrap())
            })
            .collect();
        // Migrate every non-root table page (simulating an OS fleeing a
        // Rowhammer-afflicted region).
        let victims: Vec<Frame> = space.table_frames()[1..].to_vec();
        for v in victims {
            let fresh = space.migrate_table_page(&mut mem, v).unwrap();
            assert_ne!(fresh, v);
            assert!(!space.table_frames().contains(&v));
        }
        for (va, pa) in before {
            assert_eq!(space.translate(&mem, va).unwrap(), pa, "{va}");
        }
        assert_eq!(space.verify_os_invariant(&mem), 0);
    }

    #[test]
    fn migrate_rejects_root_and_foreign_frames() {
        let (mut mem, mut space) = setup();
        space
            .map_new(&mut mem, VirtAddr::new(0x1000), PteFlags::user_data())
            .unwrap();
        let root = space.root();
        assert_eq!(
            space.migrate_table_page(&mut mem, root),
            Err(MapError::NotMapped)
        );
        assert_eq!(
            space.migrate_table_page(&mut mem, Frame(0xdead)),
            Err(MapError::NotMapped)
        );
    }

    #[test]
    fn huge_page_map_and_translate() {
        let mut mem = VecMemory::new(16 << 20);
        let mut space = AddressSpace::new(&mut mem, 32).unwrap();
        let frame = space.allocator.alloc_contiguous(512, 512).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        space
            .map_huge_2mb(&mut mem, va, frame, PteFlags::user_data())
            .unwrap();
        // Translation works across the whole 2 MB span via the walker.
        for off in [0u64, 0x1000, 0x1f_f000, 0x12_3456] {
            let pa = space
                .translate(&mem, VirtAddr::new(va.as_u64() + off))
                .unwrap();
            assert_eq!(pa.as_u64(), frame.base().as_u64() + off, "off={off:#x}");
        }
        assert_eq!(space.mapped_pages(), 512);
        // The huge mapping consumed only PML4+PDPT+PD table pages.
        assert_eq!(space.table_frames().len(), 3);
    }

    #[test]
    fn huge_page_rejects_misalignment() {
        let mut mem = VecMemory::new(16 << 20);
        let mut space = AddressSpace::new(&mut mem, 32).unwrap();
        let frame = space.allocator.alloc_contiguous(512, 512).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = space.map_huge_2mb(
                &mut mem,
                VirtAddr::new(0x4000_1000),
                frame,
                PteFlags::user_data(),
            );
        }));
        assert!(r.is_err(), "misaligned VA must be rejected");
    }

    #[test]
    fn contiguous_allocation_is_aligned() {
        let mut a = FrameAllocator::new(1, 4096);
        let f = a.alloc_contiguous(512, 512).unwrap();
        assert_eq!(f.0 % 512, 0);
        // Skipped frames are recycled.
        assert!(a.alloc().unwrap().0 < f.0);
    }

    #[test]
    fn allocator_free_list_reuses() {
        let mut a = FrameAllocator::new(1, 4);
        let f1 = a.alloc().unwrap();
        let _f2 = a.alloc().unwrap();
        a.free(f1);
        assert_eq!(a.alloc().unwrap(), f1);
    }
}
