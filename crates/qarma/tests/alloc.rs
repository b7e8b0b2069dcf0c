//! Regression pin for the allocation-free hot path: `encrypt`, `decrypt`
//! and the line entry point `encrypt_line` (on whichever kernel this CPU
//! selects) must perform zero heap allocations after construction.
//!
//! Lives in its own integration-test binary so the counting global allocator
//! does not leak into the unit tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qarma::{Qarma128, Sbox};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn cipher_hot_path_is_allocation_free() {
    // Build the cipher before the counting window opens.
    let q128 = Qarma128::new(
        [
            0x84be85ce9804e94bec2802d4e0a488e4,
            0x10235374a49bccdde2f10325a89bdcfe,
        ],
        9,
        Sbox::Sigma1,
    );

    let before = allocations();
    let mut acc128 = 0u128;
    let mut acc_line = 0u128;
    for i in 0..64u64 {
        let ct = q128.encrypt(0xfb62_3599 ^ u128::from(i), u128::from(i));
        acc128 = acc128.wrapping_add(q128.decrypt(ct, u128::from(i)));
        let chunks = [0u128, 1, 2, 3].map(|c| u128::from(i) << c);
        acc_line ^= q128.encrypt_line(chunks, u128::from(i) << 6)[3];
    }
    let after = allocations();

    // Keep the work observable so it cannot be optimized away.
    assert_ne!(acc128, 0);
    assert_ne!(acc_line, 0);
    assert_eq!(
        after - before,
        0,
        "QARMA hot path allocated {} time(s) ({:?} line kernel)",
        after - before,
        q128.line_kernel()
    );
}
