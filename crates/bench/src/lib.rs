//! Shared fixtures and the std-only timing harness of the `bench` binary,
//! which times the host cost of the code no `perfbench` workload isolates:
//! the QARMA/MAC kernels, the serve coalescer's drain and the arena's
//! mitigation trackers. The simulator's end-to-end host cost is
//! `perfbench`'s job.
//!
//! The harness is in-tree ([`harness`]) because the workspace takes no
//! external dependencies: each measurement is auto-calibrated to a fixed
//! wall-clock budget and reported as the median ns/iter of several
//! samples, with the fastest and slowest beside it.

use ptguard::line::Line;

pub mod harness;

/// A representative protected PTE line (6 contiguous entries + 2 zero).
#[must_use]
pub fn sample_pte_line() -> Line {
    let flags = 0x8000_0000_0000_0027u64;
    let mut line = Line::ZERO;
    for i in 0..6u64 {
        line.set_word(i as usize, ((0x4_2000 + i) << 12) | flags);
    }
    line
}
