//! A minimal std-only timing harness for the `bench` binary.
//!
//! [`measure`] calibrates a closure so one sample takes roughly the given
//! budget ([`sample_budget`]), then times [`SAMPLES`] samples and reports
//! the median ns/iter together with the fastest and slowest sample.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// Wall-clock budget per sample.
pub const SAMPLE_BUDGET: Duration = Duration::from_millis(25);

/// Samples per benchmark; the median is reported.
pub const SAMPLES: usize = 7;

/// The per-sample budget: [`SAMPLE_BUDGET`], or a tenth of it for smoke
/// runs (`bench --fast`).
#[must_use]
pub fn sample_budget(fast: bool) -> Duration {
    if fast {
        SAMPLE_BUDGET / 10
    } else {
        SAMPLE_BUDGET
    }
}

/// One calibrated measurement: the median, fastest, and slowest sample in
/// ns/iter.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median ns per iteration over [`SAMPLES`] samples.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub lo_ns: f64,
    /// Slowest sample, ns per iteration.
    pub hi_ns: f64,
}

impl Measurement {
    /// The same measurement with every timing divided by `n`: the per-item
    /// cost when one iteration processes `n` items.
    #[must_use]
    pub fn per(self, n: f64) -> Self {
        Self {
            median_ns: self.median_ns / n,
            lo_ns: self.lo_ns / n,
            hi_ns: self.hi_ns / n,
        }
    }
}

/// Calibrates `f` to the budget and times it. The closure's return value
/// is passed through [`black_box`], so callers need not black-box their
/// own results.
pub fn measure<R>(budget: Duration, mut f: impl FnMut() -> R) -> Measurement {
    // Calibration: double the iteration count until a batch exceeds 1% of
    // the budget, then scale up to fill it.
    let mut iters: u64 = 1;
    let per_iter = loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= budget / 100 || iters >= 1 << 30 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    };
    let per_sample = ((budget.as_secs_f64() / per_iter.max(1e-12)) as u64).clamp(1, 1 << 32);

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..per_sample {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / per_sample as f64);
    }
    samples.sort_by(f64::total_cmp);
    Measurement {
        median_ns: samples[SAMPLES / 2] * 1e9,
        lo_ns: samples[0] * 1e9,
        hi_ns: samples[SAMPLES - 1] * 1e9,
    }
}
