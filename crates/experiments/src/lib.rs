//! # Experiment harness
//!
//! One module per table/figure of the paper's evaluation, and per study
//! this reproduction adds, each with the functions that regenerate its
//! artefact and the renderer that prints its rows/series.
//! [`orchestrate`] maps every artefact name onto one job over them, and the
//! `exp` binary dispatches by artefact name:
//!
//! ```text
//! cargo run -p ptguard-experiments --release --bin exp -- fig6
//! cargo run -p ptguard-experiments --release --bin exp -- all --quick
//! ```
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.

#![warn(missing_docs)]

pub mod ablation;
pub mod arena;
pub mod attack;
pub mod channels;
pub mod coverage;
pub mod diag;
pub mod exploit;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fullmem;
pub mod mlp;
pub mod multicore;
pub mod oracle;
pub mod orchestrate;
pub mod priorwork;
pub mod report;
pub mod rth_sweep;
pub mod security;
pub mod serve;
pub mod storage;
pub mod tables;

/// Mixes a sweep seed into a module's base RNG seed. Seed 0 leaves the
/// base untouched, so default runs stay byte-identical to the historical
/// single-seed outputs; any other seed decorrelates every internal RNG
/// stream while keeping runs reproducible.
#[must_use]
pub fn salted(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// How much work an experiment run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run (used by tests).
    Trial,
    /// Default: minutes-scale, statistically steady.
    Quick,
    /// Closest to the paper's volumes this side of gem5.
    Full,
}

impl Scale {
    /// The scale's canonical CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Trial => "trial",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Parses a canonical CLI name back into a scale.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Scale> {
        match s {
            "trial" => Some(Scale::Trial),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Measured instructions per workload for timing experiments.
    #[must_use]
    pub fn instructions(self) -> u64 {
        match self {
            Scale::Trial => 60_000,
            Scale::Quick => 400_000,
            Scale::Full => 2_000_000,
        }
    }

    /// PTE cachelines per workload for the correction study.
    #[must_use]
    pub fn correction_lines(self) -> usize {
        match self {
            Scale::Trial => 400,
            Scale::Quick => 4_000,
            Scale::Full => 40_000,
        }
    }

    /// Census processes for Figure 8.
    #[must_use]
    pub fn census_processes(self) -> usize {
        match self {
            Scale::Trial => 60,
            Scale::Quick => 623,
            Scale::Full => 623,
        }
    }
}
