//! System configuration (Table III of the paper).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets for 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry — zero ways, a capacity below one
    /// line, a capacity that does not divide evenly into the ways, or a
    /// non-power-of-two set count — so bad configurations fail loudly at
    /// construction instead of silently mis-masking in `Cache::index()`.
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache geometry needs at least one way");
        let lines = self.size_bytes / 64;
        assert!(
            lines > 0,
            "cache capacity must hold at least one 64-byte line (got {} bytes)",
            self.size_bytes
        );
        assert!(
            lines.is_multiple_of(self.ways),
            "capacity ({} lines) must divide evenly into {} ways",
            lines,
            self.ways
        );
        let sets = lines / self.ways;
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        sets
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSysConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L2 cache.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// TLB entries (fully associative). A TLB hit costs no cycle: it is
    /// folded into the pipeline.
    pub tlb_entries: usize,
    /// MMU (page-walk) cache capacity in 8-byte entries.
    pub mmu_cache_entries: usize,
    /// MMU cache associativity.
    pub mmu_cache_ways: usize,
    /// MMU cache hit latency in cycles.
    pub mmu_cache_latency_cycles: u64,
    /// Memory-level parallelism: the bounded window of in-flight memory
    /// operations the `simx` drivers issue against the event engine. `1`
    /// (the default) is the paper's blocking in-order core; larger windows
    /// overlap misses across banks and let the controller batch MAC
    /// verification over each drain.
    pub mlp: usize,
    /// Memory channels: one [`crate::MemoryController`] + DRAM device per
    /// channel behind the shared LLC, with lines spread by the XOR-folded
    /// [`dram::ChannelInterleave`]. Must be a power of two. `1` (the
    /// default) is byte-identical to the single-controller model.
    pub channels: usize,
}

impl Default for MemSysConfig {
    /// The paper's baseline: 32 KB/8-way L1, 256 KB/16-way L2, 2 MB/16-way
    /// LLC, 64-entry TLB, 8 KB/4-way MMU cache. The 3 GHz core clock is
    /// [`clock::CORE_KHZ`].
    fn default() -> Self {
        Self {
            l1d: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                latency_cycles: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                ways: 16,
                latency_cycles: 12,
            },
            llc: CacheConfig {
                size_bytes: 2 << 20,
                ways: 16,
                latency_cycles: 38,
            },
            tlb_entries: 64,
            mmu_cache_entries: (8 << 10) / 8,
            mmu_cache_ways: 4,
            mmu_cache_latency_cycles: 2,
            mlp: 1,
            channels: 1,
        }
    }
}

/// Integer fixed-point clock conversion.
///
/// DRAM timing parameters are quoted in (fractional) nanoseconds while the
/// core runs in cycles. Converting each latency contribution separately with
/// `f64::round` accumulates up to half a cycle of drift *per contribution*
/// and makes totals depend on how the work happened to be split. Instead,
/// latencies are accumulated in integer picoseconds (`u128`, immune to
/// overflow for any simulated duration) and converted to cycles at a single
/// rounding point.
pub mod clock {
    pub use dram::timing::ns_to_ps;

    /// The core clock in integer kHz (Table III: 3 GHz). Every DRAM
    /// picosecond total becomes core cycles at this rate.
    pub const CORE_KHZ: u64 = 3_000_000;

    /// Converts a core clock in GHz to integer kHz.
    #[must_use]
    pub fn ghz_to_khz(ghz: f64) -> u64 {
        (ghz * 1e6).round() as u64
    }

    /// Converts accumulated picoseconds to core cycles, rounding to nearest
    /// (the single rounding point).
    #[must_use]
    pub fn ps_to_cycles(ps: u128, khz: u64) -> u64 {
        let cycles = (ps * u128::from(khz) + 500_000_000) / 1_000_000_000;
        u64::try_from(cycles).expect("cycle count overflows u64")
    }

    /// Converts core cycles to integer picoseconds — the inverse of
    /// [`ps_to_cycles`]. The arena's slowdown accounting expresses a run's
    /// baseline cost in this domain so that refresh and throttle overheads
    /// (already integer picoseconds) add without a float round-trip.
    #[must_use]
    pub fn cycles_to_ps(cycles: u64, khz: u64) -> u128 {
        (u128::from(cycles) * 1_000_000_000 + u128::from(khz) / 2) / u128::from(khz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_geometry() {
        let c = MemSysConfig::default();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 256);
        assert_eq!(c.llc.sets(), 2048);
        assert_eq!(c.tlb_entries, 64);
        assert_eq!(c.mmu_cache_entries, 1024);
        assert_eq!(c.mlp, 1, "Table III's core is blocking and in-order");
    }

    #[test]
    fn cycles_ps_round_trip() {
        let khz = clock::ghz_to_khz(3.0);
        for cycles in [0u64, 1, 2, 29, 30, 1_000_000, 123_456_789] {
            assert_eq!(
                clock::ps_to_cycles(clock::cycles_to_ps(cycles, khz), khz),
                cycles
            );
        }
        // 1 cycle at 3 GHz is 333.333… ps, rounded to nearest.
        assert_eq!(clock::cycles_to_ps(1, khz), 333);
        assert_eq!(clock::cycles_to_ps(3, khz), 1000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        // 3 lines direct-mapped: 3 sets, not a power of two.
        let _ = CacheConfig {
            size_bytes: 192,
            ways: 1,
            latency_cycles: 1,
        }
        .sets();
    }
}
