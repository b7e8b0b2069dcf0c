//! DRAM organisation and the physical-address ↔ row mapping.

use pagetable::addr::PhysAddr;

/// Identifies one row of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Bank index (flattened over ranks).
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
}

impl RowId {
    /// The row at `distance` above this one (same bank), if it exists.
    #[must_use]
    pub fn offset(self, distance: i64, rows_per_bank: u32) -> Option<RowId> {
        let row = i64::from(self.row) + distance;
        if row < 0 || row >= i64::from(rows_per_bank) {
            None
        } else {
            Some(RowId {
                bank: self.bank,
                row: row as u32,
            })
        }
    }
}

/// The channel-interleaving function of a multi-channel memory system.
///
/// Real server controllers pick the channel by XOR-folding several strides
/// of the line address — low (consecutive-line) bits, bank-stride bits, and
/// rank/row-stride bits — so that neither streaming nor power-of-two-strided
/// traffic resonates onto a single channel. We model exactly that: the
/// channel of a line is a pure function of its physical address, identical
/// on every core and every run, so multi-channel simulations stay
/// deterministic.
///
/// `channels == 1` maps every address to channel 0 and the multi-channel
/// system degenerates, bit for bit, to the single-controller model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelInterleave {
    /// Number of channels (power of two).
    pub channels: u32,
}

impl ChannelInterleave {
    /// Cache-line shift: channels interleave at line (64 B) granularity.
    const LINE_SHIFT: u32 = 6;
    /// Shift to the bank-stride bits of the line address (128 lines = one
    /// 8 KB row buffer under the default geometry).
    const BANK_SHIFT: u32 = 7;
    /// Shift to the row-stride bits (16 banks × 128 lines).
    const ROW_SHIFT: u32 = 14;
    /// log2 of ranks per channel, folded into the hash as an extra stride
    /// (a single rank pair).
    const RANK_BITS: u32 = 1;

    /// An interleave over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics unless `channels` is a nonzero power of two.
    #[must_use]
    pub fn new(channels: u32) -> Self {
        assert!(
            channels.is_power_of_two(),
            "channel count must be a power of two, got {channels}"
        );
        Self { channels }
    }

    /// The channel of a physical address (constant 0 for one channel).
    #[must_use]
    pub fn channel_of(&self, addr: PhysAddr) -> u32 {
        if self.channels == 1 {
            return 0;
        }
        let line = addr.as_u64() >> Self::LINE_SHIFT;
        let mask = u64::from(self.channels - 1);
        let folded =
            (line ^ (line >> (Self::BANK_SHIFT + Self::RANK_BITS)) ^ (line >> Self::ROW_SHIFT))
                & mask;
        folded as u32
    }
}

/// DRAM organisation parameters.
///
/// The default models the paper's baseline: 4 GB DDR4, 16 banks, 8 KB rows.
/// Addresses map row-major: consecutive addresses fill a row, banks
/// interleave above that, rows above banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of banks (rank × bank-group flattened).
    pub banks: u32,
    /// Row size in bytes (the row buffer / page size of the device).
    pub row_bytes: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
}

impl Default for DramGeometry {
    fn default() -> Self {
        // 16 banks × 32768 rows × 8 KB = 4 GB.
        Self {
            banks: 16,
            row_bytes: 8192,
            rows_per_bank: 32768,
        }
    }
}

impl DramGeometry {
    /// Geometry for a device of `total_bytes`, keeping default bank count
    /// and row size.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a multiple of one bank-row stripe.
    #[must_use]
    pub fn with_capacity(total_bytes: u64) -> Self {
        let base = Self::default();
        let stripe = u64::from(base.banks) * u64::from(base.row_bytes);
        assert!(
            total_bytes.is_multiple_of(stripe),
            "capacity must be a multiple of {stripe} bytes"
        );
        Self {
            rows_per_bank: (total_bytes / stripe) as u32,
            ..base
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        u64::from(self.banks) * u64::from(self.row_bytes) * u64::from(self.rows_per_bank)
    }

    /// Maps a physical address to its row. Same-bank neighbour rows are
    /// `banks × row_bytes` apart in physical address, the stride Rowhammer
    /// attacks use to find aggressors.
    #[inline]
    #[must_use]
    pub fn row_of(&self, addr: PhysAddr) -> RowId {
        let a = addr.as_u64();
        debug_assert!(a < self.capacity(), "address {a:#x} beyond capacity");
        let row_bytes = u64::from(self.row_bytes);
        let banks = u64::from(self.banks);
        // Every shipped geometry has power-of-two rows and banks, so the
        // decode is a shift/mask on the hot path; the division form stays
        // as the general fallback (identical results when both divisors
        // are powers of two).
        let (bank, row) = if row_bytes.is_power_of_two() && banks.is_power_of_two() {
            let rb = row_bytes.trailing_zeros();
            ((a >> rb) & (banks - 1), a >> (rb + banks.trailing_zeros()))
        } else {
            ((a / row_bytes) % banks, a / (row_bytes * banks))
        };
        RowId {
            bank: bank as u32,
            row: row as u32,
        }
    }

    /// Column (byte offset within the row) of an address.
    #[inline]
    #[must_use]
    pub fn column_of(&self, addr: PhysAddr) -> u32 {
        let row_bytes = u64::from(self.row_bytes);
        if row_bytes.is_power_of_two() {
            (addr.as_u64() & (row_bytes - 1)) as u32
        } else {
            (addr.as_u64() % row_bytes) as u32
        }
    }

    /// First physical address of a row (the exact inverse of
    /// [`DramGeometry::row_of`]).
    #[must_use]
    pub fn row_base(&self, row: RowId) -> PhysAddr {
        PhysAddr::new(
            (u64::from(row.row) * u64::from(self.banks) + u64::from(row.bank))
                * u64::from(self.row_bytes),
        )
    }

    /// Number of bits in one row.
    #[must_use]
    pub fn row_bits(&self) -> u64 {
        u64::from(self.row_bytes) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_4gb() {
        assert_eq!(DramGeometry::default().capacity(), 4 << 30);
    }

    #[test]
    fn with_capacity_scales_rows() {
        let g = DramGeometry::with_capacity(16 << 30);
        assert_eq!(g.capacity(), 16 << 30);
        assert_eq!(g.banks, DramGeometry::default().banks);
    }

    #[test]
    fn row_of_and_base_roundtrip() {
        let g = DramGeometry::default();
        for addr in [0u64, 8191, 8192, 123_456_789, g.capacity() - 1] {
            let row = g.row_of(PhysAddr::new(addr));
            let base = g.row_base(row).as_u64();
            assert!(base <= addr, "addr={addr:#x}");
            assert_eq!(g.row_of(PhysAddr::new(base)), row);
            assert_eq!(base + u64::from(g.column_of(PhysAddr::new(addr))), addr);
        }
    }

    #[test]
    fn same_bank_neighbours_are_stride_apart() {
        let g = DramGeometry::default();
        let a = PhysAddr::new(0x10_0000);
        let row = g.row_of(a);
        let up = row.offset(1, g.rows_per_bank).unwrap();
        let stride = u64::from(g.banks) * u64::from(g.row_bytes);
        assert_eq!(g.row_base(up).as_u64(), g.row_base(row).as_u64() + stride);
        assert_eq!(up.bank, row.bank);
    }

    #[test]
    fn single_channel_interleave_is_constant_zero() {
        let il = ChannelInterleave::new(1);
        for addr in [0u64, 64, 8192, 123_456_789, (4u64 << 30) - 64] {
            assert_eq!(il.channel_of(PhysAddr::new(addr)), 0);
        }
    }

    #[test]
    fn interleave_spreads_lines_and_strides() {
        for channels in [2u32, 4] {
            let il = ChannelInterleave::new(channels);
            // Consecutive lines round-robin across all channels.
            let mut seen = vec![0u64; channels as usize];
            for i in 0..1024u64 {
                seen[il.channel_of(PhysAddr::new(i * 64)) as usize] += 1;
            }
            for (c, n) in seen.iter().enumerate() {
                assert!(*n > 0, "channel {c} unused by a streaming pattern");
            }
            // A row-buffer-strided pattern (the Rowhammer aggressor stride)
            // must not resonate onto one channel: the folded bank/row bits
            // break it up.
            let stride = 16u64 * 8192;
            let mut seen = vec![0u64; channels as usize];
            for i in 0..1024u64 {
                seen[il.channel_of(PhysAddr::new(i * stride)) as usize] += 1;
            }
            let used = seen.iter().filter(|n| **n > 0).count();
            assert!(
                used == channels as usize,
                "row-strided pattern uses {used}/{channels} channels"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn interleave_rejects_non_power_of_two() {
        let _ = ChannelInterleave::new(3);
    }

    #[test]
    fn offset_respects_bounds() {
        let g = DramGeometry::default();
        let first = RowId { bank: 0, row: 0 };
        assert_eq!(first.offset(-1, g.rows_per_bank), None);
        let last = RowId {
            bank: 0,
            row: g.rows_per_bank - 1,
        };
        assert_eq!(last.offset(1, g.rows_per_bank), None);
        assert_eq!(
            last.offset(-2, g.rows_per_bank).unwrap().row,
            g.rows_per_bank - 3
        );
    }
}
