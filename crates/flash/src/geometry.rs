//! Flash array geometry: channels, chips, planes, blocks, and pages.

use crate::addr::{BlockId, Ppa};

/// Static shape of a flash array.
///
/// Physical page addresses are linear: block `b`, page-offset `p` maps to
/// `Ppa(b * pages_per_block + p)`. Block identifiers enumerate blocks in
/// channel-major order, so consecutive block ids round-robin across planes
/// within a chip, then chips, then channels.
///
/// # Examples
///
/// ```
/// use almanac_flash::Geometry;
/// let geo = Geometry::small_test();
/// assert_eq!(geo.total_pages(), geo.total_blocks() * geo.pages_per_block as u64);
/// let ppa = geo.ppa(3, 5);
/// assert_eq!(geo.block_of(ppa).0, 3);
/// assert_eq!(geo.page_offset(ppa), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of independent channels.
    pub channels: u32,
    /// Flash chips per channel.
    pub chips_per_channel: u32,
    /// Planes per chip.
    pub planes_per_chip: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Page size in bytes (user data, excluding OOB).
    pub page_size: u32,
    /// OOB metadata bytes per page (12 in the paper's OpenSSD board).
    pub oob_size: u32,
}

impl Geometry {
    /// A tiny geometry suitable for unit tests: 2 channels × 1 chip × 1 plane
    /// × 8 blocks × 8 pages of 4 KiB (512 KiB total).
    pub fn small_test() -> Self {
        Geometry {
            channels: 2,
            chips_per_channel: 1,
            planes_per_chip: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_size: 4096,
            oob_size: 12,
        }
    }

    /// A medium geometry for integration tests and examples:
    /// 4 channels × 1 chip × 1 plane × 64 blocks × 32 pages (32 MiB).
    pub fn medium_test() -> Self {
        Geometry {
            channels: 4,
            chips_per_channel: 1,
            planes_per_chip: 1,
            blocks_per_plane: 64,
            pages_per_block: 32,
            page_size: 4096,
            oob_size: 12,
        }
    }

    /// The geometry used by the benchmark harnesses: 8 channels × 1 chip ×
    /// 1 plane × 256 blocks × 64 pages of 4 KiB (512 MiB), a scaled-down
    /// stand-in for the paper's 1 TB Cosmos+ board.
    pub fn bench() -> Self {
        Geometry {
            channels: 8,
            chips_per_channel: 1,
            planes_per_chip: 1,
            blocks_per_plane: 256,
            pages_per_block: 64,
            page_size: 4096,
            oob_size: 12,
        }
    }

    /// Total number of chips across all channels.
    #[inline]
    pub fn total_chips(&self) -> u64 {
        self.channels as u64 * self.chips_per_channel as u64
    }

    /// Total number of blocks in the array.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.total_chips() * self.planes_per_chip as u64 * self.blocks_per_plane as u64
    }

    /// Total number of pages in the array.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Builds the physical page address for `(block, page_offset)`.
    ///
    /// # Panics
    ///
    /// Panics if `block` or `page_offset` is out of range.
    #[inline]
    pub fn ppa(&self, block: u64, page_offset: u32) -> Ppa {
        assert!(block < self.total_blocks(), "block {block} out of range");
        assert!(
            page_offset < self.pages_per_block,
            "page offset {page_offset} out of range"
        );
        Ppa(block * self.pages_per_block as u64 + page_offset as u64)
    }

    /// Returns the block containing `ppa`.
    #[inline]
    pub fn block_of(&self, ppa: Ppa) -> BlockId {
        BlockId(ppa.0 / self.pages_per_block as u64)
    }

    /// Returns the page offset of `ppa` within its block.
    #[inline]
    pub fn page_offset(&self, ppa: Ppa) -> u32 {
        (ppa.0 % self.pages_per_block as u64) as u32
    }

    /// Returns the channel a block belongs to.
    ///
    /// Blocks enumerate channel-major: block id `b` lives on channel
    /// `b / (blocks_per_channel)` where `blocks_per_channel` covers all the
    /// chips and planes of that channel.
    #[inline]
    pub fn channel_of_block(&self, block: BlockId) -> u32 {
        let per_channel = self.chips_per_channel as u64
            * self.planes_per_chip as u64
            * self.blocks_per_plane as u64;
        (block.0 / per_channel) as u32
    }

    /// Returns the global chip index (`0..total_chips`) a block belongs to.
    #[inline]
    pub fn chip_of_block(&self, block: BlockId) -> u32 {
        let per_chip = self.planes_per_chip as u64 * self.blocks_per_plane as u64;
        (block.0 / per_chip) as u32
    }

    /// Returns the global chip index a page belongs to.
    #[inline]
    pub fn chip_of_ppa(&self, ppa: Ppa) -> u32 {
        self.chip_of_block(self.block_of(ppa))
    }

    /// True if `block` addresses a real block.
    #[inline]
    pub fn contains_block(&self, block: BlockId) -> bool {
        block.0 < self.total_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_consistent() {
        let g = Geometry::small_test();
        assert_eq!(g.total_blocks(), 16);
        assert_eq!(g.total_pages(), 128);
    }

    #[test]
    fn ppa_roundtrip() {
        let g = Geometry::medium_test();
        for block in [0u64, 1, 63, 100, g.total_blocks() - 1] {
            for off in [0u32, 1, g.pages_per_block - 1] {
                let ppa = g.ppa(block, off);
                assert_eq!(g.block_of(ppa).0, block);
                assert_eq!(g.page_offset(ppa), off);
            }
        }
    }

    #[test]
    fn channel_assignment_is_channel_major() {
        let g = Geometry::small_test(); // 2 channels, 8 blocks/plane, 1 chip, 1 plane
        assert_eq!(g.channel_of_block(BlockId(0)), 0);
        assert_eq!(g.channel_of_block(BlockId(7)), 0);
        assert_eq!(g.channel_of_block(BlockId(8)), 1);
        assert_eq!(g.channel_of_block(BlockId(15)), 1);
    }

    #[test]
    fn chip_of_ppa_matches_block() {
        let g = Geometry::bench();
        let ppa = g.ppa(300, 10);
        assert_eq!(g.chip_of_ppa(ppa), g.chip_of_block(BlockId(300)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ppa_rejects_bad_block() {
        let g = Geometry::small_test();
        let _ = g.ppa(g.total_blocks(), 0);
    }
}
