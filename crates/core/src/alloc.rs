//! Free-block pool and active-block allocation.
//!
//! Writes stripe round-robin across channels so consecutive host pages land
//! on different chips and program in parallel — the "internal parallelism"
//! the paper's query engine also exploits.

use std::collections::VecDeque;

use almanac_flash::{BlockId, Geometry, Ppa};

/// A block currently open for sequential page programming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpenBlock {
    /// The open block.
    pub block: BlockId,
    /// Next page offset to program.
    pub next_off: u32,
}

/// Per-channel free pools plus per-channel active data blocks.
///
/// Host writes and GC migrations use *separate* active blocks (hot/cold
/// stream separation): migrated pages are cold by definition, and mixing
/// them with hot user writes would leave every block partially valid,
/// inflating migration cost at high utilization.
#[derive(Debug, Clone)]
pub(crate) struct Allocator {
    geometry: Geometry,
    free: Vec<VecDeque<BlockId>>,
    active: Vec<Option<OpenBlock>>,
    active_gc: Vec<Option<OpenBlock>>,
    rr: usize,
    rr_gc: usize,
}

impl Allocator {
    /// Creates an allocator owning every block of the array.
    pub fn new(geometry: Geometry) -> Self {
        let mut free: Vec<VecDeque<BlockId>> = vec![VecDeque::new(); geometry.channels as usize];
        for b in 0..geometry.total_blocks() {
            let block = BlockId(b);
            free[geometry.channel_of_block(block) as usize].push_back(block);
        }
        Allocator {
            geometry,
            free,
            active: vec![None; geometry.channels as usize],
            active_gc: vec![None; geometry.channels as usize],
            rr: 0,
            rr_gc: 0,
        }
    }

    /// Total free blocks across channels (active blocks excluded).
    pub fn free_blocks(&self) -> u64 {
        self.free.iter().map(|f| f.len() as u64).sum()
    }

    /// Pops a free block, preferring `channel`, falling back to the channel
    /// with the most free blocks. Pools are FIFO so free blocks rotate and
    /// wear spreads naturally.
    pub fn alloc_block(&mut self, channel: Option<u32>) -> Option<BlockId> {
        if let Some(ch) = channel {
            if let Some(b) = self.free[ch as usize].pop_front() {
                return Some(b);
            }
        }
        let richest = (0..self.free.len()).max_by_key(|&c| self.free[c].len())?;
        self.free[richest].pop_front()
    }

    /// Returns an erased block to the back of its channel's pool.
    pub fn release(&mut self, block: BlockId) {
        let ch = self.geometry.channel_of_block(block) as usize;
        self.free[ch].push_back(block);
    }

    /// Removes and returns the free block maximizing `score` — used by wear
    /// leveling to park cold data on the most-worn block, retiring it from
    /// the hot rotation.
    pub fn take_block_by_max(&mut self, score: impl Fn(BlockId) -> u32) -> Option<BlockId> {
        let mut best: Option<(usize, usize, u32)> = None;
        for (ch, pool) in self.free.iter().enumerate() {
            for (i, b) in pool.iter().enumerate() {
                let s = score(*b);
                if best.map(|(_, _, bs)| s > bs).unwrap_or(true) {
                    best = Some((ch, i, s));
                }
            }
        }
        let (ch, i, _) = best?;
        self.free[ch].remove(i)
    }

    fn next_page_from(
        geometry: &Geometry,
        free: &mut [VecDeque<BlockId>],
        active: &mut [Option<OpenBlock>],
        rr: &mut usize,
        reserve: u64,
    ) -> Option<(Ppa, Option<BlockId>)> {
        let channels = geometry.channels as usize;
        for _ in 0..channels {
            let ch = *rr;
            *rr = (*rr + 1) % channels;
            let mut opened = None;
            if active[ch].is_none() {
                // Opening a new block must leave `reserve` blocks for GC.
                let total_free: u64 = free.iter().map(|f| f.len() as u64).sum();
                if total_free <= reserve {
                    continue;
                }
                // Prefer the channel's own pool, fall back to the richest.
                let block = free[ch].pop_front().or_else(|| {
                    let richest = (0..free.len()).max_by_key(|&c| free[c].len())?;
                    free[richest].pop_front()
                });
                match block {
                    Some(b) => {
                        active[ch] = Some(OpenBlock {
                            block: b,
                            next_off: 0,
                        });
                        opened = Some(b);
                    }
                    None => continue,
                }
            }
            let open = active[ch].as_mut().expect("just ensured");
            let ppa = geometry.ppa(open.block.0, open.next_off);
            open.next_off += 1;
            if open.next_off == geometry.pages_per_block {
                active[ch] = None;
            }
            return Some((ppa, opened));
        }
        None
    }

    /// Allocates the next host-data page, rotating across channels.
    ///
    /// Returns the page plus `Some(block)` when a fresh block was opened for
    /// it (so the caller can update the BST). Falls back to the cold stream's
    /// open blocks when the free pool is exhausted (tiny devices).
    pub fn next_data_page(&mut self) -> Option<(Ppa, Option<BlockId>)> {
        Self::next_page_from(
            &self.geometry,
            &mut self.free,
            &mut self.active,
            &mut self.rr,
            1,
        )
        .or_else(|| {
            Self::next_page_from(
                &self.geometry,
                &mut self.free,
                &mut self.active_gc,
                &mut self.rr_gc,
                1,
            )
        })
    }

    /// Allocates the next page for GC/wear-leveling migration (the cold
    /// stream), kept apart from host writes. Falls back to the hot stream's
    /// open blocks when the free pool is exhausted.
    pub fn next_gc_page(&mut self) -> Option<(Ppa, Option<BlockId>)> {
        Self::next_page_from(
            &self.geometry,
            &mut self.free,
            &mut self.active_gc,
            &mut self.rr_gc,
            0,
        )
        .or_else(|| {
            Self::next_page_from(
                &self.geometry,
                &mut self.free,
                &mut self.active,
                &mut self.rr,
                0,
            )
        })
    }

    /// Rolls back the most recent page allocation after a *failed* program.
    ///
    /// The flash chip never wrote the page, so its block's write pointer did
    /// not advance; handing out the next offset would wedge the block with
    /// non-sequential-program errors forever. Returning the offset keeps the
    /// allocation sequence aligned with the chip. Must be called only for
    /// the allocation immediately preceding the failure.
    pub fn unreserve_page(&mut self, ppa: Ppa) {
        let block = self.geometry.block_of(ppa);
        let off = self.geometry.page_offset(ppa);
        // The block may sit in any channel's slot, not just its home
        // channel's: `next_page_from` falls back to the richest channel's
        // free pool, so a slot can hold a block owned by another channel.
        // Search every slot or the rewind silently misses and the slot
        // wedges on non-sequential programs.
        for list in [&mut self.active, &mut self.active_gc] {
            for open in list.iter_mut().flatten() {
                if open.block == block && open.next_off == off + 1 {
                    open.next_off = off;
                    return;
                }
            }
        }
        // The failed page was the block's last: allocation closed the block,
        // so reinstate it in whichever slot is free (home channel first).
        if off + 1 == self.geometry.pages_per_block {
            let ch = self.geometry.channel_of_block(block) as usize;
            for list in [&mut self.active, &mut self.active_gc] {
                if list[ch].is_none() {
                    list[ch] = Some(OpenBlock {
                        block,
                        next_off: off,
                    });
                    return;
                }
            }
            for list in [&mut self.active, &mut self.active_gc] {
                for slot in list.iter_mut() {
                    if slot.is_none() {
                        *slot = Some(OpenBlock {
                            block,
                            next_off: off,
                        });
                        return;
                    }
                }
            }
        }
    }

    /// True if `block` is currently open for host writes or migrations.
    pub fn is_active(&self, block: BlockId) -> bool {
        self.active
            .iter()
            .chain(self.active_gc.iter())
            .flatten()
            .any(|open| open.block == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_blocks_start_free() {
        let a = Allocator::new(Geometry::small_test());
        assert_eq!(a.free_blocks(), 16);
    }

    #[test]
    fn data_pages_stripe_across_channels() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let (p0, _) = a.next_data_page().unwrap();
        let (p1, _) = a.next_data_page().unwrap();
        assert_ne!(g.channel_of_ppa(p0), g.channel_of_ppa(p1));
    }

    #[test]
    fn sequential_offsets_within_open_block() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let (p0, opened) = a.next_data_page().unwrap();
        assert!(opened.is_some());
        // Same channel comes around after `channels` allocations.
        let (_p1, _) = a.next_data_page().unwrap();
        let (p2, opened2) = a.next_data_page().unwrap();
        assert!(opened2.is_none());
        assert_eq!(g.block_of(p0), g.block_of(p2));
        assert_eq!(g.page_offset(p2), g.page_offset(p0) + 1);
    }

    #[test]
    fn full_block_closes() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let (first, _) = a.next_data_page().unwrap();
        let block = g.block_of(first);
        assert!(a.is_active(block));
        // Drain both channels' blocks fully.
        for _ in 0..(2 * g.pages_per_block - 1) {
            a.next_data_page().unwrap();
        }
        assert!(!a.is_active(block));
    }

    #[test]
    fn alloc_prefers_requested_channel() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let b = a.alloc_block(Some(1)).unwrap();
        assert_eq!(g.channel_of_block(b), 1);
    }

    #[test]
    fn falls_back_to_other_channels_when_empty() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        for _ in 0..8 {
            a.alloc_block(Some(0)).unwrap();
        }
        let b = a.alloc_block(Some(0)).unwrap();
        assert_eq!(g.channel_of_block(b), 1);
    }

    #[test]
    fn release_returns_to_pool() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let b = a.alloc_block(None).unwrap();
        let before = a.free_blocks();
        a.release(b);
        assert_eq!(a.free_blocks(), before + 1);
    }

    #[test]
    fn unreserve_rewinds_the_open_block() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let (_p0, _) = a.next_data_page().unwrap(); // channel 0
        let (_p1, _) = a.next_data_page().unwrap(); // channel 1
        let (p2, _) = a.next_data_page().unwrap(); // channel 0, offset 1
        a.unreserve_page(p2);
        // Round-robin continues on channel 1; channel 0 then re-hands the
        // exact page whose program failed.
        let (_p3, _) = a.next_data_page().unwrap();
        let (p4, opened) = a.next_data_page().unwrap();
        assert_eq!(p4, p2, "retry must reuse the failed page's offset");
        assert!(opened.is_none());
    }

    #[test]
    fn unreserve_rewinds_a_cross_channel_block() {
        // Regression: drain channel 0's free pool so its slot opens a block
        // borrowed from channel 1 (the richest-pool fallback). A rewind for
        // that block must find it in channel 0's slot — looking only under
        // the block's home channel misses it, the slot's offset stays
        // advanced, and every later program from the slot is non-sequential
        // (found by long_fuzz fault injection).
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        for _ in 0..8 {
            a.alloc_block(Some(0)).unwrap();
        }
        let (p0, _) = a.next_data_page().unwrap();
        let borrowed = g.block_of(p0);
        assert_eq!(
            g.channel_of_block(borrowed),
            1,
            "scenario requires a borrowed block"
        );
        let (_p1, _) = a.next_data_page().unwrap(); // channel 1's own slot
        let (p2, _) = a.next_data_page().unwrap(); // borrowed block, offset 1
        assert_eq!(g.block_of(p2), borrowed);
        a.unreserve_page(p2);
        let (_p3, _) = a.next_data_page().unwrap();
        let (p4, _) = a.next_data_page().unwrap();
        assert_eq!(p4, p2, "retry must reuse the failed page's offset");
    }

    #[test]
    fn unreserve_reopens_a_block_closed_by_its_last_page() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        let (first, _) = a.next_data_page().unwrap();
        let block = g.block_of(first);
        let mut last = first;
        // Drain both channels' first blocks; the final allocation of `block`
        // closes it.
        for _ in 0..(2 * g.pages_per_block - 1) {
            let (p, _) = a.next_data_page().unwrap();
            if g.block_of(p) == block {
                last = p;
            }
        }
        assert!(!a.is_active(block));
        assert_eq!(g.page_offset(last), g.pages_per_block - 1);
        a.unreserve_page(last);
        assert!(a.is_active(block), "failed last-page program must reopen");
        // The reopened block re-hands the failed page within one rotation.
        let got = (0..g.channels)
            .map(|_| a.next_data_page().unwrap().0)
            .any(|p| p == last);
        assert!(got, "retry never reused the failed last page");
    }

    #[test]
    fn exhaustion_returns_none() {
        let g = Geometry::small_test();
        let mut a = Allocator::new(g);
        for _ in 0..16 {
            a.alloc_block(None).unwrap();
        }
        assert!(a.alloc_block(None).is_none());
        assert!(a.next_data_page().is_none());
    }
}
