//! Free-block pool and the per-channel slots that page allocation fills.
//!
//! Writes stripe round-robin across channels so consecutive host pages land
//! on different chips and program in parallel — the "internal parallelism"
//! the paper's query engine also exploits.
//!
//! A slot names a block and nothing more: the page it hands out is the
//! block's BST `written`, the one write pointer per block, which only a
//! successful program advances. So a failed program leaves nothing to
//! rewind — the retry gets the same page — and a slot closes when it hands
//! out its block's last page.

use std::collections::VecDeque;

use almanac_flash::{BlockId, Geometry, Ppa};

use crate::tables::{BlockKind, Bst};

/// An allocation stream (hot/cold separation). Host writes and GC
/// migrations fill *separate* blocks: migrated pages are cold by
/// definition, and mixing them with hot user writes would leave every block
/// partially valid, inflating migration cost at high utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stream {
    /// Host writes.
    Hot = 0,
    /// GC / wear-levelling migrations.
    Cold = 1,
}

/// Per-channel free pools plus, per stream, one slot per channel holding
/// the block that stream is filling there.
#[derive(Debug, Clone)]
pub(crate) struct Allocator {
    geometry: Geometry,
    free: Vec<VecDeque<BlockId>>,
    /// `slots[stream][channel]`.
    slots: [Vec<Option<BlockId>>; 2],
    /// Next channel per stream.
    rr: [usize; 2],
}

impl Allocator {
    /// Creates an allocator whose pools hold every block `bst` calls free,
    /// in block order.
    pub(crate) fn new(geometry: Geometry, bst: &Bst) -> Self {
        let mut free: Vec<VecDeque<BlockId>> = vec![VecDeque::new(); geometry.channels as usize];
        for (block, info) in bst.iter() {
            if info.kind == BlockKind::Free {
                free[geometry.channel_of_block(block) as usize].push_back(block);
            }
        }
        let slots = vec![None; geometry.channels as usize];
        Allocator {
            geometry,
            free,
            slots: [slots.clone(), slots],
            rr: [0; 2],
        }
    }

    /// Total free blocks across channels (open blocks excluded).
    pub(crate) fn free_blocks(&self) -> u64 {
        self.free.iter().map(|f| f.len() as u64).sum()
    }

    /// Pops a free block, preferring `channel`, falling back to the channel
    /// with the most free blocks. Pools are FIFO so free blocks rotate and
    /// wear spreads naturally.
    pub(crate) fn alloc_block(&mut self, channel: Option<u32>) -> Option<BlockId> {
        if let Some(ch) = channel {
            if let Some(b) = self.free[ch as usize].pop_front() {
                return Some(b);
            }
        }
        let richest = (0..self.free.len()).max_by_key(|&c| self.free[c].len())?;
        self.free[richest].pop_front()
    }

    /// Returns an erased block to the back of its channel's pool.
    pub(crate) fn release(&mut self, block: BlockId) {
        let ch = self.geometry.channel_of_block(block) as usize;
        self.free[ch].push_back(block);
    }

    /// Removes and returns the free block maximizing `score` — used by wear
    /// leveling to park cold data on the most-worn block, retiring it from
    /// the hot rotation.
    pub(crate) fn take_block_by_max(&mut self, score: impl Fn(BlockId) -> u32) -> Option<BlockId> {
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

    /// The next page of `stream`, rotating across channels: the `written`
    /// page of the channel's slot, opening a free block into an empty slot.
    ///
    /// Returns the page and whether its block was opened for it (so the
    /// caller can update the BST). Two words come back in registers; a
    /// third, the opened block, made every host write wait on a copy
    /// through memory. Host writes leave one free block for GC; when the
    /// pool runs dry, a stream falls back to the other stream's slots (tiny
    /// devices).
    pub(crate) fn next_page(&mut self, stream: Stream, bst: &Bst) -> Option<(Ppa, bool)> {
        let (other, reserve) = match stream {
            Stream::Hot => (Stream::Cold, 1),
            Stream::Cold => (Stream::Hot, 0),
        };
        self.page_from(stream, reserve, bst)
            .or_else(|| self.page_from(other, reserve, bst))
    }

    fn page_from(&mut self, stream: Stream, reserve: u64, bst: &Bst) -> Option<(Ppa, bool)> {
        let s = stream as usize;
        let channels = self.free.len();
        for _ in 0..channels {
            let ch = self.rr[s];
            self.rr[s] = (ch + 1) % channels;
            let opened = self.slots[s][ch].is_none();
            if opened {
                // Opening a new block must leave `reserve` blocks for GC.
                if self.free_blocks() <= reserve {
                    continue;
                }
                self.slots[s][ch] = self.alloc_block(Some(ch as u32));
            }
            let Some(block) = self.slots[s][ch] else {
                continue;
            };
            let off = bst.get(block).written;
            if off + 1 == self.geometry.pages_per_block {
                self.slots[s][ch] = None;
            }
            return Some((self.geometry.ppa(block.0, off), opened));
        }
        None
    }

    /// True if `block` sits in a slot (open for host writes or migrations).
    pub(crate) fn is_active(&self, block: BlockId) -> bool {
        self.slots.iter().flatten().any(|&slot| slot == Some(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Geometry, Allocator, Bst) {
        let g = Geometry::small_test();
        let bst = Bst::new(&g, false);
        (g, Allocator::new(g, &bst), bst)
    }

    /// Takes the next host page and books it as `Ftl::program` does after a
    /// successful program.
    fn program(a: &mut Allocator, bst: &mut Bst) -> (Ppa, bool) {
        let (ppa, opened) = a.next_page(Stream::Hot, bst).unwrap();
        let block = Geometry::small_test().block_of(ppa);
        if opened {
            bst.update(block, |info| info.kind = BlockKind::Data);
        }
        bst.update(block, |info| info.written += 1);
        (ppa, opened)
    }

    #[test]
    fn all_blocks_start_free() {
        let (_, a, _) = fresh();
        assert_eq!(a.free_blocks(), 16);
    }

    #[test]
    fn pools_only_the_blocks_the_bst_calls_free() {
        let g = Geometry::small_test();
        let mut bst = Bst::new(&g, false);
        for b in [0, 5, 6] {
            bst.update(BlockId(b), |info| info.kind = BlockKind::Data);
        }
        let mut a = Allocator::new(g, &bst);
        assert_eq!(a.free_blocks(), 13);
        let popped: Vec<_> = std::iter::from_fn(|| a.alloc_block(None)).collect();
        assert_eq!(popped.len(), 13);
        assert!(!popped.iter().any(|b| [0, 5, 6].contains(&b.0)));
    }

    #[test]
    fn data_pages_stripe_across_channels() {
        let (g, mut a, mut bst) = fresh();
        let (p0, _) = program(&mut a, &mut bst);
        let (p1, _) = program(&mut a, &mut bst);
        assert_ne!(g.channel_of_ppa(p0), g.channel_of_ppa(p1));
    }

    #[test]
    fn sequential_offsets_within_open_block() {
        let (g, mut a, mut bst) = fresh();
        let (p0, opened) = program(&mut a, &mut bst);
        assert!(opened);
        // Same channel comes around after `channels` allocations.
        program(&mut a, &mut bst);
        let (p2, opened2) = program(&mut a, &mut bst);
        assert!(!opened2);
        assert_eq!(g.block_of(p0), g.block_of(p2));
        assert_eq!(g.page_offset(p2), g.page_offset(p0) + 1);
    }

    #[test]
    fn full_block_closes() {
        let (g, mut a, mut bst) = fresh();
        let (first, _) = program(&mut a, &mut bst);
        let block = g.block_of(first);
        assert!(a.is_active(block));
        // Drain both channels' blocks fully.
        for _ in 0..(2 * g.pages_per_block - 1) {
            program(&mut a, &mut bst);
        }
        assert!(!a.is_active(block));
        assert_eq!(bst.get(block).written, g.pages_per_block);
    }

    #[test]
    fn alloc_prefers_requested_channel() {
        let (g, mut a, _) = fresh();
        let b = a.alloc_block(Some(1)).unwrap();
        assert_eq!(g.channel_of_block(b), 1);
    }

    #[test]
    fn falls_back_to_other_channels_when_empty() {
        let (g, mut a, _) = fresh();
        for _ in 0..8 {
            a.alloc_block(Some(0)).unwrap();
        }
        let b = a.alloc_block(Some(0)).unwrap();
        assert_eq!(g.channel_of_block(b), 1);
    }

    #[test]
    fn release_returns_to_pool() {
        let (_, mut a, _) = fresh();
        let b = a.alloc_block(None).unwrap();
        let before = a.free_blocks();
        a.release(b);
        assert_eq!(a.free_blocks(), before + 1);
    }

    #[test]
    fn failed_program_retries_the_same_page() {
        let (_, mut a, mut bst) = fresh();
        program(&mut a, &mut bst); // channel 0
        program(&mut a, &mut bst); // channel 1
                                   // Channel 0, offset 1: its program fails, so `written` stays put.
        let (failed, opened) = a.next_page(Stream::Hot, &bst).unwrap();
        assert!(!opened);
        // Round-robin continues on channel 1; channel 0 then re-hands the
        // exact page whose program failed.
        program(&mut a, &mut bst);
        let (retry, opened) = program(&mut a, &mut bst);
        assert_eq!(retry, failed, "retry must reuse the failed page's offset");
        assert!(!opened);
    }

    #[test]
    fn failed_program_in_a_borrowed_block_retries_the_same_page() {
        // Drain channel 0's free pool so its slot opens a block borrowed
        // from channel 1 (the richest-pool fallback). A retry must still
        // find the failed page: the slot sits under channel 0, the block
        // belongs to channel 1, and only `written` says where it stands.
        let (g, mut a, mut bst) = fresh();
        for _ in 0..8 {
            a.alloc_block(Some(0)).unwrap();
        }
        let (p0, _) = program(&mut a, &mut bst);
        let borrowed = g.block_of(p0);
        assert_eq!(
            g.channel_of_block(borrowed),
            1,
            "scenario requires a borrowed block"
        );
        program(&mut a, &mut bst); // channel 1's own slot
        let (failed, _) = a.next_page(Stream::Hot, &bst).unwrap();
        assert_eq!(g.block_of(failed), borrowed);
        program(&mut a, &mut bst);
        let (retry, _) = program(&mut a, &mut bst);
        assert_eq!(retry, failed, "retry must reuse the failed page's offset");
        assert_eq!(g.page_offset(retry), 1);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (_, mut a, bst) = fresh();
        for _ in 0..16 {
            a.alloc_block(None).unwrap();
        }
        assert!(a.alloc_block(None).is_none());
        assert!(a.next_page(Stream::Hot, &bst).is_none());
        assert!(a.next_page(Stream::Cold, &bst).is_none());
    }
}
