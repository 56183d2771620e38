//! FTL mapping and status tables.
//!
//! These mirror Figure 3 of the paper. Structures ①–④ exist in a regular
//! SSD: the address mapping table (AMT), global mapping directory (GMD —
//! not modelled: the whole AMT is RAM-resident), block status table (BST),
//! and page validity table (PVT). TimeSSD adds
//! ⑤–⑧: the index mapping table (IMT), page reclamation table (PRT), the
//! Bloom filters (in `almanac-bloom`), and the delta buffers (in
//! `timessd::deltas`).
//!
//! Each table is laid out for the question the host path asks of it. The
//! AMT and IMT are dense vectors indexed by LPA. The PVT and PRT pack one
//! bit per page, so idle-time compression finds a block's pages that are
//! clear in both by word scan. The BST files data blocks in victim indices,
//! so GC and, on a device that compresses, the idle-time compressor look
//! their victim up.

use std::ops::Range;

use almanac_bloom::FilterId;
use almanac_flash::{BlockId, Geometry, Lpa, Nanos, Ppa};

/// One entry of the address mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmtEntry {
    /// Never written.
    #[default]
    Unmapped,
    /// Mapped to a valid flash page.
    Mapped(Ppa),
    /// Trimmed: reads return zeros, but the old version chain stays
    /// reachable through the remembered head so TimeKits can recover
    /// deleted data. Carries the trim time so as-of queries know when the
    /// page stopped existing. A rewrite forgets the tombstone; a power cut
    /// does not — every trim journals a durable TRIM record into the delta
    /// stream, and the rebuild scan replays the newest surviving record
    /// back into this state.
    Trimmed(Ppa, Nanos),
}

impl AmtEntry {
    /// The valid physical page, if mapped.
    pub fn mapped(&self) -> Option<Ppa> {
        match self {
            AmtEntry::Mapped(p) => Some(*p),
            _ => None,
        }
    }

    /// The head of the version chain (valid page or pre-trim head).
    pub fn chain_head(&self) -> Option<Ppa> {
        match self {
            AmtEntry::Mapped(p) | AmtEntry::Trimmed(p, _) => Some(*p),
            AmtEntry::Unmapped => None,
        }
    }

    /// When the page was trimmed, if it currently is.
    pub fn trimmed_at(&self) -> Option<Nanos> {
        match self {
            AmtEntry::Trimmed(_, at) => Some(*at),
            _ => None,
        }
    }
}

/// One flag per physical page, the shape of both per-page tables, packed
/// 64 pages to a word so that a block's clear pages are found by word scan
/// ([`PageBits::next_clear_in_both`]) rather than page by page.
/// Out-of-range addresses (e.g. a corrupt OOB back-pointer) read as clear
/// and ignore writes rather than panicking.
#[derive(Debug, Clone)]
pub(crate) struct PageBits {
    words: Vec<u64>,
    pages: u64,
}

/// Page validity table ④: set while the page is the latest version of its
/// LPA.
pub(crate) type Pvt = PageBits;

/// Page reclamation table ⑥: set on invalid pages whose content has been
/// delta-compressed (or found expired) and may be discarded by GC.
pub(crate) type Prt = PageBits;

impl PageBits {
    /// All-clear table over the whole array.
    pub(crate) fn new(total_pages: u64) -> Self {
        PageBits {
            words: vec![0; total_pages.div_ceil(64) as usize],
            pages: total_pages,
        }
    }

    /// Is the page's flag set?
    pub(crate) fn get(&self, ppa: Ppa) -> bool {
        ppa.0 < self.pages && self.words[(ppa.0 / 64) as usize] & (1 << (ppa.0 % 64)) != 0
    }

    /// Sets or clears the page's flag.
    pub(crate) fn set(&mut self, ppa: Ppa, on: bool) {
        if ppa.0 < self.pages {
            let word = &mut self.words[(ppa.0 / 64) as usize];
            if on {
                *word |= 1 << (ppa.0 % 64);
            } else {
                *word &= !(1 << (ppa.0 % 64));
            }
        }
    }

    /// Clears every page of a block (on erase).
    pub(crate) fn clear_block(&mut self, geometry: &Geometry, block: BlockId) {
        let start = block.0 * geometry.pages_per_block as u64;
        for page in start..start + geometry.pages_per_block as u64 {
            self.set(Ppa(page), false);
        }
    }

    /// The first page in `pages` whose flag is clear both here and in
    /// `other` (a table over the same array), one word at a time.
    pub(crate) fn next_clear_in_both(&self, other: &PageBits, pages: Range<u64>) -> Option<Ppa> {
        let end = pages.end.min(self.pages).min(other.pages);
        let mut from = pages.start;
        while from < end {
            let w = (from / 64) as usize;
            // Clear in both, at or after `from`, before `end`.
            let mut free = !(self.words[w] | other.words[w]) & (!0 << (from % 64));
            let word_end = (w as u64 + 1) * 64;
            if end < word_end {
                free &= (1 << (end % 64)) - 1;
            }
            if free != 0 {
                return Some(Ppa(w as u64 * 64 + u64::from(free.trailing_zeros())));
            }
            from = word_end;
        }
        None
    }
}

/// What a block currently stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum BlockKind {
    /// In the free pool.
    #[default]
    Free,
    /// Holds host data pages.
    Data,
    /// Holds packed delta pages dedicated to one Bloom filter segment
    /// (the BST extension of §3.6/§3.8).
    Delta(FilterId),
}

/// Per-block status ③.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockInfo {
    /// Block role.
    pub kind: BlockKind,
    /// Pages programmed so far.
    pub written: u32,
    /// Pages currently valid (latest version of some LPA).
    pub valid: u32,
    /// Pages marked reclaimable in the PRT (subset of invalid pages).
    pub reclaimable: u32,
}

impl BlockInfo {
    /// Invalid pages = programmed pages that are not the valid latest
    /// version (includes retained and reclaimable pages).
    pub(crate) fn invalid(&self) -> u32 {
        self.written.saturating_sub(self.valid)
    }

    /// Invalid pages whose content is still only on this block: retained and
    /// not yet delta-compressed.
    fn uncompressed(&self) -> u32 {
        self.invalid().saturating_sub(self.reclaimable)
    }
}

/// Data blocks filed by a score, so that "the best victim" is a lookup and
/// not a sweep of the BST (the per-block metadata of Dayan & Bonnet's
/// page-mapped FTL). One bitmap over block ids per score value; a block is
/// filed under its score while it scores above zero, and nowhere otherwise.
/// [`Bst::update`] re-files. The order is a type parameter, so the score is
/// computed inline: `IDLE = false` is GC's greedy order, `IDLE = true` the
/// idle-time compressor's.
#[derive(Debug, Clone)]
struct VictimIndex<const IDLE: bool> {
    /// `bits[s * words ..][.. words]` is the bitmap of the blocks scoring `s`.
    bits: Vec<u64>,
    words: usize,
    /// Blocks filed per score, so a lookup skips the empty bitmaps.
    filed: Vec<u32>,
    pages_per_block: u32,
}

impl<const IDLE: bool> VictimIndex<IDLE> {
    fn new(geometry: &Geometry) -> Self {
        let scores = geometry.pages_per_block as usize + 1;
        let words = (geometry.total_blocks() as usize).div_ceil(64);
        VictimIndex {
            bits: vec![0; scores * words],
            words,
            filed: vec![0; scores],
            pages_per_block: geometry.pages_per_block,
        }
    }

    /// The score `info` is filed under; 0 = not filed. Only data blocks
    /// are filed: by their invalid pages in the greedy order, and, only
    /// once fully programmed, by their retained pages not yet compressed
    /// in the idle-time order.
    #[inline]
    fn score_of(&self, info: &BlockInfo) -> u32 {
        match info.kind {
            BlockKind::Data if !IDLE => info.invalid(),
            BlockKind::Data if info.written == self.pages_per_block => info.uncompressed(),
            _ => 0,
        }
    }

    /// Moves `block` from the bitmap of the score `old` earned to that of
    /// the score `new` earns.
    #[inline]
    fn refile(&mut self, block: BlockId, old: &BlockInfo, new: &BlockInfo) {
        let (old, new) = (self.score_of(old), self.score_of(new));
        if old == new {
            return;
        }
        for (score, on) in [(old as usize, false), (new as usize, true)] {
            if score > 0 {
                self.bits[score * self.words + block.0 as usize / 64] ^= 1 << (block.0 % 64);
                if on {
                    self.filed[score] += 1;
                } else {
                    self.filed[score] -= 1;
                }
            }
        }
    }

    fn has(&self, block: BlockId, score: u32) -> bool {
        let word = self.bits[score as usize * self.words + block.0 as usize / 64];
        word & (1 << (block.0 % 64)) != 0
    }

    /// The acceptable block with the highest score and, among equals, the
    /// highest id — what `bst.iter().filter(..).max_by_key(score)` returned.
    fn best(&self, accept: impl Fn(BlockId) -> bool) -> Option<BlockId> {
        for score in (1..self.filed.len()).rev() {
            if self.filed[score] == 0 {
                continue;
            }
            let bucket = &self.bits[score * self.words..][..self.words];
            for (w, &word) in bucket.iter().enumerate().rev() {
                let mut word = word;
                while word != 0 {
                    let bit = 63 - u64::from(word.leading_zeros());
                    let block = BlockId(w as u64 * 64 + bit);
                    if accept(block) {
                        return Some(block);
                    }
                    word &= !(1 << bit);
                }
            }
        }
        None
    }

    /// `(filed, earned)` for `block`, whose entry is `info`: the score its
    /// entry earns (0 = must not be filed) and the score it is filed under
    /// (0 = nowhere). A filing besides the earned one wins, so a block
    /// filed twice shows.
    fn filing(&self, block: BlockId, info: &BlockInfo) -> (u32, u32) {
        let earned = self.score_of(info);
        let mut filed = (1..self.filed.len() as u32).filter(|&s| self.has(block, s));
        let other = filed.clone().find(|&s| s != earned);
        (other.or_else(|| filed.next()).unwrap_or(0), earned)
    }
}

/// Block status table ③ plus the delta-block extension, and the victim
/// indices derived from it. The indices follow the table because
/// [`Bst::update`] is the only way to change an entry.
#[derive(Debug, Clone)]
pub(crate) struct Bst {
    blocks: Vec<BlockInfo>,
    /// GC's greedy order (Algorithm 1): most invalid pages.
    gc: VictimIndex<false>,
    /// The idle-time compressor's order (§3.6): the closed blocks with the
    /// most retained pages not yet compressed. Kept only by a device that
    /// compresses ([`Retention::COMPRESSES`](crate::ftl::Retention::COMPRESSES)).
    background: Option<VictimIndex<true>>,
}

impl Bst {
    /// All-free table; `background` keeps the idle-time order too.
    pub(crate) fn new(geometry: &Geometry, background: bool) -> Self {
        Bst {
            blocks: vec![BlockInfo::default(); geometry.total_blocks() as usize],
            gc: VictimIndex::new(geometry),
            background: background.then(|| VictimIndex::new(geometry)),
        }
    }

    /// Immutable block info.
    pub(crate) fn get(&self, block: BlockId) -> &BlockInfo {
        &self.blocks[block.0 as usize]
    }

    /// Changes a block's entry and re-files the block in each index.
    pub(crate) fn update(&mut self, block: BlockId, change: impl FnOnce(&mut BlockInfo)) {
        let info = &mut self.blocks[block.0 as usize];
        let old = *info;
        change(info);
        self.gc.refile(block, &old, info);
        if let Some(background) = &mut self.background {
            background.refile(block, &old, info);
        }
    }

    /// Iterates `(block, info)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockInfo)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u64), b))
    }

    /// Resets a block to free (after erase).
    pub(crate) fn reset(&mut self, block: BlockId) {
        self.update(block, |info| *info = BlockInfo::default());
    }

    /// GC's greedy victim: the acceptable data block with the most invalid
    /// pages (at least one); ties go to the highest block id.
    pub(crate) fn gc_victim(
        &self,
        accept: impl Fn(BlockId, &BlockInfo) -> bool,
    ) -> Option<BlockId> {
        self.gc.best(|b| accept(b, self.get(b)))
    }

    /// The idle-time compressor's victim: the acceptable fully programmed
    /// data block with the most invalid pages not yet marked reclaimable
    /// (at least one); ties go to the highest block id. `None` on a device
    /// that keeps no idle-time order.
    pub(crate) fn background_victim(
        &self,
        accept: impl Fn(BlockId, &BlockInfo) -> bool,
    ) -> Option<BlockId> {
        self.background.as_ref()?.best(|b| accept(b, self.get(b)))
    }

    /// How each victim index the table keeps files `block`, for the audit:
    /// `(index, filed, earned)` as [`VictimIndex::filing`] reports it.
    pub(crate) fn filing(&self, block: BlockId) -> impl Iterator<Item = (&'static str, u32, u32)> {
        let info = self.get(block);
        let (filed, earned) = self.gc.filing(block, info);
        let background = self.background.as_ref().map(|index| {
            let (filed, earned) = index.filing(block, info);
            ("background", filed, earned)
        });
        std::iter::once(("gc", filed, earned)).chain(background)
    }
}

/// Index mapping table ⑤: LPA → PPA of the delta page holding the newest
/// compressed version of that LPA.
///
/// Dense and indexed by LPA, like the AMT. Each entry is `[page + 1, ts]`;
/// all-zero means no head. The table is allocated by the first
/// [`Imt::set_head`], so a device that never compresses never pays for it.
#[derive(Debug, Clone)]
pub(crate) struct Imt {
    heads: Vec<[u64; 2]>,
    exported: u64,
}

impl Imt {
    /// Empty table over `exported_pages` LPAs.
    pub(crate) fn new(exported_pages: u64) -> Self {
        Imt {
            heads: Vec::new(),
            exported: exported_pages,
        }
    }

    /// Head of the delta chain for `lpa`: the delta page and the timestamp of
    /// the newest compressed version.
    pub(crate) fn head(&self, lpa: Lpa) -> Option<(Ppa, Nanos)> {
        match self.heads.get(lpa.0 as usize) {
            Some(&[page, ts]) if page != 0 => Some((Ppa(page - 1), ts)),
            _ => None,
        }
    }

    /// Updates the chain head. An LPA at or beyond the exported size (a
    /// rotted OOB field) is ignored and reads back `None`, as in the AMT.
    pub(crate) fn set_head(&mut self, lpa: Lpa, page: Ppa, newest_ts: Nanos) {
        if lpa.0 >= self.exported {
            return;
        }
        if self.heads.is_empty() {
            self.heads = vec![[0; 2]; self.exported as usize];
        }
        self.heads[lpa.0 as usize] = [page.0 + 1, newest_ts];
    }

    /// Iterates every `(lpa, (delta page, newest ts))` head in LPA order —
    /// used by rebuild and the consistency checker's reachability audit.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Lpa, (Ppa, Nanos))> + '_ {
        (0..self.heads.len() as u64).filter_map(|l| Some((Lpa(l), self.head(Lpa(l))?)))
    }
}

/// Address mapping table ①: LPA → PPA for the latest valid version.
///
/// One dense vector indexed by LPA, as in the paper's firmware (§3.7). A
/// storage-state query holds `&self` (any number of readers) while the FTL
/// write path holds `&mut self`, so the borrow checker already guarantees
/// readers-xor-writer and no lock is needed. How a ranged query partitions
/// the LPA span across workers ([`SsdConfig::amt_shards`](crate::SsdConfig))
/// is the query engine's business and never reaches this table.
#[derive(Debug, Clone)]
pub struct ShardedAmt {
    entries: Vec<AmtEntry>,
}

impl ShardedAmt {
    /// All-unmapped table over `exported_pages` LPAs. The second argument
    /// is ignored: it survives only because `benchmark/` compiles against
    /// this signature, and goes with the rename to `Amt`.
    pub fn new(exported_pages: u64, _shards: u32) -> Self {
        ShardedAmt {
            entries: vec![AmtEntry::Unmapped; exported_pages as usize],
        }
    }

    /// Number of logical pages.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True if the table covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry. Out-of-range addresses read as `Unmapped`: LPAs
    /// recovered from flash OOB metadata may be corrupt (bit-rot, ECC
    /// escapes), and the index must degrade to "no such page" rather than
    /// panic.
    pub fn get(&self, lpa: Lpa) -> AmtEntry {
        self.entries
            .get(lpa.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Replaces an entry, returning the previous one. Out-of-range addresses
    /// are ignored (and read back as `Unmapped`) for the same reason as
    /// [`ShardedAmt::get`].
    pub fn set(&mut self, lpa: Lpa, entry: AmtEntry) -> AmtEntry {
        match self.entries.get_mut(lpa.0 as usize) {
            Some(slot) => std::mem::replace(slot, entry),
            None => AmtEntry::Unmapped,
        }
    }

    /// Iterates over `(lpa, entry)` pairs in LPA order, which GC's reverse
    /// lookup and the consistency checker rely on for determinism.
    pub fn iter(&self) -> impl Iterator<Item = (Lpa, AmtEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (Lpa(i as u64), *e))
    }
}

/// Test-only access to the table.
#[cfg(test)]
impl Bst {
    /// Edits an entry behind the indices' back, forging the corruptions the
    /// consistency checker exists to catch.
    pub(crate) fn raw_mut(&mut self, block: BlockId) -> &mut BlockInfo {
        &mut self.blocks[block.0 as usize]
    }

    /// The two sweeps the victim indices replaced, kept as the reference the
    /// tests hold the lookups to: `(GC victim, idle-time victim)` among the data
    /// blocks `open` does not name.
    pub(crate) fn swept_victims(
        &self,
        pages_per_block: u32,
        open: impl Fn(BlockId) -> bool,
    ) -> (Option<BlockId>, Option<BlockId>) {
        let gc = self
            .iter()
            .filter(|(b, info)| info.kind == BlockKind::Data && info.invalid() > 0 && !open(*b))
            .max_by_key(|(_, info)| info.invalid())
            .map(|(b, _)| b);
        let background = self
            .iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data
                    && info.written == pages_per_block
                    && info.invalid() > info.reclaimable
                    && !open(*b)
            })
            .max_by_key(|(_, info)| info.invalid() - info.reclaimable)
            .map(|(b, _)| b);
        (gc, background)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn amt_transitions() {
        let mut amt = ShardedAmt::new(4, 1);
        assert_eq!(amt.get(Lpa(0)), AmtEntry::Unmapped);
        amt.set(Lpa(0), AmtEntry::Mapped(Ppa(5)));
        assert_eq!(amt.get(Lpa(0)).mapped(), Some(Ppa(5)));
        amt.set(Lpa(0), AmtEntry::Trimmed(Ppa(5), 42));
        assert_eq!(amt.get(Lpa(0)).mapped(), None);
        assert_eq!(amt.get(Lpa(0)).chain_head(), Some(Ppa(5)));
        assert_eq!(amt.get(Lpa(0)).trimmed_at(), Some(42));
        assert_eq!(AmtEntry::Mapped(Ppa(5)).trimmed_at(), None);
    }

    #[test]
    fn page_bits_block_clear() {
        let geo = Geometry::small_test();
        let mut bits = PageBits::new(geo.total_pages());
        let (ppa, neighbour) = (geo.ppa(1, 3), geo.ppa(2, 0));
        bits.set(ppa, true);
        bits.set(neighbour, true);
        assert!(bits.get(ppa));
        bits.clear_block(&geo, BlockId(1));
        assert!(!bits.get(ppa));
        assert!(bits.get(neighbour), "erase must not reach the next block");
        // A corrupt back-pointer past the array reads clear and writes nowhere.
        let beyond = Ppa(geo.total_pages());
        bits.set(beyond, true);
        assert!(!bits.get(beyond));
    }

    /// Random tables over `geo`, each page's flag set with probability
    /// `1 / (1 << sparse)`, so blocks range from all-set to mostly clear.
    fn random_bits(geo: &Geometry, seed: u64, sparse: u32) -> PageBits {
        let mut bits = PageBits::new(geo.total_pages());
        for page in 0..geo.total_pages() {
            let z = (seed ^ page).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            bits.set(Ppa(page), !(z ^ (z >> 29)).is_multiple_of(1 << sparse));
        }
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// 8 pages per block (eight blocks share a word), 32 and 64: the
        /// scan from every offset of every block, the first and last
        /// included, answers what the per-page filter answered.
        #[test]
        fn next_clear_scan_matches_the_page_filter(
            seed in any::<u64>(),
            sparse in 0u32..4,
        ) {
            for geo in [Geometry::small_test(), Geometry::medium_test(), Geometry::bench()] {
                let ppb = u64::from(geo.pages_per_block);
                let (pvt, prt) = (random_bits(&geo, seed, sparse), random_bits(&geo, !seed, sparse));
                for block in 0..geo.total_blocks() {
                    let (first, end) = (block * ppb, (block + 1) * ppb);
                    let from = first + seed % ppb;
                    for start in [first, from] {
                        let naive = (start..end)
                            .map(Ppa)
                            .find(|&p| !pvt.get(p) && !prt.get(p));
                        prop_assert_eq!(pvt.next_clear_in_both(&prt, start..end), naive);
                    }
                }
            }
        }
    }

    #[test]
    fn next_clear_scan_sees_a_bit_set_between_calls() {
        let geo = Geometry::medium_test();
        let mut pvt = PageBits::new(geo.total_pages());
        let mut prt = pvt.clone();
        let scan = |pvt: &PageBits, prt: &PageBits| {
            pvt.next_clear_in_both(prt, geo.ppa(3, 0).0..geo.ppa(4, 0).0)
        };
        assert_eq!(scan(&pvt, &prt), Some(geo.ppa(3, 0)));
        prt.set(geo.ppa(3, 0), true);
        pvt.set(geo.ppa(3, 1), true);
        assert_eq!(scan(&pvt, &prt), Some(geo.ppa(3, 2)));
        for off in 2..geo.pages_per_block {
            prt.set(geo.ppa(3, off), true);
        }
        assert_eq!(scan(&pvt, &prt), None, "the next block is not scanned");
    }

    #[test]
    fn bst_invalid_derives_from_counts() {
        let mut bst = Bst::new(&Geometry::small_test(), true);
        bst.update(BlockId(0), |info| {
            info.kind = BlockKind::Data;
            info.written = 8;
            info.valid = 5;
        });
        assert_eq!(bst.get(BlockId(0)).invalid(), 3);
        bst.reset(BlockId(0));
        assert_eq!(bst.get(BlockId(0)).kind, BlockKind::Free);
    }

    #[test]
    fn victim_ties_go_to_the_highest_block_and_skips_fall_through() {
        let geo = Geometry::small_test();
        let mut bst = Bst::new(&geo, true);
        for b in [2, 9, 5] {
            bst.update(BlockId(b), |info| {
                *info = BlockInfo {
                    kind: BlockKind::Data,
                    written: 8,
                    valid: 5,
                    reclaimable: 1,
                };
            });
        }
        let all = |_: BlockId, _: &BlockInfo| true;
        assert_eq!(bst.gc_victim(all), Some(BlockId(9)));
        assert_eq!(bst.background_victim(all), Some(BlockId(9)));
        // An open block is passed over at lookup time, not unfiled.
        assert_eq!(bst.gc_victim(|b, _| b != BlockId(9)), Some(BlockId(5)));
        // A lower id wins only with a strictly higher score.
        bst.update(BlockId(2), |info| info.valid -= 1);
        assert_eq!(bst.gc_victim(all), Some(BlockId(2)));
        // Compressing its retained pages takes it out of the idle order only.
        bst.update(BlockId(2), |info| info.reclaimable = 4);
        assert_eq!(bst.gc_victim(all), Some(BlockId(2)));
        assert_eq!(bst.background_victim(all), Some(BlockId(9)));
        // A block not fully programmed is out of the idle order however
        // much it retains, and back in once it fills.
        let open = |info: &mut BlockInfo| {
            *info = BlockInfo {
                kind: BlockKind::Data,
                written: 7,
                valid: 0,
                reclaimable: 0,
            }
        };
        bst.update(BlockId(11), open);
        assert_eq!(bst.gc_victim(all), Some(BlockId(11)));
        assert_eq!(bst.background_victim(all), Some(BlockId(9)));
        assert_eq!(
            bst.swept_victims(8, |_| false),
            (Some(BlockId(11)), Some(BlockId(9)))
        );
        bst.update(BlockId(11), |info| info.written = 8);
        assert_eq!(bst.background_victim(all), Some(BlockId(11)));
        bst.reset(BlockId(11));
        // Delta and free blocks are never filed.
        bst.update(BlockId(2), |info| info.kind = BlockKind::Delta(0));
        assert_eq!(bst.gc_victim(all), Some(BlockId(9)));
        for b in [9, 5] {
            bst.reset(BlockId(b));
        }
        assert_eq!(bst.gc_victim(all), None);
        assert_eq!(bst.background_victim(all), None);
        assert_eq!(misfiled(&bst), []);
        assert_eq!(misfiled(&bst.clone()), []);
    }

    /// Every `(index, block, filed, earned)` filing that disagrees with the
    /// score the block's entry earns.
    fn misfiled(bst: &Bst) -> Vec<(&'static str, BlockId, u32, u32)> {
        bst.iter()
            .flat_map(|(b, _)| {
                bst.filing(b)
                    .map(move |(index, filed, earned)| (index, b, filed, earned))
            })
            .filter(|&(_, _, filed, earned)| filed != earned)
            .collect()
    }

    #[derive(Debug, Clone)]
    enum BlockOp {
        /// The allocator opens a free block for a data stream.
        Open(u64),
        /// The stream moves on: the block is closed, full or not.
        Close(u64),
        /// A first write (or a migration) lands on the block.
        Write(u64),
        /// An overwrite: the new copy lands on `.0`, the old one on `.1`
        /// stops being valid.
        Overwrite(u64, u64),
        /// A trim: a valid page of the block is invalidated.
        Trim(u64),
        MarkReclaimable(u64),
        Erase(u64),
        /// The delta manager takes a free block.
        OpenDelta(u64),
    }

    fn block_op(blocks: u64) -> impl Strategy<Value = BlockOp> {
        let b = move || 0..blocks;
        prop_oneof![
            2 => b().prop_map(BlockOp::Open),
            2 => b().prop_map(BlockOp::Close),
            8 => b().prop_map(BlockOp::Write),
            8 => (b(), b()).prop_map(|(new, old)| BlockOp::Overwrite(new, old)),
            4 => b().prop_map(BlockOp::Trim),
            4 => b().prop_map(BlockOp::MarkReclaimable),
            1 => b().prop_map(BlockOp::Erase),
            1 => b().prop_map(BlockOp::OpenDelta),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Eight score values over sixteen blocks: ties and skipped (open)
        /// blocks occur on almost every step.
        #[test]
        fn victim_indices_answer_what_the_sweeps_answered(
            ops in proptest::collection::vec(block_op(16), 1..400),
        ) {
            let geo = Geometry::small_test();
            let ppb = geo.pages_per_block;
            let mut bst = Bst::new(&geo, true);
            let mut active: Vec<BlockId> = Vec::new();
            let write = |bst: &mut Bst, b: u64| {
                let info = *bst.get(BlockId(b));
                if info.kind == BlockKind::Data && info.written < ppb {
                    bst.update(BlockId(b), |info| {
                        info.written += 1;
                        info.valid += 1;
                    });
                }
            };
            let invalidate = |bst: &mut Bst, b: u64| {
                if bst.get(BlockId(b)).kind == BlockKind::Data && bst.get(BlockId(b)).valid > 0 {
                    bst.update(BlockId(b), |info| info.valid -= 1);
                }
            };
            for op in ops {
                match op {
                    BlockOp::Open(b) => {
                        if bst.get(BlockId(b)).kind == BlockKind::Free {
                            bst.update(BlockId(b), |info| info.kind = BlockKind::Data);
                            active.push(BlockId(b));
                        }
                    }
                    BlockOp::Close(b) => active.retain(|a| *a != BlockId(b)),
                    BlockOp::Write(b) => write(&mut bst, b),
                    BlockOp::Overwrite(new, old) => {
                        write(&mut bst, new);
                        invalidate(&mut bst, old);
                    }
                    BlockOp::Trim(b) => invalidate(&mut bst, b),
                    BlockOp::MarkReclaimable(b) => {
                        let info = *bst.get(BlockId(b));
                        if info.kind == BlockKind::Data && info.reclaimable < info.invalid() {
                            bst.update(BlockId(b), |info| info.reclaimable += 1);
                        }
                    }
                    BlockOp::Erase(b) => {
                        bst.reset(BlockId(b));
                        active.retain(|a| *a != BlockId(b));
                    }
                    BlockOp::OpenDelta(b) => {
                        if bst.get(BlockId(b)).kind == BlockKind::Free {
                            bst.update(BlockId(b), |info| info.kind = BlockKind::Delta(0));
                        }
                    }
                }
                let indexed = (
                    bst.gc_victim(|b, _| !active.contains(&b)),
                    bst.background_victim(|b, _| !active.contains(&b)),
                );
                prop_assert_eq!(indexed, bst.swept_victims(ppb, |b| active.contains(&b)));
            }
            prop_assert_eq!(misfiled(&bst), []);
        }
    }

    #[test]
    fn imt_head_roundtrip() {
        let mut imt = Imt::new(4);
        assert!(imt.head(Lpa(1)).is_none());
        imt.set_head(Lpa(1), Ppa(9), 77);
        assert_eq!(imt.head(Lpa(1)), Some((Ppa(9), 77)));
        assert_eq!(imt.iter().collect::<Vec<_>>(), [(Lpa(1), (Ppa(9), 77))]);
    }

    #[test]
    fn imt_ignores_lpas_beyond_the_exported_size() {
        let mut imt = Imt::new(4);
        // A rotted OOB LPA plants nothing, not even the table itself.
        for lpa in [4, 5, u64::MAX] {
            imt.set_head(Lpa(lpa), Ppa(1), 10);
            assert_eq!(imt.head(Lpa(lpa)), None);
        }
        assert_eq!(imt.iter().count(), 0);
        // Page 0 at time 0 is a head, not the all-zero "no head".
        imt.set_head(Lpa(3), Ppa(0), 0);
        assert_eq!(imt.head(Lpa(3)), Some((Ppa(0), 0)));
        assert_eq!(imt.head(Lpa(4)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `set_head`s over 24 LPAs, a few of them beyond the 20
        /// exported: every head reads back what a map keeping only the
        /// in-range ones holds, and `iter` walks them in ascending LPA order.
        #[test]
        fn imt_matches_a_map_model(
            sets in proptest::collection::vec((0u64..24, 0u64..1000, any::<u64>()), 0..120),
        ) {
            let mut imt = Imt::new(20);
            let mut model = HashMap::new();
            for (lpa, page, ts) in sets {
                imt.set_head(Lpa(lpa), Ppa(page), ts);
                if lpa < 20 {
                    model.insert(Lpa(lpa), (Ppa(page), ts));
                }
                for l in 0..24 {
                    prop_assert_eq!(imt.head(Lpa(l)), model.get(&Lpa(l)).copied());
                }
            }
            let mut want: Vec<_> = model.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(imt.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn sharded_amt_matches_flat_amt_for_every_shard_count() {
        // Byte-identical behaviour whatever shard count the caller still
        // passes, including one that does not divide the exported size.
        let exported = 37u64;
        for shards in [1u32, 2, 3, 4, 8, 64] {
            // The reference model: one flat vector indexed by LPA.
            let mut flat = vec![AmtEntry::Unmapped; exported as usize];
            let mut sharded = ShardedAmt::new(exported, shards);
            assert_eq!(sharded.len(), exported);
            for i in 0..exported {
                let entry = match i % 3 {
                    0 => AmtEntry::Mapped(Ppa(i * 7)),
                    1 => AmtEntry::Trimmed(Ppa(i), i as Nanos),
                    _ => AmtEntry::Unmapped,
                };
                let old = std::mem::replace(&mut flat[i as usize], entry);
                assert_eq!(old, sharded.set(Lpa(i), entry));
            }
            for i in 0..exported + 4 {
                let want = flat.get(i as usize).copied().unwrap_or_default();
                assert_eq!(want, sharded.get(Lpa(i)));
            }
            let flat_iter = flat.iter().enumerate().map(|(i, e)| (Lpa(i as u64), *e));
            assert!(flat_iter.eq(sharded.iter()), "iter order diverged");
        }
    }

    #[test]
    fn sharded_amt_out_of_range_reads_unmapped_and_ignores_set() {
        let mut amt = ShardedAmt::new(8, 4);
        assert_eq!(amt.get(Lpa(8)), AmtEntry::Unmapped);
        assert_eq!(amt.get(Lpa(u64::MAX)), AmtEntry::Unmapped);
        assert_eq!(
            amt.set(Lpa(u64::MAX), AmtEntry::Mapped(Ppa(1))),
            AmtEntry::Unmapped
        );
        assert_eq!(amt.get(Lpa(u64::MAX)), AmtEntry::Unmapped);
    }

    #[test]
    fn sharded_amt_clone_is_deep() {
        let mut a = ShardedAmt::new(16, 4);
        a.set(Lpa(5), AmtEntry::Mapped(Ppa(50)));
        let b = a.clone();
        a.set(Lpa(5), AmtEntry::Unmapped);
        assert_eq!(b.get(Lpa(5)), AmtEntry::Mapped(Ppa(50)));
    }
}
