//! FTL mapping and status tables.
//!
//! These mirror Figure 3 of the paper. Structures ①–④ exist in a regular
//! SSD: the address mapping table (AMT), global mapping directory (GMD —
//! the demand-cached translation pages, modelled by
//! [`MapCache`](crate::MapCache)), block status table (BST),
//! and page validity table (PVT). TimeSSD adds
//! ⑤–⑧: the index mapping table (IMT), page reclamation table (PRT), the
//! Bloom filters (in `almanac-bloom`), and the delta buffers (in
//! `timessd::deltas`).

use std::collections::HashMap;

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

/// One flag per physical page, the shape of both per-page tables.
/// Out-of-range addresses (e.g. a corrupt OOB back-pointer) read as clear
/// and ignore writes rather than panicking.
#[derive(Debug, Clone)]
pub(crate) struct PageBits {
    bits: Vec<bool>,
}

/// Page validity table ④: set while the page is the latest version of its
/// LPA.
pub(crate) type Pvt = PageBits;

/// Page reclamation table ⑥: set on invalid pages whose content has been
/// delta-compressed (or found expired) and may be discarded by GC.
pub(crate) type Prt = PageBits;

impl PageBits {
    /// All-clear table over the whole array.
    pub fn new(total_pages: u64) -> Self {
        PageBits {
            bits: vec![false; total_pages as usize],
        }
    }

    /// Is the page's flag set?
    pub fn get(&self, ppa: Ppa) -> bool {
        self.bits.get(ppa.0 as usize).copied().unwrap_or(false)
    }

    /// Sets or clears the page's flag.
    pub fn set(&mut self, ppa: Ppa, on: bool) {
        if let Some(bit) = self.bits.get_mut(ppa.0 as usize) {
            *bit = on;
        }
    }

    /// Clears every page of a block (on erase).
    pub fn clear_block(&mut self, geometry: &Geometry, block: BlockId) {
        let start = (block.0 * geometry.pages_per_block as u64) as usize;
        self.bits[start..start + geometry.pages_per_block as usize].fill(false);
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
    pub fn invalid(&self) -> u32 {
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
/// filed under its score while it is a [`BlockKind::Data`] block scoring
/// above zero, and nowhere otherwise. [`Bst::update`] re-files.
#[derive(Debug, Clone)]
struct VictimIndex {
    score: fn(&BlockInfo) -> u32,
    /// `bits[s * words ..][.. words]` is the bitmap of the blocks scoring `s`.
    bits: Vec<u64>,
    words: usize,
    /// Blocks filed per score, so a lookup skips the empty bitmaps.
    filed: Vec<u32>,
}

impl VictimIndex {
    fn new(score: fn(&BlockInfo) -> u32, geometry: &Geometry) -> Self {
        let scores = geometry.pages_per_block as usize + 1;
        let words = (geometry.total_blocks() as usize).div_ceil(64);
        VictimIndex {
            score,
            bits: vec![0; scores * words],
            words,
            filed: vec![0; scores],
        }
    }

    /// The score `info` is filed under; 0 = not filed.
    fn score_of(&self, info: &BlockInfo) -> u32 {
        match info.kind {
            BlockKind::Data => (self.score)(info),
            _ => 0,
        }
    }

    /// Moves `block` from the bitmap of score `old` to that of `new`.
    fn refile(&mut self, block: BlockId, old: u32, new: u32) {
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
}

/// Block status table ③ plus the delta-block extension, and the two victim
/// indices derived from it. The indices follow the table because
/// [`Bst::update`] is the only way to change an entry.
#[derive(Debug, Clone)]
pub(crate) struct Bst {
    blocks: Vec<BlockInfo>,
    /// GC's greedy order (Algorithm 1): most invalid pages.
    gc: VictimIndex,
    /// The idle-time compressor's order (§3.6): most retained pages not yet
    /// compressed.
    background: VictimIndex,
}

/// One block whose filing in a victim index disagrees with its BST entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexDrift {
    /// Which index.
    pub index: &'static str,
    /// The block.
    pub block: BlockId,
    /// The score it is filed under (0 = not filed).
    pub filed: u32,
    /// The score its BST entry earns.
    pub score: u32,
}

impl Bst {
    /// All-free table.
    pub fn new(geometry: &Geometry) -> Self {
        Bst {
            blocks: vec![BlockInfo::default(); geometry.total_blocks() as usize],
            gc: VictimIndex::new(BlockInfo::invalid, geometry),
            background: VictimIndex::new(BlockInfo::uncompressed, geometry),
        }
    }

    /// Immutable block info.
    pub fn get(&self, block: BlockId) -> &BlockInfo {
        &self.blocks[block.0 as usize]
    }

    /// Changes a block's entry and re-files the block in both indices.
    pub fn update(&mut self, block: BlockId, change: impl FnOnce(&mut BlockInfo)) {
        let info = &mut self.blocks[block.0 as usize];
        let old = (self.gc.score_of(info), self.background.score_of(info));
        change(info);
        let new = (self.gc.score_of(info), self.background.score_of(info));
        self.gc.refile(block, old.0, new.0);
        self.background.refile(block, old.1, new.1);
    }

    /// Iterates `(block, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockInfo)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u64), b))
    }

    /// Resets a block to free (after erase).
    pub fn reset(&mut self, block: BlockId) {
        self.update(block, |info| *info = BlockInfo::default());
    }

    /// GC's greedy victim: the acceptable data block with the most invalid
    /// pages (at least one); ties go to the highest block id.
    pub fn gc_victim(&self, accept: impl Fn(BlockId, &BlockInfo) -> bool) -> Option<BlockId> {
        self.gc.best(|b| accept(b, self.get(b)))
    }

    /// The idle-time compressor's victim: the acceptable data block with the
    /// most invalid pages not yet marked reclaimable (at least one); ties go
    /// to the highest block id.
    pub fn background_victim(
        &self,
        accept: impl Fn(BlockId, &BlockInfo) -> bool,
    ) -> Option<BlockId> {
        self.background.best(|b| accept(b, self.get(b)))
    }

    /// Recomputes both indices from the table and lists every block that is
    /// not filed under exactly the score its entry earns (consistency
    /// checking).
    pub fn index_drift(&self) -> Vec<IndexDrift> {
        let mut drift = Vec::new();
        for (name, index) in [("gc", &self.gc), ("background", &self.background)] {
            for (block, info) in self.iter() {
                let score = index.score_of(info);
                let mut scores = 1..index.filed.len() as u32;
                if scores.clone().any(|s| index.has(block, s) != (s == score)) {
                    let filed = scores.find(|&s| s != score && index.has(block, s));
                    drift.push(IndexDrift {
                        index: name,
                        block,
                        filed: filed.unwrap_or(0),
                        score,
                    });
                }
            }
        }
        drift
    }
}

/// Index mapping table ⑤: LPA → PPA of the delta page holding the newest
/// compressed version of that LPA.
#[derive(Debug, Clone, Default)]
pub(crate) struct Imt {
    heads: HashMap<Lpa, (Ppa, Nanos)>,
}

impl Imt {
    /// Empty table.
    pub fn new() -> Self {
        Imt::default()
    }

    /// Head of the delta chain for `lpa`: the delta page and the timestamp of
    /// the newest compressed version.
    pub fn head(&self, lpa: Lpa) -> Option<(Ppa, Nanos)> {
        self.heads.get(&lpa).copied()
    }

    /// Updates the chain head.
    pub fn set_head(&mut self, lpa: Lpa, page: Ppa, newest_ts: Nanos) {
        self.heads.insert(lpa, (page, newest_ts));
    }

    /// Iterates every `(lpa, (delta page, newest ts))` head — used by the
    /// consistency checker's reachability audit.
    pub fn iter(&self) -> impl Iterator<Item = (Lpa, (Ppa, Nanos))> + '_ {
        self.heads.iter().map(|(l, h)| (*l, *h))
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

    #[test]
    fn bst_invalid_derives_from_counts() {
        let mut bst = Bst::new(&Geometry::small_test());
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
        let mut bst = Bst::new(&geo);
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
        // Delta and free blocks are never filed.
        bst.update(BlockId(2), |info| info.kind = BlockKind::Delta(0));
        assert_eq!(bst.gc_victim(all), Some(BlockId(9)));
        for b in [9, 5] {
            bst.reset(BlockId(b));
        }
        assert_eq!(bst.gc_victim(all), None);
        assert_eq!(bst.background_victim(all), None);
        assert!(bst.index_drift().is_empty());
        assert!(bst.clone().index_drift().is_empty());
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
            let mut bst = Bst::new(&geo);
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
                    bst.background_victim(|b, info| info.written == ppb && !active.contains(&b)),
                );
                prop_assert_eq!(indexed, bst.swept_victims(ppb, |b| active.contains(&b)));
            }
            prop_assert!(bst.index_drift().is_empty(), "{:?}", bst.index_drift());
        }
    }

    #[test]
    fn imt_head_roundtrip() {
        let mut imt = Imt::new();
        assert!(imt.head(Lpa(1)).is_none());
        imt.set_head(Lpa(1), Ppa(9), 77);
        assert_eq!(imt.head(Lpa(1)), Some((Ppa(9), 77)));
        assert_eq!(imt.iter().collect::<Vec<_>>(), [(Lpa(1), (Ppa(9), 77))]);
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
