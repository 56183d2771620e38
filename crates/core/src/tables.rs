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
        self.written - self.valid
    }
}

/// Block status table ③ plus the delta-block extension.
#[derive(Debug, Clone)]
pub(crate) struct Bst {
    blocks: Vec<BlockInfo>,
}

impl Bst {
    /// All-free table.
    pub fn new(total_blocks: u64) -> Self {
        Bst {
            blocks: vec![BlockInfo::default(); total_blocks as usize],
        }
    }

    /// Immutable block info.
    pub fn get(&self, block: BlockId) -> &BlockInfo {
        &self.blocks[block.0 as usize]
    }

    /// Mutable block info.
    pub fn get_mut(&mut self, block: BlockId) -> &mut BlockInfo {
        &mut self.blocks[block.0 as usize]
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
        self.blocks[block.0 as usize] = BlockInfo::default();
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut bst = Bst::new(2);
        let info = bst.get_mut(BlockId(0));
        info.kind = BlockKind::Data;
        info.written = 8;
        info.valid = 5;
        assert_eq!(bst.get(BlockId(0)).invalid(), 3);
        bst.reset(BlockId(0));
        assert_eq!(bst.get(BlockId(0)).kind, BlockKind::Free);
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
