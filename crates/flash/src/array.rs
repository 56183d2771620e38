//! The flash array: blocks, pages, and the per-chip timing model.

use std::collections::VecDeque;

use crate::addr::{BlockId, Nanos, Ppa};
use crate::error::{FlashError, FlashResult};
use crate::fault::{FaultPlan, FlashOp};
use crate::geometry::Geometry;
use crate::latency::LatencyConfig;
use crate::page::{Oob, PageData};
use crate::stats::FlashStats;

/// Lifecycle state of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and available for programming.
    Free,
    /// Programmed with data.
    Written,
}

/// Lifecycle state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// All pages free.
    Erased,
    /// At least one page programmed.
    Open,
}

/// One physical page.
#[derive(Debug, Clone)]
pub struct Page {
    /// Free or written.
    pub state: PageState,
    /// Stored payload (meaningful only when written).
    pub data: PageData,
    /// Out-of-band metadata (meaningful only when written).
    pub oob: Option<Oob>,
}

impl Page {
    fn free() -> Self {
        Page {
            state: PageState::Free,
            data: PageData::Zeros,
            oob: None,
        }
    }
}

/// One flash block: a run of pages that must be programmed sequentially and
/// erased as a unit.
#[derive(Debug, Clone)]
pub struct Block {
    /// Pages of the block.
    pub pages: Vec<Page>,
    /// Next page offset the chip will accept a program for.
    pub write_ptr: u32,
    /// Number of erases this block has endured.
    pub erase_count: u32,
}

impl Block {
    fn new(pages_per_block: u32) -> Self {
        Block {
            pages: (0..pages_per_block).map(|_| Page::free()).collect(),
            write_ptr: 0,
            erase_count: 0,
        }
    }

    /// Erased or open.
    pub fn state(&self) -> BlockState {
        if self.write_ptr == 0 {
            BlockState::Erased
        } else {
            BlockState::Open
        }
    }

    /// True when every page has been programmed.
    pub fn is_full(&self) -> bool {
        self.write_ptr as usize == self.pages.len()
    }
}

/// The simulated flash array.
///
/// All operations take the current virtual time `now` and return the
/// operation's completion time, computed against the owning chip's
/// `busy-until` horizon — two operations on different chips overlap, two on
/// the same chip serialise.
///
/// # Examples
///
/// ```
/// use almanac_flash::{FlashArray, Geometry, LatencyConfig, PageData, Oob, Lpa};
/// let geo = Geometry::small_test();
/// let mut flash = FlashArray::new(geo, LatencyConfig::default());
/// let ppa = geo.ppa(0, 0);
/// let t1 = flash.program(ppa, PageData::Zeros, Oob::new(Lpa(0), None, 0), 0).unwrap();
/// assert_eq!(t1, flash.latency().program_total());
/// ```
#[derive(Debug, Clone)]
pub struct FlashArray {
    geometry: Geometry,
    latency: LatencyConfig,
    blocks: Vec<Block>,
    chip_busy: Vec<Nanos>,
    stats: FlashStats,
    /// Erase endurance per block; `None` disables wear-out failures.
    endurance: Option<u32>,
    /// Active fault schedule; `None` = fault-free device.
    fault_plan: Option<FaultPlan>,
    /// Total ops issued (reads + programs + erases that passed validity).
    ops_issued: u64,
    /// Per-class op counters, for targeted fault indices.
    class_issued: [u64; 3],
    /// Set once a scheduled power cut fires; cleared by [`Self::revive`].
    powered_off: bool,
    /// Erase-count histogram over the window `wear_min ..= max`: slot `i`
    /// counts the blocks erased `wear_min + i` times. Both ends are occupied,
    /// so the spread is `len - 1`. Maintained by [`Self::erase`], the only
    /// place an erase count changes.
    wear_hist: VecDeque<u32>,
    /// Erase count of the least-worn block.
    wear_min: u32,
}

/// The maintained erase-count bounds disagree with a recount of the blocks
/// (see [`FlashArray::wear_index_drift`]); each side is `(min, max)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearIndexDrift {
    /// What the histogram says.
    pub index: (u32, u32),
    /// What the blocks say.
    pub recount: (u32, u32),
}

impl FlashArray {
    /// Creates a fully-erased array.
    pub fn new(geometry: Geometry, latency: LatencyConfig) -> Self {
        let blocks = (0..geometry.total_blocks())
            .map(|_| Block::new(geometry.pages_per_block))
            .collect();
        FlashArray {
            geometry,
            latency,
            blocks,
            chip_busy: vec![0; geometry.total_chips() as usize],
            stats: FlashStats::default(),
            endurance: None,
            fault_plan: None,
            ops_issued: 0,
            class_issued: [0; 3],
            powered_off: false,
            wear_hist: VecDeque::from([geometry.total_blocks() as u32]),
            wear_min: 0,
        }
    }

    /// Enables wear-out: erasing a block more than `cycles` times fails.
    pub fn with_endurance(mut self, cycles: u32) -> Self {
        self.endurance = Some(cycles);
        self
    }

    /// Attaches a deterministic fault schedule (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Total operations issued so far (reads + programs + erases that
    /// passed validity checks). The unit in which `FaultPlan::power_cut_at`
    /// is expressed.
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued
    }

    /// True after a scheduled power cut has fired and before [`Self::revive`].
    pub fn powered_off(&self) -> bool {
        self.powered_off
    }

    /// Restores power after a cut.
    ///
    /// The scheduled cut is consumed (it will not re-fire), but any
    /// remaining op faults and OOB rot stay armed. Volatile device state
    /// (mapping tables, buffers) is the FTL's problem — flash contents
    /// survive exactly as they were at the instant of the cut, and the FTL
    /// must rebuild from the on-flash metadata.
    pub fn revive(&mut self) {
        self.powered_off = false;
        if let Some(plan) = &mut self.fault_plan {
            plan.power_cut_at = None;
        }
    }

    /// Gate run at the head of each op: counts it, fires a scheduled power
    /// cut or injected fault. Failed-by-injection ops advance the counters
    /// (they were issued) but leave array state and timing untouched.
    fn fault_gate(&mut self, op: FlashOp) -> FlashResult<()> {
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let at_op = self.ops_issued;
        self.ops_issued += 1;
        let class = match op {
            FlashOp::Read => 0,
            FlashOp::Program => 1,
            FlashOp::Erase => 2,
        };
        let nth = self.class_issued[class];
        self.class_issued[class] += 1;
        if let Some(plan) = &self.fault_plan {
            if plan.power_cut_at.is_some_and(|cut| at_op >= cut) {
                self.powered_off = true;
                return Err(FlashError::PowerLoss);
            }
            if let Some(kind) = plan.fault_for(op, nth) {
                return Err(FlashError::Injected { kind, at_op });
            }
        }
        Ok(())
    }

    /// The array geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyConfig {
        &self.latency
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    fn check_ppa(&self, ppa: Ppa) -> FlashResult<()> {
        if self.geometry.contains_ppa(ppa) {
            Ok(())
        } else {
            Err(FlashError::BadPpa(ppa))
        }
    }

    fn occupy_chip(&mut self, chip: u32, now: Nanos, cost: Nanos) -> Nanos {
        let busy = &mut self.chip_busy[chip as usize];
        let start = (*busy).max(now);
        let finish = start + cost;
        *busy = finish;
        finish
    }

    /// Reads a programmed page, returning data, OOB, and completion time.
    ///
    /// With a fault plan attached the read may fail with `PowerLoss` or an
    /// injected uncorrectable-ECC error, and the returned OOB may carry
    /// deterministic bit-rot (the stored page is never modified).
    pub fn read(&mut self, ppa: Ppa, now: Nanos) -> FlashResult<(PageData, Oob, Nanos)> {
        self.check_ppa(ppa)?;
        let block = self.geometry.block_of(ppa);
        let off = self.geometry.page_offset(ppa) as usize;
        if self.blocks[block.0 as usize].pages[off].state == PageState::Free {
            return Err(FlashError::ReadFree(ppa));
        }
        self.fault_gate(FlashOp::Read)?;
        let page = &self.blocks[block.0 as usize].pages[off];
        let data = page.data.clone();
        let mut oob = page.oob.expect("written page always has OOB");
        if let Some(plan) = &self.fault_plan {
            oob = plan.rot_oob(ppa, oob);
        }
        let chip = self.geometry.chip_of_ppa(ppa);
        let finish = self.occupy_chip(chip, now, self.latency.read_total());
        self.stats.reads += 1;
        Ok((data, oob, finish))
    }

    /// Inspects a page without advancing time or counters.
    ///
    /// Used by host-side tooling to validate simulator state in tests; the
    /// FTL itself always pays for its reads. Peek ignores power state and
    /// transient op faults (it is not a device command) but still sees OOB
    /// bit-rot — corruption lives in the cells, not in the command path.
    pub fn peek(&self, ppa: Ppa) -> FlashResult<(&PageData, Oob)> {
        self.check_ppa(ppa)?;
        let block = self.geometry.block_of(ppa);
        let off = self.geometry.page_offset(ppa) as usize;
        let page = &self.blocks[block.0 as usize].pages[off];
        if page.state == PageState::Free {
            return Err(FlashError::ReadFree(ppa));
        }
        let mut oob = page.oob.expect("written page always has OOB");
        if let Some(plan) = &self.fault_plan {
            oob = plan.rot_oob(ppa, oob);
        }
        Ok((&page.data, oob))
    }

    /// Returns the state of a page without touching timing.
    pub fn page_state(&self, ppa: Ppa) -> FlashResult<PageState> {
        self.check_ppa(ppa)?;
        let block = self.geometry.block_of(ppa);
        let off = self.geometry.page_offset(ppa) as usize;
        Ok(self.blocks[block.0 as usize].pages[off].state)
    }

    /// Programs a free page (sequential within its block).
    pub fn program(
        &mut self,
        ppa: Ppa,
        data: PageData,
        oob: Oob,
        now: Nanos,
    ) -> FlashResult<Nanos> {
        self.check_ppa(ppa)?;
        let block_id = self.geometry.block_of(ppa);
        let off = self.geometry.page_offset(ppa);
        {
            let block = &self.blocks[block_id.0 as usize];
            if block.pages[off as usize].state == PageState::Written {
                return Err(FlashError::ProgramWritten(ppa));
            }
            if off != block.write_ptr {
                return Err(FlashError::NonSequentialProgram {
                    ppa,
                    expected_offset: block.write_ptr,
                });
            }
        }
        // A cut or injected failure at this index aborts atomically: the
        // page stays free (a torn page would fail ECC and read as free).
        self.fault_gate(FlashOp::Program)?;
        let block = &mut self.blocks[block_id.0 as usize];
        block.pages[off as usize] = Page {
            state: PageState::Written,
            data,
            oob: Some(oob),
        };
        block.write_ptr += 1;
        let chip = self.geometry.chip_of_ppa(ppa);
        let finish = self.occupy_chip(chip, now, self.latency.program_total());
        self.stats.programs += 1;
        Ok(finish)
    }

    /// Erases a whole block, resetting every page to free.
    pub fn erase(&mut self, block_id: BlockId, now: Nanos) -> FlashResult<Nanos> {
        if !self.geometry.contains_block(block_id) {
            return Err(FlashError::BadBlock(block_id));
        }
        if let Some(limit) = self.endurance {
            if self.blocks[block_id.0 as usize].erase_count >= limit {
                return Err(FlashError::WornOut(block_id));
            }
        }
        self.fault_gate(FlashOp::Erase)?;
        let block = &mut self.blocks[block_id.0 as usize];
        for page in &mut block.pages {
            *page = Page::free();
        }
        block.write_ptr = 0;
        let slot = (block.erase_count - self.wear_min) as usize;
        block.erase_count += 1;
        if slot + 1 == self.wear_hist.len() {
            self.wear_hist.push_back(0);
        }
        self.wear_hist[slot] -= 1;
        self.wear_hist[slot + 1] += 1;
        while self.wear_hist.front() == Some(&0) {
            self.wear_hist.pop_front();
            self.wear_min += 1;
        }
        let chip = self.geometry.chip_of_block(block_id);
        let finish = self.occupy_chip(chip, now, self.latency.erase_ns);
        self.stats.erases += 1;
        Ok(finish)
    }

    /// Erase count of a block.
    pub fn erase_count(&self, block_id: BlockId) -> FlashResult<u32> {
        if !self.geometry.contains_block(block_id) {
            return Err(FlashError::BadBlock(block_id));
        }
        Ok(self.blocks[block_id.0 as usize].erase_count)
    }

    /// Immutable view of a block.
    pub fn block(&self, block_id: BlockId) -> FlashResult<&Block> {
        if !self.geometry.contains_block(block_id) {
            return Err(FlashError::BadBlock(block_id));
        }
        Ok(&self.blocks[block_id.0 as usize])
    }

    /// The chip `busy-until` horizon, for latency accounting by upper layers.
    pub fn chip_busy_until(&self, chip: u32) -> Nanos {
        self.chip_busy[chip as usize]
    }

    /// A 64-bit FNV-1a digest of the persistent device state: every block's
    /// write pointer, erase count, and the contents + OOB of every written
    /// page.
    ///
    /// Two identically-seeded runs that issued the same op sequence produce
    /// byte-identical flash state and therefore equal digests; any
    /// divergence in what actually hit the cells shows up here. Volatile
    /// state (timing horizons, stats, fault bookkeeping) is excluded so the
    /// digest survives a power cut + revive unchanged.
    pub fn state_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for block in &self.blocks {
            eat(&block.write_ptr.to_le_bytes());
            eat(&block.erase_count.to_le_bytes());
            for page in &block.pages {
                if page.state == PageState::Written {
                    // Debug output is a pure function of the stored value,
                    // which is all the digest needs.
                    eat(format!("{:?}|{:?};", page.data, page.oob).as_bytes());
                }
            }
        }
        h
    }

    /// Spread (max - min) of erase counts across all blocks — the wear
    /// imbalance metric the wear-leveling trigger reads on every host write,
    /// so it is answered from the histogram, not by sweeping the blocks.
    pub fn wear_spread(&self) -> u32 {
        self.wear_hist.len() as u32 - 1
    }

    /// Audit for an embedding FTL's consistency check: recounts the erase
    /// bounds from the blocks and reports a disagreement with the histogram
    /// behind [`Self::wear_spread`]. `None` on a sound array.
    pub fn wear_index_drift(&self) -> Option<WearIndexDrift> {
        let counts = || self.blocks.iter().map(|b| b.erase_count);
        let recount = (counts().min().unwrap_or(0), counts().max().unwrap_or(0));
        let index = (self.wear_min, self.wear_min + self.wear_spread());
        (index != recount).then_some(WearIndexDrift { index, recount })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Lpa;
    use crate::fault::InjectedKind;

    fn fixture() -> FlashArray {
        FlashArray::new(Geometry::small_test(), LatencyConfig::default())
    }

    fn oob(lpa: u64) -> Oob {
        Oob::new(Lpa(lpa), None, 0)
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut f = fixture();
        let ppa = f.geometry().ppa(1, 0);
        f.program(ppa, PageData::bytes(vec![7; 10]), oob(3), 0)
            .unwrap();
        let (data, meta, _) = f.read(ppa, 0).unwrap();
        assert_eq!(data, PageData::bytes(vec![7; 10]));
        assert_eq!(meta.lpa, Lpa(3));
    }

    #[test]
    fn program_written_page_fails() {
        let mut f = fixture();
        let ppa = f.geometry().ppa(0, 0);
        f.program(ppa, PageData::Zeros, oob(0), 0).unwrap();
        assert_eq!(
            f.program(ppa, PageData::Zeros, oob(0), 0),
            Err(FlashError::ProgramWritten(ppa))
        );
    }

    #[test]
    fn out_of_order_program_fails() {
        let mut f = fixture();
        let ppa = f.geometry().ppa(0, 2);
        let err = f.program(ppa, PageData::Zeros, oob(0), 0).unwrap_err();
        assert_eq!(
            err,
            FlashError::NonSequentialProgram {
                ppa,
                expected_offset: 0
            }
        );
    }

    #[test]
    fn read_free_page_fails() {
        let mut f = fixture();
        let ppa = f.geometry().ppa(0, 0);
        assert_eq!(f.read(ppa, 0), Err(FlashError::ReadFree(ppa)));
    }

    #[test]
    fn erase_resets_block() {
        let mut f = fixture();
        let g = *f.geometry();
        for off in 0..g.pages_per_block {
            f.program(g.ppa(0, off), PageData::Zeros, oob(off as u64), 0)
                .unwrap();
        }
        assert!(f.block(BlockId(0)).unwrap().is_full());
        f.erase(BlockId(0), 0).unwrap();
        let b = f.block(BlockId(0)).unwrap();
        assert_eq!(b.state(), BlockState::Erased);
        assert_eq!(b.erase_count, 1);
        // Programming from offset 0 works again.
        f.program(g.ppa(0, 0), PageData::Zeros, oob(0), 0).unwrap();
    }

    #[test]
    fn same_chip_operations_serialise() {
        let mut f = fixture();
        let g = *f.geometry();
        // Blocks 0 and 1 are on channel 0 (same chip) in small_test.
        let t1 = f.program(g.ppa(0, 0), PageData::Zeros, oob(0), 0).unwrap();
        let t2 = f.program(g.ppa(1, 0), PageData::Zeros, oob(1), 0).unwrap();
        assert_eq!(t2, t1 + f.latency().program_total());
    }

    #[test]
    fn different_chip_operations_overlap() {
        let mut f = fixture();
        let g = *f.geometry();
        // Block 0 is chip 0; block 8 is chip 1 in small_test geometry.
        let t1 = f.program(g.ppa(0, 0), PageData::Zeros, oob(0), 0).unwrap();
        let t2 = f.program(g.ppa(8, 0), PageData::Zeros, oob(1), 0).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn endurance_limit_enforced() {
        let mut f =
            FlashArray::new(Geometry::small_test(), LatencyConfig::default()).with_endurance(2);
        f.erase(BlockId(0), 0).unwrap();
        f.erase(BlockId(0), 0).unwrap();
        assert_eq!(f.erase(BlockId(0), 0), Err(FlashError::WornOut(BlockId(0))));
    }

    #[test]
    fn stats_count_operations() {
        let mut f = fixture();
        let g = *f.geometry();
        f.program(g.ppa(0, 0), PageData::Zeros, oob(0), 0).unwrap();
        f.read(g.ppa(0, 0), 0).unwrap();
        f.erase(BlockId(1), 0).unwrap();
        assert_eq!(
            *f.stats(),
            FlashStats {
                reads: 1,
                programs: 1,
                erases: 1
            }
        );
    }

    #[test]
    fn peek_does_not_advance_time_or_stats() {
        let mut f = fixture();
        let g = *f.geometry();
        let ppa = g.ppa(0, 0);
        f.program(ppa, PageData::Zeros, oob(0), 0).unwrap();
        let before = *f.stats();
        let busy = f.chip_busy_until(0);
        let _ = f.peek(ppa).unwrap();
        assert_eq!(*f.stats(), before);
        assert_eq!(f.chip_busy_until(0), busy);
    }

    #[test]
    fn power_cut_kills_device_until_revive() {
        let mut f = FlashArray::new(Geometry::small_test(), LatencyConfig::default())
            .with_fault_plan(FaultPlan::new(1).with_power_cut_at(2));
        let g = *f.geometry();
        f.program(g.ppa(0, 0), PageData::Zeros, oob(0), 0).unwrap();
        f.program(g.ppa(0, 1), PageData::Zeros, oob(1), 0).unwrap();
        // Op index 2 hits the cut; the page is NOT programmed (atomic abort).
        assert_eq!(
            f.program(g.ppa(0, 2), PageData::Zeros, oob(2), 0),
            Err(FlashError::PowerLoss)
        );
        assert!(f.powered_off());
        assert_eq!(f.page_state(g.ppa(0, 2)).unwrap(), PageState::Free);
        // Everything fails while dead, including reads and erases.
        assert_eq!(f.read(g.ppa(0, 0), 0), Err(FlashError::PowerLoss));
        assert_eq!(f.erase(BlockId(1), 0), Err(FlashError::PowerLoss));
        // Power restored: pre-cut state intact, device usable again.
        f.revive();
        assert!(!f.powered_off());
        let (_, meta, _) = f.read(g.ppa(0, 1), 0).unwrap();
        assert_eq!(meta.lpa, Lpa(1));
        f.program(g.ppa(0, 2), PageData::Zeros, oob(2), 0).unwrap();
    }

    #[test]
    fn injected_op_faults_fire_once_at_exact_index() {
        let mut f = FlashArray::new(Geometry::small_test(), LatencyConfig::default())
            .with_fault_plan(FaultPlan::new(1).with_program_fault(1).with_read_fault(0));
        let g = *f.geometry();
        f.program(g.ppa(0, 0), PageData::Zeros, oob(0), 0).unwrap();
        // Program #1 fails and leaves the page free.
        let err = f
            .program(g.ppa(0, 1), PageData::Zeros, oob(1), 0)
            .unwrap_err();
        assert!(matches!(
            err,
            FlashError::Injected {
                kind: InjectedKind::ProgramFail,
                ..
            }
        ));
        assert_eq!(f.page_state(g.ppa(0, 1)).unwrap(), PageState::Free);
        // Retrying is a new op index, so it succeeds.
        f.program(g.ppa(0, 1), PageData::Zeros, oob(1), 0).unwrap();
        // Read #0 fails, read #1 succeeds.
        assert!(matches!(
            f.read(g.ppa(0, 0), 0),
            Err(FlashError::Injected {
                kind: InjectedKind::ReadUncorrectable,
                ..
            })
        ));
        f.read(g.ppa(0, 0), 0).unwrap();
    }

    #[test]
    fn oob_rot_corrupts_read_and_peek_but_not_cells() {
        let mut f = FlashArray::new(Geometry::small_test(), LatencyConfig::default())
            .with_fault_plan(FaultPlan::new(9).with_oob_rot(1000));
        let g = *f.geometry();
        let ppa = g.ppa(0, 0);
        let clean = Oob::new(Lpa(5), Some(g.ppa(1, 0)), 777);
        f.program(ppa, PageData::Zeros, clean, 0).unwrap();
        let (_, rotted, _) = f.read(ppa, 0).unwrap();
        assert_ne!(rotted, clean);
        // Rot is stable and identical through both access paths.
        let (_, peeked) = f.peek(ppa).unwrap();
        assert_eq!(peeked, rotted);
        let (_, again, _) = f.read(ppa, 0).unwrap();
        assert_eq!(again, rotted);
        // The cells themselves are pristine: digest matches a fault-free
        // device that executed the same programs.
        let mut clean_dev = FlashArray::new(g, LatencyConfig::default());
        clean_dev.program(ppa, PageData::Zeros, clean, 0).unwrap();
        assert_eq!(f.state_digest(), clean_dev.state_digest());
    }

    #[test]
    fn digest_tracks_persistent_state_only() {
        let mut a = fixture();
        let mut b = fixture();
        let g = *a.geometry();
        assert_eq!(a.state_digest(), b.state_digest());
        a.program(g.ppa(0, 0), PageData::bytes(vec![1, 2]), oob(4), 0)
            .unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        b.program(g.ppa(0, 0), PageData::bytes(vec![1, 2]), oob(4), 0)
            .unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
        // Reads move time and stats but never the digest.
        a.read(g.ppa(0, 0), 0).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn wear_spread_tracks_imbalance() {
        let mut f = fixture();
        assert_eq!(f.wear_spread(), 0);
        f.erase(BlockId(0), 0).unwrap();
        f.erase(BlockId(0), 0).unwrap();
        f.erase(BlockId(1), 0).unwrap();
        assert_eq!(f.wear_spread(), 2);
    }

    /// The deleted two-pass sweep, kept as the reference.
    fn swept_spread(f: &FlashArray) -> u32 {
        let counts = || f.blocks.iter().map(|b| b.erase_count);
        counts().max().unwrap() - counts().min().unwrap()
    }

    #[test]
    fn wear_spread_follows_an_advancing_minimum() {
        let mut f = fixture();
        let blocks = f.geometry().total_blocks();
        // Round 1 erases every block once (the minimum moves 0 -> 1 only on
        // the last erase), round 2 all but the last block, and so on: the
        // minimum advances while the spread both grows and shrinks.
        for round in 0..4 {
            for b in 0..blocks - round {
                f.erase(BlockId(b), 0).unwrap();
                assert_eq!(f.wear_spread(), swept_spread(&f), "round {round} block {b}");
                assert_eq!(f.wear_index_drift(), None);
            }
        }
        assert_eq!((f.wear_min, f.wear_spread()), (1, 3));
        // Catching the laggards up closes the window from below.
        for b in blocks - 3..blocks {
            while f.erase_count(BlockId(b)).unwrap() < 4 {
                f.erase(BlockId(b), 0).unwrap();
                assert_eq!(f.wear_spread(), swept_spread(&f));
            }
        }
        assert_eq!((f.wear_min, f.wear_spread()), (4, 0));
    }

    #[test]
    fn wear_histogram_survives_clone_and_power_cycle() {
        let mut f = FlashArray::new(Geometry::small_test(), LatencyConfig::default())
            .with_fault_plan(FaultPlan::new(1).with_power_cut_at(3));
        f.erase(BlockId(2), 0).unwrap();
        f.erase(BlockId(2), 0).unwrap();
        f.erase(BlockId(5), 0).unwrap();
        // The cut aborts the erase: neither the block nor the histogram moves.
        assert_eq!(f.erase(BlockId(2), 0), Err(FlashError::PowerLoss));
        assert_eq!(f.wear_spread(), 2);
        let mut copy = f.clone();
        copy.revive();
        copy.erase(BlockId(2), 0).unwrap();
        assert_eq!((copy.wear_spread(), f.wear_spread()), (3, 2));
        assert_eq!(copy.wear_index_drift(), None);
        assert_eq!(f.wear_index_drift(), None);
    }

    #[test]
    fn stale_wear_histogram_is_reported() {
        let mut f = fixture();
        f.erase(BlockId(0), 0).unwrap();
        assert_eq!(f.wear_index_drift(), None);
        // An erase that skipped the histogram.
        f.blocks[3].erase_count += 2;
        assert_eq!(
            f.wear_index_drift(),
            Some(WearIndexDrift {
                index: (0, 1),
                recount: (0, 2)
            })
        );
    }
}
