//! The regular (baseline) SSD: page-level mapping with greedy GC.
//!
//! This is the "Regular SSD" the paper compares against in Figures 6 and 7:
//! out-of-place writes, an address mapping table, greedy garbage collection
//! that migrates valid pages and erases the victim, and cold/hot
//! wear-leveling swaps. Invalid pages are reclaimed immediately — nothing is
//! retained.

use almanac_flash::{BlockId, FlashArray, Lpa, Nanos, Oob, PageData, Ppa};

use crate::alloc::Allocator;
use crate::config::SsdConfig;
use crate::device::{Completion, SsdDevice, SsdReadOps};
use crate::error::{AlmanacError, Result};
use crate::stats::DeviceStats;
use crate::tables::{AmtEntry, BlockKind, Bst, Gmd, Pvt, ShardedAmt};

/// A conventional SSD simulator.
///
/// # Examples
///
/// ```
/// use almanac_core::{RegularSsd, SsdConfig, SsdDevice};
/// use almanac_flash::{Geometry, Lpa, PageData};
///
/// let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
/// let c = ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
/// let (data, _) = ssd.read(Lpa(0), c.finish).unwrap();
/// assert_eq!(data, PageData::Zeros);
/// ```
#[derive(Clone)]
pub struct RegularSsd {
    config: SsdConfig,
    flash: FlashArray,
    amt: ShardedAmt,
    gmd: Gmd,
    pvt: Pvt,
    bst: Bst,
    alloc: Allocator,
    stats: DeviceStats,
    busy_until: Nanos,
    /// Finish time of the last acknowledged host I/O; a flush barrier can
    /// complete no earlier than this.
    last_io_end: Nanos,
    /// Erase count at the last wear-leveling attempt (rate limiter).
    wl_mark: u64,
}

impl RegularSsd {
    /// Creates a fully-erased regular SSD.
    pub fn new(config: SsdConfig) -> Self {
        let mut flash = FlashArray::new(config.geometry, config.latency);
        if let Some(e) = config.endurance {
            flash = flash.with_endurance(e);
        }
        if let Some(plan) = config.fault_plan.clone() {
            flash = flash.with_fault_plan(plan);
        }
        let geo = config.geometry;
        let exported = config.exported_pages();
        let mappings_per_page = (geo.page_size / 8) as u64;
        RegularSsd {
            flash,
            amt: ShardedAmt::new(exported, 1),
            gmd: Gmd::new(exported, mappings_per_page),
            pvt: Pvt::new(geo.total_pages()),
            bst: Bst::new(geo.total_blocks()),
            alloc: Allocator::new(geo),
            stats: DeviceStats::default(),
            busy_until: 0,
            last_io_end: 0,
            wl_mark: 0,
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Direct access to the simulated flash (tests and tooling).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Free blocks currently in the pool.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    fn check_lpa(&self, lpa: Lpa) -> Result<()> {
        if lpa.0 < self.amt.len() {
            Ok(())
        } else {
            Err(AlmanacError::LpaOutOfRange {
                lpa,
                exported: self.amt.len(),
            })
        }
    }

    fn invalidate(&mut self, old: Ppa) {
        self.pvt.set(old, false);
        let block = self.config.geometry.block_of(old);
        self.bst.get_mut(block).valid -= 1;
    }

    /// Writes one page, bypassing LPA range checks (internal). GC and
    /// wear-leveling migrations use the cold allocation stream.
    fn write_page(
        &mut self,
        lpa: Lpa,
        data: PageData,
        back_ptr: Option<Ppa>,
        ts: Nanos,
        at: Nanos,
        cold: bool,
    ) -> Result<Nanos> {
        let page = if cold {
            self.alloc.next_gc_page()
        } else {
            self.alloc.next_data_page()
        };
        let (ppa, opened) = page.ok_or(AlmanacError::DeviceStalled {
            now: at,
            retention_window: 0,
        })?;
        if let Some(b) = opened {
            self.bst.get_mut(b).kind = BlockKind::Data;
        }
        // On a failed program the chip never wrote the page: rewind the slot
        // so the block's program sequence stays aligned and a retry succeeds.
        let finish = self
            .flash
            .program(ppa, data, Oob::new(lpa, back_ptr, ts), at)
            .inspect_err(|_| self.alloc.unreserve_page(ppa))?;
        let block = self.config.geometry.block_of(ppa);
        let info = self.bst.get_mut(block);
        info.written += 1;
        info.valid += 1;
        self.pvt.set(ppa, true);
        if let AmtEntry::Mapped(old) = self.amt.set(lpa, AmtEntry::Mapped(ppa)) {
            self.invalidate(old);
        }
        self.gmd.note_update(lpa);
        Ok(finish)
    }

    /// Picks the closed data block with the most invalid pages.
    fn pick_victim(&self) -> Option<BlockId> {
        let ppb = self.config.geometry.pages_per_block;
        self.bst
            .iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data
                    && info.written == ppb
                    && info.invalid() > 0
                    && !self.alloc.is_active(*b)
            })
            .max_by_key(|(_, info)| info.invalid())
            .map(|(b, _)| b)
    }

    /// One GC pass: migrate valid pages out of the victim, erase it.
    fn gc_once(&mut self, now: Nanos) -> Result<bool> {
        let Some(victim) = self.pick_victim() else {
            return Ok(false);
        };
        let geo = self.config.geometry;
        let ppb = geo.pages_per_block;
        let mut t = now;
        for off in 0..ppb {
            let ppa = geo.ppa(victim.0, off);
            if !self.pvt.is_valid(ppa) {
                continue;
            }
            let (data, oob, rt) = self.flash.read(ppa, t)?;
            self.stats.gc_reads += 1;
            t = rt;
            // Migrating the valid head keeps its original timestamp and
            // back-pointer so nothing host-visible changes; the AMT update
            // inside `write_page` invalidates the old physical copy.
            let wt = self.write_page(oob.lpa, data, oob.back_ptr, oob.timestamp, t, true)?;
            self.stats.gc_programs += 1;
            t = wt;
        }
        let et = self.flash.erase(victim, t)?;
        self.stats.gc_erases += 1;
        t = et;
        self.pvt.clear_block(&geo, victim);
        self.bst.reset(victim);
        self.alloc.release(victim);
        self.stats.gc_time_ns += t.saturating_sub(now);
        self.busy_until = self.busy_until.max(t);
        Ok(true)
    }

    /// Wear leveling: when the erase-count spread exceeds the threshold,
    /// force-clean the coldest closed data block so it returns to the pool.
    fn maybe_wear_level(&mut self, now: Nanos) -> Result<()> {
        if !self.config.wear_leveling || self.flash.wear_spread() <= self.config.wl_spread_threshold
        {
            return Ok(());
        }
        // Rate limit: at most one swap per 64 block erases.
        let erases = self.flash.stats().erases;
        if erases < self.wl_mark + 64 {
            return Ok(());
        }
        self.wl_mark = erases;
        let ppb = self.config.geometry.pages_per_block;
        let coldest = self
            .bst
            .iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data && info.written == ppb && !self.alloc.is_active(*b)
            })
            .min_by_key(|(b, _)| self.flash.erase_count(*b).unwrap_or(u32::MAX));
        let Some((victim, _)) = coldest else {
            return Ok(());
        };
        let geo = self.config.geometry;
        let mut t = now;
        for off in 0..ppb {
            let ppa = geo.ppa(victim.0, off);
            if !self.pvt.is_valid(ppa) {
                continue;
            }
            let (data, oob, rt) = self.flash.read(ppa, t)?;
            t = rt;
            let wt = self.write_page(oob.lpa, data, oob.back_ptr, oob.timestamp, t, true)?;
            self.stats.wl_programs += 1;
            t = wt;
        }
        let et = self.flash.erase(victim, t)?;
        t = et;
        self.pvt.clear_block(&geo, victim);
        self.bst.reset(victim);
        self.alloc.release(victim);
        self.stats.wl_swaps += 1;
        self.busy_until = self.busy_until.max(t);
        Ok(())
    }

    fn maybe_gc(&mut self, now: Nanos) -> Result<()> {
        let mut guard = 0u32;
        while self.alloc.free_blocks() < self.config.gc_low_watermark as u64 {
            self.stats.gc_runs += 1;
            let start = now.max(self.busy_until);
            if !self.gc_once(start)? {
                break;
            }
            guard += 1;
            if guard > self.config.geometry.total_blocks() as u32 {
                break;
            }
        }
        self.maybe_wear_level(now.max(self.busy_until))?;
        Ok(())
    }
}

impl SsdDevice for RegularSsd {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        self.check_lpa(lpa)?;
        self.maybe_gc(now)?;
        let start = now.max(self.busy_until);
        let back_ptr = self.amt.get(lpa).chain_head();
        let finish = self.write_page(lpa, data, back_ptr, start, start, false)?;
        self.stats.user_writes += 1;
        self.stats.user_programs += 1;
        self.last_io_end = self.last_io_end.max(finish);
        let completion = Completion { start, finish };
        self.stats.write_lat.record(completion.response(now));
        Ok(completion)
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        self.check_lpa(lpa)?;
        let start = now.max(self.busy_until);
        let completion;
        let data = match self.amt.get(lpa) {
            AmtEntry::Mapped(ppa) => {
                let (data, _oob, finish) = self.flash.read(ppa, start)?;
                completion = Completion { start, finish };
                data
            }
            _ => {
                // Resolved from the mapping table in firmware: no flash op.
                let finish = start + self.config.latency.transfer_ns;
                completion = Completion { start, finish };
                PageData::Zeros
            }
        };
        self.stats.user_reads += 1;
        self.last_io_end = self.last_io_end.max(completion.finish);
        self.stats.read_lat.record(completion.response(now));
        Ok((data, completion))
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        self.check_lpa(lpa)?;
        let start = now.max(self.busy_until);
        if let AmtEntry::Mapped(old) = self.amt.set(lpa, AmtEntry::Unmapped) {
            self.invalidate(old);
        }
        self.gmd.note_update(lpa);
        self.stats.user_trims += 1;
        let finish = start + self.config.latency.transfer_ns;
        self.last_io_end = self.last_io_end.max(finish);
        Ok(Completion { start, finish })
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        // No volatile buffers, but the barrier still fences in-flight work:
        // it starts once the device frees up and completes no earlier than
        // the last acknowledged I/O, plus the command overhead.
        let start = now.max(self.busy_until);
        let finish = start
            .max(self.last_io_end)
            .saturating_add(self.config.flush_barrier_cost);
        self.busy_until = self.busy_until.max(finish);
        self.last_io_end = self.last_io_end.max(finish);
        self.stats.host_flushes += 1;
        let completion = Completion { start, finish };
        self.stats.flush_lat.record(completion.response(now));
        Ok(completion)
    }
}

impl SsdReadOps for RegularSsd {
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn exported_pages(&self) -> u64 {
        self.amt.len()
    }

    fn kind(&self) -> &'static str {
        "regular"
    }
    // No `read_view`: a regular SSD keeps no history to query.
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::Geometry;

    fn small() -> RegularSsd {
        RegularSsd::new(SsdConfig::new(Geometry::small_test()))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut ssd = small();
        let data = PageData::bytes(vec![9; 8]);
        ssd.write(Lpa(3), data.clone(), 0).unwrap();
        let (read, _) = ssd.read(Lpa(3), 1000).unwrap();
        assert_eq!(read, data);
    }

    #[test]
    fn unwritten_read_returns_zeros_without_flash() {
        let mut ssd = small();
        let before = ssd.flash().stats().reads;
        let (data, _) = ssd.read(Lpa(5), 0).unwrap();
        assert_eq!(data, PageData::Zeros);
        assert_eq!(ssd.flash().stats().reads, before);
    }

    #[test]
    fn overwrite_invalidates_old_version() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 1000).unwrap();
        let (data, _) = ssd.read(Lpa(0), 2000).unwrap();
        assert_eq!(data, PageData::bytes(vec![1]));
        // Exactly one page valid for this LPA.
        let total_valid: u32 = ssd.bst.iter().map(|(_, i)| i.valid).sum();
        assert_eq!(total_valid, 1);
    }

    #[test]
    fn out_of_range_lpa_rejected() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        assert!(matches!(
            ssd.write(Lpa(exported), PageData::Zeros, 0),
            Err(AlmanacError::LpaOutOfRange { .. })
        ));
    }

    #[test]
    fn trim_unmaps() {
        let mut ssd = small();
        ssd.write(Lpa(2), PageData::bytes(vec![5]), 0).unwrap();
        ssd.trim(Lpa(2), 100).unwrap();
        let (data, _) = ssd.read(Lpa(2), 200).unwrap();
        assert_eq!(data, PageData::Zeros);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_consistent() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        let mut now = 0;
        // Write 10x the exported capacity to force plenty of GC.
        for i in 0..(exported * 10) {
            let lpa = Lpa(i % exported);
            let c = ssd
                .write(
                    lpa,
                    PageData::Synthetic {
                        seed: lpa.0,
                        version: i,
                    },
                    now,
                )
                .unwrap();
            now = c.finish;
        }
        assert!(ssd.stats().gc_erases > 0, "GC never ran");
        // Every LPA must read back its latest version.
        for l in 0..exported {
            let (data, _) = ssd.read(Lpa(l), now).unwrap();
            match data {
                PageData::Synthetic { seed, .. } => assert_eq!(seed, l),
                other => panic!("unexpected data {other:?}"),
            }
        }
        assert!(ssd.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn gc_makes_forward_progress() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..(exported * 20) {
            ssd.write(Lpa(i % exported), PageData::Zeros, i * 1000)
                .unwrap();
        }
        assert!(ssd.free_blocks() > 0);
    }

    #[test]
    fn wear_leveling_bounds_spread() {
        let mut cfg = SsdConfig::new(Geometry::small_test());
        cfg.wl_spread_threshold = 4;
        let mut ssd = RegularSsd::new(cfg);
        let exported = ssd.exported_pages();
        // Hammer a small hot set; cold data written once.
        for l in 0..exported {
            ssd.write(Lpa(l), PageData::Zeros, 0).unwrap();
        }
        for i in 0..(exported * 30) {
            ssd.write(Lpa(i % 8), PageData::Zeros, i * 1000).unwrap();
        }
        assert!(ssd.stats().wl_swaps > 0, "wear leveling never triggered");
    }

    #[test]
    fn reads_have_constant_service_time_when_idle() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        let (_, c1) = ssd.read(Lpa(0), 10_000_000).unwrap();
        let (_, c2) = ssd.read(Lpa(0), 20_000_000).unwrap();
        assert_eq!(c1.finish - c1.start, c2.finish - c2.start);
    }

    #[test]
    fn trim_of_unmapped_page_is_harmless() {
        let mut ssd = small();
        ssd.trim(Lpa(3), 0).unwrap();
        ssd.trim(Lpa(3), 100).unwrap();
        let (data, _) = ssd.read(Lpa(3), 200).unwrap();
        assert_eq!(data, PageData::Zeros);
    }

    #[test]
    fn regular_ssd_retains_nothing_after_gc() {
        // The baseline really is a baseline: after churn, exactly one valid
        // version per written LPA exists on flash.
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..(exported * 12) {
            ssd.write(Lpa(i % exported), PageData::Zeros, i * 1000)
                .unwrap();
        }
        assert!(ssd.stats().gc_erases > 0);
        let total_valid: u32 = ssd.bst.iter().map(|(_, info)| info.valid).sum();
        assert_eq!(total_valid as u64, exported);
    }

    #[test]
    fn stats_programs_account_for_flash_traffic() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..(exported * 8) {
            ssd.write(Lpa(i % exported), PageData::Zeros, i * 1000)
                .unwrap();
        }
        let s = *ssd.stats();
        assert_eq!(
            s.user_programs + s.gc_programs + s.wl_programs,
            ssd.flash().stats().programs
        );
    }

    #[test]
    fn flush_fences_in_flight_writes() {
        // Regression: the old trait default returned `finish: now`, letting
        // an fsync issued at the write's arrival time complete *before* the
        // write it fences.
        let mut ssd = small();
        let w = ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        assert!(w.finish > 0, "a flash program takes time");
        let f = ssd.flush(0).unwrap();
        assert!(
            f.finish >= w.finish,
            "flush at t=0 acked at {} before the write it fences ({})",
            f.finish,
            w.finish
        );
        assert_eq!(ssd.stats().host_flushes, 1);
        assert!(ssd.stats().flush_lat.count == 1);
        // A later flush on an idle device still pays the barrier overhead
        // and never moves backwards.
        let f2 = ssd.flush(f.finish + 1_000_000).unwrap();
        assert!(f2.finish >= f2.start);
        assert!(f2.start >= f.finish);
    }

    #[test]
    fn response_time_reflects_gc_pressure() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..exported {
            ssd.write(Lpa(i), PageData::Zeros, 0).unwrap();
        }
        let quiet = ssd.stats().write_lat.avg_ns();
        for i in 0..(exported * 10) {
            ssd.write(Lpa(i % exported), PageData::Zeros, 0).unwrap();
        }
        assert!(ssd.stats().write_lat.avg_ns() > quiet);
    }
}
