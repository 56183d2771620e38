//! A FlashGuard-style FTL: the ransomware-focused comparator of Figure 10.
//!
//! FlashGuard (Huang et al., CCS'17 — reference [14] of the Almanac paper)
//! retains only invalid pages *suspected to be ransomware victims*: pages
//! that were read by the host and later overwritten (the read-encrypt-write
//! signature). Retained pages are kept uncompressed — GC migrates them —
//! until a fixed retention period passes. Unlike TimeSSD it keeps no version
//! lineage, no Bloom-filter time index, and no delta compression; recovery
//! reads raw retained pages, which is why the paper measures TimeSSD at
//! ~14% slower recovery (decompression) in Figure 10.

use std::collections::HashMap;

use almanac_flash::{BlockId, FlashArray, Lpa, Nanos, Oob, PageData, Ppa, DAY_NS};

use crate::alloc::Allocator;
use crate::config::SsdConfig;
use crate::device::{Completion, SsdDevice, SsdReadOps};
use crate::error::{AlmanacError, Result};
use crate::stats::DeviceStats;
use crate::tables::{AmtEntry, BlockKind, Bst, Pvt, ShardedAmt};

/// A retained suspected-victim page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Retained {
    lpa: Lpa,
    written_at: Nanos,
    invalidated_at: Nanos,
}

/// FlashGuard: retains read-then-overwritten pages for a fixed window.
///
/// # Examples
///
/// ```
/// use almanac_core::{FlashGuardSsd, SsdConfig, SsdDevice};
/// use almanac_flash::{Geometry, Lpa, PageData};
///
/// let mut ssd = FlashGuardSsd::new(SsdConfig::new(Geometry::small_test()));
/// ssd.write(Lpa(0), PageData::bytes(b"secret".to_vec()), 0).unwrap();
/// ssd.read(Lpa(0), 100).unwrap();                     // ransomware reads...
/// ssd.write(Lpa(0), PageData::bytes(b"ENCRYPTED".to_vec()), 200).unwrap();
/// // The read-then-overwritten original is retained.
/// assert_eq!(ssd.retained_versions(Lpa(0)).len(), 1);
/// ```
#[derive(Clone)]
pub struct FlashGuardSsd {
    config: SsdConfig,
    flash: FlashArray,
    amt: ShardedAmt,
    pvt: Pvt,
    bst: Bst,
    alloc: Allocator,
    stats: DeviceStats,
    busy_until: Nanos,
    /// Finish time of the last acknowledged host I/O; a flush barrier can
    /// complete no earlier than this.
    last_io_end: Nanos,
    /// Host-read bit per physical page (the encrypt-signature detector).
    read_bit: Vec<bool>,
    /// Retained suspected-victim pages, by physical address.
    retained: HashMap<Ppa, Retained>,
    /// How long suspected victims are kept (FlashGuard's ~20 days).
    retention: Nanos,
}

impl FlashGuardSsd {
    /// Creates a FlashGuard SSD with the default 20-day victim retention.
    pub fn new(config: SsdConfig) -> Self {
        let mut flash = FlashArray::new(config.geometry, config.latency);
        if let Some(e) = config.endurance {
            flash = flash.with_endurance(e);
        }
        if let Some(plan) = config.fault_plan.clone() {
            flash = flash.with_fault_plan(plan);
        }
        let geo = config.geometry;
        FlashGuardSsd {
            flash,
            amt: ShardedAmt::new(config.exported_pages(), 1),
            pvt: Pvt::new(geo.total_pages()),
            bst: Bst::new(geo.total_blocks()),
            alloc: Allocator::new(geo),
            stats: DeviceStats::default(),
            busy_until: 0,
            last_io_end: 0,
            read_bit: vec![false; geo.total_pages() as usize],
            retained: HashMap::new(),
            retention: 20 * DAY_NS,
            config,
        }
    }

    /// Overrides the victim retention window.
    pub fn with_retention(mut self, retention: Nanos) -> Self {
        self.retention = retention;
        self
    }

    /// Retained (suspected-victim) old versions of `lpa`, newest first:
    /// `(written_at, ppa)` pairs whose raw content can be read back.
    pub fn retained_versions(&self, lpa: Lpa) -> Vec<(Nanos, Ppa)> {
        let mut v: Vec<(Nanos, Ppa)> = self
            .retained
            .iter()
            .filter(|(_, r)| r.lpa == lpa)
            .map(|(p, r)| (r.written_at, *p))
            .collect();
        v.sort_by_key(|(ts, _)| std::cmp::Reverse(*ts));
        v
    }

    /// Raw content of a retained version (no decompression — FlashGuard
    /// keeps victims uncompressed).
    pub fn retained_content(&self, ppa: Ppa) -> Result<PageData> {
        let (data, _) = self.flash.peek(ppa)?;
        Ok(data.clone())
    }

    /// Number of currently retained victim pages.
    pub fn retained_count(&self) -> usize {
        self.retained.len()
    }

    /// Direct access to the simulated flash (tests and tooling).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
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

    fn invalidate(&mut self, old: Ppa, lpa: Lpa, now: Nanos) {
        self.pvt.set(old, false);
        self.bst.get_mut(self.config.geometry.block_of(old)).valid -= 1;
        if self.read_bit[old.0 as usize] {
            // Read-then-overwritten: suspected ransomware victim, retain it.
            let written_at = self
                .flash
                .peek(old)
                .map(|(_, oob)| oob.timestamp)
                .unwrap_or(0);
            self.retained.insert(
                old,
                Retained {
                    lpa,
                    written_at,
                    invalidated_at: now,
                },
            );
        }
    }

    fn write_page(&mut self, lpa: Lpa, data: PageData, ts: Nanos, at: Nanos) -> Result<Nanos> {
        let (ppa, opened) = self
            .alloc
            .next_data_page()
            .ok_or(AlmanacError::DeviceStalled {
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
            .program(ppa, data, Oob::new(lpa, None, ts), at)
            .inspect_err(|_| self.alloc.unreserve_page(ppa))?;
        let info = self.bst.get_mut(self.config.geometry.block_of(ppa));
        info.written += 1;
        info.valid += 1;
        self.pvt.set(ppa, true);
        self.read_bit[ppa.0 as usize] = false;
        if let AmtEntry::Mapped(old) = self.amt.set(lpa, AmtEntry::Mapped(ppa)) {
            self.invalidate(old, lpa, ts);
        }
        Ok(finish)
    }

    fn expire_victims(&mut self, now: Nanos) {
        let horizon = now.saturating_sub(self.retention);
        self.retained.retain(|_, r| r.invalidated_at >= horizon);
    }

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

    fn gc_once(&mut self, now: Nanos) -> Result<bool> {
        self.expire_victims(now);
        let Some(victim) = self.pick_victim() else {
            return Ok(false);
        };
        let geo = self.config.geometry;
        let mut t = now;
        for off in 0..geo.pages_per_block {
            let ppa = geo.ppa(victim.0, off);
            let is_valid = self.pvt.is_valid(ppa);
            let is_retained = self.retained.contains_key(&ppa);
            if !is_valid && !is_retained {
                continue; // plain invalid: discard
            }
            let (data, oob, rt) = self.flash.read(ppa, t)?;
            self.stats.gc_reads += 1;
            t = rt;
            let (new_ppa, opened) =
                self.alloc
                    .next_gc_page()
                    .ok_or(AlmanacError::DeviceStalled {
                        now: t,
                        retention_window: 0,
                    })?;
            if let Some(b) = opened {
                self.bst.get_mut(b).kind = BlockKind::Data;
            }
            let wt = self
                .flash
                .program(new_ppa, data, oob, t)
                .inspect_err(|_| self.alloc.unreserve_page(new_ppa))?;
            self.stats.gc_programs += 1;
            t = wt;
            let info = self.bst.get_mut(geo.block_of(new_ppa));
            info.written += 1;
            if is_valid {
                info.valid += 1;
                self.pvt.set(ppa, false);
                self.bst.get_mut(geo.block_of(ppa)).valid -= 1;
                self.pvt.set(new_ppa, true);
                self.amt.set(oob.lpa, AmtEntry::Mapped(new_ppa));
                self.read_bit[new_ppa.0 as usize] = self.read_bit[ppa.0 as usize];
            } else if let Some(r) = self.retained.remove(&ppa) {
                // Retained victims migrate, keeping their metadata.
                self.retained.insert(new_ppa, r);
            }
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
        Ok(())
    }
}

impl SsdDevice for FlashGuardSsd {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        self.check_lpa(lpa)?;
        self.maybe_gc(now)?;
        let start = now.max(self.busy_until);
        let finish = self.write_page(lpa, data, start, start)?;
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
                self.read_bit[ppa.0 as usize] = true;
                completion = Completion { start, finish };
                data
            }
            _ => {
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
            self.invalidate(old, lpa, start);
        }
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

impl SsdReadOps for FlashGuardSsd {
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn exported_pages(&self) -> u64 {
        self.amt.len()
    }

    fn kind(&self) -> &'static str {
        "flashguard"
    }
    // No `read_view`: FlashGuard retains suspect pages for recovery, not a
    // host-queryable time-travel index.
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::Geometry;

    fn small() -> FlashGuardSsd {
        FlashGuardSsd::new(SsdConfig::new(Geometry::small_test()))
    }

    #[test]
    fn unread_overwrites_are_not_retained() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 0).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![2]), 100).unwrap();
        assert_eq!(ssd.retained_count(), 0);
    }

    #[test]
    fn read_then_overwrite_is_retained() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 0).unwrap();
        ssd.read(Lpa(0), 50).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![2]), 100).unwrap();
        let versions = ssd.retained_versions(Lpa(0));
        assert_eq!(versions.len(), 1);
        let content = ssd.retained_content(versions[0].1).unwrap();
        assert_eq!(content, PageData::bytes(vec![1]));
    }

    #[test]
    fn victims_survive_gc_migration() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        ssd.write(Lpa(0), PageData::bytes(vec![0xAA]), 0).unwrap();
        ssd.read(Lpa(0), 1).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![0xBB]), 2).unwrap();
        // Force lots of GC with junk traffic.
        for i in 0..(exported * 8) {
            ssd.write(Lpa(1 + (i % (exported - 1))), PageData::Zeros, 10 + i)
                .unwrap();
        }
        assert!(ssd.stats().gc_erases > 0);
        let versions = ssd.retained_versions(Lpa(0));
        assert_eq!(versions.len(), 1);
        assert_eq!(
            ssd.retained_content(versions[0].1).unwrap(),
            PageData::bytes(vec![0xAA])
        );
    }

    #[test]
    fn victims_expire_after_retention() {
        let mut ssd = small().with_retention(1_000);
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 0).unwrap();
        ssd.read(Lpa(0), 10).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![2]), 20).unwrap();
        assert_eq!(ssd.retained_count(), 1);
        ssd.expire_victims(10_000);
        assert_eq!(ssd.retained_count(), 0);
    }

    #[test]
    fn trim_of_read_page_is_retained() {
        let mut ssd = small();
        ssd.write(Lpa(3), PageData::bytes(vec![7]), 0).unwrap();
        ssd.read(Lpa(3), 10).unwrap();
        ssd.trim(Lpa(3), 20).unwrap();
        assert_eq!(ssd.retained_versions(Lpa(3)).len(), 1);
    }

    #[test]
    fn flush_fences_in_flight_writes() {
        // Regression: the old trait default acked a flush at its arrival
        // time even while a write issued at the same instant was still in
        // flight on the chips.
        let mut ssd = small();
        let w = ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        assert!(w.finish > 0);
        let f = ssd.flush(0).unwrap();
        assert!(f.finish >= w.finish, "fsync must not outrun the write");
        assert_eq!(ssd.stats().host_flushes, 1);
    }
}
