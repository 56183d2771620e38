//! The FTL skeleton shared by every device in this crate.
//!
//! TimeSSD (§3.8, Algorithm 1) is a page-mapping FTL whose only departure
//! from a regular SSD is what becomes of an invalid page: discard it
//! ([`RegularSsd`](crate::RegularSsd)), keep it if the host read it first
//! ([`FlashGuardSsd`](crate::FlashGuardSsd)), or keep and delta-compress it
//! ([`TimeSsd`](crate::TimeSsd)). [`Ftl<R>`] is that FTL written once — the
//! flash array, AMT/PVT/BST, the allocator, the device clocks, the host
//! command paths, page migration, the one loop that cleans a block, the GC
//! pass and its watermark loop, block erasure and wear levelling (the
//! cold-to-old swap) — and [`Retention`] is the rule for invalid pages,
//! dispatched statically: the three devices are type aliases, not wrappers.

use almanac_flash::{BlockId, FlashArray, LatencyConfig, Lpa, Nanos, Oob, PageData, Ppa};

use crate::alloc::{Allocator, Stream};
use crate::check::ConsistencyReport;
use crate::config::SsdConfig;
use crate::device::{Completion, SsdDevice, SsdReadOps, MAX_ARRIVAL};
use crate::error::{AlmanacError, Result};
use crate::stats::DeviceStats;
use crate::tables::{AmtEntry, BlockKind, Bst, Pvt, ShardedAmt};
use crate::TimeSsd;

pub(crate) mod sealed {
    /// Keeps [`Retention`](super::Retention) closed: its hooks see the whole
    /// device, so the three in-tree policies are all there will be.
    pub trait Sealed {}
}

/// A host command, as the per-op policy hooks see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    /// Page write.
    Write(Lpa),
    /// Page read.
    Read(Lpa),
    /// TRIM/discard.
    Trim(Lpa),
    /// Durability barrier.
    Flush,
}

/// Where a page program lands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dest {
    /// Next page of the host-write stream.
    Hot,
    /// Next page of the GC / wear-levelling stream.
    Cold,
    /// Next page of a block the caller took out of the free pool itself.
    Into(BlockId),
}

/// What an FTL does with invalid pages — the one thing the three devices
/// disagree on. Every hook is an associated function over the whole device
/// and has exactly one call site in this module (`audit`'s is in
/// `check.rs`, with the skeleton's audit); the defaults are the
/// regular SSD, which retains nothing. How a block is cleaned, by GC or by
/// wear levelling, is not a hook: both run `Ftl::clean`, which hands each
/// invalid page to [`reclaim`](Retention::reclaim).
pub trait Retention: sealed::Sealed + Sized {
    /// The device's [`SsdReadOps::kind`].
    const KIND: &'static str;

    /// The policy delta-compresses retained pages at idle time, so the BST
    /// keeps the idle-time victim order beside GC's.
    const COMPRESSES: bool = false;

    /// Policy state of a fully-erased device.
    fn new(config: &SsdConfig) -> Self;

    /// `old`, until now the mapped copy of `lpa`, was invalidated at `now`
    /// by an overwrite or a trim.
    fn on_invalidate(_ftl: &mut Ftl<Self>, _old: Ppa, _lpa: Lpa, _now: Nanos) {}

    /// The host read the mapped copy of `lpa` from flash.
    fn on_host_read(_ftl: &mut Ftl<Self>, _lpa: Lpa) {}

    /// Runs before a GC pass picks its victim. Returning the finish time of
    /// an erase means a block was freed without any migration and the pass
    /// is over.
    fn gc_prelude(_ftl: &mut Ftl<Self>, _now: Nanos) -> Result<Option<Nanos>> {
        Ok(None)
    }

    /// Decides the fate of the invalid page `ppa` of a block being cleaned
    /// (a GC victim or a wear-levelling swap's cold block) before the block
    /// is erased; returns the time after any flash work it did.
    fn reclaim(_ftl: &mut Ftl<Self>, _ppa: Ppa, t: Nanos) -> Result<Nanos> {
        Ok(t)
    }

    /// `block` was erased: forget per-page policy state.
    fn on_erase(_ftl: &mut Ftl<Self>, _block: BlockId) {}

    /// GC found no victim, or ran out of blocks mid-pass. Returns true if
    /// the policy gave up retained data so that another pass can succeed.
    fn relieve(_ftl: &mut Ftl<Self>, _now: Nanos) -> bool {
        false
    }

    /// Housekeeping at the arrival of a host command, before it is admitted.
    fn maintain(_ftl: &mut Ftl<Self>, _op: HostOp, _now: Nanos) -> Result<()> {
        Ok(())
    }

    /// Turns the instant the device is free to serve `op` into the instant
    /// service starts (and, for a write, the version timestamp).
    fn stamp(_ftl: &mut Ftl<Self>, _op: HostOp, start: Nanos) -> Nanos {
        start
    }

    /// A host write stamped `start` was programmed and mapped.
    fn after_write(_ftl: &mut Ftl<Self>, _start: Nanos) {}

    /// Serves a trim admitted at `start`; returns its finish time.
    fn trim(ftl: &mut Ftl<Self>, lpa: Lpa, start: Nanos) -> Result<Nanos> {
        if let AmtEntry::Mapped(old) = ftl.amt.set(lpa, AmtEntry::Unmapped) {
            ftl.invalidate(old, lpa, start);
        }
        Ok(start + ftl.flash.latency().transfer_ns)
    }

    /// Makes volatile policy state durable for a flush barrier that starts
    /// at `start`; returns when that work finishes.
    fn drain(_ftl: &mut Ftl<Self>, start: Nanos) -> Result<Nanos> {
        Ok(start)
    }

    /// The retention window a `DeviceStalled` error reports.
    fn stall_window(_ftl: &Ftl<Self>, _now: Nanos) -> Nanos {
        0
    }

    /// The device's queryable history, if it keeps one.
    fn read_view(_ftl: &Ftl<Self>) -> Option<&TimeSsd> {
        None
    }

    /// Audits the policy's own state into `report`, after the skeleton's
    /// rules ([`Ftl::check_consistency`]); read-only.
    fn audit(_ftl: &Ftl<Self>, _report: &mut ConsistencyReport) {}
}

/// A page-mapping flash translation layer with retention policy `R`.
#[derive(Clone)]
pub struct Ftl<R: Retention> {
    pub(crate) config: SsdConfig,
    pub(crate) flash: FlashArray,
    pub(crate) amt: ShardedAmt,
    pub(crate) pvt: Pvt,
    pub(crate) bst: Bst,
    pub(crate) alloc: Allocator,
    pub(crate) stats: DeviceStats,
    /// The device serves no host command before this (GC, barriers).
    pub(crate) busy_until: Nanos,
    /// Finish time of the last acknowledged host I/O; a flush barrier can
    /// complete no earlier than this.
    pub(crate) last_io_end: Nanos,
    /// Erase count at the last wear-levelling attempt (rate limiter).
    pub(crate) wl_mark: u64,
    pub(crate) policy: R,
}

impl<R: Retention> Ftl<R> {
    /// Creates a fully-erased device.
    pub fn new(config: SsdConfig) -> Self {
        let mut flash = FlashArray::new(config.geometry, LatencyConfig::default());
        if let Some(e) = config.endurance {
            flash = flash.with_endurance(e);
        }
        if let Some(plan) = config.fault_plan.clone() {
            flash = flash.with_fault_plan(plan);
        }
        let geo = config.geometry;
        let bst = Bst::new(&geo, R::COMPRESSES);
        Ftl {
            flash,
            amt: ShardedAmt::new(config.exported_pages(), 1),
            pvt: Pvt::new(geo.total_pages()),
            alloc: Allocator::new(geo, &bst),
            bst,
            stats: DeviceStats::default(),
            busy_until: 0,
            last_io_end: 0,
            wl_mark: 0,
            policy: R::new(&config),
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

    /// Consumes the device, surrendering the raw flash array.
    ///
    /// This is the §3.7 power-loss handoff: after a cut, everything volatile
    /// (mapping tables, Bloom chain, delta buffers) is gone, and the only
    /// thing that survives is the flash itself. Call [`FlashArray::revive`]
    /// on the result, then [`TimeSsd::recover_from_flash`](crate::TimeSsd)
    /// to bring a TimeSSD back.
    pub fn into_flash(self) -> FlashArray {
        self.flash
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

    fn stalled(&self, now: Nanos) -> AlmanacError {
        AlmanacError::DeviceStalled {
            now,
            retention_window: R::stall_window(self, now),
        }
    }

    /// The page stops being valid; what it becomes is the caller's business.
    pub(crate) fn mark_invalid(&mut self, ppa: Ppa) {
        self.pvt.set(ppa, false);
        self.bst
            .update(self.config.geometry.block_of(ppa), |info| info.valid -= 1);
    }

    fn invalidate(&mut self, old: Ppa, lpa: Lpa, now: Nanos) {
        self.mark_invalid(old);
        R::on_invalidate(self, old, lpa, now);
    }

    /// Programs one page at `dest` and books it as written (and as valid
    /// when `live`).
    pub(crate) fn program(
        &mut self,
        dest: Dest,
        data: PageData,
        oob: Oob,
        at: Nanos,
        live: bool,
    ) -> Result<(Ppa, Nanos)> {
        let slot = match dest {
            Dest::Hot => self.alloc.next_page(Stream::Hot, &self.bst),
            Dest::Cold => self.alloc.next_page(Stream::Cold, &self.bst),
            Dest::Into(b) => Some((
                self.config.geometry.ppa(b.0, self.bst.get(b).written),
                false,
            )),
        };
        let (ppa, opened) = slot.ok_or_else(|| self.stalled(at))?;
        let block = self.config.geometry.block_of(ppa);
        if opened {
            self.bst.update(block, |info| info.kind = BlockKind::Data);
        }
        // `written` is the block's write pointer: a failed program leaves it,
        // and so the page, where they were.
        let finish = self.flash.program(ppa, data, oob, at)?;
        self.bst.update(block, |info| {
            info.written += 1;
            info.valid += u32::from(live);
        });
        if live {
            self.pvt.set(ppa, true);
        }
        Ok((ppa, finish))
    }

    /// Migrates the valid page `old` to `dest` (GC, wear levelling). The new
    /// copy keeps the original timestamp and back-pointer, so nothing
    /// host-visible — and no version chain — changes.
    pub(crate) fn migrate_valid(&mut self, old: Ppa, dest: Dest, at: Nanos) -> Result<Nanos> {
        let (data, oob, rt) = self.flash.read(old, at)?;
        // §3.7 defence: trust the OOB owner only if the AMT agrees. Corrupt
        // OOB metadata (bit-rot, ECC escapes) must not misdirect the remap —
        // the RAM-resident AMT is authoritative, so on mismatch recover the
        // true owner by reverse lookup and write the corrected OOB forward.
        let owner = if self.amt.get(oob.lpa).chain_head() == Some(old) {
            Some(oob.lpa)
        } else {
            self.amt
                .iter()
                .find(|(_, e)| e.chain_head() == Some(old))
                .map(|(l, _)| l)
        };
        // Program the new copy while the old one is still valid and mapped:
        // running out of pages or a failed program (injected fault, power
        // loss) must leave the tables untouched — invalidating first would
        // strand the owner mapped to a page already marked invalid (found by
        // the differential oracle under GC pressure).
        let fixed_oob = Oob::new(owner.unwrap_or(oob.lpa), oob.back_ptr, oob.timestamp);
        let (ppa, finish) = self.program(dest, data, fixed_oob, rt, true)?;
        // The old physical copy ceases to exist; that is not an invalidation
        // in the version-history sense, so the policy is not told.
        self.mark_invalid(old);
        if let Some(owner) = owner {
            // A trimmed head stays trimmed: migration moves bytes, not state.
            let entry = match self.amt.get(owner) {
                AmtEntry::Trimmed(_, at) => AmtEntry::Trimmed(ppa, at),
                _ => AmtEntry::Mapped(ppa),
            };
            self.amt.set(owner, entry);
        }
        Ok(finish)
    }

    /// Erases `block` and returns it to the free pool.
    pub(crate) fn erase_block(&mut self, block: BlockId, t: Nanos) -> Result<Nanos> {
        let finish = self.flash.erase(block, t)?;
        self.pvt.clear_block(&self.config.geometry, block);
        R::on_erase(self, block);
        self.bst.reset(block);
        self.alloc.release(block);
        Ok(finish)
    }

    /// Greedy victim: the data block with the most invalid pages that no
    /// allocation stream has open (the highest-numbered of equals). A block
    /// that is not open is closed whatever its write pointer says — blocks
    /// parked by wear levelling or adopted by a rebuild can be partly
    /// programmed.
    fn pick_victim(&self) -> Option<BlockId> {
        self.bst.gc_victim(|b, _| !self.alloc.is_active(b))
    }

    /// Empties `victim` for an erase (Algorithm 1, lines 5-25): a valid page
    /// migrates to `dest` and `moved` books it, an invalid page goes to the
    /// policy's `reclaim`. Booking is per page, so a faulted pass has booked
    /// what it moved.
    fn clean(
        &mut self,
        victim: BlockId,
        dest: Dest,
        mut t: Nanos,
        moved: fn(&mut DeviceStats),
    ) -> Result<Nanos> {
        let geo = self.config.geometry;
        for off in 0..self.bst.get(victim).written {
            let ppa = geo.ppa(victim.0, off);
            if self.pvt.get(ppa) {
                t = self.migrate_valid(ppa, dest, t)?;
                moved(&mut self.stats);
            } else {
                t = R::reclaim(self, ppa, t)?;
            }
        }
        Ok(t)
    }

    /// One GC pass (Algorithm 1). Returns false when there was nothing to
    /// collect.
    fn gc_once(&mut self, now: Nanos) -> Result<bool> {
        let t = match R::gc_prelude(self, now)? {
            Some(t) => t,
            None => {
                let Some(victim) = self.pick_victim() else {
                    return Ok(false);
                };
                let t = self.clean(victim, Dest::Cold, now, |s| {
                    s.gc_reads += 1;
                    s.gc_programs += 1;
                })?;
                // Line 26: erase the victim.
                self.erase_block(victim, t)?
            }
        };
        self.stats.gc_erases += 1;
        self.stats.gc_time_ns += t.saturating_sub(now);
        self.busy_until = self.busy_until.max(t);
        Ok(true)
    }

    /// Runs GC until the free pool is back above the watermark, then gives
    /// wear levelling its turn.
    pub(crate) fn maybe_gc(&mut self, now: Nanos) -> Result<()> {
        let geo = self.config.geometry;
        let watermark = u64::from((geo.channels.max(2) + 2).max(4));
        let mut passes = 0;
        while self.alloc.free_blocks() < watermark && passes < 2 * geo.total_blocks() {
            passes += 1;
            self.stats.gc_runs += 1;
            let start = now.max(self.busy_until);
            // A pass can itself run out of blocks (the cold stream and delta
            // pages need space), which reads as "no progress" here.
            let progressed = match self.gc_once(start) {
                Err(AlmanacError::DeviceStalled { .. }) => None,
                other => Some(other?),
            };
            // A pass that erased something made progress even if the freed
            // block was immediately re-opened for an active stream. Only a
            // genuine lack of victims asks the policy to let go of retained
            // data (§3.4), and only a policy that cannot stalls the device.
            if progressed == Some(true) || R::relieve(self, start) {
                continue;
            }
            match progressed {
                Some(_) => break,
                None => return Err(self.stalled(start)),
            }
        }
        self.wear_level(now.max(self.busy_until))
    }

    /// Wear levelling (§3.8), the cold-to-old swap: cleans the coldest
    /// closed data block onto the most-worn free block, retiring that block
    /// from the hot rotation. Valid pages go through `migrate_valid` onto
    /// the parked block's next page, so a failed program leaves the old copy
    /// mapped and both blocks closed data blocks that GC can collect;
    /// invalid pages meet the policy's `reclaim`, as in a GC pass. Delta
    /// blocks are never touched (their chains must not break; they are
    /// erased in time order anyway).
    fn wear_level(&mut self, now: Nanos) -> Result<()> {
        let Some(victim) = self.wear_level_victim() else {
            return Ok(());
        };
        let worn = |b| self.flash.erase_count(b).unwrap_or(0);
        let Some(parked) = self.alloc.take_block_by_max(worn) else {
            return Ok(());
        };
        self.bst.update(parked, |info| info.kind = BlockKind::Data);
        let moved = self.clean(victim, Dest::Into(parked), now, |s| s.wl_programs += 1);
        if self.bst.get(parked).written == 0 {
            // Nothing landed on it (no valid page, or the first program
            // failed): an empty block belongs in the pool.
            self.bst.reset(parked);
            self.alloc.release(parked);
        }
        let t = self.erase_block(victim, moved?)?;
        self.stats.wl_swaps += 1;
        self.busy_until = self.busy_until.max(t);
        Ok(())
    }

    /// The swap's trigger: when the erase-count spread exceeds the
    /// threshold, and at most once per 64 block erases (otherwise the
    /// leveler itself burns endurance faster than it spreads it), names the
    /// coldest closed data block.
    fn wear_level_victim(&mut self) -> Option<BlockId> {
        if self.flash.wear_spread() <= self.config.wl_spread_threshold {
            return None;
        }
        let erases = self.flash.stats().erases;
        if erases < self.wl_mark + 64 {
            return None;
        }
        self.wl_mark = erases;
        let ppb = self.config.geometry.pages_per_block;
        self.bst
            .iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data && info.written == ppb && !self.alloc.is_active(*b)
            })
            .min_by_key(|(b, _)| self.flash.erase_count(*b).unwrap_or(u32::MAX))
            .map(|(b, _)| b)
    }

    /// The prologue of every host command: arrival and range checks, policy
    /// housekeeping, GC for the command that consumes a page, and the
    /// service start time.
    fn admit(&mut self, op: HostOp, now: Nanos) -> Result<Nanos> {
        if now > MAX_ARRIVAL {
            return Err(AlmanacError::ArrivalTooLate(now));
        }
        if let HostOp::Write(lpa) | HostOp::Read(lpa) | HostOp::Trim(lpa) = op {
            self.check_lpa(lpa)?;
        }
        R::maintain(self, op, now)?;
        if let HostOp::Write(_) = op {
            self.maybe_gc(now)?;
        }
        Ok(R::stamp(self, op, now.max(self.busy_until)))
    }

    fn ack(&mut self, start: Nanos, finish: Nanos) -> Completion {
        self.last_io_end = self.last_io_end.max(finish);
        Completion { start, finish }
    }
}

impl<R: Retention> SsdDevice for Ftl<R> {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        let start = self.admit(HostOp::Write(lpa), now)?;
        let oob = Oob::new(lpa, self.amt.get(lpa).chain_head(), start);
        let (ppa, finish) = self.program(Dest::Hot, data, oob, start, true)?;
        if let AmtEntry::Mapped(old) = self.amt.set(lpa, AmtEntry::Mapped(ppa)) {
            self.invalidate(old, lpa, start);
        }
        self.stats.user_writes += 1;
        self.stats.user_programs += 1;
        R::after_write(self, start);
        let completion = self.ack(start, finish);
        self.stats.write_lat.record(completion.response(now));
        Ok(completion)
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        let start = self.admit(HostOp::Read(lpa), now)?;
        let (data, finish) = match self.amt.get(lpa) {
            AmtEntry::Mapped(ppa) => {
                let (data, _oob, finish) = self.flash.read(ppa, start)?;
                R::on_host_read(self, lpa);
                (data, finish)
            }
            // Resolved from the mapping table in firmware: no flash op.
            _ => (PageData::Zeros, start + self.flash.latency().transfer_ns),
        };
        self.stats.user_reads += 1;
        let completion = self.ack(start, finish);
        self.stats.read_lat.record(completion.response(now));
        Ok((data, completion))
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        let start = self.admit(HostOp::Trim(lpa), now)?;
        let finish = R::trim(self, lpa, start)?;
        self.stats.user_trims += 1;
        Ok(self.ack(start, finish))
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        // A barrier fences every in-flight host op: it can start no earlier
        // than the device frees up and finish no earlier than the last
        // outstanding completion (`last_io_end`) — an fsync acked before the
        // writes it fences would break the crash contract.
        let start = self.admit(HostOp::Flush, now)?;
        let finish = R::drain(self, start)?
            .max(self.last_io_end)
            .saturating_add(self.config.flush_barrier_cost);
        self.busy_until = self.busy_until.max(finish);
        self.stats.host_flushes += 1;
        let completion = self.ack(start, finish);
        self.stats.flush_lat.record(completion.response(now));
        Ok(completion)
    }
}

impl<R: Retention> SsdReadOps for Ftl<R> {
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn exported_pages(&self) -> u64 {
        self.amt.len()
    }

    fn kind(&self) -> &'static str {
        R::KIND
    }

    fn read_view(&self) -> Option<&TimeSsd> {
        R::read_view(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discard, FlashGuardSsd, ReadGated, RegularSsd, TimeSsd, TimeTravel};
    use almanac_flash::{FaultPlan, FlashError, Geometry, SEC_NS};

    /// Regression: the old trait default returned `finish: now`, letting an
    /// fsync issued at a write's arrival instant complete *before* the write
    /// it fences.
    fn flush_fences_in_flight_io<D: SsdDevice>(mut ssd: D) {
        let kind = ssd.kind();
        let w = ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        assert!(w.finish > 0, "{kind}: a flash program takes time");
        // On TimeSSD this buffers a tombstone for the barrier to drain.
        let t = ssd.trim(Lpa(0), w.finish).unwrap();
        let f = ssd.flush(0).unwrap();
        assert!(
            f.finish >= w.finish && f.finish >= t.finish,
            "{kind}: flush at t=0 acked at {} before the I/O it fences ({}, {})",
            f.finish,
            w.finish,
            t.finish
        );
        assert_eq!(ssd.stats().host_flushes, 1, "{kind}");
        assert_eq!(ssd.stats().flush_lat.count, 1, "{kind}");
        // A later flush on an idle device still pays the barrier overhead
        // and never moves backwards.
        let f2 = ssd.flush(f.finish + 1_000_000).unwrap();
        assert!(f2.finish >= f2.start, "{kind}");
        assert!(f2.start >= f.finish, "{kind}");
    }

    #[test]
    fn gc_collects_partly_programmed_blocks() {
        // A rebuild adopts the blocks that were open at power-off as closed
        // data blocks whose write pointer stops short of the end (wear
        // levelling can leave one too). GC must collect them, and must not
        // touch the never-programmed pages past the pointer.
        let cfg = SsdConfig::new(Geometry::small_test());
        let mut ssd = TimeSsd::new(cfg.clone());
        for version in 1..=5u64 {
            let data = PageData::Synthetic { seed: 0, version };
            ssd.write(Lpa(0), data, version * 1_000_000).unwrap();
        }
        let mut ssd = TimeSsd::recover_from_flash(ssd.into_flash(), cfg);
        let partial: Vec<BlockId> = ssd
            .bst
            .iter()
            .filter(|(_, info)| info.kind == BlockKind::Data && info.written < 8)
            .map(|(b, _)| b)
            .collect();
        assert_eq!(partial.len(), 2, "one open block per channel");
        while ssd.gc_once(10_000_000).unwrap() {}
        for b in partial {
            assert_eq!(ssd.flash.erase_count(b), Ok(1), "{b:?} never collected");
        }
        assert!(ssd.check_consistency().is_clean());
        assert_eq!(ssd.version_chain(Lpa(0)).len(), 5);
    }

    /// Program 14 of a fresh `small_test` device is the last page of
    /// channel 0's first block (host writes alternate between the two
    /// channels' slots). It fails: the host sees one error, the slot has
    /// already let the block go, and `written` stayed at `ppb - 1`. The block
    /// is a closed, partly programmed data block; once its pages are
    /// overwritten, GC collects it.
    fn failed_last_page_program_leaves_a_closed_block<R: Retention>() {
        let cfg = SsdConfig::new(Geometry::small_test())
            .with_fault_plan(FaultPlan::new(1).with_program_fault(14));
        let ppb = cfg.geometry.pages_per_block;
        let mut ssd = Ftl::<R>::new(cfg);
        let kind = ssd.kind();
        let mut last = vec![None; ssd.exported_pages() as usize];
        let mut errors = 0;
        let mut now = 0;
        let mut closed = None;
        for version in 0..30u64 {
            let l = version % 15;
            now += SEC_NS;
            match ssd.write(Lpa(l), page(l, version), now) {
                Ok(_) => last[l as usize] = Some(version),
                Err(_) => errors += 1,
            }
            if version == 14 {
                assert_eq!(errors, 1, "{kind}: the faulted program fails its write");
                let (block, info) = ssd
                    .bst
                    .iter()
                    .find(|(b, info)| info.written == ppb - 1 && !ssd.alloc.is_active(*b))
                    .unwrap_or_else(|| panic!("{kind}: no closed block short of its end"));
                assert_eq!(info.kind, BlockKind::Data, "{kind}");
                assert_eq!(ssd.flash.block(block).unwrap().write_ptr, ppb - 1);
                closed = Some(block);
            }
        }
        assert_eq!(errors, 1, "{kind}: a later write failed");
        while ssd.gc_once(now).unwrap() {}
        let block = closed.unwrap();
        assert_eq!(
            ssd.flash.erase_count(block),
            Ok(1),
            "{kind}: never collected"
        );
        reads_last_acked(&mut ssd, &last, now);
        audits_clean(&ssd);
    }

    #[test]
    fn failed_last_page_program_leaves_a_closed_block_on_every_ftl() {
        failed_last_page_program_leaves_a_closed_block::<Discard>();
        failed_last_page_program_leaves_a_closed_block::<ReadGated>();
        failed_last_page_program_leaves_a_closed_block::<TimeTravel>();
    }

    /// What the sweeps that `pick_victim` and the idle-time compressor ran
    /// before the BST kept its victim indices would answer.
    fn swept_victims(ssd: &TimeSsd) -> (Option<BlockId>, Option<BlockId>) {
        let ppb = ssd.config.geometry.pages_per_block;
        ssd.bst.swept_victims(ppb, |b| ssd.alloc.is_active(b))
    }

    fn indexed_victims(ssd: &TimeSsd) -> (Option<BlockId>, Option<BlockId>) {
        let background = ssd.bst.background_victim(|b, _| !ssd.alloc.is_active(b));
        (ssd.pick_victim(), background)
    }

    #[test]
    fn maintained_lookups_survive_churn_clone_and_power_cycle() {
        let mut cfg = SsdConfig::new(Geometry::small_test()).with_min_retention(0);
        cfg.bloom.capacity = 16;
        let mut ssd = TimeSsd::new(cfg.clone());
        // Arrivals 30 ms apart keep the idle predictor above its threshold,
        // so background compression runs between GC passes.
        let gap = 30_000_000;
        let mut now = gap;
        for i in 0..600u64 {
            let lpa = Lpa(i * 7 % 12);
            let data = PageData::Synthetic {
                seed: lpa.0,
                version: i,
            };
            let done = match i % 50 {
                47 => ssd.trim(lpa, now),
                _ => ssd.write(lpa, data, now),
            };
            now = done.unwrap().finish + gap;
            assert_eq!(indexed_victims(&ssd), swept_victims(&ssd), "after op {i}");
        }
        assert!(ssd.stats.gc_erases > 0 && ssd.stats.bg_compressions > 0);
        assert!(
            ssd.stats.filters_dropped > 0,
            "expired delta blocks were queued"
        );
        assert!(ssd.flash.wear_spread() > 0);
        let audit = ssd.check_consistency();
        assert!(audit.is_clean(), "{:?}", audit.violations);

        // A clone carries the indices, the histogram and the expired queue.
        let copy = ssd.clone();
        assert_eq!(indexed_victims(&copy), indexed_victims(&ssd));
        assert_eq!(copy.flash.wear_spread(), ssd.flash.wear_spread());
        assert!(copy.check_consistency().is_clean());

        // A power cycle keeps the histogram (erase counts live in the array)
        // and rebuilds the indices from the scanned BST.
        let spread = ssd.flash.wear_spread();
        let mut flash = ssd.into_flash();
        flash.revive();
        let mut rebuilt = TimeSsd::recover_from_flash(flash, cfg);
        assert_eq!(rebuilt.flash.wear_spread(), spread);
        assert_eq!(indexed_victims(&rebuilt), swept_victims(&rebuilt));
        let audit = rebuilt.check_consistency();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        for i in 0..100u64 {
            let data = PageData::Synthetic {
                seed: 1,
                version: i,
            };
            now = rebuilt.write(Lpa(i % 12), data, now).unwrap().finish + gap;
            assert_eq!(indexed_victims(&rebuilt), swept_victims(&rebuilt));
        }
        assert!(rebuilt.check_consistency().is_clean());
    }

    #[test]
    fn flush_fences_in_flight_io_on_every_ftl() {
        let cfg = || SsdConfig::new(Geometry::small_test());
        flush_fences_in_flight_io(RegularSsd::new(cfg()));
        flush_fences_in_flight_io(FlashGuardSsd::new(cfg()));
        flush_fences_in_flight_io(TimeSsd::new(cfg()));
    }

    /// Regression: a host command near `u64::MAX` overflowed the chip clock.
    fn refuses_late_arrivals<D: SsdDevice>(mut ssd: D) {
        let late = AlmanacError::ArrivalTooLate(MAX_ARRIVAL + 1);
        let at = MAX_ARRIVAL + 1;
        assert_eq!(ssd.write(Lpa(0), PageData::Zeros, at), Err(late.clone()));
        assert_eq!(ssd.read(Lpa(0), at), Err(late.clone()));
        assert_eq!(ssd.trim(Lpa(0), at), Err(late.clone()));
        assert_eq!(ssd.flush(at), Err(late));
        assert_eq!(*ssd.stats(), DeviceStats::default(), "{}", ssd.kind());
        let w = ssd.write(Lpa(0), PageData::Zeros, MAX_ARRIVAL).unwrap();
        assert!(w.finish > MAX_ARRIVAL);
        ssd.read(Lpa(0), MAX_ARRIVAL).unwrap();
        ssd.flush(MAX_ARRIVAL).unwrap();
    }

    #[test]
    fn arrivals_past_the_clock_are_refused_on_every_ftl() {
        let cfg = || SsdConfig::new(Geometry::small_test());
        refuses_late_arrivals(RegularSsd::new(cfg()));
        refuses_late_arrivals(FlashGuardSsd::new(cfg()));
        refuses_late_arrivals(TimeSsd::new(cfg()));
    }

    /// What the workloads below write to `lpa` as its `version`.
    fn page(lpa: u64, version: u64) -> PageData {
        PageData::Synthetic { seed: lpa, version }
    }

    fn audits_clean<R: Retention>(ssd: &Ftl<R>) {
        let audit = ssd.check_consistency();
        assert!(audit.is_clean(), "{}: {:?}", ssd.kind(), audit.violations);
    }

    /// Asserts that every LPA with an acked write reads its last one.
    fn reads_last_acked<R: Retention>(ssd: &mut Ftl<R>, last: &[Option<u64>], now: Nanos) {
        let kind = ssd.kind();
        for (l, version) in last.iter().enumerate() {
            let want = version.map_or(PageData::Zeros, |v| page(l as u64, v));
            let (data, _) = ssd.read(Lpa(l as u64), now).unwrap();
            assert_eq!(data, want, "{kind}: LPA {l}");
        }
    }

    /// A cold fill, then an 8-LPA hot set under `wl_spread_threshold = 4`:
    /// the skeleton's cold-to-old swap must run, book every program it
    /// makes, and leave every LPA reading its last bytes.
    fn wear_levels<R: Retention>(ssd: &mut Ftl<R>) {
        let kind = ssd.kind();
        let exported = ssd.exported_pages();
        let mut last = vec![None; exported as usize];
        let mut now = 0;
        let writes = (0..exported).chain((0..exported * 30).map(|i| i % 8));
        for (version, l) in writes.enumerate() {
            let version = version as u64;
            now = ssd.write(Lpa(l), page(l, version), now).unwrap().finish;
            last[l as usize] = Some(version);
        }
        let s = *ssd.stats();
        assert!(s.wl_swaps > 0, "{kind}: wear leveling never ran");
        assert_eq!(
            s.user_programs + s.gc_programs + s.wl_programs,
            ssd.flash.stats().programs,
            "{kind}: a program went unbooked"
        );
        reads_last_acked(ssd, &last, now);
        audits_clean(ssd);
    }

    /// TimeSSD's leg is `timessd::tests::wear_leveling_bounds_erase_spread`:
    /// a full TimeSSD on `small_test` stalls under this workload.
    #[test]
    fn wear_leveling_on_every_ftl() {
        let mut cfg = SsdConfig::new(Geometry::small_test());
        cfg.wl_spread_threshold = 4;
        wear_levels(&mut RegularSsd::new(cfg.clone()));

        // A read-then-overwritten page sits in the first block the cold fill
        // programs; whichever pass cleans that block must carry it along.
        let mut ssd = FlashGuardSsd::new(cfg);
        let victim = Lpa(ssd.exported_pages() - 1);
        let original = PageData::bytes(vec![0xAA; 8]);
        ssd.write(victim, original.clone(), 0).unwrap();
        ssd.read(victim, 0).unwrap();
        wear_levels(&mut ssd);
        let retained = ssd.retained_versions(victim);
        assert_eq!(retained.len(), 1, "the retained victim was lost");
        assert_eq!(ssd.retained_content(retained[0].1).unwrap(), original);
    }

    /// Round-robin overwrites until the first failure, which must be a worn
    /// block's erase. The first eight LPAs are read before each overwrite,
    /// so FlashGuard retains their old copies. Every later write fails
    /// typed as well — greedy GC re-picks the block whose erase failed — and
    /// reads keep serving the last acked bytes. Returns the device, the last
    /// acked version of each LPA and the clock.
    fn wear_out<R: Retention>(cfg: SsdConfig) -> (Ftl<R>, Vec<Option<u64>>, Nanos) {
        let mut ssd = Ftl::<R>::new(cfg);
        let kind = ssd.kind();
        let exported = ssd.exported_pages();
        let mut last = vec![None; exported as usize];
        let mut now = 0;
        let mut failed = None;
        for version in 0..1_000_000u64 {
            let l = version % exported;
            if l < 8 {
                now = ssd.read(Lpa(l), now).unwrap().1.finish;
            }
            match ssd.write(Lpa(l), page(l, version), now) {
                Ok(c) => {
                    now = c.finish;
                    last[l as usize] = Some(version);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let worn_out = |e: &AlmanacError| matches!(e, AlmanacError::Flash(FlashError::WornOut(_)));
        let first = failed.unwrap_or_else(|| panic!("{kind}: never wore out"));
        assert!(worn_out(&first), "{kind}: first failure {first:?}");
        for l in 0..exported.min(32) {
            let e = ssd.write(Lpa(l), page(l, u64::MAX), now).unwrap_err();
            assert!(worn_out(&e), "{kind}: LPA {l} after wear-out: {e:?}");
        }
        reads_last_acked(&mut ssd, &last, now);
        audits_clean(&ssd);
        (ssd, last, now)
    }

    #[test]
    fn end_of_life_is_a_typed_error_on_every_ftl() {
        for endurance in [2, 5] {
            let mut cfg = SsdConfig::new(Geometry::small_test());
            cfg.endurance = Some(endurance);
            wear_out::<Discard>(cfg.clone());
            // Retained victims stay readable on a device that takes no writes.
            let (ssd, ..) = wear_out::<ReadGated>(cfg);
            let retained = ssd.retained_versions(Lpa(0));
            assert!(!retained.is_empty(), "nothing retained");
            for (_, ppa) in retained {
                let data = ssd.retained_content(ppa).unwrap();
                assert!(
                    matches!(data, PageData::Synthetic { seed: 0, .. }),
                    "{data:?}"
                );
            }

            let mut cfg = SsdConfig::new(Geometry::medium_test()).with_min_retention(0);
            cfg.endurance = Some(endurance);
            let (ssd, last, now) = wear_out::<TimeTravel>(cfg.clone());
            let mut flash = ssd.into_flash();
            flash.revive();
            let mut ssd = TimeSsd::recover_from_flash(flash, cfg);
            audits_clean(&ssd);
            reads_last_acked(&mut ssd, &last, now);
        }
    }
}
