//! Consistency checking: an `fsck` for the TimeSSD's internal state.
//!
//! Verifies every cross-structure invariant the FTL relies on. Used by the
//! property tests after heavy churn, and available to embedders as a
//! diagnostic (`TimeSsd::check_consistency`).

use std::collections::HashSet;
use std::fmt;

use almanac_flash::{DeltaPage, Lpa, PageData, Ppa};

use crate::tables::{AmtEntry, BlockKind};

use super::TimeSsd;

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A mapped LPA points at a page that is not valid in the PVT.
    MappedPageNotValid(Lpa, Ppa),
    /// A mapped LPA's page carries OOB metadata for a different LPA.
    OobOwnerMismatch(Lpa, Ppa, Lpa),
    /// A block's BST valid counter disagrees with a PVT recount.
    BstValidMiscount {
        /// The block.
        block: u64,
        /// What the BST says.
        bst: u32,
        /// What the PVT recount says.
        recount: u32,
    },
    /// A page is marked reclaimable but still valid.
    ReclaimableValidPage(Ppa),
    /// A free-pool block still holds programmed pages in the BST.
    FreeBlockNotEmpty(u64),
    /// A block's BST `written` — the FTL's only write pointer — disagrees
    /// with the chip's: the next program there would be refused as
    /// non-sequential, or would overwrite nothing the tables know of.
    WritePointerDrift {
        /// The block.
        block: u64,
        /// What the BST says.
        bst: u32,
        /// The flash block's write pointer.
        flash: u32,
    },
    /// Two LPAs map to the same physical page.
    DoubleMapped(Ppa),
    /// A version chain has non-decreasing timestamps.
    ChainOrderViolation(Lpa),
    /// A block the BST labels a delta block holds a page that is not a
    /// delta page.
    OrphanDeltaBlock(u64),
    /// An AMT tombstone inside the retention window has no TRIM record in
    /// the delta stream — the trim would silently un-happen at the next
    /// power cut.
    UnjournaledTombstone(Lpa, u64),
    /// The IMT's newest compressed version for an LPA still sits in a live
    /// flushed delta page, but the version chain walk never reaches it.
    UnreachableFlushedDelta(Lpa, u64),
    /// A delta buffer still holds records appended at or before the last
    /// acknowledged flush barrier — the barrier acked durability it never
    /// delivered.
    PreBarrierVolatile(Ppa),
    /// A buffered TRIM tombstone has been volatile longer than the
    /// configured `tombstone_flush_deadline` — the age-based group-flush
    /// scheduler missed its bound.
    TombstonePastDeadline {
        /// Age of the oldest pending tombstone at the last op arrival.
        age: u64,
        /// The configured bound.
        deadline: u64,
    },
    /// A victim index ("gc" or "background") files a block under a score
    /// its BST entry does not earn — victim selection would no longer pick
    /// what a sweep of the table picks.
    VictimIndexStale {
        /// Which index.
        index: &'static str,
        /// The block.
        block: u64,
        /// The score it is filed under (0 = not filed).
        filed: u32,
        /// The score a recount gives it (0 = must not be filed).
        recount: u32,
    },
    /// The flash array's erase-count histogram — what the wear-leveling
    /// trigger reads — disagrees with a recount of the blocks.
    WearIndexStale {
        /// `(min, max)` erase count per the histogram.
        index: (u32, u32),
        /// `(min, max)` erase count per the blocks.
        recount: (u32, u32),
    },
    /// The delta manager's queue of expired delta blocks disagrees with the
    /// BST and the Bloom chain: `queued` without being a delta block of a
    /// dropped filter, or such a block and not queued (GC would never erase
    /// it).
    ExpiredDeltaSetStale {
        /// The block.
        block: u64,
        /// Whether the queue lists it.
        queued: bool,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MappedPageNotValid(l, p) => write!(f, "{l} maps to non-valid {p}"),
            Violation::OobOwnerMismatch(l, p, o) => {
                write!(f, "{l} maps to {p} whose OOB claims {o}")
            }
            Violation::BstValidMiscount {
                block,
                bst,
                recount,
            } => {
                write!(
                    f,
                    "block B{block}: BST valid={bst} but PVT recount={recount}"
                )
            }
            Violation::ReclaimableValidPage(p) => write!(f, "valid page {p} marked reclaimable"),
            Violation::FreeBlockNotEmpty(b) => write!(f, "free block B{b} has written pages"),
            Violation::WritePointerDrift { block, bst, flash } => {
                write!(
                    f,
                    "block B{block}: BST written={bst} but flash write_ptr={flash}"
                )
            }
            Violation::DoubleMapped(p) => write!(f, "{p} mapped by two LPAs"),
            Violation::ChainOrderViolation(l) => {
                write!(f, "{l} version chain timestamps not strictly decreasing")
            }
            Violation::OrphanDeltaBlock(b) => write!(f, "delta block B{b} holds a non-delta page"),
            Violation::UnjournaledTombstone(l, ts) => {
                write!(f, "{l} trimmed at {ts}ns with no journalled TRIM record")
            }
            Violation::UnreachableFlushedDelta(l, ts) => {
                write!(
                    f,
                    "{l}: flushed delta version at {ts}ns unreachable from chain walk"
                )
            }
            Violation::PreBarrierVolatile(p) => {
                write!(
                    f,
                    "buffer at {p} holds records from before the last flush barrier"
                )
            }
            Violation::TombstonePastDeadline { age, deadline } => {
                write!(
                    f,
                    "pending tombstone volatile for {age}ns, past the {deadline}ns deadline"
                )
            }
            Violation::VictimIndexStale {
                index,
                block,
                filed,
                recount,
            } => {
                write!(
                    f,
                    "{index} victim index files B{block} under {filed}, recount says {recount}"
                )
            }
            Violation::WearIndexStale { index, recount } => {
                write!(
                    f,
                    "erase-count histogram spans {index:?}, the blocks span {recount:?}"
                )
            }
            Violation::ExpiredDeltaSetStale { block, queued } => {
                let state = if *queued { "queued" } else { "not queued" };
                write!(f, "B{block} {state} for expired-delta erase, wrongly")
            }
        }
    }
}

/// Outcome of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Every violation found.
    pub violations: Vec<Violation>,
    /// Mapped LPAs inspected.
    pub mapped_lpas: u64,
    /// Version-chain entries walked.
    pub chain_entries: u64,
}

impl ConsistencyReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl TimeSsd {
    /// Audits the device's internal invariants; read-only.
    pub fn check_consistency(&self) -> ConsistencyReport {
        let mut report = ConsistencyReport::default();
        let geo = self.config.geometry;

        // 1. AMT ↔ PVT ↔ OOB agreement, and no double mapping.
        let mut seen: HashSet<Ppa> = HashSet::new();
        for (lpa, entry) in self.amt.iter() {
            if let AmtEntry::Mapped(ppa) = entry {
                report.mapped_lpas += 1;
                if !self.pvt.get(ppa) {
                    report
                        .violations
                        .push(Violation::MappedPageNotValid(lpa, ppa));
                }
                if !seen.insert(ppa) {
                    report.violations.push(Violation::DoubleMapped(ppa));
                }
                match self.flash.peek(ppa) {
                    Ok((_, oob)) if oob.lpa != lpa => {
                        report
                            .violations
                            .push(Violation::OobOwnerMismatch(lpa, ppa, oob.lpa));
                    }
                    Ok(_) => {}
                    Err(_) => {
                        report
                            .violations
                            .push(Violation::MappedPageNotValid(lpa, ppa));
                    }
                }
            }
        }

        // 2. BST valid counters match a PVT recount; `written` is the chip's
        //    write pointer; free blocks are empty; reclaimable pages are
        //    never valid; delta blocks hold delta pages. The walk over the
        //    delta pages also collects the journalled TRIM records step 4
        //    audits.
        let mut journalled: HashSet<(Lpa, u64)> = HashSet::new();
        for (block, info) in self.bst.iter() {
            let mut recount = 0;
            for off in 0..geo.pages_per_block {
                let ppa = geo.ppa(block.0, off);
                if self.pvt.get(ppa) {
                    recount += 1;
                    if self.policy.prt.get(ppa) {
                        report.violations.push(Violation::ReclaimableValidPage(ppa));
                    }
                }
            }
            if recount != info.valid {
                report.violations.push(Violation::BstValidMiscount {
                    block: block.0,
                    bst: info.valid,
                    recount,
                });
            }
            if let Ok(flash) = self.flash.block(block) {
                if flash.write_ptr != info.written {
                    report.violations.push(Violation::WritePointerDrift {
                        block: block.0,
                        bst: info.written,
                        flash: flash.write_ptr,
                    });
                }
            }
            match info.kind {
                BlockKind::Free => {
                    if info.written != 0 || recount != 0 {
                        report
                            .violations
                            .push(Violation::FreeBlockNotEmpty(block.0));
                    }
                }
                BlockKind::Delta(_) => {
                    // Whether or not its filter is still live (an expired
                    // filter's blocks wait for GC to erase them lazily), a
                    // delta block must hold delta pages, not data.
                    let mut orphan = false;
                    for off in 0..info.written.min(geo.pages_per_block) {
                        match self.flash.peek(geo.ppa(block.0, off)) {
                            Ok((PageData::DeltaPage(dp), _)) => note_trims(&mut journalled, dp),
                            Ok(_) => orphan = true,
                            Err(_) => {}
                        }
                    }
                    if orphan {
                        report.violations.push(Violation::OrphanDeltaBlock(block.0));
                    }
                }
                BlockKind::Data => {}
            }
        }

        // 3. Version chains strictly decrease in time, and the IMT never
        //    claims a compressed version newer than the data-chain head
        //    (compression only covers invalidated versions; equality is the
        //    legal head-also-compressed freeze, see `version_chain`). The
        //    traversal itself drops out-of-order hops defensively, so the
        //    IMT cross-check is what makes a disordered index *observable*
        //    here rather than silently truncating the chain. This holds on
        //    rebuilt devices too: recovery promotes delta-only heads to
        //    `Trimmed` entries, so a `Mapped` head is always at least as
        //    new as the IMT's compressed versions.
        for (lpa, entry) in self.amt.iter() {
            if matches!(entry, AmtEntry::Unmapped) && self.policy.imt.head(lpa).is_none() {
                continue;
            }
            let mut cross_order = false;
            if let (AmtEntry::Mapped(head), Some((_, imt_ts))) = (entry, self.policy.imt.head(lpa))
            {
                if let Ok((_, oob)) = self.flash.peek(head) {
                    if imt_ts > oob.timestamp {
                        report.violations.push(Violation::ChainOrderViolation(lpa));
                        cross_order = true; // the walk below would mask it
                    }
                }
            }
            let chain = self.version_chain(lpa);
            report.chain_entries += chain.len() as u64;
            if !cross_order && !chain.windows(2).all(|w| w[0].timestamp > w[1].timestamp) {
                report.violations.push(Violation::ChainOrderViolation(lpa));
            }
            // Every flushed delta version still in a live filter must be
            // reachable: if the IMT's newest record physically survives in
            // a live delta page, the walk must surface that timestamp.
            if let Some((dpage, imt_ts)) = self.policy.imt.head(lpa) {
                let present = self.live_delta_page(dpage).is_some_and(|dp| {
                    dp.deltas
                        .iter()
                        .any(|d| d.lpa == lpa && d.timestamp == imt_ts && !d.is_trim())
                });
                if present && !chain.iter().any(|v| v.timestamp == imt_ts) {
                    report
                        .violations
                        .push(Violation::UnreachableFlushedDelta(lpa, imt_ts));
                }
            }
        }

        // 4. Durable-trim audit: every tombstone whose trim instant is still
        //    inside the retention window must have a matching TRIM record in
        //    the delta stream (the flushed pages step 2 walked, or the
        //    unflushed buffers). Records expire with their filter, but a
        //    record's filter is always dropped only once the window start
        //    has moved past the trim instant, so an in-window tombstone
        //    without a record means the journal write was skipped — the trim
        //    would not survive a power cut, violating the crash contract.
        for dp in self.policy.deltas.buffered_pages() {
            note_trims(&mut journalled, dp);
        }
        let window_start = self.policy.chain.retention_start();
        for (lpa, entry) in self.amt.iter() {
            if let AmtEntry::Trimmed(_, ts) = entry {
                if window_start.is_some_and(|start| ts >= start) && !journalled.contains(&(lpa, ts))
                {
                    report
                        .violations
                        .push(Violation::UnjournaledTombstone(lpa, ts));
                }
            }
        }

        // 5. Barrier audit: a host flush acks that everything appended
        //    before it is on flash, so no live buffer may hold a record
        //    sequenced at or before the last completed barrier. (Sequence
        //    numbers, not timestamps — equal-ts bursts make wall-clock
        //    comparison ambiguous.)
        for ppa in self.policy.deltas.pre_barrier_buffers() {
            report.violations.push(Violation::PreBarrierVolatile(ppa));
        }

        // 6. Aging audit: the group-flush scheduler bounds how long an
        //    acked trim stays volatile between barriers. The bound is
        //    measured at the last host-op arrival — the most recent instant
        //    the maintenance path ran (queries do not advance the clock).
        let deadline = self.config.tombstone_flush_deadline;
        if deadline > 0 {
            if let Some(now) = self.policy.idle.last_arrival() {
                if let Some(age) = self.policy.deltas.oldest_pending_trim_age(now) {
                    if age > deadline {
                        report
                            .violations
                            .push(Violation::TombstonePastDeadline { age, deadline });
                    }
                }
            }
        }

        // 7. Maintained lookups: victim selection, the wear trigger and the
        //    expired-delta prelude answer from state kept up to date where
        //    it changes instead of sweeping. Recompute each from the raw
        //    tables; a disagreement means some host op would take a
        //    different block than the sweep it replaced.
        for drift in self.bst.index_drift() {
            report.violations.push(Violation::VictimIndexStale {
                index: drift.index,
                block: drift.block.0,
                filed: drift.filed,
                recount: drift.score,
            });
        }
        if let Some(drift) = self.flash.wear_index_drift() {
            report.violations.push(Violation::WearIndexStale {
                index: drift.index,
                recount: drift.recount,
            });
        }
        let live: HashSet<_> = self.policy.chain.infos().iter().map(|i| i.id).collect();
        let queued: HashSet<_> = self.policy.deltas.expired_blocks().collect();
        for (block, info) in self.bst.iter() {
            let expired = matches!(info.kind, BlockKind::Delta(fid) if !live.contains(&fid));
            if expired != queued.contains(&block) {
                report.violations.push(Violation::ExpiredDeltaSetStale {
                    block: block.0,
                    queued: !expired,
                });
            }
        }
        report
    }
}

/// Files the TRIM records of a delta page under `(lpa, trim instant)`.
fn note_trims(journalled: &mut HashSet<(Lpa, u64)>, dp: &DeltaPage) {
    for d in dp.deltas.iter().filter(|d| d.is_trim()) {
        journalled.insert((d.lpa, d.timestamp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::device::{SsdDevice, SsdReadOps};
    use almanac_flash::{Geometry, SEC_NS};

    #[test]
    fn fresh_device_is_clean() {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn consistency_reports_are_shard_count_invariant() {
        // The same op stream under 1/2/4/8 shards must produce identical
        // consistency reports (and identical query results).
        let mut reports = Vec::new();
        for shards in [1u32, 2, 4, 8] {
            let cfg = SsdConfig::new(Geometry::medium_test()).with_amt_shards(shards);
            let mut ssd = TimeSsd::new(cfg);
            let mut now = SEC_NS;
            for i in 0..150u64 {
                let lpa = Lpa(i % 31);
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
                now = c.finish + SEC_NS;
            }
            ssd.trim(Lpa(7), now).unwrap();
            let report = ssd.check_consistency();
            let chains: Vec<_> = (0..31u64)
                .map(|l| {
                    ssd.version_chain(Lpa(l))
                        .iter()
                        .map(|v| (v.timestamp, v.location))
                        .collect::<Vec<_>>()
                })
                .collect();
            reports.push((report.violations.clone(), report.mapped_lpas, chains));
        }
        for r in &reports[1..] {
            assert_eq!(reports[0], *r);
        }
    }

    #[test]
    fn light_use_stays_clean() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut now = SEC_NS;
        for i in 0..200u64 {
            let lpa = Lpa(i % 37);
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
            now = c.finish + SEC_NS;
        }
        ssd.trim(Lpa(5), now).unwrap();
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.mapped_lpas > 0);
        assert!(report.chain_entries >= 200);
    }

    // --- Checker self-tests: a checker that can't fail is untested. Each
    // test corrupts one invariant on a legitimately-built device and
    // asserts the matching violation is reported. Corruptions may knock
    // over secondary invariants too (e.g. un-validating a page also skews
    // its block's counter), so the assertions check containment, not
    // exclusivity.

    fn built() -> TimeSsd {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut now = SEC_NS;
        for i in 0..60u64 {
            let lpa = Lpa(i % 9);
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
            now = c.finish + SEC_NS;
        }
        assert!(ssd.check_consistency().is_clean());
        ssd
    }

    fn head_of(ssd: &TimeSsd, lpa: Lpa) -> Ppa {
        ssd.amt.get(lpa).mapped().expect("lpa is mapped")
    }

    #[test]
    fn detects_mapped_page_not_valid() {
        let mut ssd = built();
        let head = head_of(&ssd, Lpa(3));
        ssd.pvt.set(head, false);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::MappedPageNotValid(Lpa(3), head)));
    }

    #[test]
    fn detects_oob_owner_mismatch_and_double_mapping() {
        let mut ssd = built();
        // Point LPA 2 at LPA 7's head: the OOB claims 7, and the page is
        // now mapped twice.
        let foreign = head_of(&ssd, Lpa(7));
        ssd.amt.set(Lpa(2), AmtEntry::Mapped(foreign));
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::OobOwnerMismatch(Lpa(2), foreign, Lpa(7))));
        assert!(report
            .violations
            .contains(&Violation::DoubleMapped(foreign)));
    }

    #[test]
    fn detects_bst_valid_miscount() {
        let mut ssd = built();
        let block = ssd.config.geometry.block_of(head_of(&ssd, Lpa(0)));
        ssd.bst.update(block, |info| info.valid += 1);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::BstValidMiscount { block: b, .. } if *b == block.0)));
    }

    #[test]
    fn detects_reclaimable_valid_page() {
        let mut ssd = built();
        let head = head_of(&ssd, Lpa(5));
        ssd.policy.prt.set(head, true);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::ReclaimableValidPage(head)));
    }

    #[test]
    fn detects_free_block_not_empty() {
        let mut ssd = built();
        let free = ssd
            .bst
            .iter()
            .find(|(_, info)| info.kind == BlockKind::Free && info.written == 0)
            .map(|(b, _)| b)
            .expect("a free block exists");
        ssd.bst.update(free, |info| info.written = 1);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::FreeBlockNotEmpty(free.0)));
    }

    #[test]
    fn detects_write_pointer_drift() {
        let mut ssd = built();
        // The open block under LPA 0's head: a `written` one page ahead of
        // the chip would make the next program non-sequential.
        let block = ssd.config.geometry.block_of(head_of(&ssd, Lpa(0)));
        let flash = ssd.flash.block(block).unwrap().write_ptr;
        ssd.bst.raw_mut(block).written += 1;
        let report = ssd.check_consistency();
        assert!(
            report.violations.contains(&Violation::WritePointerDrift {
                block: block.0,
                bst: flash + 1,
                flash,
            }),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn detects_imt_newer_than_head() {
        let mut ssd = built();
        // Claim the delta chain holds a version from the future: the chain
        // walk would silently refuse the IMT jump, so only the explicit
        // cross-check can surface the disordered index.
        let head = head_of(&ssd, Lpa(1));
        let (_, oob) = ssd.flash.peek(head).unwrap();
        ssd.policy.imt.set_head(Lpa(1), head, oob.timestamp + 1);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::ChainOrderViolation(Lpa(1))));
    }

    #[test]
    fn imt_equal_to_head_is_legal() {
        let mut ssd = built();
        // Equality is the documented head-also-compressed freeze state and
        // must NOT fire (see the `<=` IMT jump in `version_chain`).
        let head = head_of(&ssd, Lpa(1));
        let (_, oob) = ssd.flash.peek(head).unwrap();
        ssd.policy.imt.set_head(Lpa(1), head, oob.timestamp);
        let report = ssd.check_consistency();
        assert!(!report
            .violations
            .contains(&Violation::ChainOrderViolation(Lpa(1))));
    }

    #[test]
    fn detects_orphan_delta_block() {
        let mut ssd = built();
        // Relabel a populated data block as a delta block: its pages do not
        // hold delta records, so the block is an orphan.
        let block = ssd.config.geometry.block_of(head_of(&ssd, Lpa(0)));
        ssd.bst
            .update(block, |info| info.kind = BlockKind::Delta(0));
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::OrphanDeltaBlock(block.0)));
    }

    #[test]
    fn detects_unjournaled_tombstone() {
        let mut ssd = built();
        let head = head_of(&ssd, Lpa(4));
        let (_, oob) = ssd.flash.peek(head).unwrap();
        // Forge the RAM-side tombstone without writing the journal record —
        // exactly the state the pre-journal trim path used to leave.
        let ts = oob.timestamp + 1;
        ssd.pvt.set(head, false);
        let block = ssd.config.geometry.block_of(head);
        ssd.bst.update(block, |info| info.valid -= 1);
        ssd.amt.set(Lpa(4), AmtEntry::Trimmed(head, ts));
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::UnjournaledTombstone(Lpa(4), ts)));
    }

    /// A block with both valid and invalid pages: the one under LPA 0's head
    /// (`built()` never fills a block, so older versions share it).
    fn collectable_block(ssd: &TimeSsd) -> almanac_flash::BlockId {
        let block = ssd.config.geometry.block_of(head_of(ssd, Lpa(0)));
        assert!(ssd.bst.get(block).invalid() > 0);
        block
    }

    #[test]
    fn detects_stale_victim_index() {
        let mut ssd = built();
        let block = collectable_block(&ssd);
        let before = *ssd.bst.get(block);
        // An invalidation that skipped the re-filing: the GC index (and,
        // nothing being compressed yet, the idle-time index) still holds the
        // block under its old score.
        ssd.pvt.set(head_of(&ssd, Lpa(0)), false);
        ssd.bst.raw_mut(block).valid -= 1;
        let report = ssd.check_consistency();
        for index in ["gc", "background"] {
            assert!(
                report.violations.contains(&Violation::VictimIndexStale {
                    index,
                    block: block.0,
                    filed: before.invalid(),
                    recount: before.invalid() + 1,
                }),
                "{index}: {:?}",
                report.violations
            );
        }
        // A compression that skipped it leaves only the idle-time index out.
        let mut ssd = built();
        ssd.bst.raw_mut(block).reclaimable += 1;
        let stale: Vec<_> = ssd
            .check_consistency()
            .violations
            .into_iter()
            .filter(|v| matches!(v, Violation::VictimIndexStale { .. }))
            .collect();
        assert_eq!(
            stale,
            [Violation::VictimIndexStale {
                index: "background",
                block: block.0,
                filed: before.invalid(),
                recount: before.invalid() - 1,
            }]
        );
    }

    #[test]
    fn detects_block_left_filed_after_erase() {
        let mut ssd = built();
        let block = collectable_block(&ssd);
        let filed = ssd.bst.get(block).invalid();
        // The erase path forgot the BST: the block is free and empty, yet GC
        // would still be offered it.
        *ssd.bst.raw_mut(block) = Default::default();
        let report = ssd.check_consistency();
        assert!(report.violations.contains(&Violation::VictimIndexStale {
            index: "gc",
            block: block.0,
            filed,
            recount: 0,
        }));
    }

    #[test]
    fn detects_stale_expired_delta_queue() {
        let mut ssd = built();
        let t = 10_000 * SEC_NS;
        ssd.trim(Lpa(4), t).unwrap();
        ssd.flush(t + SEC_NS).unwrap();
        let (delta_block, fid) = ssd
            .bst
            .iter()
            .find_map(|(b, info)| match info.kind {
                BlockKind::Delta(fid) => Some((b, fid)),
                _ => None,
            })
            .expect("the journalled trim opened a delta block");
        assert!(ssd.check_consistency().is_clean());
        // A live filter's block in the queue: GC would erase unexpired deltas.
        let mut early = ssd.clone();
        early.policy.deltas.drop_filter(fid);
        assert!(early
            .check_consistency()
            .violations
            .contains(&Violation::ExpiredDeltaSetStale {
                block: delta_block.0,
                queued: true,
            }));
        // The filter dropped without its blocks being queued (what
        // `force_shrink` did with `drop_filter`'s return value before the
        // queue existed): the space would never come back.
        while ssd.policy.chain.drop_oldest().is_some() {}
        assert!(ssd
            .check_consistency()
            .violations
            .contains(&Violation::ExpiredDeltaSetStale {
                block: delta_block.0,
                queued: false,
            }));
        // Queued as `force_shrink` does it, the audit is clean again.
        ssd.policy.deltas.drop_filter(fid);
        let report = ssd.check_consistency();
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ExpiredDeltaSetStale { .. })),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn journalled_trim_passes_the_audit() {
        let mut ssd = built();
        ssd.trim(Lpa(4), 10_000 * SEC_NS).unwrap();
        assert!(matches!(ssd.amt.get(Lpa(4)), AmtEntry::Trimmed(..)));
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn detects_unreachable_flushed_delta() {
        use almanac_flash::{DeltaBody, DeltaRecord};
        let mut ssd = built();
        let lpa = Lpa(6);
        let head = head_of(&ssd, lpa);
        let (_, oob) = ssd.flash.peek(head).unwrap();
        let ts = oob.timestamp + 10;
        // Flush a genuine delta record *newer* than the data-page head and
        // index it in the IMT, but leave the AMT pointing at the stale data
        // page: the chain walk refuses the `newest > head` jump, so the
        // flushed version is unreachable — the exact state a pre-promotion
        // rebuild used to produce after a trimmed head was reclaimed.
        let group = ssd.group_of(head);
        let fid = ssd.policy.chain.insert(group, ts);
        let rec = DeltaRecord {
            lpa,
            back_ptr: Some(head),
            timestamp: ts,
            ref_timestamp: ts,
            body: DeltaBody::Zeros,
            size: 8,
        };
        let out = ssd
            .policy
            .deltas
            .append(fid, rec, &mut ssd.alloc, &mut ssd.bst, &mut ssd.flash, ts)
            .unwrap();
        ssd.policy
            .deltas
            .flush_filter(fid, &mut ssd.bst, &mut ssd.flash, out.finish)
            .unwrap();
        ssd.policy.imt.set_head(lpa, out.page, ts);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::UnreachableFlushedDelta(lpa, ts)));
    }

    #[test]
    fn detects_pre_barrier_volatile_buffer() {
        use almanac_flash::{DeltaBody, DeltaRecord};
        let mut ssd = built();
        // Buffer a genuine delta record, then forge a barrier ack without
        // flushing — the exact corruption a broken flush path would leave.
        let lpa = Lpa(2);
        let head = head_of(&ssd, lpa);
        let (_, oob) = ssd.flash.peek(head).unwrap();
        let ts = oob.timestamp + 5;
        let fid = ssd.policy.chain.insert(ssd.group_of(head), ts);
        let rec = DeltaRecord {
            lpa,
            back_ptr: Some(head),
            timestamp: ts,
            ref_timestamp: ts,
            body: DeltaBody::Zeros,
            size: 8,
        };
        let out = ssd
            .policy
            .deltas
            .append(fid, rec, &mut ssd.alloc, &mut ssd.bst, &mut ssd.flash, ts)
            .unwrap();
        ssd.policy.deltas.mark_barrier_unchecked();
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::PreBarrierVolatile(out.page)));
    }

    #[test]
    fn real_flush_barrier_passes_the_audit() {
        let mut ssd = built();
        // Trims buffer tombstones below the watermark; the host barrier
        // must flush them and leave the audit clean.
        ssd.trim(Lpa(4), 10_000 * SEC_NS).unwrap();
        ssd.flush(10_001 * SEC_NS).unwrap();
        assert_eq!(ssd.stats().host_flushes, 1);
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
        // Post-barrier appends are legitimately volatile.
        ssd.trim(Lpa(5), 10_002 * SEC_NS).unwrap();
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn detects_tombstone_past_deadline() {
        let mut ssd = built();
        // Buffer a real tombstone (below the watermark, so it stays
        // volatile), then backdate its enqueue stamp past the deadline —
        // the corruption a broken aging scheduler would accumulate.
        let t = 10_000 * SEC_NS;
        ssd.trim(Lpa(4), t).unwrap();
        assert!(ssd.check_consistency().is_clean());
        let deadline = ssd.config.tombstone_flush_deadline;
        let ids: Vec<_> = ssd.policy.chain.infos().iter().map(|i| i.id).collect();
        for fid in ids {
            ssd.policy
                .deltas
                .backdate_trim_stamp(fid, t.saturating_sub(2 * deadline));
        }
        let report = ssd.check_consistency();
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::TombstonePastDeadline { .. })),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn aging_flush_clears_old_tombstones() {
        // A trim left volatile by the watermark is flushed by the next op
        // arriving past the deadline, and the audit stays clean throughout.
        let mut ssd = built();
        let t = 10_000 * SEC_NS;
        ssd.trim(Lpa(4), t).unwrap();
        assert!(ssd.buffered_delta_pages() > 0, "tombstone starts volatile");
        let late = t + ssd.config.tombstone_flush_deadline + 2 * SEC_NS;
        ssd.read(Lpa(0), late).unwrap();
        // Background compression may buffer fresh (non-trim) deltas during
        // the same idle window, so assert on pending *tombstones*, not on
        // buffered pages in general.
        assert_eq!(
            ssd.policy.deltas.oldest_pending_trim_age(late),
            None,
            "aged tombstone batch was flushed by the maintenance path"
        );
        assert!(ssd.stats().aging_flushes > 0);
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn heavy_churn_with_gc_stays_clean() {
        let mut cfg = SsdConfig::new(Geometry::medium_test()).with_min_retention(0);
        cfg.n_fixed = 256;
        let mut ssd = TimeSsd::new(cfg);
        let set = ssd.exported_pages() / 3;
        let mut now = SEC_NS;
        for i in 0..15_000u64 {
            let lpa = Lpa(i % set);
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
            now = c.finish + 50_000;
        }
        assert!(ssd.stats().gc_erases > 0);
        let report = ssd.check_consistency();
        assert!(
            report.is_clean(),
            "{:?}",
            &report.violations[..report.violations.len().min(5)]
        );
    }
}
