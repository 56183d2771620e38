//! Consistency checking: an `fsck` for the FTL skeleton's state.
//!
//! [`Ftl::check_consistency`] runs the same rules on all three devices —
//! the AMT, PVT, BST, write pointers, victim indices and wear bounds belong
//! to the skeleton — then hands the report to the policy's
//! [`Retention::audit`] for the state only that policy keeps. Used by the
//! property tests and the oracle after heavy churn, and available to
//! embedders as a diagnostic.

use std::collections::HashSet;
use std::fmt;

use almanac_flash::{Lpa, Ppa};

use crate::ftl::{Ftl, Retention};
use crate::tables::{AmtEntry, BlockKind};

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A mapped LPA points at a page that is not valid in the PVT.
    MappedPageNotValid(Lpa, Ppa),
    /// A mapped LPA's page carries OOB metadata for a different LPA.
    OobOwnerMismatch(Lpa, Ppa, Lpa),
    /// Two LPAs map to the same physical page.
    DoubleMapped(Ppa),
    /// A free-pool block still holds programmed pages in the BST.
    FreeBlockNotEmpty(u64),
    /// A maintained answer disagrees with a recount from raw state: some
    /// host op would act on what the index keeps, not on what is there.
    Drift {
        /// The answer: `valid` and `written` (BST counters vs the PVT and
        /// the chip's write pointer), `gc` and `background` (victim-index
        /// filing vs the score the entry earns, 0 = not filed),
        /// `background_levels` (the idle-time order's level mask vs its
        /// score's bitmap, 1 = non-empty), `wear_min`
        /// and `wear_max` (erase-count histogram vs the blocks), `expired`
        /// (the expired-delta queue vs the Bloom chain, 1 = listed),
        /// `reserved` (an open delta buffer's page vs the `written` page of
        /// its filter's active block) and `trim_buffers` (buffers holding a
        /// tombstone vs a recount).
        index: &'static str,
        /// The block, the score (`background_levels`), the filter
        /// (`reserved`), or 0 for a device-wide answer.
        key: u64,
        /// What the index keeps.
        kept: u64,
        /// What the recount says.
        recount: u64,
    },
    /// A page is marked reclaimable but still valid.
    ReclaimableValidPage(Ppa),
    /// A block the BST labels a delta block holds a page that is not a
    /// delta page.
    OrphanDeltaBlock(u64),
    /// A version chain has non-decreasing timestamps.
    ChainOrderViolation(Lpa),
    /// The IMT's newest compressed version for an LPA still sits in a live
    /// flushed delta page, but the version chain walk never reaches it.
    UnreachableFlushedDelta(Lpa, u64),
    /// An AMT tombstone inside the retention window has no TRIM record in
    /// the delta stream — the trim would silently un-happen at the next
    /// power cut.
    UnjournaledTombstone(Lpa, u64),
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
    /// A retained FlashGuard victim is not a programmed, invalid page of a
    /// block in use: its content is gone, or it is live data.
    StrayRetainedPage(Ppa),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MappedPageNotValid(l, p) => write!(f, "{l} maps to non-valid {p}"),
            Violation::OobOwnerMismatch(l, p, o) => {
                write!(f, "{l} maps to {p} whose OOB claims {o}")
            }
            Violation::DoubleMapped(p) => write!(f, "{p} mapped by two LPAs"),
            Violation::FreeBlockNotEmpty(b) => write!(f, "free block B{b} has written pages"),
            Violation::Drift {
                index,
                key,
                kept,
                recount,
            } => write!(f, "{index}[{key}] keeps {kept}, a recount says {recount}"),
            Violation::ReclaimableValidPage(p) => write!(f, "valid page {p} marked reclaimable"),
            Violation::OrphanDeltaBlock(b) => write!(f, "delta block B{b} holds a non-delta page"),
            Violation::ChainOrderViolation(l) => {
                write!(f, "{l} version chain timestamps not strictly decreasing")
            }
            Violation::UnreachableFlushedDelta(l, ts) => {
                write!(
                    f,
                    "{l}: flushed delta version at {ts}ns unreachable from chain walk"
                )
            }
            Violation::UnjournaledTombstone(l, ts) => {
                write!(f, "{l} trimmed at {ts}ns with no journalled TRIM record")
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
            Violation::StrayRetainedPage(p) => {
                write!(f, "retained victim {p} is not a programmed invalid page")
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

    /// Holds what `index` keeps for `key` to a recount from raw state; a
    /// disagreement is a [`Violation::Drift`].
    pub(crate) fn drift(
        &mut self,
        index: &'static str,
        key: u64,
        kept: impl Into<u64>,
        recount: impl Into<u64>,
    ) {
        let (kept, recount) = (kept.into(), recount.into());
        if kept != recount {
            self.violations.push(Violation::Drift {
                index,
                key,
                kept,
                recount,
            });
        }
    }
}

impl<R: Retention> Ftl<R> {
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

        // 2. Per block: free blocks are empty, and every answer kept about
        //    the block — its valid counter, its write pointer (`written`,
        //    the FTL's only one) and its filing in each victim index the
        //    device keeps — matches a recount. A disagreement means some
        //    host op would take a different page or block than a sweep
        //    would.
        for (block, info) in self.bst.iter() {
            let valid = (0..geo.pages_per_block)
                .filter(|&off| self.pvt.get(geo.ppa(block.0, off)))
                .count() as u64;
            report.drift("valid", block.0, info.valid, valid);
            if let Ok(chip) = self.flash.block(block) {
                report.drift("written", block.0, info.written, chip.write_ptr);
            }
            if info.kind == BlockKind::Free && (info.written != 0 || valid != 0) {
                report
                    .violations
                    .push(Violation::FreeBlockNotEmpty(block.0));
            }
            for (index, filed, earned) in self.bst.filing(block) {
                report.drift(index, block.0, filed, earned);
            }
        }

        // 3. The idle-time order's level mask: a score is marked iff some
        //    block is filed under it, or its lookup would skip a level or
        //    walk an empty one.
        for (score, marked, filed) in self.bst.idle_levels() {
            report.drift("background_levels", score.into(), marked, filed);
        }

        // 4. The erase-count bounds the wear-leveling trigger reads.
        let erases = || {
            self.bst
                .iter()
                .map(|(b, _)| self.flash.erase_count(b).unwrap_or(0))
        };
        let (min, max) = self.flash.wear_bounds();
        report.drift("wear_min", 0, min, erases().min().unwrap_or(0));
        report.drift("wear_max", 0, max, erases().max().unwrap_or(0));

        R::audit(self, &mut report);
        report
    }
}

/// Fixtures the audit's self-tests share with the policies' own.
#[cfg(test)]
impl<R: Retention> Ftl<R> {
    /// Nine LPAs overwritten round-robin on `medium_test`, audited clean.
    pub(crate) fn built() -> Self {
        use crate::device::{SsdDevice, SsdReadOps};
        use almanac_flash::{Geometry, PageData, SEC_NS};
        let mut ssd = Self::new(crate::SsdConfig::new(Geometry::medium_test()));
        let mut now = SEC_NS;
        for i in 0..60u64 {
            let lpa = Lpa(i % 9);
            let data = PageData::Synthetic {
                seed: lpa.0,
                version: i,
            };
            now = ssd.write(lpa, data, now).unwrap().finish + SEC_NS;
        }
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{}: {:?}", ssd.kind(), report.violations);
        ssd
    }

    /// The page `lpa` maps to.
    pub(crate) fn head_of(&self, lpa: Lpa) -> Ppa {
        self.amt.get(lpa).mapped().expect("lpa is mapped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::device::SsdReadOps;
    use crate::tables::BlockInfo;
    use crate::{Discard, ReadGated, TimeTravel};
    use almanac_flash::{BlockId, Geometry};

    /// Runs the generic fn `$plant` on all three devices.
    macro_rules! on_every_ftl {
        ($plant:ident) => {
            $plant::<Discard>();
            $plant::<ReadGated>();
            $plant::<TimeTravel>();
        };
    }

    #[test]
    fn fresh_device_is_clean() {
        fn fresh<R: Retention>() {
            let ssd = Ftl::<R>::new(SsdConfig::new(Geometry::small_test()));
            let report = ssd.check_consistency();
            assert!(report.is_clean(), "{}: {:?}", ssd.kind(), report.violations);
        }
        on_every_ftl!(fresh);
    }

    // --- Checker self-tests: a checker that can't fail is untested. Each
    // test corrupts one invariant on a legitimately-built device and
    // asserts the matching violation is reported. Corruptions may knock
    // over secondary invariants too (e.g. un-validating a page also skews
    // its block's counter), so the assertions check containment, not
    // exclusivity. The skeleton's rules are the same on every FTL, so each
    // plant runs on all three.

    /// Asserts that the audit of `ssd` reports `want`.
    fn reports<R: Retention>(ssd: &Ftl<R>, want: Violation) {
        let report = ssd.check_consistency();
        assert!(
            report.violations.contains(&want),
            "{}: no {want:?} in {:?}",
            ssd.kind(),
            report.violations
        );
    }

    #[test]
    fn detects_mapped_page_not_valid() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            let head = ssd.head_of(Lpa(3));
            ssd.pvt.set(head, false);
            reports(&ssd, Violation::MappedPageNotValid(Lpa(3), head));
        }
        on_every_ftl!(plant);
    }

    #[test]
    fn detects_oob_owner_mismatch_and_double_mapping() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            // Point LPA 2 at LPA 7's head: the OOB claims 7, and the page is
            // now mapped twice.
            let foreign = ssd.head_of(Lpa(7));
            ssd.amt.set(Lpa(2), AmtEntry::Mapped(foreign));
            reports(&ssd, Violation::OobOwnerMismatch(Lpa(2), foreign, Lpa(7)));
            reports(&ssd, Violation::DoubleMapped(foreign));
        }
        on_every_ftl!(plant);
    }

    #[test]
    fn detects_bst_valid_miscount() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            let block = ssd.config.geometry.block_of(ssd.head_of(Lpa(0)));
            let valid = u64::from(ssd.bst.get(block).valid);
            ssd.bst.update(block, |info| info.valid += 1);
            reports(
                &ssd,
                Violation::Drift {
                    index: "valid",
                    key: block.0,
                    kept: valid + 1,
                    recount: valid,
                },
            );
        }
        on_every_ftl!(plant);
    }

    #[test]
    fn detects_free_block_not_empty() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            let free = ssd
                .bst
                .iter()
                .find(|(_, info)| info.kind == BlockKind::Free && info.written == 0)
                .map(|(b, _)| b)
                .expect("a free block exists");
            ssd.bst.update(free, |info| info.written = 1);
            reports(&ssd, Violation::FreeBlockNotEmpty(free.0));
        }
        on_every_ftl!(plant);
    }

    /// On the baselines this is the proof that their audit is not vacuous:
    /// the skeleton's rules see their state.
    #[test]
    fn detects_write_pointer_drift() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            // The open block under LPA 0's head: a `written` one page ahead
            // of the chip would make the next program non-sequential.
            let block = ssd.config.geometry.block_of(ssd.head_of(Lpa(0)));
            let flash = u64::from(ssd.flash.block(block).unwrap().write_ptr);
            ssd.bst.raw_mut(block).written += 1;
            reports(
                &ssd,
                Violation::Drift {
                    index: "written",
                    key: block.0,
                    kept: flash + 1,
                    recount: flash,
                },
            );
        }
        on_every_ftl!(plant);
    }

    /// A block with both valid and invalid pages: the one under LPA 0's head
    /// (`built()` never fills a block, so older versions share it).
    fn collectable_block<R: Retention>(ssd: &Ftl<R>) -> BlockId {
        let block = ssd.config.geometry.block_of(ssd.head_of(Lpa(0)));
        assert!(ssd.bst.get(block).invalid() > 0);
        block
    }

    /// Writes on past `built()` until a data block is fully programmed and
    /// returns it: closed, its retained pages not yet compressed, since no
    /// command has arrived after the write that closed it.
    fn closed_block<R: Retention>(ssd: &mut Ftl<R>) -> BlockId {
        use crate::device::SsdDevice;
        use almanac_flash::{PageData, SEC_NS};
        let ppb = ssd.config.geometry.pages_per_block;
        let mut now = ssd.last_io_end;
        for i in 60u64.. {
            let lpa = Lpa(i % 9);
            let data = PageData::Synthetic {
                seed: lpa.0,
                version: i,
            };
            now = ssd.write(lpa, data, now + SEC_NS).unwrap().finish;
            let full = ssd
                .bst
                .iter()
                .find(|(_, info)| info.kind == BlockKind::Data && info.written == ppb);
            if let Some((block, info)) = full {
                assert!(info.invalid() > info.reclaimable);
                return block;
            }
        }
        unreachable!("a block fills")
    }

    /// The `Drift` findings of an audit of `ssd`.
    fn drifts<R: Retention>(ssd: &Ftl<R>) -> Vec<Violation> {
        let report = ssd.check_consistency();
        let drift = |v: &Violation| matches!(v, Violation::Drift { .. });
        report.violations.into_iter().filter(drift).collect()
    }

    #[test]
    fn detects_stale_victim_index() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            let block = collectable_block(&ssd);
            let before = u64::from(ssd.bst.get(block).invalid());
            // An invalidation that skipped the re-filing: the GC index still
            // holds the block under its old score. The block is open, so
            // the idle-time order, where a device keeps one, files it
            // nowhere before or after.
            ssd.pvt.set(ssd.head_of(Lpa(0)), false);
            ssd.bst.raw_mut(block).valid -= 1;
            let stale = Violation::Drift {
                index: "gc",
                key: block.0,
                kept: before,
                recount: before + 1,
            };
            assert_eq!(drifts(&ssd), [stale], "{}", ssd.kind());
            // A compression that skipped it leaves only the idle-time index
            // out, on a device that keeps one.
            let mut ssd = Ftl::<R>::built();
            let block = closed_block(&mut ssd);
            let info = *ssd.bst.get(block);
            let before = u64::from(info.invalid() - info.reclaimable);
            ssd.bst.raw_mut(block).reclaimable += 1;
            let stale = R::COMPRESSES.then_some(Violation::Drift {
                index: "background",
                key: block.0,
                kept: before,
                recount: before - 1,
            });
            assert_eq!(drifts(&ssd), Vec::from_iter(stale), "{}", ssd.kind());
        }
        on_every_ftl!(plant);
    }

    #[test]
    fn detects_a_stale_idle_level_mask() {
        let mut ssd = Ftl::<TimeTravel>::built();
        let block = closed_block(&mut ssd);
        let info = *ssd.bst.get(block);
        let score = info.invalid() - info.reclaimable;
        let all = |_: BlockId, _: &BlockInfo| true;
        assert_eq!(ssd.bst.background_victim(all), Some(block));
        // A level emptied in the mask but not in its bitmap: the lookup
        // jumps over the only filed block.
        ssd.bst.flip_idle_level(score);
        assert_eq!(ssd.bst.background_victim(all), None);
        let stale = Violation::Drift {
            index: "background_levels",
            key: score.into(),
            kept: 0,
            recount: 1,
        };
        assert_eq!(drifts(&ssd), [stale]);
        // A level marked with an empty bitmap: the lookup walks it for
        // nothing.
        ssd.bst.flip_idle_level(score);
        ssd.bst.flip_idle_level(score + 1);
        assert_eq!(ssd.bst.background_victim(all), Some(block));
        let stale = Violation::Drift {
            index: "background_levels",
            key: (score + 1).into(),
            kept: 1,
            recount: 0,
        };
        assert_eq!(drifts(&ssd), [stale]);
    }

    #[test]
    fn only_a_compressing_device_keeps_the_idle_time_order() {
        fn indices<R: Retention>() -> Vec<&'static str> {
            let ssd = Ftl::<R>::built();
            let block = collectable_block(&ssd);
            ssd.bst.filing(block).map(|(index, ..)| index).collect()
        }
        assert_eq!(indices::<Discard>(), ["gc"]);
        assert_eq!(indices::<ReadGated>(), ["gc"]);
        assert_eq!(indices::<TimeTravel>(), ["gc", "background"]);
    }

    #[test]
    fn detects_block_left_filed_after_erase() {
        fn plant<R: Retention>() {
            let mut ssd = Ftl::<R>::built();
            let block = collectable_block(&ssd);
            let filed = u64::from(ssd.bst.get(block).invalid());
            // The erase path forgot the BST: the block is free and empty, yet
            // GC would still be offered it.
            *ssd.bst.raw_mut(block) = Default::default();
            reports(
                &ssd,
                Violation::Drift {
                    index: "gc",
                    key: block.0,
                    kept: filed,
                    recount: 0,
                },
            );
        }
        on_every_ftl!(plant);
    }
}
