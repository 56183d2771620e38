//! A FlashGuard-style FTL: the ransomware-focused comparator of Figure 10.
//!
//! FlashGuard (Huang et al., CCS'17 — reference [14] of the Almanac paper)
//! retains only invalid pages *suspected to be ransomware victims*: pages
//! that were read by the host and later overwritten (the read-encrypt-write
//! signature). As a policy of the [`Ftl`] skeleton that is a read bit set by
//! host reads and consumed by the next invalidation, and a `reclaim` that
//! migrates retained pages raw until a fixed retention period passes —
//! whether GC or the skeleton's wear-levelling swap is cleaning the block.
//! Unlike TimeSSD it keeps no version lineage, no Bloom-filter time index and
//! no delta compression; recovery reads raw retained pages, which is why the
//! paper measures TimeSSD at ~14% slower recovery (decompression) in
//! Figure 10.

use std::collections::HashMap;

use almanac_flash::{Lpa, Nanos, PageData, Ppa, DAY_NS};

use crate::check::{ConsistencyReport, Violation};
use crate::config::SsdConfig;
use crate::error::Result;
use crate::ftl::{sealed::Sealed, Dest, Ftl, Retention};
use crate::tables::BlockKind;

/// A retained suspected-victim page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Retained {
    lpa: Lpa,
    written_at: Nanos,
    invalidated_at: Nanos,
    /// Retain order: of two versions written at one instant (the baselines
    /// stamp a write with its start), the later retained is the newer.
    seq: u64,
}

/// FlashGuard's retention policy: an invalid page is kept for a fixed window
/// if the host had read it since it was written.
#[derive(Debug, Clone)]
pub struct ReadGated {
    /// Whether the host has read the current copy of each logical page (the
    /// encrypt-signature detector).
    read_bit: Vec<bool>,
    /// Retained suspected-victim pages, by physical address.
    retained: HashMap<Ppa, Retained>,
    /// Victims retained so far: the next one's `seq`.
    retains: u64,
    /// How long suspected victims are kept (FlashGuard's ~20 days).
    retention: Nanos,
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
pub type FlashGuardSsd = Ftl<ReadGated>;

impl FlashGuardSsd {
    /// Retained (suspected-victim) old versions of `lpa`, newest first:
    /// `(written_at, ppa)` pairs whose raw content can be read back.
    /// Versions written at one instant come in retain order, newest first.
    pub fn retained_versions(&self, lpa: Lpa) -> Vec<(Nanos, Ppa)> {
        let mut v: Vec<(&Retained, Ppa)> = self
            .policy
            .retained
            .iter()
            .filter(|(_, r)| r.lpa == lpa)
            .map(|(p, r)| (r, *p))
            .collect();
        v.sort_unstable_by_key(|(r, _)| std::cmp::Reverse((r.written_at, r.seq)));
        v.into_iter().map(|(r, p)| (r.written_at, p)).collect()
    }

    /// Raw content of a retained version (no decompression — FlashGuard
    /// keeps victims uncompressed).
    pub fn retained_content(&self, ppa: Ppa) -> Result<PageData> {
        let (data, _) = self.flash.peek(ppa)?;
        Ok(data.clone())
    }

    /// Number of currently retained victim pages.
    pub fn retained_count(&self) -> usize {
        self.policy.retained.len()
    }

    fn expire_victims(&mut self, now: Nanos) {
        let horizon = now.saturating_sub(self.policy.retention);
        self.policy
            .retained
            .retain(|_, r| r.invalidated_at >= horizon);
    }
}

impl Sealed for ReadGated {}

impl Retention for ReadGated {
    const KIND: &'static str = "flashguard";

    fn new(config: &SsdConfig) -> Self {
        ReadGated {
            read_bit: vec![false; config.exported_pages() as usize],
            retained: HashMap::new(),
            retains: 0,
            retention: 20 * DAY_NS,
        }
    }

    fn on_host_read(ftl: &mut Ftl<Self>, lpa: Lpa) {
        ftl.policy.read_bit[lpa.0 as usize] = true;
    }

    fn on_invalidate(ftl: &mut Ftl<Self>, old: Ppa, lpa: Lpa, now: Nanos) {
        // The bit describes the copy that just died; the next one starts
        // unread.
        if std::mem::take(&mut ftl.policy.read_bit[lpa.0 as usize]) {
            // Read-then-overwritten: suspected ransomware victim, retain it.
            let written_at = ftl.flash.peek(old).map_or(0, |(_, oob)| oob.timestamp);
            ftl.policy.retains += 1;
            let victim = Retained {
                lpa,
                written_at,
                invalidated_at: now,
                seq: ftl.policy.retains,
            };
            ftl.policy.retained.insert(old, victim);
        }
    }

    fn gc_prelude(ftl: &mut Ftl<Self>, now: Nanos) -> Result<Option<Nanos>> {
        ftl.expire_victims(now);
        Ok(None)
    }

    fn reclaim(ftl: &mut Ftl<Self>, ppa: Ppa, t: Nanos) -> Result<Nanos> {
        let Some(victim) = ftl.policy.retained.get(&ppa).copied() else {
            return Ok(t); // plain invalid: discard
        };
        // Retained victims migrate raw, keeping their metadata.
        let (data, oob, t) = ftl.flash.read(ppa, t)?;
        ftl.stats.gc_reads += 1;
        let (new_ppa, t) = ftl.program(Dest::Cold, data, oob, t, false)?;
        ftl.stats.gc_programs += 1;
        ftl.policy.retained.remove(&ppa);
        ftl.policy.retained.insert(new_ppa, victim);
        Ok(t)
    }

    /// Every retained victim is a programmed page that is not valid and not
    /// in a free block: what `retained_content` reads back is the victim's.
    fn audit(ftl: &Ftl<Self>, report: &mut ConsistencyReport) {
        let geo = ftl.config.geometry;
        let retained = ftl.policy.retained.keys().copied();
        let mut stray: Vec<Ppa> = retained
            .filter(|&ppa| {
                ftl.flash.peek(ppa).is_err()
                    || ftl.pvt.get(ppa)
                    || ftl.bst.get(geo.block_of(ppa)).kind == BlockKind::Free
            })
            .collect();
        stray.sort_unstable();
        report
            .violations
            .extend(stray.into_iter().map(Violation::StrayRetainedPage));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{SsdDevice, SsdReadOps};
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
        let mut ssd = small();
        ssd.policy.retention = 1_000;
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 0).unwrap();
        ssd.read(Lpa(0), 10).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![2]), 20).unwrap();
        assert_eq!(ssd.retained_count(), 1);
        ssd.expire_victims(10_000);
        assert_eq!(ssd.retained_count(), 0);
    }

    /// Regression: victims written at one instant came back in `HashMap`
    /// order.
    #[test]
    fn versions_written_at_one_instant_come_newest_first() {
        for _ in 0..8 {
            let mut ssd = small();
            for v in 0..=6u8 {
                ssd.write(Lpa(0), PageData::bytes(vec![v]), 0).unwrap();
                ssd.read(Lpa(0), 0).unwrap();
            }
            let retained = ssd.retained_versions(Lpa(0));
            let contents: Vec<PageData> = retained
                .into_iter()
                .map(|(ts, ppa)| {
                    assert_eq!(ts, 0);
                    ssd.retained_content(ppa).unwrap()
                })
                .collect();
            let newest_first: Vec<PageData> =
                (0..6u8).rev().map(|v| PageData::bytes(vec![v])).collect();
            assert_eq!(contents, newest_first);
        }
    }

    #[test]
    fn retained_victims_pass_the_audit_and_a_valid_one_is_reported() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 0).unwrap();
        ssd.read(Lpa(0), 10).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![2]), 20).unwrap();
        assert_eq!(ssd.retained_count(), 1);
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
        // Plant: the live copy filed as a retained victim.
        let live = ssd.amt.get(Lpa(0)).mapped().unwrap();
        let victim = ssd.policy.retained.values().next().copied().unwrap();
        ssd.policy.retained.insert(live, victim);
        assert_eq!(
            ssd.check_consistency().violations,
            [Violation::StrayRetainedPage(live)]
        );
    }

    #[test]
    fn trim_of_read_page_is_retained() {
        let mut ssd = small();
        ssd.write(Lpa(3), PageData::bytes(vec![7]), 0).unwrap();
        ssd.read(Lpa(3), 10).unwrap();
        ssd.trim(Lpa(3), 20).unwrap();
        assert_eq!(ssd.retained_versions(Lpa(3)).len(), 1);
    }
}
