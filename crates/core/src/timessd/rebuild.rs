//! Power-cycle recovery: rebuilding the FTL state from flash contents.
//!
//! Real firmware loses its RAM tables on power loss and must reconstruct
//! them by scanning the flash — the OOB metadata TimeSSD already maintains
//! (§3.7: owning LPA, back-pointer, write timestamp per page) is exactly
//! what makes that possible. This module rebuilds:
//!
//! - the **AMT** — for each LPA, the newest written page wins;
//! - the **PVT/BST** — validity and per-block counters follow from the AMT;
//! - the **IMT** — the newest delta record per LPA, found by scanning delta
//!   pages;
//! - the **PRT** — a data page whose `(lpa, timestamp)` also exists as a
//!   delta has already been compressed and is reclaimable;
//! - the **Bloom-filter chain** — re-inserted from the invalid pages'
//!   groups. Invalidation times are not stored on flash (the chain is a RAM
//!   structure), so write timestamps stand in: a lower bound, which can only
//!   *shorten* the apparent retention window — versions are never expired
//!   late, so the §3.4 guarantee degrades safely.
//!
//! Volatile delta buffers are lost on power-cut, exactly like a real
//! controller without capacitor backing; everything programmed to flash
//! survives.

use std::collections::HashMap;

use almanac_bloom::BloomChain;
use almanac_flash::{FlashArray, Lpa, Nanos, PageData, Ppa};

use crate::alloc::Allocator;
use crate::config::SsdConfig;
use crate::stats::DeviceStats;
use crate::tables::{AmtEntry, BlockInfo, BlockKind, Bst, Imt, Prt, Pvt, ShardedAmt};

use super::deltas::DeltaManager;
use super::{TimeSsd, TimeTravel};

impl TimeSsd {
    /// Reconstructs a TimeSSD from a flash array (e.g. after power loss).
    ///
    /// The rebuilt device serves reads/writes immediately and all surviving
    /// version chains remain queryable. See the module docs for what is
    /// reconstructed exactly versus approximated.
    pub fn recover_from_flash(flash: FlashArray, config: SsdConfig) -> Self {
        let geo = config.geometry;
        let exported = config.exported_pages();

        let mut amt = ShardedAmt::new(exported, 1);
        let mut pvt = Pvt::new(geo.total_pages());
        let mut prt = Prt::new(geo.total_pages());
        let mut bst = Bst::new(&geo);
        let mut imt = Imt::new();
        let mut chain = BloomChain::new(config.bloom);
        let mut last_ts: Nanos = 0;

        // Pass 1: scan every written page; find the newest version per LPA
        // and collect delta records.
        let mut newest: HashMap<Lpa, (Nanos, Ppa)> = HashMap::new();
        let mut compressed: HashMap<Lpa, Vec<Nanos>> = HashMap::new();
        let mut recovered_deltas: HashMap<Lpa, Vec<(Nanos, Ppa)>> = HashMap::new();
        // Newest journalled trim tombstone per LPA: (trim instant, chain
        // head at trim time).
        let mut trims: HashMap<Lpa, (Nanos, Option<Ppa>)> = HashMap::new();
        let mut delta_blocks: Vec<(u64, u32)> = Vec::new(); // (block, written)
        let mut written_per_block = vec![0u32; geo.total_blocks() as usize];

        for block in 0..geo.total_blocks() {
            for off in 0..geo.pages_per_block {
                let ppa = geo.ppa(block, off);
                let Ok((data, oob)) = flash.peek(ppa) else {
                    break; // sequential programming: first free page ends it
                };
                written_per_block[block as usize] += 1;
                last_ts = last_ts.max(oob.timestamp);
                match data {
                    PageData::DeltaPage(dp) => {
                        for rec in &dp.deltas {
                            last_ts = last_ts.max(rec.timestamp);
                            if rec.is_trim() {
                                // A journal entry, not a version: never
                                // enters the IMT or the repair index.
                                match trims.get(&rec.lpa) {
                                    Some((ts, _)) if *ts >= rec.timestamp => {}
                                    _ => {
                                        trims.insert(rec.lpa, (rec.timestamp, rec.back_ptr));
                                    }
                                }
                                continue;
                            }
                            compressed.entry(rec.lpa).or_default().push(rec.timestamp);
                            recovered_deltas
                                .entry(rec.lpa)
                                .or_default()
                                .push((rec.timestamp, ppa));
                            match imt.head(rec.lpa) {
                                Some((_, ts)) if ts >= rec.timestamp => {}
                                _ => imt.set_head(rec.lpa, ppa, rec.timestamp),
                            }
                        }
                    }
                    _ => {
                        if oob.lpa.0 < exported {
                            match newest.get(&oob.lpa) {
                                Some((ts, _)) if *ts >= oob.timestamp => {}
                                _ => {
                                    newest.insert(oob.lpa, (oob.timestamp, ppa));
                                }
                            }
                        }
                    }
                }
            }
            // Classify the block by its first page's content.
            let first = geo.ppa(block, 0);
            if written_per_block[block as usize] > 0
                && matches!(flash.peek(first), Ok((PageData::DeltaPage(_), _)))
            {
                delta_blocks.push((block, written_per_block[block as usize]));
            }
        }

        // Replay journalled trim tombstones (§3.7 crash contract): a trim at
        // least as new as the LPA's newest surviving write means the page
        // was dead at power-off — rebuild it as `Trimmed`, pointing at the
        // chain head the journal recorded. That head may by now be
        // delta-only (its data page compressed and erased); the `Trimmed`
        // cursor then falls through to the IMT with no upper bound, which
        // is what keeps flushed newer-than-head deltas reachable (delta-head
        // promotion) instead of an older surviving data page capping the
        // chain walk. A trim older than a surviving write was superseded by
        // that rewrite and is ignored.
        for (lpa, (trim_ts, head)) in &trims {
            if newest.get(lpa).is_some_and(|(ts, _)| *ts > *trim_ts) {
                continue;
            }
            let ptr = head.or_else(|| newest.get(lpa).map(|&(_, p)| p));
            if let Some(ptr) = ptr {
                amt.set(*lpa, AmtEntry::Trimmed(ptr, *trim_ts));
            }
            // The trimmed head is retained history, not the live page.
            newest.remove(lpa);
        }

        // Delta-head promotion: if the newest surviving version of an LPA
        // lives in a flushed delta page *newer* than its best data page (or
        // it has no data page at all), the head was compressed and its data
        // page erased — legal only for a trimmed page, so the journal
        // record must have expired together with its filter. Rebuild the
        // entry as `Trimmed` pointing straight at the delta page, so the
        // chain walk reaches the flushed versions instead of an older data
        // page capping the walk at `newest > head`. The trim instant is
        // approximated by the newest delta's timestamp (the true trim was
        // at or after it) — a conservative bound for as-of queries.
        for (lpa, (dpage, imt_ts)) in imt.iter() {
            if matches!(amt.get(lpa), AmtEntry::Trimmed(..)) {
                continue; // journalled tombstone already promoted it
            }
            if newest.get(&lpa).is_some_and(|&(ts, _)| ts >= imt_ts) {
                continue; // data-page head is the newest (or the legal
                          // equal-timestamp freeze) — no promotion needed
            }
            amt.set(lpa, AmtEntry::Trimmed(dpage, imt_ts));
            newest.remove(&lpa);
        }

        // Pass 2: head pages become valid; everything else written is invalid
        // (retained). Re-seed the Bloom chain from invalid pages' groups.
        for (lpa, (_, ppa)) in &newest {
            amt.set(*lpa, AmtEntry::Mapped(*ppa));
            pvt.set(*ppa, true);
        }
        let group_size = config.group_size as u64;
        // One synthetic segment per rebuild keeps ordering sane; groups are
        // inserted oldest-write first so future drops expire oldest data.
        let mut invalid_pages: Vec<(Nanos, u64)> = Vec::new();
        for block in 0..geo.total_blocks() {
            let written = written_per_block[block as usize];
            if written == 0 {
                continue;
            }
            let first = geo.ppa(block, 0);
            let is_delta = matches!(flash.peek(first), Ok((PageData::DeltaPage(_), _)));
            let mut info = BlockInfo {
                // Rebuilt delta blocks are assigned to filter id 0 (the
                // rebuild segment created below).
                kind: if is_delta {
                    BlockKind::Delta(0)
                } else {
                    BlockKind::Data
                },
                written,
                ..BlockInfo::default()
            };
            for off in 0..written {
                let ppa = geo.ppa(block, off);
                if pvt.get(ppa) {
                    info.valid += 1;
                } else if !is_delta {
                    if let Ok((_, oob)) = flash.peek(ppa) {
                        // Compressed already? Then it is reclaimable.
                        let done = compressed
                            .get(&oob.lpa)
                            .map(|v| v.contains(&oob.timestamp))
                            .unwrap_or(false);
                        if done {
                            prt.set(ppa, true);
                            info.reclaimable += 1;
                        } else {
                            invalid_pages.push((oob.timestamp, ppa.0 / group_size));
                        }
                    }
                }
            }
            // Filing the finished entry is what rebuilds the victim indices.
            bst.update(almanac_flash::BlockId(block), |slot| *slot = info);
        }
        invalid_pages.sort_unstable();
        for (ts, group) in invalid_pages {
            chain.insert(group, ts);
        }
        // Delta pages always belong to a live segment after rebuild: their
        // versions were unexpired at power-off. Re-register their groups so
        // the segment stays live.
        if chain.is_empty() && !delta_blocks.is_empty() {
            chain.insert(0, last_ts);
        }

        // Newest first, so torn-chain repair during traversal can scan for
        // the next record strictly older than the break point.
        for list in recovered_deltas.values_mut() {
            list.sort_unstable_by_key(|&(ts, _)| std::cmp::Reverse(ts));
            list.dedup_by_key(|(ts, _)| *ts);
        }

        let mut deltas = DeltaManager::new(geo, config.trim_journal_watermark);
        // Re-associate surviving delta blocks with the rebuild segment so
        // dropping it later erases them.
        for (block, _) in &delta_blocks {
            deltas.adopt_block(0, almanac_flash::BlockId(*block));
        }

        let mut policy = TimeTravel::with_index(&config, prt, imt, chain, deltas);
        policy.last_ts = last_ts;
        policy.recovered_deltas = recovered_deltas;
        TimeSsd {
            flash,
            amt,
            pvt,
            // The allocator pools the blocks the scan found empty.
            alloc: Allocator::new(geo, &bst),
            bst,
            stats: DeviceStats::default(),
            busy_until: 0,
            last_io_end: 0,
            wl_mark: 0,
            policy,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{SsdDevice, SsdReadOps};
    use almanac_flash::{Geometry, SEC_NS};

    fn populated() -> TimeSsd {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut now = SEC_NS;
        for i in 0..300u64 {
            let lpa = Lpa(i % 23);
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
        // Persist any buffered deltas (a clean shutdown; power-cut loss of
        // buffers is tested separately).
        ssd.flush_buffers(now).unwrap();
        ssd
    }

    fn clone_flash(ssd: &TimeSsd) -> FlashArray {
        ssd.flash().clone()
    }

    #[test]
    fn rebuild_preserves_current_state() {
        let ssd = populated();
        let flash = clone_flash(&ssd);
        let rebuilt = TimeSsd::recover_from_flash(flash, ssd.config().clone());
        for lpa in 0..23u64 {
            let orig = ssd.version_chain(Lpa(lpa));
            let new = rebuilt.version_chain(Lpa(lpa));
            assert_eq!(
                orig.first().map(|v| v.timestamp),
                new.first().map(|v| v.timestamp),
                "L{lpa} head diverged after rebuild"
            );
        }
    }

    #[test]
    fn rebuild_preserves_version_history() {
        let ssd = populated();
        let rebuilt = TimeSsd::recover_from_flash(clone_flash(&ssd), ssd.config().clone());
        for lpa in 0..23u64 {
            let orig: Vec<_> = ssd
                .version_chain(Lpa(lpa))
                .iter()
                .map(|v| v.timestamp)
                .collect();
            let new: Vec<_> = rebuilt
                .version_chain(Lpa(lpa))
                .iter()
                .map(|v| v.timestamp)
                .collect();
            assert_eq!(orig, new, "L{lpa} chain diverged");
            for ts in new {
                assert_eq!(
                    ssd.version_content(Lpa(lpa), ts).unwrap(),
                    rebuilt.version_content(Lpa(lpa), ts).unwrap()
                );
            }
        }
    }

    #[test]
    fn rebuilt_device_is_consistent_and_writable() {
        let ssd = populated();
        let mut rebuilt = TimeSsd::recover_from_flash(clone_flash(&ssd), ssd.config().clone());
        let audit = rebuilt.check_consistency();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        // And it keeps working.
        let t = rebuilt
            .write(
                Lpa(1),
                PageData::bytes(b"post-reboot".to_vec()),
                u64::MAX / 4,
            )
            .unwrap();
        let (data, _) = rebuilt.read(Lpa(1), t.finish + SEC_NS).unwrap();
        assert_eq!(data, PageData::bytes(b"post-reboot".to_vec()));
        // The pre-reboot history is still under the new head.
        assert!(rebuilt.version_chain(Lpa(1)).len() >= 2);
    }

    #[test]
    fn rebuild_after_gc_keeps_compressed_versions() {
        let mut cfg = SsdConfig::new(Geometry::medium_test());
        cfg.bloom.capacity = 512;
        let mut ssd = TimeSsd::new(cfg);
        let set = ssd.exported_pages() / 3;
        let mut now = SEC_NS;
        for i in 0..(set * 6) {
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
        ssd.flush_buffers(now).unwrap();
        assert!(ssd.stats().gc_erases > 0);
        let rebuilt = TimeSsd::recover_from_flash(clone_flash(&ssd), ssd.config().clone());
        // A page with compressed history must still reach its old versions.
        let mut checked = 0;
        for lpa in 0..set {
            let orig = ssd.version_chain(Lpa(lpa));
            if orig.len() < 2 {
                continue;
            }
            let new = rebuilt.version_chain(Lpa(lpa));
            assert!(
                new.len() >= orig.len(),
                "L{lpa}: rebuild lost history ({} -> {})",
                orig.len(),
                new.len()
            );
            checked += 1;
            if checked > 20 {
                break;
            }
        }
        assert!(checked > 0, "no page had history to check");
    }
}
