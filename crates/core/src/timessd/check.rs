//! TimeTravel's own consistency rules: the state a TimeSSD keeps beyond
//! the FTL skeleton, audited after the skeleton's rules through
//! [`Retention::audit`](crate::Retention::audit).
//!
//! The PRT holds only invalid pages, delta blocks hold only delta pages,
//! version chains run strictly back in time and reach the IMT's newest
//! flushed delta, every in-window tombstone is journalled, no buffer holds
//! records older than the last barrier, no tombstone outstays its flush
//! deadline, the expired-delta queue lists exactly the delta blocks of
//! dropped filters, and the per-filter delta table agrees with the BST.

use std::collections::HashSet;

use almanac_flash::{DeltaRecord, Lpa, PageData};

use crate::check::{ConsistencyReport, Violation};
use crate::tables::{AmtEntry, BlockKind};

use super::TimeSsd;

impl TimeSsd {
    /// Runs TimeTravel's rules into `report`; read-only.
    pub(crate) fn audit_history(&self, report: &mut ConsistencyReport) {
        let geo = self.config.geometry;

        // 1. Per block: reclaimable pages are never valid; delta blocks hold
        //    delta pages; the expired-delta queue lists a block iff it is a
        //    delta block of a dropped filter. The walk over the delta pages
        //    also collects the journalled TRIM records step 3 audits.
        let live: HashSet<_> = self.policy.chain.infos().iter().map(|i| i.id).collect();
        let queued: HashSet<_> = self.policy.deltas.expired_blocks().collect();
        let mut journalled: HashSet<(Lpa, u64)> = HashSet::new();
        for (block, info) in self.bst.iter() {
            for off in 0..geo.pages_per_block {
                let ppa = geo.ppa(block.0, off);
                if self.pvt.get(ppa) && self.policy.prt.get(ppa) {
                    report.violations.push(Violation::ReclaimableValidPage(ppa));
                }
            }
            let expired = matches!(info.kind, BlockKind::Delta(fid) if !live.contains(&fid));
            report.drift("expired", block.0, queued.contains(&block), expired);
            if let BlockKind::Delta(_) = info.kind {
                // Whether or not its filter is still live (an expired
                // filter's blocks wait for GC to erase them lazily), a delta
                // block must hold delta pages, not data.
                let mut orphan = false;
                for off in 0..info.written.min(geo.pages_per_block) {
                    match self.flash.peek(geo.ppa(block.0, off)) {
                        Ok((PageData::DeltaPage(dp), _)) => note_trims(&mut journalled, &dp.deltas),
                        Ok(_) => orphan = true,
                        Err(_) => {}
                    }
                }
                if orphan {
                    report.violations.push(Violation::OrphanDeltaBlock(block.0));
                }
            }
        }

        // 2. Version chains strictly decrease in time, and the IMT never
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
                let present = self.live_delta_page(dpage).is_some_and(|records| {
                    records
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

        // 3. Durable-trim audit: every tombstone whose trim instant is still
        //    inside the retention window must have a matching TRIM record in
        //    the delta stream (the flushed pages step 1 walked, or the
        //    unflushed buffers). Records expire with their filter, but a
        //    record's filter is always dropped only once the window start
        //    has moved past the trim instant, so an in-window tombstone
        //    without a record means the journal write was skipped — the trim
        //    would not survive a power cut, violating the crash contract.
        for records in self.policy.deltas.buffered_pages() {
            note_trims(&mut journalled, records);
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

        // 4. Barrier audit: a host flush acks that everything appended
        //    before it is on flash, so no live buffer may hold a record
        //    sequenced at or before the last completed barrier. (Sequence
        //    numbers, not timestamps — equal-ts bursts make wall-clock
        //    comparison ambiguous.)
        for ppa in self.policy.deltas.pre_barrier_buffers() {
            report.violations.push(Violation::PreBarrierVolatile(ppa));
        }

        // 5. Aging audit: the group-flush scheduler bounds how long an
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

        // 6. The per-filter delta table: an open buffer's reserved page is
        //    the `written` page of its filter's active block (the page its
        //    flush programs and a hop reads it back from), and the count of
        //    buffers holding a tombstone, which gates the aging scan, is a
        //    recount's.
        for (filter, reserved, next) in self.policy.deltas.reservations(&self.bst) {
            report.drift(
                "reserved",
                filter,
                reserved.0,
                next.map_or(u64::MAX, |p| p.0),
            );
        }
        let (kept, recount) = self.policy.deltas.trim_buffer_count();
        report.drift("trim_buffers", 0, kept as u64, recount as u64);
    }
}

/// Files the TRIM records of a delta page under `(lpa, trim instant)`.
fn note_trims(journalled: &mut HashSet<(Lpa, u64)>, records: &[DeltaRecord]) {
    for d in records.iter().filter(|d| d.is_trim()) {
        journalled.insert((d.lpa, d.timestamp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::device::{SsdDevice, SsdReadOps};
    use almanac_flash::{Geometry, Ppa, SEC_NS};

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

    #[test]
    fn detects_reclaimable_valid_page() {
        let mut ssd = TimeSsd::built();
        let head = ssd.head_of(Lpa(5));
        ssd.policy.prt.set(head, true);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::ReclaimableValidPage(head)));
    }

    #[test]
    fn detects_imt_newer_than_head() {
        let mut ssd = TimeSsd::built();
        // Claim the delta chain holds a version from the future: the chain
        // walk would silently refuse the IMT jump, so only the explicit
        // cross-check can surface the disordered index.
        let head = ssd.head_of(Lpa(1));
        let (_, oob) = ssd.flash.peek(head).unwrap();
        ssd.policy.imt.set_head(Lpa(1), head, oob.timestamp + 1);
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::ChainOrderViolation(Lpa(1))));
    }

    #[test]
    fn imt_equal_to_head_is_legal() {
        let mut ssd = TimeSsd::built();
        // Equality is the documented head-also-compressed freeze state and
        // must NOT fire (see the `<=` IMT jump in `version_chain`).
        let head = ssd.head_of(Lpa(1));
        let (_, oob) = ssd.flash.peek(head).unwrap();
        ssd.policy.imt.set_head(Lpa(1), head, oob.timestamp);
        let report = ssd.check_consistency();
        assert!(!report
            .violations
            .contains(&Violation::ChainOrderViolation(Lpa(1))));
    }

    #[test]
    fn detects_orphan_delta_block() {
        let mut ssd = TimeSsd::built();
        // Relabel a populated data block as a delta block: its pages do not
        // hold delta records, so the block is an orphan.
        let block = ssd.config.geometry.block_of(ssd.head_of(Lpa(0)));
        ssd.bst
            .update(block, |info| info.kind = BlockKind::Delta(0));
        let report = ssd.check_consistency();
        assert!(report
            .violations
            .contains(&Violation::OrphanDeltaBlock(block.0)));
    }

    #[test]
    fn detects_unjournaled_tombstone() {
        let mut ssd = TimeSsd::built();
        let head = ssd.head_of(Lpa(4));
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

    #[test]
    fn detects_stale_expired_delta_queue() {
        let mut ssd = TimeSsd::built();
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
        let listed = |queued: bool| Violation::Drift {
            index: "expired",
            key: delta_block.0,
            kept: u64::from(queued),
            recount: u64::from(!queued),
        };
        assert!(early.check_consistency().violations.contains(&listed(true)));
        // The filter dropped without its blocks being queued (what
        // `force_shrink` did with `drop_filter`'s return value before the
        // queue existed): the space would never come back.
        while ssd.policy.chain.drop_oldest().is_some() {}
        assert!(ssd.check_consistency().violations.contains(&listed(false)));
        // Queued as `force_shrink` does it, the audit is clean again.
        ssd.policy.deltas.drop_filter(fid);
        let report = ssd.check_consistency();
        assert!(
            !report.violations.iter().any(|v| matches!(
                v,
                Violation::Drift {
                    index: "expired",
                    ..
                }
            )),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn journalled_trim_passes_the_audit() {
        let mut ssd = TimeSsd::built();
        ssd.trim(Lpa(4), 10_000 * SEC_NS).unwrap();
        assert!(matches!(ssd.amt.get(Lpa(4)), AmtEntry::Trimmed(..)));
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn detects_unreachable_flushed_delta() {
        use almanac_flash::{DeltaBody, DeltaRecord};
        let mut ssd = TimeSsd::built();
        let lpa = Lpa(6);
        let head = ssd.head_of(lpa);
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
    fn a_data_link_into_a_dropped_filters_reused_block_reaches_the_delta_chain() {
        use crate::ftl::Dest;
        use crate::VersionLocation;
        fn write(ssd: &mut TimeSsd, lpa: Lpa, now: &mut almanac_flash::Nanos) {
            let data = PageData::Synthetic {
                seed: lpa.0,
                version: *now,
            };
            *now = ssd.write(lpa, data, *now).unwrap().finish + 1;
        }
        // One filter per invalidation, so each rewrite below opens its own
        // time segment.
        let bloom = almanac_bloom::ChainConfig {
            capacity: 1,
            ..Default::default()
        };
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()).with_bloom(bloom));
        let geo = ssd.config.geometry;
        let (lpa, other) = (Lpa(6), Lpa(100));
        let mut now = SEC_NS;
        // The version to be superseded, in a block that a block's worth of
        // writes on every channel then closes.
        write(&mut ssd, lpa, &mut now);
        let old = ssd.head_of(lpa);
        for i in 0..u64::from(geo.pages_per_block * geo.channels) {
            write(&mut ssd, Lpa(other.0 + i), &mut now);
        }
        let reused = geo.block_of(old);
        assert!(!ssd.alloc.is_active(reused));
        // An older filter records `other`'s invalidation, a newer one
        // `old`'s; GC compresses `old` into the newer filter's delta block.
        let other_old = ssd.head_of(other);
        write(&mut ssd, other, &mut now);
        write(&mut ssd, lpa, &mut now);
        let head = ssd.head_of(lpa);
        now = ssd.compress_retained(old, now).unwrap();
        let (delta, ts) = ssd.policy.imt.head(lpa).unwrap();
        // GC cleans and erases `old`'s block. With only that block in the
        // pool, it becomes the older filter's next delta block, and `old`'s
        // address that filter's delta page.
        for off in 0..ssd.bst.get(reused).written {
            let ppa = geo.ppa(reused.0, off);
            now = if ssd.pvt.get(ppa) {
                ssd.migrate_valid(ppa, Dest::Cold, now).unwrap()
            } else {
                ssd.compress_retained(ppa, now).unwrap()
            };
        }
        now = ssd.erase_block(reused, now).unwrap();
        let mut pool = Vec::new();
        while let Some(block) = ssd.alloc.alloc_block(None) {
            pool.push(block);
        }
        pool.retain(|&b| b != reused);
        ssd.alloc.release(reused);
        now = ssd.compress_retained(other_old, now).unwrap();
        pool.into_iter().for_each(|b| ssd.alloc.release(b));
        ssd.flush(now).unwrap();
        let older = ssd.policy.chain.infos()[0].id;
        assert_eq!(ssd.bst.get(reused).kind, BlockKind::Delta(older));
        assert!(matches!(
            ssd.flash.peek(old),
            Ok((PageData::DeltaPage(_), _))
        ));

        // The head's back-pointer names that page; the delta filed under the
        // newer filter stays reachable after the older filter drops.
        assert_eq!(ssd.flash.peek(head).unwrap().1.back_ptr, Some(old));
        let chain = |ssd: &TimeSsd| -> Vec<_> { ssd.versions(lpa).map(|v| v.location).collect() };
        let expected = [
            VersionLocation::DataPage(head),
            VersionLocation::DeltaPage(delta),
        ];
        assert_eq!(chain(&ssd), expected);
        assert_eq!(ssd.policy.chain.drop_oldest().map(|f| f.id), Some(older));
        ssd.policy.deltas.drop_filter(older);
        assert_eq!(chain(&ssd), expected);
        assert_eq!(ssd.version_as_of(lpa, ts).map(|v| v.timestamp), Some(ts));
        let report = ssd.check_consistency();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn detects_pre_barrier_volatile_buffer() {
        use almanac_flash::{DeltaBody, DeltaRecord};
        let mut ssd = TimeSsd::built();
        // Buffer a genuine delta record, then forge a barrier ack without
        // flushing — the exact corruption a broken flush path would leave.
        let lpa = Lpa(2);
        let head = ssd.head_of(lpa);
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

    /// `ssd` after a trim that leaves its tombstone buffered, and the
    /// filter holding it.
    fn with_open_buffer(mut ssd: TimeSsd) -> (TimeSsd, almanac_bloom::FilterId) {
        ssd.trim(Lpa(4), 10_000 * SEC_NS).unwrap();
        assert_eq!(ssd.buffered_delta_pages(), 1);
        assert!(ssd.check_consistency().is_clean());
        let fid = ssd.policy.chain.active_id().unwrap();
        (ssd, fid)
    }

    #[test]
    fn detects_a_reservation_off_its_blocks_write_pointer() {
        let (mut ssd, fid) = with_open_buffer(TimeSsd::built());
        let (_, reserved, next) = ssd.policy.deltas.reservations(&ssd.bst).next().unwrap();
        assert_eq!(Some(reserved), next);
        // A buffer aimed past its block's `written`: its flush would program
        // out of order, and a hop would look for it on the wrong page.
        let ahead = Ppa(reserved.0 + 1);
        ssd.policy.deltas.forge_reservation(fid, ahead);
        let report = ssd.check_consistency();
        let stale = Violation::Drift {
            index: "reserved",
            key: fid,
            kept: ahead.0,
            recount: reserved.0,
        };
        assert!(
            report.violations.contains(&stale),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn detects_a_miscounted_tombstone_buffer_set() {
        let (mut ssd, _) = with_open_buffer(TimeSsd::built());
        ssd.policy.deltas.skew_trim_buffers();
        let report = ssd.check_consistency();
        let stale = Violation::Drift {
            index: "trim_buffers",
            key: 0,
            kept: 2,
            recount: 1,
        };
        assert_eq!(report.violations, [stale]);
    }

    #[test]
    fn real_flush_barrier_passes_the_audit() {
        let mut ssd = TimeSsd::built();
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
        let mut ssd = TimeSsd::built();
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
        let mut ssd = TimeSsd::built();
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
