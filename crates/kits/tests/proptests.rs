//! Property tests of the TimeKits query semantics against a reference
//! history.

use almanac_core::{SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, Lpa, PageData, SEC_NS};
use almanac_kits::{AddrQuery, TimeKits};
use proptest::prelude::*;

/// Per-LPA reference log: `(lpa, [(timestamp, version tag)])`.
type HistoryLog = Vec<(u64, Vec<(u64, u64)>)>;

/// Builds a device with a known, seeded history and returns it together
/// with the reference log.
fn build_history(writes: &[(u8, u8)]) -> (TimeSsd, HistoryLog) {
    build_history_sharded(writes, SsdConfig::new(Geometry::medium_test()).amt_shards)
}

/// Same history, explicit AMT shard count.
fn build_history_sharded(writes: &[(u8, u8)], shards: u32) -> (TimeSsd, HistoryLog) {
    let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()).with_amt_shards(shards));
    let mut log: Vec<(u64, Vec<(u64, u64)>)> = (0..8).map(|l| (l, Vec::new())).collect();
    let mut t = SEC_NS;
    for (i, (lpa8, tag8)) in writes.iter().enumerate() {
        let lpa = (*lpa8 % 8) as u64;
        let tag = *tag8 as u64 + (i as u64) * 256;
        let c = ssd
            .write(
                Lpa(lpa),
                PageData::Synthetic {
                    seed: lpa,
                    version: tag,
                },
                t,
            )
            .unwrap();
        log[lpa as usize].1.push((c.start, tag));
        t = c.finish + SEC_NS;
    }
    (ssd, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn addr_query_matches_reference(writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..64)) {
        let (mut ssd, log) = build_history(&writes);
        let kits = TimeKits::new(&mut ssd);
        for (lpa, history) in &log {
            if history.is_empty() {
                continue;
            }
            // Query "as of" halfway through this page's history.
            let (mid_ts, mid_tag) = history[history.len() / 2];
            let out = kits.query(Lpa(*lpa), 1).as_of(mid_ts).run().unwrap();
            prop_assert_eq!(out.hits.len(), 1);
            prop_assert_eq!(&out.hits[0].data, &PageData::Synthetic { seed: *lpa, version: mid_tag });
            // Range query returns exactly the versions inside the range.
            let from = history.first().unwrap().0;
            let to = history.last().unwrap().0;
            let range = kits.query(Lpa(*lpa), 1).range(from, to).run().unwrap();
            prop_assert_eq!(range.hits.len(), history.len());
        }
    }

    #[test]
    fn time_query_counts_every_update(writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..64)) {
        let (mut ssd, log) = build_history(&writes);
        let kits = TimeKits::new(&mut ssd).with_threads(3);
        let (hits, _) = kits.time_query_all();
        let expected_updates: usize = log.iter().map(|(_, h)| h.len()).sum();
        let reported: usize = hits.iter().map(|h| h.timestamps.len()).sum();
        prop_assert_eq!(reported, expected_updates);
        // Per-LPA timestamps strictly decreasing (newest first).
        for h in &hits {
            prop_assert!(h.timestamps.windows(2).all(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn time_scan_is_invariant_across_thread_counts(writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..64)) {
        // The parallel shard scan must report exactly the same hits and —
        // after merging — exactly the same QueryCost at every AMT shard and
        // host thread count: the work is partitioned, never changed. Shard
        // counts include ones that do not divide the exported span (2, 8)
        // and an odd one; thread counts include more workers than shards.
        let baseline = {
            let (mut ssd, _) = build_history_sharded(&writes, 1);
            TimeKits::new(&mut ssd).time_query_all()
        };
        for shards in [1u32, 2, 3, 8] {
            let (mut ssd, _) = build_history_sharded(&writes, shards);
            for threads in [1u32, 2, 4, 8] {
                let kits = TimeKits::new(&mut ssd).with_threads(threads);
                let (hits, cost) = kits.time_query_all();
                prop_assert_eq!(&hits, &baseline.0, "hits diverged: {} shards, {} threads", shards, threads);
                prop_assert_eq!(&cost, &baseline.1, "merged cost diverged: {} shards, {} threads", shards, threads);
                // And the merged cost yields the same single-thread makespan.
                prop_assert_eq!(cost.makespan(1), baseline.1.makespan(1));
            }
        }
    }

    #[test]
    fn addr_span_never_panics_at_boundaries(
        addr in any::<u64>(),
        cnt in any::<u64>(),
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
    ) {
        // Arbitrary (addr, cnt) pairs — including u64::MAX neighbourhoods —
        // must neither overflow nor scan outside the exported space.
        let (mut ssd, _) = build_history(&writes);
        let exported = ssd.exported_pages();
        let kits = TimeKits::new(&mut ssd);
        let out = kits.query(Lpa(addr % (2 * exported)), cnt).all_versions().run().unwrap();
        for h in &out.hits {
            prop_assert!(h.lpa.0 < exported);
        }
        let out = kits.query(Lpa(addr), cnt).as_of(u64::MAX).run().unwrap();
        for h in &out.hits {
            prop_assert!(h.lpa.0 < exported);
        }
    }

    #[test]
    fn addr_queries_are_invariant_across_shard_and_thread_counts(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..64),
        addr in 0u64..16,
        cnt in 0u64..16,
        t1 in any::<u64>(),
        t2 in any::<u64>(),
    ) {
        // Sharding the AMT is pure partitioning: the same history must
        // answer every query mode byte-identically — hits AND merged cost —
        // for any shard count and any worker count.
        let baseline = build_history_sharded(&writes, 1).0;
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        let reference: Vec<_> = [
            AddrQuery::new(baseline.read_view(), Lpa(addr), cnt).as_of(lo).run().unwrap(),
            AddrQuery::new(baseline.read_view(), Lpa(addr), cnt).range(lo, hi).run().unwrap(),
            AddrQuery::new(baseline.read_view(), Lpa(addr), cnt).all_versions().run().unwrap(),
        ].into_iter().collect();
        for shards in [2u32, 4, 8] {
            let ssd = build_history_sharded(&writes, shards).0;
            for threads in [1u32, 3, 8] {
                let view = ssd.read_view();
                let outs = [
                    AddrQuery::new(view, Lpa(addr), cnt).threads(threads).as_of(lo).run().unwrap(),
                    AddrQuery::new(view, Lpa(addr), cnt).threads(threads).range(lo, hi).run().unwrap(),
                    AddrQuery::new(view, Lpa(addr), cnt).threads(threads).all_versions().run().unwrap(),
                ];
                for (r, o) in reference.iter().zip(outs.iter()) {
                    prop_assert_eq!(&r.hits, &o.hits, "hits diverged: {} shards, {} threads", shards, threads);
                    prop_assert_eq!(&r.cost, &o.cost, "cost diverged: {} shards, {} threads", shards, threads);
                }
            }
        }
    }

    #[test]
    fn rollback_is_exact_and_undoable(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 2..48),
        pick in any::<prop::sample::Index>(),
    ) {
        let (mut ssd, log) = build_history(&writes);
        // Choose an LPA with at least 2 versions.
        let candidates: Vec<&(u64, Vec<(u64, u64)>)> =
            log.iter().filter(|(_, h)| h.len() >= 2).collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let (lpa, history) = candidates[pick.index(candidates.len())];
        let (target_ts, target_tag) = history[0]; // the oldest version
        let pre_rollback_len = ssd.version_chain(Lpa(*lpa)).len();

        let mut kits = TimeKits::new(&mut ssd);
        let now = history.last().unwrap().0 + SEC_NS;
        let out = kits.roll_back(Lpa(*lpa), 1, target_ts, now).unwrap();
        prop_assert_eq!(out.restored.len(), 1);
        let (data, _) = ssd.read(Lpa(*lpa), now + SEC_NS).unwrap();
        prop_assert_eq!(data, PageData::Synthetic { seed: *lpa, version: target_tag });
        // The rollback added a version instead of destroying any.
        prop_assert_eq!(ssd.version_chain(Lpa(*lpa)).len(), pre_rollback_len + 1);
    }
}
