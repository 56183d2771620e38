//! Behavioural tests of the TimeSSD FTL: retention, compression, GC,
//! expiry, rollback, and the time-travel index.

use almanac_bloom::ChainConfig;
use almanac_flash::{Geometry, Lpa, PageData, DAY_NS, MS_NS, SEC_NS};

use crate::config::SsdConfig;
use crate::device::{SsdDevice, SsdReadOps};
use crate::error::AlmanacError;
use crate::ftl::Dest;
use crate::timessd::query::VersionLocation;
use crate::timessd::TimeSsd;

fn small_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
}

fn medium_cfg() -> SsdConfig {
    // Small bloom segments so retention machinery is exercised quickly.
    SsdConfig::new(Geometry::medium_test()).with_bloom(ChainConfig {
        bits_per_filter: 1 << 13,
        hashes: 4,
        capacity: 512,
    })
}

fn synthetic(lpa: u64, version: u64) -> PageData {
    PageData::Synthetic { seed: lpa, version }
}

#[test]
fn write_read_roundtrip() {
    let mut ssd = TimeSsd::new(small_cfg());
    let data = PageData::bytes(vec![0xAB; 16]);
    ssd.write(Lpa(4), data.clone(), 0).unwrap();
    let (read, _) = ssd.read(Lpa(4), 1_000).unwrap();
    assert_eq!(read, data);
}

#[test]
fn version_chain_newest_first_with_head() {
    let mut ssd = TimeSsd::new(small_cfg());
    for v in 1..=4u64 {
        ssd.write(Lpa(2), synthetic(2, v), v * SEC_NS).unwrap();
    }
    let chain = ssd.version_chain(Lpa(2));
    assert_eq!(chain.len(), 4);
    assert!(chain[0].is_head);
    assert!(chain.windows(2).all(|w| w[0].timestamp > w[1].timestamp));
}

#[test]
fn version_content_reconstructs_every_byte_version() {
    let mut ssd = TimeSsd::new(small_cfg());
    let contents: Vec<PageData> = (0..5u8).map(|i| PageData::bytes(vec![i; 64])).collect();
    for (i, c) in contents.iter().enumerate() {
        ssd.write(Lpa(1), c.clone(), (i as u64 + 1) * SEC_NS)
            .unwrap();
    }
    let chain = ssd.version_chain(Lpa(1));
    assert_eq!(chain.len(), 5);
    // Chain is newest first; contents[4] is the newest.
    for (idx, v) in chain.iter().enumerate() {
        let expect = &contents[4 - idx];
        assert_eq!(&ssd.version_content(Lpa(1), v.timestamp).unwrap(), expect);
    }
}

#[test]
fn version_as_of_picks_state_at_time() {
    let mut ssd = TimeSsd::new(small_cfg());
    let t1 = ssd.write(Lpa(0), synthetic(0, 1), 10 * SEC_NS).unwrap();
    let _t2 = ssd.write(Lpa(0), synthetic(0, 2), 20 * SEC_NS).unwrap();
    let v = ssd.version_as_of(Lpa(0), 15 * SEC_NS).unwrap();
    assert_eq!(v.timestamp, t1.start);
    assert_eq!(
        ssd.version_content(Lpa(0), v.timestamp).unwrap(),
        synthetic(0, 1)
    );
    assert!(ssd.version_as_of(Lpa(0), SEC_NS).is_none());
}

#[test]
fn version_as_of_respects_trim_tombstone() {
    let mut ssd = TimeSsd::new(small_cfg());
    let c1 = ssd.write(Lpa(6), synthetic(6, 1), 10 * SEC_NS).unwrap();
    let trim = ssd.trim(Lpa(6), 20 * SEC_NS).unwrap();
    // Before the trim the version existed...
    assert_eq!(
        ssd.version_as_of(Lpa(6), trim.start - 1)
            .map(|v| v.timestamp),
        Some(c1.start)
    );
    // ...at and after the trim the page reads as zeros: no state to return.
    // (Previously this resurrected the pre-trim version, so a rollback to a
    // post-trim instant would restore deleted data.)
    assert!(ssd.version_as_of(Lpa(6), trim.start).is_none());
    assert!(ssd.version_as_of(Lpa(6), 30 * SEC_NS).is_none());
    // The explicitly-historical query still surfaces the write event.
    assert_eq!(ssd.versions_in(Lpa(6), 0, u64::MAX).count(), 1);
    // A rewrite supersedes the tombstone: the trim becomes an interior gap
    // the chain does not record (only the newest surviving trim per LPA is
    // replayed at rebuild, and a strictly newer write wins).
    ssd.write(Lpa(6), synthetic(6, 2), 40 * SEC_NS).unwrap();
    assert_eq!(
        ssd.version_as_of(Lpa(6), 25 * SEC_NS).map(|v| v.timestamp),
        Some(c1.start)
    );
}

/// `decode` re-checks the hop it is handed: once the filter that retained an
/// old data page drops, a `VersionInfo` kept from before refuses to decode,
/// although the page itself is still on flash.
#[test]
fn decode_refuses_a_kept_version_once_its_filter_drops() {
    let cfg = medium_cfg().with_min_retention(0).with_bloom(ChainConfig {
        bits_per_filter: 1 << 13,
        hashes: 4,
        capacity: 2,
    });
    let mut ssd = TimeSsd::new(cfg);
    let mut now = SEC_NS;
    for v in 1..=3u64 {
        now = ssd.write(Lpa(5), synthetic(5, v), now).unwrap().finish + SEC_NS;
    }
    // The two invalidations above fill the first filter.
    let oldest = *ssd.version_chain(Lpa(5)).last().unwrap();
    assert_eq!(ssd.decode(&oldest).unwrap(), synthetic(5, 1));
    // Open newer filters with invalidations outside the oldest page's group.
    let group = ssd.group_of(oldest.location.ppa());
    let mut lpa = 100;
    while ssd.live_filters() < 3 {
        now = ssd.write(Lpa(lpa), synthetic(lpa, 1), now).unwrap().finish;
        let head = ssd.amt.get(Lpa(lpa)).mapped().unwrap();
        if ssd.group_of(head) != group {
            now = ssd.write(Lpa(lpa), synthetic(lpa, 2), now).unwrap().finish;
        }
        lpa += 1;
    }
    assert!(ssd.force_shrink(now));
    assert!(ssd.flash.peek(oldest.location.ppa()).is_ok());
    let gone = Err(AlmanacError::NoSuchVersion {
        lpa: Lpa(5),
        at: oldest.timestamp,
    });
    assert_eq!(ssd.decode(&oldest), gone);
    assert_eq!(ssd.version_content(Lpa(5), oldest.timestamp), gone);
}

/// Regression for the §3.7 equal-timestamp boundary between the data-page
/// and delta-page chains: GC compresses a trimmed LPA's head before its
/// data page is erased, so the same write timestamp legitimately exists in
/// both chains; a power cut freezes that state. The rebuild replays the
/// journalled tombstone — the page stays trimmed — and the chain walk from
/// the `Trimmed` cursor must surface each version exactly once: neither
/// losing the shared-timestamp head nor duplicating it.
#[test]
fn rebuilt_trimmed_compressed_chain_keeps_equal_ts_boundary() {
    use crate::timessd::gc::{Budget, Cause};
    let mut ssd = TimeSsd::new(medium_cfg());
    let lpa = Lpa(11);
    let mut stamps = Vec::new();
    let mut now = SEC_NS;
    for v in 1..=4u64 {
        let c = ssd.write(lpa, synthetic(lpa.0, v), now).unwrap();
        stamps.push(c.start);
        now = c.finish + SEC_NS;
    }
    let head_ts = *stamps.last().unwrap();
    let trim = ssd.trim(lpa, now).unwrap();
    // Compress the whole trimmed chain (the §3.7 GC path) and flush.
    let mut budget = Budget::unbounded();
    ssd.compress_versions_of(lpa, trim.finish, &mut budget, Cause::Gc)
        .unwrap();
    ssd.flush_buffers(trim.finish).unwrap();
    // The newest compressed version IS the former head: its timestamp now
    // exists both as an on-flash data page and as a delta record.
    assert_eq!(ssd.policy.imt.head(lpa).map(|(_, ts)| ts), Some(head_ts));
    assert_eq!(ssd.version_chain(lpa).len(), 4);
    // Power-cycle. The journalled tombstone survives: the page stays
    // trimmed (no resurrection of deleted data), and the walk from the
    // Trimmed cursor still sees every retained version exactly once.
    let rebuilt = TimeSsd::recover_from_flash(ssd.flash().clone(), ssd.config().clone());
    assert!(!rebuilt.is_mapped(lpa), "trim must survive the power cut");
    assert!(rebuilt.trimmed_at(lpa).is_some());
    let chain = rebuilt.version_chain(lpa);
    let got: Vec<_> = chain.iter().map(|v| v.timestamp).collect();
    let mut expect = stamps.clone();
    expect.reverse();
    assert_eq!(got, expect, "equal-ts boundary lost or duplicated versions");
    assert!(!chain[0].is_head, "trimmed pages have no live head");
    assert!(chain.windows(2).all(|w| w[0].timestamp > w[1].timestamp));
    for (i, ts) in got.iter().enumerate() {
        assert_eq!(
            rebuilt.version_content(lpa, *ts).unwrap(),
            synthetic(lpa.0, (4 - i) as u64)
        );
    }
}

/// The strict-mode crash guarantee of the trim journal: with a watermark
/// of 1, a bare trim (no flush, no GC, nothing else) followed immediately
/// by a power cut stays trimmed, because `trim` programs its TRIM record
/// synchronously before acknowledging.
#[test]
fn trim_survives_immediate_power_cut() {
    let mut ssd = TimeSsd::new(medium_cfg().with_trim_journal_watermark(1));
    let lpa = Lpa(3);
    let mut now = SEC_NS;
    for v in 1..=3u64 {
        let c = ssd.write(lpa, synthetic(lpa.0, v), now).unwrap();
        now = c.finish + SEC_NS;
    }
    let trim = ssd.trim(lpa, now).unwrap();
    let rebuilt = TimeSsd::recover_from_flash(ssd.flash().clone(), ssd.config().clone());
    assert!(!rebuilt.is_mapped(lpa), "acknowledged trim must be durable");
    // Rebuilt tombstone carries the original trim instant.
    assert!(rebuilt.trimmed_at(lpa).is_some());
    assert_eq!(rebuilt.trimmed_at(lpa), ssd.trimmed_at(lpa));
    // Pre-trim history remains reachable through the tombstone's cursor.
    assert_eq!(rebuilt.version_chain(lpa).len(), 3);
    assert!(rebuilt.check_consistency().is_clean());
    // And a rewrite after recovery supersedes the tombstone again.
    let mut rebuilt = rebuilt;
    rebuilt
        .write(lpa, synthetic(lpa.0, 9), trim.finish + SEC_NS)
        .unwrap();
    assert!(rebuilt.is_mapped(lpa));
}

/// Under the default batched journal, an un-barriered trim is volatile
/// (fsync semantics): a cut before any flush legally resurrects the head.
/// A host flush barrier is the durability point — after it the same cut
/// keeps the page trimmed.
#[test]
fn batched_trim_is_volatile_until_flush_barrier() {
    let mut ssd = TimeSsd::new(medium_cfg());
    assert!(ssd.config().trim_journal_watermark > 1);
    let lpa = Lpa(3);
    let mut now = SEC_NS;
    for v in 1..=3u64 {
        let c = ssd.write(lpa, synthetic(lpa.0, v), now).unwrap();
        now = c.finish + SEC_NS;
    }
    let trim = ssd.trim(lpa, now).unwrap();
    let rebuilt = TimeSsd::recover_from_flash(ssd.flash().clone(), ssd.config().clone());
    assert!(
        rebuilt.is_mapped(lpa),
        "tombstone was buffered only — the cut resurrects the head"
    );
    // Now demand durability.
    ssd.flush(trim.finish + SEC_NS).unwrap();
    let rebuilt = TimeSsd::recover_from_flash(ssd.flash().clone(), ssd.config().clone());
    assert!(!rebuilt.is_mapped(lpa), "flushed trim must be durable");
    assert_eq!(rebuilt.trimmed_at(lpa), ssd.trimmed_at(lpa));
    assert!(rebuilt.check_consistency().is_clean());
}

#[test]
fn flush_barrier_drains_buffers_and_charges_costs() {
    // The barrier charges the per-page + per-barrier controller costs on top
    // of the flash program (the fence itself is tested once for every FTL in
    // `ftl.rs`).
    let mut ssd = TimeSsd::new(medium_cfg());
    let w = ssd.write(Lpa(0), synthetic(0, 1), 0).unwrap();
    ssd.trim(Lpa(0), w.finish).unwrap(); // buffers a tombstone
    let f = ssd.flush(0).unwrap();
    assert_eq!(ssd.buffered_delta_pages(), 0);
    assert_eq!(ssd.stats().flush_pages, 1);

    // A/B: the same sequence with a zero-cost barrier finishes strictly
    // earlier — the knobs really are in the latency path.
    let mut free = TimeSsd::new(medium_cfg().with_flush_costs(0, 0));
    let wf = free.write(Lpa(0), synthetic(0, 1), 0).unwrap();
    free.trim(Lpa(0), wf.finish).unwrap();
    let ff = free.flush(0).unwrap();
    assert!(
        f.finish > ff.finish,
        "costed barrier {} must outlast the zero-cost barrier {}",
        f.finish,
        ff.finish
    );
    // The fence (`last_io_end`) can absorb part of the page cost when the
    // delta program lands on an idle chip, but the fixed barrier overhead
    // is always visible on top.
    assert!(f.finish - ff.finish >= ssd.config().flush_barrier_cost);
}

#[test]
fn failed_barrier_still_advances_busy_until() {
    // Regression (partial-work accounting): a mid-loop program fault used
    // to discard the time and programs already spent on earlier filters.
    use almanac_flash::FaultPlan;
    let mut cfg = medium_cfg();
    let mut probe = TimeSsd::new(cfg.clone());
    // Dirty two separate filter buffers via trims in distinct time segments
    // (each write+trim pair ages the chain enough to rotate filters).
    let mut now = SEC_NS;
    for (i, lpa) in [3u64, 5].into_iter().enumerate() {
        let c = probe
            .write(Lpa(lpa), synthetic(lpa, i as u64 + 1), now)
            .unwrap();
        let t = probe.trim(Lpa(lpa), c.finish + DAY_NS).unwrap();
        now = t.finish + DAY_NS;
    }
    let dirty = probe.buffered_delta_pages();
    if dirty < 2 {
        // Both tombstones coalesced into one buffer; the partial-work path
        // needs at least two, so widen via the deltas-level regression test
        // (`failed_barrier_still_charges_partial_work`) instead.
        return;
    }
    // Re-run the same script against a device whose (dirty+1)-th program —
    // the SECOND barrier flush — faults.
    let total_programs = probe.flash().stats().programs;
    cfg = cfg.with_fault_plan(FaultPlan::new(1).with_program_fault(total_programs + 1));
    let mut ssd = TimeSsd::new(cfg);
    let mut now = SEC_NS;
    for (i, lpa) in [3u64, 5].into_iter().enumerate() {
        let c = ssd
            .write(Lpa(lpa), synthetic(lpa, i as u64 + 1), now)
            .unwrap();
        let t = ssd.trim(Lpa(lpa), c.finish + DAY_NS).unwrap();
        now = t.finish + DAY_NS;
    }
    let before = ssd.busy_until;
    let programs_before = ssd.stats().delta_programs;
    assert!(
        ssd.flush(now).is_err(),
        "injected fault must fail the barrier"
    );
    assert_eq!(
        ssd.stats().delta_programs,
        programs_before + 1,
        "the first buffer's program must be charged"
    );
    assert!(
        ssd.busy_until > before,
        "busy_until must advance for the partial work"
    );
    assert_eq!(ssd.buffered_delta_pages(), 1, "faulted buffer survives");
    // The retry completes the barrier.
    ssd.flush(now + SEC_NS).unwrap();
    assert_eq!(ssd.buffered_delta_pages(), 0);
}

#[test]
fn trimmed_data_stays_recoverable() {
    let mut ssd = TimeSsd::new(small_cfg());
    let secret = PageData::bytes(b"do not lose me".to_vec());
    let c = ssd.write(Lpa(9), secret.clone(), SEC_NS).unwrap();
    ssd.trim(Lpa(9), 2 * SEC_NS).unwrap();
    let (now_data, _) = ssd.read(Lpa(9), 3 * SEC_NS).unwrap();
    assert_eq!(now_data, PageData::Zeros);
    // History still reachable.
    let chain = ssd.version_chain(Lpa(9));
    assert_eq!(chain.len(), 1);
    assert_eq!(ssd.version_content(Lpa(9), c.start).unwrap(), secret);
}

#[test]
fn overwrite_after_trim_links_chain() {
    let mut ssd = TimeSsd::new(small_cfg());
    let c1 = ssd.write(Lpa(5), synthetic(5, 1), SEC_NS).unwrap();
    ssd.trim(Lpa(5), 2 * SEC_NS).unwrap();
    ssd.write(Lpa(5), synthetic(5, 2), 3 * SEC_NS).unwrap();
    let chain = ssd.version_chain(Lpa(5));
    assert_eq!(chain.len(), 2);
    assert_eq!(
        ssd.version_content(Lpa(5), c1.start).unwrap(),
        synthetic(5, 1)
    );
}

/// Churn a device hard enough that GC must compress retained versions.
fn churn(ssd: &mut TimeSsd, rounds: u64, step: u64) -> u64 {
    // Hammer a working set of a third of the device so retained versions
    // (compressed to ~20%) still fit alongside the valid data.
    let set = ssd.exported_pages() / 3;
    let mut now = SEC_NS;
    for i in 0..rounds {
        let lpa = Lpa(i % set);
        let c = ssd.write(lpa, synthetic(lpa.0, i / set + 1), now).unwrap();
        now = c.finish.max(now) + step;
    }
    now
}

#[test]
fn gc_compresses_retained_versions_into_deltas() {
    let mut ssd = TimeSsd::new(medium_cfg().with_min_retention(0));
    churn(&mut ssd, 12_000, 100_000);
    assert!(ssd.stats().gc_erases > 0, "GC never ran");
    assert!(
        ssd.stats().gc_compressions + ssd.stats().bg_compressions > 0,
        "no version was ever delta-compressed"
    );
    assert!(ssd.stats().delta_programs > 0, "no delta page was written");
}

#[test]
fn compressed_versions_remain_retrievable() {
    let mut ssd = TimeSsd::new(medium_cfg());
    let lpa = Lpa(7);
    // Ten versions of our page, then churn everything else to force GC.
    let mut stamps = Vec::new();
    let mut now = SEC_NS;
    for v in 1..=10u64 {
        let c = ssd.write(lpa, synthetic(lpa.0, v), now).unwrap();
        stamps.push(c.start);
        now = c.finish + SEC_NS;
    }
    let set = ssd.exported_pages() / 3;
    for i in 0..(set * 8) {
        let l = Lpa(8 + (i % (set - 8)));
        let c = ssd.write(l, synthetic(l.0, i + 1), now).unwrap();
        now = c.finish + 50_000;
    }
    assert!(ssd.stats().gc_erases > 0);
    // Every version of lpa 7 must still decode to the right content.
    let chain = ssd.version_chain(lpa);
    assert!(
        chain.len() >= 8,
        "history lost: only {} of 10 versions reachable",
        chain.len()
    );
    let compressed = chain
        .iter()
        .filter(|v| !matches!(v.location, VersionLocation::DataPage(_)))
        .count();
    assert!(compressed > 0, "no version ended up in the delta chain");
    for v in &chain {
        let content = ssd.version_content(lpa, v.timestamp).unwrap();
        let version_no = 1 + stamps.iter().position(|s| *s == v.timestamp).unwrap() as u64;
        assert_eq!(content, synthetic(lpa.0, version_no));
    }
}

#[test]
fn equation_one_drops_filters_under_churn() {
    let mut cfg = medium_cfg().with_min_retention(0);
    cfg.n_fixed = 256;
    let mut ssd = TimeSsd::new(cfg);
    churn(&mut ssd, 20_000, 10_000);
    assert!(
        ssd.stats().filters_dropped > 0,
        "retention manager never shortened the window"
    );
}

#[test]
fn expired_versions_disappear_from_chains() {
    let mut cfg = medium_cfg().with_min_retention(0);
    cfg.n_fixed = 256;
    let mut ssd = TimeSsd::new(cfg);
    let c = ssd.write(Lpa(0), synthetic(0, 1), SEC_NS).unwrap();
    let first_ts = c.start;
    churn(&mut ssd, 30_000, 10_000);
    // The very first version was invalidated long ago; after heavy churn
    // with dropped filters it should no longer be offered.
    let chain = ssd.version_chain(Lpa(0));
    assert!(ssd.stats().filters_dropped > 0);
    assert!(
        chain.iter().all(|v| v.timestamp != first_ts) || chain.len() < 30,
        "ancient version still reachable after expiry"
    );
}

#[test]
fn min_retention_blocks_device_when_space_runs_out() {
    // Huge minimum retention on a tiny device: junk writes must stall
    // rather than silently destroying history (§3.4, §3.10).
    let cfg = small_cfg().with_min_retention(100 * DAY_NS);
    let mut ssd = TimeSsd::new(cfg);
    let exported = ssd.exported_pages();
    let mut stalled = false;
    let mut now = SEC_NS;
    for i in 0..(exported * 40) {
        match ssd.write(Lpa(i % exported), synthetic(0, i), now) {
            Ok(c) => now = c.finish + 1000,
            Err(AlmanacError::DeviceStalled { .. }) => {
                stalled = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(stalled, "device kept absorbing junk past its guarantee");
}

#[test]
fn retention_window_grows_with_light_load() {
    let mut ssd = TimeSsd::new(medium_cfg());
    let mut now = SEC_NS;
    for i in 0..200u64 {
        let c = ssd.write(Lpa(i % 50), synthetic(i % 50, i), now).unwrap();
        now = c.finish + DAY_NS / 100;
    }
    // Light workload: nothing dropped, window spans the whole history.
    assert_eq!(ssd.stats().filters_dropped, 0);
    assert!(ssd.retention_window(now) > DAY_NS);
}

#[test]
fn background_compression_uses_idle_windows() {
    let mut cfg = medium_cfg();
    cfg.idle_threshold = 10 * MS_NS;
    let mut ssd = TimeSsd::new(cfg);
    let set = ssd.exported_pages() / 3;
    let mut now = SEC_NS;
    // Several passes over a third of the device create plenty of retained
    // invalid pages, with long idle gaps between requests so the predictor
    // clears its threshold.
    for i in 0..(set * 6) {
        let lpa = Lpa(i % set);
        let c = ssd.write(lpa, synthetic(lpa.0, i), now).unwrap();
        now = c.finish + 50 * MS_NS;
    }
    assert!(
        ssd.stats().bg_compressions > 0,
        "idle cycles were never used for compression"
    );
}

#[test]
fn rollback_style_write_preserves_history() {
    let mut ssd = TimeSsd::new(small_cfg());
    let v1 = PageData::bytes(b"version one".to_vec());
    let v2 = PageData::bytes(b"version two".to_vec());
    let c1 = ssd.write(Lpa(3), v1.clone(), SEC_NS).unwrap();
    ssd.write(Lpa(3), v2.clone(), 2 * SEC_NS).unwrap();
    // Roll back = read old version, write it back as a new update (§3.9).
    let old = ssd.version_content(Lpa(3), c1.start).unwrap();
    ssd.write(Lpa(3), old, 3 * SEC_NS).unwrap();
    let (now_data, _) = ssd.read(Lpa(3), 4 * SEC_NS).unwrap();
    assert_eq!(now_data, v1);
    // All three versions (v1, v2, rollback-copy of v1) in the chain.
    assert_eq!(ssd.version_chain(Lpa(3)).len(), 3);
}

#[test]
fn write_amplification_is_reasonable() {
    let mut ssd = TimeSsd::new(medium_cfg().with_min_retention(0));
    churn(&mut ssd, 10_000, 100_000);
    let wa = ssd.stats().write_amplification();
    assert!(wa >= 1.0);
    assert!(wa < 3.0, "write amplification exploded: {wa}");
}

#[test]
fn timestamps_unique_for_same_arrival() {
    let mut ssd = TimeSsd::new(small_cfg());
    ssd.write(Lpa(0), synthetic(0, 1), 100).unwrap();
    ssd.write(Lpa(0), synthetic(0, 2), 100).unwrap();
    ssd.write(Lpa(0), synthetic(0, 3), 100).unwrap();
    let chain = ssd.version_chain(Lpa(0));
    assert_eq!(chain.len(), 3);
    assert!(chain.windows(2).all(|w| w[0].timestamp > w[1].timestamp));
}

#[test]
fn flush_buffers_persists_pending_deltas() {
    let mut ssd = TimeSsd::new(medium_cfg());
    churn(&mut ssd, 4_000, 50_000);
    // Whatever is buffered should flush without error and stay readable.
    ssd.flush_buffers(u64::MAX / 2).unwrap();
    let chain = ssd.version_chain(Lpa(1));
    for v in chain {
        ssd.version_content(Lpa(1), v.timestamp).unwrap();
    }
}

#[test]
fn mixed_content_kinds_coexist() {
    let mut ssd = TimeSsd::new(small_cfg());
    ssd.write(Lpa(0), PageData::Zeros, SEC_NS).unwrap();
    ssd.write(Lpa(0), PageData::bytes(vec![1, 2, 3]), 2 * SEC_NS)
        .unwrap();
    ssd.write(Lpa(0), synthetic(0, 3), 3 * SEC_NS).unwrap();
    let chain = ssd.version_chain(Lpa(0));
    assert_eq!(chain.len(), 3);
    assert_eq!(
        ssd.version_content(Lpa(0), chain[2].timestamp).unwrap(),
        PageData::Zeros
    );
    assert_eq!(
        ssd.version_content(Lpa(0), chain[1].timestamp).unwrap(),
        PageData::bytes(vec![1, 2, 3])
    );
}

#[test]
fn stats_track_user_operations() {
    let mut ssd = TimeSsd::new(small_cfg());
    ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
    ssd.read(Lpa(0), SEC_NS).unwrap();
    ssd.trim(Lpa(0), 2 * SEC_NS).unwrap();
    let s = ssd.stats();
    assert_eq!((s.user_writes, s.user_reads, s.user_trims), (1, 1, 1));
}

#[test]
fn retention_key_protects_compressed_history() {
    // §3.10: encrypted retained data decodes only with the right key.
    let cfg = medium_cfg().with_retention_key(0xDEAD_BEEF);
    let mut ssd = TimeSsd::new(cfg);
    let lpa = Lpa(3);
    let mut now = SEC_NS;
    for v in 0..6u8 {
        let c = ssd.write(lpa, PageData::bytes(vec![v; 512]), now).unwrap();
        now = c.finish + SEC_NS;
    }
    // Force compression of the retained versions.
    let set = ssd.exported_pages() / 3;
    for i in 0..(set * 6) {
        let l = Lpa(8 + (i % (set - 8)));
        let c = ssd.write(l, synthetic(l.0, i + 1), now).unwrap();
        now = c.finish + 50_000;
    }
    let chain = ssd.version_chain(lpa);
    let compressed: Vec<_> = chain
        .iter()
        .filter(|v| !matches!(v.location, VersionLocation::DataPage(_)))
        .collect();
    assert!(!compressed.is_empty(), "nothing was compressed");
    for v in &compressed {
        // Owner (device key) decodes correctly.
        let content = ssd.version_content(lpa, v.timestamp).unwrap();
        assert!(matches!(content, PageData::Bytes(_)));
        // Adversary with the wrong key gets garbage or a decode failure.
        let stolen = ssd.version_content_with_key(lpa, v.timestamp, Some(0xBAD));
        match stolen {
            Err(_) => {}
            Ok(data) => assert_ne!(data, content, "wrong key decoded plaintext"),
        }
        // No key at all fails the same way.
        let keyless = ssd.version_content_with_key(lpa, v.timestamp, None);
        match keyless {
            Err(_) => {}
            Ok(data) => assert_ne!(data, content, "keyless read decoded plaintext"),
        }
    }
}

#[test]
fn amt_demand_cache_charges_faults() {
    let mut cfg = small_cfg();
    cfg.amt_cache_pages = Some(2);
    let mut ssd = TimeSsd::new(cfg);
    // Touch addresses spread across many translation pages.
    let stride = (small_cfg().geometry.page_size / 8) as u64; // mappings/page
    let mut now = SEC_NS;
    for i in 0..8u64 {
        let lpa = Lpa((i * stride) % ssd.exported_pages());
        let c = ssd.write(lpa, synthetic(lpa.0, i), now).unwrap();
        now = c.finish + SEC_NS;
    }
    let (faults, _) = ssd.map_cache_traffic();
    assert!(faults > 0, "no translation faults with a 2-page cache");

    // A fully-resident table never faults.
    let mut ssd = TimeSsd::new(small_cfg());
    let mut now = SEC_NS;
    for i in 0..8u64 {
        let lpa = Lpa((i * stride) % ssd.exported_pages());
        let c = ssd.write(lpa, synthetic(lpa.0, i), now).unwrap();
        now = c.finish + SEC_NS;
    }
    assert_eq!(ssd.map_cache_traffic().0, 0);
}

#[test]
fn amt_cache_capacity_is_exact() {
    // Three cached translation pages, four cycled: an LRU of exactly three
    // faults on every access, even when the capacity is below `amt_shards`.
    let mut cfg = medium_cfg().with_amt_shards(8);
    cfg.amt_cache_pages = Some(3);
    let mut ssd = TimeSsd::new(cfg);
    let stride = (ssd.geometry().page_size / 8) as u64; // mappings/page
    for i in 0..40u64 {
        ssd.read(Lpa((i % 4) * stride), (i + 1) * SEC_NS).unwrap();
        assert_eq!(ssd.map_cache_traffic().0, i + 1, "access {i} hit");
    }
}

#[test]
fn completions_and_cache_traffic_ignore_the_partition_width() {
    // The map cache is one LRU over the whole table, so `amt_shards` — the
    // query schedule's partition width — moves neither a completion time
    // nor a fault, even with a cache small enough to thrash; and a power
    // cycle is one more input: the rebuild, and the traffic after it, are
    // the same at every width down to the last version chain.
    let run = |shards: u32| {
        let mut cfg = medium_cfg().with_amt_shards(shards);
        cfg.amt_cache_pages = Some(4);
        let mut ssd = TimeSsd::new(cfg.clone());
        let exported = ssd.exported_pages();
        let mut now = SEC_NS;
        let mut completions = Vec::new();
        for i in 0..600u64 {
            // A stride coprime to the exported size walks every
            // translation page; every third op re-reads a recent page.
            let lpa = Lpa((i * 617) % exported);
            let c = match i % 3 {
                0 | 1 => ssd.write(lpa, synthetic(lpa.0, i), now).unwrap(),
                _ => ssd.read(Lpa(((i - 1) * 617) % exported), now).unwrap().1,
            };
            if i % 50 == 49 {
                completions.push(ssd.trim(lpa, c.finish).unwrap());
            }
            now = c.finish + MS_NS;
            completions.push(c);
        }
        let before_cut = ssd.map_cache_traffic();
        let mut flash = ssd.into_flash();
        flash.revive();
        let mut ssd = TimeSsd::recover_from_flash(flash, cfg);
        for i in 0..60u64 {
            let lpa = Lpa((i * 617) % exported);
            let c = match i % 2 {
                0 => ssd.write(lpa, synthetic(lpa.0, 600 + i), now).unwrap(),
                _ => ssd.read(lpa, now).unwrap().1,
            };
            now = c.finish + MS_NS;
            completions.push(c);
        }
        let chains: Vec<_> = (0..exported).map(|l| ssd.version_chain(Lpa(l))).collect();
        (completions, before_cut, ssd.map_cache_traffic(), chains)
    };
    let base = run(1);
    assert!(base.1 .0 > 100 && base.1 .1 > 0, "cache never thrashed");
    assert!(base.2 .0 > 0, "no fault after the rebuild");
    for shards in [3, 8] {
        assert_eq!(base, run(shards), "amt_shards = {shards}");
    }
}

/// The hot/cold workload of the wear-leveling tests: write a cold region
/// (the whole device) once, then hammer a tiny hot set of 64 LPAs. Calls `step(ssd, result, i)` after
/// every write until it returns false.
fn wear_level_workload(
    ssd: &mut TimeSsd,
    mut step: impl FnMut(&mut TimeSsd, Lpa, u64, crate::error::Result<()>) -> bool,
) {
    let exported = ssd.exported_pages();
    let mut now = SEC_NS;
    let lpas = (0..exported).chain((0..exported * 5).map(|i| i % 64));
    for (version, l) in lpas.enumerate() {
        let version = version as u64;
        let result = ssd.write(Lpa(l), synthetic(l, version), now);
        now = result.as_ref().map_or(now, |c| c.finish) + 1000;
        if !step(ssd, Lpa(l), version, result.map(|_| ())) {
            return;
        }
    }
}

#[test]
fn wear_leveling_bounds_erase_spread() {
    let mut cfg = medium_cfg().with_min_retention(0);
    cfg.wl_spread_threshold = 8;
    cfg.n_fixed = 256;
    let mut ssd = TimeSsd::new(cfg);
    wear_level_workload(&mut ssd, |_, _, _, result| {
        result.unwrap();
        true
    });
    assert!(ssd.stats().wl_swaps > 0, "wear leveling never ran");
    // The leveler is rate-limited (one swap per 64 erases), so an extreme
    // 64-page hot set still shows a spread — it just must stay sane and the
    // leveler must not burn endurance itself (≈1 erase per 17 user writes
    // here; the unlimited version burned one erase per write).
    let total_erases = ssd.flash().stats().erases;
    assert!(
        total_erases < ssd.stats().user_writes / 4,
        "leveler burned {} erases for {} writes",
        total_erases,
        ssd.stats().user_writes
    );
}

#[test]
fn consistency_holds_after_trim_heavy_churn() {
    let mut cfg = medium_cfg().with_min_retention(0);
    cfg.n_fixed = 256;
    let mut ssd = TimeSsd::new(cfg);
    let set = ssd.exported_pages() / 4;
    let mut now = SEC_NS;
    for i in 0..8_000u64 {
        let lpa = Lpa(i % set);
        if i % 7 == 3 {
            let c = ssd.trim(lpa, now).unwrap();
            now = c.finish + 10_000;
        } else {
            let c = ssd.write(lpa, synthetic(lpa.0, i), now).unwrap();
            now = c.finish + 10_000;
        }
    }
    let audit = ssd.check_consistency();
    assert!(
        audit.is_clean(),
        "{:?}",
        &audit.violations[..audit.violations.len().min(5)]
    );
}

#[test]
fn stats_programs_account_for_flash_traffic() {
    let mut ssd = TimeSsd::new(medium_cfg().with_min_retention(0));
    churn(&mut ssd, 8_000, 50_000);
    let s = *ssd.stats();
    let flash_programs = ssd.flash().stats().programs;
    let accounted = s.user_programs + s.gc_programs + s.delta_programs + s.wl_programs;
    assert_eq!(
        accounted, flash_programs,
        "stats miss some flash programs: accounted {accounted} vs flash {flash_programs}"
    );
}

#[test]
fn stall_leaves_tables_consistent() {
    // A 3-day window on a tiny device pins every invalidated page, so
    // sustained overwrites must eventually stall GC. The stall has to be a
    // clean refusal: the mid-migration error path once marked the old copy
    // invalid before discovering there was no destination page, leaving an
    // LPA mapped to an invalid page (found by the differential oracle).
    let mut ssd = TimeSsd::new(small_cfg());
    let mut stalled = false;
    let mut t = 0u64;
    'outer: for round in 1..=64u64 {
        for lpa in 0..24u64 {
            t += MS_NS;
            match ssd.write(Lpa(lpa), synthetic(lpa, round), t) {
                Ok(_) => {}
                Err(AlmanacError::DeviceStalled { .. }) => {
                    stalled = true;
                    break 'outer;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    assert!(stalled, "device never stalled; test premise broken");
    let audit = ssd.check_consistency();
    assert!(
        audit.is_clean(),
        "stall corrupted tables: {:?}",
        &audit.violations[..audit.violations.len().min(5)]
    );
    // The device must still serve reads and history after refusing service.
    let chain = ssd.version_chain(Lpa(0));
    assert!(!chain.is_empty());
    assert!(chain[0].is_head);
}

#[test]
fn a_stalled_device_still_serves_reads() {
    // A 108-page fill, then round-robin overwrites of 16 pages, all at
    // 30 ms gaps. Idle compression runs at every arrival after such a gap
    // and needs a delta block. On a stalled device there is none: a read must
    // end that optional work and serve its bytes, while a write keeps its
    // typed stall.
    let cfg = small_cfg()
        .with_min_retention(SEC_NS)
        .with_bloom(ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity: 64,
        });
    let mut ssd = TimeSsd::new(cfg);
    let mut acked: Vec<PageData> = (0..108).map(|lpa| synthetic(lpa, 0)).collect();
    let mut now = SEC_NS;
    for (lpa, data) in acked.iter().enumerate() {
        now += 30 * MS_NS;
        ssd.write(Lpa(lpa as u64), data.clone(), now).unwrap();
    }
    let mut stalled = false;
    for i in 0..10_000u64 {
        now += 30 * MS_NS;
        let lpa = i % 16;
        let data = synthetic(lpa, i + 1);
        match ssd.write(Lpa(lpa), data.clone(), now) {
            Ok(_) => acked[lpa as usize] = data,
            Err(AlmanacError::DeviceStalled { .. }) => {
                stalled = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(stalled, "device never stalled; test premise broken");
    assert!(matches!(
        ssd.write(Lpa(0), synthetic(0, 0), now),
        Err(AlmanacError::DeviceStalled { .. })
    ));
    for (lpa, want) in acked.iter().enumerate() {
        now += 30 * MS_NS;
        let (got, _) = ssd
            .read(Lpa(lpa as u64), now)
            .unwrap_or_else(|e| panic!("L{lpa}: the stalled device refused a read: {e}"));
        assert_eq!(&got, want, "L{lpa}");
    }
    let audit = ssd.check_consistency();
    assert!(audit.is_clean(), "{:?}", audit.violations);
}

#[test]
fn failed_migration_program_leaves_old_copy_mapped() {
    use crate::tables::AmtEntry;
    use almanac_flash::{FaultPlan, FlashError};

    // Sweep program-fault indices until one lands on `migrate_valid`'s copy
    // program (not the destination allocation, which is RAM-only and cannot
    // fault). The contract: a failed program leaves the old copy mapped and
    // valid, the tables audit-clean, and a retry succeeding.
    let mut hit = false;
    for nth in 0..64u64 {
        let cfg = small_cfg().with_fault_plan(FaultPlan::new(0).with_program_fault(nth));
        let mut ssd = TimeSsd::new(cfg);
        let mut setup_ok = true;
        for v in 1..=3u64 {
            if ssd.write(Lpa(2), synthetic(2, v), v * SEC_NS).is_err() {
                setup_ok = false; // the fault fired during setup traffic
                break;
            }
        }
        if !setup_ok {
            continue;
        }
        let old = match ssd.amt.get(Lpa(2)) {
            AmtEntry::Mapped(p) => p,
            e => panic!("unexpected AMT state after setup: {e:?}"),
        };
        match ssd.migrate_valid(old, Dest::Cold, 10 * SEC_NS) {
            Ok(_) => continue, // fault index beyond this run's programs
            Err(AlmanacError::Flash(FlashError::Injected { .. })) => {}
            Err(e) => panic!("unexpected migration error: {e}"),
        }
        hit = true;
        assert_eq!(ssd.amt.get(Lpa(2)), AmtEntry::Mapped(old));
        assert!(ssd.pvt.get(old), "old copy invalidated by failed program");
        let audit = ssd.check_consistency();
        assert!(
            audit.is_clean(),
            "failed program corrupted tables: {:?}",
            &audit.violations[..audit.violations.len().min(5)]
        );
        // Faults are one-shot, so the retry must succeed and move the head.
        ssd.migrate_valid(old, Dest::Cold, 11 * SEC_NS).unwrap();
        let moved = ssd.amt.get(Lpa(2)).chain_head().unwrap();
        assert_ne!(moved, old);
        assert!(!ssd.pvt.get(old));
        assert!(ssd.pvt.get(moved));
        assert_eq!(ssd.version_chain(Lpa(2)).len(), 3);
        assert!(ssd.check_consistency().is_clean());
    }
    assert!(hit, "no fault index landed on the migration program");
}

#[test]
fn failed_wear_level_program_leaves_device_consistent() {
    use almanac_flash::FaultPlan;
    use std::collections::HashMap;

    // Regression: the wear-levelling swap invalidated each cold page before
    // programming its new copy and had no failure path, so a program fault
    // left the owner LPA mapped to an invalid page (`MappedPageNotValid`)
    // and the half-filled destination block out of everyone's reach.
    let mut cfg = medium_cfg().with_min_retention(0);
    cfg.wl_spread_threshold = 8;
    cfg.n_fixed = 256;

    // Fault-free probe: the flash-program window of the host write that
    // runs the first swap.
    let mut probe = TimeSsd::new(cfg.clone());
    let (mut before, mut window) = (0, 0..0);
    wear_level_workload(&mut probe, |ssd, _, _, result| {
        result.unwrap();
        let programs = ssd.flash().stats().programs;
        if ssd.stats().wl_swaps > 0 {
            window = before..programs;
            return false;
        }
        before = programs;
        true
    });
    assert!(!window.is_empty(), "wear leveling never ran");

    for nth in window {
        let plan = FaultPlan::new(1).with_program_fault(nth);
        let mut ssd = TimeSsd::new(cfg.clone().with_fault_plan(plan));
        let mut acked = HashMap::new();
        let (mut steps, mut faulted_at) = (0u64, None);
        wear_level_workload(&mut ssd, |ssd, lpa, version, result| {
            steps += 1;
            match result {
                Ok(()) => {
                    acked.insert(lpa, version);
                }
                Err(e) => {
                    assert_eq!(faulted_at, None, "fault {nth}: second error: {e}");
                    faulted_at = Some(steps);
                    let audit = ssd.check_consistency();
                    assert!(
                        audit.is_clean(),
                        "fault {nth} corrupted tables: {:?}",
                        &audit.violations[..audit.violations.len().min(5)]
                    );
                }
            }
            // The device must keep taking writes after the one it failed.
            faulted_at.is_none_or(|at| steps < at + 2048)
        });
        assert!(faulted_at.is_some(), "fault {nth} never fired");
        assert!(ssd.check_consistency().is_clean(), "fault {nth}");
        for (&lpa, &version) in &acked {
            let (data, _) = ssd.read(lpa, u64::MAX / 2).unwrap();
            assert_eq!(data, synthetic(lpa.0, version), "fault {nth}: {lpa:?}");
        }
    }
}
