//! Reference-model pin for the device's rollback cost accounting.
//!
//! `roll_back_all` reports a [`QueryCost`](almanac_core::QueryCost) and a
//! completion time. This test re-derives both from first principles on an
//! identical twin device: one flash read per restored version, plus one
//! reference read and one decompression for delta-located versions,
//! accumulated per chip — then scheduled by an independent channel-parallel
//! makespan calculation (chips dealt to workers round-robin, CPU work spread
//! over loaded workers in ceiling shares). Any drift between the device's
//! accounting and the reference fails loudly, in either direction.

use almanac_core::{roll_back_all, SsdConfig, SsdDevice, SsdReadOps, TimeSsd, VersionLocation};
use almanac_flash::{Geometry, Lpa, PageData, MS_NS, SEC_NS};

fn pressure_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
        .with_min_retention(SEC_NS)
        .with_bloom(almanac_bloom::ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity: 64,
        })
}

/// Deterministic history: heavy overwrite pressure on LPAs 0..6 so GC
/// compresses mid-history versions into delta pages, plus one late-born LPA
/// that a mid-history rollback must erase.
fn build_device() -> TimeSsd {
    let mut ssd = TimeSsd::new(pressure_cfg());
    // Written once, early, never again: its head stays an uncompressed data
    // page, so a mid-history rollback finds it current (no write needed).
    ssd.write(
        Lpa(6),
        PageData::Synthetic {
            seed: 6,
            version: 1,
        },
        SEC_NS / 2,
    )
    .unwrap();
    let mut t = SEC_NS;
    for round in 1..=40u64 {
        for lpa in 0..6u64 {
            ssd.write(
                Lpa(lpa),
                PageData::Synthetic {
                    seed: lpa,
                    version: round,
                },
                t,
            )
            .unwrap();
            t += 20 * MS_NS;
        }
    }
    ssd.write(
        Lpa(7),
        PageData::Synthetic {
            seed: 7,
            version: 1,
        },
        t + SEC_NS,
    )
    .unwrap();
    ssd
}

/// Independent channel-parallel makespan: the spec from `QueryCost` docs,
/// written out plainly. Chips deal to workers round-robin; CPU work exists
/// only where reads produced deltas, so it lands on loaded workers in
/// ceiling shares (all workers when nothing is loaded).
fn ref_makespan(per_chip: &[u64], cpu: u64, threads: u32) -> u64 {
    let threads = threads.max(1) as usize;
    let mut workers = vec![0u64; threads];
    for (chip, &c) in per_chip.iter().enumerate() {
        workers[chip % threads] += c;
    }
    if cpu > 0 {
        let loaded: Vec<usize> = (0..threads).filter(|&w| workers[w] > 0).collect();
        let targets: Vec<usize> = if loaded.is_empty() {
            (0..threads).collect()
        } else {
            loaded
        };
        let n = targets.len() as u64;
        for (i, &w) in targets.iter().enumerate() {
            workers[w] += cpu / n + u64::from((i as u64) < cpu % n);
        }
    }
    workers.into_iter().max().unwrap_or(0)
}

#[test]
fn rollback_all_cost_matches_reference_schedule() {
    let target = 3 * SEC_NS;
    let now = 10 * SEC_NS;

    // Device run.
    let mut ssd = build_device();
    let out = roll_back_all(&mut ssd, target, now).unwrap();

    // Naive lockstep reference on an identical twin: the rollback loop
    // written out by hand, charging cost into plain per-chip counters.
    let mut twin = build_device();
    let lat = *twin.flash().latency();
    let chips = twin.geometry().total_chips() as usize;
    let mut per_chip = vec![0u64; chips];
    let mut cpu = 0u64;
    let mut reads = 0u64;
    let mut decompressions = 0u64;
    let mut restored = Vec::new();
    let mut erased = Vec::new();
    let mut skipped = Vec::new();
    let mut finish = now;
    for lpa in (0..twin.exported_pages()).map(Lpa) {
        match twin.version_as_of(lpa, target) {
            Some(v) => {
                // One read for the version itself; delta-located versions
                // also read their reference page and run the decompressor.
                if let Some(chip) = v.chip {
                    per_chip[chip as usize] += lat.read_total();
                    reads += 1;
                }
                if !matches!(v.location, VersionLocation::DataPage(_)) {
                    if let Some(chip) = v.chip {
                        per_chip[chip as usize] += lat.read_total();
                        reads += 1;
                    }
                    cpu += lat.decompress_ns;
                    decompressions += 1;
                }
                let data = twin.version_content(lpa, v.timestamp).unwrap();
                let already = twin
                    .version_chain(lpa)
                    .first()
                    .map(|h| h.is_head && h.timestamp == v.timestamp)
                    .unwrap_or(false);
                if !already {
                    let c = twin.write(lpa, data, finish).unwrap();
                    finish = finish.max(c.finish);
                }
                restored.push((lpa, v.timestamp));
            }
            None => {
                if twin.is_mapped(lpa) {
                    let c = twin.trim(lpa, finish).unwrap();
                    finish = finish.max(c.finish);
                    erased.push(lpa);
                } else {
                    skipped.push(lpa);
                }
            }
        }
    }

    // Outcome bookkeeping agrees item by item.
    assert_eq!(out.restored, restored);
    assert_eq!(out.erased, erased);
    assert_eq!(out.skipped, skipped);
    assert_eq!(out.finish, finish, "completion time drifted from reference");
    assert!(
        out.finish > now,
        "rollback performed writes, time must advance"
    );

    // The scenario must exercise both retrieval paths and the erase path,
    // or the pin proves nothing.
    assert!(!out.restored.is_empty());
    assert_eq!(out.erased, vec![Lpa(7)]);
    assert!(
        out.cost.decompressions > 0,
        "no delta-located versions reached — scenario lost its GC pressure"
    );
    assert!(
        out.cost.flash_reads > 2 * out.cost.decompressions,
        "no data-page versions reached — scenario degenerated"
    );

    // Raw counters and the full makespan curve match the reference.
    assert_eq!(out.cost.flash_reads, reads);
    assert_eq!(out.cost.decompressions, decompressions);
    let serial: u64 = per_chip.iter().sum::<u64>() + cpu;
    assert_eq!(
        out.cost.makespan(1),
        serial,
        "serial makespan must be the plain sum"
    );
    for threads in [1u32, 2, 3, 4, 8, 16] {
        assert_eq!(
            out.cost.makespan(threads),
            ref_makespan(&per_chip, cpu, threads),
            "makespan({threads}) drifted from the reference schedule"
        );
    }

    // And the two devices — device-rolled and hand-rolled — are now the
    // same machine.
    for lpa in 0..8u64 {
        assert_eq!(
            ssd.version_chain(Lpa(lpa)),
            twin.version_chain(Lpa(lpa)),
            "post-rollback chain diverged at lpa {lpa}"
        );
    }
}

/// Rolling back to a state the device is already in is free of writes: the
/// reads are still charged (the device must fetch to know), but no page is
/// rewritten, no trim is issued, and virtual time does not advance.
#[test]
fn rollback_to_current_state_writes_nothing() {
    let mut ssd = build_device();
    let first = roll_back_all(&mut ssd, 3 * SEC_NS, 10 * SEC_NS).unwrap();
    let writes = ssd.stats().user_writes;
    let trims = ssd.stats().user_trims;

    let now2 = first.finish + 10 * SEC_NS;
    let second = roll_back_all(&mut ssd, first.finish, now2).unwrap();

    assert_eq!(second.finish, now2, "an idempotent rollback must not write");
    assert_eq!(ssd.stats().user_writes, writes);
    assert_eq!(ssd.stats().user_trims, trims);
    assert!(second.erased.is_empty());
    assert_eq!(second.restored.len(), first.restored.len());
    assert!(second.cost.flash_reads > 0, "fetches still cost reads");
}
