//! Property tests of the time-travel index under GC pressure.
//!
//! Unlike `model_check.rs` (which avoids GC so every version stays
//! retrievable), these sequences deliberately run a tiny geometry with heavy
//! overwrites so garbage collection, delta compression, and filter rotation
//! interleave with host I/O. Under *any* such interleaving the per-LPA
//! version chain must keep its structural invariants: the head first, every
//! entry owned by the queried LPA, strictly decreasing timestamps, and no
//! timestamp the host never committed. The lazy walk and every fold that
//! stops it early must equal their definitions over the full chain, and a
//! version decodes to the bytes the host wrote as that version or not at all.

use std::collections::{HashMap, HashSet};

use almanac_core::{
    AlmanacError, SsdConfig, SsdDevice, SsdReadOps, TimeSsd, VersionInfo, VersionLocation,
};
use almanac_flash::{Geometry, Lpa, Nanos, PageData, SEC_NS};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write {
        lpa: u64,
    },
    Trim {
        lpa: u64,
    },
    Flush,
    /// Jump virtual time forward, opening an idle window for background
    /// compression.
    Idle,
}

fn op_strategy(lpa_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        10 => (0..lpa_space).prop_map(|lpa| Op::Write { lpa }),
        2 => (0..lpa_space).prop_map(|lpa| Op::Trim { lpa }),
        1 => Just(Op::Flush),
        1 => Just(Op::Idle),
    ]
}

fn small_config() -> SsdConfig {
    let mut cfg = SsdConfig::new(Geometry::small_test());
    // Tiny filters: rotations happen within a short op sequence.
    cfg.bloom.capacity = 16;
    cfg
}

/// Asserts the structural chain invariants for one LPA. `committed` holds
/// every timestamp the host ever got acknowledged for this LPA.
fn assert_chain_invariants(
    ssd: &TimeSsd,
    lpa: u64,
    committed: &HashSet<Nanos>,
) -> Result<(), TestCaseError> {
    let chain = ssd.version_chain(Lpa(lpa));
    for (i, v) in chain.iter().enumerate() {
        prop_assert_eq!(v.lpa, Lpa(lpa), "entry owned by a different LPA");
        prop_assert!(!v.is_head || i == 0, "head not first in chain of L{}", lpa);
        prop_assert!(
            committed.contains(&v.timestamp),
            "L{} chain invented timestamp {} the host never committed",
            lpa,
            v.timestamp
        );
    }
    for w in chain.windows(2) {
        prop_assert!(
            w[0].timestamp > w[1].timestamp,
            "L{} chain not strictly decreasing: {} then {}",
            lpa,
            w[0].timestamp,
            w[1].timestamp
        );
    }
    Ok(())
}

/// Applies an op sequence, recording committed timestamps. Stops early if
/// the device stalls (legitimate under §3.4 retention pressure).
fn apply(
    ssd: &mut TimeSsd,
    ops: &[Op],
    committed: &mut HashMap<u64, HashSet<Nanos>>,
) -> Result<(), TestCaseError> {
    let mut now = SEC_NS;
    let mut version = 1u64;
    for op in ops {
        let result = match op {
            Op::Write { lpa } => {
                let r = ssd.write(
                    Lpa(*lpa),
                    PageData::Synthetic {
                        seed: *lpa,
                        version,
                    },
                    now,
                );
                if let Ok(c) = &r {
                    committed.entry(*lpa).or_default().insert(c.start);
                }
                version += 1;
                r
            }
            Op::Trim { lpa } => ssd.trim(Lpa(*lpa), now),
            Op::Flush => ssd.flush_buffers(now).map(|t| almanac_core::Completion {
                start: now,
                finish: t,
            }),
            Op::Idle => {
                now += 500 * SEC_NS;
                continue;
            }
        };
        match result {
            Ok(c) => now = c.finish + 20_000,
            // Free space exhausted inside the retention guarantee: the
            // device refuses I/O by design. Invariants must still hold.
            Err(AlmanacError::DeviceStalled { .. }) => break,
            Err(e) => prop_assert!(false, "unexpected device error: {}", e),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_invariants_hold_under_gc_interleavings(
        ops in proptest::collection::vec(op_strategy(12), 1..160),
    ) {
        let mut ssd = TimeSsd::new(small_config());
        let mut committed: HashMap<u64, HashSet<Nanos>> = HashMap::new();
        apply(&mut ssd, &ops, &mut committed)?;
        let empty = HashSet::new();
        for lpa in 0..12 {
            assert_chain_invariants(&ssd, lpa, committed.get(&lpa).unwrap_or(&empty))?;
        }
        let audit = ssd.check_consistency();
        prop_assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
    }

    #[test]
    fn chains_survive_rebuild_under_gc_interleavings(
        ops in proptest::collection::vec(op_strategy(10), 1..120),
    ) {
        let mut ssd = TimeSsd::new(small_config());
        let mut committed: HashMap<u64, HashSet<Nanos>> = HashMap::new();
        apply(&mut ssd, &ops, &mut committed)?;
        // Power-cycle through the §3.7 scan; structural invariants must
        // survive the round-trip (buffered deltas are legitimately lost).
        let rebuilt = TimeSsd::recover_from_flash(ssd.into_flash(), small_config());
        let empty = HashSet::new();
        for lpa in 0..10 {
            assert_chain_invariants(&rebuilt, lpa, committed.get(&lpa).unwrap_or(&empty))?;
        }
        let audit = rebuilt.check_consistency();
        prop_assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
    }

    #[test]
    fn head_tracks_last_committed_write(
        ops in proptest::collection::vec(op_strategy(8), 1..100),
    ) {
        let mut ssd = TimeSsd::new(small_config());
        let mut now = SEC_NS;
        let mut version = 1u64;
        // Last acknowledged state per LPA: Some(content) or None after trim.
        let mut latest: HashMap<u64, Option<PageData>> = HashMap::new();
        for op in &ops {
            let result = match op {
                Op::Write { lpa } => {
                    let data = PageData::Synthetic { seed: *lpa, version };
                    version += 1;
                    let r = ssd.write(Lpa(*lpa), data.clone(), now);
                    if r.is_ok() {
                        latest.insert(*lpa, Some(data));
                    }
                    r
                }
                Op::Trim { lpa } => {
                    let r = ssd.trim(Lpa(*lpa), now);
                    if r.is_ok() {
                        latest.insert(*lpa, None);
                    }
                    r
                }
                Op::Flush | Op::Idle => {
                    now += 500 * SEC_NS;
                    continue;
                }
            };
            match result {
                Ok(c) => now = c.finish + 20_000,
                Err(AlmanacError::DeviceStalled { .. }) => break,
                Err(e) => prop_assert!(false, "unexpected device error: {}", e),
            }
        }
        for (lpa, want) in &latest {
            match want {
                Some(data) => {
                    let (got, _) = ssd.read(Lpa(*lpa), now).unwrap();
                    prop_assert_eq!(&got, data, "L{} head diverged", lpa);
                }
                None => {
                    let (got, _) = ssd.read(Lpa(*lpa), now).unwrap();
                    prop_assert_eq!(&got, &PageData::Zeros, "L{} not zero after trim", lpa);
                }
            }
        }
    }
}

// One walk per LPA: the lazy walk, the folds that stop it early and
// `decode` must answer exactly what the full chain defines.

/// `small_config` with a one-second retention floor, so GC pressure and
/// idle gaps drop filters inside a short history.
fn churn_config(key: Option<u64>) -> SsdConfig {
    let cfg = small_config().with_min_retention(SEC_NS);
    match key {
        Some(key) => cfg.with_retention_key(key),
        None => cfg,
    }
}

/// A host that remembers what every acknowledged write stored, by LPA and
/// version timestamp. Odd versions carry real bytes, so their deltas go
/// through the XOR+LZF codec (and the keystream, under a retention key).
struct Host {
    now: Nanos,
    version: u64,
    written: HashMap<(Lpa, Nanos), PageData>,
}

impl Host {
    fn new() -> Self {
        Host {
            now: SEC_NS,
            version: 1,
            written: HashMap::new(),
        }
    }

    /// Applies `ops`, stopping at the first stall.
    fn apply(&mut self, ssd: &mut TimeSsd, ops: &[Op]) -> Result<(), TestCaseError> {
        for op in ops {
            let result = match op {
                Op::Write { lpa } => {
                    let data = if self.version % 2 == 1 {
                        PageData::bytes(format!("L{lpa} v{}", self.version).into_bytes())
                    } else {
                        PageData::Synthetic {
                            seed: *lpa,
                            version: self.version,
                        }
                    };
                    self.version += 1;
                    let r = ssd.write(Lpa(*lpa), data.clone(), self.now);
                    if let Ok(c) = &r {
                        self.written.insert((Lpa(*lpa), c.start), data);
                    }
                    r
                }
                Op::Trim { lpa } => ssd.trim(Lpa(*lpa), self.now),
                Op::Flush => ssd.flush(self.now),
                Op::Idle => {
                    self.now += 500 * SEC_NS;
                    continue;
                }
            };
            match result {
                Ok(c) => self.now = c.finish + 20_000,
                Err(AlmanacError::DeviceStalled { .. }) => break,
                Err(e) => prop_assert!(false, "unexpected device error: {}", e),
            }
        }
        Ok(())
    }

    /// Asserts that `data`, decoded for `v`, is what the host wrote as `v`.
    fn assert_wrote(&self, v: &VersionInfo, data: &PageData) -> Result<(), TestCaseError> {
        let page = 4096;
        let wrote = self.written.get(&(v.lpa, v.timestamp));
        prop_assert!(wrote.is_some(), "{:?} was never written", v);
        prop_assert!(
            wrote.map(|w| w.materialize(page)) == Some(data.materialize(page)),
            "{:?} decodes to another version's bytes",
            v
        );
        Ok(())
    }
}

/// For every LPA below `lpas`: a walk paused anywhere resumes where it
/// stopped, `version_as_of` and `versions_in` equal their definitions over
/// the full chain at every version's timestamp, its neighbours, the trim
/// instant and both ends of time, and `decode` of each version equals
/// `version_content` and the bytes the host wrote. Returns how many versions
/// decoded.
fn assert_one_walk_equivalences(
    ssd: &TimeSsd,
    host: &Host,
    lpas: u64,
) -> Result<usize, TestCaseError> {
    let mut decoded = 0;
    for l in 0..lpas {
        let lpa = Lpa(l);
        let chain = ssd.version_chain(lpa);
        for k in 0..=chain.len() {
            let mut walk = ssd.versions(lpa);
            let mut split: Vec<VersionInfo> = walk.by_ref().take(k).collect();
            split.extend(walk);
            prop_assert_eq!(&split, &chain, "L{} walk paused after {}", l, k);
        }

        let trimmed = ssd.trimmed_at(lpa);
        let mut instants = vec![0, Nanos::MAX];
        for v in &chain {
            instants.extend([v.timestamp - 1, v.timestamp, v.timestamp + 1]);
        }
        instants.extend(trimmed);
        instants.sort_unstable();
        instants.dedup();
        for &t in &instants {
            let as_of = match trimmed {
                Some(trim) if trim <= t => None,
                _ => chain.iter().find(|v| v.timestamp <= t).copied(),
            };
            prop_assert_eq!(ssd.version_as_of(lpa, t), as_of, "L{} as of {}", l, t);
            for &from in &instants {
                let window: Vec<VersionInfo> = chain
                    .iter()
                    .filter(|v| v.timestamp >= from && v.timestamp <= t)
                    .copied()
                    .collect();
                let got: Vec<VersionInfo> = ssd.versions_in(lpa, from, t).collect();
                prop_assert_eq!(got, window, "L{} in [{}, {}]", l, from, t);
            }
        }

        for v in &chain {
            let data = ssd.decode(v);
            prop_assert_eq!(&data, &ssd.version_content(lpa, v.timestamp), "{:?}", v);
            if let Ok(data) = data {
                host.assert_wrote(v, &data)?;
                decoded += 1;
            }
        }
    }
    Ok(decoded)
}

/// Decodes versions found before a stretch of history: each yields the bytes
/// the host wrote as that version, which `version_content` still finds, or
/// an error, never another version's bytes. Returns how many still decoded
/// and how many were refused.
fn assert_kept_versions_decode_or_refuse(
    ssd: &TimeSsd,
    host: &Host,
    kept: &[VersionInfo],
) -> Result<(usize, usize), TestCaseError> {
    let (mut decoded, mut refused) = (0, 0);
    for v in kept {
        match ssd.decode(v) {
            Ok(data) => {
                host.assert_wrote(v, &data)?;
                prop_assert_eq!(
                    ssd.version_content(v.lpa, v.timestamp)
                        .map(|d| d.materialize(4096)),
                    Ok(data.materialize(4096)),
                    "{:?} decodes, but the walk finds otherwise",
                    v
                );
                decoded += 1;
            }
            Err(_) => refused += 1,
        }
    }
    Ok((decoded, refused))
}

fn all_versions(ssd: &TimeSsd, lpas: u64) -> Vec<VersionInfo> {
    (0..lpas).flat_map(|l| ssd.versions(Lpa(l))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_walk_matches_the_full_chain_under_a_retention_key(
        ops in proptest::collection::vec(op_strategy(12), 1..200),
    ) {
        let mut ssd = TimeSsd::new(churn_config(Some(0x5EED_0FA1)));
        let mut host = Host::new();
        host.apply(&mut ssd, &ops)?;
        assert_one_walk_equivalences(&ssd, &host, 12)?;
    }

    #[test]
    fn one_walk_matches_the_full_chain_after_a_rebuild(
        ops in proptest::collection::vec(op_strategy(12), 1..200),
    ) {
        let mut ssd = TimeSsd::new(churn_config(None));
        let mut host = Host::new();
        host.apply(&mut ssd, &ops)?;
        // Unflushed delta buffers die here, so delta back-pointers can name
        // lost pages: the rebuilt walk reconnects through its repair index.
        let mut flash = ssd.into_flash();
        flash.revive();
        let rebuilt = TimeSsd::recover_from_flash(flash, churn_config(None));
        assert_one_walk_equivalences(&rebuilt, &host, 12)?;
    }

    #[test]
    fn kept_versions_decode_to_their_own_bytes_or_refuse(
        before in proptest::collection::vec(op_strategy(12), 1..120),
        after in proptest::collection::vec(op_strategy(12), 1..200),
    ) {
        let mut ssd = TimeSsd::new(churn_config(Some(0x5EED_0FA1)));
        let mut host = Host::new();
        host.apply(&mut ssd, &before)?;
        let kept = all_versions(&ssd, 12);
        host.apply(&mut ssd, &after)?;
        assert_kept_versions_decode_or_refuse(&ssd, &host, &kept)?;
    }
}

/// The equivalences above are not vacuous: a scripted history overwrites,
/// trims, runs GC, compresses into deltas and drops filters, and afterwards
/// versions found before the churn include both survivors and refusals.
#[test]
fn one_walk_equivalences_see_gc_deltas_drops_and_refusals() {
    let round = |lpas: u64, idle_every: u64| -> Vec<Op> {
        (0..lpas * 8)
            .flat_map(|i| {
                let lpa = i % lpas;
                let mut ops = vec![Op::Write { lpa }];
                if i % 13 == 5 {
                    ops.push(Op::Trim {
                        lpa: (lpa + 3) % lpas,
                    });
                }
                if (i + 1).is_multiple_of(idle_every) {
                    ops.push(Op::Idle);
                }
                ops
            })
            .collect()
    };
    let mut ssd = TimeSsd::new(churn_config(Some(0x5EED_0FA1)));
    let mut host = Host::new();
    host.apply(&mut ssd, &round(12, 17)).unwrap();
    let kept = all_versions(&ssd, 12);
    let drops_before = ssd.stats().filters_dropped;
    host.apply(&mut ssd, &round(12, 9)).unwrap();

    let stats = ssd.stats();
    assert!(stats.gc_erases > 0, "no GC ran");
    assert!(stats.delta_programs > 0, "nothing was compressed");
    assert!(stats.filters_dropped > drops_before, "no filter dropped");
    let deltas = all_versions(&ssd, 12)
        .iter()
        .filter(|v| v.location != VersionLocation::DataPage(v.location.ppa()))
        .count();
    assert!(deltas > 0, "no version lives in a delta page");
    assert!(assert_one_walk_equivalences(&ssd, &host, 12).unwrap() > 0);
    let (decoded, refused) = assert_kept_versions_decode_or_refuse(&ssd, &host, &kept).unwrap();
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );

    let mut flash = ssd.into_flash();
    flash.revive();
    let rebuilt = TimeSsd::recover_from_flash(flash, churn_config(Some(0x5EED_0FA1)));
    assert!(assert_one_walk_equivalences(&rebuilt, &host, 12).unwrap() > 0);
}
