//! Crash-recovery sweep for TimeSSD (§3.7–3.8 power-loss path).
//!
//! A scripted, seed-deterministic workload drives the device while a golden
//! (fault-free) run records which flash-op windows contained GC erases,
//! delta-page programs, and Bloom-filter rotations. The sweep then replays
//! the same script against fresh devices whose `FaultPlan` cuts power at an
//! exact flash-op index inside those windows — so cuts land mid-GC
//! migration, mid-delta-coalesce, mid-filter-rotation, and (in a dedicated
//! sweep) on both sides of the trim-journal program, plus evenly spaced
//! generic points — and for every cut asserts:
//!
//! - the dead device hands back only its flash (`into_flash`), which is
//!   revived and rebuilt through `TimeSsd::recover_from_flash`;
//! - every version that was on flash at the instant of the cut (everything
//!   the dead device's own index could reach, minus volatile delta buffers)
//!   is still reachable on the rebuilt device, with byte-identical content,
//!   via the version chain, `AddrQuery`, and `TimeQuery` (a durable trim
//!   tombstone newer than the version legitimately hides it from
//!   `AddrQuery`'s current-state view — the history stays behind it);
//! - the rebuilt device passes the `check_consistency` audit and keeps
//!   serving writes;
//! - the same fault seed reproduces byte-identical flash state
//!   (`state_digest`) across runs.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use almanac_core::{
    AlmanacError, FlashGuardSsd, RegularSsd, SsdConfig, SsdDevice, SsdReadOps, TimeSsd,
    VersionLocation,
};
use almanac_flash::{FaultPlan, FlashError, Geometry, Lpa, Nanos, PageData, DAY_NS};
use almanac_kits::TimeKits;

const FAULT_SEED: u64 = 0x0fa1_7001;
/// Virtual-time gap between host ops; long enough for some idle compression.
const OP_GAP: Nanos = 50_000;

fn base_config() -> SsdConfig {
    let mut cfg = SsdConfig::new(Geometry::medium_test());
    // Small filters force rotations within the scripted workload.
    cfg.bloom.capacity = 512;
    cfg
}

/// Strict-mode config: a watermark of 1 flushes the trim journal on every
/// trim, restoring the per-trim durability the trim-ack sweep asserts.
fn strict_config() -> SsdConfig {
    base_config().with_trim_journal_watermark(1)
}

#[derive(Debug, Clone, Copy)]
enum HostOp {
    Write(Lpa, u64),
    Trim(Lpa),
    Flush,
}

/// The scripted workload: six rounds of round-robin overwrites over a third
/// of the exported space — steady pressure that triggers GC, delta
/// compression, and filter rotations without stalling the §3.4 retention
/// guarantee — plus periodic trims. Fully deterministic.
fn script(cfg: &SsdConfig) -> Vec<HostOp> {
    let set = cfg.exported_pages() / 3;
    let mut version = 1u64;
    let mut ops = Vec::with_capacity((set * 6) as usize);
    for i in 0..set * 6 {
        if i % 29 == 17 {
            ops.push(HostOp::Trim(Lpa((i * 7) % set)));
        } else {
            ops.push(HostOp::Write(Lpa(i % set), version));
            version += 1;
        }
    }
    ops
}

fn content(lpa: Lpa, version: u64) -> PageData {
    PageData::Synthetic {
        seed: lpa.0,
        version,
    }
}

/// Host-side ground truth accumulated during a replay: every acknowledged
/// write keyed by its device timestamp, and each LPA's latest state.
#[derive(Default)]
struct Model {
    committed: BTreeMap<(u64, Nanos), u64>,
    latest: BTreeMap<u64, Option<u64>>, // None = trimmed
}

/// One host op's span in the flash-op sequence, from the golden run.
#[derive(Debug, Clone, Copy)]
struct OpWindow {
    before: u64,
    after: u64,
    gc: bool,
    delta: bool,
    rotation: bool,
}

enum RunEnd {
    Completed(TimeSsd),
    Cut(TimeSsd),
}

/// Replays the script. A fault-free config completes; a config whose plan
/// cuts power returns the dead device at the first `PowerLoss`.
fn run(cfg: SsdConfig, ops: &[HostOp]) -> (RunEnd, Model, Vec<OpWindow>) {
    let mut ssd = TimeSsd::new(cfg);
    let mut model = Model::default();
    let mut windows = Vec::with_capacity(ops.len());
    let mut now = OP_GAP;
    for op in ops {
        let before = ssd.flash().ops_issued();
        let gc0 = ssd.stats().gc_erases;
        let delta0 = ssd.stats().delta_programs;
        let filters0 = ssd.live_filters();
        let result = match *op {
            HostOp::Write(lpa, version) => {
                ssd.write(lpa, content(lpa, version), now).inspect(|c| {
                    model.committed.insert((lpa.0, c.start), version);
                    model.latest.insert(lpa.0, Some(version));
                })
            }
            HostOp::Trim(lpa) => ssd.trim(lpa, now).inspect(|_| {
                model.latest.insert(lpa.0, None);
            }),
            HostOp::Flush => ssd.flush(now),
        };
        match result {
            Ok(c) => now = c.finish + OP_GAP,
            Err(AlmanacError::Flash(FlashError::PowerLoss)) => {
                return (RunEnd::Cut(ssd), model, windows);
            }
            Err(e) => panic!("unexpected device error: {e}"),
        }
        windows.push(OpWindow {
            before,
            after: ssd.flash().ops_issued(),
            gc: ssd.stats().gc_erases > gc0,
            delta: ssd.stats().delta_programs > delta0,
            rotation: ssd.live_filters() != filters0,
        });
    }
    (RunEnd::Completed(ssd), model, windows)
}

/// Picks the sweep's cut points from the golden run: up to three mid-GC,
/// three mid-delta-write, and two mid-rotation cuts (midpoint of the host
/// op's flash-op span), topped up with evenly spaced generic points.
fn pick_cut_points(windows: &[OpWindow]) -> Vec<u64> {
    let mut cuts = BTreeSet::new();
    let mid = |w: &OpWindow| (w.before + w.after) / 2;
    for (flag, quota) in [(0, 3usize), (1, 3), (2, 2)] {
        let mut taken = 0;
        for w in windows {
            let hit = match flag {
                0 => w.gc,
                1 => w.delta,
                _ => w.rotation,
            };
            if hit && w.after > w.before && taken < quota {
                cuts.insert(mid(w));
                taken += 1;
            }
        }
        assert!(
            taken > 0,
            "golden run produced no window for category {flag} (0=gc, 1=delta, 2=rotation); \
             the workload must cover all three"
        );
    }
    let total = windows.last().expect("non-empty script").after;
    let mut k = 1;
    while cuts.len() < 8 && k <= 16 {
        cuts.insert(total * k / 17);
        k += 1;
    }
    assert!(cuts.len() >= 8, "sweep needs at least 8 cut points");
    cuts.into_iter().collect()
}

fn cut_config(cut: u64) -> SsdConfig {
    base_config().with_fault_plan(FaultPlan::new(FAULT_SEED).with_power_cut_at(cut))
}

/// Everything the dead device's index can still reach on flash. Versions in
/// volatile delta buffers are legitimately lost with the cut and excluded.
fn surviving_versions(ssd: &TimeSsd, exported: u64) -> Vec<(Lpa, Nanos, PageData)> {
    let mut out = Vec::new();
    for l in 0..exported {
        let lpa = Lpa(l);
        for v in ssd.version_chain(lpa) {
            if matches!(v.location, VersionLocation::BufferedDelta(_)) {
                continue;
            }
            let data = ssd
                .version_content(lpa, v.timestamp)
                .unwrap_or_else(|e| panic!("dead device cannot decode L{l}@{}: {e}", v.timestamp));
            out.push((lpa, v.timestamp, data));
        }
    }
    out
}

/// Runs one cut end-to-end and returns `(dead flash digest, survivor count)`
/// so callers can assert cross-run determinism.
fn check_cut(cut: u64, ops: &[HostOp]) -> (u64, usize) {
    let (end, model, _) = run(cut_config(cut), ops);
    let RunEnd::Cut(dead) = end else {
        panic!("cut at op {cut} never fired");
    };
    let exported = dead.exported_pages();
    let survivors = surviving_versions(&dead, exported);
    let digest = dead.flash().state_digest();

    // §3.7: power restored, RAM gone, device rebuilt from the flash scan.
    let mut flash = dead.into_flash();
    assert!(flash.powered_off());
    flash.revive();
    let mut rebuilt = TimeSsd::recover_from_flash(flash, base_config());

    let audit = rebuilt.check_consistency();
    assert!(
        audit.is_clean(),
        "cut {cut}: rebuilt device failed consistency audit: {:?}",
        audit.violations
    );

    for (lpa, ts, ref data) in &survivors {
        let chain = rebuilt.version_chain(*lpa);
        assert!(
            chain.iter().any(|v| v.timestamp == *ts),
            "cut {cut}: {lpa}@{ts} was on flash before the cut but is unreachable after rebuild"
        );
        let got = rebuilt
            .version_content(*lpa, *ts)
            .unwrap_or_else(|e| panic!("cut {cut}: {lpa}@{ts} unreadable after rebuild: {e}"));
        assert_eq!(&got, data, "cut {cut}: {lpa}@{ts} content diverged");
        // Where the host model knows this version, the device agrees with it.
        if let Some(version) = model.committed.get(&(lpa.0, *ts)) {
            assert_eq!(
                &got,
                &content(*lpa, *version),
                "cut {cut}: {lpa}@{ts} does not match the acknowledged write"
            );
        }
    }

    // The host-facing query kits see the same history: AddrQuery over the
    // whole device and a full-range TimeQuery must cover every survivor.
    let survivor_count = survivors.len();
    {
        let kits = TimeKits::new(&mut rebuilt);
        let out = kits
            .query(Lpa(0), exported)
            .as_of(Nanos::MAX)
            .run()
            .expect("AddrQuery over rebuilt device");
        let heads: BTreeMap<u64, Nanos> = out.hits.iter().map(|h| (h.lpa.0, h.timestamp)).collect();
        let (time_hits, _) = kits.time_query(0);
        let mut stamps: BTreeMap<u64, BTreeSet<Nanos>> = BTreeMap::new();
        for h in &time_hits {
            stamps.entry(h.lpa.0).or_default().extend(&h.timestamps);
        }
        for (lpa, ts, _) in &survivors {
            assert!(
                stamps.get(&lpa.0).is_some_and(|s| s.contains(ts)),
                "cut {cut}: TimeQuery missed surviving {lpa}@{ts}"
            );
            // A durable trim tombstone newer than the version is the one
            // legitimate reason for AddrQuery to report no current state:
            // the page was deleted, its history retained behind the
            // tombstone (§3.7 crash contract).
            let tombstoned = kits.ssd().trimmed_at(*lpa).is_some_and(|t| t > *ts);
            assert!(
                tombstoned || heads.get(&lpa.0).is_some_and(|head| head >= ts),
                "cut {cut}: AddrQuery head older than surviving {lpa}@{ts}"
            );
        }
    }

    // And the rebuilt device still takes writes.
    let t = rebuilt
        .write(
            Lpa(0),
            PageData::bytes(b"post-crash".to_vec()),
            u64::MAX / 4,
        )
        .expect("rebuilt device must serve writes");
    let (data, _) = rebuilt.read(Lpa(0), t.finish + 1).unwrap();
    assert_eq!(data, PageData::bytes(b"post-crash".to_vec()));

    (digest, survivor_count)
}

#[test]
fn golden_run_covers_all_fault_windows() {
    let cfg = base_config();
    let ops = script(&cfg);
    let (end, model, windows) = run(cfg, &ops);
    let RunEnd::Completed(ssd) = end else {
        panic!("fault-free run must complete");
    };
    assert!(ssd.stats().gc_erases > 0, "workload never triggered GC");
    assert!(
        ssd.stats().delta_programs > 0,
        "workload never wrote a delta page"
    );
    assert!(
        windows.iter().any(|w| w.rotation),
        "workload never rotated a Bloom filter"
    );
    assert!(!model.committed.is_empty());
}

#[test]
fn power_cut_sweep_recovers_every_committed_version() {
    let cfg = base_config();
    let ops = script(&cfg);
    let (_, _, windows) = run(cfg, &ops);
    let cuts = pick_cut_points(&windows);
    for &cut in &cuts {
        check_cut(cut, &ops);
    }
}

#[test]
fn same_fault_seed_reproduces_byte_identical_state() {
    let cfg = base_config();
    let ops = script(&cfg);
    let (_, _, windows) = run(cfg, &ops);
    // A mid-GC window is the most internally complex cut; prove even that
    // one is bit-for-bit reproducible.
    let w = windows.iter().find(|w| w.gc).expect("workload triggers GC");
    let cut = (w.before + w.after) / 2;
    let (digest_a, survivors_a) = check_cut(cut, &ops);
    let (digest_b, survivors_b) = check_cut(cut, &ops);
    assert_eq!(digest_a, digest_b, "flash state diverged between runs");
    assert_eq!(survivors_a, survivors_b);
}

/// Cut points bracketing the §3.7 trim-journal write path, in strict mode
/// (`trim_journal_watermark == 1`, the pre-batching behaviour): a trim of a
/// mapped LPA journals a durable TRIM record (and flushes it) *before* any
/// RAM state changes, so the crash contract is exact:
///
/// - cut before any of the trim's flash ops, or killing the journal program
///   itself → the trim was never acknowledged, and the rebuilt device must
///   resurrect the pre-trim state (the last acknowledged write);
/// - cut after the trim's last flash op → the trim was acknowledged, and
///   the rebuilt device must keep the tombstone: unmapped, `trimmed_at`
///   set, reads as zeros.
///
/// Either way the expected state is exactly the cut run's own model of the
/// last acknowledged op on that LPA.
#[test]
fn trim_journal_cut_points_enforce_acknowledged_trim_state() {
    let cfg = strict_config();
    let ops = script(&cfg);
    let (_, _, windows) = run(cfg, &ops);

    let mut acked_tombstones = 0;
    let mut unacked_trims = 0;
    let mut picked = 0;
    for (i, w) in windows.iter().enumerate() {
        let HostOp::Trim(lpa) = ops[i] else { continue };
        // Only journaled trims: the window's delta program is the journal
        // flush (a trim of an unmapped LPA touches no flash).
        if !w.delta || w.after <= w.before {
            continue;
        }
        if picked == 4 {
            break;
        }
        picked += 1;

        // Three cuts: before the trim's first flash op, on its last flash
        // op (the journal program dies), and right after the ack.
        for cut in [w.before, w.after - 1, w.after] {
            if cut == 0 {
                continue;
            }
            let (end, model, cut_windows) = run(
                strict_config().with_fault_plan(FaultPlan::new(FAULT_SEED).with_power_cut_at(cut)),
                &ops,
            );
            let RunEnd::Cut(dead) = end else {
                panic!("cut at flash op {cut} never fired");
            };
            // The op that hit the cut was never acknowledged; if it is a
            // *later* op touching the same LPA, it may or may not have
            // reached flash and the expected state is ambiguous — skip.
            let dying = cut_windows.len();
            let unrelated_collision = dying != i
                && matches!(
                    ops.get(dying),
                    Some(HostOp::Write(l, _) | HostOp::Trim(l)) if *l == lpa
                );
            if unrelated_collision {
                continue;
            }

            let mut flash = dead.into_flash();
            flash.revive();
            let mut rebuilt = TimeSsd::recover_from_flash(flash, strict_config());
            let audit = rebuilt.check_consistency();
            assert!(
                audit.is_clean(),
                "trim cut {cut}: rebuilt device failed audit: {:?}",
                audit.violations
            );

            match model.latest.get(&lpa.0) {
                Some(Some(version)) => {
                    // Last acknowledged op was a write: the trim must not
                    // have applied.
                    unacked_trims += 1;
                    assert!(
                        rebuilt.is_mapped(lpa),
                        "trim cut {cut}: unacknowledged trim of {lpa} stuck"
                    );
                    let (data, _) = rebuilt.read(lpa, u64::MAX / 4).unwrap();
                    assert_eq!(
                        data,
                        content(lpa, *version),
                        "trim cut {cut}: {lpa} lost its pre-trim content"
                    );
                }
                Some(None) => {
                    // Last acknowledged op was a trim: the journaled
                    // tombstone must have survived the cut.
                    acked_tombstones += 1;
                    assert!(
                        !rebuilt.is_mapped(lpa),
                        "trim cut {cut}: acknowledged trim of {lpa} resurrected"
                    );
                    assert!(
                        rebuilt.trimmed_at(lpa).is_some(),
                        "trim cut {cut}: {lpa} tombstone lost in rebuild"
                    );
                    let (data, _) = rebuilt.read(lpa, u64::MAX / 4).unwrap();
                    assert_eq!(
                        data,
                        PageData::Zeros,
                        "trim cut {cut}: trimmed {lpa} reads stale data"
                    );
                }
                None => {
                    // Never acknowledged anything for this LPA.
                    assert!(!rebuilt.is_mapped(lpa));
                }
            }
        }
    }
    assert!(picked >= 2, "script journaled too few trims to sweep");
    assert!(
        acked_tombstones > 0 && unacked_trims > 0,
        "sweep must exercise both sides of the trim ack boundary \
         (acked {acked_tombstones}, unacked {unacked_trims})"
    );
}

/// A scripted workload with explicit flush barriers: rounds of writes plus
/// a few trims (below the journal watermark, so their tombstones sit in
/// RAM) closed by a `flush`. Every flush is followed by writes, so a cut
/// right after the barrier's last flash op kills the *next* host op and the
/// model state at the cut is exactly the state the barrier acknowledged.
fn barrier_script(cfg: &SsdConfig) -> Vec<HostOp> {
    let set = cfg.exported_pages() / 4;
    let mut version = 1u64;
    let mut ops = Vec::new();
    for r in 0..4u64 {
        for i in 0..36 {
            ops.push(HostOp::Write(Lpa((r * 7 + i) % set), version));
            version += 1;
        }
        for j in 0..3 {
            ops.push(HostOp::Trim(Lpa((r * 7 + j) % set)));
        }
        ops.push(HostOp::Flush);
    }
    // Tail writes so even the last flush has a successor op to die in.
    for i in 0..8 {
        ops.push(HostOp::Write(Lpa(i % set), version + i));
    }
    ops
}

/// Cut points bracketing the flush barrier's flash-op window under the
/// *batched* tombstone journal (default watermark — acked trims are
/// volatile between barriers):
///
/// - cut before the flush's first flash op, or killing its last program →
///   the barrier was never acknowledged, so no new durability was promised;
///   the rebuilt device must still pass the audit and keep serving I/O;
/// - cut immediately after the ack (the next host op's first flash op
///   dies) → zero waivers: the rebuilt device must reproduce the acked
///   state exactly — every acked write mapped with its content, every
///   acked trim tombstoned, nothing resurrected.
#[test]
fn flush_barrier_cut_points_make_acked_state_durable() {
    let cfg = base_config();
    let ops = barrier_script(&cfg);
    let (end, _, windows) = run(cfg, &ops);
    assert!(
        matches!(end, RunEnd::Completed(_)),
        "golden run must complete"
    );

    let mut acked_cuts = 0;
    let mut unacked_cuts = 0;
    let mut durable_tombstones = 0;
    for (i, w) in windows.iter().enumerate() {
        let HostOp::Flush = ops[i] else { continue };
        // A barrier with nothing buffered programs no flash; the sweep
        // wants barriers that actually move tombstones to flash.
        if w.after <= w.before {
            continue;
        }
        for cut in [w.before, w.after - 1, w.after] {
            if cut == 0 {
                continue;
            }
            let (end, model, cut_windows) = run(cut_config(cut), &ops);
            let RunEnd::Cut(dead) = end else {
                panic!("cut at flash op {cut} never fired");
            };
            let dying = cut_windows.len();
            let mut flash = dead.into_flash();
            flash.revive();
            let mut rebuilt = TimeSsd::recover_from_flash(flash, base_config());
            let audit = rebuilt.check_consistency();
            assert!(
                audit.is_clean(),
                "barrier cut {cut}: rebuilt device failed audit: {:?}",
                audit.violations
            );

            if cut == w.after && dying == i + 1 {
                // The barrier was acknowledged and nothing later reached
                // flash: the acked state must be reproduced verbatim.
                acked_cuts += 1;
                for (&lpa, state) in &model.latest {
                    let lpa = Lpa(lpa);
                    match state {
                        Some(version) => {
                            assert!(
                                rebuilt.is_mapped(lpa),
                                "barrier cut {cut}: acked write of {lpa} lost"
                            );
                            let (data, _) = rebuilt.read(lpa, u64::MAX / 4).unwrap();
                            assert_eq!(
                                data,
                                content(lpa, *version),
                                "barrier cut {cut}: {lpa} lost its barriered content"
                            );
                        }
                        None => {
                            durable_tombstones += 1;
                            assert!(
                                !rebuilt.is_mapped(lpa),
                                "barrier cut {cut}: barriered trim of {lpa} resurrected"
                            );
                            assert!(
                                rebuilt.trimmed_at(lpa).is_some(),
                                "barrier cut {cut}: {lpa} tombstone lost despite the barrier"
                            );
                            let (data, _) = rebuilt.read(lpa, u64::MAX / 4).unwrap();
                            assert_eq!(data, PageData::Zeros);
                        }
                    }
                }
            } else {
                // Mid-barrier (or pre-barrier) cut: the flush never acked,
                // so batched tombstones may be gone — only liveness and
                // internal consistency are demanded.
                unacked_cuts += 1;
                let t = rebuilt
                    .write(Lpa(0), PageData::bytes(b"post-cut".to_vec()), u64::MAX / 4)
                    .expect("rebuilt device must serve writes");
                let (data, _) = rebuilt.read(Lpa(0), t.finish + 1).unwrap();
                assert_eq!(data, PageData::bytes(b"post-cut".to_vec()));
            }
        }
    }
    assert!(
        acked_cuts > 0 && unacked_cuts > 0,
        "sweep must land on both sides of the barrier ack \
         (acked {acked_cuts}, unacked {unacked_cuts})"
    );
    assert!(
        durable_tombstones > 0,
        "no acked-barrier cut covered a batched tombstone"
    );
}

#[test]
fn power_loss_surfaces_as_error_not_panic() {
    let cfg = base_config().with_fault_plan(FaultPlan::new(1).with_power_cut_at(0));
    let mut ssd = TimeSsd::new(cfg);
    let err = ssd
        .write(Lpa(0), content(Lpa(0), 1), OP_GAP)
        .expect_err("first flash op is past the cut");
    assert!(matches!(err, AlmanacError::Flash(FlashError::PowerLoss)));
}

#[test]
fn injected_op_faults_propagate_through_the_ftl() {
    // Fail the very first program: the user write must surface the injected
    // error, and the device must stay alive for the retry.
    let cfg = base_config().with_fault_plan(FaultPlan::new(2).with_program_fault(0));
    let mut ssd = TimeSsd::new(cfg);
    let err = ssd
        .write(Lpa(3), content(Lpa(3), 1), OP_GAP)
        .expect_err("program fault must propagate");
    assert!(matches!(
        err,
        AlmanacError::Flash(FlashError::Injected { .. })
    ));
    // Retry succeeds (the fault was one-shot) and the data is intact.
    let c = ssd.write(Lpa(3), content(Lpa(3), 1), 2 * OP_GAP).unwrap();
    let (data, _) = ssd.read(Lpa(3), c.finish + 1).unwrap();
    assert_eq!(data, content(Lpa(3), 1));
}

/// A failed program or erase must cost the host exactly the one write it
/// hit, on every FTL, and leave the device usable. Regression: only TimeSSD
/// rewound the allocator slot (`Allocator::unreserve_page`); on the
/// baselines the allocator ran one page ahead of the chip's write pointer,
/// so every later write into that block failed with `NonSequentialProgram`
/// until the block was used up (7 errors instead of 1 for a fault on the
/// fourth program).
///
/// The workload fills three quarters of the device, then rewrites the even
/// LPAs six times: GC victims stay half valid, so the swept program index
/// lands on host programs and on each FTL's own migration programs (every
/// FTL issues more than 520 programs here), and the swept erase index on GC
/// erases of data and of delta blocks (every FTL erases at least 24
/// blocks). Ops are three hours apart over 16-entry Bloom filters, so
/// TimeSSD's retention window keeps moving and the tiny device never hits
/// the §3.4 stall.
fn flash_fault_costs_exactly_one_write<D: SsdDevice>(make: impl Fn(SsdConfig) -> D) {
    let mut cfg = SsdConfig::new(Geometry::small_test());
    cfg.bloom.capacity = 16;
    let set = cfg.exported_pages() * 3 / 4;
    let lpas: Vec<u64> = (0..set)
        .chain((0..6).flat_map(|_| (0..set).step_by(2)))
        .collect();
    let plans = (0..520)
        .step_by(13)
        .map(|nth| FaultPlan::new(1).with_program_fault(nth))
        .chain((0..24).map(|nth| FaultPlan::new(1).with_erase_fault(nth)));
    for plan in plans {
        let mut ssd = make(cfg.clone().with_fault_plan(plan.clone()));
        let mut acked = BTreeMap::new();
        let mut errors = 0;
        let mut now = 0;
        for (version, &l) in (1u64..).zip(&lpas) {
            now += DAY_NS / 8;
            match ssd.write(Lpa(l), content(Lpa(l), version), now) {
                Ok(_) => {
                    acked.insert(l, version);
                }
                Err(_) => errors += 1,
            }
        }
        assert_eq!(errors, 1, "{}: {plan:?}", ssd.kind());
        for (&l, &version) in &acked {
            let (data, _) = ssd.read(Lpa(l), now + DAY_NS).unwrap();
            assert_eq!(data, content(Lpa(l), version), "{}: {l}", ssd.kind());
        }
    }
}

#[test]
fn program_fault_costs_exactly_one_write_on_every_ftl() {
    flash_fault_costs_exactly_one_write(RegularSsd::new);
    flash_fault_costs_exactly_one_write(FlashGuardSsd::new);
    flash_fault_costs_exactly_one_write(TimeSsd::new);
}

#[test]
fn oob_bitrot_degrades_to_partial_history_not_wrong_data() {
    // 6% of pages return corrupted OOB metadata. The device must keep
    // running (GC and chain walks included), never panic, and never present
    // content under a version label the host committed with different data.
    let cfg = base_config().with_fault_plan(FaultPlan::new(FAULT_SEED).with_oob_rot(60));
    let ops = script(&cfg);
    let (end, model, _) = run(cfg, &ops);
    let RunEnd::Completed(ssd) = end else {
        panic!("bit-rot must not kill the device");
    };
    // The audit may report violations (that is the point); it must complete.
    let _ = ssd.check_consistency();
    let exported = ssd.exported_pages();
    for l in 0..exported {
        let lpa = Lpa(l);
        for v in ssd.version_chain(lpa) {
            // Chains must stay well-ordered even when rot truncates them.
            let Ok(data) = ssd.version_content(lpa, v.timestamp) else {
                continue; // Err is graceful degradation, accepted.
            };
            if let Some(version) = model.committed.get(&(l, v.timestamp)) {
                assert_eq!(
                    data,
                    content(lpa, *version),
                    "rot returned wrong data for {lpa}@{}",
                    v.timestamp
                );
            }
            if v.is_head {
                if let Some(Some(latest)) = model.latest.get(&l) {
                    assert_eq!(
                        data,
                        content(lpa, *latest),
                        "rot corrupted the current content of {lpa}"
                    );
                }
            }
        }
    }
    // A rebuild over rotted flash also degrades gracefully: no panic, and
    // the device still serves I/O.
    let rotted = ssd.into_flash();
    let mut rebuilt = TimeSsd::recover_from_flash(rotted, base_config());
    let _ = rebuilt.check_consistency();
    let t = rebuilt
        .write(Lpa(1), PageData::bytes(b"after-rot".to_vec()), u64::MAX / 4)
        .expect("rebuilt-from-rot device must serve writes");
    let (data, _) = rebuilt.read(Lpa(1), t.finish + 1).unwrap();
    assert_eq!(data, PageData::bytes(b"after-rot".to_vec()));
}
