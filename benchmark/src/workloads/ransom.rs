//! `ransom_recover`: the paper's headline use case. All 13 ransomware
//! families, each on a clone of the warmed TimeSSD under
//! `AlmanacFs(Ext4NoJournal)`: plant → attack → Figure 10's 400-write settle →
//! `roll_back_set` to the pre-attack time. Closed loop, one client. The only
//! workload with real bytes: `textgen`, the fs write path, the XOR+LZF codec
//! in background compression and its decode on recovery.

use std::collections::HashMap;
use std::time::Instant;

use almanac_core::{SsdReadOps, TimeSsd, VersionLocation};
use almanac_flash::{Lpa, Nanos, PageData, SEC_NS};
use almanac_fs::{AlmanacFs, FsMode};
use almanac_kits::TimeKits;
use almanac_workloads::ransomware::{attack, families, AttackReport, Family};

use crate::device::{bench_config, flash_digest, fold_digests, settle, warm_fill, WARM_USAGE};
use crate::recorder::{Class, OpLog, Recorder};
use crate::run::{Counts, Ctx, Gate, Layers, Pass, Recorded, Scale, Workload};
use crate::spans::Spans;
use crate::workloads::query::roll_back_through;
use crate::{kernels, layers};

/// Workers of Figure 10's restore estimate: the device's channel count.
const RECOVERY_WORKERS: u32 = 8;
/// Page pairs handed to the codec kernel.
const CODEC_PAIRS: usize = 512;
const PAGE: usize = 4096;

pub struct RansomRecover {
    warm: TimeSsd,
    warm_end: Nanos,
    families: Vec<Family>,
    seed: u64,
}

/// One family's pass: timed window, device page ops, failures, Figure 10's
/// quantity, and the fingerprint lines.
struct FamilyPass {
    wall_s: f64,
    ops: u64,
    failed: u64,
    estimate_ns: Nanos,
    finger: Vec<String>,
}

/// What the traced run adds up over the thirteen families.
#[derive(Default)]
struct Traced {
    clone_s: f64,
    check_s: f64,
    attack_s: f64,
    /// Host time inside device calls during the attacks.
    attack_device_s: f64,
    recover_s: f64,
    recover_sim_ns: Nanos,
    recover_pages: usize,
    /// Victim versions the settle compressed: what recovery must decode.
    compressed_victims: usize,
    files: usize,
    file_bytes: u64,
    /// Device calls and page writes the file system issued.
    fs_ops: u64,
    fs_writes: u64,
    /// Real-byte versions displaced before recovery began.
    real_versions: usize,
    /// `(reference, old version)` samples for the codec kernel.
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
}

fn victim_pages(report: &AttackReport) -> Vec<Lpa> {
    let lpas = report.victims.iter().flat_map(|v| v.lpas.iter());
    lpas.copied().collect()
}

/// Every captured write or trim that displaced real bytes, as `(index of the
/// displacing entry, index of the displaced one)`: the `(reference, old
/// version)` pairs the delta codec meets when the old version is compressed.
fn displaced_bytes(captured: &[(Lpa, Nanos, PageData)]) -> Vec<(usize, usize)> {
    let mut current: HashMap<Lpa, usize> = HashMap::new();
    let mut pairs = Vec::new();
    for (new, (lpa, _, _)) in captured.iter().enumerate() {
        if let Some(old) = current.insert(*lpa, new) {
            if matches!(captured[old].2, PageData::Bytes(_)) {
                pairs.push((new, old));
            }
        }
    }
    pairs
}

/// Victim pages that do not hold the bytes planted before the attack.
fn wrong_victims(
    ssd: &TimeSsd,
    victims: &[Lpa],
    captured: &[(Lpa, Nanos, PageData)],
    pre_attack_time: Nanos,
) -> u64 {
    let mut planted: HashMap<Lpa, &PageData> = HashMap::new();
    for (lpa, _, data) in captured.iter().filter(|(_, at, _)| *at <= pre_attack_time) {
        planted.insert(*lpa, data);
    }
    let wrong = victims.iter().filter(|lpa| {
        let head = ssd
            .version_chain(**lpa)
            .first()
            .copied()
            .filter(|h| h.is_head);
        let now = head.and_then(|h| ssd.version_content(**lpa, h.timestamp).ok());
        match (planted.get(*lpa), now) {
            (Some(want), Some(have)) => {
                **want != have && want.materialize(PAGE) != have.materialize(PAGE)
            }
            _ => true,
        }
    });
    wrong.count() as u64
}

impl RansomRecover {
    fn family_pass(
        &self,
        family: &Family,
        ssd: &TimeSsd,
        (restored, victims): (usize, usize),
        estimate_ns: Nanos,
        wall_s: f64,
    ) -> FamilyPass {
        let since = ssd.stats().since(self.warm.stats());
        let name = family.name;
        FamilyPass {
            wall_s,
            ops: since.user_reads + since.user_writes + since.user_trims,
            failed: victims.saturating_sub(restored) as u64,
            estimate_ns,
            finger: vec![
                format!("{name} restored={restored}/{victims} estimate_ns={estimate_ns}"),
                format!("{name} stats={:?}", ssd.stats()),
                format!("{name} flash={:?}", ssd.flash().stats()),
                format!("{name} digest={:#018x}", flash_digest(ssd.flash())),
            ],
        }
    }

    fn sum(passes: Vec<FamilyPass>) -> Pass {
        Pass {
            wall_s: passes.iter().map(|p| p.wall_s).sum(),
            attempted: passes.iter().map(|p| p.ops).sum(),
            failed: passes.iter().map(|p| p.failed).sum(),
            makespan_ns: passes.iter().map(|p| p.estimate_ns).sum(),
            finger: passes.into_iter().flat_map(|p| p.finger).collect(),
        }
    }

    /// The fs layer's own host time for the attacks' file operations: the
    /// same create/write/read/overwrite-or-delete sequence with ready-made
    /// bodies on clones of the warmed device, wall time less the time spent
    /// inside device calls.
    fn fs_self_time(&self, spans: &mut Spans) -> f64 {
        const FILE_BYTES: usize = 256 * 1024;
        let plain = vec![0x61u8; FILE_BYTES];
        let cipher: Vec<u8> = (0..FILE_BYTES).map(|i| (i * 131 + 7) as u8).collect();
        let id = spans.enter("kernel fs");
        let mut self_s = 0.0;
        for family in &self.families {
            let files = family.victim_mib * 1024 * 1024 / FILE_BYTES as u64;
            let rec = Recorder::new(self.warm.clone(), true, false);
            let t0 = Instant::now();
            let mut fs = AlmanacFs::new(rec, FsMode::Ext4NoJournal).expect("format");
            let mut t = self.warm_end + SEC_NS;
            let mut fids = Vec::new();
            for i in 0..files {
                let (fid, ct) = fs.create(&format!("doc{i}.txt"), t).expect("create");
                t = fs.write(fid, 0, &plain, ct).expect("plant");
                fids.push(fid);
            }
            for (i, fid) in fids.into_iter().enumerate() {
                let (_, rt) = fs.read(fid, 0, FILE_BYTES as u64, t).expect("read");
                t = if family.deletes_originals {
                    let name = format!("doc{i}.txt.locked");
                    let (copy, ct) = fs.create(&name, rt).expect("create");
                    let wt = fs.write(copy, 0, &cipher, ct).expect("copy");
                    fs.delete(fid, wt).expect("delete")
                } else {
                    fs.write(fid, 0, &cipher, rt).expect("overwrite")
                };
            }
            let wall_s = t0.elapsed().as_secs_f64();
            self_s += wall_s - fs.device().log.device_host_s();
        }
        spans.exit(id);
        self_s.max(0.0)
    }

    fn layers(&self, l: &mut Layers, spans: &mut Spans, t: &Traced, counts: &Counts) {
        l.set("core.clone.host_s", t.clone_s);
        l.set("core.check.host_s", t.check_s);
        l.set("workloads.attack.host_s", t.attack_s);
        l.set("kits.recover.host_s", t.recover_s);
        l.set("kits.recover.sim_s", t.recover_sim_ns as f64 / 1e9);
        l.set("kits.recover.pages", t.recover_pages as f64);
        // One flash read per restored page, one more (the reference) and a
        // decode per compressed one: what `QueryCost` charges.
        l.set("kits.decompressions", t.compressed_victims as f64);
        l.set(
            "kits.flash_reads",
            (t.recover_pages + t.compressed_victims) as f64,
        );
        l.set("fs.files", t.files as f64);
        l.set("fs.device_ops", t.fs_ops as f64);
        l.set(
            "fs.write_amp",
            (t.fs_writes * PAGE as u64) as f64 / t.file_bytes.max(1) as f64,
        );
        // Each real-byte version is delta-encoded once when compressed; the
        // rest of the compressions are synthetic warm-fill pages the files
        // displaced (size model only).
        let compressions = counts.device.gc_compressions + counts.device.bg_compressions;
        l.set(
            "compress.pages",
            compressions.min(t.real_versions as u64) as f64,
        );
        let fs_self_s = self.fs_self_time(spans);
        l.set("fs.self_host_s", fs_self_s);
        // `textgen` is private to the workloads crate, so content generation
        // (plain text and cipher stream) is what is left of the attacks'
        // wall time after the device and the fs.
        l.set(
            "workloads.textgen.host_s",
            (t.attack_s - t.attack_device_s - fs_self_s).max(0.0),
        );
        kernels::compress(l, spans, &t.pairs);
    }
}

impl Workload for RansomRecover {
    fn setup(seed: u64, scale: Scale) -> Self {
        let mut warm = TimeSsd::new(bench_config());
        let warm_end = warm_fill(&mut warm, WARM_USAGE);
        let families = families()
            .into_iter()
            .map(|mut f| {
                f.victim_mib = scale.div(f.victim_mib);
                f
            })
            .collect();
        RansomRecover {
            warm,
            warm_end,
            families,
            seed,
        }
    }

    fn timed_rep(&self) -> Pass {
        let passes = self.families.iter().map(|family| {
            let dev = self.warm.clone();
            let t0 = Instant::now();
            let mut fs = AlmanacFs::new(dev, FsMode::Ext4NoJournal).expect("format");
            let report =
                attack(&mut fs, *family, self.seed, self.warm_end + SEC_NS).expect("attack");
            let victims = victim_pages(&report);
            let ssd = fs.device_mut();
            let recover_at = settle(ssd, report.attack_end);
            let mut kits = TimeKits::new(ssd);
            let estimate =
                kits.restore_cost_estimate(&victims, report.pre_attack_time, RECOVERY_WORKERS);
            let out = kits
                .roll_back_set(&victims, report.pre_attack_time, recover_at)
                .expect("rollback");
            let wall_s = t0.elapsed().as_secs_f64();
            let restored = (out.restored.len(), victims.len());
            self.family_pass(family, ssd, restored, estimate, wall_s)
        });
        Self::sum(passes.collect())
    }

    fn recorded(&self, ctx: &mut Ctx<'_>) -> Recorded {
        let mut passes = Vec::new();
        let mut log = OpLog::default();
        let mut counts = Counts::default();
        let mut digests = Vec::new();
        let (mut wrong_pages, mut checked_pages, mut violations) = (0, 0, 0);
        let mut t = Traced::default();
        let mut last = None;

        for family in &self.families {
            let id = ctx.spans.enter(format!("family {}", family.name));
            let (dev, secs) = ctx.spans.time("core.clone", || self.warm.clone());
            t.clone_s += secs;
            let t0 = Instant::now();
            let rec = Recorder::new(dev, ctx.traced, true);
            let mut fs = AlmanacFs::new(rec, FsMode::Ext4NoJournal).expect("format");
            let (report, secs) = ctx.spans.time("workloads.attack", || {
                attack(&mut fs, *family, self.seed, self.warm_end + SEC_NS).expect("attack")
            });
            let fs_log = &fs.device().log;
            t.attack_s += secs;
            t.attack_device_s += fs_log.device_host_s();
            t.fs_ops += fs_log.calls.iter().sum::<u64>();
            t.fs_writes += fs_log.calls[Class::Write as usize];
            t.files += report.victims.len();
            t.file_bytes += 2 * report.bytes_encrypted; // planted, then encrypted
            let victims = victim_pages(&report);
            let target = report.pre_attack_time;
            let rec = fs.device_mut();
            let recover_at = settle(rec, report.attack_end);
            // Versions displaced up to here are what the settle's background
            // compression encodes; recovery's own write-backs come after.
            let before_recovery = rec.log.captured.len();
            let estimate = TimeKits::new(rec.inner_mut()).restore_cost_estimate(
                &victims,
                target,
                RECOVERY_WORKERS,
            );
            if ctx.traced {
                let as_of = victims
                    .iter()
                    .filter_map(|l| rec.inner().version_as_of(*l, target));
                t.compressed_victims += as_of
                    .filter(|v| !matches!(v.location, VersionLocation::DataPage(_)))
                    .count();
            }
            let span = ctx.spans.enter("kits.recover");
            let rolled = roll_back_through(rec, &victims, target, recover_at).expect("rollback");
            let (restored, finish) = (rolled.restored, rolled.finish);
            t.recover_s += ctx.spans.exit(span);
            let wall_s = t0.elapsed().as_secs_f64();
            t.recover_sim_ns += finish - recover_at;
            t.recover_pages += restored;

            let (ssd, mut family_log) = fs.into_device().into_parts();
            let restored = (restored, victims.len());
            passes.push(self.family_pass(family, &ssd, restored, estimate, wall_s));
            counts.add(
                &ssd.stats().since(self.warm.stats()),
                &ssd.flash().stats().since(self.warm.flash().stats()),
            );
            digests.push(flash_digest(ssd.flash()));
            checked_pages += victims.len();
            wrong_pages += wrong_victims(&ssd, &victims, &family_log.captured, target);
            let (check, secs) = ctx.spans.time("core.check", || ssd.check_consistency());
            t.check_s += secs;
            violations += check.violations.len();
            if ctx.traced {
                let captured = &family_log.captured[..before_recovery];
                let displaced = displaced_bytes(captured);
                t.real_versions += displaced.len();
                let step = (displaced.len() * self.families.len()).div_ceil(CODEC_PAIRS);
                t.pairs
                    .extend(displaced.iter().step_by(step.max(1)).map(|&(new, old)| {
                        let page = |i: usize| captured[i].2.materialize(PAGE);
                        (page(new), page(old))
                    }));
            }
            family_log.captured.clear();
            log.absorb(family_log);
            last = Some((ssd, finish));
            ctx.spans.exit(id);
        }

        let mut pass = Self::sum(passes);
        pass.failed += wrong_pages;
        let gates = vec![
            Gate::new(
                "check_consistency is clean",
                violations == 0,
                format!(
                    "{violations} violations over {} devices",
                    self.families.len()
                ),
            ),
            Gate::new(
                "every victim page byte-exact after recovery",
                wrong_pages == 0 && checked_pages > 0,
                format!("{wrong_pages} of {checked_pages} pages differ"),
            ),
        ];

        if ctx.traced {
            self.layers(&mut ctx.layers, ctx.spans, &t, &counts);
            let (ssd, end) = last.as_ref().expect("at least one family");
            let l = &mut ctx.layers;
            let span = (ssd.exported_pages() as f64 * WARM_USAGE) as u64;
            layers::timessd(l, ctx.spans, ssd, *end, &layers::sample_lpas(span, 4096));
        }

        Recorded {
            pass,
            log,
            counts,
            digest: fold_digests(digests),
            gates,
        }
    }
}
