//! `Recorder<D>`: the benchmark's interposer at the `SsdDevice` boundary.
//!
//! It forwards every call unchanged to the wrapped device (the idiom
//! `oracle::DifferentialHarness` uses to sit under `trace::replay`) and keeps
//! what the call returned: the exact virtual-clock `Completion` of every
//! host write and read. In a traced run it also stamps the host clock around
//! each call and notes which `DeviceStats` counters advanced during it, so
//! garbage collection and background compression — which happen *inside* a
//! device call — get their host time attributed from outside.

use std::time::Instant;

use almanac_core::{Completion, DeviceStats, Result, SsdDevice, SsdReadOps, SsdReadView};
use almanac_flash::{Lpa, Nanos, PageData};

use crate::spans::Histogram;

/// Operation classes at the device boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write = 0,
    Read = 1,
    Trim = 2,
    Flush = 3,
}

pub const CLASS_NAMES: [&str; 4] = ["core.write", "core.read", "core.trim", "core.flush"];

/// Writes that started more than this long after they arrived count as
/// stalled. A multi-page request's pages share one arrival time and TimeSSD
/// bumps each page's timestamp by 1 ns, which is not a stall.
const STALL_NS: u64 = 1_000;

/// Host time of the calls during which a device-internal counter advanced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hit {
    pub calls: u64,
    pub host_ns: u64,
}

/// Everything one recorded pass observed at the device boundary.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Calls per [`Class`], failed ones included.
    pub calls: [u64; 4],
    /// Calls that returned `Err`.
    pub errors: u64,
    /// `finish − arrival` of every successful host write, in call order.
    pub write_resp: Vec<Nanos>,
    /// `finish − arrival` of every successful host read.
    pub read_resp: Vec<Nanos>,
    /// Σ `start − arrival` over writes.
    pub write_wait_ns: u64,
    /// Σ `finish − start` over writes.
    pub write_service_ns: u64,
    /// Writes whose service started more than 1 µs after they arrived.
    pub writes_stalled: u64,
    /// Latest `finish` seen.
    pub last_finish: Nanos,
    /// Traced runs: host nanoseconds of every write and read call.
    pub host_ns: [Vec<u32>; 2],
    /// Traced runs: Σ host nanoseconds per class.
    pub host_total_ns: [u64; 4],
    /// Traced runs: calls during which `gc_runs` advanced.
    pub gc_hit: Hit,
    /// Traced runs: calls during which `bg_compressions` advanced.
    pub bgc_hit: Hit,
    /// With capture on: every write (and trim, as `Zeros`) in call order.
    pub captured: Vec<(Lpa, Nanos, PageData)>,
}

impl OpLog {
    /// Σ host seconds the device spent inside interposed calls.
    pub fn device_host_s(&self) -> f64 {
        self.host_total_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Per-class host-time histograms for the span file.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        (0..2)
            .map(|c| {
                let samples = self.host_ns[c].iter().map(|&ns| u64::from(ns));
                (CLASS_NAMES[c].to_string(), Histogram::from_samples(samples))
            })
            .collect()
    }

    /// Folds another pass's log into this one (the ransomware workload runs
    /// thirteen devices per pass).
    pub fn absorb(&mut self, other: OpLog) {
        for c in 0..4 {
            self.calls[c] += other.calls[c];
            self.host_total_ns[c] += other.host_total_ns[c];
        }
        self.errors += other.errors;
        self.write_resp.extend(other.write_resp);
        self.read_resp.extend(other.read_resp);
        self.write_wait_ns += other.write_wait_ns;
        self.write_service_ns += other.write_service_ns;
        self.writes_stalled += other.writes_stalled;
        self.last_finish = self.last_finish.max(other.last_finish);
        let [w, r] = other.host_ns;
        self.host_ns[0].extend(w);
        self.host_ns[1].extend(r);
        for (mine, theirs) in [
            (&mut self.gc_hit, other.gc_hit),
            (&mut self.bgc_hit, other.bgc_hit),
        ] {
            mine.calls += theirs.calls;
            mine.host_ns += theirs.host_ns;
        }
    }
}

/// The interposer. Op-for-op transparent: the wrapped device sees exactly
/// the calls the caller made, in order, with the same arguments.
pub struct Recorder<D> {
    inner: D,
    stamp: bool,
    capture: bool,
    pub log: OpLog,
}

/// Host stamp and counters taken before a traced call.
type Probe = Option<(Instant, u64, u64)>;

impl<D: SsdDevice> Recorder<D> {
    /// Wraps `inner`. `stamp` turns on host-clock stamping (the traced run);
    /// `capture` keeps the data of every write.
    pub fn new(inner: D, stamp: bool, capture: bool) -> Self {
        Recorder {
            inner,
            stamp,
            capture,
            log: OpLog::default(),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped device, bypassing the recorder — for `&self`-style tooling
    /// (`TimeKits` read-only calls) that cannot be interposed.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    pub fn into_parts(self) -> (D, OpLog) {
        (self.inner, self.log)
    }

    fn probe(&self) -> Probe {
        self.stamp.then(|| {
            let s = self.inner.stats();
            (Instant::now(), s.gc_runs, s.bg_compressions)
        })
    }

    fn note(&mut self, class: Class, arrived: Nanos, probe: Probe, done: Option<Completion>) {
        let c = class as usize;
        self.log.calls[c] += 1;
        if let Some((t0, gc_runs, bg_compressions)) = probe {
            let ns = t0.elapsed().as_nanos() as u64;
            self.log.host_total_ns[c] += ns;
            if c < 2 {
                self.log.host_ns[c].push(ns.min(u64::from(u32::MAX)) as u32);
            }
            let s = self.inner.stats();
            if s.gc_runs > gc_runs {
                self.log.gc_hit.calls += 1;
                self.log.gc_hit.host_ns += ns;
            }
            if s.bg_compressions > bg_compressions {
                self.log.bgc_hit.calls += 1;
                self.log.bgc_hit.host_ns += ns;
            }
        }
        let Some(done) = done else {
            self.log.errors += 1;
            return;
        };
        self.log.last_finish = self.log.last_finish.max(done.finish);
        match class {
            Class::Write => {
                self.log.write_resp.push(done.response(arrived));
                let wait = done.start.saturating_sub(arrived);
                self.log.write_wait_ns += wait;
                self.log.write_service_ns += done.finish.saturating_sub(done.start);
                self.log.writes_stalled += u64::from(wait > STALL_NS);
            }
            Class::Read => self.log.read_resp.push(done.response(arrived)),
            Class::Trim | Class::Flush => {}
        }
    }
}

impl<D: SsdDevice> SsdReadOps for Recorder<D> {
    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }

    fn exported_pages(&self) -> u64 {
        self.inner.exported_pages()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn read_view(&self) -> Option<SsdReadView<'_>> {
        self.inner.read_view()
    }
}

impl<D: SsdDevice> SsdDevice for Recorder<D> {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        if self.capture {
            self.log.captured.push((lpa, now, data.clone()));
        }
        let probe = self.probe();
        let out = self.inner.write(lpa, data, now);
        self.note(Class::Write, now, probe, out.as_ref().ok().copied());
        out
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        let probe = self.probe();
        let out = self.inner.read(lpa, now);
        self.note(Class::Read, now, probe, out.as_ref().ok().map(|(_, c)| *c));
        out
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        if self.capture {
            self.log.captured.push((lpa, now, PageData::Zeros));
        }
        let probe = self.probe();
        let out = self.inner.trim(lpa, now);
        self.note(Class::Trim, now, probe, out.as_ref().ok().copied());
        out
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        let probe = self.probe();
        let out = self.inner.flush(now);
        self.note(Class::Flush, now, probe, out.as_ref().ok().copied());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::flash_digest;
    use almanac_core::{SsdConfig, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};

    const OPS: u64 = 14_000;

    /// A mixed op stream with overwrites (so GC and compression run), reads,
    /// trims, a flush and one out-of-range write.
    fn drive<D: SsdDevice>(dev: &mut D) -> usize {
        let mut errors = 0;
        for i in 0..OPS {
            let (lpa, now) = (Lpa(i * 7 % 96), i * 400_000);
            let outcome = match i % 11 {
                0 => dev.read(lpa, now).map(|_| ()),
                1 => dev.trim(lpa, now).map(|_| ()),
                2 if i % 500 == 2 => dev.flush(now).map(|_| ()),
                3 if i == 1_400 => dev.write(Lpa(u64::MAX), PageData::Zeros, now).map(|_| ()),
                _ => {
                    let page = PageData::Synthetic {
                        seed: lpa.0,
                        version: i,
                    };
                    dev.write(lpa, page, now).map(|_| ())
                }
            };
            errors += usize::from(outcome.is_err());
        }
        errors
    }

    #[test]
    fn recorder_is_op_for_op_transparent() {
        // A one-second retention guarantee lets GC reclaim as the 5.6 s
        // stream overwrites the device 1.5 times.
        let config = SsdConfig::new(Geometry::medium_test()).with_min_retention(SEC_NS);
        let fresh = TimeSsd::new(config);
        let mut bare = fresh.clone();
        let bare_errors = drive(&mut bare);
        for stamp in [false, true] {
            let mut rec = Recorder::new(fresh.clone(), stamp, true);
            assert_eq!(drive(&mut rec), bare_errors);
            assert_eq!(rec.stats(), bare.stats());
            assert_eq!(rec.exported_pages(), bare.exported_pages());
            assert_eq!(rec.kind(), "timessd");
            let (dev, log) = rec.into_parts();
            assert_eq!(flash_digest(dev.flash()), flash_digest(bare.flash()));
            assert_eq!(dev.flash().state_digest(), bare.flash().state_digest());
            assert_eq!(dev.flash().stats(), bare.flash().stats());

            let s = bare.stats();
            assert_eq!(log.errors as usize, bare_errors);
            assert_eq!(log.write_resp.len() as u64, s.user_writes);
            assert_eq!(log.read_resp.len() as u64, s.user_reads);
            // Calls count failed ones too (the device stalls now and then).
            let served = [s.user_writes, s.user_reads, s.user_trims, s.host_flushes];
            assert!(log
                .calls
                .iter()
                .zip(served)
                .all(|(calls, served)| *calls >= served));
            assert_eq!(log.calls.iter().sum::<u64>(), OPS);
            assert_eq!(
                log.calls.iter().sum::<u64>() - log.errors,
                served.iter().sum::<u64>()
            );
            // The recorder's exact responses sum to the device's own totals.
            assert_eq!(log.write_resp.iter().sum::<u64>(), s.write_lat.sum_ns);
            assert_eq!(log.read_resp.iter().sum::<u64>(), s.read_lat.sum_ns);
            assert_eq!(log.write_wait_ns + log.write_service_ns, s.write_lat.sum_ns);
            assert_eq!(
                log.captured.len() as u64,
                log.calls[Class::Write as usize] + log.calls[Class::Trim as usize]
            );
            let stamped = if stamp {
                log.calls[Class::Write as usize]
            } else {
                0
            };
            assert_eq!(log.host_ns[0].len() as u64, stamped);
            assert_eq!(stamp, log.device_host_s() > 0.0);
            if stamp {
                assert!(s.gc_runs > 0, "the stream must reach GC");
                assert!(log.gc_hit.calls > 0 && log.gc_hit.calls <= s.gc_runs);
            }
        }
    }

    #[test]
    fn logs_fold_together() {
        let mut a = OpLog {
            write_resp: vec![1, 2],
            calls: [2, 0, 0, 0],
            last_finish: 9,
            ..OpLog::default()
        };
        let b = OpLog {
            write_resp: vec![3],
            read_resp: vec![4],
            calls: [1, 1, 0, 0],
            errors: 1,
            last_finish: 7,
            gc_hit: Hit {
                calls: 2,
                host_ns: 50,
            },
            ..OpLog::default()
        };
        a.absorb(b);
        assert_eq!(a.write_resp, [1, 2, 3]);
        assert_eq!(a.read_resp, [4]);
        assert_eq!(a.calls, [3, 1, 0, 0]);
        assert_eq!((a.errors, a.last_finish), (1, 9));
        assert_eq!((a.gc_hit.calls, a.gc_hit.host_ns), (2, 50));
    }
}
