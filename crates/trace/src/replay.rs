//! Trace replay against a simulated SSD, with metric collection.

use almanac_core::{AlmanacError, SsdDevice};
use almanac_flash::{Lpa, Nanos, PageData};

use crate::record::TraceOp;
use crate::trace::Trace;

/// Metrics of one replay run — the quantities Figures 6–8 report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Trace name.
    pub trace: String,
    /// Device kind (`"regular"`, `"timessd"`, ...).
    pub device: &'static str,
    /// Host page writes completed.
    pub user_writes: u64,
    /// Host page reads completed.
    pub user_reads: u64,
    /// Average I/O response time over reads and writes, ns.
    pub avg_response_ns: f64,
    /// Average write response time, ns.
    pub avg_write_ns: f64,
    /// Average read response time, ns.
    pub avg_read_ns: f64,
    /// Worst response time, ns.
    pub max_response_ns: Nanos,
    /// 99th-percentile write response estimate, ns.
    pub p99_write_ns: Nanos,
    /// Host flush barriers completed.
    pub host_flushes: u64,
    /// Average flush-barrier response time, ns.
    pub avg_flush_ns: f64,
    /// 99th-percentile flush-barrier response estimate, ns.
    pub p99_flush_ns: Nanos,
    /// Write amplification.
    pub write_amplification: f64,
    /// Virtual time of the last completion.
    pub end_time: Nanos,
    /// True when the device stalled (retention guarantee vs. free space).
    pub stalled: bool,
    /// Records replayed before a stall (equals the trace length otherwise).
    pub replayed: usize,
}

/// Replays a trace against a device.
///
/// Multi-page requests are split into per-page operations that share the
/// arrival time; the request's response time is the worst page's. A
/// [`AlmanacError::DeviceStalled`] stops the replay and is reported rather
/// than returned (the stall is a measured outcome, §3.4).
pub fn replay<D: SsdDevice>(trace: &Trace, device: &mut D) -> Result<ReplayReport, AlmanacError> {
    replay_with_sampler(trace, device, |_, _| {})
}

/// Like [`replay`], invoking `sampler(device, now)` after each record so
/// callers can track device-internal trajectories (e.g. the retention
/// window of a TimeSSD).
pub fn replay_with_sampler<D: SsdDevice>(
    trace: &Trace,
    device: &mut D,
    mut sampler: impl FnMut(&D, Nanos),
) -> Result<ReplayReport, AlmanacError> {
    let exported = device.exported_pages();
    let baseline = *device.stats();
    let mut stalled = false;
    let mut replayed = 0usize;
    let mut end_time = 0;
    'outer: for record in &trace.records {
        // A flush is one barrier per record, whatever `pages` says.
        let span = if record.op == TraceOp::Flush {
            1
        } else {
            record.pages.max(1) as u64
        };
        // Reduce once, then step with a cursor that wraps to zero:
        // `record.lpa + i` would overflow u64 near the top of the space.
        let mut next = record.lpa % exported;
        for _ in 0..span {
            let lpa = Lpa(next);
            next = if next + 1 < exported { next + 1 } else { 0 };
            let result = match record.op {
                TraceOp::Write => device
                    .write(
                        lpa,
                        PageData::Synthetic {
                            seed: lpa.0,
                            version: record.at,
                        },
                        record.at,
                    )
                    .map(|c| c.finish),
                TraceOp::Read => device.read(lpa, record.at).map(|(_, c)| c.finish),
                TraceOp::Trim => device.trim(lpa, record.at).map(|c| c.finish),
                TraceOp::Flush => device.flush(record.at).map(|c| c.finish),
            };
            match result {
                Ok(finish) => end_time = end_time.max(finish),
                Err(AlmanacError::DeviceStalled { .. }) => {
                    stalled = true;
                    break 'outer;
                }
                Err(e) => return Err(e),
            }
        }
        replayed += 1;
        sampler(device, record.at);
    }
    let stats = device.stats().since(&baseline);
    Ok(ReplayReport {
        trace: trace.name.clone(),
        device: device.kind(),
        user_writes: stats.user_writes,
        user_reads: stats.user_reads,
        avg_response_ns: stats.avg_response_ns(),
        avg_write_ns: stats.write_lat.avg_ns(),
        avg_read_ns: stats.read_lat.avg_ns(),
        max_response_ns: stats.read_lat.max_ns.max(stats.write_lat.max_ns),
        p99_write_ns: stats.write_lat.p99_ns(),
        host_flushes: stats.host_flushes,
        avg_flush_ns: stats.flush_lat.avg_ns(),
        p99_flush_ns: stats.flush_lat.p99_ns(),
        write_amplification: stats.write_amplification(),
        end_time,
        stalled,
        replayed,
    })
}

// The parallel experiment engine replays independent cells on pool
// threads: traces, reports, and every device kind must stay `Send`
// (checked at compile time so a stray `Rc`/raw pointer fails the build
// here, not in the bench crate).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Trace>();
    assert_send::<ReplayReport>();
    assert_send::<almanac_core::TimeSsd>();
    assert_send::<almanac_core::RegularSsd>();
    assert_send::<almanac_core::FlashGuardSsd>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use almanac_core::{RegularSsd, SsdConfig, SsdReadOps, TimeSsd};
    use almanac_flash::{Geometry, DAY_NS, SEC_NS};

    fn write_storm(n: u64, lpa_space: u64, gap: Nanos) -> Trace {
        Trace::new(
            "storm",
            (0..n)
                .map(|i| TraceRecord::new(i * gap, TraceOp::Write, i % lpa_space, 1))
                .collect(),
        )
    }

    #[test]
    fn replay_counts_operations() {
        let t = write_storm(50, 16, SEC_NS);
        let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
        let r = replay(&t, &mut ssd).unwrap();
        assert_eq!(r.user_writes, 50);
        assert_eq!(r.replayed, 50);
        assert!(!r.stalled);
        assert!(r.avg_write_ns > 0.0);
    }

    #[test]
    fn multi_page_requests_split() {
        let t = Trace::new("multi", vec![TraceRecord::new(0, TraceOp::Write, 0, 8)]);
        let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
        let r = replay(&t, &mut ssd).unwrap();
        assert_eq!(r.user_writes, 8);
    }

    #[test]
    fn lpa_wraps_into_exported_space() {
        let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
        let big = ssd.exported_pages() * 3 + 1;
        let t = Trace::new("wrap", vec![TraceRecord::new(0, TraceOp::Write, big, 1)]);
        let r = replay(&t, &mut ssd).unwrap();
        assert_eq!(r.user_writes, 1);
    }

    #[test]
    fn lpa_near_u64_max_does_not_overflow() {
        // A multi-page request whose raw address sits at the top of the
        // u64 space: `record.lpa + i` would overflow; the reduced form
        // must land every page inside the exported range.
        let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
        let t = Trace::new(
            "edge",
            vec![TraceRecord::new(0, TraceOp::Write, u64::MAX - 2, 8)],
        );
        let r = replay(&t, &mut ssd).unwrap();
        assert_eq!(r.user_writes, 8);
    }

    #[test]
    fn stall_is_reported_not_fatal() {
        // Tiny device + forever-retention + heavy writes ⇒ stall.
        let cfg = SsdConfig::new(Geometry::small_test()).with_min_retention(365 * DAY_NS);
        let mut ssd = TimeSsd::new(cfg);
        let t = write_storm(2_000, 32, 1000);
        let r = replay(&t, &mut ssd).unwrap();
        assert!(r.stalled);
        assert!(r.replayed < 2_000);
    }

    #[test]
    fn flush_records_drive_the_barrier() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
        let t = Trace::new(
            "fsync",
            vec![
                TraceRecord::new(SEC_NS, TraceOp::Write, 0, 4),
                // `pages` on a flush is ignored: one barrier, not three.
                TraceRecord::new(2 * SEC_NS, TraceOp::Flush, 0, 3),
            ],
        );
        let r = replay(&t, &mut ssd).unwrap();
        assert_eq!(r.replayed, 2);
        assert_eq!(ssd.stats().host_flushes, 1);
        assert_eq!(r.host_flushes, 1);
        // The barrier cost model charges at least the fixed overhead.
        assert!(r.avg_flush_ns > 0.0);
        assert!(r.p99_flush_ns > 0);
    }

    #[test]
    fn sampler_sees_progress() {
        let t = write_storm(20, 8, SEC_NS);
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
        let mut samples = Vec::new();
        replay_with_sampler(&t, &mut ssd, |d, now| {
            samples.push(d.retention_window(now));
        })
        .unwrap();
        assert_eq!(samples.len(), 20);
        assert!(samples.last().unwrap() > &0);
    }
}
