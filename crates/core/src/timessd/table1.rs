//! The Table-1 query and rollback bodies the device answers its vendor
//! commands with (§3.9, §4).
//!
//! `AddrQuery`, `AddrQueryRange`, and `AddrQueryAll` are the same traversal
//! with three version filters, so one builder, [`AddrQuery`], is the single
//! dispatch point for them; the time queries are [`time_scan`]. Both are
//! per-LPA closures over the shard-aligned scan engine (`engine::scan`),
//! which fans the clamped LPA span across the device's `amt_shards`
//! partitions ("shards") on scoped threads and merges per-shard hits and
//! [`QueryCost`]s deterministically.
//!
//! Each LPA's chain is walked once: the closure folds over the device's lazy
//! walk (`versions`, `version_as_of`, `versions_in`), which stops where the
//! answer is complete, and `fetch` materialises each yielded version with
//! `TimeSsd::decode` from its location, never by walking again.
//!
//! Rollback is one body, [`roll_back_set`], over any `SsdDevice` with a read
//! view, with [`roll_back`] and [`roll_back_all`] choosing its LPAs: the
//! NVMe controller and the oracle run them on their device, the host
//! toolkit on its TimeSSD.

use std::convert::Infallible;

use almanac_flash::{Lpa, LpaSpan, Nanos, PageData};

use super::engine::{self, QueryCost};
use super::query::{VersionInfo, VersionLocation};
use super::TimeSsd;
use crate::device::{SsdDevice, SsdReadOps};
use crate::error::{AlmanacError, Result};

/// One version returned by an address-based query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHit {
    /// The logical page.
    pub lpa: Lpa,
    /// When this version was written.
    pub timestamp: Nanos,
    /// The reconstructed content.
    pub data: PageData,
}

/// One LPA returned by a time-based query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeQueryHit {
    /// The logical page.
    pub lpa: Lpa,
    /// Write timestamps inside the queried window, newest first.
    pub timestamps: Vec<Nanos>,
}

/// Result of a rollback.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackOutcome {
    /// `(lpa, restored version timestamp)` pairs actually rolled back.
    pub restored: Vec<(Lpa, Nanos)>,
    /// LPAs trimmed because they did not exist at the target time.
    pub erased: Vec<Lpa>,
    /// LPAs left untouched (no history and nothing to undo).
    pub skipped: Vec<Lpa>,
    /// Retrieval cost of the rollback reads.
    pub cost: QueryCost,
    /// Completion time of the last rollback write.
    pub finish: Nanos,
}

/// Which versions of each LPA the query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The newest version written at or before `t` (`AddrQuery`).
    AsOf(Nanos),
    /// Every version written inside `[t1, t2]` (`AddrQueryRange`).
    Range(Nanos, Nanos),
    /// Every retained version (`AddrQueryAll`).
    All,
}

/// Charges the retrieval cost of one version: a flash read on its chip,
/// plus (for deltas) the reference read and the decompression CPU time —
/// the overhead Figure 10 attributes to TimeSSD.
fn charge_version(ssd: &TimeSsd, v: &VersionInfo, cost: &mut QueryCost) {
    let lat = ssd.flash().latency();
    if let Some(chip) = v.chip {
        cost.charge_read(chip, lat.read_total());
    }
    if !matches!(v.location, VersionLocation::DataPage(_)) {
        if let Some(chip) = v.chip {
            cost.charge_read(chip, lat.read_total());
        }
        cost.charge_cpu(lat.decompress_ns);
        cost.note_decompression();
    }
}

/// Charges and materialises one version the walk yielded, without walking
/// again.
fn fetch(ssd: &TimeSsd, v: &VersionInfo, cost: &mut QueryCost) -> Result<QueryHit> {
    charge_version(ssd, v, cost);
    let data = ssd.decode(v)?;
    Ok(QueryHit {
        lpa: v.lpa,
        timestamp: v.timestamp,
        data,
    })
}

/// Result of one [`AddrQuery`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct AddrQueryOutcome {
    /// Matching versions in serial scan order: ascending LPA, newest version
    /// first within each LPA — byte-identical at every shard and thread
    /// count.
    pub hits: Vec<QueryHit>,
    /// Total retrieval cost, merged across shards in shard-index order;
    /// equal to the cost the serial scan would have accumulated.
    pub cost: QueryCost,
    /// Per-shard retrieval costs (index = `lpa % amt_shards`), for the sharded
    /// scheduling model of [`AddrQueryOutcome::makespan`].
    pub shard_costs: Vec<QueryCost>,
}

impl AddrQueryOutcome {
    /// Virtual completion time of this query under the *sharded* schedule:
    /// shard `s` is handled by worker `s % threads` (a shard is walked by
    /// exactly one worker), each worker runs its shards back to back,
    /// workers overlap. With one shard every thread
    /// count degenerates to the serial makespan — which is exactly the
    /// bottleneck partitioning the scan removes; the `shardscale` bench figure
    /// plots this.
    pub fn makespan(&self, threads: u32) -> Nanos {
        // Workers beyond the shard count would idle; the count can come off
        // the wire, so it must not size the allocation.
        let threads = (threads as usize).clamp(1, self.shard_costs.len().max(1));
        let mut workers = vec![0u64; threads];
        for (s, c) in self.shard_costs.iter().enumerate() {
            workers[s % threads] += c.makespan(1);
        }
        workers.into_iter().max().unwrap_or(0)
    }
}

/// Builder for the Table-1 address queries: `AddrQuery`, `AddrQueryRange`
/// and `AddrQueryAll` behind one dispatch point.
///
/// Defaults to all retained versions ([`Self::all_versions`]); narrow with
/// [`Self::as_of`] or [`Self::range`], set the worker count with
/// [`Self::threads`], then [`Self::run`].
///
/// # Examples
///
/// ```
/// use almanac_core::{AddrQuery, SsdConfig, SsdDevice, TimeSsd};
/// use almanac_flash::{Geometry, Lpa, PageData, SEC_NS};
///
/// let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
/// ssd.write(Lpa(0), PageData::bytes(b"old".to_vec()), SEC_NS).unwrap();
/// ssd.write(Lpa(0), PageData::bytes(b"new".to_vec()), 5 * SEC_NS).unwrap();
///
/// // The `&self` query path: no exclusive device access needed.
/// let out = AddrQuery::new(&ssd, Lpa(0), 1)
///     .as_of(3 * SEC_NS)
///     .run()
///     .unwrap();
/// assert_eq!(out.hits[0].data, PageData::bytes(b"old".to_vec()));
/// ```
#[derive(Clone, Copy)]
pub struct AddrQuery<'v> {
    ssd: &'v TimeSsd,
    addr: Lpa,
    cnt: u64,
    mode: Mode,
    threads: u32,
}

impl<'v> AddrQuery<'v> {
    /// Starts a query over `cnt` LPAs from `addr` of `ssd`.
    pub fn new(ssd: &'v TimeSsd, addr: Lpa, cnt: u64) -> Self {
        AddrQuery {
            ssd,
            addr,
            cnt,
            mode: Mode::All,
            threads: 1,
        }
    }

    /// Returns each LPA's state as of time `t` (`AddrQuery` of Table 1).
    pub fn as_of(mut self, t: Nanos) -> Self {
        self.mode = Mode::AsOf(t);
        self
    }

    /// Returns every version written inside `[t1, t2]`, newest first per
    /// LPA (`AddrQueryRange`).
    pub fn range(mut self, t1: Nanos, t2: Nanos) -> Self {
        self.mode = Mode::Range(t1, t2);
        self
    }

    /// Returns every retained version (`AddrQueryAll`, the default).
    pub fn all_versions(mut self) -> Self {
        self.mode = Mode::All;
        self
    }

    /// Sets the host worker count (clamped to at least 1). Workers beyond
    /// the device's shard count idle — a shard is walked by exactly one
    /// worker.
    pub fn threads(mut self, threads: u32) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the query on the shard-aligned scan engine: hits come back in
    /// serial scan order and the cost equals the serial scan's, at every
    /// shard and thread count. Errors are reported from the lowest failing
    /// shard.
    pub fn run(&self) -> Result<AddrQueryOutcome> {
        let ssd = self.ssd;
        let span = LpaSpan::clamped(self.addr, self.cnt, ssd.exported_pages());
        let (hits, cost, shard_costs) = engine::scan(
            ssd,
            span,
            self.threads,
            |h: &QueryHit| h.lpa,
            |lpa, hits, cost| -> Result<()> {
                match self.mode {
                    Mode::AsOf(t) => {
                        if let Some(v) = ssd.version_as_of(lpa, t) {
                            hits.push(fetch(ssd, &v, cost)?);
                        }
                    }
                    Mode::Range(t1, t2) => {
                        for v in ssd.versions_in(lpa, t1, t2) {
                            hits.push(fetch(ssd, &v, cost)?);
                        }
                    }
                    Mode::All => {
                        for v in ssd.versions(lpa) {
                            hits.push(fetch(ssd, &v, cost)?);
                        }
                    }
                }
                Ok(())
            },
        )?;
        Ok(AddrQueryOutcome {
            hits,
            cost,
            shard_costs,
        })
    }
}

/// The time-based queries' one body, over a `&TimeSsd`: walks every LPA's
/// chain on the shard-aligned scan engine with `threads` workers and returns
/// those updated in `[from, to]` with their write timestamps. Each walk
/// stops at the window's lower edge.
pub fn time_scan(
    ssd: &TimeSsd,
    from: Nanos,
    to: Nanos,
    threads: u32,
) -> (Vec<TimeQueryHit>, QueryCost) {
    let lat = ssd.flash().latency();
    let Ok((hits, cost, _)) = engine::scan(
        ssd,
        LpaSpan::clamped(Lpa(0), u64::MAX, ssd.exported_pages()),
        threads.max(1),
        |h: &TimeQueryHit| h.lpa,
        |lpa, hits, cost| -> std::result::Result<(), Infallible> {
            let mut chain = ssd.versions(lpa);
            let Some(first) = chain.next() else {
                return Ok(());
            };
            // Checking an LPA costs the head-page OOB read.
            if let Some(chip) = first.chip {
                cost.charge_read(chip, lat.read_ns);
            }
            // Timestamps strictly decrease along the chain.
            let timestamps: Vec<Nanos> = std::iter::once(first)
                .chain(chain)
                .skip_while(|v| v.timestamp > to)
                .take_while(|v| v.timestamp >= from)
                .map(|v| {
                    // Versions beyond the head cost chain reads.
                    if !v.is_head {
                        if let Some(chip) = v.chip {
                            cost.charge_read(chip, lat.read_ns);
                        }
                    }
                    v.timestamp
                })
                .collect();
            if !timestamps.is_empty() {
                hits.push(TimeQueryHit { lpa, timestamps });
            }
            Ok(())
        },
    );
    (hits, cost)
}

/// Reconstructs (without writing anything) the content of `lpas` as of `t`,
/// in order — the read-only half of recovery. A page with no version at `t`
/// is a `NoSuchVersion` error.
pub fn snapshot_at(ssd: &TimeSsd, lpas: &[Lpa], t: Nanos) -> Result<(Vec<QueryHit>, QueryCost)> {
    let mut cost = QueryCost::new(ssd.geometry().total_chips() as u32);
    let mut hits = Vec::new();
    for &lpa in lpas {
        let v = ssd
            .version_as_of(lpa, t)
            .ok_or(AlmanacError::NoSuchVersion { lpa, at: t })?;
        hits.push(fetch(ssd, &v, &mut cost)?);
    }
    Ok((hits, cost))
}

/// `RollBack(addr, cnt, t)` on any device with a history: [`roll_back_set`]
/// over the span from `addr`, clamped to the exported space.
pub fn roll_back<D: SsdDevice>(
    dev: &mut D,
    addr: Lpa,
    cnt: u64,
    t: Nanos,
    now: Nanos,
) -> Result<RollbackOutcome> {
    let span = LpaSpan::clamped(addr, cnt, dev.exported_pages());
    roll_back_set(dev, span.iter(), t, now)
}

/// `RollBackAll(t)` on any device with a history: [`roll_back`] over every
/// exported LPA.
pub fn roll_back_all<D: SsdDevice>(dev: &mut D, t: Nanos, now: Nanos) -> Result<RollbackOutcome> {
    roll_back(dev, Lpa(0), u64::MAX, t, now)
}

/// `RollBack` over `lpas` on any device with a history (§3.9): each LPA is
/// reverted to its state as of `t` by writing the old version back as a
/// fresh update — the rollback itself stays undoable — and pages that did
/// not exist at `t` are trimmed. History is read through `dev.read_view()`;
/// the restores are `dev`'s own writes and trims, so a device wrapper (the
/// NVMe controller's device, the oracle's harness) sees them as host I/O.
/// A device without a read view is an `Internal` error.
pub fn roll_back_set<D: SsdDevice>(
    dev: &mut D,
    lpas: impl IntoIterator<Item = Lpa>,
    t: Nanos,
    now: Nanos,
) -> Result<RollbackOutcome> {
    const NO_HISTORY: AlmanacError = AlmanacError::Internal("rollback needs a device with history");
    let mut cost =
        QueryCost::new(dev.read_view().ok_or(NO_HISTORY)?.geometry().total_chips() as u32);
    let mut restored = Vec::new();
    let mut erased = Vec::new();
    let mut skipped = Vec::new();
    let mut finish = now;
    for lpa in lpas {
        let ssd = dev.read_view().ok_or(NO_HISTORY)?;
        match ssd.version_as_of(lpa, t) {
            Some(v) => {
                let hit = fetch(ssd, &v, &mut cost)?;
                // Skip the write when the current state already matches:
                // only the chain's first version can be the head.
                if !v.is_head {
                    let c = dev.write(lpa, hit.data, finish)?;
                    finish = finish.max(c.finish);
                }
                restored.push((lpa, v.timestamp));
            }
            None if ssd.is_mapped(lpa) => {
                // The page did not exist at `t`: erase it.
                let c = dev.trim(lpa, finish)?;
                finish = finish.max(c.finish);
                erased.push(lpa);
            }
            None => skipped.push(lpa),
        }
    }
    Ok(RollbackOutcome {
        restored,
        erased,
        skipped,
        cost,
        finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;
    use almanac_flash::{Geometry, SEC_NS};

    fn device(shards: u32) -> TimeSsd {
        let cfg = SsdConfig::new(Geometry::medium_test()).with_amt_shards(shards);
        let mut ssd = TimeSsd::new(cfg);
        for round in 1..=3u64 {
            for lpa in 0..10u64 {
                ssd.write(
                    Lpa(lpa),
                    PageData::Synthetic {
                        seed: lpa,
                        version: round,
                    },
                    round * SEC_NS + lpa * 1000,
                )
                .unwrap();
            }
        }
        ssd
    }

    #[test]
    fn results_are_identical_across_shard_and_thread_counts() {
        let baseline = {
            let ssd = device(1);
            AddrQuery::new(&ssd, Lpa(0), 10).run().unwrap()
        };
        assert_eq!(baseline.hits.len(), 30);
        for shards in [2u32, 4, 8] {
            let ssd = device(shards);
            for threads in [1u32, 2, 4, 8] {
                let out = AddrQuery::new(&ssd, Lpa(0), 10)
                    .threads(threads)
                    .run()
                    .unwrap();
                assert_eq!(
                    baseline.hits, out.hits,
                    "{shards} shards / {threads} threads"
                );
                assert_eq!(
                    baseline.cost, out.cost,
                    "{shards} shards / {threads} threads"
                );
            }
        }
    }

    #[test]
    fn hits_keep_the_serial_scan_order() {
        let ssd = device(4);
        let out = AddrQuery::new(&ssd, Lpa(0), 10).threads(4).run().unwrap();
        // Ascending LPA, newest-first within each LPA.
        for w in out.hits.windows(2) {
            assert!(
                w[0].lpa < w[1].lpa || (w[0].lpa == w[1].lpa && w[0].timestamp > w[1].timestamp)
            );
        }
    }

    #[test]
    fn modes_filter_versions() {
        let ssd = device(4);
        let view = &ssd;
        let as_of = AddrQuery::new(view, Lpa(0), 10)
            .as_of(2 * SEC_NS + SEC_NS / 2)
            .run()
            .unwrap();
        assert_eq!(as_of.hits.len(), 10);
        assert!(as_of.hits.iter().all(|h| h.data
            == PageData::Synthetic {
                seed: h.lpa.0,
                version: 2
            }));
        let range = AddrQuery::new(view, Lpa(0), 10)
            .range(2 * SEC_NS, 4 * SEC_NS)
            .run()
            .unwrap();
        assert_eq!(range.hits.len(), 20); // versions 2 and 3
    }

    #[test]
    fn span_straddling_u64_max_clamps_before_sharding() {
        // Regression (mirrors the PR 9 replay overflow fix): the span is
        // clamped to the exported range before `lpa % shards` is computed,
        // so a start near u64::MAX neither wraps into a bogus shard/local
        // index nor panics in debug builds — on any shard count.
        for shards in [1u32, 3, 4, 8] {
            let ssd = device(shards);
            let view = &ssd;
            let out = AddrQuery::new(view, Lpa(u64::MAX - 1), 8).run().unwrap();
            assert!(out.hits.is_empty(), "{shards} shards");
            let out = AddrQuery::new(view, Lpa(u64::MAX - 1), 8)
                .threads(8)
                .range(0, u64::MAX)
                .run()
                .unwrap();
            assert!(out.hits.is_empty(), "{shards} shards, ranged");
            // A count that saturates: the in-range tail still answers, and
            // every shard sees only clamped LPAs.
            let out = AddrQuery::new(view, Lpa(2), u64::MAX).run().unwrap();
            assert_eq!(out.hits.len(), 24, "{shards} shards"); // LPAs 2..10
        }
    }

    #[test]
    fn sharded_makespan_scales_with_shards_and_threads() {
        let serial = {
            let ssd = device(1);
            AddrQuery::new(&ssd, Lpa(0), 10).run().unwrap()
        };
        let sharded = {
            let ssd = device(4);
            AddrQuery::new(&ssd, Lpa(0), 10).threads(4).run().unwrap()
        };
        // One shard: threads cannot help (the shard serializes).
        assert_eq!(serial.makespan(1), serial.makespan(4));
        // Four shards, four threads: at least the 1.5x the paper-style
        // scaling figure claims, on this uniform span.
        assert!(sharded.makespan(4) * 3 <= sharded.makespan(1) * 2);
        // Total work is conserved: all-shards-on-one-worker equals serial.
        assert_eq!(sharded.makespan(1), serial.makespan(1));
    }

    #[test]
    fn empty_span_yields_empty_outcome() {
        let ssd = device(4);
        let out = AddrQuery::new(&ssd, Lpa(5), 0).run().unwrap();
        assert!(out.hits.is_empty());
        assert_eq!(out.cost.flash_reads, 0);
        assert_eq!(out.makespan(4), 0);
    }
}
