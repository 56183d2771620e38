//! The one scan engine behind every Table-1 query: split the requested LPA
//! span (an [`LpaSpan`], clamped to the exported space where the query is
//! built) into `amt_shards` strided partitions ("shards": `lpa % width`),
//! walk each shard's LPAs on a scoped worker, merge deterministically.
//!
//! A shard is a unit of the query *schedule*, nothing more: the device's
//! AMT, IMT and map cache are flat tables, and this file holds the only
//! `lpa % width` in the workspace.
//!
//! Workers hold only a `&TimeSsd`, so any number of them can walk version
//! chains at once while no `&mut` command can run; that exclusion comes
//! from the borrow checker, not from a lock.

use almanac_core::TimeSsd;
use almanac_flash::{Lpa, LpaSpan};

use crate::cost::QueryCost;

/// The LPAs of `span` owned by `shard`, ascending: the first LPA at or after
/// the span's start congruent to `shard`, then every `width`-th. The span is
/// already clamped to the exported space ([`LpaSpan::clamped`]), so
/// `lpa % width` is only ever taken on in-range addresses.
fn shard_lpas(span: LpaSpan, shard: u64, width: u64) -> impl Iterator<Item = Lpa> {
    let span = span.range();
    let offset = (shard + width - span.start % width) % width;
    (span.start.saturating_add(offset)..span.end)
        .step_by(width as usize)
        .map(Lpa)
}

/// Hits sorted by LPA, their total cost, and the per-shard costs.
pub(crate) type Scan<H> = (Vec<H>, QueryCost, Vec<QueryCost>);

/// Calls `visit` on every LPA of `span`, shard by shard, letting it push
/// hits and charge cost.
///
/// Determinism: shard `s` is walked (in ascending LPA order) by worker
/// `s % workers`, where `workers = min(threads, shards)`; per-shard results
/// are merged in shard-index order and hits are then stable-sorted by
/// `lpa_of`, which restores the serial scan order exactly; costs add up
/// commutatively. So hits and total cost are identical at every shard and
/// thread count. An error is reported from the lowest failing shard.
pub(crate) fn scan<H: Send, E: Send>(
    ssd: &TimeSsd,
    span: LpaSpan,
    threads: u32,
    lpa_of: impl Fn(&H) -> Lpa,
    visit: impl Fn(Lpa, &mut Vec<H>, &mut QueryCost) -> Result<(), E> + Sync,
) -> Result<Scan<H>, E> {
    let width = u64::from(ssd.amt_shards());
    let chips = ssd.geometry().total_chips() as u32;
    let scan_shard = |shard: u64| {
        let mut hits = Vec::new();
        let mut cost = QueryCost::new(chips);
        for lpa in shard_lpas(span, shard, width) {
            visit(lpa, &mut hits, &mut cost)?;
        }
        Ok((hits, cost))
    };

    let workers = u64::from(threads).clamp(1, width);
    let per_shard: Vec<Result<(Vec<H>, QueryCost), E>> = if workers == 1 {
        (0..width).map(scan_shard).collect()
    } else {
        // Worker w walks shards w, w + workers, w + 2·workers, ...
        let mut per_worker: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let scan_shard = &scan_shard;
                    scope.spawn(move || {
                        (w..width)
                            .step_by(workers as usize)
                            .map(scan_shard)
                            .collect::<Vec<_>>()
                            .into_iter()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        (0..width)
            .map(|s| {
                per_worker[(s % workers) as usize]
                    .next()
                    .expect("each worker returns one result per shard it owns")
            })
            .collect()
    };

    let mut hits = Vec::new();
    let mut cost = QueryCost::new(chips);
    let mut shard_costs = Vec::with_capacity(per_shard.len());
    for result in per_shard {
        let (h, c) = result?;
        hits.extend(h);
        cost.merge(&c);
        shard_costs.push(c);
    }
    hits.sort_by_key(lpa_of);
    Ok((hits, cost, shard_costs))
}
