//! The one scan engine behind every Table-1 query: split the requested LPA
//! span (an [`LpaSpan`], clamped to the exported space where the query is
//! built) into `amt_shards` strided partitions ("shards": `lpa % width`),
//! walk them on scoped workers, merge deterministically.
//!
//! A shard is a unit of the query *schedule*, nothing more: the device's
//! AMT and IMT are flat tables, and this file holds the only
//! `lpa % width` in the workspace.
//!
//! Workers hold only a `&TimeSsd`, so any number of them can walk version
//! chains at once while no `&mut` command can run; that exclusion comes
//! from the borrow checker, not from a lock.

use almanac_core::TimeSsd;
use almanac_flash::{Lpa, LpaSpan};

use crate::cost::QueryCost;

/// Hits sorted by LPA, their total cost, and the per-shard costs.
pub(crate) type Scan<H> = (Vec<H>, QueryCost, Vec<QueryCost>);

/// Calls `visit` on every LPA of `span`, letting it push hits and charge
/// cost to the LPA's shard.
///
/// Worker `w` of `workers = min(threads, shards)` owns the shards
/// `w, w + workers, …` and walks the span once in ascending LPA order,
/// visiting the LPAs of the shards it owns — neighbouring LPAs share delta
/// pages, so an ascending walk keeps them warm. Worker 0 is the calling
/// thread; the others are scoped threads.
///
/// Determinism: each shard's LPAs are visited in ascending order and their
/// cost is filed under that shard, so the per-shard costs, and their sum,
/// are identical at every thread count. A shard stops at its first error
/// and the error of the lowest failing shard is reported. Hits are
/// stable-sorted by `lpa_of`; an LPA's hits all come from one worker in
/// visit order, so hits are identical at every shard and thread count.
pub(crate) fn scan<H: Send, E: Send>(
    ssd: &TimeSsd,
    span: LpaSpan,
    threads: u32,
    lpa_of: impl Fn(&H) -> Lpa,
    visit: impl Fn(Lpa, &mut Vec<H>, &mut QueryCost) -> Result<(), E> + Sync,
) -> Result<Scan<H>, E> {
    let width = u64::from(ssd.amt_shards());
    let chips = ssd.geometry().total_chips() as u32;
    let workers = u64::from(threads).clamp(1, width);
    let span = span.range();
    // The walk goes row by row, a row being `width` consecutive LPAs from a
    // multiple of `width`: LPA `row + s` belongs to shard `s`. The span lies
    // inside the exported space, so `row + s` cannot overflow.
    let walk = |w: u64| {
        let owned: Vec<u64> = (w..width).step_by(workers as usize).collect();
        let mut hits = Vec::new();
        let mut shards: Vec<Result<QueryCost, E>> =
            owned.iter().map(|_| Ok(QueryCost::new(chips))).collect();
        let first_row = span.start - span.start % width;
        for row in (first_row..span.end).step_by(width as usize) {
            for (&s, shard) in owned.iter().zip(&mut shards) {
                let lpa = row + s;
                if lpa < span.start {
                    continue;
                }
                if lpa >= span.end {
                    break;
                }
                if let Ok(cost) = shard {
                    if let Err(e) = visit(Lpa(lpa), &mut hits, cost) {
                        *shard = Err(e);
                    }
                }
            }
        }
        (hits, shards)
    };

    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let walk = &walk;
        let others: Vec<_> = (1..workers).map(|w| scope.spawn(move || walk(w))).collect();
        std::iter::once(walk(0))
            .chain(
                others
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            )
            .collect()
    });

    let mut hits = Vec::new();
    let mut per_worker_shards = Vec::with_capacity(per_worker.len());
    for (h, shards) in per_worker {
        hits.extend(h);
        per_worker_shards.push(shards.into_iter());
    }
    // Shard `s` is the next unclaimed shard of worker `s % workers`.
    let mut cost = QueryCost::new(chips);
    let mut shard_costs = Vec::with_capacity(width as usize);
    for s in 0..width {
        let c = per_worker_shards[(s % workers) as usize]
            .next()
            .expect("each worker returns one result per shard it owns")?;
        cost.merge(&c);
        shard_costs.push(c);
    }
    hits.sort_by_key(lpa_of);
    Ok((hits, cost, shard_costs))
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::thread::ThreadId;

    use almanac_core::{SsdConfig, SsdReadOps};
    use almanac_flash::Geometry;

    use super::*;

    const WIDTH: u32 = 8;

    fn device() -> TimeSsd {
        TimeSsd::new(SsdConfig::new(Geometry::small_test()).with_amt_shards(WIDTH))
    }

    /// Every LPA of `span` visited at `threads` workers, with the thread
    /// that visited it, in visit order.
    fn visits(ssd: &TimeSsd, span: LpaSpan, threads: u32) -> Vec<(ThreadId, u64)> {
        let seen = Mutex::new(Vec::new());
        scan(
            ssd,
            span,
            threads,
            |&lpa: &Lpa| lpa,
            |lpa, _, _| -> Result<(), ()> {
                seen.lock()
                    .unwrap()
                    .push((std::thread::current().id(), lpa.0));
                Ok(())
            },
        )
        .unwrap();
        seen.into_inner().unwrap()
    }

    #[test]
    fn one_worker_walks_the_span_in_ascending_order() {
        let ssd = device();
        let span = LpaSpan::clamped(Lpa(5), 40, ssd.exported_pages());
        let order: Vec<u64> = visits(&ssd, span, 1).into_iter().map(|v| v.1).collect();
        assert_eq!(order, (5..45).collect::<Vec<_>>());
    }

    #[test]
    fn each_worker_walks_its_shards_in_ascending_order() {
        let ssd = device();
        let span = LpaSpan::clamped(Lpa(3), 61, ssd.exported_pages());
        for threads in [3, 8] {
            let seen = visits(&ssd, span, threads);
            let mut all: Vec<u64> = seen.iter().map(|v| v.1).collect();
            all.sort_unstable();
            assert_eq!(all, (3..64).collect::<Vec<_>>(), "{threads} threads");
            // One worker per thread; a worker's shards are one residue
            // class modulo `threads`, and its visits ascend.
            let mut by_thread = std::collections::HashMap::<ThreadId, Vec<u64>>::new();
            for (t, lpa) in seen {
                by_thread.entry(t).or_default().push(lpa);
            }
            assert_eq!(by_thread.len(), threads as usize);
            for lpas in by_thread.values() {
                assert!(lpas.windows(2).all(|w| w[0] < w[1]), "{lpas:?}");
                let worker = lpas[0] % u64::from(WIDTH) % u64::from(threads);
                assert!(lpas
                    .iter()
                    .all(|l| l % u64::from(WIDTH) % u64::from(threads) == worker));
            }
        }
    }

    #[test]
    fn a_shard_stops_at_its_first_error_and_the_lowest_failing_shard_reports() {
        let ssd = device();
        let span = LpaSpan::clamped(Lpa(0), 64, ssd.exported_pages());
        // Shard 3 fails first in LPA order; shard 2 is the lowest failing
        // shard, and it fails again at 18.
        let failing = [3, 10, 18, 13];
        for threads in [1, 3, 8] {
            let seen = Mutex::new(Vec::new());
            let err = scan(
                &ssd,
                span,
                threads,
                |&lpa: &Lpa| lpa,
                |lpa, _, _| {
                    seen.lock().unwrap().push(lpa.0);
                    if failing.contains(&lpa.0) {
                        Err(lpa.0)
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, 10, "{threads} threads");
            let seen = seen.into_inner().unwrap();
            assert!(!seen.contains(&26), "shard 2 went on past its error");
            assert!(seen.contains(&63), "shard 7 stopped with shard 2");
        }
    }
}
