//! The one scan engine behind every Table-1 query, and the virtual cost it
//! charges.
//!
//! [`scan`] splits the requested LPA span (an [`LpaSpan`], clamped to the
//! exported space where the query is built) into `amt_shards` strided
//! partitions ("shards": `lpa % width`), walks them on scoped workers, and
//! merges deterministically. A shard is a unit of the query *schedule*,
//! nothing more: the device's AMT and IMT are flat tables, and this file
//! holds the only `lpa % width` in the workspace.
//!
//! Workers hold only a `&TimeSsd`, so any number of them can walk version
//! chains at once while no `&mut` command can run; that exclusion comes
//! from the borrow checker, not from a lock.
//!
//! Query work is a bag of flash reads (each pinned to the chip holding the
//! page) plus firmware CPU work (delta decompression), kept in a
//! [`QueryCost`]. The per-chip read queues are scheduled onto `threads`
//! workers round-robin; the reported latency is the makespan — which is how
//! the paper's queries get faster with more threads (Figure 11) while a
//! single chip's queue bounds the speedup.

use almanac_flash::{Lpa, LpaSpan, Nanos};

use super::TimeSsd;

/// Accumulated virtual cost of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryCost {
    per_chip: Vec<Nanos>,
    cpu: Nanos,
    /// Flash reads issued.
    pub flash_reads: u64,
    /// Deltas decompressed.
    pub decompressions: u64,
}

impl QueryCost {
    /// Empty cost over `chips` flash chips.
    pub fn new(chips: u32) -> Self {
        QueryCost {
            per_chip: vec![0; chips as usize],
            cpu: 0,
            flash_reads: 0,
            decompressions: 0,
        }
    }

    /// Charges one flash read of `cost` to `chip`.
    pub fn charge_read(&mut self, chip: u32, cost: Nanos) {
        self.per_chip[chip as usize] += cost;
        self.flash_reads += 1;
    }

    /// Charges CPU work (decompression, verification).
    pub fn charge_cpu(&mut self, cost: Nanos) {
        self.cpu += cost;
    }

    /// Notes one decompression (the CPU cost is charged separately).
    pub fn note_decompression(&mut self) {
        self.decompressions += 1;
    }

    /// Merges another cost (e.g. from a parallel worker).
    pub fn merge(&mut self, other: &QueryCost) {
        for (a, b) in self.per_chip.iter_mut().zip(&other.per_chip) {
            *a += b;
        }
        self.cpu += other.cpu;
        self.flash_reads += other.flash_reads;
        self.decompressions += other.decompressions;
    }

    /// Query latency with `threads` host workers: chips are dealt to the
    /// workers round-robin; a worker's time is the sum of its chips' queues;
    /// the makespan is the worst worker.
    ///
    /// CPU work (decompression) only exists where flash reads produced
    /// deltas, so it is distributed over the *loaded* workers — ceiling
    /// shares first, the remainder nanoseconds one per worker — never
    /// spread onto idle workers and never rounded down to zero.
    pub fn makespan(&self, threads: u32) -> Nanos {
        let threads = threads.max(1) as usize;
        let mut workers = vec![0u64; threads];
        for (chip, &cost) in self.per_chip.iter().enumerate() {
            workers[chip % threads] += cost;
        }
        if self.cpu > 0 {
            let loaded: Vec<usize> = (0..threads).filter(|&w| workers[w] > 0).collect();
            // A pure-CPU query (no chip work at all) still runs somewhere:
            // fall back to all workers.
            let targets: Vec<usize> = if loaded.is_empty() {
                (0..threads).collect()
            } else {
                loaded
            };
            let n = targets.len() as u64;
            let share = self.cpu / n;
            let remainder = (self.cpu % n) as usize;
            for (i, &w) in targets.iter().enumerate() {
                workers[w] += share + u64::from(i < remainder);
            }
        }
        workers.into_iter().max().unwrap_or(0)
    }
}

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

    use almanac_flash::Geometry;

    use super::*;
    use crate::{SsdConfig, SsdReadOps};

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

    #[test]
    fn makespan_single_thread_sums_everything() {
        let mut c = QueryCost::new(4);
        c.charge_read(0, 10);
        c.charge_read(1, 20);
        c.charge_cpu(5);
        assert_eq!(c.makespan(1), 35);
    }

    #[test]
    fn makespan_shrinks_with_threads() {
        let mut c = QueryCost::new(4);
        for chip in 0..4 {
            c.charge_read(chip, 100);
        }
        assert_eq!(c.makespan(1), 400);
        assert_eq!(c.makespan(2), 200);
        assert_eq!(c.makespan(4), 100);
    }

    #[test]
    fn single_chip_bounds_speedup() {
        let mut c = QueryCost::new(4);
        c.charge_read(2, 100);
        c.charge_read(2, 100);
        assert_eq!(c.makespan(8), 200);
    }

    #[test]
    fn cpu_cost_survives_when_smaller_than_thread_count() {
        // Regression: with `cpu < threads`, the old even split computed
        // `cpu / threads == 0` and the decompression cost vanished.
        let threads = 4u32;
        let mut c = QueryCost::new(4);
        c.charge_read(0, 100);
        c.charge_cpu(threads as u64 - 1); // cpu = threads - 1 = 3
        assert_eq!(c.makespan(threads), 103);
        assert_eq!(c.makespan(1), 103);
    }

    #[test]
    fn cpu_cost_lands_on_loaded_workers_only() {
        // One loaded chip, many idle workers: the idle workers must not
        // absorb (and thereby hide) CPU time, and the loaded worker pays
        // all of it.
        let mut c = QueryCost::new(8);
        c.charge_read(3, 50);
        c.charge_cpu(40);
        assert_eq!(c.makespan(8), 90);
    }

    #[test]
    fn cpu_remainder_is_distributed_one_ns_per_worker() {
        // Two loaded workers, cpu = 5 → shares 3 and 2, not 2 and 2.
        let mut c = QueryCost::new(2);
        c.charge_read(0, 100);
        c.charge_read(1, 100);
        c.charge_cpu(5);
        assert_eq!(c.makespan(2), 103);
        // Total work is conserved under one thread.
        assert_eq!(c.makespan(1), 205);
    }

    #[test]
    fn pure_cpu_query_still_costs() {
        let mut c = QueryCost::new(4);
        c.charge_cpu(9);
        assert_eq!(c.makespan(4), 3); // ceil(9 / 4) on the busiest worker
        assert_eq!(c.makespan(1), 9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = QueryCost::new(2);
        a.charge_read(0, 10);
        let mut b = QueryCost::new(2);
        b.charge_read(1, 30);
        b.note_decompression();
        a.merge(&b);
        assert_eq!(a.flash_reads, 2);
        assert_eq!(a.decompressions, 1);
        assert_eq!(a.makespan(1), 40);
    }
}
