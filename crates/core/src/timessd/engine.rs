//! The one scan engine behind every Table-1 query, and the virtual cost it
//! charges.
//!
//! [`scan`] walks the requested LPA span (an [`LpaSpan`], clamped to the
//! exported space where the query is built) once, in ascending order, on
//! the caller's thread, and files each LPA's cost under one of `amt_shards`
//! strided partitions ("shards": `lpa % width`). A shard is a unit of the
//! query *schedule*, nothing more: the device's AMT and IMT are flat tables,
//! and this file holds the only `lpa % width` in the workspace.
//!
//! Query work is a bag of flash reads (each pinned to the chip holding the
//! page) plus firmware CPU work (delta decompression), kept in a
//! [`QueryCost`]. The parallelism is the model's: the per-chip read queues
//! are dealt to `threads` modelled host workers round-robin and the reported
//! latency is the makespan — which is how the paper's queries get faster
//! with more threads (Figure 11) while a single chip's queue bounds the
//! speedup. No OS thread runs a query.

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

    /// Merges another cost (e.g. a shard's into the query's total).
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

/// Hits in LPA order, their total cost, and the per-shard costs.
pub(crate) type Scan<H> = (Vec<H>, QueryCost, Vec<QueryCost>);

/// Calls `visit` on every LPA of `span` in ascending order — neighbouring
/// LPAs share delta pages, so the walk keeps them warm — letting it push
/// hits and charge cost to the LPA's shard, `lpa % amt_shards`.
///
/// A shard stops at its first error while the others go on, and the error
/// of the lowest failing shard is reported. The shards' costs, merged in
/// shard order, are the query's total, which does not depend on the width.
pub(crate) fn scan<H, E>(
    ssd: &TimeSsd,
    span: LpaSpan,
    mut visit: impl FnMut(Lpa, &mut Vec<H>, &mut QueryCost) -> Result<(), E>,
) -> Result<Scan<H>, E> {
    let width = u64::from(ssd.amt_shards());
    let chips = ssd.geometry().total_chips() as u32;
    let span = span.range();
    let mut hits = Vec::new();
    let mut shards: Vec<Result<QueryCost, E>> =
        (0..width).map(|_| Ok(QueryCost::new(chips))).collect();
    // The walk goes row by row, a row being `width` consecutive LPAs from a
    // multiple of `width`: LPA `row + s` belongs to shard `s`. The span lies
    // inside the exported space, so `row + s` cannot overflow.
    let first_row = span.start - span.start % width;
    for row in (first_row..span.end).step_by(width as usize) {
        for (s, shard) in (0..).zip(&mut shards) {
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
    let mut cost = QueryCost::new(chips);
    let shard_costs = shards
        .into_iter()
        .map(|shard| shard.inspect(|c| cost.merge(c)))
        .collect::<Result<_, E>>()?;
    Ok((hits, cost, shard_costs))
}

#[cfg(test)]
mod tests {
    use almanac_flash::Geometry;

    use super::*;
    use crate::{SsdConfig, SsdReadOps};

    const WIDTH: u32 = 8;

    fn device() -> TimeSsd {
        TimeSsd::new(SsdConfig::new(Geometry::small_test()).with_amt_shards(WIDTH))
    }

    #[test]
    fn the_walk_visits_the_span_in_ascending_order() {
        let ssd = device();
        let span = LpaSpan::clamped(Lpa(5), 40, ssd.exported_pages());
        let mut order = Vec::new();
        let (hits, _, shard_costs) = scan(&ssd, span, |lpa, hits, _| -> Result<(), ()> {
            order.push(lpa.0);
            hits.push(lpa);
            Ok(())
        })
        .unwrap();
        assert_eq!(order, (5..45).collect::<Vec<_>>());
        assert_eq!(hits, (5..45).map(Lpa).collect::<Vec<_>>());
        assert_eq!(shard_costs.len(), WIDTH as usize);
    }

    #[test]
    fn each_lpas_cost_is_filed_under_its_shard() {
        let ssd = device();
        let span = LpaSpan::clamped(Lpa(3), 61, ssd.exported_pages());
        let (_, cost, shard_costs) =
            scan(&ssd, span, |lpa, _: &mut Vec<()>, cost| -> Result<(), ()> {
                cost.charge_cpu(lpa.0);
                Ok(())
            })
            .unwrap();
        for (s, c) in (0..).zip(&shard_costs) {
            let expect: u64 = (3..64).filter(|l| l % u64::from(WIDTH) == s).sum();
            assert_eq!(c.makespan(1), expect, "shard {s}");
        }
        assert_eq!(cost.makespan(1), (3..64).sum::<u64>());
    }

    #[test]
    fn a_shard_stops_at_its_first_error_and_the_lowest_failing_shard_reports() {
        let ssd = device();
        let span = LpaSpan::clamped(Lpa(0), 64, ssd.exported_pages());
        // Shard 3 fails first in LPA order; shard 2 is the lowest failing
        // shard, and it fails again at 18.
        let failing = [3, 10, 18, 13];
        let mut seen = Vec::new();
        let err = scan(&ssd, span, |lpa, _: &mut Vec<()>, _| {
            seen.push(lpa.0);
            if failing.contains(&lpa.0) {
                Err(lpa.0)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, 10);
        assert!(!seen.contains(&26), "shard 2 went on past its error");
        assert!(seen.contains(&63), "shard 7 stopped with shard 2");
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
