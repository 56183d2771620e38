//! FTL configuration.

use std::convert::Infallible;

use almanac_bloom::ChainConfig;
use almanac_flash::{FaultPlan, Geometry, Nanos, DAY_NS, MS_NS, US_NS};

/// Over-provisioned fraction of raw capacity (not exported to the host).
const OP_RATIO: f64 = 0.15;

/// Configuration shared by every FTL in this crate.
///
/// Defaults follow the paper: invalidation tracked at a group granularity of
/// 16 pages, a 3-day retention lower bound, a GC overhead threshold of 20%
/// of a page-write cost evaluated every 4096 user page writes, a 10 ms idle
/// threshold, and a mean synthetic delta-compression ratio of 0.2. The
/// paper's 15% over-provisioning and its idle-time smoothing factor α = 0.5
/// are constants, not knobs: nothing ever set them.
///
/// # Examples
///
/// ```
/// use almanac_core::SsdConfig;
/// use almanac_flash::Geometry;
/// let cfg = SsdConfig::new(Geometry::small_test());
/// assert!(cfg.exported_pages() < cfg.geometry.total_pages());
/// ```
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Flash array shape.
    pub geometry: Geometry,
    /// Invalidations are recorded in the Bloom filters at this group
    /// granularity (N consecutive pages of a block, §3.5).
    pub group_size: u32,
    /// Bloom filter chain parameters.
    pub bloom: ChainConfig,
    /// Guaranteed lower bound on the retention window (§3.4).
    pub min_retention: Nanos,
    /// `TH` of Equation 1: shorten the window when estimated GC overhead per
    /// user write exceeds `TH × C_write`.
    pub gc_overhead_threshold: f64,
    /// `N_fixed` of Equation 1: user page writes per estimation period.
    pub n_fixed: u64,
    /// Predicted idle time must exceed this for background compression.
    pub idle_threshold: Nanos,
    /// Mean of the Gaussian compression-ratio model for synthetic content
    /// (pages without real bytes), as in §5.2.
    pub synthetic_delta_mean: f64,
    /// Standard deviation of the synthetic compression-ratio model.
    pub synthetic_delta_std: f64,
    /// Erase-count spread (max − min) that triggers a wear-leveling swap.
    /// Test-facing: no figure varies it; the oracle's wearing suite lowers
    /// it so swaps run under the model.
    pub wl_spread_threshold: u32,
    /// Optional per-block erase endurance. Test-facing: the end-of-life
    /// tests set it; no figure wears a block out.
    pub endurance: Option<u32>,
    /// Optional user-supplied key encrypting retained (compressed) versions,
    /// the §3.10 defense against secure-deletion leaks: history stays
    /// recoverable for the key holder but unreadable to anyone else.
    /// Test-facing: no figure measures §3.10; the encryption tests set it.
    pub retention_key: Option<u64>,
    /// Inert: the type admits only `None`, so nothing can set it. The AMT
    /// is RAM-resident and there is no map cache; the field is named by the
    /// frozen `benchmark/src/device.rs` assert only. Delete it with that
    /// assert.
    pub amt_cache_pages: Option<Infallible>,
    /// Deterministic fault schedule installed into the flash array at
    /// device construction (power cuts, injected op failures, OOB bit-rot).
    /// `None` builds a fault-free device. Test-facing: only the crash and
    /// fault suites and the nightly `long_fuzz` set it.
    pub fault_plan: Option<FaultPlan>,
    /// Buffered TRIM tombstones that force a flush of the holding delta
    /// buffer. `1` journals every acked trim synchronously (the pre-barrier
    /// behaviour, maximum durability and write amplification); larger values
    /// coalesce tombstones until the watermark, a capacity flush, or a host
    /// flush barrier; `0` relies on barriers/capacity alone.
    pub trim_journal_watermark: u32,
    /// Controller-side cost charged per buffered delta page flushed by a host
    /// barrier, on top of the flash program itself (DMA out of the buffer
    /// RAM, OOB bookkeeping). Serialized against `busy_until`, so fsync
    /// latency grows with the number of dirty buffers.
    pub flush_page_cost: Nanos,
    /// Fixed per-barrier overhead of a host flush (command decode, barrier
    /// bookkeeping), charged even when no buffer is dirty.
    pub flush_barrier_cost: Nanos,
    /// Age bound on volatile TRIM tombstones: the maintenance path flushes
    /// any delta buffer whose *oldest pending tombstone* was enqueued more
    /// than this long ago, so rarely-trimming workloads don't hold acked
    /// trims volatile indefinitely between barriers. `0` disables aging.
    /// Test-facing: the oracle's tombstone-aging suites shorten it to 2 ms
    /// so aging fires inside a run, with `0` as their control.
    pub tombstone_flush_deadline: Nanos,
    /// Partition width of the scan schedule: a ranged storage-state query
    /// splits its LPA span into `amt_shards` strided partitions and fans
    /// them across at most that many workers through `&self`. Never a
    /// storage property — the AMT and the IMT are flat tables nothing
    /// indexes with it — so it changes neither host-visible state nor
    /// completion times, only query parallelism. Defaults to the channel
    /// count; clamped to at least 1.
    pub amt_shards: u32,
}

impl SsdConfig {
    /// Paper-default configuration for the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        SsdConfig {
            geometry,
            group_size: 16,
            bloom: ChainConfig::default(),
            min_retention: 3 * DAY_NS,
            gc_overhead_threshold: 0.2,
            n_fixed: 4096,
            idle_threshold: 10 * MS_NS,
            synthetic_delta_mean: 0.2,
            synthetic_delta_std: 0.05,
            wl_spread_threshold: 32,
            endurance: None,
            retention_key: None,
            amt_cache_pages: None,
            fault_plan: None,
            trim_journal_watermark: 8,
            flush_page_cost: 10 * US_NS,
            flush_barrier_cost: 20 * US_NS,
            tombstone_flush_deadline: 500 * MS_NS,
            amt_shards: geometry.channels.max(1),
        }
    }

    /// Number of pages exported to the host (raw capacity minus
    /// over-provisioning).
    pub fn exported_pages(&self) -> u64 {
        (self.geometry.total_pages() as f64 * (1.0 - OP_RATIO)) as u64
    }

    /// Sets the minimum retention window.
    pub fn with_min_retention(mut self, window: Nanos) -> Self {
        self.min_retention = window;
        self
    }

    /// Sets the Bloom chain parameters.
    pub fn with_bloom(mut self, bloom: ChainConfig) -> Self {
        self.bloom = bloom;
        self
    }

    /// Sets the synthetic compression-ratio model.
    pub fn with_synthetic_delta(mut self, mean: f64, std: f64) -> Self {
        self.synthetic_delta_mean = mean;
        self.synthetic_delta_std = std;
        self
    }

    /// Enables retained-data encryption under a user key (§3.10).
    pub fn with_retention_key(mut self, key: u64) -> Self {
        self.retention_key = Some(key);
        self
    }

    /// Installs a deterministic fault schedule (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the tombstone-coalescing watermark of the trim journal
    /// (`1` = flush per acked trim, `0` = barrier/capacity flushes only).
    pub fn with_trim_journal_watermark(mut self, watermark: u32) -> Self {
        self.trim_journal_watermark = watermark;
        self
    }

    /// Sets the barrier cost model: per-flushed-page controller cost and
    /// fixed per-barrier overhead. `(0, 0)` reproduces the old zero-cost
    /// barrier (flash programs are still charged).
    pub fn with_flush_costs(mut self, page_cost: Nanos, barrier_cost: Nanos) -> Self {
        self.flush_page_cost = page_cost;
        self.flush_barrier_cost = barrier_cost;
        self
    }

    /// Sets the volatile-tombstone age bound enforced by the maintenance
    /// path (`0` disables aging flushes).
    pub fn with_tombstone_flush_deadline(mut self, deadline: Nanos) -> Self {
        self.tombstone_flush_deadline = deadline;
        self
    }

    /// Sets the scan partition width (clamped to at least 1).
    pub fn with_amt_shards(mut self, shards: u32) -> Self {
        self.amt_shards = shards.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exported_capacity_applies_op_ratio() {
        let cfg = SsdConfig::new(Geometry::small_test());
        let raw = cfg.geometry.total_pages();
        assert_eq!(cfg.exported_pages(), (raw as f64 * 0.85) as u64);
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = SsdConfig::new(Geometry::small_test());
        assert_eq!(cfg.group_size, 16);
        assert_eq!(cfg.min_retention, 3 * DAY_NS);
        assert!((cfg.gc_overhead_threshold - 0.2).abs() < f64::EPSILON);
        assert_eq!(cfg.n_fixed, 4096);
        assert_eq!(cfg.idle_threshold, 10 * MS_NS);
        assert!((cfg.synthetic_delta_mean - 0.2).abs() < f64::EPSILON);
        assert_eq!(cfg.flush_page_cost, 10 * US_NS);
        assert_eq!(cfg.flush_barrier_cost, 20 * US_NS);
        assert_eq!(cfg.tombstone_flush_deadline, 500 * MS_NS);
        assert_eq!(cfg.amt_shards, cfg.geometry.channels.max(1));
    }

    #[test]
    fn shard_count_defaults_to_channels_and_clamps_to_one() {
        let cfg = SsdConfig::new(Geometry::small_test());
        assert_eq!(cfg.amt_shards, cfg.geometry.channels);
        assert_eq!(cfg.clone().with_amt_shards(0).amt_shards, 1);
        assert_eq!(cfg.with_amt_shards(8).amt_shards, 8);
    }

    #[test]
    fn builders_apply() {
        let cfg = SsdConfig::new(Geometry::small_test())
            .with_min_retention(5)
            .with_synthetic_delta(0.1, 0.01)
            .with_trim_journal_watermark(1)
            .with_flush_costs(7, 11)
            .with_tombstone_flush_deadline(MS_NS);
        assert_eq!(cfg.min_retention, 5);
        assert!((cfg.synthetic_delta_mean - 0.1).abs() < f64::EPSILON);
        assert_eq!(cfg.trim_journal_watermark, 1);
        assert_eq!(cfg.flush_page_cost, 7);
        assert_eq!(cfg.flush_barrier_cost, 11);
        assert_eq!(cfg.tombstone_flush_deadline, MS_NS);
    }
}
