//! Demand caching of the address mapping table.
//!
//! A page-level AMT for a large SSD does not fit in controller RAM; the
//! paper's board (like DFTL, its reference [10]) keeps the AMT in flash as
//! translation pages and demand-caches recently used ones, with the global
//! mapping directory locating them. This module models that cache: accesses
//! touch a translation page; misses cost a flash-page read, and evicting a
//! dirty page costs a flash-page write. The traffic is accounted in time and
//! statistics without consuming simulated flash blocks (the translation
//! region is modelled as dedicated space).

use std::collections::VecDeque;

use almanac_flash::{LatencyConfig, Lpa, Nanos};

/// LRU cache of translation pages.
#[derive(Debug, Clone)]
pub(crate) struct MapCache {
    /// Mappings per translation page.
    per_page: u64,
    /// Capacity in translation pages; `None` disables (fully RAM-resident).
    capacity: Option<usize>,
    /// LRU queue of `(translation page index, dirty)` — front = coldest.
    lru: VecDeque<(u64, bool)>,
    /// Translation-page reads (cache misses).
    pub fault_reads: u64,
    /// Translation-page writes (dirty evictions).
    pub writeback_writes: u64,
}

impl MapCache {
    /// Creates a cache holding `capacity` translation pages of `per_page`
    /// mappings each; `None` capacity disables the model.
    pub fn new(per_page: u64, capacity: Option<usize>) -> Self {
        MapCache {
            per_page: per_page.max(1),
            capacity,
            lru: VecDeque::new(),
            fault_reads: 0,
            writeback_writes: 0,
        }
    }

    /// Touches the translation page covering `lpa`; returns the virtual-time
    /// cost of any fault and writeback this access incurred.
    pub fn access(&mut self, lpa: Lpa, dirty: bool, lat: &LatencyConfig) -> Nanos {
        let Some(capacity) = self.capacity else {
            return 0;
        };
        let tpage = lpa.0 / self.per_page;
        let mut cost = 0;
        if let Some(pos) = self.lru.iter().position(|(p, _)| *p == tpage) {
            // Hit: refresh recency, merge dirtiness.
            let (_, was_dirty) = self.lru.remove(pos).expect("just found");
            self.lru.push_back((tpage, was_dirty || dirty));
        } else {
            // Miss: fault the page in...
            cost += lat.read_total();
            self.fault_reads += 1;
            // ...evicting the coldest entry if full.
            if self.lru.len() >= capacity {
                if let Some((_, evict_dirty)) = self.lru.pop_front() {
                    if evict_dirty {
                        cost += lat.program_total();
                        self.writeback_writes += 1;
                    }
                }
            }
            self.lru.push_back((tpage, dirty));
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> LatencyConfig {
        LatencyConfig::default()
    }

    #[test]
    fn disabled_cache_is_free() {
        let mut c = MapCache::new(512, None);
        assert_eq!(c.access(Lpa(0), true, &lat()), 0);
        assert_eq!(c.fault_reads, 0);
    }

    #[test]
    fn first_access_faults_then_hits() {
        let mut c = MapCache::new(512, Some(4));
        let l = lat();
        assert_eq!(c.access(Lpa(0), false, &l), l.read_total());
        assert_eq!(c.access(Lpa(1), false, &l), 0); // same translation page
        assert_eq!(c.access(Lpa(511), false, &l), 0);
        assert_eq!(c.access(Lpa(512), false, &l), l.read_total()); // next page
        assert_eq!(c.fault_reads, 2);
    }

    #[test]
    fn dirty_eviction_costs_a_writeback() {
        let mut c = MapCache::new(1, Some(2));
        let l = lat();
        c.access(Lpa(0), true, &l);
        c.access(Lpa(1), false, &l);
        // Evicts dirty page 0: fault read + writeback.
        let cost = c.access(Lpa(2), false, &l);
        assert_eq!(cost, l.read_total() + l.program_total());
        assert_eq!(c.writeback_writes, 1);
    }

    #[test]
    fn clean_eviction_is_cheaper() {
        let mut c = MapCache::new(1, Some(1));
        let l = lat();
        c.access(Lpa(0), false, &l);
        let cost = c.access(Lpa(1), false, &l);
        assert_eq!(cost, l.read_total());
        assert_eq!(c.writeback_writes, 0);
    }

    #[test]
    fn lru_keeps_the_hot_page() {
        let mut c = MapCache::new(1, Some(2));
        let l = lat();
        c.access(Lpa(0), false, &l); // [0]
        c.access(Lpa(1), false, &l); // [0, 1]
        c.access(Lpa(0), false, &l); // [1, 0] — 0 refreshed
        c.access(Lpa(2), false, &l); // evicts 1
        assert_eq!(c.access(Lpa(0), false, &l), 0, "hot page was evicted");
    }

    #[test]
    fn only_the_first_touch_faults() {
        let mut c = MapCache::new(1, Some(8));
        let l = lat();
        for i in 0..4 {
            c.access(Lpa(i), false, &l);
        }
        for i in 0..4 {
            c.access(Lpa(i), false, &l);
        }
        assert_eq!(c.fault_reads, 4, "eight accesses, four faults");
    }
}
