//! The time-ordered chain of Bloom filters.

use std::collections::VecDeque;

use crate::filter::BloomFilter;

/// Identifier of one filter (time segment); monotonically increasing.
pub type FilterId = u64;

/// Configuration of the filter chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Bits per filter.
    pub bits_per_filter: u64,
    /// Hash probes per filter.
    pub hashes: u32,
    /// Insertions after which the active filter is sealed and a new one
    /// created (the paper's "fixed number of PPAs" per filter).
    pub capacity: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            bits_per_filter: 1 << 16,
            hashes: 4,
            capacity: 4096,
        }
    }
}

/// Metadata of a sealed (or dropped) filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedInfo {
    /// Filter identity.
    pub id: FilterId,
    /// Virtual time the filter was created (starts its time segment).
    pub created_at: u64,
    /// Keys recorded in the filter.
    pub count: u64,
}

#[derive(Clone)]
struct Segment {
    filter: BloomFilter,
    info: SealedInfo,
}

/// A chain of Bloom filters ordered by creation time (oldest first).
///
/// # Examples
///
/// ```
/// use almanac_bloom::{BloomChain, ChainConfig};
/// let mut chain = BloomChain::new(ChainConfig { capacity: 2, ..Default::default() });
/// chain.insert(1, 10);
/// chain.insert(2, 20); // seals the first filter
/// chain.insert(3, 30);
/// assert_eq!(chain.len(), 2);
/// let dropped = chain.drop_oldest().unwrap();
/// assert_eq!(dropped.id, 0);
/// ```
#[derive(Clone)]
pub struct BloomChain {
    config: ChainConfig,
    segments: VecDeque<Segment>,
    next_id: FilterId,
}

impl BloomChain {
    /// Creates an empty chain; the first insertion creates the first filter.
    pub fn new(config: ChainConfig) -> Self {
        BloomChain {
            config,
            segments: VecDeque::new(),
            next_id: 0,
        }
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Number of live filters.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if no filters are live.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Identity of the currently active (newest) filter, if any.
    pub fn active_id(&self) -> Option<FilterId> {
        self.segments.back().map(|s| s.info.id)
    }

    /// Creation time of the oldest live filter — the start of the retention
    /// window.
    pub fn retention_start(&self) -> Option<u64> {
        self.segments.front().map(|s| s.info.created_at)
    }

    /// Creation time of the *second*-oldest filter: where the window start
    /// would move if the oldest filter were dropped.
    pub fn retention_start_after_drop(&self) -> Option<u64> {
        self.segments.get(1).map(|s| s.info.created_at)
    }

    /// Inserts an invalidated key at virtual time `now`; returns the id of
    /// the filter that recorded it. Seals the active filter when full.
    pub fn insert(&mut self, key: u64, now: u64) -> FilterId {
        let needs_new = match self.segments.back() {
            None => true,
            Some(seg) => seg.filter.count() >= self.config.capacity,
        };
        if needs_new {
            let id = self.next_id;
            self.next_id += 1;
            self.segments.push_back(Segment {
                filter: BloomFilter::new(self.config.bits_per_filter, self.config.hashes),
                info: SealedInfo {
                    id,
                    created_at: now,
                    count: 0,
                },
            });
        }
        let seg = self.segments.back_mut().expect("just ensured non-empty");
        seg.filter.insert(key);
        seg.info.count = seg.filter.count();
        seg.info.id
    }

    /// True if `key` may be recorded in *any* live filter.
    ///
    /// Checks newest-to-oldest, as §3.6 prescribes, so a hit reports the most
    /// recent matching segment first.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Returns the id of the newest live filter that may contain `key`.
    pub fn find(&self, key: u64) -> Option<FilterId> {
        self.segments
            .iter()
            .rev()
            .find(|s| s.filter.contains(key))
            .map(|s| s.info.id)
    }

    /// Drops the oldest filter, shortening the retention window; returns its
    /// metadata so the caller can reclaim the delta blocks dedicated to it.
    pub fn drop_oldest(&mut self) -> Option<SealedInfo> {
        self.segments.pop_front().map(|s| s.info)
    }

    /// True if filter `id` is still live. Ids are issued in order and
    /// dropped oldest first, so the live ids are one contiguous range.
    pub fn is_live(&self, id: FilterId) -> bool {
        match (self.segments.front(), self.segments.back()) {
            (Some(oldest), Some(newest)) => (oldest.info.id..=newest.info.id).contains(&id),
            _ => false,
        }
    }

    /// Metadata of every live filter, oldest first.
    pub fn infos(&self) -> Vec<SealedInfo> {
        self.segments.iter().map(|s| s.info).collect()
    }

    /// Total memory footprint of all live filters in bytes.
    pub fn size_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.filter.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BloomChain {
        BloomChain::new(ChainConfig {
            bits_per_filter: 1 << 10,
            hashes: 3,
            capacity: 4,
        })
    }

    #[test]
    fn seals_at_capacity() {
        let mut c = small();
        for i in 0..4 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 1);
        c.insert(99, 100);
        assert_eq!(c.len(), 2);
        assert_eq!(c.active_id(), Some(1));
    }

    #[test]
    fn retention_window_tracks_oldest() {
        let mut c = small();
        c.insert(1, 10);
        for i in 0..4 {
            c.insert(i + 2, 20 + i);
        }
        assert_eq!(c.retention_start(), Some(10));
        let dropped = c.drop_oldest().unwrap();
        assert_eq!(dropped.created_at, 10);
        assert_eq!(c.retention_start(), Some(23));
    }

    #[test]
    fn dropping_oldest_expires_its_keys() {
        let mut c = small();
        for i in 0..4 {
            c.insert(i, i);
        }
        c.insert(100, 50); // second filter
        assert!(c.contains(2));
        c.drop_oldest();
        // Key 2 was only in the dropped filter; may still false-positive in
        // filter 1, but with distinct keys in a 1Ki-bit filter it's unlikely.
        assert!(!c.contains(2));
        assert!(c.contains(100));
    }

    #[test]
    fn find_prefers_newest_segment() {
        let mut c = small();
        for i in 0..4 {
            c.insert(7, i); // fill filter 0 with the same key
        }
        c.insert(7, 50); // also in filter 1
        assert_eq!(c.find(7), Some(1));
    }

    #[test]
    fn empty_chain_behaves() {
        let mut c = small();
        assert!(c.is_empty());
        assert_eq!(c.retention_start(), None);
        assert_eq!(c.drop_oldest(), None);
        assert!(!c.contains(5));
    }

    #[test]
    fn retention_start_after_drop_previews_window() {
        let mut c = small();
        for i in 0..9 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.retention_start(), Some(0));
        assert_eq!(c.retention_start_after_drop(), Some(40));
    }

    #[test]
    fn size_bytes_scales_with_filters() {
        let mut c = small();
        c.insert(0, 0);
        let one = c.size_bytes();
        for i in 0..4 {
            c.insert(i, 0);
        }
        assert_eq!(c.size_bytes(), 2 * one);
    }
}
