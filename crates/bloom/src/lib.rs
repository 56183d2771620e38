//! Time-ordered Bloom filter chain for TimeSSD's expired-data daemon.
//!
//! TimeSSD (EuroSys'19, §3.5) records *when* flash pages were invalidated
//! without a per-page timestamp table: every invalidated physical page
//! address (at group granularity, N = 16 consecutive pages) is inserted into
//! the currently *active* Bloom filter. When a filter accumulates a fixed
//! number of insertions it is sealed and a fresh one becomes active, so each
//! filter covers one time segment. The retention window stretches from the
//! creation of the oldest live filter to the present; dropping the oldest
//! filter shortens the window, expiring every page recorded only there.
//!
//! False positives are safe (a page is retained a little longer); false
//! negatives cannot occur, so no live version is ever reclaimed early.
//!
//! # Examples
//!
//! ```
//! use almanac_bloom::{BloomChain, ChainConfig};
//! let mut chain = BloomChain::new(ChainConfig::default());
//! chain.insert(42, 1_000);
//! assert!(chain.contains(42));
//! // The retention window starts at the oldest filter's creation time.
//! assert_eq!(chain.retention_start(), Some(1_000));
//! ```

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

mod chain;
mod filter;

pub use chain::{BloomChain, ChainConfig, FilterId, SealedInfo};
pub use filter::BloomFilter;
