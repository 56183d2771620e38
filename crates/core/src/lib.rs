//! Project Almanac core: the TimeSSD flash translation layer plus the
//! regular-SSD and FlashGuard baselines it is evaluated against.
//!
//! This crate is the heart of the EuroSys'19 paper "Project Almanac: A
//! Time-Traveling Solid-State Drive" reproduction:
//!
//! - [`TimeSsd`] — the time-traveling FTL that retains invalidated pages in
//!   time order, delta-compresses them, and exposes per-LPA version chains.
//! - [`RegularSsd`] — a conventional page-mapping FTL with greedy GC, used
//!   as the baseline in Figures 6–7.
//! - [`FlashGuardSsd`] — a reproduction of the FlashGuard comparator used in
//!   Figure 10, which retains only pages suspected to be ransomware victims.
//!
//! All three are the one FTL skeleton, [`Ftl`], with a different
//! [`Retention`] policy for invalid pages; it implements the [`SsdDevice`]
//! trait over the deterministic flash simulator in [`almanac_flash`].
//!
//! The device also answers the paper's Table-1 queries itself, as its
//! firmware does behind the vendor commands of §4: the [`AddrQuery`]
//! builder and [`time_scan`] run on one shard-parallel scan engine over a
//! `&TimeSsd` and charge a [`QueryCost`], [`snapshot_at`] reconstructs pages
//! as of a time, and [`roll_back_set`] (with [`roll_back`] and
//! [`roll_back_all`]) restores LPAs through any [`SsdDevice`] with a read
//! view. The host toolkit, TimeKits, is a library over these.
//!
//! # Examples
//!
//! ```
//! use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
//! use almanac_flash::{Geometry, Lpa, PageData};
//!
//! let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
//! ssd.write(Lpa(1), PageData::bytes(b"v1".to_vec()), 1_000).unwrap();
//! ssd.write(Lpa(1), PageData::bytes(b"v2".to_vec()), 2_000).unwrap();
//! // Travel back in time: the old version is still there.
//! let old = ssd.version_as_of(Lpa(1), 1_500).unwrap();
//! assert_eq!(ssd.version_content(Lpa(1), old.timestamp).unwrap(),
//!            PageData::bytes(b"v1".to_vec()));
//! ```

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

mod alloc;
mod check;
mod config;
pub mod crypt;
mod device;
mod error;
mod flashguard;
mod ftl;
mod regular;
mod stats;
mod tables;
mod timessd;

pub use check::{ConsistencyReport, Violation};
pub use config::SsdConfig;
pub use device::{Completion, SsdDevice, SsdReadOps, MAX_ARRIVAL};
pub use error::{AlmanacError, Result};
pub use flashguard::{FlashGuardSsd, ReadGated};
pub use ftl::{Ftl, HostOp, Retention};
pub use regular::{Discard, RegularSsd};
pub use stats::{DeviceStats, LatencyAcc};
pub use tables::{AmtEntry, ShardedAmt};
pub use timessd::engine::QueryCost;
pub use timessd::query::{SsdReadView, VersionInfo, VersionLocation};
pub use timessd::table1::{roll_back, roll_back_all, roll_back_set, snapshot_at, time_scan};
pub use timessd::table1::{AddrQuery, AddrQueryOutcome, QueryHit, RollbackOutcome, TimeQueryHit};
pub use timessd::{TimeSsd, TimeTravel, REF_ZEROS};

// Query workers share `&TimeSsd` across scoped threads with no lock around
// the mapping tables: readers-xor-writer comes from `&`/`&mut`, which is
// sound only while the device and its tables are `Sync`. Checked here so a
// stray `Cell`/`Rc` fails this crate's build instead of racing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TimeSsd>();
    assert_send_sync::<ShardedAmt>();
};
