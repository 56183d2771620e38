//! Deterministic NAND flash array simulator for Project Almanac.
//!
//! This crate models the hardware substrate of the paper "Project Almanac: A
//! Time-Traveling Solid-State Drive" (EuroSys'19): an array of flash chips
//! organised as channels → chips → planes → blocks → pages, with per-page
//! out-of-band (OOB) metadata, realistic operation latencies, and a per-chip
//! `busy-until` timing model driven by a virtual nanosecond clock.
//!
//! The simulator enforces the physical constraints of NAND flash:
//!
//! - pages are read and programmed at page granularity,
//! - a page can only be programmed when free (after a block erase),
//! - pages within a block must be programmed sequentially,
//! - erases operate on whole blocks and are an order of magnitude slower
//!   than programs.
//!
//! # Examples
//!
//! ```
//! use almanac_flash::{FlashArray, Geometry, LatencyConfig, PageData, Oob, Lpa};
//!
//! let geo = Geometry::small_test();
//! let mut flash = FlashArray::new(geo, LatencyConfig::default());
//! let ppa = geo.ppa(0, 0); // first page of block 0
//! let oob = Oob::new(Lpa(7), None, 1_000);
//! let done = flash.program(ppa, PageData::Zeros, oob, 0).unwrap();
//! let (data, oob, _t) = flash.read(ppa, done).unwrap();
//! assert_eq!(oob.lpa, Lpa(7));
//! assert_eq!(data, PageData::Zeros);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod array;
mod error;
mod fault;
mod geometry;
mod latency;
mod page;
mod stats;

pub use addr::{
    BlockId, Lpa, LpaSpan, Nanos, Ppa, DAY_NS, HOUR_NS, MINUTE_NS, MS_NS, SEC_NS, US_NS,
};
pub use array::{Block, BlockState, FlashArray, Page, PageState};
pub use error::{FlashError, FlashResult};
pub use fault::{FaultPlan, FlashOp, InjectedKind, OpFault};
pub use geometry::Geometry;
pub use latency::LatencyConfig;
pub use page::{DeltaBody, DeltaPage, DeltaRecord, DeltaRecords, Oob, PageData};
pub use stats::FlashStats;
