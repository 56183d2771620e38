//! Simulated NVMe command interface for Project Almanac.
//!
//! The paper's implementation (§4) runs on a Cosmos+ OpenSSD board speaking
//! NVMe: "Besides basic I/O commands to issue read and write requests, we
//! define new NVMe commands to wrap the TimeKits API. TimeKits is developed
//! atop the host NVMe driver which issues NVMe commands to the firmware."
//!
//! This crate reproduces that interface boundary:
//!
//! - The wire format: 64-byte [`SubmissionEntry`]s with real binary
//!   encode/decode (opcode, command id, NSID, CDW10–15), including the
//!   vendor-specific [`NvmeOpcode`]s that carry the Table-1 TimeKits
//!   commands. Completions are not encoded: a 16-byte CQE holds no more
//!   than a status and a result dword, and the host here gets the device's
//!   own result.
//! - [`NvmeController`] — a controller over any device (a
//!   [`TimeSsd`](almanac_core::TimeSsd) by default): commands are queued,
//!   fetched, interpreted, executed against the FTL, and completed with
//!   [`NvmeStatus`] codes. The vendor opcodes run the device's own Table-1
//!   bodies from `almanac_core` (`AddrQuery`, `time_scan`, `roll_back`); a
//!   device without history answers them with Invalid Opcode. A query runs
//!   on the controller's thread; its completion posts at `now` plus the
//!   *modelled* makespan of its `QueryCost` schedule over the host workers
//!   it names, not at a measured host time.
//! - One record per command. A Write's pages ride beside its 64-byte entry
//!   into the queue. The controller makes the command's [`CompletedIo`]
//!   when it starts it and posts that record once its finish passes: its
//!   [`Outcome`] is what the device returned, unconverted — a read's pages
//!   or a Table-1 body's outcome as an [`Answer`], or the device's own
//!   `AlmanacError` (`Unsupported` or `InvalidCommand` when the controller
//!   refused the command itself). PRP lists are not modelled, so nothing
//!   crosses as bytes.
//! - [`HostDriver`] — the host-side driver exposing a typed API over the
//!   queues. It is an `SsdDevice` itself and its vendor calls return the
//!   device's own `Result` too, so a file system, a replayer or the oracle
//!   runs over the queues unchanged. The host toolkit (`almanac_kits::TimeKits`) still
//!   calls the device directly rather than through this driver.
//!
//! # Examples
//!
//! ```
//! use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
//! use almanac_flash::{Geometry, Lpa, PageData, SEC_NS};
//! use almanac_nvme::{HostDriver, NvmeController};
//!
//! let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
//! let mut driver = HostDriver::new(NvmeController::new(ssd));
//! let page = PageData::bytes(b"hello almanac".to_vec());
//! driver.write(Lpa(3), page.clone(), SEC_NS).unwrap();
//! let (data, done) = driver.read(Lpa(3), 2 * SEC_NS).unwrap();
//! assert_eq!(data, page);
//! assert!(done.finish > 2 * SEC_NS);
//! ```

#![warn(missing_docs, unreachable_pub)]

mod controller;
mod driver;
mod queue;
mod sqe;

pub use controller::{NvmeController, NvmeStatus, DEFAULT_QUEUE_DEPTH};
pub use driver::{DriverError, HostDriver};
pub use queue::{Answer, CompletedIo, Outcome, Ticket};
pub use sqe::{NvmeOpcode, SubmissionEntry};
