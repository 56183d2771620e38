//! The block-device trait implemented by every FTL in this crate.

use almanac_flash::{Lpa, Nanos, PageData};

use crate::error::Result;
use crate::stats::DeviceStats;

/// Timing of one completed I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the device started serving the request (≥ arrival; later when the
    /// device was busy, e.g. in GC).
    pub start: Nanos,
    /// When the request finished.
    pub finish: Nanos,
}

impl Completion {
    /// Response time relative to the arrival time `arrived`.
    pub fn response(&self, arrived: Nanos) -> Nanos {
        self.finish.saturating_sub(arrived)
    }
}

/// The `&self` half of a simulated SSD: introspection and the time-travel
/// read view.
///
/// Splitting these off [`SsdDevice`] is what lets the storage-state query
/// path run without exclusive access to the device — the NVMe front end can
/// fan queries across LPA partitions while holding only `&self`,
/// instead of funnelling every lookup through the `&mut` command path.
pub trait SsdReadOps {
    /// Cumulative statistics.
    fn stats(&self) -> &DeviceStats;

    /// Number of host-visible pages.
    fn exported_pages(&self) -> u64;

    /// Human-readable device kind (e.g. `"regular"`, `"timessd"`).
    fn kind(&self) -> &'static str;

    /// Shared-access view of the device's retained history, if it keeps
    /// one. `None` for devices without time travel (the regular and
    /// FlashGuard baselines); `Some` for TimeSSD, whose view answers
    /// `version_as_of` / `versions_in` / `version_chain` through `&self`.
    fn read_view(&self) -> Option<crate::timessd::query::SsdReadView<'_>> {
        None
    }
}

/// A simulated SSD exposed as a page-granular block device.
///
/// All methods take the virtual arrival time `now`; implementations account
/// internal work (garbage collection, compression) into the returned
/// [`Completion`]. The `&self` introspection methods live on the
/// [`SsdReadOps`] supertrait.
pub trait SsdDevice: SsdReadOps {
    /// Writes one page of data to `lpa`.
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion>;

    /// Reads the current content of `lpa`.
    ///
    /// Reading a never-written (or trimmed) page returns zeros without
    /// touching flash, as the mapping table resolves it in firmware.
    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)>;

    /// Invalidates `lpa` (TRIM/discard).
    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion>;

    /// Durability barrier (NVMe Flush): on return, every write and trim
    /// acknowledged before the call — including versions still sitting in
    /// volatile buffers — is recoverable after a power cut.
    ///
    /// The barrier is also a *fence*: it must start no earlier than the
    /// device frees up (`busy_until`) and complete no earlier than the last
    /// acknowledged I/O finishes — an fsync acked before the writes it
    /// fences would break the crash contract. There is deliberately no
    /// default implementation: an earlier `Ok(Completion { start: now,
    /// finish: now })` default silently gave every device a time-traveling
    /// fsync.
    fn flush(&mut self, now: Nanos) -> Result<Completion>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_is_relative_to_arrival() {
        let c = Completion {
            start: 50,
            finish: 120,
        };
        assert_eq!(c.response(20), 100);
        assert_eq!(c.response(200), 0);
    }
}
