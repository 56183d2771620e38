//! Error types for the FTL layer.

use std::fmt;

use almanac_flash::{FlashError, Lpa, Nanos};

/// Errors raised by the FTLs in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlmanacError {
    /// A flash operation failed (simulator invariant violation — indicates an
    /// FTL bug, surfaced rather than masked).
    Flash(FlashError),
    /// The logical page address is outside the exported capacity.
    LpaOutOfRange {
        /// Offending address.
        lpa: Lpa,
        /// Number of exported pages.
        exported: u64,
    },
    /// Free space is exhausted and the retention guarantee forbids reclaiming
    /// more invalid data: the device stops serving I/O (§3.4 of the paper).
    DeviceStalled {
        /// Virtual time of the stall.
        now: Nanos,
        /// Width of the retention window at the stall.
        retention_window: Nanos,
    },
    /// No version of the page exists at/before the requested time.
    NoSuchVersion {
        /// Queried page.
        lpa: Lpa,
        /// Queried time.
        at: Nanos,
    },
    /// A delta could not be decoded (reference expired or data corrupt).
    DecodeFailed(&'static str),
    /// A host command arrived after [`crate::MAX_ARRIVAL`]; nothing was done.
    ArrivalTooLate(Nanos),
    /// An internal bookkeeping invariant did not hold. Surfaced as an error
    /// rather than a panic so fault-injection runs (power cuts, injected op
    /// failures) degrade gracefully instead of aborting the process.
    Internal(&'static str),
}

impl fmt::Display for AlmanacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlmanacError::Flash(e) => write!(f, "flash error: {e}"),
            AlmanacError::LpaOutOfRange { lpa, exported } => {
                write!(f, "{lpa} outside exported capacity of {exported} pages")
            }
            AlmanacError::DeviceStalled {
                now,
                retention_window,
            } => write!(
                f,
                "device stalled at t={now}ns: free space exhausted inside the \
                 {retention_window}ns retention guarantee"
            ),
            AlmanacError::NoSuchVersion { lpa, at } => {
                write!(f, "no version of {lpa} found at or before t={at}ns")
            }
            AlmanacError::DecodeFailed(why) => write!(f, "version decode failed: {why}"),
            AlmanacError::ArrivalTooLate(at) => {
                write!(f, "arrival at t={at}ns is past the device clock's range")
            }
            AlmanacError::Internal(why) => write!(f, "internal invariant violated: {why}"),
        }
    }
}

impl std::error::Error for AlmanacError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlmanacError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for AlmanacError {
    fn from(e: FlashError) -> Self {
        AlmanacError::Flash(e)
    }
}

/// Result alias for FTL operations.
pub type Result<T> = std::result::Result<T, AlmanacError>;

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::Ppa;

    #[test]
    fn display_mentions_context() {
        let e = AlmanacError::LpaOutOfRange {
            lpa: Lpa(10),
            exported: 5,
        };
        assert!(e.to_string().contains("L10"));
        let e = AlmanacError::Flash(FlashError::ReadFree(Ppa(1)));
        assert!(e.to_string().contains("P1"));
    }

    #[test]
    fn flash_errors_convert() {
        let e: AlmanacError = FlashError::ReadFree(Ppa(3)).into();
        assert!(matches!(e, AlmanacError::Flash(_)));
    }
}
