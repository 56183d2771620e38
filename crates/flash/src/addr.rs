//! Address and time primitives shared by the whole workspace.

use std::fmt;
use std::ops::Range;

/// Virtual time in nanoseconds since simulation start.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const US_NS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MS_NS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC_NS: Nanos = 1_000_000_000;
/// One minute in [`Nanos`].
pub const MINUTE_NS: Nanos = 60 * SEC_NS;
/// One hour in [`Nanos`].
pub const HOUR_NS: Nanos = 60 * MINUTE_NS;
/// One day in [`Nanos`].
pub const DAY_NS: Nanos = 24 * HOUR_NS;

/// Logical page address: the host-visible block-device page number.
///
/// # Examples
///
/// ```
/// use almanac_flash::Lpa;
/// let lpa = Lpa(42);
/// assert_eq!(lpa.0, 42);
/// assert_eq!(format!("{lpa}"), "L42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpa(pub u64);

impl fmt::Display for Lpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A checked run of logical pages inside a device's exported space: the one
/// place `(addr, cnt)` arithmetic is done. `start <= end <= exported` holds by
/// construction, so iterating a span never wraps and never leaves the device.
/// Each constructor is one of the three rules a caller may mean.
///
/// # Examples
///
/// ```
/// use almanac_flash::{Lpa, LpaSpan};
/// assert!(LpaSpan::whole(Lpa(6), 3, 8).is_none());
/// assert_eq!(LpaSpan::clamped(Lpa(6), 3, 8).len(), 2);
/// assert_eq!(LpaSpan::reduced(14, 3, 8).start(), Lpa(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpaSpan {
    start: u64,
    end: u64,
}

impl LpaSpan {
    /// Whole range or nothing (a host I/O command): `None` unless every page
    /// of `[addr, addr + cnt)` is exported, so a malformed request is refused
    /// before anything is allocated, written or trimmed.
    pub fn whole(addr: Lpa, cnt: u64, exported: u64) -> Option<LpaSpan> {
        let end = addr.0.checked_add(cnt).filter(|&end| end <= exported)?;
        Some(LpaSpan { start: addr.0, end })
    }

    /// Clamp to the exported space (a TimeKits query or rollback): the pages
    /// of `[addr, addr + cnt)` that exist. `addr + cnt` saturates, so a
    /// request straddling `u64::MAX` is cut short instead of wrapping.
    pub fn clamped(addr: Lpa, cnt: u64, exported: u64) -> LpaSpan {
        LpaSpan {
            start: addr.0.min(exported),
            end: addr.0.saturating_add(cnt).min(exported),
        }
    }

    /// Reduce, then clamp (a replayed record): the address wraps into the
    /// exported space and the count, at least one page, is cut to end inside
    /// it. Empty only on a device that exports nothing.
    pub fn reduced(addr: u64, cnt: u64, exported: u64) -> LpaSpan {
        let start = addr.checked_rem(exported).unwrap_or(0);
        LpaSpan {
            start,
            end: start + cnt.max(1).min(exported - start),
        }
    }

    /// First page of the span.
    pub fn start(&self) -> Lpa {
        Lpa(self.start)
    }

    /// Number of pages.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the span holds no page.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The page numbers as a raw range, for a caller that strides over them.
    pub fn range(&self) -> Range<u64> {
        self.start..self.end
    }

    /// The pages, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Lpa> {
        self.range().map(Lpa)
    }
}

/// Physical page address: a linear index over every page in the flash array.
///
/// The mapping between a `Ppa` and its (channel, chip, plane, block, page)
/// coordinates is defined by [`crate::Geometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppa(pub u64);

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Physical block address: a linear index over every block in the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Lpa(3).to_string(), "L3");
        assert_eq!(Ppa(9).to_string(), "P9");
        assert_eq!(BlockId(1).to_string(), "B1");
    }

    #[test]
    fn span_rules_on_edge_inputs() {
        let max = u64::MAX;
        let pages = |s: LpaSpan| (s.start().0, s.len());
        // (addr, cnt, exported) -> whole, clamped, reduced as (start, len).
        let table = [
            (2, 3, 8, Some((2, 3)), (2, 3), (2, 3)),
            (5, 3, 8, Some((5, 3)), (5, 3), (5, 3)),
            (6, 3, 8, None, (6, 2), (6, 2)),
            (3, 0, 8, Some((3, 0)), (3, 0), (3, 1)),
            (8, 0, 8, Some((8, 0)), (8, 0), (0, 1)),
            (8, 1, 8, None, (8, 0), (0, 1)),
            (0, u64::from(u32::MAX), 8, None, (0, 8), (0, 8)),
            (max, 2, 8, None, (8, 0), (7, 1)),
            (max, max, max, None, (max, 0), (0, max)),
        ];
        for (addr, cnt, exported, whole, clamped, reduced) in table {
            let case = format!("addr {addr} cnt {cnt} exported {exported}");
            assert_eq!(
                LpaSpan::whole(Lpa(addr), cnt, exported).map(pages),
                whole,
                "{case}"
            );
            assert_eq!(
                pages(LpaSpan::clamped(Lpa(addr), cnt, exported)),
                clamped,
                "{case}"
            );
            assert_eq!(
                pages(LpaSpan::reduced(addr, cnt, exported)),
                reduced,
                "{case}"
            );
        }
        assert!(LpaSpan::reduced(5, 1, 0).is_empty(), "nothing exported");
    }

    #[test]
    fn span_iterates_its_pages_in_order() {
        let span = LpaSpan::clamped(Lpa(6), u64::MAX, 9);
        assert_eq!(span.iter().collect::<Vec<_>>(), [Lpa(6), Lpa(7), Lpa(8)]);
        assert!(!span.is_empty());
        assert_eq!(span.range(), 6..9);
        assert_eq!(LpaSpan::whole(Lpa(9), 0, 9).unwrap().iter().count(), 0);
    }

    #[test]
    fn time_constants_compose() {
        assert_eq!(SEC_NS, 1_000 * MS_NS);
        assert_eq!(MS_NS, 1_000 * US_NS);
        assert_eq!(DAY_NS, 24 * 60 * 60 * SEC_NS);
    }

    #[test]
    fn addresses_order_naturally() {
        assert!(Lpa(1) < Lpa(2));
        assert!(Ppa(5) > Ppa(4));
    }
}
