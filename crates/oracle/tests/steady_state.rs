//! The oracle in the regime the figures run in: steady-state traffic over
//! most of a `medium_test` device with the default Bloom filters, long
//! enough that GC reuses data blocks as delta blocks of older filters and
//! the chain drops filters.
//!
//! A rewritten page's OOB back-pointer names the superseded version's
//! original page. Once that version is compressed, its block can be erased
//! and reused as a delta block of an older filter. When that filter drops,
//! the data link lands on an expired delta page: it must end the data chain
//! and go on to the IMT head, not end the walk, or every delta behind it —
//! filed under filters still live — becomes unreachable.

use almanac_core::{SsdConfig, SsdReadOps};
use almanac_flash::{Geometry, SEC_NS};
use almanac_oracle::{strategy::steady_state_ops, DifferentialHarness};

#[test]
fn a_filter_drop_in_steady_state_orphans_no_history() {
    let cfg = SsdConfig::new(Geometry::medium_test()).with_min_retention(SEC_NS);
    let mut h = DifferentialHarness::new(cfg).with_check_every(1000);
    let span = h.ssd().exported_pages() * 8 / 10;
    let report = h.run(&steady_state_ops(span, 1, 17_000));
    assert!(report.is_clean(), "{report}");
    let dropped = h.ssd().stats().filters_dropped;
    assert!(
        dropped >= 1,
        "the stream dropped no filter: it no longer reaches the regime it guards"
    );
}
